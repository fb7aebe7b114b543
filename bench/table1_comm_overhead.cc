// Regenerates Table I + the Section IV-C3 communication analysis: per-round
// communication of every method, measured by the CommTracker during a real
// run (not an analytic estimate). The paper's claim to verify: FedCross
// moves exactly 2K models per round — the same as FedAvg and less than
// SCAFFOLD (4K payloads) and FedGen (2K models + K generators).
//
// With --codec set to one of the lossy schemes (int8 | topk | int8_topk)
// every method runs twice — once under the identity codec, once under the
// requested one — and the table gains the measured upload compression ratio
// (raw payload bytes / encoded wire bytes) plus the final-accuracy delta
// the compression cost. --codec delta measures the lossless scheme the same
// way (ratio only; the accuracy delta is zero by construction).
//
//   ./table1_comm_overhead [--clients 20] [--rounds 2] [--codec int8_topk]
//                          [--topk 0.1] [--csv table1_comm.csv]
//
// Supports the shared observability flags (--events_out/--trace_out/
// --metrics_out): with --events_out set, every measured round of every
// method lands in one JSONL file, so the table can be cross-checked against
// the per-round raw/wire byte counts in the event stream.
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "comm/wire.h"
#include "util/csv_writer.h"
#include "util/flags.h"
#include "util/obs_init.h"
#include "util/table_printer.h"

namespace fedcross::bench {
namespace {

const char* Category(const std::string& method) {
  if (method == "fedavg") return "Classic";
  if (method == "fedprox" || method == "scaffold") {
    return "Global Control Variable";
  }
  if (method == "fedgen") return "Knowledge Distillation";
  if (method == "clusamp") return "Client Grouping";
  return "Multi-Model Guided";
}

int Main(int argc, char** argv) {
  util::FlagParser flags(argc, argv);
  fl::SetFlThreads(flags.GetInt("fl_threads", 0));
  int num_clients = flags.GetInt("clients", 20);
  int rounds = flags.GetInt("rounds", 2);
  std::string csv_path = flags.GetString("csv", "table1_comm.csv");
  std::string codec_name = flags.GetString("codec", "identity");
  double topk = flags.GetDouble("topk", 0.1);
  util::Status obs_status = util::InitObservability(flags);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 1;
  }
  if (!obs_status.ok()) {
    std::fprintf(stderr, "%s\n", obs_status.ToString().c_str());
    return 1;
  }
  util::StatusOr<comm::Scheme> scheme = comm::ParseScheme(codec_name);
  if (!scheme.ok()) {
    std::fprintf(stderr, "%s\n", scheme.status().ToString().c_str());
    return 1;
  }
  const comm::CodecOptions codec{scheme.value(), topk};
  if (util::Status valid = comm::ValidateCodecOptions(codec); !valid.ok()) {
    std::fprintf(stderr, "--topk: %s\n", valid.ToString().c_str());
    return 1;
  }
  const bool compare = scheme.value() != comm::Scheme::kIdentity;

  util::TablePrinter table(
      compare ? std::vector<std::string>{"Method", "Category",
                                         "Round down (model-eq)",
                                         "Round up (model-eq)", "Up ratio",
                                         "Acc delta (pp)", "Overhead class"}
              : std::vector<std::string>{"Method", "Category",
                                         "Round down (model-eq)",
                                         "Round up (model-eq)",
                                         "Overhead class"});
  util::CsvWriter csv(csv_path);
  csv.WriteRow({"method", "category", "bytes_down", "bytes_up", "models_down",
                "models_up", "codec", "wire_bytes_down", "wire_bytes_up",
                "upload_ratio", "accuracy", "identity_accuracy", "overhead"});

  for (const std::string& method : PaperMethods()) {
    RunSpec spec;
    spec.method = method;
    spec.data.num_clients = num_clients;
    spec.rounds = rounds;  // >= 2: FedGen's generator payload is active
    auto identity = RunMethod(spec);
    if (!identity.ok()) {
      std::fprintf(stderr, "%s\n", identity.status().ToString().c_str());
      return 1;
    }
    // The codec run replays the identical round sequence (same seeds, same
    // client draws); only the uplink encoding differs.
    spec.codec = codec;
    auto coded = compare ? RunMethod(spec) : identity;
    if (!coded.ok()) {
      std::fprintf(stderr, "%s\n", coded.status().ToString().c_str());
      return 1;
    }
    const RunResult& base = identity.value();
    const RunResult& wire = coded.value();

    double model_bytes =
        static_cast<double>(fl::CommTracker::FloatBytes(base.model_size));
    double down = base.round_bytes_down / model_bytes;
    double up = base.round_bytes_up / model_bytes;
    // Measured upload compression: raw payload bytes over encoded frame
    // bytes, across the whole run.
    double up_ratio = wire.total_wire_bytes_up > 0
                          ? static_cast<double>(wire.total_raw_bytes_up) /
                                static_cast<double>(wire.total_wire_bytes_up)
                          : 0.0;
    double acc_delta_pp =
        (wire.final_accuracy - base.final_accuracy) * 100.0;
    int k = std::max(2, num_clients / 10);
    double total = down + up;
    const char* overhead = total <= 2.0 * k + 0.01
                               ? "Low"
                               : (total < 3.5 * k ? "Medium" : "High");
    if (compare) {
      char ratio_cell[32];
      std::snprintf(ratio_cell, sizeof(ratio_cell), "%.1fx", up_ratio);
      char delta_cell[32];
      std::snprintf(delta_cell, sizeof(delta_cell), "%+.2f", acc_delta_pp);
      table.AddRow({method, Category(method), util::TablePrinter::Fixed(down),
                    util::TablePrinter::Fixed(up), ratio_cell, delta_cell,
                    overhead});
    } else {
      table.AddRow({method, Category(method), util::TablePrinter::Fixed(down),
                    util::TablePrinter::Fixed(up), overhead});
    }
    csv.WriteRow({method, Category(method),
                  util::CsvWriter::Field(base.round_bytes_down),
                  util::CsvWriter::Field(base.round_bytes_up),
                  util::CsvWriter::Field(down), util::CsvWriter::Field(up),
                  comm::SchemeName(spec.codec.scheme),
                  util::CsvWriter::Field(
                      static_cast<double>(wire.total_wire_bytes_down)),
                  util::CsvWriter::Field(
                      static_cast<double>(wire.total_wire_bytes_up)),
                  util::CsvWriter::Field(up_ratio),
                  util::CsvWriter::Field(wire.final_accuracy),
                  util::CsvWriter::Field(base.final_accuracy), overhead});
  }

  std::printf("=== Table I: methods, categories, measured per-round "
              "communication (in model-equivalents, K=%d%s%s) ===\n",
              std::max(2, num_clients / 10),
              compare ? ", codec=" : "",
              compare ? comm::SchemeName(scheme.value()) : "");
  table.Print(stdout);
  std::printf("CSV written to %s\n", csv_path.c_str());
  util::Status flushed = util::FlushObservability();
  if (!flushed.ok()) {
    std::fprintf(stderr, "%s\n", flushed.ToString().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace fedcross::bench

int main(int argc, char** argv) { return fedcross::bench::Main(argc, argv); }
