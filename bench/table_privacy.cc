// Privacy/utility study: accuracy vs the RDP-accounted epsilon for every
// method of Table II, under DP-SGD clip-and-noise (src/privacy) and the
// secure-aggregation masking overlay. Each method runs once without DP and
// once per noise multiplier in the sweep; every cell reports the best test
// accuracy and the epsilon(delta) the accountant certifies after the run —
// the trade-off curve the DP-FL literature plots (more noise, smaller
// epsilon, lower accuracy).
//
// With --codec set to a lossy scheme the sweep measures DP composed with
// compressed uplinks (noise is added on-device *before* the codec, so
// quantisation acts on the noised update). --secure_agg=true (default) runs
// the masked-aggregation overlay in every cell, which FC_CHECKs the
// fixed-point cancellation each round — so the table doubles as an
// end-to-end masking verification across all six algorithms.
//
//   ./table_privacy [--clients 20] [--rounds 12] [--clip 1.0]
//                   [--noises 0.5,1.0,2.0] [--delta 1e-5]
//                   [--codec identity|delta|int8|topk|int8_topk] [--topk 0.1]
//                   [--secure_agg true] [--csv table_privacy.csv]
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "comm/wire.h"
#include "util/csv_writer.h"
#include "util/flags.h"
#include "util/obs_init.h"
#include "util/table_printer.h"

namespace fedcross::bench {
namespace {

std::vector<double> ParseNoises(const std::string& csv) {
  std::vector<double> noises;
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    std::string item = csv.substr(start, comma - start);
    if (!item.empty()) noises.push_back(std::stod(item));
    start = comma + 1;
  }
  return noises;
}

int Main(int argc, char** argv) {
  util::FlagParser flags(argc, argv);
  fl::SetFlThreads(flags.GetInt("fl_threads", 0));
  int num_clients = flags.GetInt("clients", 20);
  int rounds = flags.GetInt("rounds", 12);
  double clip = flags.GetDouble("clip", 1.0);
  std::string noise_list = flags.GetString("noises", "0.5,1.0,2.0");
  double delta = flags.GetDouble("delta", 1e-5);
  std::string codec_name = flags.GetString("codec", "identity");
  double topk = flags.GetDouble("topk", 0.1);
  bool secure_agg = flags.GetBool("secure_agg", true);
  std::string csv_path = flags.GetString("csv", "table_privacy.csv");
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
  std::vector<double> noises = ParseNoises(noise_list);
  if (noises.empty()) {
    std::fprintf(stderr, "--noises must name at least one multiplier\n");
    return 1;
  }

  std::vector<std::string> header = {"Method", "no-DP best (%)"};
  for (double noise : noises) {
    char cell[48];
    std::snprintf(cell, sizeof(cell), "s=%.2g best (%%) / eps", noise);
    header.push_back(cell);
  }
  util::TablePrinter table(header);
  util::CsvWriter csv(csv_path);
  csv.WriteRow({"method", "codec", "secure_agg", "clip", "noise", "delta",
                "epsilon", "best_accuracy", "final_accuracy", "dp_clipped",
                "mask_pairs"});

  for (const std::string& method : PaperMethods()) {
    std::vector<std::string> row = {method};
    for (int cell = 0; cell <= static_cast<int>(noises.size()); ++cell) {
      RunSpec spec;
      spec.method = method;
      spec.data.num_clients = num_clients;
      spec.rounds = rounds;
      spec.codec = codec;
      spec.secure_agg.enabled = secure_agg;
      if (cell > 0) {
        spec.dp.clip_norm = static_cast<float>(clip);
        spec.dp.noise_multiplier =
            static_cast<float>(noises[static_cast<std::size_t>(cell - 1)]);
        spec.dp.delta = delta;
      }
      auto result = RunMethod(spec);
      if (!result.ok()) {
        std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
        return 1;
      }
      const RunResult& run = result.value();
      double best = run.history.BestAccuracy() * 100.0;
      if (cell == 0) {
        row.push_back(util::TablePrinter::Fixed(best));
      } else {
        char text[48];
        std::snprintf(text, sizeof(text), "%.2f / %.2f", best,
                      run.dp_epsilon);
        row.push_back(text);
      }
      csv.WriteRow(
          {method, comm::SchemeName(spec.codec.scheme),
           secure_agg ? "1" : "0", util::CsvWriter::Field(spec.dp.clip_norm),
           util::CsvWriter::Field(spec.dp.noise_multiplier),
           util::CsvWriter::Field(delta),
           util::CsvWriter::Field(run.dp_epsilon),
           util::CsvWriter::Field(run.history.BestAccuracy()),
           util::CsvWriter::Field(run.final_accuracy),
           util::CsvWriter::Field(static_cast<double>(run.dp_clipped)),
           util::CsvWriter::Field(static_cast<double>(run.mask_pairs))});
    }
    table.AddRow(row);
    std::printf("finished: %s\n", method.c_str());
  }

  std::printf("=== Privacy/utility: best accuracy vs epsilon(delta=%g), "
              "clip=%g, codec=%s, secure_agg=%s, %d rounds ===\n",
              delta, clip, comm::SchemeName(scheme.value()),
              secure_agg ? "on" : "off", rounds);
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
