// fcbench driver: runs one workload as a closed-loop FL simulation and
// prints one raw measurement record -- a JSON object, the last line of
// stdout -- that run.py turns into metrics. Progress goes to stderr.
//
//   fcbench_driver --workload cnn-sync --seed 1 --seconds 10 --trace 0
//                  --scratch DIR
//
// A run is a sequence of repetitions. Repetition i builds the workload from
// RepSeed(seed, i), drives `rounds` RunRound calls back to back through the
// public FlAlgorithm API (timing each call), evaluates and checkpoints on
// the workload's cadence, then checks the result: finite parameters and
// losses, the accuracy floor, and a SaveCheckpoint -> fresh instance ->
// LoadCheckpoint round trip that must restore GlobalParams bit for bit.
//
// Every duration is wall time on the steady clock: what a user of the
// simulation waits, whichever threads do the work.
//
// --trace 0 runs untraced repetitions for --seconds, and at least enough of
// them that 100 rounds are timed. --trace 1 runs each repetition twice,
// untraced then traced (the pair gives the tracing overhead and must agree
// bit for bit), then probes each layer on the last traced repetition's live
// state.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fl/parallel.h"
#include "json_out.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "probes.h"
#include "tensor/tensor_ops.h"
#include "util/mem_stats.h"
#include "workloads.h"

#ifndef FCBENCH_BUILD_TYPE
#define FCBENCH_BUILD_TYPE "unknown"
#endif

namespace fcbench {
namespace {

namespace fl = fedcross::fl;
namespace obs = fedcross::obs;
namespace util = fedcross::util;

using Clock = std::chrono::steady_clock;

constexpr int kMinTimedRounds = 100;  // p90 then has 10 rounds beyond it
constexpr int kMinSetups = 31;

// Wall time elapsed since construction, in ms.
struct Stopwatch {
  Clock::time_point start = Clock::now();

  double Ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;
};

std::string ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return "missing value for " + key;
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return "bad --seed " + value;
      have_seed = true;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0.0)) {
        return "bad --seconds " + value;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return "bad --trace " + value;
      args->trace = value == "1";
    } else if (key == "--scratch") {
      args->scratch = value;
    } else {
      return "unknown flag " + key;
    }
  }
  if (args->workload.empty() || !have_seed || args->scratch.empty()) {
    return "usage: fcbench_driver --workload NAME --seed N --seconds S "
           "--trace 0|1 --scratch DIR";
  }
  return "";
}

// FNV-1a over the parameters' bytes: equal digests mean bit-identical
// parameters (with overwhelming probability).
std::uint64_t Digest(const fl::FlatParams& params) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(params.data());
  for (std::size_t i = 0; i < params.size() * sizeof(float); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
  return h;
}

std::string Hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

bool AllFinite(const fl::FlatParams& params) {
  return std::all_of(params.begin(), params.end(),
                     [](float v) { return std::isfinite(v); });
}

// Counters the traced repetitions read from the metrics registry.
const char* const kCounters[] = {
    "fl.plan.steps",        "fl.plan.fused_steps",   "fl.plan.fallback_jobs",
    "fl.pool.checkout.hit", "fl.pool.checkout.miss", "util.pool.tasks",
    "fl.clients.jobs",
};

// What the traced repetitions observed, summed over them.
struct TraceTotals {
  int reps = 0;
  int rounds = 0;
  double round_ms = 0.0;
  double phase_self_ms = 0.0;
  bool harvest_ok = true;
  std::int64_t dispatches = 0;
  std::map<std::string, std::int64_t> counters;
  double arena_bytes_max = 0.0;
  double queue_depth_max = 0.0;
  std::int64_t resident_max = 0;
  std::int64_t retries = 0;
  std::int64_t timeouts = 0;
  double wire_wasted = 0.0;
  double wire_total = 0.0;
  double staleness_sum = 0.0;
  std::int64_t staleness_count = 0;
  std::int64_t mask_pairs = 0;
  std::int64_t mask_recoveries = 0;
};

class Runner {
 public:
  Runner(const Workload& w, const Args& args)
      : w_(w), args_(args), ledger_(args.scratch + "/trace-export.json") {}

  // Builds repetition `rep`'s data and server, timing both.
  std::unique_ptr<fl::FlAlgorithm> Build(int rep) {
    const std::uint64_t seed = RepSeed(args_.seed, rep);
    Stopwatch data_watch;
    fedcross::data::FederatedDataset data = MakeFederation(w_, seed);
    data_ms_.push_back(data_watch.Ms());
    Stopwatch server_watch;
    std::unique_ptr<fl::FlAlgorithm> server =
        MakeServer(w_, seed, rep, std::move(data));
    server_ms_.push_back(server_watch.Ms());
    return server;
  }

  // One closed-loop simulation of repetition `rep`; returns its record.
  std::string RunRep(int rep, bool traced);

  // Probes every layer on the last traced repetition's live server.
  std::string Probe() {
    if (live_ == nullptr) return "no traced repetition to probe";
    obs::SetTracingEnabled(true);
    std::string error = RunProbes(w_, live_seed_, *live_);
    obs::SetTracingEnabled(false);
    if (ledger_.Harvest() < 0.0) error = "trace export unreadable";
    return error;
  }

  std::size_t setups() const { return data_ms_.size(); }
  void SetupRecord(JsonObject& record) const {
    record.Nums("data_ms", data_ms_).Nums("server_ms", server_ms_);
  }
  std::string TraceRecord() const;
  bool WriteTrace(const std::string& path) const {
    return ledger_.WriteTrace(path);
  }

 private:
  void BeginTrace() {
    obs::MetricsRegistry::Global().Reset();
    obs::TraceRecorder::Global().Clear();
    obs::SetMetricsEnabled(true);
    obs::SetTracingEnabled(true);
  }
  void EndTrace(fl::FlAlgorithm& server);

  const Workload& w_;
  const Args& args_;
  SpanLedger ledger_;
  std::vector<double> data_ms_;
  std::vector<double> server_ms_;
  std::unique_ptr<fl::FlAlgorithm> live_;
  std::uint64_t live_seed_ = 0;
  TraceTotals totals_;
};

std::string Runner::RunRep(int rep, bool traced) {
  live_.reset();
  std::unique_ptr<fl::FlAlgorithm> server = Build(rep);
  if (traced) BeginTrace();

  const std::string periodic_path = args_.scratch + "/periodic.fcrs";
  std::vector<double> round_ms;
  std::vector<double> eval_ms;
  std::vector<double> eval_acc;
  std::vector<double> save_ms;
  std::vector<double> load_ms;
  std::vector<std::string> failures;
  int failed_rounds = 0;
  int checked_through = 0;  // rounds covered by a passed or failed check
  int periodic_saves = 0;
  double loop_ms = 0.0;      // RunRound calls
  double excluded_ms = 0.0;  // trace harvesting, kept off the run's clock
  double ttt_ms = -1.0;
  double final_acc = 0.0;
  fl::FlatParams global;

  const Stopwatch run;
  for (int r = 0; r < w_.rounds; ++r) {
    Stopwatch round;
    {
      FC_TRACE_SPAN_ARG("bench.round", r + 1);
      server->RunRound(r);
    }
    round_ms.push_back(round.Ms());
    loop_ms += round_ms.back();

    if (traced) {
      Stopwatch harvest;
      const double self_ms = ledger_.Harvest();
      if (self_ms < 0.0) totals_.harvest_ok = false;
      totals_.phase_self_ms += self_ms;
      totals_.round_ms += round_ms.back();
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      totals_.arena_bytes_max = std::max(
          totals_.arena_bytes_max, reg.GetGauge("fl.pool.arena_bytes").Value());
      totals_.queue_depth_max =
          std::max(totals_.queue_depth_max,
                   reg.GetGauge("util.pool.queue_depth").Value());
      totals_.resident_max = std::max(totals_.resident_max,
                                      server->population().resident_clients());
      excluded_ms += harvest.Ms();
    }

    // Every round until the target is reached (time_to_target resolves to
    // one round), then on the workload's cadence and after the last round.
    if (ttt_ms < 0.0 || (r + 1) % w_.eval_every == 0 ||
        r + 1 == w_.rounds) {
      Stopwatch eval_watch;
      fl::EvalResult eval;
      {
        FC_TRACE_SPAN("bench.global_gen");
        global = server->GlobalParams();
      }
      {
        FC_TRACE_SPAN("bench.eval");
        eval = server->Evaluate(global);
      }
      eval_ms.push_back(eval_watch.Ms());
      eval_acc.push_back(eval.accuracy);
      if (!std::isfinite(eval.loss) || !AllFinite(global)) {
        failures.push_back("round " + std::to_string(r + 1) +
                           ": non-finite global params or eval loss");
        failed_rounds += r + 1 - checked_through;
      }
      checked_through = r + 1;
      final_acc = eval.accuracy;
      if (ttt_ms < 0.0 && eval.accuracy >= w_.target_acc) {
        ttt_ms = run.Ms() - excluded_ms;
      }
    }
    if (w_.checkpoint_every > 0 && (r + 1) % w_.checkpoint_every == 0) {
      Stopwatch save_watch;
      util::Status saved;
      {
        FC_TRACE_SPAN("bench.checkpoint.save");
        saved = server->SaveCheckpoint(periodic_path);
      }
      save_ms.push_back(save_watch.Ms());
      ++periodic_saves;
      if (!saved.ok()) {
        failures.push_back("round " + std::to_string(r + 1) +
                           ": SaveCheckpoint failed: " + saved.ToString());
        ++failed_rounds;
      }
    }
  }
  const double run_ms = run.Ms() - excluded_ms;

  // End-of-run checks; a failure here fails every round of the repetition.
  const std::size_t loop_failures = failures.size();
  if (final_acc < w_.acc_floor) {
    failures.push_back("final accuracy " + Number(final_acc) +
                       " below floor " + Number(w_.acc_floor));
  }
  if (ttt_ms < 0.0) {
    failures.push_back("target accuracy " + Number(w_.target_acc) +
                       " never reached");
  }
  const std::string roundtrip_path = args_.scratch + "/roundtrip.fcrs";
  Stopwatch save_watch;
  util::Status saved;
  {
    FC_TRACE_SPAN("bench.checkpoint.save");
    saved = server->SaveCheckpoint(roundtrip_path);
  }
  save_ms.push_back(save_watch.Ms());
  std::error_code size_error;
  const std::uintmax_t checkpoint_bytes =
      std::filesystem::file_size(roundtrip_path, size_error);
  std::unique_ptr<fl::FlAlgorithm> fresh = Build(rep);
  Stopwatch load_watch;
  util::Status loaded;
  {
    FC_TRACE_SPAN("bench.checkpoint.load");
    loaded = fresh->LoadCheckpoint(roundtrip_path);
  }
  load_ms.push_back(load_watch.Ms());
  const fl::FlatParams restored = fresh->GlobalParams();
  if (!saved.ok() || !loaded.ok() || size_error ||
      restored.size() != global.size() ||
      std::memcmp(restored.data(), global.data(),
                  global.size() * sizeof(float)) != 0) {
    failures.push_back("checkpoint round trip did not restore GlobalParams: " +
                       saved.ToString() + " / " + loaded.ToString());
  }
  fresh.reset();
  if (failures.size() > loop_failures) failed_rounds = w_.rounds;
  failed_rounds = std::min(failed_rounds, w_.rounds);

  // Every dispatch -- first attempts and retries alike -- downloads the
  // model once, so the raw downlink total counts them.
  const fl::CommTracker& comm = server->comm();
  const std::int64_t model_bytes =
      server->model_size() * static_cast<std::int64_t>(sizeof(float));
  const std::int64_t dispatches =
      static_cast<std::int64_t>(comm.total_download_bytes()) / model_bytes;

  if (traced) {
    ++totals_.reps;
    totals_.rounds += w_.rounds;
    totals_.dispatches += dispatches;
    EndTrace(*server);
    live_ = std::move(server);
    live_seed_ = RepSeed(args_.seed, rep);
  }

  std::fprintf(stderr,
               "fcbench: %s rep %d: %d rounds, loop %.3f s, acc %.2f%%, "
               "target at %.3f s, %zu failure(s)\n",
               traced ? "traced" : "untraced", rep, w_.rounds,
               loop_ms / 1000.0, final_acc * 100.0, ttt_ms / 1000.0,
               failures.size());
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "fcbench:   FAILED %s\n", failure.c_str());
  }

  JsonObject record;
  record.Int("rep", rep)
      .Raw("traced", traced ? "true" : "false")
      .Int("rounds", w_.rounds)
      .Int("failed_rounds", failed_rounds)
      .Texts("failures", failures)
      .Nums("round_ms", round_ms)
      .Num("loop_ms", loop_ms)
      .Num("run_ms", run_ms)
      .Num("ttt_ms", ttt_ms)
      .Num("final_acc", final_acc)
      .Text("digest", Hex(Digest(global)))
      .Int("dispatches", dispatches)
      .Num("uplink_wire_bytes",
           static_cast<double>(comm.total_wire_upload_bytes()))
      .Num("uplink_raw_bytes", static_cast<double>(comm.total_upload_bytes()))
      .Nums("eval_ms", eval_ms)
      .Nums("eval_acc", eval_acc)
      .Nums("checkpoint_save_ms", save_ms)
      .Nums("checkpoint_load_ms", load_ms)
      .Int("checkpoint_bytes", static_cast<std::int64_t>(checkpoint_bytes))
      .Int("periodic_checkpoints", periodic_saves);
  return record.Str();
}

void Runner::EndTrace(fl::FlAlgorithm& server) {
  if (ledger_.Harvest() < 0.0) totals_.harvest_ok = false;
  obs::SetTracingEnabled(false);
  obs::SetMetricsEnabled(false);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  for (const char* name : kCounters) {
    totals_.counters[name] += reg.GetCounter(name).Value();
  }
  obs::Histogram& staleness = reg.GetHistogram("fl.staleness");
  totals_.staleness_sum += staleness.Sum();
  totals_.staleness_count += staleness.TotalCount();

  const fl::FaultStats& faults = server.fault_stats();
  totals_.retries += faults.retries;
  totals_.timeouts += faults.timeouts;
  const fl::CommTracker& comm = server.comm();
  totals_.wire_wasted += static_cast<double>(comm.total_wire_wasted_bytes());
  totals_.wire_total += static_cast<double>(comm.total_wire_download_bytes() +
                                            comm.total_wire_upload_bytes());
  totals_.mask_pairs += server.privacy_stats().mask_pairs;
  totals_.mask_recoveries += server.privacy_stats().mask_recoveries;
}

std::string Runner::TraceRecord() const {
  JsonObject spans;
  for (const auto& [name, total] : ledger_.totals()) {
    spans.Raw(name,
              JsonObject().Num("ms", total.ms).Int("count", total.count).Str());
  }
  JsonObject counters;
  for (const auto& [name, value] : totals_.counters) counters.Int(name, value);
  JsonObject record;
  record.Raw("harvest_ok", totals_.harvest_ok ? "true" : "false")
      .Int("reps", totals_.reps)
      .Int("rounds", totals_.rounds)
      .Num("round_ms_total", totals_.round_ms)
      .Num("phase_self_ms_total", totals_.phase_self_ms)
      .Int("dispatches", totals_.dispatches)
      .Num("train_window_ms", ledger_.train_window_ms())
      .Num("pool_in_train_ms", ledger_.pool_in_train_ms())
      .Raw("spans", spans.Str())
      .Raw("counters", counters.Str())
      .Num("arena_bytes_max", totals_.arena_bytes_max)
      .Num("queue_depth_max", totals_.queue_depth_max)
      .Int("resident_clients_max", totals_.resident_max)
      .Int("retries", totals_.retries)
      .Int("timeouts", totals_.timeouts)
      .Num("wire_wasted_bytes", totals_.wire_wasted)
      .Num("wire_total_bytes", totals_.wire_total)
      .Num("staleness_sum", totals_.staleness_sum)
      .Int("staleness_count", totals_.staleness_count)
      .Int("mask_pairs", totals_.mask_pairs)
      .Int("mask_recoveries", totals_.mask_recoveries);
  return record.Str();
}

int Run(int argc, char** argv) {
  Args args;
  std::string error = ParseArgs(argc, argv, &args);
  const Workload* w = FindWorkload(args.workload);
  if (error.empty() && w == nullptr) {
    error = "unknown workload '" + args.workload + "' (want " +
            WorkloadNames() + ")";
  }
  if (!error.empty()) {
    std::fprintf(stderr, "fcbench: %s\n", error.c_str());
    return 2;
  }
  // One malloc arena: with glibc's default of one per thread, which arena
  // each pool thread lands on -- and so the peak RSS -- varies run to run.
  mallopt(M_ARENA_MAX, 1);
  fl::SetFlThreads(w->fl_threads);
  // Announced first, so a run that crashes still tells how many rounds each
  // repetition attempted.
  std::printf("{\"event\":\"start\",\"rounds_per_rep\":%d}\n", w->rounds);
  std::fflush(stdout);

  Runner runner(*w, args);
  std::vector<std::string> reps;
  const Stopwatch budget;
  const double budget_ms = args.seconds * 1000.0;
  const int min_reps =
      args.trace ? 1 : (kMinTimedRounds + w->rounds - 1) / w->rounds;
  // Start another repetition only if it should finish inside the budget,
  // judging by the ones already run (or if too few rounds are timed yet).
  int rep = 0;
  do {
    reps.push_back(runner.RunRep(rep, false));
    if (args.trace) reps.push_back(runner.RunRep(rep, true));
    ++rep;
  } while (rep < min_reps || budget.Ms() * (rep + 1) / rep <= budget_ms);
  // Set-up time is a median: top it up with builds of further seeds.
  for (int extra = 0; runner.setups() < kMinSetups; ++extra) {
    runner.Build(rep + extra);
  }

  std::string probe_error;
  std::string trace_path;
  if (args.trace) {
    probe_error = runner.Probe();
    trace_path = args.scratch + "/trace.json";
    if (!runner.WriteTrace(trace_path)) trace_path.clear();
  }

  JsonObject host;
  host.Int("nproc",
           static_cast<std::int64_t>(std::thread::hardware_concurrency()))
      .Int("fl_threads", fl::FlThreads())
      .Text("simd",
            fedcross::ops::SimdTierName(fedcross::ops::ActiveSimdTier()))
      .Text("build_type", FCBENCH_BUILD_TYPE);
  JsonObject config;
  config.Int("rounds", w->rounds)
      .Int("k", w->config.clients_per_round)
      .Int("clients", w->num_clients)
      .Int("eval_every", w->eval_every)
      .Int("checkpoint_every", w->checkpoint_every)
      .Int("max_resident", w->config.state_store.max_resident)
      .Num("target_acc", w->target_acc)
      .Num("acc_floor", w->acc_floor)
      .Int("gemm_n", kGemmN)
      .Int("masked_cohort", MaskedCohort(*w))
      .Num("flops_per_sample", TrainFlopsPerSample(*w))
      .Int("samples_per_dispatch", SamplesPerDispatch(*w));
  JsonObject record;
  record.Text("workload", w->name)
      .Int("seed", static_cast<std::int64_t>(args.seed))
      .Int("trace", args.trace ? 1 : 0)
      .Raw("host", host.Str())
      .Raw("config", config.Str());
  runner.SetupRecord(record);
  std::string rep_list = "[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    rep_list += (i > 0 ? "," : "") + reps[i];
  }
  record.Raw("reps", rep_list + "]")
      .Num("peak_rss_mb", static_cast<double>(util::PeakRssBytes()) / 1e6);
  if (args.trace) {
    record.Raw("trace_totals", runner.TraceRecord())
        .Text("probe_error", probe_error)
        .Text("trace_file", trace_path);
  }
  std::printf("%s\n", record.Str().c_str());
  return 0;
}

}  // namespace
}  // namespace fcbench

int main(int argc, char** argv) { return fcbench::Run(argc, argv); }
