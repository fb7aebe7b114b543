#include "fl/algorithm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "fl/flat_ops.h"
#include "fl/parallel.h"
#include "fl/plan_runner.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "privacy/dp.h"
#include "util/logging.h"
#include "util/mem_stats.h"

namespace fedcross::fl {
namespace {

// Span names for PhaseScope, indexed by RoundPhase. Static storage: the
// trace ring stores the pointer.
constexpr const char* kPhaseSpanNames[] = {
    "phase.dispatch", "phase.train",     "phase.screen",
    "phase.aggregate", "phase.eval",     "phase.checkpoint",
};

// Minimum coordinates per aggregation shard: below this the per-task
// overhead of the pool outweighs the bandwidth win, and tiny models keep
// the historical single-range walk.
constexpr std::int64_t kMinAggRangeElems = 4096;

// True when any observability sink wants per-phase timings.
bool ObservabilityActive() {
  return obs::MetricsEnabled() || obs::TracingEnabled() ||
         obs::EventsEnabled();
}

// Registry handles are resolved once per process; the addresses are stable
// across MetricsRegistry::Reset.
struct FlMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter& rounds = reg.GetCounter("fl.rounds");
  obs::Counter& client_jobs = reg.GetCounter("fl.clients.jobs");
  obs::Counter& uploads_accepted = reg.GetCounter("fl.uploads.accepted");
  obs::Counter& robust_aggregations = reg.GetCounter("fl.agg.robust");
  obs::Gauge& comm_down = reg.GetGauge("fl.comm.total_down_bytes");
  obs::Gauge& comm_up = reg.GetGauge("fl.comm.total_up_bytes");
  obs::Gauge& comm_wire_down = reg.GetGauge("fl.comm.total_wire_down_bytes");
  obs::Gauge& comm_wire_up = reg.GetGauge("fl.comm.total_wire_up_bytes");
  obs::Gauge& comm_wasted = reg.GetGauge("fl.comm.wasted_raw_bytes");
  obs::Gauge& comm_wire_wasted = reg.GetGauge("fl.comm.wasted_wire_bytes");
  obs::Gauge& faults_dropouts = reg.GetGauge("fl.faults.dropouts");
  obs::Gauge& faults_stragglers = reg.GetGauge("fl.faults.stragglers");
  obs::Gauge& faults_corrupted = reg.GetGauge("fl.faults.corrupted");
  obs::Gauge& faults_rejected = reg.GetGauge("fl.faults.rejected");
  obs::Gauge& faults_timeouts = reg.GetGauge("fl.faults.timeouts");
  obs::Gauge& faults_retries = reg.GetGauge("fl.faults.retries");
  obs::Gauge& virtual_time = reg.GetGauge("fl.clock.virtual_time");
  obs::Histogram& staleness = reg.GetHistogram("fl.staleness");
  obs::Gauge& population_resident =
      reg.GetGauge("fl.population.resident_clients");
  obs::Gauge& peak_rss = reg.GetGauge("fl.mem.peak_rss_bytes");
  obs::Histogram& round_ms = reg.GetHistogram("fl.round_ms");
  obs::Histogram& checkpoint_save_ms =
      reg.GetHistogram("fl.checkpoint.save_ms");
  obs::Histogram& checkpoint_load_ms =
      reg.GetHistogram("fl.checkpoint.load_ms");
  // Privacy subsystem: the RDP accountant's running eps(delta) and the
  // cumulative clip / mask tallies.
  obs::Gauge& privacy_epsilon = reg.GetGauge("fl.privacy.epsilon");
  obs::Gauge& privacy_clipped = reg.GetGauge("fl.privacy.clipped_uploads");
  obs::Gauge& privacy_mask_pairs = reg.GetGauge("fl.privacy.mask_pairs");
  obs::Gauge& privacy_mask_recoveries =
      reg.GetGauge("fl.privacy.mask_recoveries");
};

FlMetrics& Metrics() {
  static FlMetrics* metrics = new FlMetrics();
  return *metrics;
}

// SplitMix64 finalizer: bijective avalanche mix.
std::uint64_t MixSeed(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Deterministic per-(run, round, batch, slot) seed for one client job. This
// derivation — not the shared run Rng — is what makes the parallel schedule
// bit-identical to the sequential one.
std::uint64_t ClientJobSeed(std::uint64_t seed, int round, int salt,
                            int slot) {
  std::uint64_t h = MixSeed(seed ^ 0x636c69656e74ULL);  // "client"
  h = MixSeed(h + static_cast<std::uint64_t>(round));
  h = MixSeed(h + static_cast<std::uint64_t>(salt));
  return MixSeed(h + static_cast<std::uint64_t>(slot));
}

// Seed for the codec's stochastic-rounding stream. Independent of both the
// training and the fault streams, so switching codecs never perturbs a
// client's training trajectory, and the identity codec (which draws
// nothing) is bit-identical to pre-codec runs.
std::uint64_t CodecSeed(std::uint64_t seed, int round, int salt, int slot) {
  std::uint64_t h = MixSeed(seed ^ 0x636f646563ULL);  // "codec"
  h = MixSeed(h + static_cast<std::uint64_t>(round));
  h = MixSeed(h + static_cast<std::uint64_t>(salt));
  return MixSeed(h + static_cast<std::uint64_t>(slot));
}

// Local-work estimate for a job that never trained (sync deadline miss):
// what FlClient::Train would have counted — epochs times per-epoch batches,
// including the ragged tail batch.
double NominalSteps(const TrainOptions& train, int num_samples) {
  int batch = std::max(1, train.batch_size);
  int batches = (num_samples + batch - 1) / batch;
  return static_cast<double>(train.local_epochs) * batches;
}

// Per-dispatch compute jitter factor, uniform in [1, 1 + jitter]. A zero
// jitter draws nothing, so the default clock consumes no stream entropy.
double DrawJitter(const ClockModel& clock, util::Rng& clock_rng) {
  if (clock.jitter <= 0.0) return 1.0;
  return 1.0 + clock_rng.Uniform(0.0, clock.jitter);
}

// How many clients SampleClients draws: K plus the over-provisioned extras,
// capped at N. Every dispatch batch's slots lie in [0, width).
std::int64_t DispatchWidth(const AlgorithmConfig& config,
                           std::int64_t num_clients) {
  std::int64_t want = config.clients_per_round;
  if (config.faults.over_provision > 0) {
    want = std::min(num_clients,
                    want + static_cast<std::int64_t>(
                               config.faults.over_provision));
  }
  return want;
}

// Reads an event tally. Tallies count up from 0, so a negative one, or one
// whose next ++ overflows, was not written by a run.
util::Status ReadTally(StateReader& reader, const char* what,
                       std::int64_t& tally) {
  FC_RETURN_IF_ERROR(reader.ReadI64(tally));
  if (tally < 0 || tally == std::numeric_limits<std::int64_t>::max()) {
    return util::Status::InvalidArgument(
        std::string("checkpoint ") + what + " tally " +
        std::to_string(tally) + " out of range");
  }
  return util::Status::Ok();
}

// Reads an int the file stores as an int64.
util::Status ReadInt(StateReader& reader, const char* what, int& value) {
  std::int64_t wide = 0;
  FC_RETURN_IF_ERROR(reader.ReadI64(wide));
  if (wide < std::numeric_limits<int>::min() ||
      wide > std::numeric_limits<int>::max()) {
    return util::Status::InvalidArgument(std::string("checkpoint ") + what +
                                         " " + std::to_string(wide) +
                                         " does not fit an int");
  }
  value = static_cast<int>(wide);
  return util::Status::Ok();
}

}  // namespace

FlAlgorithm::PhaseScope::PhaseScope(FlAlgorithm& algo, RoundPhase phase)
    : phase_(phase) {
  if (ObservabilityActive()) {
    algo_ = &algo;
    start_us_ = obs::TraceNowMicros();
  }
}

FlAlgorithm::PhaseScope::~PhaseScope() {
  if (algo_ == nullptr) return;
  std::int64_t end_us = obs::TraceNowMicros();
  algo_->phase_ms_[static_cast<int>(phase_)] +=
      static_cast<double>(end_us - start_us_) / 1000.0;
  if (obs::TracingEnabled()) {
    obs::TraceRecorder::Global().RecordComplete(
        kPhaseSpanNames[static_cast<int>(phase_)], start_us_,
        end_us - start_us_);
  }
}

FlAlgorithm::FlAlgorithm(std::string name, AlgorithmConfig config,
                         data::FederatedDataset data,
                         models::ModelFactory factory)
    : name_(std::move(name)),
      config_(config),
      factory_(std::move(factory)),
      pool_(factory_),
      population_(config.population, data),
      test_(std::move(data.test)),
      rng_(config.seed) {
  FC_CHECK(test_ != nullptr);
  FC_CHECK_GT(config_.clients_per_round, 0);
  FC_CHECK_LE(static_cast<std::int64_t>(config_.clients_per_round),
              population_.size())
      << "K exceeds the number of clients";
  const util::Status codec = comm::ValidateCodecOptions(config_.codec);
  FC_CHECK(codec.ok()) << codec.ToString();
  const util::Status async = ValidateAsyncOptions(config_.async);
  FC_CHECK(async.ok()) << async.ToString();
  residual_store_.Configure(config_.state_store);
  // Probe the pool's first replica once for the model size and the factory's
  // initial parameters; the replica is recycled by every later job.
  ModelPool::Lease probe = pool_.Acquire();
  model_size_ = probe->model.NumParams();
  initial_params_ = probe->model.ParamsToFlat();
  // The wire shape table: per-tensor lengths of the flattened model, in
  // flattening order. Every frame carries and validates it.
  for (const nn::Param* param : probe->model.Params()) {
    shape_table_.push_back(static_cast<std::uint32_t>(param->value.numel()));
  }
  dispatch_wire_bytes_ = comm::DispatchWireBytes(
      static_cast<std::uint64_t>(model_size_), shape_table_);
}

const MetricsHistory& FlAlgorithm::Run(int rounds, int eval_every,
                                       bool verbose) {
  FC_CHECK_GT(eval_every, 0);
  for (int round = completed_rounds_; round < rounds; ++round) {
    // Snapshot observability state once per round: sinks toggled mid-round
    // would otherwise leave a half-timed event.
    const bool observe = ObservabilityActive();
    const std::int64_t round_start_us = observe ? obs::TraceNowMicros() : 0;
    const FaultStats faults_before = fault_stats_;
    const PrivacyStats privacy_before = privacy_stats_;
    if (observe) {
      for (double& ms : phase_ms_) ms = 0.0;
    }

    comm_.BeginRound();
    round_loss_sum_ = 0.0;
    round_loss_count_ = 0;
    round_staleness_sum_ = 0.0;
    round_staleness_count_ = 0;
    round_staleness_max_ = 0;
    bool evaluated = false;
    EvalResult eval;
    double mean_client_loss = 0.0;
    {
      obs::ScopedSpan round_span("fl.round", round + 1);
      RunRound(round);
      completed_rounds_ = round + 1;
      if (observe) {
        // Read-only preview of what TakeRoundClientLoss() would return, so
        // the event carries the round's mean client loss without consuming
        // the accumulator eval rounds read below.
        mean_client_loss = round_loss_count_ > 0
                               ? round_loss_sum_ / round_loss_count_
                               : 0.0;
      }
      if ((round + 1) % eval_every == 0 || round == rounds - 1) {
        {
          PhaseScope phase(*this, RoundPhase::kEval);
          eval = Evaluate(GlobalParams());
        }
        evaluated = true;
        RoundRecord record;
        record.round = round + 1;
        record.test_loss = eval.loss;
        record.test_accuracy = eval.accuracy;
        record.bytes_up = static_cast<double>(comm_.round_upload_bytes());
        record.bytes_down = static_cast<double>(comm_.round_download_bytes());
        record.mean_client_loss = TakeRoundClientLoss();
        history_.Add(record);
        if (verbose) {
          FC_LOG(Info) << name_ << " round " << record.round << " acc "
                       << record.test_accuracy << " loss " << record.test_loss;
        }
      }
      if (checkpoint_every_ > 0 &&
          ((round + 1) % checkpoint_every_ == 0 || round == rounds - 1)) {
        PhaseScope phase(*this, RoundPhase::kCheckpoint);
        util::Status saved = SaveCheckpoint(checkpoint_path_);
        if (!saved.ok()) {
          FC_LOG(Warning) << name_ << " checkpoint to " << checkpoint_path_
                          << " failed: " << saved.ToString();
        }
      }
    }
    if (observe) {
      RecordRoundObservations(round, round_start_us, faults_before,
                              privacy_before, evaluated, eval,
                              mean_client_loss);
    }
  }
  return history_;
}

void FlAlgorithm::RecordRoundObservations(int round,
                                          std::int64_t round_start_us,
                                          const FaultStats& faults_before,
                                          const PrivacyStats& privacy_before,
                                          bool evaluated,
                                          const EvalResult& eval,
                                          double mean_client_loss) {
  const double round_ms =
      static_cast<double>(obs::TraceNowMicros() - round_start_us) / 1000.0;

  if (obs::MetricsEnabled()) {
    FlMetrics& m = Metrics();
    m.rounds.Add(1);
    m.round_ms.Observe(round_ms);
    // Satellite fold: communication totals and cumulative fault stats become
    // gauges, so one metrics snapshot carries the whole run's accounting.
    // CommTracker itself stays the source of truth for Table I.
    m.comm_down.Set(static_cast<double>(comm_.total_download_bytes()));
    m.comm_up.Set(static_cast<double>(comm_.total_upload_bytes()));
    m.comm_wire_down.Set(
        static_cast<double>(comm_.total_wire_download_bytes()));
    m.comm_wire_up.Set(static_cast<double>(comm_.total_wire_upload_bytes()));
    m.comm_wasted.Set(static_cast<double>(comm_.total_wasted_bytes()));
    m.comm_wire_wasted.Set(
        static_cast<double>(comm_.total_wire_wasted_bytes()));
    m.faults_dropouts.Set(static_cast<double>(fault_stats_.dropouts));
    m.faults_stragglers.Set(static_cast<double>(fault_stats_.stragglers));
    m.faults_corrupted.Set(static_cast<double>(fault_stats_.corrupted));
    m.faults_rejected.Set(static_cast<double>(fault_stats_.rejected));
    m.faults_timeouts.Set(static_cast<double>(fault_stats_.timeouts));
    m.faults_retries.Set(static_cast<double>(fault_stats_.retries));
    m.virtual_time.Set(virtual_now_);
    m.population_resident.Set(
        static_cast<double>(population_.resident_clients()));
    m.peak_rss.Set(static_cast<double>(util::PeakRssBytes()));
    // eps gauge follows the event encoding: -1 stands in for +infinity
    // (clip-only runs carry no guarantee).
    const double eps = privacy_epsilon();
    m.privacy_epsilon.Set(std::isfinite(eps) ? eps : -1.0);
    m.privacy_clipped.Set(static_cast<double>(privacy_stats_.clipped));
    m.privacy_mask_pairs.Set(static_cast<double>(privacy_stats_.mask_pairs));
    m.privacy_mask_recoveries.Set(
        static_cast<double>(privacy_stats_.mask_recoveries));
  }

  if (obs::EventsEnabled()) {
    obs::RoundEvent event;
    event.algorithm = name_;
    event.round = round + 1;
    event.round_ms = round_ms;
    event.dispatch_ms = phase_ms_[static_cast<int>(RoundPhase::kDispatch)];
    event.train_ms = phase_ms_[static_cast<int>(RoundPhase::kTrain)];
    event.screen_ms = phase_ms_[static_cast<int>(RoundPhase::kScreen)];
    event.aggregate_ms = phase_ms_[static_cast<int>(RoundPhase::kAggregate)];
    event.eval_ms = phase_ms_[static_cast<int>(RoundPhase::kEval)];
    event.checkpoint_ms =
        phase_ms_[static_cast<int>(RoundPhase::kCheckpoint)];
    event.evaluated = evaluated;
    event.test_accuracy = evaluated ? eval.accuracy : 0.0;
    event.test_loss = evaluated ? eval.loss : 0.0;
    event.mean_client_loss = mean_client_loss;
    event.bytes_down = static_cast<double>(comm_.round_download_bytes());
    event.bytes_up = static_cast<double>(comm_.round_upload_bytes());
    event.wire_bytes_down =
        static_cast<double>(comm_.round_wire_download_bytes());
    event.wire_bytes_up = static_cast<double>(comm_.round_wire_upload_bytes());
    event.wire_bytes_wasted =
        static_cast<double>(comm_.round_wire_wasted_bytes());
    event.dropouts = fault_stats_.dropouts - faults_before.dropouts;
    event.stragglers = fault_stats_.stragglers - faults_before.stragglers;
    event.corrupted = fault_stats_.corrupted - faults_before.corrupted;
    event.rejected = fault_stats_.rejected - faults_before.rejected;
    event.timeouts = fault_stats_.timeouts - faults_before.timeouts;
    event.async_retries = fault_stats_.retries - faults_before.retries;
    event.virtual_time = virtual_now_;
    event.model_version = model_version_;
    event.inflight = inflight_dispatches();
    event.staleness_mean = round_staleness_count_ > 0
                               ? round_staleness_sum_ / round_staleness_count_
                               : 0.0;
    event.staleness_max = round_staleness_max_;
    event.resident_clients = population_.resident_clients();
    event.peak_rss_bytes = util::PeakRssBytes();
    // JSON has no infinity: -1 encodes "no guarantee" (clip without noise).
    const double eps = privacy_epsilon();
    event.dp_epsilon = std::isfinite(eps) ? eps : -1.0;
    event.dp_delta = config_.dp.delta;
    event.dp_clipped = privacy_stats_.clipped - privacy_before.clipped;
    event.mask_pairs = privacy_stats_.mask_pairs - privacy_before.mask_pairs;
    event.mask_recoveries =
        privacy_stats_.mask_recoveries - privacy_before.mask_recoveries;
    obs::EmitRoundEvent(event);
  }
}

void FlAlgorithm::EnableAutoCheckpoint(std::string path, int every_rounds) {
  checkpoint_path_ = std::move(path);
  checkpoint_every_ = checkpoint_path_.empty() ? 0 : every_rounds;
}

EvalResult FlAlgorithm::Evaluate(const FlatParams& params) {
  return EvaluateParams(pool_, params, *test_, config_.eval_batch_size);
}

std::vector<std::int64_t> FlAlgorithm::SampleClients() {
  const std::int64_t want = DispatchWidth(config_, num_clients());
  ClientSampler sampler = config_.sampler;
  if (sampler == ClientSampler::kAuto) {
    sampler = population_.mode() == PopulationMode::kVirtual
                  ? ClientSampler::kFloyd
                  : ClientSampler::kFullShuffle;
  }
  if (sampler == ClientSampler::kFloyd) {
    return rng_.SampleDistinct(num_clients(), want);
  }
  // Historical full-shuffle draw sequence: O(N) per round, bit-compatible
  // with checkpoints and golden results recorded before the Floyd sampler.
  FC_CHECK_LE(num_clients(),
              static_cast<std::int64_t>(std::numeric_limits<int>::max()))
      << "full-shuffle sampling caps N at int range; use the Floyd sampler";
  std::vector<int> legacy = rng_.SampleWithoutReplacement(
      static_cast<int>(num_clients()), static_cast<int>(want));
  return std::vector<std::int64_t>(legacy.begin(), legacy.end());
}

std::int64_t FlAlgorithm::DispatchSlots() const {
  return DispatchWidth(config_, num_clients());
}

void FlAlgorithm::PinClientSlots(const std::vector<ClientJob>& jobs) {
  // Materialising the sampled clients is dispatch work; on a spilling
  // virtual population it is most of the round outside training, so it is
  // timed rather than left outside every phase.
  PhaseScope phase(*this, RoundPhase::kDispatch);
  // The population cache and the state store are not thread-safe, and both
  // guarantee pointer stability until their next BeginBatch. Workers then
  // only dereference pre-pinned pointers.
  population_.BeginBatch();
  residual_store_.BeginBatch();
  const bool lossy = comm::SchemeIsLossy(config_.codec.scheme);
  const int count = static_cast<int>(jobs.size());
  client_slots_.resize(count);
  residual_slots_.resize(count);
  for (int slot = 0; slot < count; ++slot) {
    FC_CHECK_GE(jobs[slot].client_id, 0);
    FC_CHECK_LT(jobs[slot].client_id, num_clients());
    client_slots_[slot] = &population_.Client(jobs[slot].client_id);
    residual_slots_[slot] =
        lossy ? &residual_store_.Touch(jobs[slot].client_id) : nullptr;
  }
}

const std::vector<LocalTrainResult>& FlAlgorithm::TrainClients(
    int round, int salt, const std::vector<ClientJob>& jobs) {
  const int count = static_cast<int>(jobs.size());
  const bool async = config_.async.mode == RoundMode::kAsync;
  Metrics().client_jobs.Add(count);
  // resize keeps surviving elements' params capacity from the last round.
  results_.resize(count);
  records_.resize(count);
  if (static_cast<int>(wire_scratch_.size()) < count) {
    wire_scratch_.resize(count);
  }
  PinClientSlots(jobs);
  {
    PhaseScope phase(*this, RoundPhase::kTrain);
    // The chain sees the mode only through these two numbers: sync
    // stragglers race the round deadline before training, async attempts
    // race the dispatch timeout after it.
    const double deadline = async ? 0.0 : config_.faults.round_deadline;
    const double timeout = async ? config_.async.dispatch_timeout : 0.0;
    // One fan-out over dispatch units: lockstep cohorts, or one unit per
    // job claimed by whichever thread is free. Units never change bits.
    // Async slots always train solo: cohorts measured larger and slower
    // on the async ResNet workload (DESIGN.md §11).
    const bool plan = count > 0 && jobs[0].spec != nullptr &&
                      jobs[0].spec->options.exec == ExecMode::kPlan;
    if (!async && plan && TrainsInLockstep(model_size_)) {
      ParallelRanges(count, /*min_per_range=*/1,
                     [&](std::int64_t begin, std::int64_t end) {
                       TrainUnit(round, salt, jobs, static_cast<int>(begin),
                                 static_cast<int>(end), plan, deadline,
                                 timeout);
                     });
    } else {
      ParallelFor(count, [&](int slot) {
        TrainUnit(round, salt, jobs, slot, slot + 1, plan, deadline, timeout);
      });
    }
  }

  PhaseScope phase(*this, RoundPhase::kScreen);
  // Fold every attempt's traffic serially in slot order, so accounting is
  // race-free and independent of the schedule: a non-final attempt bought
  // nothing, and neither did the final one when the slot ended dropped.
  const std::uint64_t raw = CommTracker::FloatBytes(model_size_);
  for (int slot = 0; slot < count; ++slot) {
    const SlotRecord& record = records_[slot];
    const int attempts = static_cast<int>(record.attempts.size());
    for (int a = 0; a < attempts; ++a) {
      const AttemptLog& log = record.attempts[a];
      comm_.AddDownload(raw, log.wire_down);
      if (log.uploaded) comm_.AddUpload(raw, log.wire_up);
      if (log.timed_out) ++fault_stats_.timeouts;
      if (a + 1 < attempts || results_[slot].dropped) {
        comm_.AddWasted(log.uploaded ? raw * 2 : raw,
                        log.wire_down + log.wire_up);
      }
    }
    fault_stats_.retries += record.retries;
  }

  // Collection. Sync hands every slot over in slot order, dropped ones
  // echoing their dispatch, and the barrier releases at the latest arrival
  // (max over slots of t + d is t + max d bit for bit: adding a fixed t
  // rounds monotonically); its masking cohort is every slot. Async pushes every slot onto
  // the in-flight heap, then pops arrivals in (arrival, seq) order until
  // `buffer_size` usable uploads land or the sky empties: dropped and
  // rejected arrivals are tallied and skipped without counting against the
  // buffer, so a straggler-heavy cohort degrades the round instead of
  // stalling it. Its cohort is the arrivals that uploaded, in pop order,
  // rejected ones as dropped members (dropouts and terminal stragglers
  // never uploaded a masked sum). Pair masks key on cohort position, so
  // duplicate client ids (the same client sampled by overlapping rounds)
  // still cancel exactly.
  mask_indices_.clear();
  if (!async) {
    for (int slot = 0; slot < count; ++slot) {
      virtual_now_ = std::max(virtual_now_, records_[slot].arrival);
      mask_indices_.push_back(Receive(results_[slot]) ? slot : -1);
    }
  } else {
    auto after = [](const PendingUpload& a, const PendingUpload& b) {
      return a.arrival != b.arrival ? a.arrival > b.arrival : a.seq > b.seq;
    };
    for (int slot = 0; slot < count; ++slot) {
      inflight_.push_back(PendingUpload{records_[slot].arrival,
                                        dispatch_seq_++,
                                        std::move(results_[slot])});
      std::push_heap(inflight_.begin(), inflight_.end(), after);
    }
    const AsyncOptions& options = config_.async;
    const int want = options.buffer_size > 0 ? options.buffer_size : count;
    results_.clear();
    while (static_cast<int>(results_.size()) < want && !inflight_.empty()) {
      std::pop_heap(inflight_.begin(), inflight_.end(), after);
      PendingUpload event = std::move(inflight_.back());
      inflight_.pop_back();
      virtual_now_ = std::max(virtual_now_, event.arrival);
      LocalTrainResult& result = event.result;
      if (!Receive(result)) {
        if (result.fault == FaultKind::kRejected) mask_indices_.push_back(-1);
        continue;
      }
      const int tau =
          static_cast<int>(model_version_ - result.dispatch_version);
      result.staleness = tau;
      result.weight_scale =
          StalenessWeight(options.staleness, options.staleness_exponent, tau);
      round_staleness_sum_ += tau;
      ++round_staleness_count_;
      round_staleness_max_ = std::max(round_staleness_max_, tau);
      if (obs::MetricsEnabled()) {
        Metrics().staleness.Observe(static_cast<double>(tau));
      }
      mask_indices_.push_back(static_cast<int>(results_.size()));
      results_.push_back(std::move(result));
    }
  }

  // Indices (not pointers) were recorded because results_ grows above.
  if (config_.secure_agg.Enabled() && !mask_indices_.empty()) {
    mask_slots_.clear();
    for (int index : mask_indices_) {
      mask_slots_.push_back(index < 0 ? nullptr : &results_[index].params);
    }
    ApplyMaskingOverlay(round, salt, mask_slots_);
  }
  // Every dispatched job ran the DP mechanism once, so one noised event at
  // this batch's sampling rate enters the ledger, whenever its upload is
  // collected (FedCluster's per-cluster batches compose as separate
  // events, exactly as the mechanism fires).
  if (config_.dp.Noised() && count > 0) {
    accountant_.AccumulateRound(
        std::min(1.0, static_cast<double>(count) /
                          static_cast<double>(num_clients())),
        config_.dp.noise_multiplier);
  }
  // The aggregation the caller performs on these results is one version.
  ++model_version_;
  return results_;
}

void FlAlgorithm::ApplyMaskingOverlay(
    int round, int salt, const std::vector<const FlatParams*>& uploads) {
  privacy::MaskedSumReport report = privacy::SimulateMaskedAggregation(
      config_.seed, round, salt, uploads, config_.secure_agg, mask_scratch_);
  FC_CHECK(report.exact)
      << "masked aggregate failed to unmask to the direct fixed-point sum "
         "(cohort "
      << report.cohort << ", survivors " << report.survivors << ", pairs "
      << report.pairs << ", recovered " << report.recovered_pairs << ")";
  privacy_stats_.mask_pairs += report.pairs;
  privacy_stats_.mask_recoveries += report.recovered_pairs;
  // Recovery is the only masking step that costs extra wire traffic: the
  // surviving peers upload 8 bytes of revealed pair seed per dangling mask.
  if (report.recovery_seed_bytes > 0) {
    comm_.AddUpload(report.recovery_seed_bytes, report.recovery_seed_bytes);
  }
}

struct FlAlgorithm::JobStreams {
  JobStreams(std::uint64_t seed, int round, int salt, int slot)
      : train(ClientJobSeed(seed, round, salt, slot)),
        fault(FaultSeed(seed, round, salt, slot)),
        codec(CodecSeed(seed, round, salt, slot)),
        privacy(privacy::PrivacySeed(seed, round, salt, slot)) {}

  util::Rng train;
  // Fault draws never perturb a surviving client's trajectory, and DP noise
  // never skews its batch shuffling: each has a stream of its own.
  util::Rng fault;
  util::Rng codec;
  util::Rng privacy;
};

bool FlAlgorithm::PrepareClientJob(const ClientJob& job,
                                   const FlClient& client,
                                   JobStreams& streams, double round_deadline,
                                   WireScratch& wire, LocalTrainResult& result,
                                   FaultDecision& decision) {
  FC_CHECK(job.init_params != nullptr);
  FC_CHECK(job.spec != nullptr);

  const FaultProfile& profile = config_.faults.ProfileFor(job.client_id);
  decision = DrawFaults(profile, round_deadline, streams.fault);

  // Dropout / straggler timeout: the device received the model (the
  // dispatch frame still crossed the wire) but its upload never reaches the
  // round. params echo the dispatch so FedCross keeps its middleware copy.
  if (decision.dropped || decision.timed_out) {
    result.params = *job.init_params;  // copy-assign recycles the buffer
    result.num_samples = client.num_samples();
    result.num_steps = 0;
    result.lr = 0.0f;
    result.mean_loss = 0.0;
    result.wire_bytes_down = dispatch_wire_bytes_;
    result.wire_bytes_up = 0;
    result.dropped = true;
    result.fault =
        decision.dropped ? FaultKind::kDropout : FaultKind::kStraggler;
    result.staleness = 0;
    result.weight_scale = 1.0;
    result.slowdown = decision.duration;
    result.upload_corrupt = false;
    result.dp_clipped = false;
    return false;
  }

  // Dispatch round trip: the client trains on the decoded frame, never on
  // the server's in-process pointer. Dispatch frames are identity-coded, so
  // the decoded params are bit-identical to *job.init_params.
  comm::EncodeDispatch(*job.init_params, shape_table_, wire.frame);
  result.wire_bytes_down = wire.frame.size();
  util::Status dispatched =
      comm::DecodeDispatch(wire.frame, shape_table_, wire.dispatched);
  FC_CHECK(dispatched.ok()) << dispatched.ToString();
  return true;
}

void FlAlgorithm::FinishClientJob(const ClientJob& job, FlatParams* residual,
                                  const FaultDecision& decision,
                                  JobStreams& streams, WireScratch& wire,
                                  LocalTrainResult& result) {
  // DP sanitisation before corruption and the upload codec: the mechanism
  // runs on-device against the dispatched reference, and its noise comes
  // from the dedicated privacy stream — never the training rng, whose draw
  // position must not depend on whether DP is enabled.
  result.dp_clipped = false;
  if (config_.dp.Enabled()) {
    result.dp_clipped = privacy::SanitizeUpdateInPlace(
        wire.dispatched, result.params, config_.dp, streams.privacy);
  }
  if (decision.corrupt) {
    const FaultProfile& profile = config_.faults.ProfileFor(job.client_id);
    CorruptUpload(profile, wire.dispatched, result.params, streams.fault);
    result.fault = FaultKind::kCorrupted;
  }

  // Upload round trip under the configured scheme: what enters aggregation
  // (and server-side screening) is the decoded frame, so lossy compression
  // noise — and corrupted payloads — reach the server exactly as the wire
  // carries them. The error-feedback residual belongs to the client and is
  // touched by at most one job per batch; it was pinned in the state store
  // before the fan-out (null for lossless schemes, which never read it).
  if (residual == nullptr) residual = &wire.decoded;
  comm::EncodeUpload(config_.codec, result.params, wire.dispatched,
                     shape_table_, *residual, streams.codec, wire.frame);
  result.wire_bytes_up = wire.frame.size();
  util::Status uploaded = comm::DecodeUpload(wire.frame, wire.dispatched,
                                             shape_table_, wire.decoded);
  FC_CHECK(uploaded.ok()) << uploaded.ToString();
  result.params.swap(wire.decoded);
  // Engine provenance (client.Train never touches these; reset them so a
  // recycled result slot carries no stale values).
  result.staleness = 0;
  result.weight_scale = 1.0;
  result.slowdown = decision.duration;
  result.upload_corrupt = decision.corrupt;
}

void FlAlgorithm::TrainUnit(int round, int salt,
                            const std::vector<ClientJob>& jobs, int begin,
                            int end, bool plan, double round_deadline,
                            double timeout) {
  struct SlotRun {
    JobStreams streams;
    ClockProfile profile;
    double t_dispatch = 0.0;  // virtual time the live attempt was sent
    FaultDecision decision = {};
    bool live = true;
    bool trains = false;
  };
  std::vector<SlotRun> runs;
  std::vector<PlanJob> trained;
  runs.reserve(end - begin);  // trained[i].rng points into runs
  trained.reserve(end - begin);
  for (int slot = begin; slot < end; ++slot) {
    runs.push_back({JobStreams(config_.seed, round, salt, slot),
                    DrawClockProfile(config_.async.clock, config_.seed,
                                     jobs[slot].client_id),
                    virtual_now_});
    records_[slot].attempts.clear();
    records_[slot].retries = 0;
  }
  // Attempt k draws every stream from (seed, round, salt + k *
  // kRetrySaltStride, slot), so each attempt is a pure function of these.
  for (int attempt = 0, unresolved = end - begin; unresolved > 0;
       ++attempt) {
    const int attempt_salt = salt + attempt * kRetrySaltStride;
    trained.clear();
    for (int slot = begin; slot < end; ++slot) {
      SlotRun& run = runs[slot - begin];
      if (!run.live) continue;
      if (attempt > 0) {
        run.streams = JobStreams(config_.seed, round, attempt_salt, slot);
      }
      run.trains = PrepareClientJob(jobs[slot], *client_slots_[slot],
                                    run.streams, round_deadline,
                                    wire_scratch_[slot], results_[slot],
                                    run.decision);
      if (run.trains) {
        trained.push_back({client_slots_[slot],
                           &wire_scratch_[slot].dispatched, jobs[slot].spec,
                           &run.streams.train, &results_[slot]});
      }
    }
    if (!trained.empty() && plan) {
      RunPlanJobs(pool_, trained.data(), static_cast<int>(trained.size()));
    } else {
      for (const PlanJob& job : trained) {  // a layer-path unit is one slot
        job.client->Train(pool_, *job.init_params, *job.spec, *job.rng,
                          *job.result);
      }
    }
    for (int slot = begin; slot < end; ++slot) {
      SlotRun& run = runs[slot - begin];
      if (!run.live) continue;
      const ClientJob& job = jobs[slot];
      LocalTrainResult& result = results_[slot];
      SlotRecord& record = records_[slot];
      if (run.trains) {
        FinishClientJob(job, residual_slots_[slot], run.decision, run.streams,
                        wire_scratch_[slot], result);
      }
      result.client_id = job.client_id;
      result.slot = slot;
      result.dispatch_version = model_version_;
      // A straggler that missed the sync round deadline never trained, but
      // holds the barrier for the full budget: the deadline times the
      // fault-free compute time of the work it was sent.
      double steps = static_cast<double>(result.num_steps);
      double slowdown = result.slowdown;
      if (result.fault == FaultKind::kStraggler) {
        steps = NominalSteps(job.spec->options, result.num_samples);
        slowdown = round_deadline;
      }
      util::Rng clock_rng(ClockSeed(config_.seed, round, attempt_salt, slot));
      const double duration = SimulatedDuration(
          run.profile, slowdown, steps, result.wire_bytes_down,
          result.wire_bytes_up, DrawJitter(config_.async.clock, clock_rng));
      const bool vanished = result.dropped;  // no upload, ever
      // Under a timeout a dropout is retried like a straggler: the server
      // cannot tell a vanished device from a slow one. Without one the
      // server notices the silence at the would-be transfer time.
      const bool late = timeout > 0.0 && (vanished || duration > timeout);
      record.attempts.push_back(
          {result.wire_bytes_down, result.wire_bytes_up, !vanished, late});
      run.live = false;
      if (!late && !vanished) {
        // The upload arrives. Screen it now: the dispatched reference dies
        // with this TrainClients call, and rejection is terminal (a
        // Byzantine device is not worth a retry). Degrade exactly like a
        // dropout: params echo the dispatched model, so FedCross keeps its
        // middleware copy.
        if (config_.screening.Enabled() &&
            !ScreenUpload(*job.init_params, result.params, config_.screening)
                 .ok()) {
          result.params = *job.init_params;
          result.dropped = true;
          result.fault = FaultKind::kRejected;
        }
        record.arrival = run.t_dispatch + duration;
      } else {
        const double t_fail = run.t_dispatch + (late ? timeout : duration);
        if (late && attempt < config_.async.max_retries) {
          ++record.retries;
          run.t_dispatch = t_fail;
          run.live = true;
          continue;
        }
        if (late && !vanished) {
          // Terminal timeout of a device that did train: degrade like a
          // sync straggler.
          result.params = *job.init_params;
          result.dropped = true;
          result.fault = FaultKind::kStraggler;
        }
        record.arrival = t_fail;
      }
      --unresolved;
    }
  }
}

bool FlAlgorithm::Receive(const LocalTrainResult& result) {
  // Corruption and clipping are counted when the upload reaches the server,
  // whether or not screening then discarded it; a dropout or a terminal
  // straggler never uploaded at all.
  const bool reached = !result.dropped || result.fault == FaultKind::kRejected;
  if (reached && result.upload_corrupt) ++fault_stats_.corrupted;
  if (reached && result.dp_clipped) ++privacy_stats_.clipped;
  if (result.dropped) {
    if (result.fault == FaultKind::kDropout) ++fault_stats_.dropouts;
    if (result.fault == FaultKind::kStraggler) ++fault_stats_.stragglers;
    if (result.fault == FaultKind::kRejected) ++fault_stats_.rejected;
    return false;
  }
  Metrics().uploads_accepted.Add(1);
  round_loss_sum_ += result.mean_loss;
  ++round_loss_count_;
  return true;
}

FlatParams FlAlgorithm::WeightedAverage(const std::vector<FlatParams>& models,
                                        const std::vector<double>& weights) {
  FC_CHECK_EQ(models.size(), weights.size());
  std::vector<const FlatParams*> pointers(models.size());
  for (std::size_t m = 0; m < models.size(); ++m) pointers[m] = &models[m];
  FlatParams result;
  WeightedAverageInto(pointers, weights, result);
  return result;
}

FlatParams FlAlgorithm::Average(const std::vector<FlatParams>& models) {
  FC_CHECK(!models.empty());
  FlatParams mean(models[0].size(), 0.0f);
  for (const FlatParams& model : models) FC_CHECK_EQ(model.size(), mean.size());
  const float scale = 1.0f / static_cast<float>(models.size());
  // Range-sharded like WeightedAverageInto: each range adds the models in
  // ascending order, then scales, so every element sees the serial loop's
  // operations in its order and the mean is bit-identical across
  // --fl_threads.
  ParallelRanges(
      static_cast<std::int64_t>(mean.size()), kMinAggRangeElems,
      [&](std::int64_t begin, std::int64_t end) {
        float* __restrict__ out = mean.data() + begin;
        const auto len = static_cast<std::size_t>(end - begin);
        for (const FlatParams& model : models) {
          const float* __restrict__ src = model.data() + begin;
          for (std::size_t i = 0; i < len; ++i) out[i] += src[i];
        }
        for (std::size_t i = 0; i < len; ++i) out[i] *= scale;
      });
  return mean;
}

void FlAlgorithm::WeightedAverageInto(
    const std::vector<const FlatParams*>& models,
    const std::vector<double>& weights, FlatParams& out) {
  FC_CHECK(!models.empty());
  FC_CHECK_EQ(models.size(), weights.size());
  double total_weight = 0.0;
  for (double w : weights) {
    FC_CHECK_GE(w, 0.0);
    total_weight += w;
  }
  FC_CHECK_GT(total_weight, 0.0);

  out.assign(models[0]->size(), 0.0f);  // capacity-retaining
  // Range-sharded accumulation: each contiguous coordinate range walks the
  // models in ascending order, exactly the element-wise order of the serial
  // loop (AxpyRange is the serial Axpy's inner loop), so the result is
  // bit-identical across --fl_threads.
  ParallelRanges(
      static_cast<std::int64_t>(out.size()), kMinAggRangeElems,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::size_t m = 0; m < models.size(); ++m) {
          float factor = static_cast<float>(weights[m] / total_weight);
          flat_ops::AxpyRange(out.data() + begin, factor,
                              models[m]->data() + begin,
                              static_cast<std::size_t>(end - begin));
        }
      });
}

void FlAlgorithm::AverageInto(const std::vector<const FlatParams*>& models,
                              FlatParams& out) {
  FC_CHECK(!models.empty());
  float factor = 1.0f / static_cast<float>(models.size());
  out.assign(models[0]->size(), 0.0f);
  ParallelRanges(
      static_cast<std::int64_t>(out.size()), kMinAggRangeElems,
      [&](std::int64_t begin, std::int64_t end) {
        for (const FlatParams* model : models) {
          flat_ops::AxpyRange(out.data() + begin, factor,
                              model->data() + begin,
                              static_cast<std::size_t>(end - begin));
        }
      });
}

void FlAlgorithm::Aggregate(const std::vector<const FlatParams*>& models,
                            const std::vector<double>& weights,
                            const FlatParams& reference, FlatParams& out) {
  PhaseScope phase(*this, RoundPhase::kAggregate);
  switch (config_.aggregator.kind) {
    case AggregatorKind::kWeightedMean:
      WeightedAverageInto(models, weights, out);
      return;
    case AggregatorKind::kTrimmedMean: {
      FC_TRACE_SPAN("agg.trimmed_mean");
      Metrics().robust_aggregations.Add(1);
      TrimmedMeanInto(models, config_.aggregator.trim_ratio, agg_column_, out);
      return;
    }
    case AggregatorKind::kCoordinateMedian: {
      FC_TRACE_SPAN("agg.coordinate_median");
      Metrics().robust_aggregations.Add(1);
      CoordinateMedianInto(models, agg_column_, out);
      return;
    }
    case AggregatorKind::kNormClippedMean: {
      FC_TRACE_SPAN("agg.norm_clipped_mean");
      Metrics().robust_aggregations.Add(1);
      NormClippedWeightedAverageInto(models, weights, reference,
                                     config_.aggregator.clip_norm,
                                     agg_scratch_, out);
      return;
    }
  }
  FC_CHECK(false) << "unreachable";
}

std::uint64_t FlAlgorithm::ConfigFingerprint() const {
  auto mix_float = [](std::uint64_t h, float value) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return MixSeed(h ^ bits);
  };
  std::uint64_t h = MixSeed(0x666370ULL);  // "fcp"
  for (char c : name_) h = MixSeed(h ^ static_cast<std::uint8_t>(c));
  h = MixSeed(h ^ config_.seed);
  h = MixSeed(h ^ static_cast<std::uint64_t>(config_.clients_per_round));
  h = MixSeed(h ^ static_cast<std::uint64_t>(num_clients()));
  h = MixSeed(h ^ static_cast<std::uint64_t>(model_size_));
  h = MixSeed(h ^ static_cast<std::uint64_t>(config_.train.local_epochs));
  h = MixSeed(h ^ static_cast<std::uint64_t>(config_.train.batch_size));
  h = mix_float(h, config_.train.lr);
  h = mix_float(h, config_.train.momentum);
  h = mix_float(h, config_.train.weight_decay);
  h = mix_float(h, config_.train.grad_clip_norm);
  h = MixSeed(h ^ static_cast<std::uint64_t>(config_.eval_batch_size));
  // A feature mixes its parameters in only when it is enabled: a disabled
  // feature's parameters do not change training, so they must not split
  // otherwise identical runs. The identity codec is the disabled codec.
  if (config_.codec.scheme != comm::Scheme::kIdentity) {
    h = MixSeed(h ^ (0x636f646563ULL +
                     static_cast<std::uint64_t>(config_.codec.scheme)));
    h = mix_float(h, static_cast<float>(config_.codec.topk_fraction));
  }
  // Only the async engine perturbs the fingerprint: it reshapes the
  // training trajectory itself, while the sync clock only observes the
  // round makespan (virtual time rides in the checkpoint body).
  if (config_.async.mode == RoundMode::kAsync) {
    h = MixSeed(h ^ (0x6173796e63ULL +  // "async"
                     static_cast<std::uint64_t>(config_.async.buffer_size)));
    h = MixSeed(h ^ static_cast<std::uint64_t>(config_.async.staleness));
    h = mix_float(h, static_cast<float>(config_.async.staleness_exponent));
    h = mix_float(h, static_cast<float>(config_.async.dispatch_timeout));
    h = MixSeed(h ^ static_cast<std::uint64_t>(config_.async.max_retries));
    h = mix_float(h,
                  static_cast<float>(config_.async.clock.compute_speed_min));
    h = mix_float(h,
                  static_cast<float>(config_.async.clock.compute_speed_max));
    h = mix_float(h, static_cast<float>(config_.async.clock.bandwidth_min));
    h = mix_float(h, static_cast<float>(config_.async.clock.bandwidth_max));
    h = mix_float(h, static_cast<float>(config_.async.clock.jitter));
  }
  // Privacy follows the codec precedent: only enabled DP / masking perturb
  // the fingerprint, since disabled DP clips and noises nothing and
  // disabled masking checks nothing.
  if (config_.dp.Enabled()) {
    h = MixSeed(h ^ 0x70726976616379ULL);  // "privacy"
    h = mix_float(h, config_.dp.clip_norm);
    h = mix_float(h, config_.dp.noise_multiplier);
    h = mix_float(h, static_cast<float>(config_.dp.delta));
  }
  if (config_.secure_agg.Enabled()) {
    h = MixSeed(h ^ (0x7061697273656564ULL +  // "pairseed"
                     static_cast<std::uint64_t>(
                         config_.secure_agg.fixed_point_bits)));
  }
  // Exec mode stays out of the fingerprint: plan == layers bit-for-bit.
  return h;
}

util::Status FlAlgorithm::SaveCheckpoint(const std::string& path) {
  FC_TRACE_SPAN("checkpoint.save");
  const std::int64_t start_us =
      obs::MetricsEnabled() ? obs::TraceNowMicros() : 0;
  StateWriter writer;
  writer.WriteU64(ConfigFingerprint());
  writer.WriteI64(completed_rounds_);

  util::Rng::State rng_state = rng_.GetState();
  for (std::uint64_t word : rng_state.words) writer.WriteU64(word);
  writer.WriteBool(rng_state.has_cached_normal);
  writer.WriteF64(rng_state.cached_normal);

  writer.WriteU64(comm_.total_download_bytes());
  writer.WriteU64(comm_.total_upload_bytes());
  writer.WriteU64(comm_.total_wire_download_bytes());
  writer.WriteU64(comm_.total_wire_upload_bytes());
  writer.WriteU64(comm_.total_wasted_bytes());
  writer.WriteU64(comm_.total_wire_wasted_bytes());

  writer.WriteI64(fault_stats_.dropouts);
  writer.WriteI64(fault_stats_.stragglers);
  writer.WriteI64(fault_stats_.corrupted);
  writer.WriteI64(fault_stats_.rejected);
  writer.WriteI64(fault_stats_.timeouts);
  writer.WriteI64(fault_stats_.retries);

  const std::vector<RoundRecord>& records = history_.records();
  writer.WriteU64(records.size());
  for (const RoundRecord& record : records) {
    writer.WriteI64(record.round);
    writer.WriteF32(record.test_loss);
    writer.WriteF32(record.test_accuracy);
    writer.WriteF64(record.bytes_up);
    writer.WriteF64(record.bytes_down);
    writer.WriteF64(record.mean_client_loss);
  }

  // Error-feedback residuals: without them a resumed lossy-codec run would
  // re-quantise against zeroed residuals and diverge from the uninterrupted
  // run. A sparse id-keyed table covering only clients that ever held a
  // residual (spilled entries are read back through the store, so
  // residency is invisible).
  std::vector<std::int64_t> ids = residual_store_.TouchedIds();
  writer.WriteU64(ids.size());
  for (std::int64_t id : ids) {
    writer.WriteI64(id);
    FC_CHECK(residual_store_.Read(id, state_scratch_));
    writer.WriteFloats(state_scratch_);
  }

  // Event-engine state: the virtual clock, the version/dispatch counters,
  // and the in-flight heap serialised in array order (so a resumed run pops
  // bit-identically).
  writer.WriteF64(virtual_now_);
  writer.WriteI64(model_version_);
  writer.WriteI64(dispatch_seq_);
  writer.WriteU64(inflight_.size());
  for (const PendingUpload& pending : inflight_) {
    writer.WriteF64(pending.arrival);
    writer.WriteI64(pending.seq);
    const LocalTrainResult& r = pending.result;
    writer.WriteFloats(r.params);
    writer.WriteI64(r.num_samples);
    writer.WriteI64(r.num_steps);
    writer.WriteF32(r.lr);
    writer.WriteF64(r.mean_loss);
    writer.WriteU64(r.wire_bytes_down);
    writer.WriteU64(r.wire_bytes_up);
    writer.WriteBool(r.dropped);
    writer.WriteU32(static_cast<std::uint32_t>(r.fault));
    writer.WriteI64(r.client_id);
    writer.WriteI64(static_cast<std::int64_t>(r.slot));
    writer.WriteI64(r.dispatch_version);
    writer.WriteF64(r.slowdown);
    writer.WriteBool(r.upload_corrupt);
    writer.WriteBool(r.dp_clipped);
  }

  // Privacy state: the RDP accountant's per-order totals (exact f64 bits,
  // so the restored epsilon is bit-identical) and the privacy counters.
  writer.WriteI64(accountant_.rounds());
  writer.WriteDoubles(accountant_.order_totals());
  writer.WriteI64(privacy_stats_.clipped);
  writer.WriteI64(privacy_stats_.mask_pairs);
  writer.WriteI64(privacy_stats_.mask_recoveries);

  SaveExtraState(writer);
  util::Status status = WriteStateFile(path, writer);
  if (obs::MetricsEnabled()) {
    Metrics().checkpoint_save_ms.Observe(
        static_cast<double>(obs::TraceNowMicros() - start_us) / 1000.0);
  }
  return status;
}

util::Status FlAlgorithm::LoadCheckpoint(const std::string& path) {
  FC_TRACE_SPAN("checkpoint.load");
  const std::int64_t start_us =
      obs::MetricsEnabled() ? obs::TraceNowMicros() : 0;
  util::StatusOr<StateReader> reader_or = ReadStateFile(path);
  if (!reader_or.ok()) return reader_or.status();
  StateReader reader = std::move(reader_or).value();

  std::uint64_t fingerprint = 0;
  FC_RETURN_IF_ERROR(reader.ReadU64(fingerprint));
  if (fingerprint != ConfigFingerprint()) {
    return util::Status::FailedPrecondition(
        "checkpoint was written by a different run configuration (algorithm, "
        "seed, client count, model, or training options differ)");
  }

  std::int64_t completed = 0;
  FC_RETURN_IF_ERROR(reader.ReadI64(completed));
  if (completed < 0 || completed > std::numeric_limits<int>::max()) {
    return util::Status::InvalidArgument(
        "completed-round counter out of range");
  }

  util::Rng::State rng_state;
  for (std::uint64_t& word : rng_state.words) {
    FC_RETURN_IF_ERROR(reader.ReadU64(word));
  }
  FC_RETURN_IF_ERROR(reader.ReadBool(rng_state.has_cached_normal));
  FC_RETURN_IF_ERROR(reader.ReadF64(rng_state.cached_normal));

  std::uint64_t total_down = 0;
  std::uint64_t total_up = 0;
  std::uint64_t total_wire_down = 0;
  std::uint64_t total_wire_up = 0;
  std::uint64_t total_wasted = 0;
  std::uint64_t total_wire_wasted = 0;
  FC_RETURN_IF_ERROR(reader.ReadU64(total_down));
  FC_RETURN_IF_ERROR(reader.ReadU64(total_up));
  FC_RETURN_IF_ERROR(reader.ReadU64(total_wire_down));
  FC_RETURN_IF_ERROR(reader.ReadU64(total_wire_up));
  FC_RETURN_IF_ERROR(reader.ReadU64(total_wasted));
  FC_RETURN_IF_ERROR(reader.ReadU64(total_wire_wasted));

  FaultStats stats;
  for (std::int64_t* tally :
       {&stats.dropouts, &stats.stragglers, &stats.corrupted, &stats.rejected,
        &stats.timeouts, &stats.retries}) {
    FC_RETURN_IF_ERROR(ReadTally(reader, "fault", *tally));
  }

  std::uint64_t record_count = 0;
  FC_RETURN_IF_ERROR(reader.ReadU64(record_count));
  MetricsHistory restored;
  for (std::uint64_t i = 0; i < record_count; ++i) {
    RoundRecord record;
    FC_RETURN_IF_ERROR(ReadInt(reader, "history round", record.round));
    FC_RETURN_IF_ERROR(reader.ReadF32(record.test_loss));
    FC_RETURN_IF_ERROR(reader.ReadF32(record.test_accuracy));
    FC_RETURN_IF_ERROR(reader.ReadF64(record.bytes_up));
    FC_RETURN_IF_ERROR(reader.ReadF64(record.bytes_down));
    FC_RETURN_IF_ERROR(reader.ReadF64(record.mean_client_loss));
    restored.Add(record);
  }

  // Residual table (id-keyed, ascending), staged into (id, residual) pairs
  // and committed to the store only after every read succeeds.
  std::vector<std::pair<std::int64_t, FlatParams>> residuals;
  std::uint64_t residual_count = 0;
  FC_RETURN_IF_ERROR(reader.ReadU64(residual_count));
  std::int64_t prev_id = -1;
  for (std::uint64_t i = 0; i < residual_count; ++i) {
    std::int64_t id = 0;
    FC_RETURN_IF_ERROR(reader.ReadI64(id));
    if (id <= prev_id || id >= num_clients()) {
      return util::Status::InvalidArgument(
          "checkpoint residual table ids must be ascending and in range");
    }
    prev_id = id;
    FlatParams residual;
    FC_RETURN_IF_ERROR(reader.ReadFloats(residual));
    if (!residual.empty() &&
        residual.size() != static_cast<std::size_t>(model_size_)) {
      return util::Status::InvalidArgument(
          "checkpoint residual does not match the model size");
    }
    residuals.emplace_back(id, std::move(residual));
  }

  // Event-engine state. A popped arrival's slot indexes per-slot server
  // state (FedCross's middleware lanes), its client id keys per-client
  // state, and its staleness is the model version minus its dispatch
  // version, so all three are range-checked here.
  double virtual_now = 0.0;
  std::int64_t model_version = 0;
  std::int64_t dispatch_seq = 0;
  std::vector<PendingUpload> inflight;
  FC_RETURN_IF_ERROR(reader.ReadF64(virtual_now));
  // A NaN time would break the in-flight heap's strict weak ordering.
  if (!std::isfinite(virtual_now)) {
    return util::Status::InvalidArgument(
        "checkpoint virtual clock is not finite");
  }
  FC_RETURN_IF_ERROR(reader.ReadI64(model_version));
  if (model_version < 0) {
    return util::Status::InvalidArgument(
        "negative checkpoint model version");
  }
  FC_RETURN_IF_ERROR(reader.ReadI64(dispatch_seq));
  std::uint64_t inflight_count = 0;
  FC_RETURN_IF_ERROR(reader.ReadU64(inflight_count));
  for (std::uint64_t i = 0; i < inflight_count; ++i) {
    PendingUpload pending;
    FC_RETURN_IF_ERROR(reader.ReadF64(pending.arrival));
    if (!std::isfinite(pending.arrival)) {
      return util::Status::InvalidArgument(
          "checkpoint in-flight arrival time is not finite");
    }
    FC_RETURN_IF_ERROR(reader.ReadI64(pending.seq));
    // Each dispatch takes the counter's next value, so a later dispatch
    // must not reuse (tie with) an in-flight sequence number.
    if (pending.seq >= dispatch_seq) {
      return util::Status::InvalidArgument(
          "checkpoint dispatch counter is not above in-flight seq " +
          std::to_string(pending.seq));
    }
    LocalTrainResult& r = pending.result;
    FC_RETURN_IF_ERROR(reader.ReadFloats(r.params));
    if (r.params.size() != static_cast<std::size_t>(model_size_)) {
      return util::Status::InvalidArgument(
          "checkpoint in-flight params do not match the model size");
    }
    FC_RETURN_IF_ERROR(ReadInt(reader, "in-flight sample count",
                               r.num_samples));
    FC_RETURN_IF_ERROR(ReadInt(reader, "in-flight step count", r.num_steps));
    FC_RETURN_IF_ERROR(reader.ReadF32(r.lr));
    FC_RETURN_IF_ERROR(reader.ReadF64(r.mean_loss));
    FC_RETURN_IF_ERROR(reader.ReadU64(r.wire_bytes_down));
    FC_RETURN_IF_ERROR(reader.ReadU64(r.wire_bytes_up));
    FC_RETURN_IF_ERROR(reader.ReadBool(r.dropped));
    std::uint32_t fault = 0;
    FC_RETURN_IF_ERROR(reader.ReadU32(fault));
    if (fault > static_cast<std::uint32_t>(FaultKind::kRejected)) {
      return util::Status::InvalidArgument(
          "checkpoint in-flight fault kind out of range");
    }
    r.fault = static_cast<FaultKind>(fault);
    FC_RETURN_IF_ERROR(reader.ReadI64(r.client_id));
    if (r.client_id < 0 || r.client_id >= num_clients()) {
      return util::Status::InvalidArgument(
          "checkpoint in-flight client id " + std::to_string(r.client_id) +
          " out of range");
    }
    std::int64_t slot = 0;
    FC_RETURN_IF_ERROR(reader.ReadI64(slot));
    if (slot < 0 || slot >= DispatchSlots()) {
      return util::Status::InvalidArgument(
          "checkpoint in-flight slot " + std::to_string(slot) +
          " out of range");
    }
    r.slot = static_cast<int>(slot);
    FC_RETURN_IF_ERROR(reader.ReadI64(r.dispatch_version));
    if (r.dispatch_version < 0 || r.dispatch_version > model_version) {
      return util::Status::InvalidArgument(
          "checkpoint in-flight dispatch version out of range");
    }
    FC_RETURN_IF_ERROR(reader.ReadF64(r.slowdown));
    FC_RETURN_IF_ERROR(reader.ReadBool(r.upload_corrupt));
    FC_RETURN_IF_ERROR(reader.ReadBool(r.dp_clipped));
    inflight.push_back(std::move(pending));
  }

  std::int64_t accountant_rounds = 0;
  std::vector<double> order_totals;
  PrivacyStats privacy_stats;
  FC_RETURN_IF_ERROR(reader.ReadI64(accountant_rounds));
  FC_RETURN_IF_ERROR(reader.ReadDoubles(order_totals));
  if (accountant_rounds < 0) {
    return util::Status::InvalidArgument(
        "negative checkpoint accountant round counter");
  }
  if (order_totals.size() != privacy::RdpAccountant::Orders().size()) {
    return util::Status::InvalidArgument(
        "checkpoint accountant order grid does not match this build");
  }
  for (std::int64_t* tally :
       {&privacy_stats.clipped, &privacy_stats.mask_pairs,
        &privacy_stats.mask_recoveries}) {
    FC_RETURN_IF_ERROR(ReadTally(reader, "privacy", *tally));
  }

  FC_RETURN_IF_ERROR(LoadExtraState(reader));
  if (!reader.AtEnd()) {
    return util::Status::InvalidArgument("trailing bytes in checkpoint");
  }

  // Commit the base state only after every read (including the subclass
  // state) succeeded.
  completed_rounds_ = static_cast<int>(completed);
  rng_.SetState(rng_state);
  comm_.Restore(total_down, total_up, total_wire_down, total_wire_up,
                total_wasted, total_wire_wasted);
  fault_stats_ = stats;
  privacy_stats_ = privacy_stats;
  accountant_.Restore(order_totals, accountant_rounds);
  history_ = std::move(restored);
  virtual_now_ = virtual_now;
  model_version_ = model_version;
  dispatch_seq_ = dispatch_seq;
  inflight_ = std::move(inflight);
  residual_store_.Clear();
  for (auto& [id, residual] : residuals) {
    residual_store_.Touch(id) = std::move(residual);
  }
  if (obs::MetricsEnabled()) {
    Metrics().checkpoint_load_ms.Observe(
        static_cast<double>(obs::TraceNowMicros() - start_us) / 1000.0);
  }
  return util::Status::Ok();
}

double FlAlgorithm::TakeRoundClientLoss() {
  double mean =
      round_loss_count_ > 0 ? round_loss_sum_ / round_loss_count_ : 0.0;
  round_loss_sum_ = 0.0;
  round_loss_count_ = 0;
  return mean;
}

}  // namespace fedcross::fl
