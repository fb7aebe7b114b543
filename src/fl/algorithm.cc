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

// Salt stride between async retry attempts of the same slot. Every in-round
// salt is tiny (FedCluster uses salt = cluster step < K), so attempt k's
// streams — derived from salt + k * stride — can never collide with another
// job's.
constexpr int kAsyncRetrySaltStride = 1 << 16;

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
  // Legacy shorthand: fold dropout_prob into the default fault profile.
  if (config_.dropout_prob > 0.0 && config_.faults.profile.dropout_prob == 0.0) {
    config_.faults.profile.dropout_prob = config_.dropout_prob;
  }
  FC_CHECK(test_ != nullptr);
  FC_CHECK_GT(config_.clients_per_round, 0);
  FC_CHECK_LE(static_cast<std::int64_t>(config_.clients_per_round),
              population_.size())
      << "K exceeds the number of clients";
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
  std::int64_t want = config_.clients_per_round;
  if (config_.faults.over_provision > 0) {
    want = std::min(num_clients(),
                    want + static_cast<std::int64_t>(
                               config_.faults.over_provision));
  }
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

const std::vector<LocalTrainResult>& FlAlgorithm::TrainClients(
    int round, int salt, const std::vector<ClientJob>& jobs) {
  if (config_.async.mode == RoundMode::kAsync) {
    return TrainClientsAsync(round, salt, jobs);
  }
  int count = static_cast<int>(jobs.size());
  Metrics().client_jobs.Add(count);
  // resize keeps surviving elements' params capacity from the last round.
  results_.resize(count);
  if (static_cast<int>(wire_scratch_.size()) < count) {
    wire_scratch_.resize(count);
  }
  // Resolve every slot's client and residual entry on the calling thread
  // before the fan-out: the population cache and the state store are not
  // thread-safe, and both guarantee pointer stability until their next
  // BeginBatch. Workers then only dereference pre-pinned pointers.
  population_.BeginBatch();
  residual_store_.BeginBatch();
  const bool lossy = comm::SchemeIsLossy(config_.codec.scheme);
  client_slots_.resize(count);
  residual_slots_.resize(count);
  for (int slot = 0; slot < count; ++slot) {
    FC_CHECK_GE(jobs[slot].client_id, 0);
    FC_CHECK_LT(jobs[slot].client_id, num_clients());
    client_slots_[slot] = &population_.Client(jobs[slot].client_id);
    residual_slots_[slot] =
        lossy ? &residual_store_.Touch(jobs[slot].client_id) : nullptr;
  }
  auto train_slot = [&](int slot) {
    util::Rng job_rng(ClientJobSeed(config_.seed, round, salt, slot));
    // The fault stream is derived independently of the training stream, so
    // fault draws can never perturb a surviving client's trajectory. The
    // privacy stream is independent of all three, so DP noise never skews
    // batch shuffling and DP runs stay thread-count invariant.
    util::Rng fault_rng(FaultSeed(config_.seed, round, salt, slot));
    util::Rng codec_rng(CodecSeed(config_.seed, round, salt, slot));
    util::Rng privacy_rng(
        privacy::PrivacySeed(config_.seed, round, salt, slot));
    TrainClientJob(jobs[slot], *client_slots_[slot], residual_slots_[slot],
                   job_rng, fault_rng, codec_rng, privacy_rng,
                   config_.faults.round_deadline, wire_scratch_[slot],
                   results_[slot]);
  };
  bool use_plan = count > 0 && jobs[0].spec != nullptr &&
                  jobs[0].spec->options.exec == ExecMode::kPlan;
  {
    PhaseScope phase(*this, RoundPhase::kTrain);
    if (use_plan) {
      TrainClientsPlan(round, salt, jobs);
    } else {
      ParallelFor(count, train_slot);
    }
  }
  // Bookkeeping and upload screening on the calling thread, in job order,
  // so accounting is race-free and independent of the parallel schedule.
  PhaseScope phase(*this, RoundPhase::kScreen);
  bool screen = config_.screening.Enabled();
  double makespan = 0.0;
  for (int slot = 0; slot < count; ++slot) {
    LocalTrainResult& result = results_[slot];
    result.client_id = jobs[slot].client_id;
    result.slot = slot;
    result.dispatch_version = model_version_;
    comm_.AddDownload(CommTracker::FloatBytes(model_size_),
                      result.wire_bytes_down);
    // Sync clock observation: the barrier waits for the slowest slot, so
    // the round's virtual makespan is the max simulated duration. A dropout
    // costs only its dispatch transfer; a deadline-missing straggler holds
    // the barrier for the full budget (deadline x the fault-free compute
    // time of the work it was sent) before the server gives up on it.
    {
      ClockProfile profile = DrawClockProfile(
          config_.async.clock, config_.seed, jobs[slot].client_id);
      util::Rng clock_rng(ClockSeed(config_.seed, round, salt, slot));
      double jitter = DrawJitter(config_.async.clock, clock_rng);
      double steps = static_cast<double>(result.num_steps);
      double slowdown = result.slowdown;
      if (result.fault == FaultKind::kDropout) {
        steps = 0.0;
      } else if (result.fault == FaultKind::kStraggler) {
        steps = NominalSteps(jobs[slot].spec->options, result.num_samples);
        slowdown = config_.faults.round_deadline;
      }
      makespan = std::max(
          makespan,
          SimulatedDuration(profile, slowdown, steps, result.wire_bytes_down,
                            result.wire_bytes_up, jitter));
    }
    if (result.fault == FaultKind::kDropout) ++fault_stats_.dropouts;
    if (result.fault == FaultKind::kStraggler) ++fault_stats_.stragglers;
    if (result.dropped) {
      // the device never uploads; its dispatch bought nothing
      comm_.AddWasted(CommTracker::FloatBytes(model_size_),
                      result.wire_bytes_down);
      continue;
    }
    comm_.AddUpload(CommTracker::FloatBytes(model_size_),
                    result.wire_bytes_up);
    if (result.fault == FaultKind::kCorrupted) ++fault_stats_.corrupted;
    // Counted at upload receipt, before the screening verdict: a clipped
    // upload the screener then rejects was still clipped on-device.
    if (result.dp_clipped) ++privacy_stats_.clipped;
    if (screen) {
      util::Status verdict = ScreenUpload(*jobs[slot].init_params,
                                          result.params, config_.screening);
      if (!verdict.ok()) {
        // Degrade exactly like a dropout: the contribution is discarded and
        // params echo the dispatched model (so FedCross keeps its
        // middleware copy). Both legs of the round trip bought nothing.
        result.params = *jobs[slot].init_params;
        result.dropped = true;
        result.fault = FaultKind::kRejected;
        ++fault_stats_.rejected;
        comm_.AddWasted(CommTracker::FloatBytes(model_size_) * 2,
                        result.wire_bytes_down + result.wire_bytes_up);
        continue;
      }
    }
    Metrics().uploads_accepted.Add(1);
    round_loss_sum_ += result.mean_loss;
    ++round_loss_count_;
  }
  // Secure-aggregation overlay over the dispatch cohort: members whose
  // upload survived screening contribute; dropouts, deadline stragglers and
  // rejections are the dropped members whose masks recovery reconstructs.
  if (config_.secure_agg.Enabled() && count > 0) {
    mask_slots_.resize(count);
    for (int slot = 0; slot < count; ++slot) {
      mask_slots_[slot] =
          results_[slot].dropped ? nullptr : &results_[slot].params;
    }
    ApplyMaskingOverlay(round, salt, mask_slots_);
  }
  // One noised aggregation event enters the RDP ledger at this batch's
  // actual sampling rate (FedCluster's per-cluster batches compose as
  // separate events, exactly as the mechanism fires).
  if (config_.dp.Noised() && count > 0) {
    accountant_.AccumulateRound(
        std::min(1.0, static_cast<double>(count) /
                          static_cast<double>(num_clients())),
        config_.dp.noise_multiplier);
  }
  // The barrier releases when the slowest slot reports; the aggregation
  // that follows is one global-model version.
  virtual_now_ += makespan;
  ++model_version_;
  return results_;
}

void FlAlgorithm::ApplyMaskingOverlay(
    int round, int salt, const std::vector<const FlatParams*>& uploads) {
  privacy::MaskedSumReport report = privacy::SimulateMaskedAggregation(
      config_.seed, round, salt, uploads, config_.secure_agg);
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

void FlAlgorithm::TrainClientJob(const ClientJob& job, const FlClient& client,
                                 FlatParams* residual, util::Rng& rng,
                                 util::Rng& fault_rng, util::Rng& codec_rng,
                                 util::Rng& privacy_rng, double round_deadline,
                                 WireScratch& wire, LocalTrainResult& result) {
  FaultDecision decision;
  if (!PrepareClientJob(job, client, fault_rng, round_deadline, wire, result,
                        decision)) {
    return;
  }
  client.Train(pool_, wire.dispatched, *job.spec, rng, result);
  FinishClientJob(job, residual, decision, fault_rng, codec_rng, privacy_rng,
                  wire, result);
}

bool FlAlgorithm::PrepareClientJob(const ClientJob& job,
                                   const FlClient& client,
                                   util::Rng& fault_rng,
                                   double round_deadline, WireScratch& wire,
                                   LocalTrainResult& result,
                                   FaultDecision& decision) {
  FC_CHECK(job.init_params != nullptr);
  FC_CHECK(job.spec != nullptr);

  const FaultProfile& profile = config_.faults.ProfileFor(job.client_id);
  decision = DrawFaults(profile, round_deadline, fault_rng);

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
                                  util::Rng& fault_rng, util::Rng& codec_rng,
                                  util::Rng& privacy_rng, WireScratch& wire,
                                  LocalTrainResult& result) {
  // DP sanitisation before corruption and the upload codec: the mechanism
  // runs on-device against the dispatched reference, and its noise comes
  // from the dedicated privacy stream — never the training rng, whose draw
  // position must not depend on whether DP is enabled.
  result.dp_clipped = false;
  if (config_.dp.Enabled()) {
    result.dp_clipped = privacy::SanitizeUpdateInPlace(
        wire.dispatched, result.params, config_.dp, privacy_rng);
  }
  if (decision.corrupt) {
    const FaultProfile& profile = config_.faults.ProfileFor(job.client_id);
    CorruptUpload(profile, wire.dispatched, result.params, fault_rng);
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
                     shape_table_, *residual, codec_rng, wire.frame);
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

void FlAlgorithm::TrainClientsPlan(int round, int salt,
                                   const std::vector<ClientJob>& jobs) {
  int count = static_cast<int>(jobs.size());
  struct SlotCtx {
    util::Rng job_rng;
    util::Rng fault_rng;
    util::Rng codec_rng;
    util::Rng privacy_rng;
    FaultDecision decision;
    bool trains = false;
  };
  // Same per-slot streams as the layer path, constructed from the same
  // seeds; Prepare/train/Finish consume each stream in the same order a
  // monolithic TrainClientJob would.
  std::vector<SlotCtx> ctx;
  ctx.reserve(count);
  for (int slot = 0; slot < count; ++slot) {
    ctx.push_back(SlotCtx{
        util::Rng(ClientJobSeed(config_.seed, round, salt, slot)),
        util::Rng(FaultSeed(config_.seed, round, salt, slot)),
        util::Rng(CodecSeed(config_.seed, round, salt, slot)),
        util::Rng(privacy::PrivacySeed(config_.seed, round, salt, slot)),
        FaultDecision{}, false});
  }
  // Fault draws and the dispatch codec run per slot on the pool, as they do
  // inside TrainClientJob on the layer path. Slots share nothing: each owns
  // its streams, its WireScratch and its residual (pinned by TrainClients
  // before this call), and encode scratch is thread_local.
  ParallelFor(count, [&](int slot) {
    ctx[slot].trains = PrepareClientJob(
        jobs[slot], *client_slots_[slot], ctx[slot].fault_rng,
        config_.faults.round_deadline, wire_scratch_[slot], results_[slot],
        ctx[slot].decision);
  });
  std::vector<PlanJob> plan_jobs;
  plan_jobs.reserve(count);
  for (int slot = 0; slot < count; ++slot) {
    if (!ctx[slot].trains) continue;
    PlanJob pj;
    pj.client = client_slots_[slot];
    pj.init_params = &wire_scratch_[slot].dispatched;
    pj.spec = jobs[slot].spec;
    pj.rng = &ctx[slot].job_rng;
    pj.result = &results_[slot];
    plan_jobs.push_back(pj);
  }

  // One lockstep cohort per contiguous chunk. Chunking only changes how
  // many replicas each fused GEMM spans; every job's bits come from its own
  // per-slot streams, so the split is schedule-invariant.
  const int n = static_cast<int>(plan_jobs.size());
  const int chunks = std::min(n, FlThreads());
  ParallelFor(chunks, [&](int c) {
    int begin = static_cast<int>(static_cast<std::int64_t>(n) * c / chunks);
    int end =
        static_cast<int>(static_cast<std::int64_t>(n) * (c + 1) / chunks);
    RunPlanJobs(pool_, plan_jobs.data() + begin, end - begin);
  });

  // DP sanitisation, corruption and the upload codec, fanned out the same
  // way.
  ParallelFor(count, [&](int slot) {
    if (!ctx[slot].trains) return;
    FinishClientJob(jobs[slot], residual_slots_[slot], ctx[slot].decision,
                    ctx[slot].fault_rng, ctx[slot].codec_rng,
                    ctx[slot].privacy_rng, wire_scratch_[slot],
                    results_[slot]);
  });
}

const std::vector<LocalTrainResult>& FlAlgorithm::TrainClientsAsync(
    int round, int salt, const std::vector<ClientJob>& jobs) {
  int count = static_cast<int>(jobs.size());
  Metrics().client_jobs.Add(count);
  if (static_cast<int>(wire_scratch_.size()) < count) {
    wire_scratch_.resize(count);
  }
  population_.BeginBatch();
  residual_store_.BeginBatch();
  const bool lossy = comm::SchemeIsLossy(config_.codec.scheme);
  client_slots_.resize(count);
  residual_slots_.resize(count);
  for (int slot = 0; slot < count; ++slot) {
    FC_CHECK_GE(jobs[slot].client_id, 0);
    FC_CHECK_LT(jobs[slot].client_id, num_clients());
    client_slots_[slot] = &population_.Client(jobs[slot].client_id);
    residual_slots_[slot] =
        lossy ? &residual_store_.Touch(jobs[slot].client_id) : nullptr;
  }
  async_outcomes_.resize(count);

  const AsyncOptions& async = config_.async;
  const double timeout = async.dispatch_timeout;
  const double t_round = virtual_now_;
  const std::int64_t version = model_version_;
  const bool screen = config_.screening.Enabled();

  // Dispatch every slot, running its whole timeout/retry chain to a
  // terminal outcome on the worker: clients are simulations, so nothing
  // actually waits — "in flight" is just an arrival timestamp. Each attempt
  // derives its training / fault / codec / clock streams from
  // `salt + attempt * stride`, making the outcome a pure function of
  // (seed, round, salt, slot, attempt) — bit-identical across thread
  // counts — with retry streams that cannot collide with other batches'.
  auto dispatch_slot = [&](int slot) {
    AsyncOutcome& out = async_outcomes_[slot];
    out.attempts.clear();
    out.retries = 0;
    const ClientJob& job = jobs[slot];
    ClockProfile profile =
        DrawClockProfile(async.clock, config_.seed, job.client_id);
    double t_dispatch = t_round;
    for (int attempt = 0;; ++attempt) {
      int attempt_salt = salt + attempt * kAsyncRetrySaltStride;
      util::Rng job_rng(ClientJobSeed(config_.seed, round, attempt_salt, slot));
      util::Rng fault_rng(FaultSeed(config_.seed, round, attempt_salt, slot));
      util::Rng codec_rng(CodecSeed(config_.seed, round, attempt_salt, slot));
      util::Rng clock_rng(ClockSeed(config_.seed, round, attempt_salt, slot));
      util::Rng privacy_rng(
          privacy::PrivacySeed(config_.seed, round, attempt_salt, slot));
      LocalTrainResult& result = out.result;
      // The engine owns the deadline race (round_deadline = 0): stragglers
      // train slowly and land late instead of being dropped at a barrier.
      TrainClientJob(job, *client_slots_[slot], residual_slots_[slot],
                     job_rng, fault_rng, codec_rng, privacy_rng,
                     /*round_deadline=*/0.0, wire_scratch_[slot], result);
      result.client_id = job.client_id;
      result.slot = slot;
      result.dispatch_version = version;
      double jitter = DrawJitter(async.clock, clock_rng);
      double duration = SimulatedDuration(
          profile, result.slowdown, static_cast<double>(result.num_steps),
          result.wire_bytes_down, result.wire_bytes_up, jitter);
      const bool vanished = result.dropped;  // dropout: no upload, ever
      // A dropout under a timeout is retried like a straggler: the server
      // cannot tell a vanished device from a slow one — both just miss the
      // deadline. Without a timeout the server notices the silence at the
      // would-be transfer time.
      const bool late = timeout > 0.0 && (vanished || duration > timeout);
      AsyncAttempt log;
      log.wire_down = result.wire_bytes_down;
      log.wire_up = vanished ? 0 : result.wire_bytes_up;
      log.uploaded = !vanished;
      log.timed_out = late;
      out.attempts.push_back(log);
      if (!late && !vanished) {
        // The upload arrives. Screen it now: the dispatched reference dies
        // with this TrainClients call, and rejection is terminal (a
        // Byzantine device is not worth a retry).
        if (screen) {
          util::Status verdict = ScreenUpload(*job.init_params, result.params,
                                              config_.screening);
          if (!verdict.ok()) {
            result.params = *job.init_params;
            result.dropped = true;
            result.fault = FaultKind::kRejected;
          }
        }
        out.arrival = t_dispatch + duration;
        return;
      }
      double t_fail = late ? t_dispatch + timeout : t_dispatch + duration;
      if (late && attempt < async.max_retries) {
        ++out.retries;
        t_dispatch = t_fail;
        continue;
      }
      if (late && !vanished) {
        // Terminal timeout of a device that did train: degrade like a sync
        // straggler — params echo the dispatch, which every consumer
        // already handles.
        result.params = *job.init_params;
        result.dropped = true;
        result.fault = FaultKind::kStraggler;
      }
      out.arrival = t_fail;
      return;
    }
  };
  {
    PhaseScope phase(*this, RoundPhase::kTrain);
    ParallelFor(count, dispatch_slot);
  }

  PhaseScope phase(*this, RoundPhase::kScreen);
  // Fold the dispatch logs serially in slot order — comm accounting, wasted
  // bytes (every non-final attempt bought nothing; so did the final one
  // when the slot terminally failed), timeout/retry tallies — then push the
  // terminal event onto the in-flight heap.
  auto after = [](const PendingUpload& a, const PendingUpload& b) {
    return a.arrival != b.arrival ? a.arrival > b.arrival : a.seq > b.seq;
  };
  for (int slot = 0; slot < count; ++slot) {
    AsyncOutcome& out = async_outcomes_[slot];
    int attempts = static_cast<int>(out.attempts.size());
    for (int a = 0; a < attempts; ++a) {
      const AsyncAttempt& log = out.attempts[a];
      comm_.AddDownload(CommTracker::FloatBytes(model_size_), log.wire_down);
      if (log.uploaded) {
        comm_.AddUpload(CommTracker::FloatBytes(model_size_), log.wire_up);
      }
      if (log.timed_out) ++fault_stats_.timeouts;
      if (a + 1 < attempts || out.result.dropped) {
        std::uint64_t raw = CommTracker::FloatBytes(model_size_);
        comm_.AddWasted(log.uploaded ? raw * 2 : raw,
                        log.wire_down + (log.uploaded ? log.wire_up : 0));
      }
    }
    fault_stats_.retries += out.retries;
    inflight_.push_back(
        PendingUpload{out.arrival, dispatch_seq_++, std::move(out.result)});
    std::push_heap(inflight_.begin(), inflight_.end(), after);
  }

  // Collect arrivals in (arrival, seq) order — advancing the virtual clock
  // — until `buffer_size` usable uploads land or the sky empties. Dropped /
  // rejected arrivals free their buffer slot: they are tallied and skipped
  // without counting against the buffer, so a straggler-heavy cohort
  // degrades the round instead of stalling it.
  const int want = async.buffer_size > 0 ? async.buffer_size : count;
  results_.clear();
  mask_indices_.clear();
  int collected = 0;
  while (collected < want && !inflight_.empty()) {
    std::pop_heap(inflight_.begin(), inflight_.end(), after);
    PendingUpload event = std::move(inflight_.back());
    inflight_.pop_back();
    virtual_now_ = std::max(virtual_now_, event.arrival);
    LocalTrainResult& result = event.result;
    // Corruption is counted when the mangled upload reaches the server,
    // whether or not screening then discarded it.
    if (result.upload_corrupt && (result.fault == FaultKind::kCorrupted ||
                                  result.fault == FaultKind::kRejected)) {
      ++fault_stats_.corrupted;
    }
    // Clipping mirrors corruption: tallied when the clipped upload reaches
    // the server. A rejected arrival did reach it (screening then discarded
    // it); a dropout or terminal straggler never uploaded at all.
    if (result.dp_clipped &&
        (!result.dropped || result.fault == FaultKind::kRejected)) {
      ++privacy_stats_.clipped;
    }
    if (result.dropped) {
      if (result.fault == FaultKind::kDropout) ++fault_stats_.dropouts;
      if (result.fault == FaultKind::kStraggler) ++fault_stats_.stragglers;
      if (result.fault == FaultKind::kRejected) ++fault_stats_.rejected;
      // A rejected arrival is a dropped member of this collection event's
      // masking cohort: its pair masks dangle and recovery reconstructs
      // them. (Dropouts and terminal stragglers never uploaded a masked
      // sum, so they were never in the cohort.)
      if (config_.secure_agg.Enabled() &&
          result.fault == FaultKind::kRejected) {
        mask_indices_.push_back(-1);
      }
      continue;
    }
    const int tau = static_cast<int>(model_version_ - result.dispatch_version);
    result.staleness = tau;
    result.weight_scale =
        StalenessWeight(async.staleness, async.staleness_exponent, tau);
    round_staleness_sum_ += tau;
    ++round_staleness_count_;
    round_staleness_max_ = std::max(round_staleness_max_, tau);
    if (obs::MetricsEnabled()) {
      Metrics().staleness.Observe(static_cast<double>(tau));
    }
    Metrics().uploads_accepted.Add(1);
    round_loss_sum_ += result.mean_loss;
    ++round_loss_count_;
    if (config_.secure_agg.Enabled()) {
      mask_indices_.push_back(static_cast<int>(results_.size()));
    }
    results_.push_back(std::move(result));
    ++collected;
  }
  // Secure-aggregation overlay over this collection event's cohort — the
  // arrivals popped above, in pop order. Indices (not pointers) were
  // recorded because results_ reallocates as it grows; pair masks key on
  // cohort position, so duplicate client ids (the same client sampled by
  // overlapping rounds) still cancel exactly.
  if (config_.secure_agg.Enabled() && !mask_indices_.empty()) {
    mask_slots_.clear();
    mask_slots_.reserve(mask_indices_.size());
    for (int index : mask_indices_) {
      mask_slots_.push_back(index < 0 ? nullptr : &results_[index].params);
    }
    ApplyMaskingOverlay(round, salt, mask_slots_);
  }
  // Every dispatched job ran the DP mechanism once, so one noised event at
  // this dispatch batch's sampling rate enters the ledger — regardless of
  // when its upload is collected.
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
  return flat_ops::Mean(models);
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
  // Only a non-default codec perturbs the fingerprint, so checkpoints from
  // builds that predate the wire codec (implicitly identity) keep loading.
  if (config_.codec.scheme != comm::Scheme::kIdentity) {
    h = MixSeed(h ^ (0x636f646563ULL +
                     static_cast<std::uint64_t>(config_.codec.scheme)));
    h = mix_float(h, static_cast<float>(config_.codec.topk_fraction));
  }
  // Only the async engine perturbs the fingerprint: it reshapes the
  // training trajectory itself, while the sync clock is observation-only
  // (virtual time rides in the v4 body), so pre-engine checkpoints keep
  // loading into sync runs.
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
  // the fingerprint, so checkpoints from builds that predate the privacy
  // subsystem (both features implicitly off) keep loading.
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
  // bf16 replica arenas change the training trajectory (activations round
  // on every arena store), so the flag perturbs the fingerprint; exec mode
  // itself stays out of it, fp32 plan == layers bit-for-bit.
  if (config_.train.plan_bf16) {
    h = MixSeed(h ^ 0x62663136ULL);  // "bf16"
  }
  return h;
}

util::Status FlAlgorithm::SaveCheckpoint(const std::string& path) {
  return SaveCheckpoint(path, kCheckpointVersion);
}

util::Status FlAlgorithm::SaveCheckpoint(const std::string& path,
                                         std::uint32_t version) {
  FC_TRACE_SPAN("checkpoint.save");
  FC_CHECK_GE(version, 2u);
  FC_CHECK_LE(version, kCheckpointVersion);
  const std::int64_t start_us =
      obs::MetricsEnabled() ? obs::TraceNowMicros() : 0;
  StateWriter writer(version);
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
  if (writer.version() >= 4) {
    writer.WriteU64(comm_.total_wasted_bytes());
    writer.WriteU64(comm_.total_wire_wasted_bytes());
  }

  writer.WriteI64(fault_stats_.dropouts);
  writer.WriteI64(fault_stats_.stragglers);
  writer.WriteI64(fault_stats_.corrupted);
  writer.WriteI64(fault_stats_.rejected);
  if (writer.version() >= 4) {
    writer.WriteI64(fault_stats_.timeouts);
    writer.WriteI64(fault_stats_.retries);
  }

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
  // run. v3 writes a sparse id-keyed table covering only clients that ever
  // held a residual (spilled entries are read back through the store, so
  // residency is invisible); v2 wrote one dense row per client.
  const bool lossy = comm::SchemeIsLossy(config_.codec.scheme);
  if (writer.version() >= 3) {
    std::vector<std::int64_t> ids = residual_store_.TouchedIds();
    writer.WriteU64(ids.size());
    for (std::int64_t id : ids) {
      writer.WriteI64(id);
      FC_CHECK(residual_store_.Read(id, state_scratch_));
      writer.WriteFloats(state_scratch_);
    }
  } else {
    // Dense v2 downgrade: only valid while N fits the historical format.
    const std::uint64_t dense =
        lossy ? static_cast<std::uint64_t>(num_clients()) : 0;
    writer.WriteU64(dense);
    for (std::uint64_t id = 0; id < dense; ++id) {
      state_scratch_.clear();
      residual_store_.Read(static_cast<std::int64_t>(id), state_scratch_);
      writer.WriteFloats(state_scratch_);
    }
  }

  // v4 event-engine state: the virtual clock, the version/dispatch
  // counters, and the in-flight heap serialised in array order (so a
  // resumed run pops bit-identically). Downgraded files drop it: a
  // mid-buffer async run loses its pending arrivals.
  if (writer.version() >= 4) {
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
      if (writer.version() >= 5) writer.WriteBool(r.dp_clipped);
    }
  }

  // v5 privacy state: the RDP accountant's per-order totals (exact f64
  // bits, so the restored epsilon is bit-identical) and the privacy
  // counters. Downgraded files drop it: a resumed DP run restarts its
  // ledger, under-reporting the spent budget.
  if (writer.version() >= 5) {
    writer.WriteI64(accountant_.rounds());
    writer.WriteDoubles(accountant_.order_totals());
    writer.WriteI64(privacy_stats_.clipped);
    writer.WriteI64(privacy_stats_.mask_pairs);
    writer.WriteI64(privacy_stats_.mask_recoveries);
  }

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
  if (completed < 0) {
    return util::Status::InvalidArgument("negative completed-round counter");
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
  if (reader.version() >= 2) {
    FC_RETURN_IF_ERROR(reader.ReadU64(total_down));
    FC_RETURN_IF_ERROR(reader.ReadU64(total_up));
    FC_RETURN_IF_ERROR(reader.ReadU64(total_wire_down));
    FC_RETURN_IF_ERROR(reader.ReadU64(total_wire_up));
  } else {
    // v1 stored the totals as doubles and predates wire accounting; the
    // integers are exact below 2^53 and wire falls back to raw.
    double down = 0.0;
    double up = 0.0;
    FC_RETURN_IF_ERROR(reader.ReadF64(down));
    FC_RETURN_IF_ERROR(reader.ReadF64(up));
    if (down < 0.0 || up < 0.0) {
      return util::Status::InvalidArgument("negative checkpoint byte totals");
    }
    total_down = static_cast<std::uint64_t>(down);
    total_up = static_cast<std::uint64_t>(up);
    total_wire_down = total_down;
    total_wire_up = total_up;
  }
  std::uint64_t total_wasted = 0;
  std::uint64_t total_wire_wasted = 0;
  if (reader.version() >= 4) {
    FC_RETURN_IF_ERROR(reader.ReadU64(total_wasted));
    FC_RETURN_IF_ERROR(reader.ReadU64(total_wire_wasted));
  }

  FaultStats stats;
  FC_RETURN_IF_ERROR(reader.ReadI64(stats.dropouts));
  FC_RETURN_IF_ERROR(reader.ReadI64(stats.stragglers));
  FC_RETURN_IF_ERROR(reader.ReadI64(stats.corrupted));
  FC_RETURN_IF_ERROR(reader.ReadI64(stats.rejected));
  if (reader.version() >= 4) {
    FC_RETURN_IF_ERROR(reader.ReadI64(stats.timeouts));
    FC_RETURN_IF_ERROR(reader.ReadI64(stats.retries));
  }

  std::uint64_t record_count = 0;
  FC_RETURN_IF_ERROR(reader.ReadU64(record_count));
  MetricsHistory restored;
  for (std::uint64_t i = 0; i < record_count; ++i) {
    RoundRecord record;
    std::int64_t round = 0;
    FC_RETURN_IF_ERROR(reader.ReadI64(round));
    record.round = static_cast<int>(round);
    FC_RETURN_IF_ERROR(reader.ReadF32(record.test_loss));
    FC_RETURN_IF_ERROR(reader.ReadF32(record.test_accuracy));
    FC_RETURN_IF_ERROR(reader.ReadF64(record.bytes_up));
    FC_RETURN_IF_ERROR(reader.ReadF64(record.bytes_down));
    FC_RETURN_IF_ERROR(reader.ReadF64(record.mean_client_loss));
    restored.Add(record);
  }

  // Residual table: v3 sparse (id-keyed, ascending), v2 dense (one row per
  // client, empty rows for clients that never uploaded). Staged into
  // (id, residual) pairs and committed to the store only after every read
  // succeeds.
  std::vector<std::pair<std::int64_t, FlatParams>> residuals;
  if (reader.version() >= 3) {
    std::uint64_t residual_count = 0;
    FC_RETURN_IF_ERROR(reader.ReadU64(residual_count));
    residuals.reserve(static_cast<std::size_t>(residual_count));
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
  } else if (reader.version() >= 2) {
    std::uint64_t residual_count = 0;
    FC_RETURN_IF_ERROR(reader.ReadU64(residual_count));
    if (residual_count != 0 &&
        residual_count != static_cast<std::uint64_t>(num_clients())) {
      return util::Status::InvalidArgument(
          "checkpoint residual table has " + std::to_string(residual_count) +
          " clients, expected " + std::to_string(num_clients()));
    }
    for (std::uint64_t id = 0; id < residual_count; ++id) {
      FlatParams residual;
      FC_RETURN_IF_ERROR(reader.ReadFloats(residual));
      if (!residual.empty() &&
          residual.size() != static_cast<std::size_t>(model_size_)) {
        return util::Status::InvalidArgument(
            "checkpoint residual does not match the model size");
      }
      if (!residual.empty()) {
        residuals.emplace_back(static_cast<std::int64_t>(id),
                               std::move(residual));
      }
    }
  }

  // v4 event-engine state; pre-v4 files restore with a zeroed engine (the
  // defaults below), which is exactly the state a sync run never left.
  double virtual_now = 0.0;
  std::int64_t model_version = 0;
  std::int64_t dispatch_seq = 0;
  std::vector<PendingUpload> inflight;
  if (reader.version() >= 4) {
    FC_RETURN_IF_ERROR(reader.ReadF64(virtual_now));
    FC_RETURN_IF_ERROR(reader.ReadI64(model_version));
    FC_RETURN_IF_ERROR(reader.ReadI64(dispatch_seq));
    std::uint64_t inflight_count = 0;
    FC_RETURN_IF_ERROR(reader.ReadU64(inflight_count));
    inflight.reserve(static_cast<std::size_t>(inflight_count));
    for (std::uint64_t i = 0; i < inflight_count; ++i) {
      PendingUpload pending;
      FC_RETURN_IF_ERROR(reader.ReadF64(pending.arrival));
      FC_RETURN_IF_ERROR(reader.ReadI64(pending.seq));
      LocalTrainResult& r = pending.result;
      FC_RETURN_IF_ERROR(reader.ReadFloats(r.params));
      if (r.params.size() != static_cast<std::size_t>(model_size_)) {
        return util::Status::InvalidArgument(
            "checkpoint in-flight params do not match the model size");
      }
      std::int64_t num_samples = 0;
      std::int64_t num_steps = 0;
      FC_RETURN_IF_ERROR(reader.ReadI64(num_samples));
      FC_RETURN_IF_ERROR(reader.ReadI64(num_steps));
      r.num_samples = static_cast<int>(num_samples);
      r.num_steps = static_cast<int>(num_steps);
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
      std::int64_t slot = 0;
      FC_RETURN_IF_ERROR(reader.ReadI64(slot));
      r.slot = static_cast<int>(slot);
      FC_RETURN_IF_ERROR(reader.ReadI64(r.dispatch_version));
      FC_RETURN_IF_ERROR(reader.ReadF64(r.slowdown));
      FC_RETURN_IF_ERROR(reader.ReadBool(r.upload_corrupt));
      if (reader.version() >= 5) {
        FC_RETURN_IF_ERROR(reader.ReadBool(r.dp_clipped));
      }
      inflight.push_back(std::move(pending));
    }
  }

  // v5 privacy state; pre-v5 files restore with an empty ledger and zeroed
  // counters — exactly the state a pre-privacy run never left.
  std::int64_t accountant_rounds = 0;
  std::vector<double> order_totals;
  PrivacyStats privacy_stats;
  if (reader.version() >= 5) {
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
    FC_RETURN_IF_ERROR(reader.ReadI64(privacy_stats.clipped));
    FC_RETURN_IF_ERROR(reader.ReadI64(privacy_stats.mask_pairs));
    FC_RETURN_IF_ERROR(reader.ReadI64(privacy_stats.mask_recoveries));
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
  if (reader.version() >= 5) {
    accountant_.Restore(order_totals, accountant_rounds);
  } else {
    accountant_.Reset();
  }
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
