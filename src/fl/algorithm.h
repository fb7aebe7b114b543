#ifndef FEDCROSS_FL_ALGORITHM_H_
#define FEDCROSS_FL_ALGORITHM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "comm/wire.h"
#include "data/dataset.h"
#include "fl/aggregators.h"
#include "fl/checkpoint.h"
#include "fl/client.h"
#include "fl/clock.h"
#include "fl/comm_tracker.h"
#include "fl/evaluator.h"
#include "fl/faults.h"
#include "fl/history.h"
#include "fl/model_pool.h"
#include "fl/parallel.h"  // SetFlThreads / FlThreads
#include "fl/population.h"
#include "fl/state_store.h"
#include "fl/types.h"
#include "models/model_zoo.h"
#include "privacy/accountant.h"
#include "privacy/dp.h"
#include "privacy/masking.h"
#include "util/rng.h"
#include "util/status.h"

namespace fedcross::fl {

// Shared configuration for all FL algorithms.
struct AlgorithmConfig {
  int clients_per_round = 10;  // K; the paper activates 10% of N clients
  TrainOptions train;
  std::uint64_t seed = 42;
  int eval_batch_size = 100;

  // Fault injection (see fl/faults.h): per-client dropout / straggler /
  // corrupted-upload profiles, drawn from a dedicated fault RNG stream so
  // enabling faults never perturbs surviving clients' training and results
  // stay bit-identical across thread counts. All disabled by default.
  FaultModel faults;

  // Server-side upload screening: finite-check plus update-norm gate.
  // Rejected uploads degrade exactly like dropouts. Disabled by default.
  ScreeningOptions screening;

  // Server aggregation rule for the mean-style algorithms (see
  // fl/aggregators.h). Defaults to the classic sample-weighted mean.
  AggregatorOptions aggregator;

  // Differential privacy: clip-and-noise applied to every client upload
  // (see privacy/dp.h). Noise rides a dedicated per-(round, salt, slot)
  // privacy stream, so DP-enabled runs stay bit-identical across
  // --fl_threads; when noise_multiplier > 0 the subsampled-Gaussian RDP
  // accountant composes eps(delta) across rounds at the actual sampling
  // rate K/N. clip_norm <= 0 disables.
  privacy::DpOptions dp;

  // Secure-aggregation-style pairwise masking (see privacy/masking.h): the
  // server sum is recomputed in a fixed-point domain under seed-derived
  // pairwise masks and checked to unmask exactly, with dropped members'
  // masks recovered from surviving peers' pair seeds. Verification overlay:
  // the float aggregation path is untouched, so enabling masking is
  // bit-identical to a masking-off run. Disabled by default.
  privacy::MaskOptions secure_agg;

  // Wire codec for the communication path (see comm/wire.h). Every
  // dispatch and upload round-trips through the framed codec; the default
  // identity scheme is bit-identical to uncoded training, while the lossy
  // schemes (int8 / topk / int8_topk) compress the uplink under per-client
  // error feedback. Stochastic rounding draws come from a dedicated
  // per-(round, client) RNG stream, so every scheme stays bit-identical
  // across --fl_threads values.
  comm::CodecOptions codec;

  // Client-population residency (see fl/population.h). kResident keeps the
  // historical everything-in-RAM layout; kVirtual materialises a sampled
  // client's shard on first touch each round and drops it a batch later, so
  // peak memory is flat in the registered population size. Shard factories
  // are pure in the client id, so both modes train bit-identically; the
  // mode is not part of the checkpoint fingerprint and may change across a
  // resume.
  PopulationMode population = PopulationMode::kResident;

  // Distinct-sampling routine for SampleClients. kAuto keeps the historical
  // full-shuffle draw sequence on resident populations (bit-compat with
  // existing seeds) and switches to Floyd's O(K) sampler on virtual ones;
  // set explicitly to pin one sampler regardless of population mode.
  ClientSampler sampler = ClientSampler::kAuto;

  // Residency cap for cold per-client state (codec error-feedback
  // residuals, SCAFFOLD control variates, CluSamp update history). The
  // default keeps everything in RAM; a positive max_resident spills
  // least-recently-used entries to an mmap-backed temp file between rounds
  // (bit-identical either way; see fl/state_store.h).
  StateStoreOptions state_store;

  // Virtual-clock event engine (see fl/clock.h): round mode (lock-step sync
  // vs buffered async), staleness weighting, per-dispatch timeout + retry
  // budget, and the population's simulated hardware-heterogeneity model.
  // The default (sync, homogeneous clock) is bit-identical to pre-engine
  // builds; in sync mode the clock only *observes* the round makespan.
  AsyncOptions async;
};

// Cumulative per-run privacy accounting, kept by FlAlgorithm alongside
// FaultStats: uploads the DP mechanism clipped, pairwise masks the
// secure-aggregation overlay applied, and dangling masks it recovered from
// dropped members' pair seeds.
struct PrivacyStats {
  std::int64_t clipped = 0;
  std::int64_t mask_pairs = 0;
  std::int64_t mask_recoveries = 0;
};

// Base class of every FL algorithm in the repository (the five baselines in
// src/fl plus FedCross in src/core). Owns the simulated clients, the global
// test set, communication accounting and the metrics history; subclasses
// implement one training round and expose their deployable global model.
class FlAlgorithm {
 public:
  FlAlgorithm(std::string name, AlgorithmConfig config,
              data::FederatedDataset data, models::ModelFactory factory);
  virtual ~FlAlgorithm() = default;

  FlAlgorithm(const FlAlgorithm&) = delete;
  FlAlgorithm& operator=(const FlAlgorithm&) = delete;

  // Executes one FL round: client sampling, local training, aggregation.
  // Communication must be logged through comm(). `round` is 0-based.
  virtual void RunRound(int round) = 0;

  // The deployable global model (for FedCross: the average of the
  // middleware models, generated on demand).
  virtual FlatParams GlobalParams() = 0;

  // Driver: runs rounds [completed_rounds(), rounds), evaluating the global
  // model on the test set every `eval_every` rounds and recording a
  // RoundRecord. Returns the accumulated history. On a freshly constructed
  // instance this runs all `rounds` rounds; after LoadCheckpoint it resumes
  // where the checkpoint left off and produces a history bit-identical to
  // an uninterrupted run.
  const MetricsHistory& Run(int rounds, int eval_every = 1,
                            bool verbose = false);

  // Rounds completed by Run() so far (restored by LoadCheckpoint).
  int completed_rounds() const { return completed_rounds_; }

  // Checkpoint/resume. SaveCheckpoint serialises the full training state —
  // config fingerprint, completed rounds, run RNG state, communication
  // totals, fault statistics, metrics history, and the subclass model state
  // — atomically (tmp file + rename). LoadCheckpoint restores it into a
  // freshly constructed instance of the *same* configuration; a fingerprint
  // mismatch returns FailedPrecondition; corrupt (CRC mismatch), truncated
  // or malformed files, and files of another format version, return
  // InvalidArgument. On a non-OK load the training state is
  // unspecified: construct a fresh instance before retrying.
  util::Status SaveCheckpoint(const std::string& path);
  util::Status LoadCheckpoint(const std::string& path);

  // Enables periodic checkpointing inside Run(): the training state is
  // saved to `path` after every `every_rounds` completed rounds and after
  // the final round. `every_rounds <= 0` disables.
  void EnableAutoCheckpoint(std::string path, int every_rounds);

  // Cumulative fault accounting (dropouts, stragglers, corrupted uploads,
  // server-side rejections) across the whole run.
  const FaultStats& fault_stats() const { return fault_stats_; }

  // Cumulative privacy accounting (DP clips, mask pairs, mask recoveries).
  const PrivacyStats& privacy_stats() const { return privacy_stats_; }

  // The RDP ledger behind privacy_epsilon(); restored bit-exactly by
  // LoadCheckpoint.
  const privacy::RdpAccountant& accountant() const { return accountant_; }

  // eps(config.dp.delta) spent so far under the subsampled-Gaussian RDP
  // accountant: 0 before any noised aggregation, +infinity if a round ever
  // ran with clipping but no noise. Deterministic in the run config — the
  // same value at every --fl_threads.
  double privacy_epsilon() const {
    return accountant_.Epsilon(config_.dp.delta);
  }

  const std::string& name() const { return name_; }
  // 64-bit: virtual populations register far more clients than int holds.
  std::int64_t num_clients() const { return population_.size(); }
  std::int64_t model_size() const { return model_size_; }
  // Per-tensor element counts of the flattened model — what every wire
  // frame carries and validates.
  const comm::ShapeTable& shape_table() const { return shape_table_; }
  const MetricsHistory& history() const { return history_; }
  CommTracker& comm() { return comm_; }
  const data::Dataset& test_set() const { return *test_; }
  const models::ModelFactory& factory() const { return factory_; }

  // Evaluates arbitrary flat params on the held-out test set.
  EvalResult Evaluate(const FlatParams& params);

  // Population statistics (mode, resident count) for observability.
  const ClientPopulation& population() const { return population_; }

  // Virtual-clock engine state (fl/clock.h): simulated seconds elapsed,
  // aggregations performed (the global model's version), and dispatches
  // whose outcome the server has not yet consumed (always 0 in sync mode).
  // All three are deterministic: bit-identical across --fl_threads values.
  double virtual_now() const { return virtual_now_; }
  std::int64_t model_version() const { return model_version_; }
  std::int64_t inflight_dispatches() const {
    return static_cast<std::int64_t>(inflight_.size());
  }

 protected:
  const AlgorithmConfig& config() const { return config_; }
  util::Rng& rng() { return rng_; }
  // Materialises the client in virtual mode; the reference stays valid
  // until the second TrainClients call after this one (see
  // ClientPopulation::Client).
  const FlClient& client(std::int64_t id) { return population_.Client(id); }

  // The phases a round decomposes into for observability. The base class
  // times kTrain/kScreen (TrainClients), kAggregate (Aggregate), kEval and
  // kCheckpoint (Run), and the client pinning TrainClients does before its
  // fan-out as kDispatch; subclasses wrap their sampling / job construction
  // in a kDispatch scope too, and bespoke aggregation (FedCross's
  // cross-aggregation) in a kAggregate scope.
  enum class RoundPhase {
    kDispatch = 0,
    kTrain,
    kScreen,
    kAggregate,
    kEval,
    kCheckpoint,
  };
  static constexpr int kNumRoundPhases = 6;

  // RAII phase timer: accumulates elapsed wall-ms into the current round's
  // per-phase totals (exported in the round event) and, when tracing is on,
  // records a span named after the phase. When no observability sink is
  // active the constructor reduces to three relaxed atomic loads and the
  // destructor to one branch — no clock reads on unobserved runs.
  class PhaseScope {
   public:
    PhaseScope(FlAlgorithm& algo, RoundPhase phase);
    ~PhaseScope();

    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;

   private:
    FlAlgorithm* algo_ = nullptr;  // null: observability off, dtor no-ops
    RoundPhase phase_ = RoundPhase::kDispatch;
    std::int64_t start_us_ = 0;
  };

  // Samples K distinct client ids uniformly (the paper's random selection),
  // plus faults.over_provision extras (capped at N) when over-provisioned
  // selection is enabled. The draw routine follows config().sampler: the
  // historical full shuffle (O(N)) or Floyd's algorithm (O(K)).
  std::vector<std::int64_t> SampleClients();

  // Every slot of one of this algorithm's dispatch batches lies in
  // [0, DispatchSlots()); LoadCheckpoint rejects an in-flight slot outside
  // it. The default is what SampleClients draws: K plus the
  // over-provisioned extras, capped at N.
  virtual std::int64_t DispatchSlots() const;

  // One client-training job of a round: which client, which dispatched
  // model, and the algorithm-specific training ingredients. The pointed-to
  // data must stay valid (and unmodified) until TrainClients returns.
  struct ClientJob {
    std::int64_t client_id = -1;
    const FlatParams* init_params = nullptr;
    const ClientTrainSpec* spec = nullptr;
  };

  // Dispatches every job against the current model version and returns
  // what the server collects. One pipeline serves both round modes:
  //   1. one fan-out over dispatch units (TrainUnit), in parallel across the
  //      shared pool when SetFlThreads allows, each resolving its slots'
  //      whole attempt chains to a terminal result and an arrival time;
  //   2. one serial fold of every attempt's traffic, in slot order;
  //   3. the mode's collection policy, then one receipt rule (tallies and
  //      the round's mean client loss, in handover order);
  //   4. the masking overlay, the DP ledger and the version bump, once.
  // Every attempt draws only from streams seeded by (config.seed, round,
  // salt + attempt * 2^16, slot), so results are bit-identical regardless
  // of thread count or schedule. `salt` distinguishes multiple batches
  // issued within one round (e.g. FedCluster's per-cluster steps).
  //
  // Sync hands every slot over in job order (client_id ==
  // jobs[slot].client_id, weight_scale == 1.0; a dropped slot echoes its
  // dispatch) and moves the clock to the latest arrival. Plan-path models
  // under the lockstep line (fl::kLockstepStateBytes, a fixed 2 MiB of
  // parameter state per replica) train in min(K, ParallelWidth())
  // contiguous lockstep cohorts; every other job is a unit of its own.
  //
  // Under RoundMode::kAsync every slot is a unit of its own, and the
  // returned results are the next `buffer_size` *arrivals* in virtual-time
  // order — possibly stragglers from earlier rounds, possibly fewer than
  // jobs.size(), never positionally aligned with `jobs`. Async consumers
  // must key on result.client_id / result.slot and weight by
  // result.num_samples * result.weight_scale (sync's weight_scale of 1.0
  // keeps the same consumer code bit-identical to the integer weight).
  //
  // Returns a reference to an internal results vector that is recycled on
  // the next TrainClients call: read (or copy) what you need before then.
  // Round-over-round buffer reuse is what keeps the steady-state round free
  // of tensor/params heap allocations.
  const std::vector<LocalTrainResult>& TrainClients(
      int round, int salt, const std::vector<ClientJob>& jobs);

  // The factory model's initial parameters (captured once at construction);
  // subclass constructors copy these into their global/middleware state.
  const FlatParams& InitialParams() const { return initial_params_; }

  // The shared replica pool (for subclasses with bespoke model passes, e.g.
  // FedGen's generator training against the global model).
  ModelPool& pool() { return pool_; }

  // Sample-count-weighted average of client models (FedAvg aggregation).
  static FlatParams WeightedAverage(const std::vector<FlatParams>& models,
                                    const std::vector<double>& weights);
  // Unweighted mean: the models summed in ascending order, then scaled by
  // 1/K, range-sharded across the fl pool.
  static FlatParams Average(const std::vector<FlatParams>& models);

  // In-place variant over pointers into the results vector: `out` is
  // resized (capacity-retaining) and overwritten, so aggregation adds no
  // steady-state allocations and no params copies.
  static void WeightedAverageInto(const std::vector<const FlatParams*>& models,
                                  const std::vector<double>& weights,
                                  FlatParams& out);

  // Aggregates client models under the configured rule (fl/aggregators.h).
  // `reference` is the model the round dispatched (the norm-clipped rule's
  // clipping centre); `out` may alias it. The default kWeightedMean path is
  // byte-for-byte WeightedAverageInto.
  void Aggregate(const std::vector<const FlatParams*>& models,
                 const std::vector<double>& weights,
                 const FlatParams& reference, FlatParams& out);

  double TakeRoundClientLoss();  // mean loss over the round's clients

  // Checkpoint hooks: subclasses append/restore their algorithm state
  // (global params, variates, middleware, ...). LoadExtraState must consume
  // exactly what SaveExtraState wrote.
  virtual void SaveExtraState(StateWriter& writer) { (void)writer; }
  virtual util::Status LoadExtraState(StateReader& reader) {
    (void)reader;
    return util::Status::Ok();
  }

 private:
  // Per-slot wire-codec scratch: the encoded frame plus the decode targets,
  // recycled round-over-round so the codec path adds no steady-state
  // allocations.
  struct WireScratch {
    std::vector<std::uint8_t> frame;
    FlatParams dispatched;  // dispatch frame decoded client-side
    FlatParams decoded;     // upload frame decoded server-side
  };

  // The per-slot streams of one dispatch attempt (defined in algorithm.cc):
  // local training, fault draws, the upload codec and DP noise, each seeded
  // from (seed, round, salt, slot) and independent of the others.
  struct JobStreams;

  // One dispatch attempt of a ClientJob, split at the training boundary so
  // a dispatch unit can train its live slots as one wave in between.
  // Prepare draws faults and round-trips the dispatch frame; it returns
  // false (echoing the dispatch into `result`) when the attempt resolved to
  // a dropout or a deadline-missing straggler. Finish applies DP
  // sanitisation, upload corruption and the upload round trip. Both draw
  // only from the attempt's own streams, so jobs are order- and
  // thread-independent, and both write into `result`, recycling its
  // buffers. `client` and `residual` are resolved per slot on the
  // coordinating thread before the parallel fan-out (population cache and
  // state store are not thread-safe). `round_deadline` is the sync
  // straggler budget; async passes 0, because its dispatch timeout races
  // the whole attempt instead, so stragglers train slowly and land late.
  bool PrepareClientJob(const ClientJob& job, const FlClient& client,
                        JobStreams& streams, double round_deadline,
                        WireScratch& wire, LocalTrainResult& result,
                        FaultDecision& decision);
  void FinishClientJob(const ClientJob& job, FlatParams* residual,
                       const FaultDecision& decision, JobStreams& streams,
                       WireScratch& wire, LocalTrainResult& result);

  // One dispatch unit: slots [begin, end) of `jobs`, run on one worker
  // through their whole attempt chains while their buffers are hot. Each
  // wave prepares the live slots, trains them (one RunPlanJobs cohort when
  // `plan`, else FlClient::Train per slot), finishes them, then clocks
  // each attempt and gives its verdict: a late attempt with retries left
  // stays live for the next wave under salt + k * kRetrySaltStride; an
  // upload that arrives is screened. The chain sees the round mode only
  // through `round_deadline` (see PrepareClientJob) and `timeout` (<= 0:
  // none). Writes results_[begin, end) and records_[begin, end).
  void TrainUnit(int round, int salt, const std::vector<ClientJob>& jobs,
                 int begin, int end, bool plan, double round_deadline,
                 double timeout);

  // The server's receipt of one handed-over result, in handover order:
  // counts corruption and DP clips when the upload reached the server,
  // drops by kind, and an accepted upload's loss. Returns true when the
  // upload is accepted into aggregation.
  bool Receive(const LocalTrainResult& result);

  // The secure-aggregation verification overlay for one aggregation event:
  // recomputes the cohort's sum under pairwise fixed-point masks, recovers
  // dropped members' masks from their pair seeds, checks the unmasked total
  // equals the direct fixed-point sum bit-for-bit, and folds pair/recovery
  // tallies into privacy_stats_ (revealed recovery seeds are charged to the
  // uplink). `uploads[m]` is cohort member m's accepted upload or nullptr
  // when it dropped / timed out / was screened away.
  void ApplyMaskingOverlay(int round, int salt,
                           const std::vector<const FlatParams*>& uploads);

  // One resolved dispatch whose outcome the (async) server has not yet
  // consumed. Clients are simulations, so the whole dispatch — training,
  // screening, every timeout retry — executes inside the TrainClients call
  // that issued it; "in flight" is purely an arrival timestamp on the
  // virtual clock. Only the terminal LocalTrainResult is buffered, so no
  // job pointer (init_params, spec, SCAFFOLD corrections) ever outlives
  // its round.
  struct PendingUpload {
    double arrival = 0.0;  // virtual time the server learns the outcome
    std::int64_t seq = 0;  // dispatch order: the deterministic tie-break
    LocalTrainResult result;
  };

  // What one slot's attempt chain leaves for the serial fold and the
  // collection policy (recycled): one wire log entry per attempt, the
  // retries issued and the virtual time the server learns the outcome.
  struct AttemptLog {
    std::uint64_t wire_down = 0;
    std::uint64_t wire_up = 0;  // 0 unless uploaded
    bool uploaded = false;   // an upload frame crossed the wire
    bool timed_out = false;  // abandoned at the per-dispatch deadline
  };
  struct SlotRecord {
    std::vector<AttemptLog> attempts;
    double arrival = 0.0;
    int retries = 0;
  };

  // Resolves every slot's client and codec residual into client_slots_ /
  // residual_slots_ on the calling thread, before the fan-out, timed as
  // RoundPhase::kDispatch.
  void PinClientSlots(const std::vector<ClientJob>& jobs);

  // Deterministic fingerprint of (name, seed, K, N, model size, train
  // options); a checkpoint only restores into a matching configuration.
  std::uint64_t ConfigFingerprint() const;

  // End-of-round export: emits the structured round event (phase wall times,
  // accuracy, comm bytes, this round's fault increments) and folds the
  // CommTracker totals and cumulative FaultStats into the metrics registry
  // as gauges. Called from Run() only when a sink is active.
  void RecordRoundObservations(int round, std::int64_t round_start_us,
                               const FaultStats& faults_before,
                               const PrivacyStats& privacy_before,
                               bool evaluated, const EvalResult& eval,
                               double mean_client_loss);

  std::string name_;
  AlgorithmConfig config_;
  models::ModelFactory factory_;
  ModelPool pool_;  // replica pool shared by training jobs and evaluation
  ClientPopulation population_;  // resident clients or the virtual cache
  std::shared_ptr<data::Dataset> test_;
  std::int64_t model_size_;
  FlatParams initial_params_;  // factory init, captured once
  comm::ShapeTable shape_table_;  // per-tensor lengths, captured once
  std::uint64_t dispatch_wire_bytes_ = 0;  // identity-framed model size
  util::Rng rng_;
  CommTracker comm_;
  MetricsHistory history_;
  std::vector<LocalTrainResult> results_;  // recycled across TrainClients
  std::vector<WireScratch> wire_scratch_;  // per-slot, recycled
  // Per-client error-feedback residuals for the lossy codecs, keyed by
  // client id in a spillable store (untouched clients cost nothing). A
  // client trains at most once per TrainClients batch in every algorithm,
  // and entry pointers are resolved per slot before the parallel fan-out,
  // so parallel jobs touch disjoint, pinned entries.
  ClientStateStore residual_store_;
  // Per-slot pointers resolved on the coordinating thread each batch.
  std::vector<const FlClient*> client_slots_;
  std::vector<FlatParams*> residual_slots_;
  FlatParams state_scratch_;  // checkpoint copy-out scratch, recycled
  FlatParams agg_scratch_;   // robust-aggregator scratch, recycled
  FlatParams agg_column_;    // per-coordinate gather scratch, recycled
  FaultStats fault_stats_;
  PrivacyStats privacy_stats_;
  // Subsampled-Gaussian RDP ledger: one AccumulateRound per noised
  // aggregation event, at that event's actual sampling rate. Checkpointed,
  // so a resumed run's eps(delta) is bit-exact.
  privacy::RdpAccountant accountant_;
  // Masking-overlay cohort scratch, recycled: each member's index into
  // results_ (-1 = dropped member) and the upload pointers built from it.
  std::vector<const FlatParams*> mask_slots_;
  std::vector<int> mask_indices_;
  privacy::MaskScratch mask_scratch_;  // masked-sum buffers, recycled
  int completed_rounds_ = 0;
  std::string checkpoint_path_;  // autosave target; empty = disabled
  int checkpoint_every_ = 0;
  double round_loss_sum_ = 0.0;
  int round_loss_count_ = 0;
  double phase_ms_[kNumRoundPhases] = {};  // current round, reset by Run()
  // Virtual-clock event engine (fl/clock.h). inflight_ is a binary min-heap
  // over (arrival, seq) kept in std::push_heap/pop_heap array layout; the
  // checkpoint serialises the array verbatim, so a resumed heap pops in
  // exactly the original order.
  std::vector<PendingUpload> inflight_;
  std::vector<SlotRecord> records_;  // per-slot chain records, recycled
  double virtual_now_ = 0.0;
  std::int64_t model_version_ = 0;
  std::int64_t dispatch_seq_ = 0;
  // Current round's staleness tallies (async), reset by Run().
  double round_staleness_sum_ = 0.0;
  int round_staleness_count_ = 0;
  int round_staleness_max_ = 0;
};

}  // namespace fedcross::fl

#endif  // FEDCROSS_FL_ALGORITHM_H_
