#ifndef FEDCROSS_FL_FAULTS_H_
#define FEDCROSS_FL_FAULTS_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "fl/types.h"
#include "util/rng.h"
#include "util/status.h"

namespace fedcross::fl {

// ---------------------------------------------------------------------------
// Client fault model
//
// Every fault decision is drawn from a *dedicated* fault RNG stream seeded
// by (run seed, round, salt, slot) — never from the stream that drives local
// training. Consequences:
//   * enabling a fault profile cannot perturb the training trajectory of
//     clients that do not fault (a never-firing profile is bit-identical to
//     a disabled one), and
//   * fault draws are a pure function of the job slot, so runs stay
//     bit-identical across thread counts and schedules.
// ---------------------------------------------------------------------------

// How a corrupted client mangles its upload before sending it.
enum class CorruptionKind {
  kNanInject,       // poisons corrupt_coords coordinates with NaN
  kInfInject,       // poisons corrupt_coords coordinates with +/-Inf
  kExplodingNorm,   // scales the local update by corruption_scale
  kSignFlip,        // Byzantine: uploads reference - scale * update
};

const char* CorruptionKindName(CorruptionKind kind);
util::StatusOr<CorruptionKind> ParseCorruptionKind(const std::string& name);

// Per-client fault behaviour. All probabilities are per round.
struct FaultProfile {
  // Pre-upload dropout: the device receives the model but never uploads.
  double dropout_prob = 0.0;

  // Straggler: the device's (simulated) training time is multiplied by a
  // factor drawn uniformly from [slowdown_min, slowdown_max]. If the
  // resulting time exceeds FaultModel::round_deadline the upload misses the
  // round and the server treats the client exactly like a dropout.
  double straggler_prob = 0.0;
  double slowdown_min = 2.0;
  double slowdown_max = 8.0;

  // Corrupted upload: the device trains normally but uploads a mangled
  // model (bit flips, overflow bugs, or a Byzantine participant).
  double corrupt_prob = 0.0;
  CorruptionKind corruption = CorruptionKind::kNanInject;
  float corruption_scale = 1e6f;  // exploding-norm / sign-flip magnitude
  int corrupt_coords = 4;         // coordinates poisoned by NaN/Inf inject

  // True if any fault can fire under this profile.
  bool Active() const {
    return dropout_prob > 0.0 || straggler_prob > 0.0 || corrupt_prob > 0.0;
  }
};

// The run-wide fault model: a default profile, optional per-client
// overrides, and the server-side round deadline the stragglers race.
struct FaultModel {
  FaultProfile profile;  // applies to every client without an override
  // Keyed by client id; 64-bit so overrides address million-client virtual
  // populations.
  std::unordered_map<std::int64_t, FaultProfile> overrides;

  // Simulated per-round time budget (a fault-free client takes 1.0). A
  // straggler whose drawn slowdown exceeds the deadline misses the round.
  // <= 0 disables the deadline (stragglers are then harmless).
  double round_deadline = 0.0;

  // Over-provisioned selection: the server dispatches to K + over_provision
  // clients so the round still aggregates ~K uploads under faults. Applies
  // to the algorithms that sample through FlAlgorithm::SampleClients
  // (FedAvg, FedProx, SCAFFOLD, FedGen); FedCross pins one client per
  // middleware model and the cluster-driven samplers pick per cluster.
  int over_provision = 0;

  const FaultProfile& ProfileFor(std::int64_t client_id) const {
    auto it = overrides.find(client_id);
    return it == overrides.end() ? profile : it->second;
  }

  bool AnyActive() const;
};

// InvalidArgument, naming the offending field first, when the model cannot
// mean what it says: a dropout, straggler or corruption probability that is
// not finite or not in [0, 1], a slowdown_min below 1, a slowdown_max below
// slowdown_min, either one non-finite, or a non-finite round_deadline. An
// error in a per-client override also names the client id (the lowest one
// when several are invalid).
util::Status ValidateFaultModel(const FaultModel& model);

// What actually happened to one client job this round.
enum class FaultKind {
  kNone = 0,
  kDropout,    // never uploaded (Bernoulli device failure)
  kStraggler,  // trained too slowly, missed the round deadline
  kCorrupted,  // uploaded a mangled model
  kRejected,   // upload screened out server-side (degrades like a dropout)
};

const char* FaultKindName(FaultKind kind);

// Seeds the dedicated fault stream of one client job. Tagged differently
// from the training-stream derivation so the two never collide.
std::uint64_t FaultSeed(std::uint64_t seed, int round, int salt, int slot);

// The fault draws for one client job, in a fixed consumption order
// (dropout, straggler trigger, slowdown, corruption trigger).
struct FaultDecision {
  bool dropped = false;    // pre-upload dropout fired
  bool timed_out = false;  // straggler missed the round deadline
  bool corrupt = false;    // upload will be mangled
  double duration = 1.0;   // simulated training time factor
};

FaultDecision DrawFaults(const FaultProfile& profile, double round_deadline,
                         util::Rng& fault_rng);

// Applies the profile's corruption to `params` in place. `reference` is the
// dispatched model (the corruption target for update-space attacks);
// poisoned coordinates are drawn from the fault stream.
void CorruptUpload(const FaultProfile& profile, const FlatParams& reference,
                   FlatParams& params, util::Rng& fault_rng);

// ---------------------------------------------------------------------------
// Server-side upload screening
// ---------------------------------------------------------------------------

// Cheap gate the server runs on every upload before aggregation. A rejected
// upload degrades exactly like a dropout: the client's contribution is
// discarded and (for FedCross) the server keeps its dispatched middleware
// copy. Disabled by default so the clean path is byte-for-byte unchanged.
struct ScreeningOptions {
  bool check_finite = false;     // reject any NaN/Inf coordinate
  float max_update_norm = 0.0f;  // reject ||upload - dispatched|| > gate; <=0 off

  bool Enabled() const { return check_finite || max_update_norm > 0.0f; }
};

// OK if the upload passes; InvalidArgument (non-finite) or OutOfRange
// (norm gate) with a diagnostic otherwise.
util::Status ScreenUpload(const FlatParams& reference, const FlatParams& upload,
                          const ScreeningOptions& options);

// Cumulative per-run fault accounting, kept by FlAlgorithm.
struct FaultStats {
  std::int64_t dropouts = 0;
  std::int64_t stragglers = 0;
  std::int64_t corrupted = 0;  // mangled uploads (whether or not screened)
  std::int64_t rejected = 0;   // uploads discarded by server screening
  // Async-engine accounting (always 0 in sync mode): dispatches abandoned
  // at the per-dispatch deadline, and re-dispatches issued for them.
  std::int64_t timeouts = 0;
  std::int64_t retries = 0;
};

}  // namespace fedcross::fl

#endif  // FEDCROSS_FL_FAULTS_H_
