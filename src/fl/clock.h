#ifndef FEDCROSS_FL_CLOCK_H_
#define FEDCROSS_FL_CLOCK_H_

#include <cstdint>
#include <limits>
#include <string>

#include "fl/types.h"
#include "util/rng.h"
#include "util/status.h"

namespace fedcross::fl {

// ---------------------------------------------------------------------------
// Deterministic virtual clock
//
// The engine simulates wall time instead of measuring it: every dispatched
// client job gets a simulated duration
//
//   duration = wire_bytes_down / bandwidth
//            + slowdown * sgd_steps / compute_speed * jitter
//            + wire_bytes_up / bandwidth
//
// where (compute_speed, bandwidth) are a per-client hardware profile drawn
// as a pure function of (run seed, client id), slowdown is the straggler
// factor from the fault stream, the wire byte counts are the real framed
// codec sizes, and jitter comes from a dedicated ClockSeed(seed, round,
// salt, slot) stream. Nothing here reads a real clock, so virtual time is
// bit-identical across --fl_threads values and across reruns — and because
// the clock stream is independent of the training / fault / codec streams,
// enabling the clock cannot perturb a single training trajectory.
// ---------------------------------------------------------------------------

// How rounds advance (see FlAlgorithm::Run).
//   kSync:  the historical lock-step barrier — every sampled client reports
//           before aggregation; the virtual clock only observes the round
//           makespan (max over slots). Bit-identical to pre-engine builds.
//   kAsync: buffered FedBuff-style aggregation — the server aggregates as
//           soon as `buffer_size` uploads land, weighting each by its
//           staleness, and re-dispatches every slot against the newest
//           model version.
enum class RoundMode { kSync = 0, kAsync };

const char* RoundModeName(RoundMode mode);
bool ParseRoundMode(const std::string& name, RoundMode* mode);

// Down-weighting of stale uploads in async mode, as a function of the
// staleness tau = aggregations since the upload's model version was
// dispatched (tau = 0 for a fresh upload).
//   kConstant:   weight 1 regardless of tau (plain FedBuff averaging).
//   kPolynomial: weight (1 + tau)^-exponent (FedBuff's recommended family).
enum class StalenessPolicy { kConstant = 0, kPolynomial };

const char* StalenessPolicyName(StalenessPolicy policy);
bool ParseStalenessPolicy(const std::string& name, StalenessPolicy* policy);

// Weight multiplier for an upload of staleness `tau` (exactly 1.0 at
// tau = 0 under both policies, so fresh uploads aggregate unscaled).
double StalenessWeight(StalenessPolicy policy, double exponent, int tau);

// The population's hardware-heterogeneity model. Speeds are SGD steps per
// virtual second; bandwidths are wire bytes per virtual second. Both are
// drawn log-uniformly over [min, max] per client, so the defaults (min ==
// max) give a homogeneous fleet whose rounds take unit-scale virtual time
// and whose comm time is negligible.
struct ClockModel {
  double compute_speed_min = 100.0;
  double compute_speed_max = 100.0;
  double bandwidth_min = 1e9;
  double bandwidth_max = 1e9;
  // Per-dispatch multiplicative compute jitter: the drawn factor is uniform
  // in [1, 1 + jitter]. 0 disables (and draws nothing from the stream).
  double jitter = 0.0;

  bool Heterogeneous() const {
    return compute_speed_min != compute_speed_max ||
           bandwidth_min != bandwidth_max || jitter > 0.0;
  }
};

// One client's drawn hardware profile.
struct ClockProfile {
  double compute_speed = 100.0;  // SGD steps per virtual second
  double bandwidth = 1e9;        // wire bytes per virtual second
};

// Draws the client's profile as a pure function of (seed, client_id):
// stable across rounds, reruns and thread counts, and independent of every
// other RNG stream.
ClockProfile DrawClockProfile(const ClockModel& model, std::uint64_t seed,
                              std::int64_t client_id);

// Seeds the per-dispatch clock-jitter stream. Tagged differently from the
// training / fault / codec derivations so the streams never collide.
std::uint64_t ClockSeed(std::uint64_t seed, int round, int salt, int slot);

// Simulated duration of one completed dispatch: comm both ways at the
// client's bandwidth plus `slowdown * steps` work at its compute speed,
// with `jitter_factor` multiplying the compute term only.
double SimulatedDuration(const ClockProfile& profile, double slowdown,
                         double steps, std::uint64_t wire_bytes_down,
                         std::uint64_t wire_bytes_up, double jitter_factor);

// Configuration of the buffered-async engine (AlgorithmConfig::async).
struct AsyncOptions {
  RoundMode mode = RoundMode::kSync;

  // Uploads to buffer before aggregating. 0 = this round's dispatch count
  // (so a fault-free async round aggregates the same K uploads sync does).
  int buffer_size = 0;

  StalenessPolicy staleness = StalenessPolicy::kPolynomial;
  double staleness_exponent = 0.5;

  // Per-dispatch deadline in virtual seconds. A dispatch whose simulated
  // duration exceeds it is abandoned at the deadline and the slot is
  // re-dispatched (against the same round's model) up to max_retries
  // times; the abandoned attempt's bytes count as wasted. <= 0 waits
  // forever (stragglers land late instead of timing out).
  double dispatch_timeout = 0.0;
  int max_retries = 1;

  ClockModel clock;
};

// Salt stride between retry attempts of one slot: attempt k draws its
// streams from salt + k * kRetrySaltStride. Every in-round salt is tiny
// (FedCluster uses salt = cluster step < K), so no retry stream can collide
// with another job's.
inline constexpr int kRetrySaltStride = 1 << 16;

// The largest max_retries (32767) whose attempt salts fit an int for every
// in-round salt below kRetrySaltStride.
inline constexpr int kMaxRetries =
    (std::numeric_limits<int>::max() - (kRetrySaltStride - 1)) /
    kRetrySaltStride;

// InvalidArgument, naming the offending field first, when the options
// cannot mean what they say: max_retries outside [0, kMaxRetries], a
// negative buffer_size, a compute-speed or bandwidth range that is not
// finite, positive and ordered, or a negative jitter. dispatch_timeout
// <= 0 is valid: it means no timeout.
util::Status ValidateAsyncOptions(const AsyncOptions& options);

}  // namespace fedcross::fl

#endif  // FEDCROSS_FL_CLOCK_H_
