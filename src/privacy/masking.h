#ifndef FEDCROSS_PRIVACY_MASKING_H_
#define FEDCROSS_PRIVACY_MASKING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fl/types.h"

namespace fedcross::privacy {

// ---------------------------------------------------------------------------
// Secure-aggregation-style pairwise masking (Bonawitz et al., simulated)
//
// Every pair (u, v) of cohort members shares a seed-derived mask vector
// m_uv; before uploading, member u adds sum_{v>u} m_uv - sum_{v<u} m_uv to
// its (fixed-point encoded) update. Each mask appears in the server sum
// once with each sign, so the pairwise terms cancel *exactly* — the server
// learns only the sum, never an individual update. Cancellation must be
// exact, which floats cannot promise, so masking operates in a fixed-point
// integer domain: updates are quantised to int64 at 2^fixed_point_bits
// scale and summed in wrapping uint64 arithmetic (mod 2^64), where
// +m then -m is identically zero.
//
// When a member drops mid-round its masks never reach the server, so every
// pair it shared with a survivor is left dangling in the sum. Recovery is
// the protocol's dropout path: the surviving peers reveal their pair seeds
// with the dropped member, the server regenerates those mask streams and
// subtracts them (8 bytes of seed per recovered pair cross the wire).
//
// This repository's clients are simulations sharing one address space, so
// masking here is a *protocol-faithful verification overlay*: the masked
// fixed-point sum is computed from exactly the uploads aggregation
// consumes (post-codec, post-screening — so masking composes with lossy
// compression, robust screening, and the async buffer), unmasked by
// cancellation + recovery, and checked bit-for-bit against the direct
// fixed-point sum. The float aggregation path is untouched, which is what
// makes masking-on runs bit-identical to masking-off runs by construction
// (the same observation-only contract the sync virtual clock keeps).
// ---------------------------------------------------------------------------

struct MaskOptions {
  bool enabled = false;
  // Fractional bits of the fixed-point encoding: values are quantised to
  // round(x * 2^bits) in int64. 20 bits keeps |x| < 2^42 exact enough for
  // any trained model while leaving 4 million quantisation steps per unit.
  int fixed_point_bits = 20;

  bool Enabled() const { return enabled; }
};

// Seeds the pairwise mask stream shared by cohort members u < v (positions
// within the dispatch cohort, so one client sampled twice in an async
// buffer holds distinct pair seeds per dispatch). Tagged differently from
// every other stream derivation.
std::uint64_t PairSeed(std::uint64_t seed, int round, int salt, int member_u,
                       int member_v);

// What one masked aggregation did; folded into privacy stats, round events
// and comm accounting by the caller.
struct MaskedSumReport {
  std::int64_t cohort = 0;     // dispatched members (uploads.size())
  std::int64_t survivors = 0;  // members whose upload entered the sum
  std::int64_t pairs = 0;      // pairwise masks applied by >= 1 member
  std::int64_t recovered_pairs = 0;  // dangling masks rebuilt from seeds
  // Wire cost of recovery: 8 bytes per revealed pair seed.
  std::uint64_t recovery_seed_bytes = 0;
  // The unmasked total matched the direct fixed-point sum bit-for-bit.
  bool exact = false;
};

// The buffers one masked aggregation works in. A caller that masks every
// round keeps one and passes it back, so the overlay allocates only when a
// cohort outgrows every earlier one.
struct MaskScratch {
  struct Pair {
    int lower = 0;  // cohort positions, lower < higher
    int higher = 0;
    bool lower_alive = false;  // the member's upload entered the sum
    bool higher_alive = false;
  };
  std::vector<std::uint64_t> direct;  // direct fixed-point sum
  std::vector<std::uint64_t> masked;  // masked server sum
  std::vector<Pair> pairs;            // every pair with an uploading member
  std::vector<Pair> dangling;         // pairs with exactly one
};

// Runs one masked aggregation over a dispatch cohort. `uploads[m]` is
// member m's decoded upload as aggregation would consume it, or nullptr if
// the member dropped / timed out / was screened away (its masks are then
// recovered). All non-null uploads must be equal length. Deterministic in
// (run_seed, round, salt, cohort contents) — thread counts never touch it.
MaskedSumReport SimulateMaskedAggregation(
    std::uint64_t run_seed, int round, int salt,
    const std::vector<const fl::FlatParams*>& uploads,
    const MaskOptions& options, MaskScratch& scratch);
// The same with buffers of its own, allocated per call.
MaskedSumReport SimulateMaskedAggregation(
    std::uint64_t run_seed, int round, int salt,
    const std::vector<const fl::FlatParams*>& uploads,
    const MaskOptions& options);

// Fixed-point encoding of one float at 2^bits scale, exposed for tests:
// non-finite values (a corrupted upload the screener was disabled for)
// encode as 0, and the scaled magnitude saturates at +/-2^62 so llround
// stays in-domain. Wrapping uint64 domain.
std::uint64_t FixedPointEncode(float value, int bits);

// sums[i] += FixedPointEncode(values[i], bits) for i in [0, n), mod 2^64:
// the block-vectorised encode the masked sum runs, equal to the scalar one
// for every float.
void FixedPointEncodeAccumulate(const float* values, std::size_t n, int bits,
                                std::uint64_t* sums);

}  // namespace fedcross::privacy

#endif  // FEDCROSS_PRIVACY_MASKING_H_
