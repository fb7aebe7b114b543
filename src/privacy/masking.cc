#include "privacy/masking.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/check.h"
#include "util/rng.h"

namespace fedcross::privacy {
namespace {

std::uint64_t MixSeed(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t PairSeed(std::uint64_t seed, int round, int salt, int member_u,
                       int member_v) {
  FC_CHECK_LT(member_u, member_v);
  std::uint64_t h = MixSeed(seed ^ 0x7061697273656564ULL);  // "pairseed"
  h = MixSeed(h + static_cast<std::uint64_t>(round));
  h = MixSeed(h + static_cast<std::uint64_t>(salt));
  h = MixSeed(h + static_cast<std::uint64_t>(member_u));
  return MixSeed(h + static_cast<std::uint64_t>(member_v));
}

std::uint64_t FixedPointEncode(float value, int bits) {
  if (!std::isfinite(value)) return 0;
  double scaled = static_cast<double>(value) * std::ldexp(1.0, bits);
  constexpr double kSat = 4611686018427387904.0;  // 2^62
  if (scaled > kSat) scaled = kSat;
  if (scaled < -kSat) scaled = -kSat;
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(
      std::llround(scaled)));
}

namespace {

constexpr int kLanes = 8;
typedef float Float8 __attribute__((vector_size(kLanes * sizeof(float))));
typedef double Double8 __attribute__((vector_size(kLanes * sizeof(double))));
typedef std::int64_t Int8
    __attribute__((vector_size(kLanes * sizeof(std::int64_t))));
typedef std::uint64_t Word8
    __attribute__((vector_size(kLanes * sizeof(std::uint64_t))));

}  // namespace

void FixedPointEncodeAccumulate(const float* values, std::size_t n, int bits,
                                std::uint64_t* sums) {
  const double scale = std::ldexp(1.0, bits);
  std::size_t i = 0;
  // An infinite scale turns 0 into NaN, which llround and the vector
  // conversion need not agree on; no sane bit count gets there.
  if (std::isfinite(scale)) {
    constexpr double kSat = 4611686018427387904.0;  // 2^62
    for (; i + kLanes <= n; i += kLanes) {
      Float8 f = {};
      std::memcpy(&f, values + i, sizeof(f));
      const Double8 x = __builtin_convertvector(f, Double8);
      // Widening and the power-of-two scale are FixedPointEncode's exact
      // steps; x - x is 0 exactly for finite x and NaN otherwise.
      const Int8 finite = (x - x) == 0.0;
      Double8 scaled = x * scale;
      scaled = scaled > kSat ? kSat : scaled;
      scaled = scaled < -kSat ? -kSat : scaled;
      scaled = finite ? scaled : 0.0;
      // llround: truncate, then step away from zero on a fraction of at
      // least one half. |scaled| <= 2^62, so the conversion is in range,
      // converting back is exact, and so is the fraction.
      Int8 rounded = __builtin_convertvector(scaled, Int8);
      const Double8 frac = scaled - __builtin_convertvector(rounded, Double8);
      rounded -= frac >= 0.5;  // a true comparison is -1
      rounded += frac <= -0.5;
      Word8 sum = {};
      std::memcpy(&sum, sums + i, sizeof(sum));
      sum += __builtin_convertvector(rounded, Word8);
      std::memcpy(sums + i, &sum, sizeof(sum));
    }
  }
  for (; i < n; ++i) sums[i] += FixedPointEncode(values[i], bits);
}

namespace {

using Pair = MaskScratch::Pair;

// One xoshiro256** step per lane, applied as the pair's mask terms: the
// lower member adds the draw if it uploaded, the higher member subtracts it
// if it uploaded. The step is util::Rng::NextUint64 with its multiplies by
// 5 and 9 spelled as shift-adds, so lane j draws the scalar stream of its
// seed. (Vectors pass by reference throughout: a by-value vector changes
// the calling convention between SIMD tiers.)
inline void NextTerms(Word8 (&s)[4], const Word8& lower, const Word8& higher,
                      Word8& term) {
  const Word8 times5 = (s[1] << 2) + s[1];
  const Word8 rotated = (times5 << 7) | (times5 >> 57);
  const Word8 draw = (rotated << 3) + rotated;
  const Word8 t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = (s[3] << 45) | (s[3] >> 19);
  term = (draw & lower) - (draw & higher);
}

// sum[k] = the sum of the lanes of terms[k]: an 8x8 transpose folded into
// the adds.
inline void TransposeSum(const Word8 (&terms)[kLanes], Word8& sum) {
  Word8 half[4];
  for (int k = 0; k < 4; ++k) {
    const Word8& a = terms[2 * k];
    const Word8& b = terms[2 * k + 1];
    half[k] = __builtin_shuffle(a, b, Word8{0, 8, 2, 10, 4, 12, 6, 14}) +
              __builtin_shuffle(a, b, Word8{1, 9, 3, 11, 5, 13, 7, 15});
  }
  Word8 quarter[2];
  for (int k = 0; k < 2; ++k) {
    const Word8& a = half[2 * k];
    const Word8& b = half[2 * k + 1];
    quarter[k] = __builtin_shuffle(a, b, Word8{0, 1, 8, 9, 4, 5, 12, 13}) +
                 __builtin_shuffle(a, b, Word8{2, 3, 10, 11, 6, 7, 14, 15});
  }
  sum = __builtin_shuffle(quarter[0], quarter[1],
                          Word8{0, 1, 2, 3, 8, 9, 10, 11}) +
        __builtin_shuffle(quarter[0], quarter[1],
                          Word8{4, 5, 6, 7, 12, 13, 14, 15});
}

// Applies the mask terms of up to kLanes pairs to masked[0, size), one pair
// stream per lane: the lower member adds its mask if it uploaded, the higher
// member subtracts it if it uploaded. `recover` subtracts the terms instead
// (the server rebuilding dangling masks from revealed seeds).
void ApplyPairLanes(std::uint64_t run_seed, int round, int salt,
                    const Pair* pairs, int count, bool recover,
                    std::size_t size, std::uint64_t* masked) {
  Word8 s[4] = {};
  Word8 lower = {};
  Word8 higher = {};
  for (int j = 0; j < count; ++j) {
    const Pair& pair = pairs[j];
    const util::Rng::State state =
        util::Rng(PairSeed(run_seed, round, salt, pair.lower, pair.higher))
            .GetState();
    for (int w = 0; w < 4; ++w) s[w][j] = state.words[w];
    lower[j] = pair.lower_alive ? ~std::uint64_t{0} : 0;
    higher[j] = pair.higher_alive ? ~std::uint64_t{0} : 0;
  }
  // Idle lanes keep an all-zero state and both masks clear: they add 0.
  Word8 terms[kLanes] = {};
  std::size_t i = 0;
  for (; i + kLanes <= size; i += kLanes) {
    for (int k = 0; k < kLanes; ++k) NextTerms(s, lower, higher, terms[k]);
    Word8 step = {};
    TransposeSum(terms, step);
    Word8 sum = {};
    std::memcpy(&sum, masked + i, sizeof(sum));
    sum = recover ? sum - step : sum + step;
    std::memcpy(masked + i, &sum, sizeof(sum));
  }
  for (; i < size; ++i) {
    NextTerms(s, lower, higher, terms[0]);
    std::uint64_t step = 0;
    for (int j = 0; j < kLanes; ++j) step += terms[0][j];
    masked[i] = recover ? masked[i] - step : masked[i] + step;
  }
}

void ApplyPairs(std::uint64_t run_seed, int round, int salt,
                const std::vector<Pair>& pairs, bool recover,
                std::size_t size, std::uint64_t* masked) {
  const int total = static_cast<int>(pairs.size());
  for (int first = 0; first < total; first += kLanes) {
    ApplyPairLanes(run_seed, round, salt, pairs.data() + first,
                   std::min(kLanes, total - first), recover, size, masked);
  }
}

}  // namespace

MaskedSumReport SimulateMaskedAggregation(
    std::uint64_t run_seed, int round, int salt,
    const std::vector<const fl::FlatParams*>& uploads,
    const MaskOptions& options, MaskScratch& scratch) {
  MaskedSumReport report;
  report.cohort = static_cast<std::int64_t>(uploads.size());
  std::size_t size = 0;
  for (const fl::FlatParams* upload : uploads) {
    if (upload == nullptr) continue;
    ++report.survivors;
    if (size == 0) {
      size = upload->size();
    } else {
      FC_CHECK_EQ(upload->size(), size);
    }
  }
  if (report.survivors == 0) {
    report.exact = true;  // an empty sum needs no unmasking
    return report;
  }

  // The direct fixed-point sum — the value the unmasked total must equal.
  std::vector<std::uint64_t>& direct = scratch.direct;
  direct.assign(size, 0);
  for (const fl::FlatParams* upload : uploads) {
    if (upload == nullptr) continue;
    FixedPointEncodeAccumulate(upload->data(), size,
                               options.fixed_point_bits, direct.data());
  }

  // The masked server sum: every survivor contributes its quantised upload
  // plus its signed pairwise masks (lower member adds, higher subtracts).
  // Each endpoint's term is applied on its own, so a pair of survivors
  // contributes +m and -m, cancelling in mod-2^64 arithmetic; a
  // survivor-dropout pair leaves its mask dangling and is queued for
  // recovery. Sums mod 2^64 do not depend on order, so the pair streams
  // run side by side, one per SIMD lane.
  std::vector<std::uint64_t>& masked = scratch.masked;
  masked.assign(direct.begin(), direct.end());
  const int members = static_cast<int>(uploads.size());
  scratch.pairs.clear();
  scratch.dangling.clear();
  for (int u = 0; u < members; ++u) {
    for (int v = u + 1; v < members; ++v) {
      const Pair pair{u, v, uploads[u] != nullptr, uploads[v] != nullptr};
      if (!pair.lower_alive && !pair.higher_alive) {
        continue;  // no endpoint uploaded a mask
      }
      scratch.pairs.push_back(pair);
      if (pair.lower_alive != pair.higher_alive) {
        scratch.dangling.push_back(pair);
      }
    }
  }
  report.pairs = static_cast<std::int64_t>(scratch.pairs.size());
  ApplyPairs(run_seed, round, salt, scratch.pairs, /*recover=*/false, size,
             masked.data());

  // Dropout recovery: the surviving peer reveals the pair seed (8 wire
  // bytes), the server regenerates the stream and subtracts the dangling
  // term.
  ApplyPairs(run_seed, round, salt, scratch.dangling, /*recover=*/true, size,
             masked.data());
  report.recovered_pairs = static_cast<std::int64_t>(scratch.dangling.size());
  report.recovery_seed_bytes =
      scratch.dangling.size() * sizeof(std::uint64_t);

  report.exact = masked == direct;
  return report;
}

MaskedSumReport SimulateMaskedAggregation(
    std::uint64_t run_seed, int round, int salt,
    const std::vector<const fl::FlatParams*>& uploads,
    const MaskOptions& options) {
  MaskScratch scratch;
  return SimulateMaskedAggregation(run_seed, round, salt, uploads, options,
                                   scratch);
}

}  // namespace fedcross::privacy
