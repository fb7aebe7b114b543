#include "privacy/dp.h"

#include <cmath>

#include "util/check.h"

namespace fedcross::privacy {
namespace {

// SplitMix64 finalizer: bijective avalanche mix (the same derivation the
// training / fault / codec seed chains use, under a distinct tag).
std::uint64_t MixSeed(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t PrivacySeed(std::uint64_t seed, int round, int salt, int slot) {
  std::uint64_t h = MixSeed(seed ^ 0x70726976616379ULL);  // "privacy"
  h = MixSeed(h + static_cast<std::uint64_t>(round));
  h = MixSeed(h + static_cast<std::uint64_t>(salt));
  return MixSeed(h + static_cast<std::uint64_t>(slot));
}

double UpdateNorm(const fl::FlatParams& reference,
                  const fl::FlatParams& uploaded) {
  FC_CHECK_EQ(reference.size(), uploaded.size());
  double total = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    double d = static_cast<double>(uploaded[i]) - reference[i];
    total += d * d;
  }
  return std::sqrt(total);
}

bool SanitizeUpdateInPlace(const fl::FlatParams& reference,
                           fl::FlatParams& params, const DpOptions& options,
                           util::Rng& rng) {
  FC_CHECK_EQ(reference.size(), params.size());
  if (!options.Enabled()) return false;

  double norm = UpdateNorm(reference, params);
  const bool clipped = norm > options.clip_norm && norm > 0.0;
  double scale = clipped ? options.clip_norm / norm : 1.0;
  double sigma =
      static_cast<double>(options.noise_multiplier) * options.clip_norm;

  for (std::size_t i = 0; i < reference.size(); ++i) {
    double delta = (static_cast<double>(params[i]) - reference[i]) * scale;
    if (sigma > 0.0) delta += rng.Normal(0.0, sigma);
    params[i] = static_cast<float>(reference[i] + delta);
  }
  return clipped;
}

double GaussianMechanismEpsilon(double noise_multiplier, double delta) {
  FC_CHECK_GT(noise_multiplier, 0.0);
  FC_CHECK_GT(delta, 0.0);
  FC_CHECK_LT(delta, 1.0);
  return std::sqrt(2.0 * std::log(1.25 / delta)) / noise_multiplier;
}

}  // namespace fedcross::privacy
