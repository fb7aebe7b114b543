#ifndef FEDCROSS_PRIVACY_DP_H_
#define FEDCROSS_PRIVACY_DP_H_

#include <cstdint>

#include "fl/types.h"
#include "util/rng.h"

namespace fedcross::privacy {

// ---------------------------------------------------------------------------
// Client-side differential privacy: clip-and-noise on the model update
//
// Paper Section IV-F1 notes that FedCross composes with the standard DP
// mechanisms used for FedAvg, since its dispatch/upload pattern is
// identical. The mechanism applied to every upload is the classic DP-SGD
// sanitisation of the model *update*:
//
//   delta  = uploaded - reference            (what local training changed)
//   delta' = delta * min(1, clip / ||delta||)
//   upload = reference + delta' + N(0, (noise_multiplier * clip)^2 I)
//
// Noise is drawn from a dedicated per-(seed, round, salt, slot) privacy
// stream (PrivacySeed below) — never from the stream that drives local
// training — so enabling DP cannot perturb batch shuffling, and DP-enabled
// runs stay bit-identical across --fl_threads values and schedules (the
// same invariant the fault and codec streams uphold).
// ---------------------------------------------------------------------------

struct DpOptions {
  // L2 clipping bound on the update. <= 0 disables the mechanism entirely.
  float clip_norm = 0.0f;
  // Noise scale relative to the clipping bound: sigma = noise_multiplier *
  // clip_norm per coordinate. 0 = clip only (no formal guarantee).
  float noise_multiplier = 0.0f;
  // Privacy slack the accountant converts Renyi guarantees at; the epsilon
  // surfaced in round events and gauges is eps(delta).
  double delta = 1e-5;

  bool Enabled() const { return clip_norm > 0.0f; }
  // True when the mechanism actually carries a differential-privacy
  // guarantee (noise on top of the clip).
  bool Noised() const { return Enabled() && noise_multiplier > 0.0f; }
};

// Seeds the dedicated privacy-noise stream of one client job. Tagged
// differently from the training / fault / codec / clock derivations so the
// streams never collide.
std::uint64_t PrivacySeed(std::uint64_t seed, int round, int salt, int slot);

// Sanitises `params` (the uploaded model) against `reference` (the
// dispatched model) in place. Returns true when the update exceeded the
// clipping bound and was scaled down. No-op returning false when the
// mechanism is disabled.
bool SanitizeUpdateInPlace(const fl::FlatParams& reference,
                           fl::FlatParams& params, const DpOptions& options,
                           util::Rng& rng);

// L2 norm of (uploaded - reference); exposed for tests and diagnostics.
double UpdateNorm(const fl::FlatParams& reference,
                  const fl::FlatParams& uploaded);

// Classic Gaussian-mechanism bound: per-round epsilon for a given noise
// multiplier at privacy slack delta (sigma = sqrt(2 ln(1.25/delta)) / eps).
// A loose single-shot figure for documentation; the RDP accountant
// (privacy/accountant.h) is the tight multi-round ledger.
double GaussianMechanismEpsilon(double noise_multiplier, double delta);

}  // namespace fedcross::privacy

#endif  // FEDCROSS_PRIVACY_DP_H_
