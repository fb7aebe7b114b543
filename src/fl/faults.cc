#include "fl/faults.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

namespace fedcross::fl {
namespace {

// SplitMix64 finalizer (same bijective mix the training-stream derivation
// uses; the streams differ by their domain tag, not the mixer).
std::uint64_t MixSeed(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* CorruptionKindName(CorruptionKind kind) {
  switch (kind) {
    case CorruptionKind::kNanInject:
      return "nan";
    case CorruptionKind::kInfInject:
      return "inf";
    case CorruptionKind::kExplodingNorm:
      return "exploding";
    case CorruptionKind::kSignFlip:
      return "sign-flip";
  }
  return "unknown";
}

util::StatusOr<CorruptionKind> ParseCorruptionKind(const std::string& name) {
  if (name == "nan") return CorruptionKind::kNanInject;
  if (name == "inf") return CorruptionKind::kInfInject;
  if (name == "exploding" || name == "exploding-norm") {
    return CorruptionKind::kExplodingNorm;
  }
  if (name == "sign-flip" || name == "byzantine") {
    return CorruptionKind::kSignFlip;
  }
  return util::Status::InvalidArgument("unknown corruption kind: " + name);
}

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kDropout:
      return "dropout";
    case FaultKind::kStraggler:
      return "straggler";
    case FaultKind::kCorrupted:
      return "corrupted";
    case FaultKind::kRejected:
      return "rejected";
  }
  return "unknown";
}

bool FaultModel::AnyActive() const {
  if (profile.Active()) return true;
  for (const auto& [id, override_profile] : overrides) {
    (void)id;
    if (override_profile.Active()) return true;
  }
  return false;
}

util::Status ValidateFaultModel(const FaultModel& model) {
  auto num = [](double value) {
    char text[32];
    std::snprintf(text, sizeof(text), "%g", value);
    return std::string(text);
  };
  auto validate = [&](const FaultProfile& profile, const std::string& where) {
    auto invalid = [&](const char* field, const std::string& what) {
      return util::Status::InvalidArgument(std::string(field) + " " + what +
                                           where);
    };
    const struct {
      const char* field;
      double prob;
    } probs[] = {{"dropout_prob", profile.dropout_prob},
                 {"straggler_prob", profile.straggler_prob},
                 {"corrupt_prob", profile.corrupt_prob}};
    for (const auto& [field, prob] : probs) {
      if (!(prob >= 0.0 && prob <= 1.0)) {  // NaN fails both
        return invalid(field, num(prob) + " is outside [0, 1]");
      }
    }
    if (!(std::isfinite(profile.slowdown_min) && profile.slowdown_min >= 1.0)) {
      return invalid("slowdown_min",
                     num(profile.slowdown_min) + " is not finite and >= 1");
    }
    if (!(std::isfinite(profile.slowdown_max) &&
          profile.slowdown_max >= profile.slowdown_min)) {
      return invalid("slowdown_max", num(profile.slowdown_max) +
                                         " is not finite and >= slowdown_min " +
                                         num(profile.slowdown_min));
    }
    return util::Status::Ok();
  };
  if (!std::isfinite(model.round_deadline)) {
    return util::Status::InvalidArgument(
        "round_deadline " + num(model.round_deadline) + " is not finite");
  }
  FC_RETURN_IF_ERROR(validate(model.profile, ""));
  std::vector<std::int64_t> ids;
  for (const auto& entry : model.overrides) ids.push_back(entry.first);
  std::sort(ids.begin(), ids.end());
  for (std::int64_t id : ids) {
    FC_RETURN_IF_ERROR(validate(model.overrides.at(id),
                                " (client " + std::to_string(id) + ")"));
  }
  return util::Status::Ok();
}

std::uint64_t FaultSeed(std::uint64_t seed, int round, int salt, int slot) {
  std::uint64_t h = MixSeed(seed ^ 0x6661756c74ULL);  // "fault"
  h = MixSeed(h + static_cast<std::uint64_t>(round));
  h = MixSeed(h + static_cast<std::uint64_t>(salt));
  return MixSeed(h + static_cast<std::uint64_t>(slot));
}

FaultDecision DrawFaults(const FaultProfile& profile, double round_deadline,
                         util::Rng& fault_rng) {
  FaultDecision decision;
  if (profile.dropout_prob > 0.0 &&
      fault_rng.Uniform() < profile.dropout_prob) {
    decision.dropped = true;
    return decision;  // the device is gone; nothing else can happen to it
  }
  if (profile.straggler_prob > 0.0 &&
      fault_rng.Uniform() < profile.straggler_prob) {
    FC_CHECK_GE(profile.slowdown_min, 1.0);
    FC_CHECK_GE(profile.slowdown_max, profile.slowdown_min);
    decision.duration = profile.slowdown_max > profile.slowdown_min
                            ? fault_rng.Uniform(profile.slowdown_min,
                                                profile.slowdown_max)
                            : profile.slowdown_min;
    decision.timed_out =
        round_deadline > 0.0 && decision.duration > round_deadline;
    if (decision.timed_out) return decision;  // the upload misses the round
  }
  if (profile.corrupt_prob > 0.0 &&
      fault_rng.Uniform() < profile.corrupt_prob) {
    decision.corrupt = true;
  }
  return decision;
}

void CorruptUpload(const FaultProfile& profile, const FlatParams& reference,
                   FlatParams& params, util::Rng& fault_rng) {
  FC_CHECK_EQ(reference.size(), params.size());
  if (params.empty()) return;
  switch (profile.corruption) {
    case CorruptionKind::kNanInject:
    case CorruptionKind::kInfInject: {
      float poison = profile.corruption == CorruptionKind::kNanInject
                         ? std::numeric_limits<float>::quiet_NaN()
                         : std::numeric_limits<float>::infinity();
      int coords = profile.corrupt_coords > 0 ? profile.corrupt_coords : 1;
      for (int c = 0; c < coords; ++c) {
        std::size_t j = static_cast<std::size_t>(
            fault_rng.UniformInt(static_cast<std::uint64_t>(params.size())));
        params[j] = (c % 2 == 0) ? poison : -poison;
      }
      break;
    }
    case CorruptionKind::kExplodingNorm:
      for (std::size_t j = 0; j < params.size(); ++j) {
        params[j] = reference[j] +
                    profile.corruption_scale * (params[j] - reference[j]);
      }
      break;
    case CorruptionKind::kSignFlip:
      for (std::size_t j = 0; j < params.size(); ++j) {
        params[j] = reference[j] -
                    profile.corruption_scale * (params[j] - reference[j]);
      }
      break;
  }
}

util::Status ScreenUpload(const FlatParams& reference, const FlatParams& upload,
                          const ScreeningOptions& options) {
  if (upload.size() != reference.size()) {
    return util::Status::InvalidArgument(
        "upload size " + std::to_string(upload.size()) +
        " does not match dispatched model size " +
        std::to_string(reference.size()));
  }
  if (options.check_finite) {
    for (std::size_t j = 0; j < upload.size(); ++j) {
      if (!std::isfinite(upload[j])) {
        return util::Status::InvalidArgument(
            "non-finite upload coordinate " + std::to_string(j));
      }
    }
  }
  if (options.max_update_norm > 0.0f) {
    double norm_sq = 0.0;
    for (std::size_t j = 0; j < upload.size(); ++j) {
      double d = static_cast<double>(upload[j]) - reference[j];
      norm_sq += d * d;
    }
    double norm = std::sqrt(norm_sq);
    if (!(norm <= static_cast<double>(options.max_update_norm))) {
      return util::Status::OutOfRange(
          "update norm " + std::to_string(norm) + " exceeds gate " +
          std::to_string(options.max_update_norm));
    }
  }
  return util::Status::Ok();
}

}  // namespace fedcross::fl
