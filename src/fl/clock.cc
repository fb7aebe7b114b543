#include "fl/clock.h"

#include <cmath>
#include <cstdio>

namespace fedcross::fl {
namespace {

// SplitMix64 finalizer, the same bijective mix the other seed derivations
// use (duplicated here like fl/faults.cc does: the mix is a spec, not a
// shared utility, and must never drift).
std::uint64_t MixSeed(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// %g rendering for option diagnostics ("1e+09", not "1000000000.000000").
std::string Num(double value) {
  char text[32];
  std::snprintf(text, sizeof(text), "%g", value);
  return text;
}

// Log-uniform draw over [lo, hi]; degenerate ranges cost no stream draws,
// so a homogeneous axis never consumes entropy.
double DrawLogUniform(double lo, double hi, util::Rng& rng) {
  if (lo >= hi) return lo;
  return std::exp(rng.Uniform(std::log(lo), std::log(hi)));
}

}  // namespace

const char* RoundModeName(RoundMode mode) {
  switch (mode) {
    case RoundMode::kSync:
      return "sync";
    case RoundMode::kAsync:
      return "async";
  }
  return "unknown";
}

bool ParseRoundMode(const std::string& name, RoundMode* mode) {
  if (name == "sync") {
    *mode = RoundMode::kSync;
    return true;
  }
  if (name == "async") {
    *mode = RoundMode::kAsync;
    return true;
  }
  return false;
}

const char* StalenessPolicyName(StalenessPolicy policy) {
  switch (policy) {
    case StalenessPolicy::kConstant:
      return "constant";
    case StalenessPolicy::kPolynomial:
      return "polynomial";
  }
  return "unknown";
}

bool ParseStalenessPolicy(const std::string& name, StalenessPolicy* policy) {
  if (name == "constant") {
    *policy = StalenessPolicy::kConstant;
    return true;
  }
  if (name == "polynomial" || name == "poly") {
    *policy = StalenessPolicy::kPolynomial;
    return true;
  }
  return false;
}

double StalenessWeight(StalenessPolicy policy, double exponent, int tau) {
  if (policy == StalenessPolicy::kConstant || tau <= 0) return 1.0;
  return std::pow(1.0 + static_cast<double>(tau), -exponent);
}

ClockProfile DrawClockProfile(const ClockModel& model, std::uint64_t seed,
                              std::int64_t client_id) {
  std::uint64_t h = MixSeed(seed ^ 0x636c6f636bULL);  // "clock"
  h = MixSeed(h + static_cast<std::uint64_t>(client_id));
  util::Rng rng(h);
  ClockProfile profile;
  profile.compute_speed =
      DrawLogUniform(model.compute_speed_min, model.compute_speed_max, rng);
  profile.bandwidth =
      DrawLogUniform(model.bandwidth_min, model.bandwidth_max, rng);
  return profile;
}

std::uint64_t ClockSeed(std::uint64_t seed, int round, int salt, int slot) {
  std::uint64_t h = MixSeed(seed ^ 0x636c6b6a74ULL);  // "clkjt"
  h = MixSeed(h + static_cast<std::uint64_t>(round));
  h = MixSeed(h + static_cast<std::uint64_t>(salt));
  return MixSeed(h + static_cast<std::uint64_t>(slot));
}

util::Status ValidateAsyncOptions(const AsyncOptions& options) {
  auto invalid = [](const char* field, const std::string& what) {
    return util::Status::InvalidArgument(std::string(field) + " " + what);
  };
  if (options.max_retries < 0 || options.max_retries > kMaxRetries) {
    return invalid("max_retries", std::to_string(options.max_retries) +
                                      " is outside [0, " +
                                      std::to_string(kMaxRetries) + "]");
  }
  if (options.buffer_size < 0) {
    return invalid("buffer_size",
                   std::to_string(options.buffer_size) + " is negative");
  }
  const ClockModel& clock = options.clock;
  const struct {
    const char* field;
    double lo, hi;
  } ranges[] = {{"compute_speed", clock.compute_speed_min,
                 clock.compute_speed_max},
                {"bandwidth", clock.bandwidth_min, clock.bandwidth_max}};
  for (const auto& [field, lo, hi] : ranges) {
    if (!(std::isfinite(hi) && lo > 0.0 && lo <= hi)) {
      return invalid(field, "range [" + Num(lo) + ", " + Num(hi) +
                                "] is not finite, positive and ordered");
    }
  }
  if (!(std::isfinite(clock.jitter) && clock.jitter >= 0.0)) {
    return invalid("jitter", Num(clock.jitter) + " is not finite and >= 0");
  }
  return util::Status::Ok();
}

double SimulatedDuration(const ClockProfile& profile, double slowdown,
                         double steps, std::uint64_t wire_bytes_down,
                         std::uint64_t wire_bytes_up, double jitter_factor) {
  double comm = (static_cast<double>(wire_bytes_down) +
                 static_cast<double>(wire_bytes_up)) /
                profile.bandwidth;
  double compute = slowdown * steps / profile.compute_speed * jitter_factor;
  return comm + compute;
}

}  // namespace fedcross::fl
