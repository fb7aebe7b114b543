#ifndef FEDCROSS_PRIVACY_ACCOUNTANT_H_
#define FEDCROSS_PRIVACY_ACCOUNTANT_H_

#include <cstdint>
#include <vector>

namespace fedcross::privacy {

// ---------------------------------------------------------------------------
// Subsampled-Gaussian RDP (moments) accountant
//
// Each FL aggregation applies the Gaussian mechanism (noise sigma relative
// to the clipping bound) to a uniformly sampled cohort of K out of N
// clients, i.e. sampling rate q = K / N. Renyi differential privacy
// composes additively across rounds at every order alpha, so the accountant
// keeps one running total per order and converts to (epsilon, delta)-DP on
// demand:
//
//   rdp_total(alpha) = sum over rounds of rdp_round(q, sigma, alpha)
//   epsilon(delta)   = min over alpha of
//                        rdp_total(alpha) + log(1/delta) / (alpha - 1)
//
// The per-round term is the exact integer-order bound for the sampled
// Gaussian mechanism (Mironov, Talwar & Zhang 2019, Table 1 / Abadi et
// al.'s moments accountant):
//
//   rdp(alpha) = 1/(alpha-1) * log( sum_{k=0..alpha} C(alpha,k)
//                  (1-q)^(alpha-k) q^k exp((k^2 - k) / (2 sigma^2)) )
//
// evaluated in log space (log-sum-exp over the binomial terms) so large
// alpha never overflows. Hand-checkable closed forms the tests pin down:
//   alpha = 2:  rdp = log(1 + q^2 (e^{1/sigma^2} - 1))
//   q = 1:      rdp = alpha / (2 sigma^2)   (the plain Gaussian mechanism)
//   q = 0:      rdp = 0                     (no one was sampled)
//
// All totals are exact f64 sums over a *fixed* order grid, so checkpointing
// the per-order totals and restoring them reproduces epsilon
// bit-exactly — the accountant is part of the deterministic training state.
// ---------------------------------------------------------------------------

class RdpAccountant {
 public:
  // The fixed Renyi order grid every accountant evaluates: integers 2..64
  // (dense where the minimum usually lands) plus a sparse high tail for
  // very low noise. Stable across builds — the checkpoint serialises one
  // total per order, in this order.
  static const std::vector<int>& Orders();

  // One round's RDP at integer order alpha >= 2 for sampling rate
  // q in [0, 1] and noise multiplier sigma. sigma <= 0 returns +infinity
  // (no noise, no guarantee).
  static double SubsampledGaussianRdp(double q, double sigma, int alpha);

  // Folds one aggregation with sampling rate q and noise multiplier sigma
  // into the running per-order totals.
  void AccumulateRound(double q, double sigma);

  // Converts the accumulated ledger to epsilon at slack delta (min over the
  // order grid). +infinity when any accumulated round had sigma <= 0;
  // 0 when no round has been accumulated.
  double Epsilon(double delta) const;

  // Rounds folded in so far.
  std::int64_t rounds() const { return rounds_; }

  // The running per-order totals, aligned with Orders() — what the
  // checkpoint serialises.
  const std::vector<double>& order_totals() const { return totals_; }

  // Restores a serialised ledger. `totals` must match Orders() in length.
  void Restore(std::vector<double> totals, std::int64_t rounds);

 private:
  std::vector<double> totals_ = std::vector<double>(Orders().size(), 0.0);
  std::int64_t rounds_ = 0;
};

}  // namespace fedcross::privacy

#endif  // FEDCROSS_PRIVACY_ACCOUNTANT_H_
