#include "privacy/accountant.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace fedcross::privacy {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// log C(n, k) via lgamma — exact enough at the grid's n <= 1024 (relative
// error ~1e-14, far below the 1e-9 the tests pin).
double LogBinomial(int n, int k) {
  return std::lgamma(n + 1.0) - std::lgamma(k + 1.0) -
         std::lgamma(n - k + 1.0);
}

}  // namespace

const std::vector<int>& RdpAccountant::Orders() {
  static const std::vector<int>* orders = [] {
    auto* grid = new std::vector<int>();
    for (int alpha = 2; alpha <= 64; ++alpha) grid->push_back(alpha);
    for (int alpha : {80, 96, 128, 192, 256, 512, 1024}) {
      grid->push_back(alpha);
    }
    return grid;
  }();
  return *orders;
}

double RdpAccountant::SubsampledGaussianRdp(double q, double sigma,
                                            int alpha) {
  FC_CHECK_GE(alpha, 2);
  FC_CHECK_GE(q, 0.0);
  FC_CHECK_LE(q, 1.0);
  if (sigma <= 0.0) return kInf;
  if (q == 0.0) return 0.0;
  const double inv_2s2 = 1.0 / (2.0 * sigma * sigma);
  if (q == 1.0) {
    // Every client participates: the plain Gaussian mechanism's RDP.
    return static_cast<double>(alpha) * inv_2s2;
  }
  // log A_alpha = logsumexp_k [ log C(alpha,k) + k log q
  //                             + (alpha-k) log(1-q) + (k^2-k)/(2 sigma^2) ]
  const double log_q = std::log(q);
  const double log_1mq = std::log1p(-q);
  double max_term = -kInf;
  std::vector<double> terms(static_cast<std::size_t>(alpha) + 1);
  for (int k = 0; k <= alpha; ++k) {
    double term = LogBinomial(alpha, k) + k * log_q + (alpha - k) * log_1mq +
                  static_cast<double>(k) * (k - 1.0) * inv_2s2;
    terms[static_cast<std::size_t>(k)] = term;
    max_term = std::max(max_term, term);
  }
  double sum = 0.0;
  for (double term : terms) sum += std::exp(term - max_term);
  double log_a = max_term + std::log(sum);
  // A_alpha >= 1 by construction (it is an expectation of e^{>=0} moments);
  // clamp the tiny negative residue float error can leave behind.
  return std::max(0.0, log_a) / (alpha - 1.0);
}

void RdpAccountant::AccumulateRound(double q, double sigma) {
  const std::vector<int>& orders = Orders();
  for (std::size_t i = 0; i < orders.size(); ++i) {
    totals_[i] += SubsampledGaussianRdp(q, sigma, orders[i]);
  }
  ++rounds_;
}

double RdpAccountant::Epsilon(double delta) const {
  FC_CHECK_GT(delta, 0.0);
  FC_CHECK_LT(delta, 1.0);
  if (rounds_ == 0) return 0.0;
  const std::vector<int>& orders = Orders();
  const double log_inv_delta = std::log(1.0 / delta);
  double best = kInf;
  for (std::size_t i = 0; i < orders.size(); ++i) {
    double eps = totals_[i] + log_inv_delta / (orders[i] - 1.0);
    best = std::min(best, eps);
  }
  return best;
}

void RdpAccountant::Restore(std::vector<double> totals, std::int64_t rounds) {
  FC_CHECK_EQ(totals.size(), Orders().size());
  FC_CHECK_GE(rounds, 0);
  totals_ = std::move(totals);
  rounds_ = rounds;
}

}  // namespace fedcross::privacy
