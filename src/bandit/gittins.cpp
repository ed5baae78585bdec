#include "bandit/gittins.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "mdp/solve.hpp"
#include "util/check.hpp"

namespace stosched::bandit {

namespace {

/// Invert (I - beta * P_CC) where C is an index list into p.trans.
/// Returns the dense inverse (row-major, |C| x |C|).
std::vector<double> continuation_inverse(const MarkovProject& p, double beta,
                                         const std::vector<std::size_t>& cset) {
  const std::size_t k = cset.size();
  std::vector<double> m(k * k, 0.0);
  for (std::size_t r = 0; r < k; ++r)
    for (std::size_t s = 0; s < k; ++s)
      m[r * k + s] = (r == s ? 1.0 : 0.0) - beta * p.trans[cset[r]][cset[s]];
  // Gauss–Jordan with partial pivoting on [M | I] — one O(k^3) pass.
  std::vector<double> inv(k * k, 0.0);
  for (std::size_t d = 0; d < k; ++d) inv[d * k + d] = 1.0;
  for (std::size_t col = 0; col < k; ++col) {
    std::size_t piv = col;
    for (std::size_t r = col + 1; r < k; ++r)
      if (std::abs(m[r * k + col]) > std::abs(m[piv * k + col])) piv = r;
    STOSCHED_REQUIRE(std::abs(m[piv * k + col]) > 1e-12,
                     "continuation system singular");
    if (piv != col)
      for (std::size_t c = 0; c < k; ++c) {
        std::swap(m[piv * k + c], m[col * k + c]);
        std::swap(inv[piv * k + c], inv[col * k + c]);
      }
    const double scale = 1.0 / m[col * k + col];
    for (std::size_t c = 0; c < k; ++c) {
      m[col * k + c] *= scale;
      inv[col * k + c] *= scale;
    }
    for (std::size_t r = 0; r < k; ++r) {
      if (r == col) continue;
      const double f = m[r * k + col];
      if (f == 0.0) continue;
      for (std::size_t c = 0; c < k; ++c) {
        m[r * k + c] -= f * m[col * k + c];
        inv[r * k + c] -= f * inv[col * k + c];
      }
    }
  }
  return inv;
}

}  // namespace

std::vector<double> gittins_largest_index(const MarkovProject& p,
                                          double beta) {
  p.validate();
  STOSCHED_REQUIRE(beta > 0.0 && beta < 1.0, "discount must lie in (0,1)");
  const std::size_t n = p.num_states();
  std::vector<double> gamma(n, 0.0);
  std::vector<char> indexed(n, 0);
  std::vector<std::size_t> cont;  // continuation set, highest indices first

  for (std::size_t round = 0; round < n; ++round) {
    // inv = (I - beta P_CC)^{-1} over the current continuation set.
    const std::vector<double> inv =
        cont.empty() ? std::vector<double>{}
                     : continuation_inverse(p, beta, cont);
    const std::size_t k = cont.size();

    // Precompute w = inv * R_C and u = inv * 1 (discounted reward / time
    // accumulated while wandering inside C).
    std::vector<double> w(k, 0.0), u(k, 0.0);
    for (std::size_t r = 0; r < k; ++r)
      for (std::size_t s = 0; s < k; ++s) {
        w[r] += inv[r * k + s] * p.reward[cont[s]];
        u[r] += inv[r * k + s];
      }

    double best = -std::numeric_limits<double>::infinity();
    std::size_t best_state = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (indexed[i]) continue;
      // Stopping set C ∪ {i}: starting at i, continue while in C ∪ {i}.
      //   a_i = R_i + beta P_iC w' + beta P_ii a_i, where the C-part values
      //   also feed back into i through P_Ci. Solve the 2x2 block by
      //   substitution:
      //   a_C = w + inv * (beta P_Ci) a_i  (vector form)
      //   a_i = R_i + beta [P_iC (w + inv beta P_Ci a_i)] + beta P_ii a_i.
      double pic_w = 0.0, pic_u = 0.0;       // beta P_iC · w, · u
      double pic_inv_pci = 0.0;              // beta^2 P_iC inv P_Ci
      if (k > 0) {
        // v = inv^T applied to (P_iC): first gather row P_iC.
        for (std::size_t r = 0; r < k; ++r) {
          const double pir = beta * p.trans[i][cont[r]];
          pic_w += pir * w[r];
          pic_u += pir * u[r];
        }
        for (std::size_t r = 0; r < k; ++r) {
          const double pir = beta * p.trans[i][cont[r]];
          if (pir == 0.0) continue;
          double inv_pci = 0.0;
          for (std::size_t s = 0; s < k; ++s)
            inv_pci += inv[r * k + s] * beta * p.trans[cont[s]][i];
          pic_inv_pci += pir * inv_pci;
        }
      }
      const double self = beta * p.trans[i][i];
      const double denom_scale = 1.0 - self - pic_inv_pci;
      STOSCHED_REQUIRE(denom_scale > 1e-14, "degenerate continuation block");
      const double a_i = (p.reward[i] + pic_w) / denom_scale;
      const double b_i = (1.0 + pic_u) / denom_scale;
      const double ratio = a_i / b_i;
      if (ratio > best) {
        best = ratio;
        best_state = i;
      }
    }
    STOSCHED_REQUIRE(best_state < n, "no candidate found");
    gamma[best_state] = best;
    indexed[best_state] = 1;
    cont.push_back(best_state);
  }
  return gamma;
}

std::vector<double> gittins_restart(const MarkovProject& p, double beta,
                                    double tol) {
  p.validate();
  STOSCHED_REQUIRE(beta > 0.0 && beta < 1.0, "discount must lie in (0,1)");
  const std::size_t n = p.num_states();
  std::vector<double> gamma(n, 0.0);
  std::vector<double> v(n, 0.0), next(n, 0.0);

  for (std::size_t i = 0; i < n; ++i) {
    // MDP: in every state choose continue (reward R_s, move by P_s) or
    // restart (reward R_i, move by P_i). gamma_i = (1-beta) * V(i).
    std::fill(v.begin(), v.end(), 0.0);
    double diff = std::numeric_limits<double>::infinity();
    while (diff * beta / (1.0 - beta) > tol) {
      diff = 0.0;
      for (std::size_t s = 0; s < n; ++s) {
        double cont = p.reward[s];
        double restart = p.reward[i];
        for (std::size_t t = 0; t < n; ++t) {
          cont += beta * p.trans[s][t] * v[t];
          restart += beta * p.trans[i][t] * v[t];
        }
        next[s] = std::max(cont, restart);
        diff = std::max(diff, std::abs(next[s] - v[s]));
      }
      v.swap(next);
    }
    gamma[i] = (1.0 - beta) * v[i];
  }
  return gamma;
}

std::vector<double> gittins_calibration(const MarkovProject& p, double beta,
                                        double tol) {
  p.validate();
  STOSCHED_REQUIRE(beta > 0.0 && beta < 1.0, "discount must lie in (0,1)");
  const std::size_t n = p.num_states();

  const double r_lo = *std::min_element(p.reward.begin(), p.reward.end());
  const double r_hi = *std::max_element(p.reward.begin(), p.reward.end());

  // Optimal stopping value with retirement reward M: V = max(M, R + beta PV).
  std::vector<double> v(n, 0.0), next(n, 0.0);
  auto stopping_value = [&](double M) {
    for (std::size_t s = 0; s < n; ++s) v[s] = std::max(M, p.reward[s] / (1.0 - beta));
    double diff = std::numeric_limits<double>::infinity();
    while (diff * beta / (1.0 - beta) > 1e-12 * std::max(1.0, std::abs(M))) {
      diff = 0.0;
      for (std::size_t s = 0; s < n; ++s) {
        double cont = p.reward[s];
        for (std::size_t t = 0; t < n; ++t) cont += beta * p.trans[s][t] * v[t];
        next[s] = std::max(M, cont);
        diff = std::max(diff, std::abs(next[s] - v[s]));
      }
      v.swap(next);
    }
  };

  std::vector<double> gamma(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    // gamma_i = (1-beta) M*, where M* is the smallest retirement reward at
    // which stopping immediately at i is optimal: V(i; M*) = M*.
    double lo = r_lo / (1.0 - beta), hi = r_hi / (1.0 - beta);
    while ((hi - lo) * (1.0 - beta) > tol) {
      const double mid = 0.5 * (lo + hi);
      stopping_value(mid);
      if (v[i] > mid + 1e-13 * std::max(1.0, std::abs(mid)))
        lo = mid;  // continuing still strictly better: index above (1-b)mid
      else
        hi = mid;
    }
    gamma[i] = (1.0 - beta) * 0.5 * (lo + hi);
  }
  return gamma;
}

}  // namespace stosched::bandit
