// Shared helpers for kernel/engine tests: random inputs with realistic
// structure and an independent double-precision reference likelihood.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

#include "core/kernels.hpp"
#include "phylo/dna.hpp"
#include "phylo/model.hpp"
#include "phylo/patterns.hpp"
#include "phylo/tree.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace plf::test {

/// The kernel roster: every KernelVariant, the scalar reference first.
/// Variant loops and parameterized suites all iterate this one list.
inline constexpr std::array<core::KernelVariant, 3> kAllKernelVariants{
    core::KernelVariant::kScalar, core::KernelVariant::kSimdRow,
    core::KernelVariant::kSimdCol};

inline aligned_vector<float> random_cl(std::size_t m, std::size_t K, Rng& rng,
                                       float lo = 0.05f, float hi = 1.0f) {
  aligned_vector<float> cl(m * K * 4);
  for (auto& v : cl) {
    v = static_cast<float>(rng.uniform(lo, hi));
  }
  return cl;
}

inline std::vector<phylo::StateMask> random_masks(std::size_t m, Rng& rng,
                                                  bool allow_ambiguity = true) {
  std::vector<phylo::StateMask> masks(m);
  for (auto& x : masks) {
    if (allow_ambiguity && rng.uniform() < 0.1) {
      x = static_cast<phylo::StateMask>(1 + rng.below(15));  // any nonzero mask
    } else {
      x = phylo::state_to_mask(rng.below(4));
    }
  }
  return masks;
}

inline phylo::GtrParams random_gtr(Rng& rng, std::size_t K = 4) {
  phylo::GtrParams p;
  for (auto& r : p.rates) r = rng.uniform(0.5, 3.0);
  const auto pi = rng.dirichlet({5.0, 5.0, 5.0, 5.0});
  for (std::size_t i = 0; i < 4; ++i) p.pi[i] = pi[i];
  p.gamma_shape = rng.uniform(0.3, 2.0);
  p.n_rate_categories = K;
  return p;
}

/// Independent double-precision pruning likelihood (no scaling, so only
/// usable for data sets small enough to avoid underflow).
inline double reference_log_likelihood(const phylo::Tree& tree,
                                       const phylo::SubstitutionModel& model,
                                       const phylo::PatternMatrix& data) {
  const std::size_t K = model.n_rate_categories();
  const std::size_t n = tree.n_nodes();

  // Double-precision per-branch transition matrices.
  std::vector<std::vector<num::Matrix4>> tm(n);
  for (std::size_t id = 0; id < n; ++id) {
    if (tree.node(static_cast<int>(id)).parent == phylo::kNoNode) continue;
    tm[id].resize(K);
    for (std::size_t k = 0; k < K; ++k) {
      tm[id][k] =
          model.transition_matrix(tree.node(static_cast<int>(id)).length, k);
    }
  }

  const auto order = tree.postorder_internals();
  double ln_l = 0.0;
  for (std::size_t c = 0; c < data.n_patterns(); ++c) {
    // cl[node][k][i]
    std::vector<std::array<std::array<double, 4>, 8>> cl(n);
    auto child_factor = [&](int child, std::size_t k, std::size_t i) {
      const auto& p = tm[static_cast<std::size_t>(child)][k];
      double s = 0.0;
      if (tree.node(child).is_leaf()) {
        const phylo::StateMask mask =
            data.at(static_cast<std::size_t>(tree.node(child).taxon), c);
        for (std::size_t j = 0; j < 4; ++j) {
          if ((mask >> j) & 1u) s += p(i, j);
        }
      } else {
        for (std::size_t j = 0; j < 4; ++j) {
          s += p(i, j) * cl[static_cast<std::size_t>(child)][k][j];
        }
      }
      return s;
    };

    for (int id : order) {
      const phylo::TreeNode& nd = tree.node(id);
      for (std::size_t k = 0; k < K; ++k) {
        for (std::size_t i = 0; i < 4; ++i) {
          double v = child_factor(nd.left, k, i) * child_factor(nd.right, k, i);
          if (id == tree.root()) {
            v *= child_factor(tree.outgroup(), k, i);
          }
          cl[static_cast<std::size_t>(id)][k][i] = v;
        }
      }
    }

    double site = 0.0;
    for (std::size_t k = 0; k < K; ++k) {
      for (std::size_t i = 0; i < 4; ++i) {
        site += model.pi()[i] *
                cl[static_cast<std::size_t>(tree.root())][k][i];
      }
    }
    site /= static_cast<double>(K);
    const double pinv = model.params().p_invariant;
    if (pinv > 0.0) {
      // +I mixture: invariant component over the states every taxon shares.
      phylo::StateMask shared = phylo::kGapMask;
      for (std::size_t t = 0; t < data.n_taxa(); ++t) {
        shared = static_cast<phylo::StateMask>(shared & data.at(t, c));
      }
      double const_lik = 0.0;
      for (std::size_t st = 0; st < 4; ++st) {
        if ((shared >> st) & 1u) const_lik += model.pi()[st];
      }
      site = pinv * const_lik + (1.0 - pinv) * site;
    }
    ln_l += static_cast<double>(data.weights()[c]) * std::log(site);
  }
  return ln_l;
}

/// Independent long-double pruning likelihood that rescales every internal
/// node's conditional likelihoods by their per-site maximum and accumulates
/// the logs of those factors, so it stays finite at thousands of taxa where
/// reference_log_likelihood underflows. The transition matrices are the
/// model's double-precision ones; everything after runs in long double.
inline double scaled_reference_log_likelihood(
    const phylo::Tree& tree, const phylo::SubstitutionModel& model,
    const phylo::PatternMatrix& data) {
  using Real = long double;
  using Clv = std::array<std::array<Real, 4>, 8>;  // [category][state]
  const std::size_t K = model.n_rate_categories();
  const std::size_t n = tree.n_nodes();

  std::vector<std::vector<num::Matrix4>> tm(n);
  for (std::size_t id = 0; id < n; ++id) {
    if (tree.node(static_cast<int>(id)).parent == phylo::kNoNode) continue;
    tm[id].resize(K);
    for (std::size_t k = 0; k < K; ++k) {
      tm[id][k] =
          model.transition_matrix(tree.node(static_cast<int>(id)).length, k);
    }
  }

  const auto order = tree.postorder_internals();
  const Real pinv = model.params().p_invariant;
  std::vector<Clv> cl(n);
  Real ln_l = 0.0L;
  for (std::size_t c = 0; c < data.n_patterns(); ++c) {
    const auto child_factor = [&](int child, std::size_t k, std::size_t i) {
      const auto& p = tm[static_cast<std::size_t>(child)][k];
      Real s = 0.0L;
      if (tree.node(child).is_leaf()) {
        const phylo::StateMask mask =
            data.at(static_cast<std::size_t>(tree.node(child).taxon), c);
        for (std::size_t j = 0; j < 4; ++j) {
          if ((mask >> j) & 1u) s += static_cast<Real>(p(i, j));
        }
      } else {
        for (std::size_t j = 0; j < 4; ++j) {
          s += static_cast<Real>(p(i, j)) *
               cl[static_cast<std::size_t>(child)][k][j];
        }
      }
      return s;
    };

    Real ln_scale = 0.0L;  // sum over nodes of log(per-node rescale factor)
    for (int id : order) {
      const phylo::TreeNode& nd = tree.node(id);
      Clv& out = cl[static_cast<std::size_t>(id)];
      Real mx = 0.0L;
      for (std::size_t k = 0; k < K; ++k) {
        for (std::size_t i = 0; i < 4; ++i) {
          Real v = child_factor(nd.left, k, i) * child_factor(nd.right, k, i);
          if (id == tree.root()) v *= child_factor(tree.outgroup(), k, i);
          out[k][i] = v;
          mx = std::max(mx, v);
        }
      }
      if (mx > 0.0L) {
        for (std::size_t k = 0; k < K; ++k) {
          for (std::size_t i = 0; i < 4; ++i) out[k][i] /= mx;
        }
        ln_scale += std::log(mx);
      }
    }

    Real site = 0.0L;
    for (std::size_t k = 0; k < K; ++k) {
      for (std::size_t i = 0; i < 4; ++i) {
        site += static_cast<Real>(model.pi()[i]) *
                cl[static_cast<std::size_t>(tree.root())][k][i];
      }
    }
    site /= static_cast<Real>(K);
    Real ln_site = std::log(site) + ln_scale;
    if (pinv > 0.0L) {
      // +I mixture in log space: the variable component's likelihood is
      // exp(ln_site), far below the long-double range on deep trees.
      phylo::StateMask shared = phylo::kGapMask;
      for (std::size_t t = 0; t < data.n_taxa(); ++t) {
        shared = static_cast<phylo::StateMask>(shared & data.at(t, c));
      }
      Real const_lik = 0.0L;
      for (std::size_t st = 0; st < 4; ++st) {
        if ((shared >> st) & 1u) const_lik += static_cast<Real>(model.pi()[st]);
      }
      const Real ln_var = std::log1p(-pinv) + ln_site;
      if (const_lik > 0.0L) {
        const Real ln_inv = std::log(pinv * const_lik);
        const Real hi = std::max(ln_var, ln_inv);
        const Real lo = std::min(ln_var, ln_inv);
        ln_site = hi + std::log1p(std::exp(lo - hi));
      } else {
        ln_site = ln_var;
      }
    }
    ln_l += static_cast<Real>(data.weights()[c]) * ln_site;
  }
  return static_cast<double>(ln_l);
}

}  // namespace plf::test
