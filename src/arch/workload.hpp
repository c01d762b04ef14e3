// Workload descriptors: what one MrBayes-style analysis asks of the PLF.
//
// A workload is characterized exactly the way the paper scales its inputs
// (§4.1): the pattern count `m` sets the length of the compute-intensive
// loops ("data size scaling"), while the number of PLF invocations — driven
// by the taxon count through the tree size — sets the call frequency
// ("computation intensity scaling"). Counts are either measured from a real
// McmcChain run (mcmc::workload_from_run) or derived analytically here.
#pragma once

#include <cstddef>
#include <cstdint>

namespace plf::arch {

struct PlfWorkload {
  std::size_t m = 1000;      ///< distinct site patterns
  std::size_t K = 4;         ///< discrete-Γ categories
  std::size_t taxa = 10;

  std::uint64_t down_calls = 0;   ///< CondLikeDown invocations
  std::uint64_t root_calls = 0;   ///< CondLikeRoot invocations
  std::uint64_t scale_calls = 0;  ///< CondLikeScaler invocations
  std::uint64_t reduce_calls = 0; ///< root-likelihood reductions
  std::uint64_t tm_builds = 0;    ///< serial transition-matrix rebuilds

  /// Abstract serial work in baseline-core cycles (proposal machinery, tree
  /// surgery, bookkeeping) — the "Remaining" of Fig. 12.
  double serial_cycles = 0.0;

  std::uint64_t plf_calls() const { return down_calls + root_calls; }
};

/// Analytic model of a fixed-generation Bayesian run: per generation one
/// proposal dirties an average root-path of ~log2(taxa)+1 internal nodes
/// (each recomputed and rescaled), one root reduction, and a couple of
/// branch-matrix rebuilds. Matches the McmcChain's measured call counts to
/// within ~20% (see arch_test).
PlfWorkload analytic_mcmc_workload(std::size_t taxa, std::size_t m,
                                   std::uint64_t generations,
                                   std::size_t K = 4);

}  // namespace plf::arch
