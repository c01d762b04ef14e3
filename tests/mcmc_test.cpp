#include <gtest/gtest.h>

#include <cmath>

#include "core/backend.hpp"
#include "core/engine.hpp"
#include "mcmc/chain.hpp"
#include "mcmc/proposals.hpp"
#include "phylo/patterns.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "util/rng.hpp"

namespace plf::mcmc {
namespace {

struct Instance {
  phylo::Tree tree;
  phylo::GtrParams params;
  phylo::PatternMatrix data;
};

Instance make_instance(std::size_t taxa, std::size_t cols, std::uint64_t seed,
                       double scale = 0.15) {
  Rng rng(seed);
  phylo::Tree tree = seqgen::yule_tree(taxa, rng, 1.0, scale);
  phylo::GtrParams params = seqgen::default_gtr_params();
  phylo::SubstitutionModel model(params);
  seqgen::SequenceEvolver ev(tree, model);
  auto aln = ev.evolve(cols, rng);
  return Instance{std::move(tree), params, phylo::PatternMatrix::compress(aln)};
}

TEST(DirichletPdfTest, NormalizedAndKnownValues) {
  // Dirichlet(1,1) is uniform on the 1-simplex: pdf == 1 everywhere.
  EXPECT_NEAR(dirichlet_log_pdf({1.0, 1.0}, {0.3, 0.7}), 0.0, 1e-12);
  // Dirichlet(2,2): pdf(x) = 6 x (1-x); at x=0.5 -> 1.5.
  EXPECT_NEAR(dirichlet_log_pdf({2.0, 2.0}, {0.5, 0.5}), std::log(1.5), 1e-12);
  // Zero coordinate with alpha > 1: -inf.
  EXPECT_EQ(dirichlet_log_pdf({2.0, 2.0}, {0.0, 1.0}),
            -std::numeric_limits<double>::infinity());
}

TEST(McmcTest, DeterministicForFixedSeed) {
  auto inst = make_instance(8, 100, 1);
  core::SerialBackend b1, b2;
  core::PlfEngine e1(inst.data, inst.params, inst.tree, b1);
  core::PlfEngine e2(inst.data, inst.params, inst.tree, b2);
  McmcOptions opts;
  opts.seed = 42;
  McmcChain c1(e1, opts), c2(e2, opts);
  const auto r1 = c1.run(300);
  const auto r2 = c2.run(300);
  EXPECT_EQ(r1.final_ln_likelihood, r2.final_ln_likelihood);
  EXPECT_EQ(r1.final_tree_newick, r2.final_tree_newick);
  EXPECT_EQ(r1.total_accepted(), r2.total_accepted());
}

TEST(McmcTest, DifferentSeedsDiverge) {
  auto inst = make_instance(8, 100, 2);
  core::SerialBackend b1, b2;
  core::PlfEngine e1(inst.data, inst.params, inst.tree, b1);
  core::PlfEngine e2(inst.data, inst.params, inst.tree, b2);
  McmcOptions o1, o2;
  o1.seed = 1;
  o2.seed = 2;
  McmcChain c1(e1, o1), c2(e2, o2);
  EXPECT_NE(c1.run(200).final_ln_likelihood, c2.run(200).final_ln_likelihood);
}

TEST(McmcTest, ImprovesFromPerturbedStart) {
  // Start from the true data-generating tree with badly scaled branches:
  // the chain must climb in likelihood.
  auto inst = make_instance(10, 300, 3);
  phylo::Tree start = inst.tree;
  for (int b : start.branch_nodes()) start.set_branch_length(b, 0.5);
  core::SerialBackend backend;
  core::PlfEngine engine(inst.data, inst.params, start, backend);
  const double initial = engine.log_likelihood();
  McmcOptions opts;
  opts.seed = 7;
  McmcChain chain(engine, opts);
  const auto result = chain.run(2000);
  EXPECT_GT(result.final_ln_likelihood, initial + 50.0);
  EXPECT_GE(result.best_ln_likelihood, result.final_ln_likelihood);
}

TEST(McmcTest, AcceptanceRatesReasonable) {
  auto inst = make_instance(10, 200, 4);
  core::SerialBackend backend;
  core::PlfEngine engine(inst.data, inst.params, inst.tree, backend);
  McmcOptions opts;
  opts.seed = 11;
  McmcChain chain(engine, opts);
  const auto result = chain.run(3000);
  // Started at (almost) the true state: branch moves should accept at a
  // healthy intermediate rate, not ~0 or ~1.
  const auto& bl = result.proposals.at("branch-multiplier");
  EXPECT_GT(bl.proposed, 500u);
  EXPECT_GT(bl.acceptance_rate(), 0.1);
  EXPECT_LT(bl.acceptance_rate(), 0.9);
  // Every move type was tried.
  EXPECT_EQ(result.proposals.size(), 5u);
  EXPECT_EQ(result.total_proposed(), 3000u);
}

TEST(McmcTest, ChainStateConsistentWithFreshEngine) {
  // After a long accept/reject sequence the engine's incremental state must
  // equal a from-scratch evaluation of the final tree+model.
  auto inst = make_instance(9, 150, 5);
  core::SerialBackend backend;
  core::PlfEngine engine(inst.data, inst.params, inst.tree, backend);
  McmcOptions opts;
  opts.seed = 13;
  McmcChain chain(engine, opts);
  chain.run(500);

  core::SerialBackend backend2;
  core::PlfEngine fresh(inst.data, engine.model_params(), engine.tree(),
                        backend2);
  EXPECT_NEAR(fresh.log_likelihood(), chain.ln_likelihood(),
              std::abs(chain.ln_likelihood()) * 1e-6);
}

TEST(McmcTest, RecoversTrueTopologyOnCleanData) {
  // Strong signal (long alignment, moderate divergence): the chain should
  // find the generating topology from a random start.
  Rng rng(99);
  phylo::Tree true_tree = seqgen::yule_tree(7, rng, 1.0, 0.12);
  phylo::GtrParams params = seqgen::default_gtr_params();
  phylo::SubstitutionModel model(params);
  seqgen::SequenceEvolver ev(true_tree, model);
  auto data = phylo::PatternMatrix::compress(ev.evolve(2000, rng));

  phylo::Tree start = seqgen::yule_tree(7, rng, 1.0, 0.12);  // random topology
  core::SerialBackend backend;
  core::PlfEngine engine(data, params, start, backend);
  McmcOptions opts;
  opts.seed = 21;
  opts.w_nni = 6.0;  // emphasize topology search
  McmcChain chain(engine, opts);
  chain.run(4000);
  EXPECT_TRUE(engine.tree().same_topology(true_tree))
      << "found: " << engine.tree().to_newick()
      << "\ntrue: " << true_tree.to_newick();
}

TEST(McmcTest, SamplesCollectedAtRequestedCadence) {
  auto inst = make_instance(8, 80, 6);
  core::SerialBackend backend;
  core::PlfEngine engine(inst.data, inst.params, inst.tree, backend);
  McmcOptions opts;
  opts.seed = 3;
  opts.sample_every = 50;
  McmcChain chain(engine, opts);
  const auto result = chain.run(500);
  // initial sample + one per 50 generations.
  EXPECT_EQ(result.samples.size(), 11u);
  EXPECT_EQ(result.samples.front().generation, 0u);
  EXPECT_EQ(result.samples.back().generation, 500u);
}

TEST(McmcTest, WorkloadBridgeCountsMatchEngine) {
  auto inst = make_instance(12, 120, 7);
  core::SerialBackend backend;
  core::PlfEngine engine(inst.data, inst.params, inst.tree, backend);
  McmcOptions opts;
  opts.seed = 17;
  McmcChain chain(engine, opts);
  const auto result = chain.run(400);

  const auto w = workload_from_run(result, inst.data.n_patterns(), 4, 12);
  EXPECT_EQ(w.down_calls, result.engine_stats.down_calls);
  EXPECT_EQ(w.root_calls, result.engine_stats.root_calls);
  EXPECT_EQ(w.reduce_calls, result.engine_stats.reduce_calls);
  EXPECT_GT(w.plf_calls(), 400u);  // at least one node per generation
  EXPECT_GE(w.serial_cycles, 0.0);
}

// McmcResult::engine_stats covers run() alone: the chain constructor's
// evaluation must come off every counter, not just the call counts. Every
// evaluation with dirty nodes builds one plan holding one root op, so a run's
// plan builds and root calls agree exactly.
TEST(McmcTest, RunStatsExcludeConstructorEvaluation) {
  auto inst = make_instance(12, 120, 7);
  core::SerialBackend backend;
  core::PlfEngine engine(inst.data, inst.params, inst.tree, backend);
  McmcOptions opts;
  opts.seed = 17;
  McmcChain chain(engine, opts);
  const auto result = chain.run(400);

  const core::EngineStats& s = result.engine_stats;
  EXPECT_GT(s.root_calls, 0u);
  EXPECT_EQ(s.plan_builds, s.root_calls);
  EXPECT_EQ(s.plan_ops, s.down_calls + s.root_calls);
  EXPECT_EQ(engine.stats().plan_builds, s.plan_builds + 1);
}

TEST(McmcTest, AnalyticWorkloadApproximatesMeasured) {
  // The arch module's analytic fallback should land within ~35% of a real
  // chain's measured call counts (it models an average proposal mix).
  auto inst = make_instance(20, 300, 8);
  core::SerialBackend backend;
  core::PlfEngine engine(inst.data, inst.params, inst.tree, backend);
  McmcOptions opts;
  opts.seed = 23;
  McmcChain chain(engine, opts);
  const std::uint64_t gens = 2000;
  const auto result = chain.run(gens);
  const auto measured = workload_from_run(result, inst.data.n_patterns(), 4, 20);
  const auto analytic = arch::analytic_mcmc_workload(20, inst.data.n_patterns(), gens);

  const double ratio = static_cast<double>(analytic.plf_calls()) /
                       static_cast<double>(measured.plf_calls());
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 1.6);
}

TEST(McmcTest, TopologyFrozenWhenNniWeightZero) {
  auto inst = make_instance(9, 100, 9);
  core::SerialBackend backend;
  core::PlfEngine engine(inst.data, inst.params, inst.tree, backend);
  McmcOptions opts;
  opts.seed = 29;
  opts.w_nni = 0.0;
  McmcChain chain(engine, opts);
  chain.run(300);
  EXPECT_TRUE(engine.tree().same_topology(inst.tree));
}

}  // namespace
}  // namespace plf::mcmc
