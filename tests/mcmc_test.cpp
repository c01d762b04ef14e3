#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <string>

#include "core/backend.hpp"
#include "core/engine.hpp"
#include "mcmc/chain.hpp"
#include "mcmc/proposals.hpp"
#include "par/thread_pool.hpp"
#include "phylo/patterns.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

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
  const core::EngineStats& s = result.engine_stats;
  EXPECT_EQ(w.down_calls, s.plan_ops - s.plan_builds);
  EXPECT_EQ(w.root_calls, s.plan_builds);
  EXPECT_EQ(w.scale_calls, s.plan_ops);
  EXPECT_EQ(w.reduce_calls, s.reduce_calls);
  EXPECT_GT(w.plf_calls(), 400u);  // at least one node per generation
  EXPECT_GE(w.serial_cycles, 0.0);
}

// McmcResult::engine_stats covers run() alone: the chain constructor's
// evaluation must come off every counter, not just the call counts.
TEST(McmcTest, RunStatsExcludeConstructorEvaluation) {
  auto inst = make_instance(12, 120, 7);
  core::SerialBackend backend;
  core::PlfEngine engine(inst.data, inst.params, inst.tree, backend);
  McmcOptions opts;
  opts.seed = 17;
  McmcChain chain(engine, opts);
  const auto result = chain.run(400);

  const core::EngineStats& s = result.engine_stats;
  EXPECT_GT(s.plan_builds, 0u);
  EXPECT_GE(s.plan_ops, s.plan_builds);
  EXPECT_EQ(engine.stats().plan_builds, s.plan_builds + 1);
}

/// Forwards every call to `inner` and records the root ops of each plan the
/// engine hands to run_evaluation, so a test can check the invariant the
/// derived per-kernel counts rest on: every non-empty plan holds exactly one
/// root op, so root calls == plan_builds.
class RootOpRecorder final : public core::ExecutionBackend {
 public:
  explicit RootOpRecorder(core::ExecutionBackend& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name() + "/recorded"; }
  core::Capabilities capabilities() const override {
    return inner_.capabilities();
  }
  void run_down(const core::KernelSet& ks, const core::DownArgs& a,
                std::size_t m) override {
    inner_.run_down(ks, a, m);
  }
  void run_root(const core::KernelSet& ks, const core::RootArgs& a,
                std::size_t m) override {
    inner_.run_root(ks, a, m);
  }
  void run_scale(const core::KernelSet& ks, const core::ScaleArgs& a,
                 std::size_t m) override {
    inner_.run_scale(ks, a, m);
  }
  double run_root_reduce(const core::KernelSet& ks,
                         const core::RootReduceArgs& a,
                         std::size_t m) override {
    return inner_.run_root_reduce(ks, a, m);
  }
  double run_evaluation(const core::KernelSet& ks, const core::PlfPlan& plan,
                        const core::EvalTail& tail) override {
    std::uint64_t roots = 0;
    for (const core::PlfOp& op : plan.ops()) roots += op.is_root ? 1 : 0;
    root_ops += roots;
    if (plan.ops().empty()) {
      ++empty_plans;
    } else if (roots != 1) {
      ++plans_without_one_root;
    }
    return inner_.run_evaluation(ks, plan, tail);
  }

  std::uint64_t root_ops = 0;
  std::uint64_t empty_plans = 0;             ///< tail-only evaluations
  std::uint64_t plans_without_one_root = 0;  ///< non-empty, roots != 1

 private:
  core::ExecutionBackend& inner_;
};

// Every non-empty plan holds exactly one root op, so the root-call count is
// plan_builds (and down calls plan_ops - plan_builds). Checked through every
// path that builds a plan: the full MCMC move mix (NNI, SPR and the +I slide
// included) under a finite CLV budget, a p-invariant tail-only evaluation,
// and an evaluation right after restore_state, on both CPU backends.
TEST(McmcTest, EveryPlanHoldsExactlyOneRootOp) {
  auto inst = make_instance(16, 200, 23);
  inst.params.p_invariant = 0.2;
  par::ThreadPool pool(2);
  core::SerialBackend serial;
  core::ThreadedBackend threaded(pool);
  for (core::ExecutionBackend* inner :
       std::initializer_list<core::ExecutionBackend*>{&serial, &threaded}) {
    SCOPED_TRACE(inner->name());
    RootOpRecorder rec(*inner);
    core::ClvBudget budget;
    budget.kind = core::ClvBudget::Kind::kFraction;
    budget.fraction = 0.5;  // the minimum feasible working set
    core::PlfEngine engine(inst.data, inst.params, inst.tree, rec,
                           core::KernelVariant::kSimdCol, budget);
    McmcOptions opts;
    opts.seed = 29;
    opts.w_spr = 1.0;
    opts.w_pinv = 0.5;
    McmcChain chain(engine, opts);
    chain.run(400);
    // The budget made the engine rematerialize evicted CLVs, and the +I
    // slide ran tail-only evaluations (empty plans).
    EXPECT_GT(engine.arena().counters().recompute_ops, 0u);
    EXPECT_GT(rec.empty_plans, 0u);
    EXPECT_EQ(rec.plans_without_one_root, 0u);
    EXPECT_EQ(rec.root_ops, engine.stats().plan_builds);

    // A p-invariant-only change right after a clean evaluation: one
    // evaluation, tail-only unless the root's CLV had to be rematerialized.
    engine.set_branch_length(engine.tree().leaf_of(1), 0.2);
    engine.log_likelihood();
    const std::uint64_t reduces_before = engine.stats().reduce_calls;
    phylo::GtrParams p = engine.model_params();
    p.p_invariant = p.p_invariant * 0.5 + 0.05;
    engine.set_model(p);
    engine.log_likelihood();
    EXPECT_EQ(engine.stats().reduce_calls, reduces_before + 1);
    EXPECT_EQ(rec.plans_without_one_root, 0u);
    EXPECT_EQ(rec.root_ops, engine.stats().plan_builds);

    // Save, move away, restore: the restored engine's first evaluation
    // rebuilds whatever the checkpoint left non-resident or dirty.
    std::ostringstream os;
    {
      util::BinaryWriter w(os);
      engine.save_state(w);
    }
    engine.set_branch_length(engine.tree().leaf_of(3), 0.7);
    engine.log_likelihood();
    std::istringstream is(os.str());
    {
      util::BinaryReader r(is);
      engine.restore_state(r);
    }
    engine.set_branch_length(engine.tree().leaf_of(5), 0.3);
    engine.log_likelihood();
    EXPECT_EQ(rec.plans_without_one_root, 0u);
    EXPECT_EQ(rec.root_ops, engine.stats().plan_builds);
  }
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
