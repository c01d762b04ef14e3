// Golden regression values: exact outputs of fixed-seed runs, locked in so
// that accidental numeric or stream changes (kernel edits, RNG changes,
// compression-order changes) are caught immediately.
//
// The scalar-kernel lnL is compared at double precision but with a small
// tolerance: FP contraction decisions may differ across compilers. The RNG
// stream and integer counters must match EXACTLY on every platform
// (xoshiro256** is bit-specified).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/backend.hpp"
#include "core/engine.hpp"
#include "mcmc/chain.hpp"
#include "par/thread_pool.hpp"
#include "phylo/patterns.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "util/rng.hpp"

namespace plf {
namespace {

TEST(GoldenTest, RngStreamIsBitExact) {
  Rng r(42);
  EXPECT_EQ(r(), 1546998764402558742ull);
  EXPECT_EQ(r(), 6990951692964543102ull);
}

TEST(GoldenTest, FixedInstanceLikelihood) {
  Rng rng(12001);
  auto tree = seqgen::yule_tree(9, rng, 1.0, 0.15);
  auto params = seqgen::default_gtr_params();
  phylo::SubstitutionModel model(params);
  seqgen::SequenceEvolver ev(tree, model);
  auto data = phylo::PatternMatrix::compress(ev.evolve(250, rng));

  // Data pipeline is bit-deterministic.
  EXPECT_EQ(data.n_patterns(), 80u);
  EXPECT_EQ(tree.to_newick().substr(0, 26), "(t1:0.0154031,((t5:0.06404");

  core::SerialBackend b;
  core::PlfEngine e(data, params, tree, b, core::KernelVariant::kScalar);
  // Kernel arithmetic may contract differently across compilers: accept a
  // float-level band around the locked value.
  EXPECT_NEAR(e.log_likelihood(), -1025.1100511813, 2e-3);
}

// Dup-heavy fixture: every distinct column appears three times (weight 1
// each, so the global pattern compression cannot fold them).
struct DupHeavyInstance {
  phylo::Tree tree;
  phylo::PatternMatrix data;
};

DupHeavyInstance dup_heavy_instance(int bases = 40) {
  Rng rng(12003);
  auto tree = seqgen::yule_tree(6, rng, 1.0, 0.15);
  std::vector<std::vector<phylo::StateMask>> cols;
  for (int base = 0; base < bases; ++base) {
    std::vector<phylo::StateMask> col(6);
    for (auto& m : col) m = phylo::state_to_mask(rng.below(4));
    for (int rep = 0; rep < 3; ++rep) cols.push_back(col);  // 2/3 duplicates
  }
  auto data = phylo::PatternMatrix::from_patterns(
      tree.taxon_names(), cols, std::vector<std::uint32_t>(cols.size(), 1));
  return {std::move(tree), std::move(data)};
}

// Locks the lnL value on the dense path, and that every duplicate column's
// root CLV row is bit-identical to its first occurrence's.
TEST(GoldenTest, DupHeavyInstanceLikelihood) {
  const DupHeavyInstance inst = dup_heavy_instance();
  ASSERT_EQ(inst.data.n_patterns(), 120u);

  core::SerialBackend b;
  core::PlfEngine e(inst.data, seqgen::default_gtr_params(), inst.tree, b,
                    core::KernelVariant::kScalar);
  EXPECT_NEAR(e.log_likelihood(), -1374.4493811520, 2e-3);
  const float* root = e.node_cl(e.tree().root());
  const std::size_t row = 4 * 4;  // K = 4 rate categories x 4 states
  for (std::size_t c = 0; c < inst.data.n_patterns(); ++c) {
    const std::size_t first = c - c % 3;
    EXPECT_EQ(std::memcmp(root + c * row, root + first * row,
                          row * sizeof(float)),
              0)
        << "site " << c;
  }
}

// A library-default engine on the threaded backend runs a whole evaluation
// — the plan, the scaler sums and the root reduction — as ONE pool region,
// whatever the data's duplicate structure. The 120-pattern instance is too
// small to repay a region (4 ops + the reduction over 120 sites is far below
// the grain cutoff), so it runs inline on the caller and opens none.
TEST(GoldenTest, DupHeavyFullPlanRunsAsOnePoolRegion) {
  const phylo::GtrParams params = seqgen::default_gtr_params();
  for (const int bases : {40, 2000}) {
    SCOPED_TRACE(::testing::Message() << bases << " distinct columns");
    const DupHeavyInstance inst = dup_heavy_instance(bases);
    par::ThreadPool pool(3);
    core::ThreadedBackend threaded(pool);
    core::PlfEngine e(inst.data, params, inst.tree, threaded);
    e.log_likelihood();

    e.set_model(params);  // dirties every internal node
    pool.reset_regions();
    e.log_likelihood();
    EXPECT_EQ(e.last_plan().n_ops(), inst.tree.n_internal());
    EXPECT_GT(e.last_plan().n_levels(), 1u);
    const std::size_t site_ops =
        inst.data.n_patterns() * (inst.tree.n_internal() + 1);
    const bool inline_side = bases == 40;
    ASSERT_EQ(threaded.runs_inline(site_ops), inline_side);
    EXPECT_EQ(pool.regions(), inline_side ? 0u : 1u);
  }
}

TEST(GoldenTest, FixedSeedMcmcTrajectory) {
  Rng rng(12002);
  auto tree = seqgen::yule_tree(7, rng, 1.0, 0.15);
  auto params = seqgen::default_gtr_params();
  phylo::SubstitutionModel model(params);
  seqgen::SequenceEvolver ev(tree, model);
  auto data = phylo::PatternMatrix::compress(ev.evolve(150, rng));
  core::SerialBackend b;
  core::PlfEngine e(data, params, tree, b);
  mcmc::McmcOptions o;
  o.seed = 777;
  mcmc::McmcChain chain(e, o);
  const auto r = chain.run(500);
  // The acceptance COUNT is locked exactly on this platform family; the
  // final lnL to a loose band (accept/reject flips would change the count
  // long before drifting the lnL this far).
  EXPECT_EQ(r.total_accepted(), 299u);
  EXPECT_NEAR(r.final_ln_likelihood, -456.5383879616, 1.0);
}

}  // namespace
}  // namespace plf
