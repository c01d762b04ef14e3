// Cross-backend differential harness for the plan-dispatch path.
//
// Property under test: batched PlfPlan dispatch only regroups and fuses the
// identical per-site kernel work, so a plan-dispatch engine must match its
// per-call twin (the same backend wrapped in core::PerCallBackend) BIT FOR BIT — 0 ULP, not "close" — on every backend × variant
// combination, through proposals and rejects. Across backends and variants
// the summation order changes, so those comparisons get per-backend tolerances
// (ULP bounds on CLV entries, relative bounds on lnL against an independent
// double-precision reference).
//
// Inputs are randomized with realistic structure: Yule trees and Seq-Gen
// style evolved alignments, swept over branch-length extremes (near-zero,
// typical, saturated) and gamma-rate-category counts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <tuple>
#include <vector>

#include "cell/machine.hpp"
#include "core/backend.hpp"
#include "core/engine.hpp"
#include "gpu/plf_gpu.hpp"
#include "phylo/patterns.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "test_support.hpp"

namespace plf::core {
namespace {

enum class BackendKind { kSerial, kThreaded, kCell, kGpu };

const char* name_of(BackendKind b) {
  switch (b) {
    case BackendKind::kSerial: return "serial";
    case BackendKind::kThreaded: return "threaded";
    case BackendKind::kCell: return "cell";
    case BackendKind::kGpu: return "gpu";
  }
  return "?";
}

struct BackendHolder {
  std::unique_ptr<par::ThreadPool> pool;
  std::unique_ptr<ExecutionBackend> backend;
  std::unique_ptr<PerCallBackend> per_call;  ///< set by make(kind, true)

  /// What an engine runs on: the backend, or per-call dispatch over it.
  ExecutionBackend& executor() { return per_call ? *per_call : *backend; }

  static BackendHolder make(BackendKind kind, bool per_call = false) {
    BackendHolder h;
    switch (kind) {
      case BackendKind::kSerial:
        h.backend = std::make_unique<SerialBackend>();
        break;
      case BackendKind::kThreaded:
        h.pool = std::make_unique<par::ThreadPool>(3);
        h.backend = std::make_unique<ThreadedBackend>(*h.pool);
        break;
      case BackendKind::kCell: {
        cell::CellConfig cfg;
        cfg.n_spes = 4;
        h.backend = std::make_unique<cell::CellMachine>(cfg);
        break;
      }
      case BackendKind::kGpu:
        h.backend = std::make_unique<gpu::GpuPlf>(gpu::GpuPlfConfig{});
        break;
    }
    if (per_call) h.per_call = std::make_unique<PerCallBackend>(*h.backend);
    return h;
  }
};

/// ULP distance between two finite same-sign floats (CLV entries are
/// non-negative, so the monotone integer reinterpretation applies directly).
std::uint32_t ulp_distance(float a, float b) {
  std::uint32_t ia, ib;
  std::memcpy(&ia, &a, sizeof(float));
  std::memcpy(&ib, &b, sizeof(float));
  return ia > ib ? ia - ib : ib - ia;
}

/// Relative lnL tolerance vs the double-precision reference. The simulated
/// accelerators run the identical float kernels, but their partitioning
/// changes the root-reduce summation order, so they get a little headroom.
double lnl_rel_tol(BackendKind b) {
  switch (b) {
    case BackendKind::kSerial:
    case BackendKind::kThreaded: return 2e-4;
    case BackendKind::kCell:
    case BackendKind::kGpu: return 3e-4;
  }
  return 2e-4;
}

struct Dataset {
  phylo::Tree tree;
  phylo::GtrParams params;
  phylo::PatternMatrix data;
  double ref_lnl = 0.0;
};

/// Column counts on either side of ThreadedBackend's grain cutoff (pinned
/// with runs_inline below): the plan twin runs every evaluation of a
/// 120-column set inline and opens one region for each of a 4096-column set.
/// The default 240 columns straddle the cutoff.
constexpr std::size_t kInlineColumns = 120;
constexpr std::size_t kRegionColumns = 4096;

Dataset make_dataset(std::uint64_t seed, std::size_t K, double branch_scale,
                     std::size_t columns = 240) {
  Rng rng(seed);
  Dataset d{seqgen::yule_tree(9, rng, 1.0, branch_scale),
            seqgen::default_gtr_params(), {}, 0.0};
  d.params.n_rate_categories = K;
  phylo::SubstitutionModel model(d.params);
  seqgen::SequenceEvolver ev(d.tree, model);
  // Keep the raw columns instead of compressing to distinct patterns:
  // near-identical sequences at the small branch scale would otherwise
  // collapse to a handful of patterns, and duplicate-heavy data is the
  // realistic shape of an uncompressed alignment.
  const phylo::Alignment aln = ev.evolve(columns, rng);
  std::vector<std::vector<phylo::StateMask>> cols(aln.n_columns());
  for (std::size_t c = 0; c < aln.n_columns(); ++c) {
    cols[c].resize(aln.n_taxa());
    for (std::size_t t = 0; t < aln.n_taxa(); ++t) cols[c][t] = aln.at(t, c);
  }
  d.data = phylo::PatternMatrix::from_patterns(
      aln.names(), cols, std::vector<std::uint32_t>(cols.size(), 1));
  d.ref_lnl = test::reference_log_likelihood(d.tree, model, d.data);
  return d;
}

using Param = std::tuple<BackendKind, KernelVariant>;

class BackendDiffTest : public ::testing::TestWithParam<Param> {};

TEST_P(BackendDiffTest, PerCallAndPlanAgreeBitwiseAndMatchReference) {
  const BackendKind kind = std::get<0>(GetParam());
  const KernelVariant variant = std::get<1>(GetParam());

  // Branch-length extremes: near-zero (sequences nearly identical, and CLVs
  // hug the tip partials), typical, and saturated (CLVs converge toward pi);
  // plus one typical set on each side of the threaded grain cutoff.
  struct Case {
    double scale;
    std::size_t K;
    std::uint64_t seed;
    std::size_t columns;
  };
  std::vector<Case> cases;
  for (const double scale : {0.0005, 0.1, 2.5}) {
    for (const std::size_t K : {std::size_t{1}, std::size_t{4}}) {
      for (const std::uint64_t seed : {11ull, 23ull}) {
        cases.push_back({scale, K, seed, 240});
      }
    }
  }
  cases.push_back({0.1, 4, 11, kInlineColumns});
  cases.push_back({0.1, 4, 11, kRegionColumns});
  for (const auto& [scale, K, seed, columns] : cases) {
    SCOPED_TRACE(::testing::Message()
                 << "backend=" << name_of(kind)
                 << " variant=" << to_string(variant) << " scale=" << scale
                 << " K=" << K << " seed=" << seed
                 << " columns=" << columns);
    const Dataset d = make_dataset(seed, K, scale, columns);
    const std::size_t m = d.data.n_patterns();

    // Twins: same backend kind, same variant — only the executor
    // differs (PerCallBackend's per-op loop vs the backend's own
    // run_plan). Every comparison between them below is exact
    // (EXPECT_EQ, memcmp), which is the acceptance bar for the PlfPlan
    // refactor: batching and fusing must not move a single bit on any
    // backend.
    BackendHolder h_call = BackendHolder::make(kind, /*per_call=*/true);
    BackendHolder h_plan = BackendHolder::make(kind);
    PlfEngine percall(d.data, d.params, d.tree, h_call.executor(),
                      variant);
    PlfEngine plan(d.data, d.params, d.tree, h_plan.executor(), variant);

    // Bit-identical lnL and root CLVs, and the plan path must actually
    // have built plans.
    const double lnl = percall.log_likelihood();
    EXPECT_EQ(lnl, plan.log_likelihood());
    EXPECT_EQ(std::memcmp(percall.node_cl(percall.tree().root()),
                          plan.node_cl(plan.tree().root()),
                          m * K * 4 * sizeof(float)),
              0);
    EXPECT_GT(plan.stats().plan_builds, 0u);
    EXPECT_GT(plan.stats().plan_ops, 0u);
    // Identical work, batched: the kernel-call accounting must agree (the
    // sites the kernels iterate are m * (2 * plan_ops + reduce_calls)).
    EXPECT_EQ(percall.stats().plan_ops, plan.stats().plan_ops);
    EXPECT_EQ(percall.stats().reduce_calls, plan.stats().reduce_calls);

    // Tip specialization: on tip-capable backends the plan engine must
    // have routed cherries through the pair-table gather (every binary
    // tree with more than one internal node has a cherry below the
    // root), while the per-call engine stays fully generic — it is the
    // exact A/B baseline the bitwise comparisons above rely on.
    EXPECT_EQ(percall.stats().tip_tt_ops, 0u);
    EXPECT_EQ(percall.stats().tip_ti_ops, 0u);
    EXPECT_EQ(percall.stats().tip_tables_built, 0u);
    if (has_capability(h_plan.backend->capabilities(),
                       Capabilities::kTipKernels)) {
      EXPECT_GT(plan.stats().tip_tt_ops, 0u);
      EXPECT_GT(plan.stats().tip_tables_built, 0u);
    } else {
      EXPECT_EQ(plan.stats().tip_tt_ops, 0u);
      EXPECT_EQ(plan.stats().tip_tables_built, 0u);
    }

    // Both must agree with the independent double-precision pruning
    // reference within the backend's tolerance.
    EXPECT_NEAR(lnl, d.ref_lnl, std::abs(d.ref_lnl) * lnl_rel_tol(kind));

    // Mid-run differential: a branch-length move plus an NNI proposal
    // exercises partial plans plus the incremental scaler-total path
    // under this backend; the twins must stay bitwise-locked through it.
    for (PlfEngine* e : {&percall, &plan}) {
      e->set_branch_length(e->tree().leaf_of(1), 1.7);
    }
    const auto edges = percall.tree().internal_edge_nodes();
    ASSERT_FALSE(edges.empty());
    for (PlfEngine* e : {&percall, &plan}) {
      e->begin_proposal();
      e->apply_nni(edges.front(), true);
    }
    EXPECT_EQ(percall.log_likelihood(), plan.log_likelihood());
    for (PlfEngine* e : {&percall, &plan}) e->reject();
    EXPECT_EQ(percall.log_likelihood(), plan.log_likelihood());

    if (kind == BackendKind::kThreaded) {
      // Each plan-twin evaluation had ops; the smallest had one.
      const auto& threaded =
          static_cast<const ThreadedBackend&>(*h_plan.backend);
      if (columns == kInlineColumns) {
        ASSERT_TRUE(threaded.runs_inline(m * (d.tree.n_internal() + 1)));
        EXPECT_EQ(h_plan.pool->regions(), 0u);
      } else if (columns == kRegionColumns) {
        ASSERT_FALSE(threaded.runs_inline(2 * m));
        EXPECT_EQ(h_plan.pool->regions(),
                  plan.stats().plan_builds);
      }
    }
  }
}

// Scalar and SIMD variants reorder the per-entry dot products, so their CLVs
// are not bit-identical — but they must stay within a small ULP envelope.
TEST(BackendDiffCrossVariantTest, ScalarVsSimdColWithinUlpEnvelope) {
  constexpr std::uint32_t kMaxUlp = 256;
  for (const double scale : {0.0005, 0.1, 2.5}) {
    SCOPED_TRACE(::testing::Message() << "scale=" << scale);
    const Dataset d = make_dataset(31, 4, scale);
    const std::size_t m = d.data.n_patterns();
    SerialBackend b1, b2;
    PlfEngine scalar(d.data, d.params, d.tree, b1, KernelVariant::kScalar);
    PlfEngine simd(d.data, d.params, d.tree, b2, KernelVariant::kSimdCol);
    EXPECT_NEAR(scalar.log_likelihood(), simd.log_likelihood(),
                std::abs(d.ref_lnl) * 2e-5);
    const float* a = scalar.node_cl(scalar.tree().root());
    const float* b = simd.node_cl(simd.tree().root());
    std::uint32_t worst = 0;
    for (std::size_t i = 0; i < m * 4 * 4; ++i) {
      worst = std::max(worst, ulp_distance(a[i], b[i]));
    }
    EXPECT_LE(worst, kMaxUlp);
  }
}

// Serial and threaded backends run the same kernel over different partitions
// of the same index range; partitioning must not change a single bit.
TEST(BackendDiffCrossBackendTest, SerialVsThreadedBitIdentical) {
  const Dataset d = make_dataset(47, 4, 0.1);
  const std::size_t m = d.data.n_patterns();
  BackendHolder hs = BackendHolder::make(BackendKind::kSerial);
  BackendHolder ht = BackendHolder::make(BackendKind::kThreaded);
  PlfEngine serial(d.data, d.params, d.tree, *hs.backend);
  PlfEngine threaded(d.data, d.params, d.tree, *ht.backend);
  serial.log_likelihood();
  threaded.log_likelihood();
  EXPECT_EQ(std::memcmp(serial.node_cl(serial.tree().root()),
                        threaded.node_cl(threaded.tree().root()),
                        m * 4 * 4 * sizeof(float)),
            0);
}

// --- budgeted CLV arena differential ----------------------------------------
//
// A budgeted engine rematerializes evicted CLVs through the same kernels the
// unbudgeted twin used to compute them, so eviction must not move a single
// bit on ANY backend, under EITHER executor (PerCallBackend or the backend's
// own run_plan). The twins'
// kernel-call accounting legitimately differs (rematerialization is extra
// work), so only lnL and CLV bits are compared — never stats.

/// (backend, per_call): per_call runs both twins through PerCallBackend.
using BudgetParam = std::tuple<BackendKind, bool>;

class BudgetedDiffTest : public ::testing::TestWithParam<BudgetParam> {};

TEST_P(BudgetedDiffTest, HalfBudgetBitIdenticalToUnbudgetedTwin) {
  const auto [kind, per_call] = GetParam();
  const Dataset d = make_dataset(59, 4, 0.1);
  const std::size_t m = d.data.n_patterns();

  BackendHolder h_budget = BackendHolder::make(kind, per_call);
  BackendHolder h_full = BackendHolder::make(kind, per_call);
  ClvBudget half;
  half.kind = ClvBudget::Kind::kFraction;
  half.fraction = 0.5;  // the minimum feasible working set
  PlfEngine budgeted(d.data, d.params, d.tree, h_budget.executor(),
                     KernelVariant::kSimdCol, half);
  PlfEngine full(d.data, d.params, d.tree, h_full.executor(),
                 KernelVariant::kSimdCol);

  EXPECT_EQ(budgeted.log_likelihood(), full.log_likelihood());

  // Branch moves, an NNI proposal with reject, and a double-move proposal:
  // enough churn that the half-size arena must recycle buffers.
  Rng rng(59);
  for (int step = 0; step < 12; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    for (PlfEngine* e : {&budgeted, &full}) e->begin_proposal();
    if (step % 3 == 0) {
      const auto edges = budgeted.tree().internal_edge_nodes();
      ASSERT_FALSE(edges.empty());
      const int v = edges[rng.below(edges.size())];
      for (PlfEngine* e : {&budgeted, &full}) e->apply_nni(v, true);
    } else {
      int node;
      do {
        node = static_cast<int>(rng.below(budgeted.tree().n_nodes()));
      } while (node == budgeted.tree().root());
      const double len = rng.uniform(0.01, 1.2);
      for (PlfEngine* e : {&budgeted, &full}) e->set_branch_length(node, len);
    }
    EXPECT_EQ(budgeted.log_likelihood(), full.log_likelihood());
    EXPECT_LE(budgeted.arena().resident_bytes(),
              budgeted.arena().budget_bytes());
    if (step % 2 == 0) {
      for (PlfEngine* e : {&budgeted, &full}) e->accept();
    } else {
      for (PlfEngine* e : {&budgeted, &full}) e->reject();
    }
    EXPECT_EQ(budgeted.log_likelihood(), full.log_likelihood());
  }

  // A final accepted evaluation guarantees the root CLV is resident before
  // reading it raw: a reject may legitimately restore an evicted buffer
  // (node_cl on it PLF_CHECKs; the next dirty evaluation rematerializes).
  for (PlfEngine* e : {&budgeted, &full}) {
    e->set_branch_length(e->tree().leaf_of(0), 0.42);
  }
  EXPECT_EQ(budgeted.log_likelihood(), full.log_likelihood());
  EXPECT_EQ(std::memcmp(budgeted.node_cl(budgeted.tree().root()),
                        full.node_cl(full.tree().root()),
                        m * 4 * 4 * sizeof(float)),
            0);
  EXPECT_GT(budgeted.arena().counters().evictions, 0u);
  EXPECT_EQ(full.arena().counters().evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BudgetedDiffTest,
    ::testing::Combine(
        ::testing::Values(BackendKind::kSerial, BackendKind::kThreaded,
                          BackendKind::kCell, BackendKind::kGpu),
        ::testing::Values(true, false)),
    [](const ::testing::TestParamInfo<BudgetParam>& info) {
      return std::string(name_of(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_percall" : "_plan");
    });

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendDiffTest,
    ::testing::Combine(
        ::testing::Values(BackendKind::kSerial, BackendKind::kThreaded,
                          BackendKind::kCell, BackendKind::kGpu),
        ::testing::ValuesIn(test::kAllKernelVariants)),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string v = to_string(std::get<1>(info.param));
      for (auto& c : v) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return std::string(name_of(std::get<0>(info.param))) + "_" + v;
    });

}  // namespace
}  // namespace plf::core
