// Conformance suite for the tip-specialized PLF kernels (docs/KERNELS.md):
// the pair-table gather (down_tt) and the tip×inner entry (down_ti) must
// reproduce the generic path to the last ULP, and so must every plan op as
// the executors run it — the op's down/root kernel then `scale`, back to back
// on each site chunk — against generic down/root then `scale` over the whole
// span. Cases cover all kernel variants, all 15×15 valid ambiguity-mask
// pairs, K ∈ {1, 4, 5}, branch-length extremes, and the whole site range, an
// unaligned window of it, or uneven chunks of it. Comparisons are memcmp
// (0 ULP), because the backends substitute these entries freely and the
// engine's A/B guarantees (per-call vs plan dispatch) demand bit identity,
// not tolerance.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/kernels.hpp"
#include "core/tip_partial.hpp"
#include "phylo/dna.hpp"
#include "phylo/model.hpp"
#include "test_support.hpp"
#include "util/aligned.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace plf::core {
namespace {

using phylo::GtrParams;
using phylo::StateMask;
using phylo::SubstitutionModel;
using phylo::TransitionMatrices;

// All valid (nonzero) mask pairs, exhaustively: site c carries the pair
// (1 + c / 15, 1 + c % 15). Mask 0 never occurs in data (patterns always
// intersect at least one state), so 15×15 = 225 sites cover every reachable
// table entry.
constexpr std::size_t kValidMasks = phylo::kNumMasks - 1;
constexpr std::size_t kPairSites = kValidMasks * kValidMasks;

struct TipFixture {
  std::size_t m = kPairSites;
  std::size_t K;
  Rng rng{777};

  TransitionMatrices tm_l, tm_r, tm_o;
  TipPartial tp_l, tp_r, tp_o;
  TipPairTable pair;
  std::vector<StateMask> mask_l, mask_r, mask_o;
  aligned_vector<float> cl_r;  // internal right child (tip×inner)

  TipFixture(std::size_t K_, double branch_scale) : K(K_) {
    GtrParams p = test::random_gtr(rng, K);
    SubstitutionModel model(p);
    tm_l = model.transition_matrices(0.12 * branch_scale);
    tm_r = model.transition_matrices(0.31 * branch_scale);
    tm_o = model.transition_matrices(0.07 * branch_scale);
    tp_l = TipPartial(tm_l);
    tp_r = TipPartial(tm_r);
    tp_o = TipPartial(tm_o);
    pair = TipPairTable(tp_l, tp_r);
    mask_l.resize(m);
    mask_r.resize(m);
    for (std::size_t c = 0; c < m; ++c) {
      mask_l[c] = static_cast<StateMask>(1 + c / kValidMasks);
      mask_r[c] = static_cast<StateMask>(1 + c % kValidMasks);
    }
    mask_o = test::random_masks(m, rng);
    cl_r = test::random_cl(m, K, rng);
  }

  ChildArgs tip_left() const {
    ChildArgs ch;
    ch.mask = mask_l.data();
    ch.tp = tp_l.data();
    ch.p = tm_l.row_major();
    ch.pt = tm_l.col_major();
    return ch;
  }
  ChildArgs tip_right() const {
    ChildArgs ch;
    ch.mask = mask_r.data();
    ch.tp = tp_r.data();
    ch.p = tm_r.row_major();
    ch.pt = tm_r.col_major();
    return ch;
  }
  ChildArgs inner_right() const {
    ChildArgs ch;
    ch.cl = cl_r.data();
    ch.p = tm_r.row_major();
    ch.pt = tm_r.col_major();
    return ch;
  }

  TipTipArgs tt_args(float* out) const {
    TipTipArgs a;
    a.left_mask = mask_l.data();
    a.right_mask = mask_r.data();
    a.pair = pair.raw();
    a.out = out;
    a.K = K;
    a.table_categories = pair.n_categories();
    return a;
  }
};

void expect_bitwise_equal(const aligned_vector<float>& got,
                          const aligned_vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0);
}

// ---------------------------------------------------------------------------
// TipPairTable construction conformance.

TEST(TipPairTableTest, RawRowsAreExactTipPartialProducts) {
  TipFixture fx(4, 1.0);
  for (std::size_t lm = 0; lm < phylo::kNumMasks; ++lm) {
    for (std::size_t rm = 0; rm < phylo::kNumMasks; ++rm) {
      const std::size_t pair = lm * phylo::kNumMasks + rm;
      for (std::size_t v = 0; v < fx.K * 4; ++v) {
        const float want =
            fx.tp_l.data()[lm * fx.K * 4 + v] *
            fx.tp_r.data()[rm * fx.K * 4 + v];
        EXPECT_EQ(fx.pair.raw()[pair * fx.K * 4 + v], want)
            << "pair (" << lm << ", " << rm << ") entry " << v;
      }
    }
  }
}

TEST(TipPairTableTest, CategoryCountMismatchThrows) {
  Rng rng(5);
  SubstitutionModel m1(test::random_gtr(rng, 1));
  SubstitutionModel m4(test::random_gtr(rng, 4));
  const TipPartial a(m1.transition_matrices(0.1));
  const TipPartial b(m4.transition_matrices(0.1));
  EXPECT_THROW(TipPairTable(a, b), plf::Error);
}

// ---------------------------------------------------------------------------
// Kernel conformance, parameterized over
// (variant, K, branch-length scale, site range).

// How the kernel under test covers the sites. The reference always runs in
// one call over the case's span; the candidate runs over the same span:
//   kDense   — one call over every site;
//   kWindow  — one call over an unaligned sub-range; sites outside it must
//              stay untouched (both outputs start zeroed, so memcmp sees a
//              stray write);
//   kChunked — every site, in uneven chunks, the way ThreadedBackend splits
//              an op's range across workers.
enum class SiteRange { kDense, kWindow, kChunked };

using TipParam = std::tuple<KernelVariant, std::size_t /*K*/,
                            double /*branch scale*/, SiteRange>;

class TipKernelConformanceTest : public ::testing::TestWithParam<TipParam> {
 protected:
  static aligned_vector<float> zeros(std::size_t n) {
    return aligned_vector<float>(n, 0.0f);
  }

  // [begin, end) of the sites this case covers.
  static std::pair<std::size_t, std::size_t> span(std::size_t m) {
    if (std::get<3>(GetParam()) == SiteRange::kWindow) return {5, m - 7};
    return {0, m};
  }

  // Runs f(begin, end) over span(m), split into chunks under kChunked.
  template <class F>
  static void run(std::size_t m, F&& f) {
    const auto [b, e] = span(m);
    if (std::get<3>(GetParam()) != SiteRange::kChunked) {
      f(b, e);
      return;
    }
    const std::size_t c1 = b + (e - b) / 3;
    const std::size_t c2 = b + (e - b) / 2 + 1;
    f(b, c1);
    f(c1, c2);
    f(c2, e);
  }

  // One plan op as the executors run it — `op` then `scale`, back to back on
  // each chunk of run() — must equal `generic` then `scale` over the whole
  // span, bit for bit in the CLV and in the ln row. Both callbacks write
  // sites [lo, hi) of the CLV they are handed; all buffers start zeroed.
  template <class Generic, class Op>
  static void expect_op_then_scale_matches(const KernelSet& ks, std::size_t m,
                                           std::size_t K, Generic&& generic,
                                           Op&& op) {
    const auto [b, e] = span(m);
    aligned_vector<float> out_gen = zeros(m * K * 4);
    aligned_vector<float> out_op = zeros(m * K * 4);
    aligned_vector<float> ln_gen = zeros(m);
    aligned_vector<float> ln_op = zeros(m);

    const ScaleArgs s_gen{out_gen.data(), ln_gen.data(), K};
    generic(out_gen.data(), b, e);
    ks.scale(s_gen, b, e);

    const ScaleArgs s_op{out_op.data(), ln_op.data(), K};
    run(m, [&](std::size_t lo, std::size_t hi) {
      op(out_op.data(), lo, hi);
      ks.scale(s_op, lo, hi);
    });

    expect_bitwise_equal(out_op, out_gen);
    expect_bitwise_equal(ln_op, ln_gen);
  }
};

TEST_P(TipKernelConformanceTest, TipTipGatherMatchesGenericDown) {
  const auto [variant, K, scale, range] = GetParam();
  TipFixture fx(K, scale);
  const KernelSet& ks = kernels(variant);
  const auto [b, e] = span(fx.m);

  DownArgs generic;
  generic.left = fx.tip_left();
  generic.right = fx.tip_right();
  generic.K = K;

  aligned_vector<float> out_gen = zeros(fx.m * K * 4);
  aligned_vector<float> out_tt = zeros(fx.m * K * 4);
  generic.out = out_gen.data();
  ks.down(generic, b, e);
  TipTipArgs tt = fx.tt_args(out_tt.data());
  run(fx.m, [&](std::size_t lo, std::size_t hi) { ks.down_tt(tt, lo, hi); });
  expect_bitwise_equal(out_tt, out_gen);
}

TEST_P(TipKernelConformanceTest, TipInnerMatchesGenericDown) {
  const auto [variant, K, scale, range] = GetParam();
  TipFixture fx(K, scale);
  const KernelSet& ks = kernels(variant);
  const auto [b, e] = span(fx.m);

  DownArgs args;
  args.left = fx.tip_left();
  args.right = fx.inner_right();
  args.K = K;

  aligned_vector<float> out_gen = zeros(fx.m * K * 4);
  aligned_vector<float> out_ti = zeros(fx.m * K * 4);
  args.out = out_gen.data();
  ks.down(args, b, e);
  args.out = out_ti.data();
  run(fx.m, [&](std::size_t lo, std::size_t hi) { ks.down_ti(args, lo, hi); });
  expect_bitwise_equal(out_ti, out_gen);
}

TEST_P(TipKernelConformanceTest, DownThenScaleMatchesGenericPair) {
  const auto [variant, K, scale, range] = GetParam();
  TipFixture fx(K, scale);
  const KernelSet& ks = kernels(variant);
  // Generic inner×inner op (second random CLV as the left child).
  aligned_vector<float> cl_l = test::random_cl(fx.m, K, fx.rng);

  DownArgs args;
  args.left.cl = cl_l.data();
  args.left.p = fx.tm_l.row_major();
  args.left.pt = fx.tm_l.col_major();
  args.right = fx.inner_right();
  args.K = K;

  const auto down = [&](float* out, std::size_t lo, std::size_t hi) {
    DownArgs a = args;
    a.out = out;
    ks.down(a, lo, hi);
  };
  expect_op_then_scale_matches(ks, fx.m, K, down, down);
}

TEST_P(TipKernelConformanceTest, TipInnerThenScaleMatchesGenericPair) {
  const auto [variant, K, scale, range] = GetParam();
  TipFixture fx(K, scale);
  const KernelSet& ks = kernels(variant);

  DownArgs args;
  args.left = fx.tip_left();
  args.right = fx.inner_right();
  args.K = K;

  expect_op_then_scale_matches(
      ks, fx.m, K,
      [&](float* out, std::size_t lo, std::size_t hi) {
        DownArgs a = args;
        a.out = out;
        ks.down(a, lo, hi);
      },
      [&](float* out, std::size_t lo, std::size_t hi) {
        DownArgs a = args;
        a.out = out;
        ks.down_ti(a, lo, hi);
      });
}

TEST_P(TipKernelConformanceTest, TipTipThenScaleMatchesGenericPair) {
  const auto [variant, K, scale, range] = GetParam();
  TipFixture fx(K, scale);
  const KernelSet& ks = kernels(variant);

  DownArgs generic;
  generic.left = fx.tip_left();
  generic.right = fx.tip_right();
  generic.K = K;

  expect_op_then_scale_matches(
      ks, fx.m, K,
      [&](float* out, std::size_t lo, std::size_t hi) {
        DownArgs a = generic;
        a.out = out;
        ks.down(a, lo, hi);
      },
      [&](float* out, std::size_t lo, std::size_t hi) {
        ks.down_tt(fx.tt_args(out), lo, hi);
      });
}

TEST_P(TipKernelConformanceTest, RootThenScaleMatchesGenericPair) {
  const auto [variant, K, scale, range] = GetParam();
  TipFixture fx(K, scale);
  const KernelSet& ks = kernels(variant);

  RootArgs args;
  args.down.left = fx.tip_left();
  args.down.right = fx.inner_right();
  args.down.K = K;
  args.out_mask = fx.mask_o.data();
  args.out_tp = fx.tp_o.data();

  const auto root = [&](float* out, std::size_t lo, std::size_t hi) {
    RootArgs a = args;
    a.down.out = out;
    ks.root(a, lo, hi);
  };
  expect_op_then_scale_matches(ks, fx.m, K, root, root);
}

TEST_P(TipKernelConformanceTest, TipTipRangeSplitEqualsWholeRange) {
  const auto [variant, K, scale, range] = GetParam();
  TipFixture fx(K, scale);
  const KernelSet& ks = kernels(variant);
  const auto [b, e] = span(fx.m);
  const std::size_t n = e - b;

  aligned_vector<float> whole = zeros(fx.m * K * 4);
  aligned_vector<float> split = zeros(fx.m * K * 4);
  TipTipArgs tw = fx.tt_args(whole.data());
  ks.down_tt(tw, b, e);
  TipTipArgs ts = fx.tt_args(split.data());
  ks.down_tt(ts, b, b + n / 3);
  ks.down_tt(ts, b + n / 3, b + n / 2 + 1);
  ks.down_tt(ts, b + n / 2 + 1, e);
  expect_bitwise_equal(split, whole);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, TipKernelConformanceTest,
    ::testing::Combine(
        ::testing::ValuesIn(test::kAllKernelVariants),
        // Category counts: one, the usual four, and an odd count above four
        // (the same set RootKernelTest sweeps).
        ::testing::Values(1u, 4u, 5u),
        // Branch-length scale factors: near-zero branches (transition matrix
        // ~identity, tip rows hit the 0/1 extremes), typical, and
        // near-saturation (rows flatten toward the stationary distribution).
        ::testing::Values(1e-5, 1.0, 250.0),
        ::testing::Values(SiteRange::kDense, SiteRange::kWindow,
                          SiteRange::kChunked)),
    [](const ::testing::TestParamInfo<TipParam>& info) {
      std::string name = to_string(std::get<0>(info.param));
      for (auto& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      const double s = std::get<2>(info.param);
      const char* stag = s < 1e-3 ? "tiny" : (s > 10.0 ? "huge" : "mid");
      const SiteRange r = std::get<3>(info.param);
      const char* rtag = r == SiteRange::kDense
                             ? "_dense"
                             : (r == SiteRange::kWindow ? "_window"
                                                        : "_chunked");
      return name + "_K" + std::to_string(std::get<1>(info.param)) + "_" +
             stag + rtag;
    });

}  // namespace
}  // namespace plf::core
