// SIMD "approach (ii)" from the paper (§3.3): vectorize ACROSS the four
// inner products of one matrix-vector multiply. The accumulator holds the
// four output states; each step broadcasts one element of the child's rate
// array and multiplies it with one COLUMN of the transition matrix (a row of
// the precomputed transpose), fused-multiply-accumulating. No horizontal
// reduction is needed until the very end of the likelihood computation.
// The paper measured this 2x faster at the PLF level on the SPU and adopted
// it; it maps 1:1 onto SSE here.
//
// kSimdCol8 widens the same scheme to 8 lanes (two rate categories per
// register), a modern-host extension the 2009 hardware did not have.
#include "core/kernel_contracts.hpp"
#include "core/kernels.hpp"
#include "simd/vec4f.hpp"
#include "simd/vec8f.hpp"

namespace plf::core {

namespace detail {
extern const ScaleFn kSharedSimdScale;
extern const RootReduceFn kSharedSimdRootReduce;
}  // namespace detail

namespace {

using simd::Vec4f;
using simd::Vec8f;

/// Column-wise matrix-vector multiply: broadcast cl[j], FMA with transposed
/// row j.
inline Vec4f matvec_cols(const float* pt, const float* cl) {
  Vec4f acc = Vec4f(cl[0]) * Vec4f::load(pt + 0);
  acc = Vec4f::fma(Vec4f(cl[1]), Vec4f::load(pt + 4), acc);
  acc = Vec4f::fma(Vec4f(cl[2]), Vec4f::load(pt + 8), acc);
  acc = Vec4f::fma(Vec4f(cl[3]), Vec4f::load(pt + 12), acc);
  return acc;
}

/// One child's factor for (c, k): column-wise accumulation over j.
inline Vec4f child_values(const ChildArgs& ch, std::size_t c, std::size_t k,
                          std::size_t K) {
  if (ch.is_tip()) {
    return Vec4f::load(ch.tp + static_cast<std::size_t>(ch.mask[c]) * K * 4 +
                       k * 4);
  }
  return matvec_cols(ch.pt + k * 16, ch.cl + c * K * 4 + k * 4);
}

inline void down_site(std::size_t c, const DownArgs& a) {
  float* out = a.out + c * a.K * 4;
  for (std::size_t k = 0; k < a.K; ++k) {
    const Vec4f l = child_values(a.left, c, k, a.K);
    const Vec4f r = child_values(a.right, c, k, a.K);
    (l * r).store(out + k * 4);
  }
}

/// down_site with the child kinds known statically (left tip, right inner).
inline void down_ti_site(std::size_t c, const DownArgs& a) {
  float* out = a.out + c * a.K * 4;
  const float* ltp =
      a.left.tp + static_cast<std::size_t>(a.left.mask[c]) * a.K * 4;
  const float* rcl = a.right.cl + c * a.K * 4;
  for (std::size_t k = 0; k < a.K; ++k) {
    const Vec4f l = Vec4f::load(ltp + k * 4);
    const Vec4f r = matvec_cols(a.right.pt + k * 16, rcl + k * 4);
    (l * r).store(out + k * 4);
  }
}

inline void root_site(std::size_t c, const RootArgs& a) {
  const DownArgs& d = a.down;
  float* out = d.out + c * d.K * 4;
  const float* tp = a.out_tp + static_cast<std::size_t>(a.out_mask[c]) * d.K * 4;
  for (std::size_t k = 0; k < d.K; ++k) {
    const Vec4f l = child_values(d.left, c, k, d.K);
    const Vec4f r = child_values(d.right, c, k, d.K);
    const Vec4f o = Vec4f::load(tp + k * 4);
    (l * r * o).store(out + k * 4);
  }
}

void down_col(const DownArgs& a, std::size_t begin, std::size_t end) {
  detail::check_down(a, begin, end, /*needs_transpose=*/true);
  detail::check_down_aligned(a);
  for (std::size_t c = begin; c < end; ++c) down_site(c, a);
}

void down_ti_col(const DownArgs& a, std::size_t begin, std::size_t end) {
  detail::check_down_ti(a, begin, end, /*needs_transpose=*/true);
  detail::check_down_aligned(a);
  for (std::size_t c = begin; c < end; ++c) down_ti_site(c, a);
}

void root_col(const RootArgs& a, std::size_t begin, std::size_t end) {
  detail::check_root(a, begin, end, /*needs_transpose=*/true);
  detail::check_root_aligned(a);
  for (std::size_t c = begin; c < end; ++c) root_site(c, a);
}

/// Two categories (k, k+1) at once in one 8-wide register.
inline Vec8f child_values8(const ChildArgs& ch, std::size_t c, std::size_t k,
                           std::size_t K) {
  if (ch.is_tip()) {
    return Vec8f::loadu(ch.tp + static_cast<std::size_t>(ch.mask[c]) * K * 4 +
                       k * 4);
  }
  const float* cl = ch.cl + c * K * 4 + k * 4;  // 8 contiguous floats: k, k+1
  const float* pt0 = ch.pt + k * 16;
  const float* pt1 = ch.pt + (k + 1) * 16;
  Vec8f acc = Vec8f::combine(Vec4f(cl[0]), Vec4f(cl[4])) *
              Vec8f::combine(Vec4f::load(pt0 + 0), Vec4f::load(pt1 + 0));
  acc = Vec8f::fma(Vec8f::combine(Vec4f(cl[1]), Vec4f(cl[5])),
                   Vec8f::combine(Vec4f::load(pt0 + 4), Vec4f::load(pt1 + 4)),
                   acc);
  acc = Vec8f::fma(Vec8f::combine(Vec4f(cl[2]), Vec4f(cl[6])),
                   Vec8f::combine(Vec4f::load(pt0 + 8), Vec4f::load(pt1 + 8)),
                   acc);
  acc = Vec8f::fma(Vec8f::combine(Vec4f(cl[3]), Vec4f(cl[7])),
                   Vec8f::combine(Vec4f::load(pt0 + 12), Vec4f::load(pt1 + 12)),
                   acc);
  return acc;
}

/// child_values8 with the tip table row known present (left tip child).
inline Vec8f tip_values8(const float* tp, std::size_t mask, std::size_t k,
                         std::size_t K) {
  return Vec8f::loadu(tp + mask * K * 4 + k * 4);
}

inline void down_site8(std::size_t c, const DownArgs& a, std::size_t k_pairs) {
  float* out = a.out + c * a.K * 4;
  std::size_t k = 0;
  for (; k < k_pairs; k += 2) {
    const Vec8f l = child_values8(a.left, c, k, a.K);
    const Vec8f r = child_values8(a.right, c, k, a.K);
    (l * r).storeu(out + k * 4);
  }
  for (; k < a.K; ++k) {
    const Vec4f l = child_values(a.left, c, k, a.K);
    const Vec4f r = child_values(a.right, c, k, a.K);
    (l * r).store(out + k * 4);
  }
}

inline void down_ti_site8(std::size_t c, const DownArgs& a,
                          std::size_t k_pairs) {
  float* out = a.out + c * a.K * 4;
  const std::size_t lm = static_cast<std::size_t>(a.left.mask[c]);
  const float* rcl = a.right.cl + c * a.K * 4;
  std::size_t k = 0;
  for (; k < k_pairs; k += 2) {
    const Vec8f l = tip_values8(a.left.tp, lm, k, a.K);
    const float* pt0 = a.right.pt + k * 16;
    const float* pt1 = a.right.pt + (k + 1) * 16;
    const float* cl = rcl + k * 4;
    Vec8f r = Vec8f::combine(Vec4f(cl[0]), Vec4f(cl[4])) *
              Vec8f::combine(Vec4f::load(pt0 + 0), Vec4f::load(pt1 + 0));
    r = Vec8f::fma(Vec8f::combine(Vec4f(cl[1]), Vec4f(cl[5])),
                   Vec8f::combine(Vec4f::load(pt0 + 4), Vec4f::load(pt1 + 4)),
                   r);
    r = Vec8f::fma(Vec8f::combine(Vec4f(cl[2]), Vec4f(cl[6])),
                   Vec8f::combine(Vec4f::load(pt0 + 8), Vec4f::load(pt1 + 8)),
                   r);
    r = Vec8f::fma(Vec8f::combine(Vec4f(cl[3]), Vec4f(cl[7])),
                   Vec8f::combine(Vec4f::load(pt0 + 12), Vec4f::load(pt1 + 12)),
                   r);
    (l * r).storeu(out + k * 4);
  }
  for (; k < a.K; ++k) {
    const Vec4f l = Vec4f::load(a.left.tp + lm * a.K * 4 + k * 4);
    const Vec4f r = matvec_cols(a.right.pt + k * 16, rcl + k * 4);
    (l * r).store(out + k * 4);
  }
}

inline void root_site8(std::size_t c, const RootArgs& a, std::size_t k_pairs) {
  const DownArgs& d = a.down;
  float* out = d.out + c * d.K * 4;
  const float* tp = a.out_tp + static_cast<std::size_t>(a.out_mask[c]) * d.K * 4;
  std::size_t k = 0;
  for (; k < k_pairs; k += 2) {
    const Vec8f l = child_values8(d.left, c, k, d.K);
    const Vec8f r = child_values8(d.right, c, k, d.K);
    const Vec8f o = Vec8f::loadu(tp + k * 4);
    (l * r * o).storeu(out + k * 4);
  }
  for (; k < d.K; ++k) {
    const Vec4f l = child_values(d.left, c, k, d.K);
    const Vec4f r = child_values(d.right, c, k, d.K);
    const Vec4f o = Vec4f::load(tp + k * 4);
    (l * r * o).store(out + k * 4);
  }
}

void down_col8(const DownArgs& a, std::size_t begin, std::size_t end) {
  detail::check_down(a, begin, end, /*needs_transpose=*/true);
  detail::check_down_aligned(a);
  const std::size_t k_pairs = a.K / 2 * 2;
  for (std::size_t c = begin; c < end; ++c) down_site8(c, a, k_pairs);
}

void down_ti_col8(const DownArgs& a, std::size_t begin, std::size_t end) {
  detail::check_down_ti(a, begin, end, /*needs_transpose=*/true);
  detail::check_down_aligned(a);
  const std::size_t k_pairs = a.K / 2 * 2;
  for (std::size_t c = begin; c < end; ++c) down_ti_site8(c, a, k_pairs);
}

void root_col8(const RootArgs& a, std::size_t begin, std::size_t end) {
  detail::check_root(a, begin, end, /*needs_transpose=*/true);
  detail::check_root_aligned(a);
  const std::size_t k_pairs = a.down.K / 2 * 2;
  for (std::size_t c = begin; c < end; ++c) root_site8(c, a, k_pairs);
}

}  // namespace

namespace detail {
extern const KernelSet kSimdColKernels;
const KernelSet kSimdColKernels{KernelVariant::kSimdCol,
                                down_col,
                                root_col,
                                kSharedSimdScale,
                                kSharedSimdRootReduce,
                                down_ti_col,
                                down_tip_tip};
extern const KernelSet kSimdCol8Kernels;
const KernelSet kSimdCol8Kernels{KernelVariant::kSimdCol8,
                                 down_col8,
                                 root_col8,
                                 kSharedSimdScale,
                                 kSharedSimdRootReduce,
                                 down_ti_col8,
                                 down_tip_tip};
}  // namespace detail

}  // namespace plf::core
