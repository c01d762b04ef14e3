// SIMD "approach (ii)" from the paper (§3.3): vectorize ACROSS the four
// inner products of one matrix-vector multiply. The accumulator holds the
// four output states; each step broadcasts one element of the child's rate
// array and multiplies it with one COLUMN of the transition matrix (a row of
// the precomputed transpose), fused-multiply-accumulating. No horizontal
// reduction is needed until the very end of the likelihood computation.
// The paper measured this 2x faster at the PLF level on the SPU and adopted
// it; it maps 1:1 onto SSE here.
#include "core/kernel_contracts.hpp"
#include "core/kernels.hpp"
#include "simd/vec4f.hpp"

namespace plf::core {

namespace detail {
extern const ScaleFn kSharedSimdScale;
extern const RootReduceFn kSharedSimdRootReduce;
}  // namespace detail

namespace {

using simd::Vec4f;

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
}  // namespace detail

}  // namespace plf::core
