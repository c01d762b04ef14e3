// Tip×tip (cherry) specialization of cond_like_down: both children are tips,
// so the output row is a pure gather from the per-pair table the engine
// precomputed (core/tip_partial.hpp TipPairTable). There is no arithmetic
// left to vectorize — the same entry point serves every KernelSet.
//
// Bit-identity: the table rows were computed with exactly the per-site float
// ops of the generic path (elementwise tip-partial product), so the gather
// reproduces the generic down result to the last ULP.
#include <cstring>

#include "core/kernel_contracts.hpp"
#include "core/kernels.hpp"

namespace plf::core::detail {

void down_tip_tip(const TipTipArgs& a, std::size_t begin, std::size_t end) {
  check_down_tt(a, begin, end);
  const std::size_t row = a.K * 4;
  for (std::size_t c = begin; c < end; ++c) {
    const std::size_t pair =
        static_cast<std::size_t>(a.left_mask[c]) * phylo::kNumMasks +
        static_cast<std::size_t>(a.right_mask[c]);
    std::memcpy(a.out + c * row, a.pair + pair * row, row * sizeof(float));
  }
}

}  // namespace plf::core::detail
