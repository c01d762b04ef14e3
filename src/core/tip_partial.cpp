#include "core/tip_partial.hpp"

#include "phylo/dna.hpp"
#include "util/contracts.hpp"

namespace plf::core {

TipPartial::TipPartial(const phylo::TransitionMatrices& tm)
    : table_(phylo::kNumMasks * tm.n_categories() * 4, 0.0f),
      k_(tm.n_categories()) {
  const float* p = tm.row_major();
  for (std::size_t mask = 0; mask < phylo::kNumMasks; ++mask) {
    for (std::size_t k = 0; k < k_; ++k) {
      for (std::size_t i = 0; i < 4; ++i) {
        float s = 0.0f;
        for (std::size_t j = 0; j < 4; ++j) {
          if ((mask >> j) & 1u) s += p[k * 16 + i * 4 + j];
        }
        table_[mask * k_ * 4 + k * 4 + i] = s;
      }
    }
  }
}

TipPairTable::TipPairTable(const TipPartial& left, const TipPartial& right)
    : raw_(phylo::kNumMasks * phylo::kNumMasks * left.n_categories() * 4),
      k_(left.n_categories()) {
  PLF_CHECK(left.n_categories() == right.n_categories() && k_ >= 1,
            "TipPairTable: child tables disagree on rate categories");
  const std::size_t row = k_ * 4;
  for (std::size_t lm = 0; lm < phylo::kNumMasks; ++lm) {
    for (std::size_t rm = 0; rm < phylo::kNumMasks; ++rm) {
      const float* l = left.data() + lm * row;
      const float* r = right.data() + rm * row;
      float* raw = raw_.data() + (lm * phylo::kNumMasks + rm) * row;
      for (std::size_t v = 0; v < row; ++v) raw[v] = l[v] * r[v];
    }
  }
}

}  // namespace plf::core
