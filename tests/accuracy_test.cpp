// Accuracy envelope against a scaled long-double reference at scale.
//
// The engine computes in single precision and rescales every node by its
// per-site maximum (CondLikeScaler). These tests compare its log likelihood
// with test::scaled_reference_log_likelihood at 100, 500 and 2000 taxa, for
// every kernel variant on the serial and threaded backends, and hold both
// the absolute and the relative error under a fixed envelope. A change to
// the scaling scheme must stay inside it.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstddef>
#include <map>
#include <string>
#include <tuple>

#include "core/backend.hpp"
#include "core/engine.hpp"
#include "par/thread_pool.hpp"
#include "phylo/patterns.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace plf::core {
namespace {

struct Envelope {
  std::size_t taxa;
  double max_abs;  ///< bound on |lnL - reference|
  double max_rel;  ///< bound on |lnL - reference| / |reference|
};

// Each bound is the largest error measured over every variant and backend
// when this envelope was set, times 4 (measured: 100 taxa 4.08e-5 / 3.37e-8,
// 500 taxa 1.76e-4 / 3.73e-8, 2000 taxa 6.17e-4 / 2.72e-8).
constexpr Envelope kEnvelopes[] = {
    {100, 1.7e-4, 1.4e-7},
    {500, 7.1e-4, 1.5e-7},
    {2000, 2.5e-3, 1.1e-7},
};

/// Columns per data set: small, so the 2000-taxon case stays fast under the
/// sanitizer presets.
constexpr std::size_t kColumns = 48;

struct Fixture {
  phylo::Tree tree;
  phylo::GtrParams params;
  phylo::PatternMatrix data;
  double reference = 0.0;
};

const Fixture& fixture(std::size_t taxa) {
  static std::map<std::size_t, Fixture> cache;
  auto it = cache.find(taxa);
  if (it == cache.end()) {
    Rng rng(4000 + taxa);
    phylo::Tree tree = seqgen::yule_tree(taxa, rng, 1.0, 0.05);
    phylo::GtrParams params = seqgen::default_gtr_params();
    phylo::SubstitutionModel model(params);
    seqgen::SequenceEvolver ev(tree, model);
    phylo::PatternMatrix data =
        phylo::PatternMatrix::compress(ev.evolve(kColumns, rng));
    const double ref =
        test::scaled_reference_log_likelihood(tree, model, data);
    it = cache
             .emplace(taxa, Fixture{std::move(tree), params, std::move(data),
                                    ref})
             .first;
  }
  return it->second;
}

/// (index into kEnvelopes, kernel variant, threaded backend?)
using Param = std::tuple<std::size_t, KernelVariant, bool>;

class AccuracyEnvelopeTest : public ::testing::TestWithParam<Param> {};

TEST_P(AccuracyEnvelopeTest, LogLikelihoodWithinEnvelope) {
  const auto [env_index, variant, use_threads] = GetParam();
  const Envelope& env = kEnvelopes[env_index];
  const Fixture& f = fixture(env.taxa);
  ASSERT_TRUE(std::isfinite(f.reference));

  par::ThreadPool pool(2);
  SerialBackend serial;
  ThreadedBackend threaded(pool);
  ExecutionBackend& backend =
      use_threads ? static_cast<ExecutionBackend&>(threaded) : serial;
  PlfEngine engine(f.data, f.params, f.tree, backend, variant);
  const double lnl = engine.log_likelihood();
  const double abs_err = std::abs(lnl - f.reference);
  const double rel_err = abs_err / std::abs(f.reference);
  EXPECT_LE(abs_err, env.max_abs);
  EXPECT_LE(rel_err, env.max_rel);
}

INSTANTIATE_TEST_SUITE_P(
    Taxa, AccuracyEnvelopeTest,
    ::testing::Combine(::testing::Values(0u, 1u, 2u),
                       ::testing::ValuesIn(test::kAllKernelVariants),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string name =
          std::to_string(kEnvelopes[std::get<0>(info.param)].taxa);
      name += "taxa_";
      for (char c : to_string(std::get<1>(info.param))) {
        name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
      }
      name += std::get<2>(info.param) ? "_threaded" : "_serial";
      return name;
    });

// The scaled reference is the unscaled one where the latter is valid: a
// small tree with a +I component, agreeing to long-double-vs-double rounding.
TEST(ScaledReferenceTest, MatchesUnscaledReferenceOnSmallTree) {
  Rng rng(77);
  phylo::Tree tree = seqgen::yule_tree(10, rng, 1.0, 0.1);
  phylo::GtrParams params = seqgen::default_gtr_params();
  params.p_invariant = 0.25;
  phylo::SubstitutionModel model(params);
  seqgen::SequenceEvolver ev(tree, model);
  const auto data = phylo::PatternMatrix::compress(ev.evolve(300, rng));
  const double unscaled = test::reference_log_likelihood(tree, model, data);
  const double scaled =
      test::scaled_reference_log_likelihood(tree, model, data);
  EXPECT_NEAR(scaled, unscaled, std::abs(unscaled) * 1e-12);
}

}  // namespace
}  // namespace plf::core
