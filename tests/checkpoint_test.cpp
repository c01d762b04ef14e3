// Checkpoint/restore round-trip property tests (docs/SHARDING.md).
//
// The contract under test is exact resumption: serialize a running
// engine+chain (or a whole coupled run), restore into a freshly constructed
// twin, continue both, and every subsequent log likelihood matches to the
// LAST BIT (0 ULP) — across backends, per-call and plan dispatch
// (core::PerCallBackend vs the backend's own run_plan), and the budgeted CLV
// arena, whose evicted vectors are rematerialized rather than serialized.
// Anything weaker would make a resumed run a different run.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "core/engine.hpp"
#include "mcmc/chain.hpp"
#include "mcmc/coupled.hpp"
#include "phylo/patterns.hpp"
#include "phylo/tree.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"

namespace plf::mcmc {
namespace {

struct Instance {
  phylo::Tree tree;
  phylo::GtrParams params;
  phylo::PatternMatrix data;
};

Instance make_instance(std::size_t taxa, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  phylo::Tree tree = seqgen::yule_tree(taxa, rng, 1.0, 0.15);
  phylo::GtrParams params = seqgen::default_gtr_params();
  phylo::SubstitutionModel model(params);
  seqgen::SequenceEvolver ev(tree, model);
  auto aln = ev.evolve(cols, rng);
  return Instance{std::move(tree), params, phylo::PatternMatrix::compress(aln)};
}

struct Combo {
  const char* name;
  bool threaded;
  bool per_call;       // run through core::PerCallBackend
  const char* budget;  // nullptr: unlimited
};

constexpr Combo kCombos[] = {
    {"serial/percall/unlimited", false, true, nullptr},
    {"serial/plan/unlimited", false, false, nullptr},
    {"threaded/percall/unlimited", true, true, nullptr},
    {"threaded/plan/unlimited", true, false, nullptr},
    {"serial/percall/0.5", false, true, "0.5"},
    {"serial/plan/0.5", false, false, "0.5"},
    {"threaded/percall/0.5", true, true, "0.5"},
    {"threaded/plan/0.5", true, false, "0.5"},
};

TEST(CheckpointTest, EngineChainRoundTripResumesBitExact) {
  par::ThreadPool pool(4);
  core::ThreadedBackend threaded(pool);
  core::SerialBackend serial;
  // Three sets: the threaded plan combos run every evaluation of the small
  // one inline, straddle the grain cutoff on the medium one, and open
  // regions on the large one. The large one also turns on the +I mixture
  // and p-invariant moves, so the resumed run depends on the restored
  // invariant-site likelihoods and replays tail-only evaluations.
  const Instance small = make_instance(10, 100, 91);
  const Instance medium = make_instance(10, 300, 91);
  const Instance large = [] {
    Instance inst = make_instance(10, 16000, 91);
    inst.params.p_invariant = 0.1;
    return inst;
  }();

  for (const Instance* inst_ptr : {&small, &medium, &large}) {
    const Instance& inst = *inst_ptr;
    const bool is_small = inst_ptr == &small;
    const bool is_large = inst_ptr == &large;
    for (const Combo& c : kCombos) {
      SCOPED_TRACE(::testing::Message()
                   << c.name << " " << inst.data.n_patterns() << " patterns");
      pool.reset_regions();
      core::ExecutionBackend& inner =
          c.threaded ? static_cast<core::ExecutionBackend&>(threaded) : serial;
      core::PerCallBackend per_call(inner);
      core::ExecutionBackend& backend =
          c.per_call ? static_cast<core::ExecutionBackend&>(per_call) : inner;
      const core::ClvBudget budget =
          c.budget == nullptr ? core::ClvBudget{}
                              : core::clv_budget_from_string(c.budget);
      const auto make_engine = [&] {
        return std::make_unique<core::PlfEngine>(
            inst.data, inst.params, inst.tree, backend,
            core::KernelVariant::kSimdCol, budget);
      };
      McmcOptions mo;
      mo.seed = 33;
      mo.w_pinv = is_large ? 1.0 : 0.0;
      mo.w_spr = 1.0;  // exercise topology state in the checkpoint

      auto ea = make_engine();
      McmcChain ca(*ea, mo);
      for (int g = 0; g < 40; ++g) ca.step();
      const double lnl_at_checkpoint = ca.ln_likelihood();

      // Checkpoint mid-run (some steps were rejects, so the scaler-resum flag
      // and flipped buffers are in a nontrivial state).
      std::ostringstream os;
      {
        util::BinaryWriter w(os);
        ea->save_state(w);
        ca.save_state(w);
      }

      // Continue the original and record its trajectory.
      std::vector<double> trajectory;
      for (int g = 0; g < 40; ++g) {
        ca.step();
        trajectory.push_back(ca.ln_likelihood());
      }

      // Restore into a freshly constructed twin and replay.
      auto eb = make_engine();
      McmcChain cb(*eb, mo);
      std::istringstream is(os.str());
      {
        util::BinaryReader r(is);
        eb->restore_state(r);
        cb.restore_state(r);
      }
      EXPECT_EQ(cb.ln_likelihood(), lnl_at_checkpoint);
      EXPECT_EQ(cb.generation(), 40u);
      // The restored engine re-evaluates to the checkpointed likelihood
      // without stepping (CLVs, scalers, and the resum flag all round-trip).
      EXPECT_EQ(eb->log_likelihood(), lnl_at_checkpoint);

      for (int g = 0; g < 40; ++g) {
        cb.step();
        ASSERT_EQ(cb.ln_likelihood(), trajectory[static_cast<std::size_t>(g)])
            << "diverged at resumed generation " << g;
      }
      EXPECT_EQ(eb->tree().to_newick(), ea->tree().to_newick());
      EXPECT_EQ(eb->model_params().gamma_shape, ea->model_params().gamma_shape);
      EXPECT_EQ(eb->model_params().p_invariant, ea->model_params().p_invariant);

      if (c.threaded && !c.per_call) {
        const std::size_t m = inst.data.n_patterns();
        if (is_large) {
          ASSERT_FALSE(threaded.runs_inline(2 * m));
          EXPECT_GT(pool.regions(), 0u);
        } else if (is_small) {
          ASSERT_TRUE(threaded.runs_inline(m * (inst.tree.n_internal() + 1)));
          EXPECT_EQ(pool.regions(), 0u);
        }
      }
    }
  }
}

TEST(CheckpointTest, RestoredEngineEvaluatesCheckpointedLikelihood) {
  // Without any further steps, a restored engine's full re-evaluation must
  // reproduce the exact cached likelihood the checkpoint recorded.
  core::SerialBackend backend;
  const Instance inst = make_instance(8, 200, 92);
  core::PlfEngine a(inst.data, inst.params, inst.tree, backend);
  McmcOptions mo;
  mo.seed = 7;
  McmcChain chain(a, mo);
  for (int g = 0; g < 25; ++g) chain.step();
  const double at_checkpoint = a.log_likelihood();

  std::ostringstream os;
  {
    util::BinaryWriter w(os);
    a.save_state(w);
  }
  core::PlfEngine b(inst.data, inst.params, inst.tree, backend);
  std::istringstream is(os.str());
  {
    util::BinaryReader r(is);
    b.restore_state(r);
  }
  EXPECT_EQ(b.log_likelihood(), at_checkpoint);
  // Force a full recompute from the restored CLV/scaler state: a branch
  // wiggle and its exact undo must land back on the same bits.
  const int leaf = b.tree().leaf_of(0);
  const double len = b.tree().branch_length(leaf);
  b.set_branch_length(leaf, len * 2.0);
  (void)b.log_likelihood();
  b.set_branch_length(leaf, len);
  EXPECT_EQ(b.log_likelihood(), at_checkpoint);
}

TEST(CheckpointTest, UnevaluatedChangeResumesBitExact) {
  // A checkpoint taken after a change the engine has not evaluated yet: the
  // nodes above the changed branch hold stale CLVs, so the restored twin
  // must recompute them and land on the original's bits, not on the
  // likelihood of the pre-change CLVs.
  par::ThreadPool pool(2);
  core::ThreadedBackend threaded(pool);
  core::SerialBackend serial;
  const Instance inst = make_instance(8, 200, 92);
  for (const Combo& c : kCombos) {
    SCOPED_TRACE(c.name);
    core::ExecutionBackend& inner =
        c.threaded ? static_cast<core::ExecutionBackend&>(threaded) : serial;
    core::PerCallBackend per_call(inner);
    core::ExecutionBackend& backend =
        c.per_call ? static_cast<core::ExecutionBackend&>(per_call) : inner;
    const core::ClvBudget budget =
        c.budget == nullptr ? core::ClvBudget{}
                            : core::clv_budget_from_string(c.budget);
    core::PlfEngine a(inst.data, inst.params, inst.tree, backend,
                      core::KernelVariant::kSimdCol, budget);
    const double before = a.log_likelihood();
    a.set_branch_length(a.tree().leaf_of(0), 0.9);

    std::ostringstream os;
    {
      util::BinaryWriter w(os);
      a.save_state(w);
    }
    core::PlfEngine b(inst.data, inst.params, inst.tree, backend,
                      core::KernelVariant::kSimdCol, budget);
    std::istringstream is(os.str());
    {
      util::BinaryReader r(is);
      b.restore_state(r);
    }
    const double after = a.log_likelihood();
    ASSERT_NE(after, before);
    EXPECT_EQ(b.log_likelihood(), after);
  }
}

TEST(CheckpointTest, RestoreRejectsMismatchedShape) {
  core::SerialBackend backend;
  const Instance small = make_instance(6, 100, 93);
  const Instance big = make_instance(9, 100, 94);
  core::PlfEngine a(small.data, small.params, small.tree, backend);
  std::ostringstream os;
  {
    util::BinaryWriter w(os);
    a.save_state(w);
  }
  core::PlfEngine b(big.data, big.params, big.tree, backend);
  std::istringstream is(os.str());
  util::BinaryReader r(is);
  EXPECT_THROW(b.restore_state(r), Error);
}

TEST(CheckpointTest, SaveDuringOpenProposalThrows) {
  core::SerialBackend backend;
  const Instance inst = make_instance(6, 100, 95);
  core::PlfEngine a(inst.data, inst.params, inst.tree, backend);
  (void)a.log_likelihood();
  a.begin_proposal();
  std::ostringstream os;
  util::BinaryWriter w(os);
  EXPECT_THROW(a.save_state(w), Error);
  a.reject();
}

std::vector<std::unique_ptr<core::PlfEngine>> make_engines(
    const Instance& inst, core::ExecutionBackend& backend, std::size_t n) {
  std::vector<std::unique_ptr<core::PlfEngine>> engines;
  for (std::size_t i = 0; i < n; ++i) {
    engines.push_back(std::make_unique<core::PlfEngine>(
        inst.data, inst.params, inst.tree, backend));
  }
  return engines;
}

TEST(CheckpointTest, CoupledRunResumesBitExact) {
  // Interrupt a 4-chain MC3 run at generation 150 of 300 via an in-memory
  // checkpoint; the resumed half must land on the same final likelihoods,
  // trees, and swap counters as the uninterrupted run.
  core::SerialBackend backend;
  const Instance inst = make_instance(8, 150, 96);
  CoupledOptions opts;
  opts.chain.seed = 17;
  opts.swap_every = 5;

  CoupledChains full(make_engines(inst, backend, 4), opts);
  CoupledChains a(make_engines(inst, backend, 4), opts);
  const auto full_result = full.run(300);

  a.run(150);
  std::ostringstream os;
  a.save_checkpoint(os);

  CoupledChains b(make_engines(inst, backend, 4), opts);
  std::istringstream is(os.str());
  b.restore_checkpoint(is);
  EXPECT_EQ(b.generation(), 150u);
  const auto resumed = b.run(300);

  EXPECT_EQ(resumed.cold.final_ln_likelihood,
            full_result.cold.final_ln_likelihood);
  EXPECT_EQ(resumed.cold.final_tree_newick,
            full_result.cold.final_tree_newick);
  EXPECT_EQ(resumed.swaps_proposed, full_result.swaps_proposed);
  EXPECT_EQ(resumed.swaps_accepted, full_result.swaps_accepted);
  ASSERT_EQ(resumed.final_ln_likelihoods.size(),
            full_result.final_ln_likelihoods.size());
  for (std::size_t i = 0; i < resumed.final_ln_likelihoods.size(); ++i) {
    EXPECT_EQ(resumed.final_ln_likelihoods[i],
              full_result.final_ln_likelihoods[i])
        << "heat rank " << i;
  }
}

TEST(CheckpointTest, CoupledCheckpointFileRoundTripAndAtomicRename) {
  core::SerialBackend backend;
  const Instance inst = make_instance(8, 150, 97);
  const std::string path =
      ::testing::TempDir() + "plf_checkpoint_test.ckpt";
  CoupledOptions opts;
  opts.chain.seed = 23;
  opts.swap_every = 5;
  opts.checkpoint_every = 50;
  opts.checkpoint_path = path;

  CoupledChains a(make_engines(inst, backend, 3), opts);
  const auto full_result = a.run(200);
  // The periodic writer went through the tmp+rename protocol: the final
  // checkpoint (generation 200) is in place, the tmp file is not.
  {
    std::ifstream ckpt(path, std::ios::binary);
    EXPECT_TRUE(ckpt.good());
    std::ifstream tmp(path + ".tmp", std::ios::binary);
    EXPECT_FALSE(tmp.good());
  }

  CoupledOptions resume_opts = opts;
  resume_opts.checkpoint_every = 0;  // don't overwrite while verifying
  CoupledChains b(make_engines(inst, backend, 3), resume_opts);
  b.restore_checkpoint_file(path);
  EXPECT_EQ(b.generation(), 200u);
  const auto resumed = b.run(400);

  CoupledOptions straight_opts = resume_opts;
  CoupledChains c(make_engines(inst, backend, 3), straight_opts);
  const auto straight = c.run(400);
  EXPECT_EQ(resumed.cold.final_ln_likelihood,
            straight.cold.final_ln_likelihood);
  EXPECT_EQ(resumed.cold.final_tree_newick, straight.cold.final_tree_newick);
  EXPECT_EQ(resumed.swaps_accepted, straight.swaps_accepted);
  (void)full_result;
  std::remove(path.c_str());
}

TEST(CheckpointTest, CoupledRestoreRejectsWrongChainCount) {
  core::SerialBackend backend;
  const Instance inst = make_instance(6, 100, 98);
  CoupledOptions opts;
  opts.chain.seed = 29;
  CoupledChains a(make_engines(inst, backend, 3), opts);
  a.run(20);
  std::ostringstream os;
  a.save_checkpoint(os);

  CoupledChains b(make_engines(inst, backend, 2), opts);
  std::istringstream is(os.str());
  EXPECT_THROW(b.restore_checkpoint(is), Error);
}

// ---------------------------------------------------------------------------
// Untrusted length prefixes. Each stream is a valid header, an optional
// "TREE" tag, the given u64 fields (the last one a forged length) and a few
// payload bytes. The reader must fail with "checkpoint: truncated stream"
// (plf::Error) once the bytes run out. The forged lengths, 2^40 and 2^60
// elements, are far beyond what any host can allocate, so a reader that
// sizes its container from the prefix throws std::bad_alloc or
// std::length_error instead.

constexpr std::uint64_t kForgedLengths[] = {std::uint64_t{1} << 40,
                                            std::uint64_t{1} << 60};

std::string forged_stream(std::initializer_list<std::uint64_t> fields,
                          bool tree_section = false) {
  std::ostringstream os;
  util::BinaryWriter w(os);
  if (tree_section) w.section("TREE");
  for (std::uint64_t f : fields) w.u64(f);
  for (int i = 0; i < 3; ++i) w.u64(0x0123456789abcdefull);
  return os.str();
}

void expect_truncated(const std::string& bytes,
                      const std::function<void(util::BinaryReader&)>& read) {
  std::istringstream is(bytes);
  util::BinaryReader r(is);
  try {
    read(r);
    ADD_FAILURE() << "forged length was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint: truncated stream"),
              std::string::npos)
        << e.what();
  }
}

TEST(CheckpointReaderTest, ForgedArrayLengthFailsAsTruncatedStream) {
  for (std::uint64_t n : kForgedLengths) {
    SCOPED_TRACE(n);
    const std::string bytes = forged_stream({n});
    expect_truncated(bytes, [](util::BinaryReader& r) { (void)r.str(); });
    expect_truncated(bytes,
                     [](util::BinaryReader& r) { (void)r.f32_array(); });
    expect_truncated(bytes,
                     [](util::BinaryReader& r) { (void)r.f64_array(); });
    expect_truncated(bytes,
                     [](util::BinaryReader& r) { (void)r.u64_array(); });
  }
}

TEST(CheckpointReaderTest, ForgedTreeCountFailsAsTruncatedStream) {
  const auto load = [](util::BinaryReader& r) { (void)phylo::Tree::load(r); };
  for (std::uint64_t n : kForgedLengths) {
    SCOPED_TRACE(n);
    expect_truncated(forged_stream({n}, true), load);        // nodes
    expect_truncated(forged_stream({0, n}, true), load);     // leaf ids
    expect_truncated(forged_stream({0, 0, n}, true), load);  // taxon names
  }
}

// The ids a TREE section carries are untrusted too: a root, outgroup, child,
// parent or taxon id out of range must fail the load with plf::Error before
// Tree::validate indexes anything with it.
TEST(CheckpointReaderTest, OutOfRangeTreeIdsFailWithError) {
  const phylo::Tree good = phylo::Tree::from_newick("(A:0.1,B:0.2,C:0.3);");
  ASSERT_EQ(good.n_nodes(), 4u);
  struct Fields {
    std::vector<phylo::TreeNode> nodes;
    std::vector<int> leaf_of;
    int root = 0;
    int outgroup = 0;
  };
  Fields base;
  for (std::size_t id = 0; id < good.n_nodes(); ++id) {
    base.nodes.push_back(good.node(static_cast<int>(id)));
  }
  for (std::size_t t = 0; t < good.n_taxa(); ++t) {
    base.leaf_of.push_back(good.leaf_of(static_cast<int>(t)));
  }
  base.root = good.root();
  base.outgroup = good.outgroup();
  // The TREE section layout of Tree::save.
  const auto load = [&](const Fields& f) {
    std::ostringstream os;
    {
      util::BinaryWriter w(os);
      w.section("TREE");
      w.u64(f.nodes.size());
      for (const phylo::TreeNode& n : f.nodes) {
        w.i64(n.parent);
        w.i64(n.left);
        w.i64(n.right);
        w.f64(n.length);
        w.i64(n.taxon);
      }
      w.u64(f.leaf_of.size());
      for (int id : f.leaf_of) w.i64(id);
      w.u64(good.taxon_names().size());
      for (const std::string& name : good.taxon_names()) w.str(name);
      w.i64(f.root);
      w.i64(f.outgroup);
    }
    std::istringstream is(os.str());
    util::BinaryReader r(is);
    return phylo::Tree::load(r);
  };
  EXPECT_EQ(load(base).to_newick(), good.to_newick());

  const int inner = base.root;  // the one internal node of a 3-taxon tree
  const int leaf = base.nodes[static_cast<std::size_t>(inner)].left;
  const std::vector<std::pair<const char*, std::function<void(Fields&)>>>
      corruptions = {
          {"root", [](Fields& f) { f.root = 100000; }},
          {"negative root", [](Fields& f) { f.root = -100000; }},
          {"outgroup", [](Fields& f) { f.outgroup = 100000; }},
          {"child", [&](Fields& f) {
             f.nodes[static_cast<std::size_t>(inner)].left = 100000;
           }},
          {"parent", [&](Fields& f) {
             f.nodes[static_cast<std::size_t>(leaf)].parent = 100000;
           }},
          {"taxon", [&](Fields& f) {
             f.nodes[static_cast<std::size_t>(leaf)].taxon = 100000;
           }},
          {"negative taxon", [&](Fields& f) {
             f.nodes[static_cast<std::size_t>(leaf)].taxon = -100000;
           }},
          {"short leaf_of", [](Fields& f) { f.leaf_of.pop_back(); }},
      };
  for (const auto& [what, corrupt] : corruptions) {
    SCOPED_TRACE(what);
    Fields f = base;
    corrupt(f);
    EXPECT_THROW(load(f), Error);
  }
}

TEST(CheckpointReaderTest, ArraysLargerThanOneChunkRoundTrip) {
  // Every payload exceeds the reader's 1 MiB growth chunk, so each read
  // spans several chunks.
  std::vector<float> f32(300'000);
  std::vector<double> f64(200'000);
  std::vector<std::uint64_t> u64(200'000);
  std::string text(1'500'000, '\0');
  for (std::size_t i = 0; i < f32.size(); ++i) f32[i] = 0.25f * i - 7.0f;
  for (std::size_t i = 0; i < f64.size(); ++i) f64[i] = 1.0 / (i + 1.0);
  for (std::size_t i = 0; i < u64.size(); ++i) {
    u64[i] = i * 0x9e3779b97f4a7c15ull;
  }
  for (std::size_t i = 0; i < text.size(); ++i) {
    text[i] = static_cast<char>('a' + i % 26);
  }

  std::ostringstream os;
  {
    util::BinaryWriter w(os);
    w.f32_array(f32.data(), f32.size());
    w.f64_array(f64.data(), f64.size());
    w.u64_array(u64.data(), u64.size());
    w.str(text);
  }
  std::istringstream is(os.str());
  util::BinaryReader r(is);
  EXPECT_EQ(r.f32_array(), f32);
  EXPECT_EQ(r.f64_array(), f64);
  EXPECT_EQ(r.u64_array(), u64);
  EXPECT_EQ(r.str(), text);
}

}  // namespace
}  // namespace plf::mcmc
