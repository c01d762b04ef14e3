// mc3bench: wall seconds per MC^3 generation of the product loop that
// examples/mrbayes_lite builds (4 coupled chains, heat 0.2, a swap every 10
// generations, GTR+I+G with +I and eSPR moves on, tree collection on), on
// one ThreadedBackend over a pool of min(nproc, 2) threads, with engines
// built from the library defaults.
//
// Usage: mc3bench --workload NAME --seed N --seconds S --trace 0|1
//                 [--data-dir DIR] [--out FILE] [--spans FILE] [--git-sha SHA]
//
// --trace 0 measures the end-to-end metrics on the bare backend. --trace 1
// runs three lanes of chains on the same seed, taking turns block by block:
// the bare backend, a traced twin (backend wrapped in TimingBackend, spans
// kept in memory) and a serial twin on SerialBackend; it prints the
// per-layer metrics. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. README.md has the details.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/engine.hpp"
#include "mcmc/coupled.hpp"
#include "obs/json_util.hpp"
#include "par/thread_pool.hpp"
#include "phylo/alignment.hpp"
#include "phylo/nexus.hpp"
#include "phylo/patterns.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace {

using namespace plf;
using obs::detail::json_escape;
using obs::detail::write_json_double;
using mc3bench::now_ns;
using mc3bench::ScopedSpan;
using mc3bench::SpanLog;
using mc3bench::TimingBackend;

constexpr std::size_t kChains = 4;
/// Timed blocks of an untraced run at least: s_per_gen_p90 needs ten beyond
/// it.
constexpr std::size_t kMinBlocks = 100;
/// The first kWindowBlocks blocks of every lane are its fixed window. The
/// trajectory hash and every count metric cover exactly these blocks, so
/// they repeat for a seed whatever the host's speed and however long the
/// run lasts. A traced run runs at least this many rounds.
constexpr std::size_t kWindowBlocks = 20;
static_assert(kWindowBlocks <= kMinBlocks);
/// Set-ups per run: at least kMinSetups, and more until kSetupSeconds of
/// set-up have been timed (at most kMaxSetups). setup_s is their median.
constexpr std::size_t kMinSetups = 15;
constexpr std::size_t kMaxSetups = 500;
constexpr double kSetupSeconds = 1.0;
constexpr double kCheckTolerance = 1e-9;

struct Workload {
  const char* name;
  bool sample8;         ///< bundled NEXUS sample instead of generated data
  bool fixed_topology;  ///< w_nni = w_spr = 0
  /// Generations per timed block: a multiple of the swap interval, so every
  /// block holds the same share of swap attempts, and long enough (60-400
  /// ms on the host in README.md) that one slow proposal or a short stall
  /// of the machine is averaged inside the block rather than setting the
  /// p90.
  std::uint64_t gens_per_block;
};

// Why each exists is in README.md.
constexpr Workload kWorkloads[] = {
    {"mc3-real20", false, false, 20},
    {"mc3-fixedtopo20", false, true, 20},
    {"mc3-sample8", true, false, 150},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir = "data";
  std::string out;
  std::string spans;
  std::string git_sha = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") {
        throw std::runtime_error("--trace takes 0 or 1");
      }
      a.trace = val == "1";
    } else if (key == "--data-dir") {
      a.data_dir = val;
    } else if (key == "--out") {
      a.out = val;
    } else if (key == "--spans") {
      a.spans = val;
    } else if (key == "--git-sha") {
      a.git_sha = val;
    } else {
      throw std::runtime_error("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::runtime_error("--workload is required");
  return a;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  std::string known;
  for (const Workload& w : kWorkloads) known += std::string(" ") + w.name;
  throw std::runtime_error("unknown workload '" + name + "'; known:" + known);
}

/// Most threads the pool gets. On a host whose vCPUs are shared with other
/// machines, every parallel region waits for whichever vCPU the host has
/// descheduled, so a pool over all of them measures the host's scheduler:
/// on the 4-vCPU host in README.md, runs taking turns between 4 and 2
/// threads gave mc3-sample8 0.53-0.79 ms/gen on 4 and 0.39-0.41 on 2.
constexpr std::size_t kMaxThreads = 2;

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return 1;
}

double seconds_between(std::int64_t t0, std::int64_t t1) {
  return 1e-9 * static_cast<double>(t1 - t0);
}

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double resident_mib() {
  long pages = 0;
  long resident = 0;
  std::ifstream statm("/proc/self/statm");
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Peak resident memory of this process image (VmHWM). getrusage's
/// ru_maxrss would also count the launching process's peak from before
/// exec, which can exceed the benchmark's own on the small workload.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// --- inputs ----------------------------------------------------------------

/// Everything the seed generates. Only these inputs reach the library.
struct Inputs {
  std::string nexus_path;       ///< sample8: parsed (timed) in every set-up
  phylo::Alignment alignment;   ///< generated data otherwise
  std::vector<phylo::Tree> start_trees;
  std::size_t taxa = 0;
};

/// seqgen's real-data stand-in (20 taxa, 28,740 columns under the default
/// GTR+G parameters) with its generating tree held at the one it draws for
/// data seed 42; the run's seed draws the columns. Drawn afresh per seed,
/// the tree's length moves m from 3.9K to 7.5K patterns over seeds 1-10,
/// which moves s_per_gen and peak memory between seeds by more than any
/// regression bound. With the tree held, m stays near 6,272.
constexpr std::uint64_t kReal20TreeSeed = 42;
/// Seed of the starting trees when topology moves are off. Those trees stay
/// for the whole run, and the work per generation (repeat compaction, op
/// mix) follows their shapes, so they are held like the generating tree.
constexpr std::uint64_t kFixedStartTreeSeed = 42;
constexpr std::size_t kReal20Columns = 28740;

phylo::Alignment real20_alignment(std::uint64_t seed) {
  Rng tree_rng(kReal20TreeSeed);
  // The stand-in's tree: same draw as seqgen::make_real_dataset.
  const phylo::Tree tree = seqgen::yule_tree(20, tree_rng, 1.0, 0.045);
  const phylo::SubstitutionModel model(seqgen::default_gtr_params());
  Rng rng(seed);
  return seqgen::SequenceEvolver(tree, model).evolve(kReal20Columns, rng);
}

Inputs make_inputs(const Workload& w, std::uint64_t seed,
                   const std::string& data_dir) {
  Inputs in;
  std::vector<std::string> names;
  if (w.sample8) {
    in.nexus_path = data_dir + "/sample_8taxa.nex";
    const phylo::NexusFile nx = phylo::read_nexus_file(in.nexus_path);
    if (!nx.has_alignment) {
      throw std::runtime_error("no DATA block in " + in.nexus_path);
    }
    names = nx.alignment.names();
  } else {
    in.alignment = real20_alignment(seed);
    names = in.alignment.names();
  }
  in.taxa = names.size();
  // Starting trees drawn as mrbayes_lite draws them.
  Rng rng((w.fixed_topology ? kFixedStartTreeSeed : seed) ^ 0xABCDEF);
  for (std::size_t i = 0; i < kChains; ++i) {
    const phylo::Tree t = seqgen::yule_tree(in.taxa, rng, 1.0, 0.1).rerooted(0);
    in.start_trees.push_back(phylo::Tree::from_newick(t.to_newick(), names));
  }
  return in;
}

mcmc::CoupledOptions coupled_options(const Workload& w, std::uint64_t seed) {
  mcmc::CoupledOptions opts;
  opts.n_chains = kChains;
  opts.heat = 0.2;
  opts.swap_every = 10;
  opts.chain.seed = seed;
  opts.chain.sample_every = 10;
  opts.chain.collect_trees = true;
  opts.chain.w_pinv = 0.7;
  opts.chain.w_spr = 1.5;
  if (w.fixed_topology) {
    opts.chain.w_nni = 0.0;
    opts.chain.w_spr = 0.0;
  }
  return opts;
}

// --- set-up ------------------------------------------------------------------

struct SetupTimes {
  double parse_s = 0.0;
  double compress_s = 0.0;
  double ctor_s = 0.0;
  double first_eval_s = 0.0;
  double coupled_s = 0.0;
  double total() const {
    return parse_s + compress_s + ctor_s + first_eval_s + coupled_s;
  }
};

struct Chains {
  phylo::PatternMatrix data;  ///< for the end-of-run reference check
  std::unique_ptr<mcmc::CoupledChains> mc3;
  SetupTimes t;
  double rss_mib_per_chain = 0.0;
};

/// Time `fn` into `acc` under a span named `name`.
template <class Fn>
void timed_step(SpanLog* log, const char* name, double& acc, Fn&& fn) {
  ScopedSpan span(log, name);
  const std::int64_t t0 = now_ns();
  fn();
  acc = seconds_between(t0, now_ns());
}

Chains set_up(const Inputs& in, const mcmc::CoupledOptions& opts,
              core::ExecutionBackend& backend, SpanLog* log) {
  ScopedSpan span(log, "setup");
  Chains c;
  phylo::Alignment parsed;
  if (!in.nexus_path.empty()) {
    timed_step(log, "setup.parse", c.t.parse_s, [&] {
      phylo::NexusFile nx = phylo::read_nexus_file(in.nexus_path);
      parsed = std::move(nx.alignment);
    });
  }
  const phylo::Alignment& aln = in.nexus_path.empty() ? in.alignment : parsed;
  timed_step(log, "setup.compress", c.t.compress_s,
             [&] { c.data = phylo::PatternMatrix::compress(aln); });

  const double rss0 = resident_mib();
  std::vector<std::unique_ptr<core::PlfEngine>> engines;
  phylo::GtrParams start_params;
  start_params.p_invariant = 0.1;
  timed_step(log, "setup.engine_ctor", c.t.ctor_s, [&] {
    for (const phylo::Tree& tree : in.start_trees) {
      engines.push_back(std::make_unique<core::PlfEngine>(
          c.data, start_params, tree, backend));
    }
  });
  timed_step(log, "setup.first_eval", c.t.first_eval_s, [&] {
    for (auto& e : engines) e->log_likelihood();
  });
  c.rss_mib_per_chain =
      (resident_mib() - rss0) / static_cast<double>(engines.size());
  timed_step(log, "setup.coupled_ctor", c.t.coupled_s, [&] {
    c.mc3 = std::make_unique<mcmc::CoupledChains>(std::move(engines), opts);
  });
  return c;
}

// --- measurement -------------------------------------------------------------

/// One set of coupled chains and what its timed blocks produced.
struct Lane {
  Chains chains;
  SpanLog* log = nullptr;  ///< spans for this lane's blocks, or none
  std::vector<double> block_s_per_gen;
  double blocks_s = 0.0;  ///< summed block wall time
  double loop_s = 0.0;    ///< blocks plus the bookkeeping around them
  std::uint64_t gens = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t hash = 0xcbf29ce484222325ull;  ///< FNV-1a offset basis
  mcmc::CoupledResult last;                    ///< cumulative tallies
  double max_rel_err = 0.0;                    ///< end-of-run check

  /// The lane's backend tally, if its backend is wrapped, and copies of the
  /// cumulative tallies taken when the fixed window closed.
  const mc3bench::BackendTally* tally = nullptr;
  mcmc::CoupledResult window_last;
  mc3bench::BackendTally window_tally;
  std::uint64_t window_gens = 0;
};

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
}

/// One timed block of CoupledChains::run. The blocks of the fixed window
/// feed the cold chain's sampled lnL trajectory into the lane's hash; the
/// last of them takes the window's copies of the tallies.
void run_block(Lane& lane, const Workload& w, std::size_t b) {
  const std::int64_t loop0 = now_ns();
  mcmc::CoupledChains& mc3 = *lane.chains.mc3;
  const std::uint64_t target = mc3.generation() + w.gens_per_block;
  bool ok = true;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  {
    ScopedSpan span(lane.log, "block");
    t0 = now_ns();
    try {
      lane.last = mc3.run(target);
    } catch (const std::exception& e) {
      std::cerr << "block " << b << " failed: " << e.what() << "\n";
      ok = false;
    }
    t1 = now_ns();
  }
  ++lane.attempted;
  for (const double lnl : lane.last.final_ln_likelihoods) {
    ok = ok && std::isfinite(lnl);
  }
  if (!ok) ++lane.failed;
  const double dt = seconds_between(t0, t1);
  lane.blocks_s += dt;
  lane.gens += w.gens_per_block;
  lane.block_s_per_gen.push_back(dt / static_cast<double>(w.gens_per_block));
  if (b < kWindowBlocks) {
    for (const mcmc::McmcSample& s : lane.last.cold.samples) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &s.ln_likelihood, sizeof bits);
      fnv_mix(lane.hash, s.generation);
      fnv_mix(lane.hash, bits);
    }
  }
  if (b + 1 == kWindowBlocks) {
    lane.window_last = lane.last;
    if (lane.tally != nullptr) lane.window_tally = *lane.tally;
    lane.window_gens = lane.gens;
  }
  lane.loop_s += seconds_between(loop0, now_ns());
}

/// Rebuild every chain's final tree and model in a fresh engine on
/// SerialBackend and compare likelihoods. A failed check invalidates every
/// block of the lane.
void check_final_state(Lane& lane) {
  core::SerialBackend serial;
  bool ok = true;
  mcmc::CoupledChains& mc3 = *lane.chains.mc3;
  for (std::size_t i = 0; i < mc3.n_chains(); ++i) {
    core::PlfEngine& e = mc3.engine(i);
    const double got = e.log_likelihood();
    core::PlfEngine fresh(lane.chains.data, e.model_params(), e.tree(), serial);
    const double ref = fresh.log_likelihood();
    const double rel = std::fabs(got - ref) / std::fabs(ref);
    if (!(rel <= kCheckTolerance)) ok = false;
    if (!(rel <= lane.max_rel_err)) lane.max_rel_err = rel;  // NaN sticks
  }
  if (!ok) lane.failed = lane.attempted;
}

/// Run blocks, the lanes taking turns, until `seconds` of wall time have
/// passed and every lane has run `min_blocks`. Taking turns exposes the
/// lanes to the same machine noise, so their ratios hold steady. The run's
/// length follows the clock, so a slow host makes a run fewer blocks, not a
/// longer one; the counts come from the fixed window instead.
void measure(const std::vector<Lane*>& lanes, const Workload& w,
             double seconds, std::size_t min_blocks) {
  const std::int64_t start = now_ns();
  for (std::size_t b = 0;
       b < min_blocks || seconds_between(start, now_ns()) < seconds; ++b) {
    for (Lane* lane : lanes) run_block(*lane, w, b);
  }
  for (Lane* lane : lanes) {
    check_final_state(*lane);
    lane->chains = Chains{};
  }
}

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// A number as JSON with all its digits; non-finite values become null.
std::string format_double(double v) {
  std::ostringstream os;
  os.precision(17);
  write_json_double(os, v);
  return os.str();
}

std::string hex(std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i != 0) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + format_double(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

double per(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Backend time per site of op work, in ns: the Fig. 9 throughput measure.
double ns_per_site_op(const mc3bench::BackendTally& t) {
  return per(1e9 * t.plan_s, t.run_sites);
}

/// Times come from the whole run; counts from the traced lane's fixed
/// window (`wt`, `wgens`, its `window_last`), so they are exact.
void layer_metrics(std::vector<Metric>& out, const Lane& traced,
                   const Lane& serial, const Lane& untraced,
                   const std::vector<SetupTimes>& setups, double rss_per_chain,
                   double span_coverage, std::size_t threads) {
  const mc3bench::BackendTally& t = *traced.tally;
  const mc3bench::BackendTally& ts = *serial.tally;
  const mc3bench::BackendTally& wt = traced.window_tally;
  const auto gens = static_cast<double>(traced.gens);
  const auto wgens = static_cast<double>(traced.window_gens);
  const double remaining = traced.blocks_s - t.seconds();
  out.push_back({"mcmc.remaining_s_per_gen", remaining / gens, "s"});
  out.push_back({"mcmc.remaining_share", remaining / traced.blocks_s, "ratio"});
  const auto& props = traced.window_last.cold.proposals;
  std::uint64_t proposed = 0;
  std::uint64_t accepted = 0;
  for (const auto& [name, st] : props) {
    proposed += st.proposed;
    accepted += st.accepted;
  }
  out.push_back({"mcmc.accept_rate",
                 per(static_cast<double>(accepted),
                     static_cast<double>(proposed)),
                 "ratio"});
  for (const char* move :
       {"branch-multiplier", "nni", "espr", "gamma-shape", "gtr-rates",
        "base-frequencies", "p-invariant"}) {
    const auto it = props.find(move);
    const double rate =
        it == props.end() ? 0.0 : it->second.acceptance_rate();
    out.push_back({std::string("mcmc.accept_rate.") + move, rate, "ratio"});
  }
  out.push_back({"mc3.swap_rate", traced.window_last.swap_rate(), "ratio"});

  const auto plans = static_cast<double>(wt.plan_calls);
  out.push_back({"backend.plan_s_per_gen", t.plan_s / gens, "s"});
  out.push_back({"backend.plan_calls_per_gen", plans / wgens, "count"});
  out.push_back({"backend.plan_us_per_call",
                 per(1e6 * t.plan_s, static_cast<double>(t.plan_calls)), "us"});
  out.push_back({"backend.reduce_s_per_gen", t.reduce_s / gens, "s"});
  out.push_back({"backend.reduce_calls_per_gen",
                 static_cast<double>(wt.reduce_calls) / wgens, "count"});
  out.push_back({"backend.percall_calls_per_gen",
                 static_cast<double>(wt.percall_calls) / wgens, "count"});
  out.push_back({"backend.share", t.seconds() / traced.blocks_s, "ratio"});
  out.push_back({"backend.ns_per_site_op", ns_per_site_op(t), "ns"});
  out.push_back({"backend.gflops_computed", per(1e-9 * t.flops, t.plan_s),
                 "GFLOP/s"});
  out.push_back({"backend.bytes_per_gen_computed",
                 (wt.plan_bytes + wt.reduce_bytes) / wgens, "B"});

  const auto ops = static_cast<double>(wt.ops);
  out.push_back({"plan.ops_per_plan", per(ops, plans), "count"});
  out.push_back({"plan.levels_per_plan",
                 per(static_cast<double>(wt.levels), plans), "count"});
  out.push_back({"plan.ops_per_level",
                 per(ops, static_cast<double>(wt.levels)), "count"});
  out.push_back({"plan.compacted_op_share",
                 per(static_cast<double>(wt.compacted_ops), ops), "ratio"});
  out.push_back({"plan.site_ratio", per(wt.run_sites, wt.dense_sites),
                 "ratio"});
  out.push_back({"plan.tip_tip_share",
                 per(static_cast<double>(wt.tip_tip_ops), ops), "ratio"});
  out.push_back({"plan.tip_inner_share",
                 per(static_cast<double>(wt.tip_inner_ops), ops), "ratio"});

  const double speedup = per(ns_per_site_op(ts), ns_per_site_op(t));
  out.push_back({"par.speedup_vs_serial", speedup, "ratio"});
  out.push_back({"par.efficiency", speedup / static_cast<double>(threads),
                 "ratio"});
  out.push_back({"serial.s_per_gen", median(serial.block_s_per_gen), "s"});

  auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return median(v);
  };
  out.push_back({"phylo.parse_s", setup_median(&SetupTimes::parse_s), "s"});
  out.push_back(
      {"phylo.compress_s", setup_median(&SetupTimes::compress_s), "s"});
  out.push_back({"engine.ctor_s", setup_median(&SetupTimes::ctor_s), "s"});
  out.push_back(
      {"engine.first_eval_s", setup_median(&SetupTimes::first_eval_s), "s"});
  out.push_back({"engine.rss_mib_per_chain", rss_per_chain, "MiB"});

  out.push_back({"trace.overhead",
                 median(traced.block_s_per_gen) /
                         median(untraced.block_s_per_gen) -
                     1.0,
                 "ratio"});
  out.push_back({"trace.span_coverage", span_coverage, "ratio"});
}

/// A lane's counts, hash, check result and block-time quartiles.
std::string describe(const char* name, const Lane& l) {
  std::string q;
  for (const double p : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    if (!q.empty()) q += ", ";
    q += format_double(quantile(l.block_s_per_gen, p));
  }
  return "\"" + std::string(name) + "\": {\"blocks\": " +
         std::to_string(l.attempted) + ", \"failed\": " +
         std::to_string(l.failed) + ", \"hash\": \"" + hex(l.hash) +
         "\", \"max_rel_err\": " + format_double(l.max_rel_err) +
         ", \"block_s_per_gen_quartiles\": [" + q + "]}";
}

int run(const Args& args) {
  const Workload& w = find_workload(args.workload);
  const Inputs in = make_inputs(w, args.seed, args.data_dir);
  const mcmc::CoupledOptions opts = coupled_options(w, args.seed);
  const std::size_t threads = std::min(nproc(), kMaxThreads);
  par::ThreadPool pool(threads);
  core::ThreadedBackend threaded(pool);

  // Repeated set-ups on the bare backend (setup_s is their median); the
  // last one is the untraced lane.
  std::vector<SetupTimes> setups;
  double rss_per_chain = 0.0;
  Lane untraced;
  std::size_t m = 0;
  double setup_total_s = 0.0;
  while (setups.size() < kMinSetups ||
         (setup_total_s < kSetupSeconds && setups.size() < kMaxSetups)) {
    untraced.chains = Chains{};  // release the previous set-up first
    untraced.chains = set_up(in, opts, threaded, nullptr);
    setups.push_back(untraced.chains.t);
    setup_total_s += untraced.chains.t.total();
    if (setups.size() == 1) rss_per_chain = untraced.chains.rss_mib_per_chain;
    m = untraced.chains.data.n_patterns();
  }

  std::vector<Metric> metrics;
  std::string phases;
  std::string span_check;  ///< traced run: the span log's self-consistency
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  if (!args.trace) {
    measure({&untraced}, w, args.seconds, kMinBlocks);
    std::vector<double> setup_s;
    for (const SetupTimes& s : setups) setup_s.push_back(s.total());
    metrics.push_back({"s_per_gen", median(untraced.block_s_per_gen), "s"});
    metrics.push_back(
        {"s_per_gen_p90", quantile(untraced.block_s_per_gen, 0.9), "s"});
    metrics.push_back({"setup_s", median(setup_s), "s"});
    metrics.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
    phases = describe("untraced", untraced);
    attempted = untraced.attempted;
    failed = untraced.failed;
  } else {
    // A traced twin (wrapped threaded backend, spans) and a serial twin on
    // the same seed, taking turns with the untraced lane block by block.
    SpanLog log;
    TimingBackend traced_backend(threaded, &log);
    Lane traced;
    traced.log = &log;
    traced.tally = &traced_backend.tally();
    const std::int64_t t0 = now_ns();
    traced.chains = set_up(in, opts, traced_backend, &log);
    const double traced_setup_s = seconds_between(t0, now_ns());
    const double setup_backend_s = traced_backend.tally().seconds();
    traced_backend.reset_tally();

    core::SerialBackend serial_inner;
    TimingBackend serial_backend(serial_inner, nullptr);
    Lane serial;
    serial.tally = &serial_backend.tally();
    serial.chains = set_up(in, opts, serial_backend, nullptr);
    serial_backend.reset_tally();

    measure({&untraced, &traced, &serial}, w, args.seconds, kWindowBlocks);
    phases = describe("untraced", untraced) + ", " +
             describe("traced", traced) + ", " + describe("serial", serial);
    attempted = untraced.attempted + traced.attempted + serial.attempted;
    failed = untraced.failed + traced.failed + serial.failed;
    // Wrapping the backend must not change a bit. (The serial lane may
    // differ: the threaded root reduction sums per-thread partials.)
    if (traced.hash != untraced.hash) {
      std::cerr << "traced and untraced trajectories differ\n";
      correct = false;
    }
    // The span log must agree with itself and with the backend tally:
    // children lie within their parents, and the backend spans add up to
    // the seconds the tally counted.
    const double backend_span_s = log.seconds_named("backend.");
    const double backend_tally_s =
        setup_backend_s + traced_backend.tally().seconds();
    if (!log.nested()) {
      std::cerr << "a span lies outside its parent\n";
      correct = false;
    }
    if (!(std::fabs(backend_span_s - backend_tally_s) <=
          1e-6 * backend_tally_s)) {
      std::cerr << "backend spans cover " << backend_span_s
                << " s, the tally " << backend_tally_s << " s\n";
      correct = false;
    }
    span_check = ", \"backend_span_s\": " + format_double(backend_span_s) +
                 ", \"backend_tally_s\": " + format_double(backend_tally_s);
    const double span_coverage =
        log.self_seconds_total() / (traced_setup_s + traced.loop_s);
    layer_metrics(metrics, traced, serial, untraced, setups, rss_per_chain,
                  span_coverage, threads);
    if (!args.spans.empty()) {
      std::ofstream os(args.spans);
      if (!os) throw std::runtime_error("cannot write " + args.spans);
      log.write_chrome_trace(os);
    }
  }
  correct = correct && failed == 0;

  std::ostringstream stamp;
  stamp << "{\"workload\": \"" << w.name << "\", \"seed\": " << args.seed
        << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"taxa\": " << in.taxa
        << ", \"m\": " << m << ", \"chains\": " << kChains
        << ", \"gens_per_block\": " << w.gens_per_block
        << ", \"setups\": " << setups.size()
        << ", \"cpu\": \"" << json_escape(cpu_model()) << "\", \"nproc\": "
        << nproc() << ", \"threads\": " << threads << ", \"compiler\": \""
        << json_escape(compiler()) << "\", \"git_sha\": \""
        << json_escape(args.git_sha) << "\", \"trajectory_hash\": \""
        << hex(untraced.hash) << "\", \"lanes\": {" << phases << "}"
        << span_check << "}";
  const std::string result =
      "{\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + metrics_json(metrics) + "}";
  if (!args.out.empty()) {
    std::ofstream os(args.out);
    if (!os) throw std::runtime_error("cannot write " + args.out);
    os << "{\"stamp\": " << stamp.str() << ",\n \"result\": " << result
       << "}\n";
  }
  std::cout << "{\"stamp\": " << stamp.str() << "}\n";
  for (const Metric& m : metrics) {
    std::cout << "# " << m.name << " = " << format_double(m.value) << " "
              << m.unit << "\n";
  }
  std::cout << result << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "mc3bench: " << e.what() << "\n";
    return 2;
  }
}
