// Shared machinery for the figure/table benches.
//
// Workloads are derived the honest way: a real McmcChain is run on a small
// pattern matrix with the requested taxon count (PLF call counts depend on
// the tree, not on m), the measured kernel call counts are scaled to the
// requested generation budget, and the pattern count is set to the target
// dataset's m. Serial cycles come from the calibrated analytic model (wall
// time on the build host would not describe a 2009 core).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "arch/workload.hpp"
#include "core/backend.hpp"
#include "core/engine.hpp"
#include "mcmc/chain.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phylo/patterns.hpp"
#include "seqgen/datasets.hpp"
#include "seqgen/evolve.hpp"
#include "seqgen/random_tree.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace plf::bench {

/// Publish one bench result cell into the global metrics registry as the
/// gauge "bench.<bench>.<row>.<column>", so a run's table is recoverable
/// from the structured JSON dump (emit_metrics_json below) without parsing
/// the human-readable output.
inline void publish_bench_value(const std::string& bench,
                                const std::string& row,
                                const std::string& column, double value) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.set_gauge(reg.gauge("bench." + bench + "." + row + "." + column), value);
}

/// If the PLF_BENCH_JSON environment variable names a file, dump the global
/// metrics registry (bench.* gauges published above plus any engine/kernel
/// metrics the run recorded) there as JSON. Benches call this once before
/// exiting; without the variable it is a no-op, so interactive runs keep
/// their table-only output.
inline void emit_metrics_json(const std::string& bench) {
  const char* path = std::getenv("PLF_BENCH_JSON");
  if (path == nullptr || *path == '\0') return;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "PLF_BENCH_JSON: cannot open " << path << "\n";
    return;
  }
  publish_bench_value(bench, "meta", "emitted", 1.0);
  obs::write_metrics_json(out, obs::MetricsRegistry::global().snapshot());
  std::cerr << "metrics json: " << path << " (" << bench << ")\n";
}

/// Scale an integer call count to a different generation budget, rounding to
/// nearest. Truncation here understated every scaled count by up to one call
/// per category and biased short-budget workloads low.
inline std::uint64_t scale_count(std::uint64_t count, double scale) {
  const double scaled = static_cast<double>(count) * scale;
  return scaled <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(scaled));
}

/// Measured-by-proxy workload: call counts from a real chain on `taxa`
/// taxa, scaled to `generations`, with pattern count `m`.
inline arch::PlfWorkload measured_workload(std::size_t taxa, std::size_t m,
                                           std::uint64_t generations) {
  // Cache the per-taxa chain measurement (independent of m).
  static std::map<std::size_t, arch::PlfWorkload> cache;
  const std::uint64_t probe_gens = 2000;

  auto it = cache.find(taxa);
  if (it == cache.end()) {
    Rng rng(1000 + taxa);
    phylo::Tree tree = seqgen::yule_tree(taxa, rng, 1.0, 0.15);
    phylo::GtrParams params = seqgen::default_gtr_params();
    phylo::SubstitutionModel model(params);
    seqgen::SequenceEvolver ev(tree, model);
    auto data = phylo::PatternMatrix::compress(ev.evolve(400, rng));

    core::SerialBackend backend;
    core::PlfEngine engine(data, params, tree, backend);
    mcmc::McmcOptions opts;
    opts.seed = 5;
    mcmc::McmcChain chain(engine, opts);
    const auto result = chain.run(probe_gens);
    it = cache
             .emplace(taxa, mcmc::workload_from_run(
                                result, data.n_patterns(), 4, taxa))
             .first;
  }

  arch::PlfWorkload w = it->second;
  const double scale =
      static_cast<double>(generations) / static_cast<double>(probe_gens);
  w.m = m;
  w.taxa = taxa;
  w.down_calls = scale_count(w.down_calls, scale);
  w.root_calls = scale_count(w.root_calls, scale);
  w.scale_calls = scale_count(w.scale_calls, scale);
  w.reduce_calls = scale_count(w.reduce_calls, scale);
  w.tm_builds = scale_count(w.tm_builds, scale);
  // Serial remainder from the calibrated model (host wall time is not a
  // 2009 baseline core).
  w.serial_cycles =
      arch::analytic_mcmc_workload(taxa, m, generations).serial_cycles;
  return w;
}

/// The ablation tables' gain column: "+<100 * (ratio - 1)>%" to one decimal.
/// Built by appending: gcc 12 at -O3 reports a false -Wrestrict on
/// "literal" + std::string.
inline std::string gain_percent(double ratio) {
  std::string s = "+";
  s += Table::num(100.0 * (ratio - 1.0), 1);
  s += '%';
  return s;
}

}  // namespace plf::bench
