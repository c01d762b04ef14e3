#include "mcmc/chain.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/profile.hpp"
#include "util/clock.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"

namespace plf::mcmc {

std::uint64_t McmcResult::total_proposed() const {
  std::uint64_t n = 0;
  for (const auto& [name, s] : proposals) n += s.proposed;
  return n;
}

std::uint64_t McmcResult::total_accepted() const {
  std::uint64_t n = 0;
  for (const auto& [name, s] : proposals) n += s.accepted;
  return n;
}

McmcChain::McmcChain(core::PlfEngine& engine, const McmcOptions& options)
    : engine_(&engine), opts_(options), rng_(options.seed) {
  proposals_.push_back(std::make_unique<BranchLengthMultiplier>(opts_.tuning));
  weights_.push_back(opts_.w_branch);
  proposals_.push_back(std::make_unique<NniMove>(opts_.tuning));
  weights_.push_back(opts_.w_nni);
  proposals_.push_back(std::make_unique<GammaShapeMultiplier>(opts_.tuning));
  weights_.push_back(opts_.w_shape);
  proposals_.push_back(std::make_unique<GtrRatesDirichlet>(opts_.tuning));
  weights_.push_back(opts_.w_rates);
  proposals_.push_back(std::make_unique<BaseFrequenciesDirichlet>(opts_.tuning));
  weights_.push_back(opts_.w_pi);
  if (opts_.w_pinv > 0.0) {
    proposals_.push_back(std::make_unique<PinvSlide>(opts_.tuning));
    weights_.push_back(opts_.w_pinv);
  }
  if (opts_.w_spr > 0.0) {
    proposals_.push_back(std::make_unique<SprMove>(opts_.tuning));
    weights_.push_back(opts_.w_spr);
  }

  ln_lik_ = engine_->log_likelihood();
}

const Proposal& McmcChain::draw_proposal(Rng& rng) const {
  return *proposals_[rng.categorical(weights_)];
}

bool McmcChain::step() {
  PLF_PROF_SCOPE(obs::kTimerMcmcGeneration);
  ++generation_;
  const Proposal& move = draw_proposal(rng_);
  ProposalStats& st = stats_[move.name()];
  ++st.proposed;

  engine_->begin_proposal();
  const double log_prior_hastings = move.propose(*engine_, rng_);

  bool accept = false;
  if (std::isfinite(log_prior_hastings)) {
    const double proposed_ln_lik = engine_->log_likelihood();
    const double log_ratio =
        opts_.likelihood_power * (proposed_ln_lik - ln_lik_) +
        log_prior_hastings;
    if (log_ratio >= 0.0 || std::log(rng_.uniform() + 1e-300) < log_ratio) {
      accept = true;
      ln_lik_ = proposed_ln_lik;
    }
  }

  if (accept) {
    engine_->accept();
    ++st.accepted;
  } else {
    engine_->reject();
  }
  return accept;
}

McmcResult McmcChain::run(std::uint64_t generations) {
  Stopwatch wall;
  const core::EngineStats before = engine_->stats();

  McmcResult result;
  result.best_ln_likelihood = ln_lik_;
  auto take_sample = [&] {
    result.samples.push_back(
        McmcSample{generation_, ln_lik_, engine_->tree().total_length(),
                   engine_->model_params().gamma_shape});
    if (opts_.collect_trees) {
      result.sampled_trees.push_back(engine_->tree().to_newick());
    }
  };
  take_sample();

  for (std::uint64_t g = 0; g < generations; ++g) {
    step();
    result.best_ln_likelihood = std::max(result.best_ln_likelihood, ln_lik_);
    if (opts_.sample_every != 0 && generation_ % opts_.sample_every == 0) {
      take_sample();
    }
  }

  result.proposals = stats_;
  result.final_ln_likelihood = ln_lik_;
  result.final_tree_newick = engine_->tree().to_newick();
  result.wall_seconds = wall.seconds();

  result.engine_stats = engine_->stats() - before;
  result.plf_wall_seconds = result.engine_stats.plf_seconds;
  result.serial_wall_seconds =
      result.wall_seconds - result.engine_stats.plf_seconds;
  return result;
}

void McmcChain::save_state(util::BinaryWriter& w) const {
  w.section("CHAI");
  w.u64(generation_);
  w.f64(ln_lik_);
  w.f64(opts_.likelihood_power);
  const Rng::State rs = rng_.state();
  w.u64_array(rs.s.data(), rs.s.size());
  w.u8(rs.have_spare_normal ? 1 : 0);
  w.f64(rs.spare_normal);
  w.u64(stats_.size());
  for (const auto& [name, st] : stats_) {
    w.str(name);
    w.u64(st.proposed);
    w.u64(st.accepted);
  }
}

void McmcChain::restore_state(util::BinaryReader& r) {
  r.section("CHAI");
  generation_ = r.u64();
  ln_lik_ = r.f64();
  opts_.likelihood_power = r.f64();
  Rng::State rs;
  const std::vector<std::uint64_t> s = r.u64_array();
  PLF_CHECK(s.size() == rs.s.size(), "restore_state: bad rng state size");
  std::copy(s.begin(), s.end(), rs.s.begin());
  rs.have_spare_normal = r.u8() != 0;
  rs.spare_normal = r.f64();
  rng_.set_state(rs);
  stats_.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::string name = r.str();
    ProposalStats st;
    st.proposed = r.u64();
    st.accepted = r.u64();
    stats_[name] = st;
  }
}

void publish_proposal_gauges(
    obs::MetricsRegistry& registry,
    const std::map<std::string, ProposalStats>& stats) {
  for (const auto& [name, st] : stats) {
    registry.set_gauge(
        registry.gauge(std::string(obs::kGaugeMcmcProposedPrefix) + name),
        static_cast<double>(st.proposed));
    registry.set_gauge(
        registry.gauge(std::string(obs::kGaugeMcmcAcceptedPrefix) + name),
        static_cast<double>(st.accepted));
    registry.set_gauge(
        registry.gauge(std::string(obs::kGaugeMcmcAcceptRatePrefix) + name),
        st.acceptance_rate());
  }
}

arch::PlfWorkload workload_from_run(const McmcResult& result, std::size_t m,
                                    std::size_t K, std::size_t taxa,
                                    double baseline_freq_hz) {
  arch::PlfWorkload w;
  w.m = m;
  w.K = K;
  w.taxa = taxa;
  // Per-kernel counts derived from the plan counters (see EngineStats).
  const core::EngineStats& s = result.engine_stats;
  w.root_calls = s.plan_builds;
  w.down_calls = s.plan_ops - s.plan_builds;
  w.scale_calls = s.plan_ops;
  w.reduce_calls = s.reduce_calls;
  w.tm_builds = s.tm_builds;
  // The measured serial wall time, expressed in baseline-core cycles (the
  // abstract unit the arch models consume). tm rebuilds are modeled
  // separately, so subtract nothing here — the engine's measured serial
  // time already excludes kernels only.
  w.serial_cycles = result.serial_wall_seconds * baseline_freq_hz;
  return w;
}

}  // namespace plf::mcmc
