#include "trace.hpp"

#include <cstdio>

#include "core/kernels.hpp"

namespace mc3bench {

namespace core = plf::core;

double SpanLog::self_seconds_total() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::int64_t self = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self += spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
  }
  return 1e-9 * static_cast<double>(self);
}

double SpanLog::seconds_named(std::string_view prefix) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (std::string_view(s.name).substr(0, prefix.size()) == prefix) {
      ns += s.end_ns - s.start_ns;
    }
  }
  return 1e-9 * static_cast<double>(ns);
}

bool SpanLog::nested() const {
  for (const Span& s : spans_) {
    if (s.end_ns < s.start_ns) return false;
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) return false;
  }
  return stack_.empty();
}

void SpanLog::write_chrome_trace(std::ostream& os) const {
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name,
                  1e-3 * static_cast<double>(s.start_ns - t0),
                  1e-3 * static_cast<double>(s.end_ns - s.start_ns), i,
                  s.parent);
    os << buf;
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void TimingBackend::run_down(const core::KernelSet& ks,
                             const core::DownArgs& a, std::size_t m) {
  ++tally_.percall_calls;
  timed("backend.down", tally_.percall_s, [&] { inner_.run_down(ks, a, m); });
}

void TimingBackend::run_root(const core::KernelSet& ks,
                             const core::RootArgs& a, std::size_t m) {
  ++tally_.percall_calls;
  timed("backend.root", tally_.percall_s, [&] { inner_.run_root(ks, a, m); });
}

void TimingBackend::run_scale(const core::KernelSet& ks,
                              const core::ScaleArgs& a, std::size_t m) {
  ++tally_.percall_calls;
  timed("backend.scale", tally_.percall_s,
        [&] { inner_.run_scale(ks, a, m); });
}

double TimingBackend::run_root_reduce(const core::KernelSet& ks,
                                      const core::RootReduceArgs& a,
                                      std::size_t m) {
  ++tally_.reduce_calls;
  // Root CLV, summed scaler (double), weights, and the +I column if used.
  const double per_site = static_cast<double>(a.K * 4 * sizeof(float)) +
                          sizeof(double) + sizeof(std::uint32_t) +
                          (a.const_lik != nullptr ? sizeof(float) : 0);
  tally_.reduce_bytes += per_site * static_cast<double>(m);
  double lnl = 0.0;
  timed("backend.reduce", tally_.reduce_s,
        [&] { lnl = inner_.run_root_reduce(ks, a, m); });
  return lnl;
}

void TimingBackend::run_plan(const core::KernelSet& ks,
                             const core::PlfPlan& plan) {
  ++tally_.plan_calls;
  tally_.ops += plan.n_ops();
  tally_.levels += plan.n_levels();
  const auto dense = static_cast<double>(plan.m());
  for (const core::PlfOp& op : plan.ops()) {
    const auto run_m = static_cast<double>(op.run_m);
    const std::size_t K = op.args.down.K;
    const double clv = static_cast<double>(K * 4 * sizeof(float));
    auto child_bytes = [&](const core::ChildArgs& c) {
      return c.is_tip() ? sizeof(plf::phylo::StateMask) : clv;
    };
    // Written CLV and scaler, plus what the kernel reads per site.
    double per_site = clv + sizeof(float);
    if (op.kind == core::PlfOpKind::kTipTip) {
      per_site += 2 * sizeof(plf::phylo::StateMask);
      ++tally_.tip_tip_ops;
    } else {
      per_site += child_bytes(op.args.down.left) +
                  child_bytes(op.args.down.right);
      if (op.is_root) per_site += sizeof(plf::phylo::StateMask);
      if (op.kind == core::PlfOpKind::kTipInner) ++tally_.tip_inner_ops;
    }
    tally_.plan_bytes += per_site * run_m;
    if (op.repeats != nullptr) {
      ++tally_.compacted_ops;
      // Repeat scatter: read and write one CLV block + scaler per duplicate.
      tally_.plan_bytes += 2.0 * (clv + sizeof(float)) * (dense - run_m);
    }
    tally_.run_sites += run_m;
    tally_.dense_sites += dense;
    tally_.flops += core::down_flops_per_pattern(K) * run_m;
  }
  timed("backend.plan", tally_.plan_s, [&] { inner_.run_plan(ks, plan); });
}

}  // namespace mc3bench
