// Tracing taken from outside the library: an in-memory span log and a
// forwarding ExecutionBackend that times every call the engine makes into
// the backend layer and inspects each plan it is handed.
//
// The wrapper forwards capabilities() unchanged, so the engine configures
// itself exactly as it would on the wrapped backend and results stay
// bit-identical (the benchmark checks this with trajectory hashes).
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/backend.hpp"

namespace mc3bench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;  ///< string literal
  int parent;        ///< index into the log, -1 for a top-level span
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// Spans kept in memory and written out when the run ends. Opening a span
/// makes it the parent of every span recorded until it is closed.
class SpanLog {
 public:
  void open(const char* name) {
    spans_.push_back({name, parent(), now_ns(), 0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  void close() {
    spans_[static_cast<std::size_t>(stack_.back())].end_ns = now_ns();
    stack_.pop_back();
  }
  /// A finished leaf span under the currently open one.
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back({name, parent(), start_ns, end_ns});
  }

  /// Sum over spans of duration minus the time their children cover.
  double self_seconds_total() const;

  /// Summed durations of the spans whose name starts with `prefix`.
  double seconds_named(std::string_view prefix) const;

  /// True when every span is closed and lies within its parent's interval,
  /// so no self time is negative.
  bool nested() const;

  /// chrome://tracing / Perfetto "X" events, one per span, with the parent
  /// index in args.
  void write_chrome_trace(std::ostream& os) const;

 private:
  int parent() const { return stack_.empty() ? -1 : stack_.back(); }

  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Opens a span for the lifetime of the scope; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name) : log_(log) {
    if (log_ != nullptr) log_->open(name);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

/// What the backend layer was asked to do and how long it took.
struct BackendTally {
  std::uint64_t plan_calls = 0;
  std::uint64_t reduce_calls = 0;
  std::uint64_t percall_calls = 0;  ///< run_down/run_root/run_scale
  double plan_s = 0.0;
  double reduce_s = 0.0;
  double percall_s = 0.0;

  // Plan inspection (exact counts).
  std::uint64_t ops = 0;
  std::uint64_t levels = 0;
  std::uint64_t compacted_ops = 0;  ///< ops computing repeat classes only
  std::uint64_t tip_tip_ops = 0;
  std::uint64_t tip_inner_ops = 0;
  double run_sites = 0.0;    ///< sum of op run_m
  double dense_sites = 0.0;  ///< sum of the plan's m over ops
  double flops = 0.0;        ///< computed from down_flops_per_pattern
  double plan_bytes = 0.0;   ///< computed, one touch per array element
  double reduce_bytes = 0.0;

  double seconds() const { return plan_s + reduce_s + percall_s; }
};

class TimingBackend final : public plf::core::ExecutionBackend {
 public:
  /// `log` may be null: the tally is kept either way.
  TimingBackend(plf::core::ExecutionBackend& inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  std::string name() const override { return inner_.name(); }
  plf::core::Capabilities capabilities() const override {
    return inner_.capabilities();
  }

  void run_down(const plf::core::KernelSet& ks, const plf::core::DownArgs& a,
                std::size_t m) override;
  void run_root(const plf::core::KernelSet& ks, const plf::core::RootArgs& a,
                std::size_t m) override;
  void run_scale(const plf::core::KernelSet& ks, const plf::core::ScaleArgs& a,
                 std::size_t m) override;
  double run_root_reduce(const plf::core::KernelSet& ks,
                         const plf::core::RootReduceArgs& a,
                         std::size_t m) override;
  void run_plan(const plf::core::KernelSet& ks,
                const plf::core::PlfPlan& plan) override;

  const BackendTally& tally() const { return tally_; }
  void reset_tally() { tally_ = BackendTally{}; }

 private:
  /// Time `fn`, add the seconds to `acc`, and log a span named `name`.
  template <class Fn>
  void timed(const char* name, double& acc, Fn&& fn) {
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t t1 = now_ns();
    acc += 1e-9 * static_cast<double>(t1 - t0);
    if (log_ != nullptr) log_->add(name, t0, t1);
  }

  plf::core::ExecutionBackend& inner_;
  SpanLog* log_;
  BackendTally tally_;
};

}  // namespace mc3bench
