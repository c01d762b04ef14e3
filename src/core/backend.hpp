// Execution backends: how one PLF invocation's outermost pattern loop is
// distributed over parallel resources.
//
// "The basic task consists in scheduling and distributing the required
// likelihood vector data structures and loop iterations to the several
// processing elements" (§3.1). A backend receives one kernel invocation over
// m patterns and decides the partitioning: serially, over a thread pool
// (the general-purpose multi-core scheme, §3.2), over simulated SPEs
// (plf::cell) or over a simulated CUDA grid (plf::gpu).
//
// Backends receive work at three grains:
//
//   run_down/run_root/run_scale/run_root_reduce — one kernel invocation,
//       one synchronization per call (the paper's per-call structure whose
//       spawn/sync overhead drives Fig. 9);
//   run_plan — a dependency-leveled batch of PlfOps (core/plan.hpp). The
//       default implementation loops ops through the per-call entries, so
//       every backend is plan-capable and bit-identical to per-call dispatch
//       from day one; backends override it to run each op's kernels back to
//       back per site chunk and amortize synchronization across the plan;
//   run_evaluation — a whole evaluation, the engine's only entry: the plan
//       plus its EvalTail (scaler-total retire/fold and the root reduction).
//       The default runs retire, run_plan, fold and run_root_reduce in turn.
//       ThreadedBackend overrides it to run all of it in at most one region.
//
// PerCallBackend pins any backend to the defaults.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "core/kernels.hpp"
#include "core/plan.hpp"
#include "par/thread_pool.hpp"

namespace plf::core {

/// What a backend can faithfully execute beyond the baseline per-call
/// contract. The engine consults this instead of per-feature virtuals.
enum class Capabilities : std::uint32_t {
  kNone = 0,
  /// run_plan dispatches tip-specialized ops (PlfOpKind::kTipTip/kTipInner)
  /// to the lookup-table kernels instead of the generic entries. The engine
  /// only builds pair tables and sets op kinds for backends advertising this
  /// (docs/KERNELS.md); everyone else executes the always-valid generic
  /// argument block, bit-identically.
  kTipKernels = 1u << 0,
};

constexpr Capabilities operator&(Capabilities a, Capabilities b) {
  return static_cast<Capabilities>(static_cast<std::uint32_t>(a) &
                                   static_cast<std::uint32_t>(b));
}

constexpr bool has_capability(Capabilities set, Capabilities cap) {
  return (set & cap) != Capabilities::kNone;
}

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  virtual std::string name() const = 0;

  virtual Capabilities capabilities() const { return Capabilities::kNone; }

  virtual void run_down(const KernelSet& ks, const DownArgs& args,
                        std::size_t m) = 0;
  virtual void run_root(const KernelSet& ks, const RootArgs& args,
                        std::size_t m) = 0;
  virtual void run_scale(const KernelSet& ks, const ScaleArgs& args,
                         std::size_t m) = 0;
  /// Full root reduction (must be deterministic for a fixed configuration).
  virtual double run_root_reduce(const KernelSet& ks,
                                 const RootReduceArgs& args, std::size_t m) = 0;

  /// Execute a finalized dependency-leveled batch (see core/plan.hpp):
  /// every op's down/root kernel then its scale kernel, respecting level
  /// order. The default walks ops in plan order through the per-call entries
  /// above — bit-identical to per-call dispatch. Overrides must preserve that
  /// bit-identity (per-site math is partition-invariant; level order keeps
  /// the data dependencies).
  virtual void run_plan(const KernelSet& ks, const PlfPlan& plan);

  /// Run one evaluation — `plan` (possibly empty) inside `tail`'s per-site
  /// stages (see EvalTail) — and return its log likelihood. The default runs
  /// retire on the calling thread, run_plan when the plan has ops, fold on
  /// the calling thread, then run_root_reduce: the per-call entries' own
  /// regions, nothing fused. Overrides must return the same bits as this
  /// default does on the same backend.
  virtual double run_evaluation(const KernelSet& ks, const PlfPlan& plan,
                                const EvalTail& tail);
};

/// Per-call dispatch as an executor: wraps `inner`, forwards the four per-call
/// entries and advertises no capabilities, so the inherited base run_plan
/// walks every op through the generic kernels with one
/// synchronization per call. That is the paper's per-call structure (Fig. 9)
/// and the 0-ULP reference every plan executor is diffed against.
class PerCallBackend final : public ExecutionBackend {
 public:
  explicit PerCallBackend(ExecutionBackend& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name() + "/percall"; }
  void run_down(const KernelSet& ks, const DownArgs& a,
                std::size_t m) override {
    inner_.run_down(ks, a, m);
  }
  void run_root(const KernelSet& ks, const RootArgs& a,
                std::size_t m) override {
    inner_.run_root(ks, a, m);
  }
  void run_scale(const KernelSet& ks, const ScaleArgs& a,
                 std::size_t m) override {
    inner_.run_scale(ks, a, m);
  }
  double run_root_reduce(const KernelSet& ks, const RootReduceArgs& a,
                         std::size_t m) override {
    return inner_.run_root_reduce(ks, a, m);
  }

 private:
  ExecutionBackend& inner_;
};

/// Everything on the calling thread (the paper's Baseline system).
class SerialBackend final : public ExecutionBackend {
 public:
  std::string name() const override { return "serial"; }
  Capabilities capabilities() const override {
    return Capabilities::kTipKernels;
  }
  void run_down(const KernelSet& ks, const DownArgs& a, std::size_t m) override;
  void run_root(const KernelSet& ks, const RootArgs& a, std::size_t m) override;
  void run_scale(const KernelSet& ks, const ScaleArgs& a, std::size_t m) override;
  double run_root_reduce(const KernelSet& ks, const RootReduceArgs& a,
                         std::size_t m) override;
  /// Ops in plan order, each as its (tip-specialized where marked) down/root
  /// kernel then scale, with no per-call indirection.
  void run_plan(const KernelSet& ks, const PlfPlan& plan) override;
};

/// OpenMP-style parallel-for over the outermost pattern loop (§3.2): one
/// parallel region per PLF invocation with an implicit barrier at the end —
/// the spawn/sync structure whose overhead drives Fig. 9. run_plan lifts
/// that structure to one region per plan, and run_evaluation to one region
/// per evaluation: each block of the static schedule runs retire, every
/// op's down/root kernel then scale in level order, fold and its share of
/// the root reduction on its own site chunk, so a k-node evaluation costs 1
/// region instead of per-call's 2k+1. An evaluation too small to repay a
/// region (runs_inline) walks the same blocks on the calling thread and
/// opens none (docs/EXECUTION_PLAN.md).
class ThreadedBackend final : public ExecutionBackend {
 public:
  explicit ThreadedBackend(par::ThreadPool& pool) : pool_(pool) {}

  std::string name() const override;
  Capabilities capabilities() const override {
    return Capabilities::kTipKernels;
  }
  void run_down(const KernelSet& ks, const DownArgs& a, std::size_t m) override;
  void run_root(const KernelSet& ks, const RootArgs& a, std::size_t m) override;
  void run_scale(const KernelSet& ks, const ScaleArgs& a, std::size_t m) override;
  double run_root_reduce(const KernelSet& ks, const RootReduceArgs& a,
                         std::size_t m) override;
  void run_plan(const KernelSet& ks, const PlfPlan& plan) override;
  double run_evaluation(const KernelSet& ks, const PlfPlan& plan,
                        const EvalTail& tail) override;

  /// The grain rule: true when an evaluation of `site_ops` site-ops
  /// (m x (ops + 1), the reduction counting as one op) runs inline on the
  /// calling thread instead of in a pool region. Depends only on site_ops
  /// and the pool size.
  bool runs_inline(std::size_t site_ops) const;

  /// Evaluations the grain rule ran inline since construction. Every other
  /// run_evaluation opened exactly one region of pool().regions().
  std::uint64_t inline_evals() const {
    return inline_evals_.load(std::memory_order_relaxed);
  }

  par::ThreadPool& pool() { return pool_; }

 private:
  par::ThreadPool& pool_;
  std::atomic<std::uint64_t> inline_evals_{0};
};

}  // namespace plf::core
