#include "core/backend.hpp"

#include <array>
#include <cstdint>
#include <vector>

#include "core/kernel_contracts.hpp"
#include "obs/names.hpp"
#include "obs/profile.hpp"
#include "util/clock.hpp"

namespace plf::core {

namespace {

/// The grain rule's one constant: C/t, what opening a pool region costs (C)
/// in serial site-ops (t each; a site-op is one op's kernels over one site).
/// An evaluation of W site-ops takes about W*t inline and W*t/T + C on a
/// T-thread region, so the region pays only when W*(T-1)/T > C/t. Measured
/// on a 4-vCPU Xeon (docs/EXECUTION_PLAN.md, "Grain rule"): t = 18 ns and
/// C = 10-18 us for 2-4 threads, so C/t is 580-1000 site-ops.
constexpr std::size_t kRegionCostSiteOps = 768;

/// EvalTail stages 1-2 over [begin, end): zero the total for a resum, then
/// retire the old scaler rows.
inline void retire_scalers(const EvalTail& tail, std::size_t begin,
                           std::size_t end) {
  double* total = tail.scaler_total;
  if (tail.resum) {
    for (std::size_t c = begin; c < end; ++c) total[c] = 0.0;
  }
  for (const float* row : tail.retire) {
    for (std::size_t c = begin; c < end; ++c) {
      total[c] -= static_cast<double>(row[c]);
    }
  }
}

/// EvalTail stage 4 over [begin, end): fold the new scaler rows in.
inline void fold_scalers(const EvalTail& tail, std::size_t begin,
                         std::size_t end) {
  double* total = tail.scaler_total;
  for (const float* row : tail.fold) {
    for (std::size_t c = begin; c < end; ++c) {
      total[c] += static_cast<double>(row[c]);
    }
  }
}

/// One plan op over [begin, end): the paper's kernels back to back on the
/// same site chunk — the op's down/root kernel, picked by its specialization
/// kind, then `scale` (which aliases the op's output; check_plan). Every
/// kernel is per-site, so regrouping (op, chunk) work through this helper
/// stays bit-identical to the per-call loop — the invariant the backend_diff
/// twins pin down.
inline void run_op(const KernelSet& ks, const PlfOp& op, std::size_t begin,
                   std::size_t end) {
  if (op.is_root) {
    ks.root(op.args, begin, end);
  } else {
    switch (op.kind) {
      case PlfOpKind::kTipTip:
        ks.down_tt(op.tt, begin, end);
        break;
      case PlfOpKind::kTipInner:
        ks.down_ti(op.args.down, begin, end);
        break;
      case PlfOpKind::kGeneric:
        ks.down(op.args.down, begin, end);
        break;
    }
  }
  ks.scale(op.scale, begin, end);
}

}  // namespace

void ExecutionBackend::run_plan(const KernelSet& ks, const PlfPlan& plan) {
  detail::check_plan(plan);
  // Reference executor, and per-call dispatch itself (PerCallBackend runs
  // any backend through it): ops in plan (level) order through the per-call
  // entries, each call under its own per-kernel plf.* timer scope on the
  // calling thread.
  for (const PlfOp& op : plan.ops()) {
    if (op.is_root) {
      PLF_PROF_SCOPE(obs::kTimerCondLikeRoot);
      run_root(ks, op.args, plan.m());
    } else {
      PLF_PROF_SCOPE(obs::kTimerCondLikeDown);
      run_down(ks, op.args.down, plan.m());
    }
    PLF_PROF_SCOPE(obs::kTimerCondLikeScaler);
    run_scale(ks, op.scale, plan.m());
  }
}

double ExecutionBackend::run_evaluation(const KernelSet& ks,
                                        const PlfPlan& plan,
                                        const EvalTail& tail) {
  detail::check_eval_tail(plan, tail);
  const std::size_t m = plan.m();
  if (tail.resum || !tail.retire.empty()) {
    PLF_PROF_SCOPE(obs::kTimerScalerSum);
    retire_scalers(tail, 0, m);
  }
  if (!plan.empty()) run_plan(ks, plan);
  {
    PLF_PROF_SCOPE(obs::kTimerScalerSum);
    fold_scalers(tail, 0, m);
  }
  PLF_PROF_SCOPE(obs::kTimerRootReduce);
  return run_root_reduce(ks, tail.reduce, m);
}

void SerialBackend::run_down(const KernelSet& ks, const DownArgs& a,
                             std::size_t m) {
  ks.down(a, 0, m);
}
void SerialBackend::run_root(const KernelSet& ks, const RootArgs& a,
                             std::size_t m) {
  ks.root(a, 0, m);
}
void SerialBackend::run_scale(const KernelSet& ks, const ScaleArgs& a,
                              std::size_t m) {
  ks.scale(a, 0, m);
}
double SerialBackend::run_root_reduce(const KernelSet& ks,
                                      const RootReduceArgs& a, std::size_t m) {
  return ks.root_reduce(a, 0, m);
}

void SerialBackend::run_plan(const KernelSet& ks, const PlfPlan& plan) {
  detail::check_plan(plan);
  // Plan order, each op as its down/root kernel (tip-specialized where the
  // engine marked it) then scale over the whole range. The op's scale stage
  // runs inside its down/root timer scope, so that timer holds the whole op.
  for (const PlfOp& op : plan.ops()) {
    if (op.is_root) {
      PLF_PROF_SCOPE(obs::kTimerCondLikeRoot);
      run_op(ks, op, 0, plan.m());
    } else {
      PLF_PROF_SCOPE(obs::kTimerCondLikeDown);
      run_op(ks, op, 0, plan.m());
    }
  }
}

std::string ThreadedBackend::name() const {
  return "threads(" + std::to_string(pool_.size()) + ")";
}

void ThreadedBackend::run_down(const KernelSet& ks, const DownArgs& a,
                               std::size_t m) {
  pool_.parallel_for(0, m, [&](par::Range r, std::size_t) {
    ks.down(a, r.begin, r.end);
  });
}

void ThreadedBackend::run_root(const KernelSet& ks, const RootArgs& a,
                               std::size_t m) {
  pool_.parallel_for(0, m, [&](par::Range r, std::size_t) {
    ks.root(a, r.begin, r.end);
  });
}

void ThreadedBackend::run_scale(const KernelSet& ks, const ScaleArgs& a,
                                std::size_t m) {
  pool_.parallel_for(0, m, [&](par::Range r, std::size_t) {
    ks.scale(a, r.begin, r.end);
  });
}

double ThreadedBackend::run_root_reduce(const KernelSet& ks,
                                        const RootReduceArgs& a,
                                        std::size_t m) {
  // Deterministic for a fixed thread count: one partial per static block,
  // combined in block order.
  std::vector<double> partial(pool_.size(), 0.0);
  pool_.parallel_for(0, m, [&](par::Range r, std::size_t block) {
    partial[block] = ks.root_reduce(a, r.begin, r.end);
  });
  double sum = 0.0;
  for (double p : partial) sum += p;
  return sum;
}

void ThreadedBackend::run_plan(const KernelSet& ks, const PlfPlan& plan) {
  detail::check_plan(plan);
  // Every kernel is per-site elementwise: site c of an op's output depends
  // only on site c of its children (and rescaling is per-site). So the whole
  // plan runs as ONE parallel region over [0, m): each worker runs the entire
  // op chain — down/root + scale per op, in plan (level) order — over its own
  // site chunk. No worker ever reads a chunk another worker wrote, so no
  // barrier is needed between levels: a k-node dirty path costs 1 region
  // instead of per-call's 2k, a child's chunk is still cache-hot when the
  // parent op consumes it, and the results are bit-identical to per-call
  // dispatch for any chunk partition.
  const std::vector<PlfOp>& ops = plan.ops();
  if (ops.empty()) return;
  PLF_PROF_SCOPE(obs::kTimerPlanLevel);
  pool_.parallel_for(0, plan.m(), [&](par::Range r, std::size_t) {
    for (const PlfOp& op : ops) run_op(ks, op, r.begin, r.end);
  });
}

bool ThreadedBackend::runs_inline(std::size_t site_ops) const {
  const std::size_t threads = pool_.size();
  return site_ops * (threads - 1) <= kRegionCostSiteOps * threads;
}

namespace {

/// Where a fused evaluation's time goes, per block: the scaler stages
/// (retire + fold), the plan's ops, the block's share of the reduction.
enum Stage : std::size_t { kStageScalers, kStageOps, kStageReduce, kStages };
using StageNs = std::array<std::uint64_t, kStages>;

/// Stage clock; reads nothing when profiling is compiled out.
inline std::uint64_t stage_clock() {
#if defined(PLF_PROFILING_ENABLED)
  return now_ns();
#else
  return 0;
#endif
}

/// Record one fused evaluation's `wall_s` under the rows it replaces
/// (engine.ScalerSum, plan.level, plf.RootReduce): each row gets the share
/// of the wall time that its stage took of the per-block stage time summed
/// over all blocks, so the rows of one evaluation add up to its wall time
/// however many workers ran it (docs/OBSERVABILITY.md).
void record_stages([[maybe_unused]] double wall_s,
                   [[maybe_unused]] const std::vector<StageNs>& blocks,
                   [[maybe_unused]] bool has_ops) {
#if defined(PLF_PROFILING_ENABLED)
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  static const std::array<obs::MetricId, kStages> ids = {
      reg.timer(obs::kTimerScalerSum), reg.timer(obs::kTimerPlanLevel),
      reg.timer(obs::kTimerRootReduce)};
  StageNs sum{};
  std::uint64_t total = 0;
  for (const StageNs& b : blocks) {
    for (std::size_t k = 0; k < kStages; ++k) {
      sum[k] += b[k];
      total += b[k];
    }
  }
  for (std::size_t k = 0; k < kStages; ++k) {
    if (k == kStageOps && !has_ops) continue;
    const double share = total > 0 ? static_cast<double>(sum[k]) /
                                         static_cast<double>(total)
                                   : 0.0;
    reg.record_seconds(ids[k], wall_s * share);
  }
#endif
}

}  // namespace

double ThreadedBackend::run_evaluation(const KernelSet& ks,
                                       const PlfPlan& plan,
                                       const EvalTail& tail) {
  detail::check_plan(plan);
  detail::check_eval_tail(plan, tail);
  // One evaluation, one static-schedule pass over [0, m): every block runs
  // retire, the whole op chain, fold and its share of the root reduction on
  // its own site chunk. Everything but the reduction is per-site, and a
  // block's partial depends only on its range, so as long as the blocks are
  // the static schedule's and the partials are summed in block order, the
  // result is the default run_evaluation's to the bit (its run_root_reduce
  // reduces over the same blocks) — whether a pool region runs the blocks
  // or the calling thread walks them itself.
  const std::vector<PlfOp>& ops = plan.ops();
  const std::size_t m = plan.m();
  const std::size_t blocks = pool_.size();
  std::vector<double> partial(blocks, 0.0);
  std::vector<StageNs> stage_ns(blocks);
  const auto run_block = [&](par::Range r, std::size_t b) {
    const std::uint64_t t0 = stage_clock();
    retire_scalers(tail, r.begin, r.end);
    const std::uint64_t t1 = stage_clock();
    for (const PlfOp& op : ops) run_op(ks, op, r.begin, r.end);
    const std::uint64_t t2 = stage_clock();
    fold_scalers(tail, r.begin, r.end);
    const std::uint64_t t3 = stage_clock();
    partial[b] = ks.root_reduce(tail.reduce, r.begin, r.end);
    const std::uint64_t t4 = stage_clock();
    stage_ns[b] = {(t1 - t0) + (t3 - t2), t2 - t1, t4 - t3};
  };

  const std::uint64_t start = stage_clock();
  if (runs_inline(m * (ops.size() + 1))) {
    inline_evals_.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t b = 0; b < blocks; ++b) {
      const par::Range r = par::static_block(0, m, blocks, b);
      if (!r.empty()) run_block(r, b);
    }
  } else {
    pool_.parallel_for(0, m, run_block);
  }
  record_stages(1e-9 * static_cast<double>(stage_clock() - start), stage_ns,
                !ops.empty());

  double sum = 0.0;
  for (double p : partial) sum += p;
  return sum;
}

}  // namespace plf::core
