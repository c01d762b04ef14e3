#include "core/backend.hpp"

#include <vector>

#include "core/kernel_contracts.hpp"
#include "obs/names.hpp"
#include "obs/profile.hpp"

namespace plf::core {

namespace {

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
  // Deterministic for a fixed thread count: static partitioning with the
  // partial sums combined in thread order.
  std::vector<double> partial(pool_.size(), 0.0);
  pool_.parallel_for(
      0, m,
      [&](par::Range r, std::size_t tid) {
        partial[tid] = ks.root_reduce(a, r.begin, r.end);
      },
      par::Schedule::kStatic);
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
  PLF_PROF_COUNT(obs::kCounterPlanLevels, plan.n_levels());
  PLF_PROF_COUNT(obs::kCounterPlanOps, ops.size());
  PLF_PROF_COUNT(obs::kCounterPlanRegionsSaved, 2 * ops.size() - 1);
  PLF_PROF_SCOPE(obs::kTimerPlanLevel);
  pool_.parallel_for(0, plan.m(), [&](par::Range r, std::size_t) {
    for (const PlfOp& op : ops) run_op(ks, op, r.begin, r.end);
  });
}

}  // namespace plf::core
