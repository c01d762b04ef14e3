#include "core/engine.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/kernel_contracts.hpp"
#include "numerics/ulp.hpp"
#include "obs/names.hpp"
#include "obs/profile.hpp"
#include "simd/simd.hpp"
#include "util/clock.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"

namespace plf::core {

namespace {

/// True when `b` differs from `a` in p_invariant alone. Every other parameter
/// is bit-equal, so both give the same transition matrices and with them the
/// same CLVs and scaler rows: p_invariant only weighs the root reduction's
/// +I mixture.
bool only_p_invariant_changes(const phylo::GtrParams& a,
                              const phylo::GtrParams& b) {
  for (std::size_t i = 0; i < a.rates.size(); ++i) {
    if (!num::exactly_equal(a.rates[i], b.rates[i])) return false;
  }
  for (std::size_t i = 0; i < a.pi.size(); ++i) {
    if (!num::exactly_equal(a.pi[i], b.pi[i])) return false;
  }
  return num::exactly_equal(a.gamma_shape, b.gamma_shape) &&
         a.n_rate_categories == b.n_rate_categories &&
         !num::exactly_equal(a.p_invariant, b.p_invariant);
}

}  // namespace

EngineStats operator-(const EngineStats& a, const EngineStats& b) {
  static_assert(sizeof(EngineStats) == 11 * sizeof(std::uint64_t),
                "EngineStats gained or lost a field: update operator-");
  EngineStats d;
  d.reduce_calls = a.reduce_calls - b.reduce_calls;
  d.tm_builds = a.tm_builds - b.tm_builds;
  d.plf_seconds = a.plf_seconds - b.plf_seconds;
  d.plan_builds = a.plan_builds - b.plan_builds;
  d.plan_ops = a.plan_ops - b.plan_ops;
  d.plan_levels = a.plan_levels - b.plan_levels;
  d.scaler_resums = a.scaler_resums - b.scaler_resums;
  d.scaler_delta_updates = a.scaler_delta_updates - b.scaler_delta_updates;
  d.tip_tt_ops = a.tip_tt_ops - b.tip_tt_ops;
  d.tip_ti_ops = a.tip_ti_ops - b.tip_ti_ops;
  d.tip_tables_built = a.tip_tables_built - b.tip_tables_built;
  return d;
}

PlfEngine::PlfEngine(phylo::PatternMatrix data, const phylo::GtrParams& params,
                     phylo::Tree tree, ExecutionBackend& backend,
                     KernelVariant variant, ClvBudget clv_budget)
    : data_(std::move(data)),
      model_(params),
      tree_(std::move(tree)),
      backend_(&backend),
      kernels_(&kernels(variant)) {
  PLF_CHECK(data_.n_taxa() == tree_.n_taxa(),
            "pattern matrix and tree disagree on taxon count");
  m_ = data_.n_patterns();
  k_ = model_.n_rate_categories();

  nodes_.resize(tree_.n_nodes());
  branches_.resize(tree_.n_nodes());
  std::size_t n_internal = 0;
  for (std::size_t id = 0; id < tree_.n_nodes(); ++id) {
    const phylo::TreeNode& n = tree_.node(static_cast<int>(id));
    if (!n.is_leaf()) {
      // Scaler rows stay engine-owned (the full resum must read every
      // internal node's active row); the CLV storage itself lives in the
      // budgeted arena below.
      for (int b = 0; b < 2; ++b) {
        nodes_[id].scaler[static_cast<std::size_t>(b)].assign(m_, 0.0f);
      }
      nodes_[id].dirty = true;
      ++n_internal;
    }
    if (n.parent != phylo::kNoNode) {
      branches_[id].dirty = true;
    }
  }

  // Budgeted CLV arena (docs/MEMORY.md): two buffers of m*K*4 floats per
  // internal node; the budget is clamped up to one buffer per internal node,
  // the worst-case pinned working set of a single evaluation.
  const std::size_t slot_floats = m_ * k_ * 4;
  const std::size_t slot_bytes = slot_floats * sizeof(float);
  arena_.init(2 * tree_.n_nodes(), slot_floats,
              clv_budget.resolve(2 * n_internal * slot_bytes,
                                 n_internal * slot_bytes));
  if (clv_budget.unlimited()) {
    // Historical behaviour: preallocate both buffers of every internal node
    // eagerly, so nothing is ever evicted and node_cl() is valid (zeroed)
    // before the first evaluation.
    for (std::size_t id = 0; id < tree_.n_nodes(); ++id) {
      if (tree_.node(static_cast<int>(id)).is_leaf()) continue;
      for (int b = 0; b < 2; ++b) {
        arena_.acquire(clv_slot(static_cast<int>(id), b));
      }
    }
  }
  scaler_total_.assign(m_, 0.0);

  // +I support: which states every taxon could share, per pattern.
  const_mask_.assign(m_, phylo::kGapMask);
  for (std::size_t t = 0; t < data_.n_taxa(); ++t) {
    const phylo::StateMask* row = data_.row(t);
    for (std::size_t c = 0; c < m_; ++c) {
      const_mask_[c] = static_cast<phylo::StateMask>(const_mask_[c] & row[c]);
    }
  }
  const_lik_.assign(m_, 0.0f);
  refresh_const_lik();

  // Tip-specialized ops only for backends that dispatch them: PerCallBackend
  // advertises nothing, so per-call dispatch stays the exact A/B baseline.
  tip_kernels_enabled_ =
      has_capability(backend_->capabilities(), Capabilities::kTipKernels);

  // Publish the CLV footprint gauges immediately: a --metrics-json snapshot
  // taken before the first evaluation must already see engine.clv_bytes.
  publish_arena_gauges(obs::MetricsRegistry::global());
}

void PlfEngine::mark_node_dirty(int node) {
  NodeState& st = nodes_[static_cast<std::size_t>(node)];
  if (!st.dirty) {
    st.dirty = true;
    if (in_proposal_) {
      node_dirty_marks_.push_back(node);
      st.dirty_epoch = proposal_epoch_;
    }
  }
}

void PlfEngine::mark_path_dirty(int from_node) {
  for (int id = from_node; id != phylo::kNoNode; id = tree_.node(id).parent) {
    if (!tree_.node(id).is_leaf()) mark_node_dirty(id);
  }
  lik_valid_ = false;
}

void PlfEngine::mark_branch_dirty(int node) {
  BranchState& st = branches_[static_cast<std::size_t>(node)];
  if (!st.dirty) {
    st.dirty = true;
    if (in_proposal_) {
      branch_dirty_marks_.push_back(node);
      st.dirty_epoch = proposal_epoch_;
    }
  }
}

void PlfEngine::begin_proposal() {
  PLF_CHECK(!in_proposal_, "begin_proposal: proposal already open");
  in_proposal_ = true;
  ++proposal_epoch_;
  saved_ln_lik_ = ln_lik_;
  saved_lik_valid_ = lik_valid_;
  flipped_nodes_.clear();
  flipped_branches_.clear();
  node_dirty_marks_.clear();
  branch_dirty_marks_.clear();
  pre_dirty_nodes_.clear();
  pre_dirty_branches_.clear();
  old_lengths_.clear();
  nni_log_.clear();
  spr_log_.clear();
  old_params_.reset();
}

void PlfEngine::accept() {
  PLF_CHECK(in_proposal_, "accept: no open proposal");
  in_proposal_ = false;
}

void PlfEngine::reject() {
  PLF_CHECK(in_proposal_, "reject: no open proposal");
  in_proposal_ = false;

  // Undo topology changes (NNI is an involution for a fixed (v, slot)).
  for (auto it = nni_log_.rbegin(); it != nni_log_.rend(); ++it) {
    tree_.nni(it->first, it->second);
  }
  // Undo branch lengths.
  for (auto it = old_lengths_.rbegin(); it != old_lengths_.rend(); ++it) {
    tree_.set_branch_length(it->first, it->second);
  }
  // Undo SPR moves (restores the u/w/target branch lengths absolutely).
  for (auto it = spr_log_.rbegin(); it != spr_log_.rend(); ++it) {
    tree_.undo_spr(*it);
  }
  // Undo model change.
  if (old_params_) {
    model_ = phylo::SubstitutionModel(*old_params_);
    refresh_const_lik();
  }
  // Flip buffers back (no recomputation — the MrBayes restore path).
  for (int id : flipped_nodes_) {
    nodes_[static_cast<std::size_t>(id)].active ^= 1;
  }
  for (int id : flipped_branches_) {
    branches_[static_cast<std::size_t>(id)].active ^= 1;
  }
  // Dirty flags raised by the proposal refer to state we just restored.
  for (int id : node_dirty_marks_) {
    nodes_[static_cast<std::size_t>(id)].dirty = false;
  }
  for (int id : branch_dirty_marks_) {
    branches_[static_cast<std::size_t>(id)].dirty = false;
  }
  // Anything that entered the proposal dirty was recomputed into the buffer
  // we just flipped away from; the restored buffer is stale (possibly never
  // built), so those entries go back to dirty and must be recomputed.
  for (int id : pre_dirty_nodes_) {
    nodes_[static_cast<std::size_t>(id)].dirty = true;
  }
  for (int id : pre_dirty_branches_) {
    branches_[static_cast<std::size_t>(id)].dirty = true;
  }
  if (!pre_dirty_nodes_.empty() || !pre_dirty_branches_.empty()) {
    lik_valid_ = false;
    saved_lik_valid_ = false;
  }
  // The flips above wholesale-reverted scaler rows the incremental total
  // already absorbed; only a full resum can reconcile it.
  scaler_resum_ = true;
  ln_lik_ = saved_ln_lik_;
  lik_valid_ = saved_lik_valid_;
}

void PlfEngine::set_branch_length(int node, double length) {
  if (in_proposal_) {
    old_lengths_.emplace_back(node, tree_.branch_length(node));
  }
  tree_.set_branch_length(node, length);
  mark_branch_dirty(node);
  mark_path_dirty(tree_.node(node).parent);
}

void PlfEngine::apply_nni(int v, bool swap_left) {
  tree_.nni(v, swap_left);
  if (in_proposal_) nni_log_.emplace_back(v, swap_left);
  // v's children changed, so v and everything above it must be recomputed.
  mark_path_dirty(v);
  scaler_resum_ = true;  // topology change: rebuild the scaler total
}

void PlfEngine::apply_spr(int s, int target, double split_x) {
  const auto undo = tree_.spr(s, target, split_x);
  if (in_proposal_) spr_log_.push_back(undo);
  // Three branch lengths changed; both the detachment and insertion sites
  // need their root paths recomputed.
  mark_branch_dirty(undo.u);
  mark_branch_dirty(undo.w);
  mark_branch_dirty(undo.target);
  mark_path_dirty(tree_.node(undo.w).parent);  // where the subtree left
  mark_path_dirty(undo.u);                     // where it arrived
  scaler_resum_ = true;  // topology change: rebuild the scaler total
}

void PlfEngine::set_model(const phylo::GtrParams& params) {
  PLF_CHECK(params.n_rate_categories == model_.n_rate_categories(),
            "set_model: rate category count is fixed at engine construction");
  if (in_proposal_ && !old_params_) old_params_ = model_.params();
  const bool tail_only = only_p_invariant_changes(model_.params(), params);
  model_ = phylo::SubstitutionModel(params);
  k_ = model_.n_rate_categories();
  refresh_const_lik();
  if (tail_only) {
    // Every matrix, CLV and scaler row stays valid: the next evaluation only
    // runs the tail (see retouch_scalers_).
    retouch_scalers_ = true;
    lik_valid_ = false;
    return;
  }
  for (std::size_t id = 0; id < tree_.n_nodes(); ++id) {
    if (tree_.node(static_cast<int>(id)).parent != phylo::kNoNode) {
      mark_branch_dirty(static_cast<int>(id));
    }
  }
  mark_path_dirty(tree_.root());
  // All internal nodes depend on the model, not just the root path.
  for (std::size_t id = 0; id < tree_.n_nodes(); ++id) {
    if (!tree_.node(static_cast<int>(id)).is_leaf()) {
      mark_node_dirty(static_cast<int>(id));
    }
  }
  lik_valid_ = false;
}

void PlfEngine::refresh_const_lik() {
  // +I: a pattern's invariant-site likelihood is the summed frequency of the
  // states every taxon could share. It depends only on pi (the masks are
  // fixed by the data), so it is rebuilt where the model changes, never per
  // evaluation; with p_invariant == 0 the reduction does not read it.
  if (model_.params().p_invariant <= 0.0) return;
  const auto& pi = model_.pi();
  for (std::size_t c = 0; c < m_; ++c) {
    float s = 0.0f;
    for (std::size_t st = 0; st < 4; ++st) {
      if ((const_mask_[c] >> st) & 1u) s += static_cast<float>(pi[st]);
    }
    const_lik_[c] = s;
  }
}

void PlfEngine::rebuild_branch(int node) {
  BranchState& st = branches_[static_cast<std::size_t>(node)];
  if (in_proposal_ && st.dirty && st.dirty_epoch != proposal_epoch_) {
    // Dirty since BEFORE this proposal: there is no valid pre-proposal
    // buffer to restore, so a reject must leave this branch dirty again.
    pre_dirty_branches_.push_back(node);
    st.dirty_epoch = proposal_epoch_;
  }
  // Within one proposal only the FIRST rebuild may flip: the inactive buffer
  // holds the pre-proposal matrices that reject() must be able to restore.
  int target = st.active ^ 1;
  if (in_proposal_ && st.flip_epoch == proposal_epoch_) {
    target = st.active;  // overwrite this proposal's own buffer
  }
  st.tm[static_cast<std::size_t>(target)] =
      model_.transition_matrices(tree_.branch_length(node));
  if (tree_.node(node).is_leaf()) {
    st.tp[static_cast<std::size_t>(target)] =
        TipPartial(st.tm[static_cast<std::size_t>(target)]);
    st.tp_stamp[static_cast<std::size_t>(target)] = ++tp_builds_;
  }
  if (target != st.active) {
    st.active = target;
    if (in_proposal_) {
      flipped_branches_.push_back(node);
      st.flip_epoch = proposal_epoch_;
    }
  }
  st.dirty = false;
  ++stats_.tm_builds;
}

ChildArgs PlfEngine::make_child(int node) const {
  const BranchState& b = branches_[static_cast<std::size_t>(node)];
  const auto& tm = b.tm[static_cast<std::size_t>(b.active)];
  ChildArgs ch;
  if (tree_.node(node).is_leaf()) {
    ch.mask = data_.row(static_cast<std::size_t>(tree_.node(node).taxon));
    ch.tp = b.tp[static_cast<std::size_t>(b.active)].data();
  } else {
    // A child this plan also recomputes (an earlier level) reads the buffer
    // its op writes, which becomes active at post-processing; its
    // PRE-evaluation active buffer may be evicted (only the target is
    // staged). Any other child's active buffer was pinned by stage_arena().
    const int target = plan_target_[static_cast<std::size_t>(node)];
    const int buf =
        target >= 0 ? target : nodes_[static_cast<std::size_t>(node)].active;
    ch.cl = arena_.data(clv_slot(node, buf));
  }
  ch.p = tm.row_major();
  ch.pt = tm.col_major();
  return ch;
}

void PlfEngine::collect_recompute_targets() {
  recompute_targets_.clear();
  recompute_.assign(tree_.n_nodes(), 0);

  // Seed with the dirty flags; the propagation in mark_path_dirty guarantees
  // flags are set on the whole root path, so the flag alone is sufficient.
  std::vector<int> work;
  for (int id : tree_.postorder_internals()) {
    if (nodes_[static_cast<std::size_t>(id)].dirty) {
      recompute_[static_cast<std::size_t>(id)] = 1;
      work.push_back(id);
    }
  }

  // The root reduction reads the root's CLV, so an evicted root is rebuilt
  // even when nothing is dirty (a tail-only evaluation).
  const auto root = static_cast<std::size_t>(tree_.root());
  if (recompute_[root] == 0 &&
      !arena_.resident(clv_slot(tree_.root(), nodes_[root].active))) {
    recompute_[root] = 1;
    work.push_back(tree_.root());
  }

  // Grow the set with evicted ancestors: every internal child an in-set node
  // reads must be resident, and a non-resident one joins the set as a
  // rematerialization — recursively, since its own children may be evicted
  // too. The existing leveling/dispatch machinery then rebuilds them in the
  // same plan, children before parents.
  while (!work.empty()) {
    const int id = work.back();
    work.pop_back();
    const phylo::TreeNode& n = tree_.node(id);
    for (int child : {n.left, n.right}) {
      if (child == phylo::kNoNode || tree_.node(child).is_leaf()) continue;
      if (recompute_[static_cast<std::size_t>(child)] != 0) continue;
      const NodeState& cst = nodes_[static_cast<std::size_t>(child)];
      if (!arena_.resident(clv_slot(child, cst.active))) {
        recompute_[static_cast<std::size_t>(child)] = 1;
        work.push_back(child);
      }
    }
  }

  // Emit the recompute postorder. The dirty subset keeps exactly the order
  // the unbudgeted engine would produce, and rematerializations resolve to
  // the ACTIVE buffer: a clean node has only clean descendants (dirtiness is
  // upward-closed), so deterministic kernels reproduce the evicted bits
  // exactly and neither a flip nor an undo-log entry is warranted.
  std::uint64_t remat_ops = 0;
  for (int id : tree_.postorder_internals()) {
    if (recompute_[static_cast<std::size_t>(id)] == 0) continue;
    const NodeState& st = nodes_[static_cast<std::size_t>(id)];
    const bool remat = !st.dirty;
    int target;
    if (remat) {
      target = st.active;
      ++remat_ops;
    } else {
      // First recomputation in a proposal flips; later ones overwrite the
      // proposal's own buffer (see NodeState::flip_epoch).
      target = st.active ^ 1;
      if (in_proposal_ && st.flip_epoch == proposal_epoch_) {
        target = st.active;
      }
    }
    recompute_targets_.push_back({id, target, remat});
  }
  if (remat_ops > 0) arena_.note_recompute(remat_ops);

  plan_target_.assign(tree_.n_nodes(), -1);
  for (const RecomputeEntry& e : recompute_targets_) {
    plan_target_[static_cast<std::size_t>(e.node)] = e.target;
  }
}

void PlfEngine::stage_arena() {
  // Reads first: pin the active CLV of every out-of-set internal child, so a
  // later target allocation can never evict a buffer the closure above found
  // resident. Then the write targets, children before parents. This
  // traversal — external reads in recompute postorder (left child before
  // right), then targets in recompute postorder — is the documented LRU
  // touch protocol; the reference model in tests/clv_arena_test.cpp mirrors
  // it verbatim. Pins hold through the root reduction and are dropped at the
  // end of evaluate().
  for (const RecomputeEntry& e : recompute_targets_) {
    const phylo::TreeNode& n = tree_.node(e.node);
    for (int child : {n.left, n.right}) {
      if (child == phylo::kNoNode || tree_.node(child).is_leaf()) continue;
      if (recompute_[static_cast<std::size_t>(child)] != 0) continue;
      const NodeState& cst = nodes_[static_cast<std::size_t>(child)];
      const int slot = clv_slot(child, cst.active);
      arena_.acquire(slot);
      arena_.pin(slot);
    }
  }
  for (const RecomputeEntry& e : recompute_targets_) {
    const int slot = clv_slot(e.node, e.target);
    arena_.acquire(slot);
    arena_.pin(slot);
  }
  detail::check_arena(arena_);
}

void PlfEngine::build_plan() {
  // recompute_ and plan_target_ already describe the set
  // (collect_recompute_targets owns them, so the eviction closure, the
  // leveling and the tail agree).
  const std::vector<int> levels = compute_levels(tree_, recompute_);

  plan_.reset(tree_.n_nodes(), m_);
  for (const RecomputeEntry& e : recompute_targets_) {
    const int id = e.node;
    const int target = e.target;
    const phylo::TreeNode& n = tree_.node(id);
    NodeState& st = nodes_[static_cast<std::size_t>(id)];
    float* out = arena_.data(clv_slot(id, target));
    float* ln_scaler = st.scaler[static_cast<std::size_t>(target)].data();

    PlfOp op;
    op.node = id;
    op.left = n.left;
    op.right = n.right;
    op.is_root = id == tree_.root();
    op.run_m = m_;
    op.args.down.left = make_child(n.left);
    op.args.down.right = make_child(n.right);
    op.args.down.out = out;
    op.args.down.K = k_;
    if (op.is_root) {
      const int og = tree_.outgroup();
      const BranchState& ob = branches_[static_cast<std::size_t>(og)];
      op.args.out_mask =
          data_.row(static_cast<std::size_t>(tree_.node(og).taxon));
      op.args.out_tp = ob.tp[static_cast<std::size_t>(ob.active)].data();
    }
    op.scale.cl = out;
    op.scale.ln_scaler = ln_scaler;
    op.scale.K = k_;

    // Tip specialization (docs/KERNELS.md): a cherry op becomes a pair-table
    // gather, a one-tip op the branch-free tip×inner kernel. The tip child is
    // canonicalized to the left slot — the two child factors multiply
    // elementwise and IEEE multiplication commutes, so the swap is exact.
    // Root ops keep the generic three-way kernel (one per evaluation).
    if (tip_kernels_enabled_ && !op.is_root) {
      const bool l_tip = tree_.node(n.left).is_leaf();
      const bool r_tip = tree_.node(n.right).is_leaf();
      if (l_tip && r_tip) {
        const BranchState& lb = branches_[static_cast<std::size_t>(n.left)];
        const BranchState& rb = branches_[static_cast<std::size_t>(n.right)];
        const std::uint64_t sl =
            lb.tp_stamp[static_cast<std::size_t>(lb.active)];
        const std::uint64_t sr =
            rb.tp_stamp[static_cast<std::size_t>(rb.active)];
        if (st.pair_stamp_l != sl || st.pair_stamp_r != sr) {
          st.pair = TipPairTable(lb.tp[static_cast<std::size_t>(lb.active)],
                                 rb.tp[static_cast<std::size_t>(rb.active)]);
          st.pair_stamp_l = sl;
          st.pair_stamp_r = sr;
          ++stats_.tip_tables_built;
        }
        op.kind = PlfOpKind::kTipTip;
        op.tt.left_mask = op.args.down.left.mask;
        op.tt.right_mask = op.args.down.right.mask;
        op.tt.pair = st.pair.raw();
        op.tt.out = out;
        op.tt.K = k_;
        op.tt.table_categories = st.pair.n_categories();
        ++stats_.tip_tt_ops;
      } else if (l_tip != r_tip) {
        if (!l_tip) {
          std::swap(op.args.down.left, op.args.down.right);
          std::swap(op.left, op.right);
        }
        op.kind = PlfOpKind::kTipInner;
        ++stats_.tip_ti_ops;
      }
    }
    plan_.add(op, static_cast<std::size_t>(
                      levels[static_cast<std::size_t>(id)]));
  }
  plan_.finalize();
  PLF_DCHECK(plan_.n_ops() == recompute_targets_.size(),
             "plan must cover the dirty set exactly");
  // Every dirty path ends at the root, so a non-empty plan holds exactly one
  // root op; EngineStats' per-kernel call counts are derived from that.
  PLF_DCHECK(std::count_if(plan_.ops().begin(), plan_.ops().end(),
                           [](const PlfOp& op) { return op.is_root; }) == 1,
             "a non-empty plan must hold exactly one root op");
  // No kernel may ever receive an evicted/unmapped CLV pointer: verify the
  // arena x plan handoff before any backend touches an op.
  detail::check_arena(arena_, plan_);
  ++stats_.plan_builds;
  stats_.plan_ops += plan_.n_ops();
  stats_.plan_levels += plan_.n_levels();
}

void PlfEngine::post_process_plan() {
  for (const RecomputeEntry& e : recompute_targets_) {
    NodeState& st = nodes_[static_cast<std::size_t>(e.node)];
    if (in_proposal_ && st.dirty && st.dirty_epoch != proposal_epoch_) {
      pre_dirty_nodes_.push_back(e.node);
      st.dirty_epoch = proposal_epoch_;
    }
    if (e.target != st.active) {
      st.active = e.target;
      if (in_proposal_) {
        flipped_nodes_.push_back(e.node);
        st.flip_epoch = proposal_epoch_;
      }
    }
    st.dirty = false;
  }
}

void PlfEngine::evaluate() {
  // 1. Rebuild dirty branch matrices (serial work, like MrBayes' TiProbs).
  {
    PLF_PROF_SCOPE(obs::kTimerTiProbs);
    for (std::size_t id = 0; id < tree_.n_nodes(); ++id) {
      const phylo::TreeNode& n = tree_.node(static_cast<int>(id));
      if (n.parent != phylo::kNoNode && branches_[id].dirty) {
        rebuild_branch(static_cast<int>(id));
      }
    }
  }

  // 2. Recompute dirty internal nodes, children before parents: collect the
  // dirty postorder (with each node's resolved write target) once, then
  // dispatch it as one dependency-leveled plan.
  collect_recompute_targets();

  // 2a. Pin every CLV buffer this evaluation reads or writes (acquiring
  // target storage, evicting LRU unpinned slots under a finite budget)
  // before any kernel or scaler pass runs.
  stage_arena();

  // 2b. Build the plan — an empty one when nothing is dirty (a tail-only
  // evaluation: the scaler total and the root reduction still run).
  if (!recompute_targets_.empty()) {
    PLF_PROF_SCOPE(obs::kTimerPlanBuild);
    build_plan();
  } else {
    plan_.reset(tree_.n_nodes(), m_);
    plan_.finalize();
  }

  // 3. The per-site tail around the ops: scaler-total bookkeeping and the
  // root reduction.
  build_tail();
  // build_tail's pi conversion can compile to a VEX.256 instruction that
  // gcc's vzeroupper insertion misses, leaving the upper register state
  // dirty into the root reduction's scalar std::log calls (gcc 12 -O2
  // -march=native on an AVX-512 Xeon: each 138-pattern reduction ran ~10x
  // slower). Clear it once here, at the hand-off.
  simd::clear_upper_vector_state();

  // 4. Execute the whole evaluation in one backend call, then apply the
  // deferred flips.
  Stopwatch plf_sw;
  {
    PLF_PROF_SCOPE(obs::kTimerPlanExecute);
    ln_lik_ = backend_->run_evaluation(*kernels_, plan_, tail_);
  }
  stats_.plf_seconds += plf_sw.seconds();
  post_process_plan();
  ++stats_.reduce_calls;

  // The evaluation's working set survives until here (the root reduction
  // reads the root CLV); from the next evaluation on, everything is fair
  // game for LRU eviction again.
  arena_.release_eval_pins();

  lik_valid_ = true;
}

void PlfEngine::build_tail() {
  tail_.scaler_total = scaler_total_.data();
  tail_.resum = scaler_resum_;
  const bool retouch = retouch_scalers_;
  retouch_scalers_ = false;
  tail_.retire.clear();
  tail_.fold.clear();
  // A node's buffer once this evaluation's flips are applied.
  const auto post_active = [this](int id) {
    const int target = plan_target_[static_cast<std::size_t>(id)];
    return target >= 0 ? target : nodes_[static_cast<std::size_t>(id)].active;
  };
  if (scaler_resum_) {
    // Full resum over every internal node, in id order (first evaluation,
    // reject, topology change).
    for (std::size_t id = 0; id < tree_.n_nodes(); ++id) {
      if (tree_.node(static_cast<int>(id)).is_leaf()) continue;
      const int buf = post_active(static_cast<int>(id));
      tail_.fold.push_back(
          nodes_[id].scaler[static_cast<std::size_t>(buf)].data());
    }
    scaler_resum_ = false;
    ++stats_.scaler_resums;
  } else if (retouch) {
    // Every internal node, in recompute postorder, as if all were recomputed.
    for (int id : tree_.postorder_internals()) {
      const NodeState& st = nodes_[static_cast<std::size_t>(id)];
      tail_.retire.push_back(
          st.scaler[static_cast<std::size_t>(st.active)].data());
      tail_.fold.push_back(
          st.scaler[static_cast<std::size_t>(post_active(id))].data());
      ++stats_.scaler_delta_updates;
    }
  } else {
    // Incremental: retire each recomputed node's old row while its
    // pre-evaluation buffer is still the active one, fold its new row in,
    // both in recompute postorder. Rematerializations are skipped: their
    // recomputed row is bit-identical to the one already absorbed, and
    // (t - x) + x != t in floating point — touching the total would break
    // budgeted/unbudgeted bit-identity.
    for (const RecomputeEntry& e : recompute_targets_) {
      if (e.remat) continue;
      const NodeState& st = nodes_[static_cast<std::size_t>(e.node)];
      tail_.retire.push_back(
          st.scaler[static_cast<std::size_t>(st.active)].data());
      tail_.fold.push_back(
          st.scaler[static_cast<std::size_t>(e.target)].data());
      ++stats_.scaler_delta_updates;
    }
  }

  // Root reduction (with the +I invariant-sites mixture when enabled) over
  // the root's post-evaluation CLV.
  RootReduceArgs& rr = tail_.reduce;
  rr = RootReduceArgs{};
  rr.cl = arena_.data(clv_slot(tree_.root(), post_active(tree_.root())));
  rr.ln_scaler_total = scaler_total_.data();
  rr.weights = data_.weights().data();
  const auto& pi = model_.pi();
  for (std::size_t i = 0; i < 4; ++i) rr.pi[i] = static_cast<float>(pi[i]);
  rr.K = k_;
  if (model_.params().p_invariant > 0.0) {
    rr.const_lik = const_lik_.data();
    rr.p_invariant = static_cast<float>(model_.params().p_invariant);
  }
}

void PlfEngine::set_instance_label(std::string label) {
  checker_.check();
  instance_label_ = std::move(label);
}

void PlfEngine::detach_thread() noexcept {
  checker_.detach();
  arena_.detach_thread();
}

void PlfEngine::publish_stats(obs::MetricsRegistry& registry) const {
  checker_.check();
  const auto set = [this, &registry](const char* name, double value) {
    if (instance_label_.empty()) {
      registry.set_gauge(registry.gauge(name), value);
    } else {
      registry.set_gauge(registry.gauge(instance_label_ + "." + name), value);
    }
  };
  set(obs::kGaugeEngineReduceCalls, static_cast<double>(stats_.reduce_calls));
  set(obs::kGaugeEngineTmBuilds, static_cast<double>(stats_.tm_builds));
  set(obs::kGaugeEnginePlanBuilds, static_cast<double>(stats_.plan_builds));
  set(obs::kGaugeEnginePlanOps, static_cast<double>(stats_.plan_ops));
  set(obs::kGaugeEnginePlanLevels, static_cast<double>(stats_.plan_levels));
  set(obs::kGaugeEngineScalerResums,
      static_cast<double>(stats_.scaler_resums));
  set(obs::kGaugeEngineScalerDeltaUpdates,
      static_cast<double>(stats_.scaler_delta_updates));
  set(obs::kGaugeEngineTipTtOps, static_cast<double>(stats_.tip_tt_ops));
  set(obs::kGaugeEngineTipTiOps, static_cast<double>(stats_.tip_ti_ops));
  set(obs::kGaugeEngineTipTablesBuilt,
      static_cast<double>(stats_.tip_tables_built));
  publish_arena_gauges(registry);
}

void PlfEngine::publish_arena_gauges(obs::MetricsRegistry& registry) const {
  const ArenaCounters ac = arena_.counters();
  const auto set = [this, &registry](const char* name, double value) {
    if (instance_label_.empty()) {
      registry.set_gauge(registry.gauge(name), value);
    } else {
      registry.set_gauge(registry.gauge(instance_label_ + "." + name), value);
    }
  };
  set(obs::kGaugeEngineClvBytes, static_cast<double>(ac.resident_bytes));
  set(obs::kGaugeArenaBudgetBytes, static_cast<double>(arena_.budget_bytes()));
  set(obs::kGaugeArenaEvictions, static_cast<double>(ac.evictions));
  set(obs::kGaugeArenaRecomputeOps, static_cast<double>(ac.recompute_ops));
  set(obs::kGaugeArenaHitRate, ac.hit_rate());
}

void PlfEngine::save_state(util::BinaryWriter& w) const {
  checker_.check();
  PLF_CHECK(!in_proposal_, "save_state: close the open proposal first");

  // Config fingerprint, checked on restore: a checkpoint only resumes into
  // an engine shaped like the one that wrote it.
  w.section("ENGI");
  w.u64(m_);
  w.u64(k_);
  w.u64(tree_.n_nodes());
  w.u64(tree_.n_taxa());

  tree_.save(w);

  w.section("MODL");
  const phylo::GtrParams& p = model_.params();
  for (double r : p.rates) w.f64(r);
  for (double f : p.pi) w.f64(f);
  w.f64(p.gamma_shape);
  w.u64(p.n_rate_categories);
  w.f64(p.p_invariant);

  // Internal nodes, in id order: the active buffer index, the dirty flag,
  // the active scaler row (its exact f32 bits — scaler_total_ was
  // accumulated from them), and the active CLV when it is arena-resident.
  // Evicted CLVs are omitted on purpose: the recompute closure
  // rematerializes them bit-exactly from the tips, which is the same
  // guarantee the budgeted arena already relies on. The dirty flag matters
  // for a checkpoint taken after an unevaluated change: the node's active
  // CLV is stale, and the restored engine must recompute it just as the
  // uninterrupted one would.
  w.section("NODE");
  for (std::size_t id = 0; id < tree_.n_nodes(); ++id) {
    if (tree_.node(static_cast<int>(id)).is_leaf()) continue;
    const NodeState& st = nodes_[id];
    w.u8(static_cast<std::uint8_t>(st.active));
    w.u8(st.dirty ? 1 : 0);
    w.f32_array(st.scaler[static_cast<std::size_t>(st.active)].data(), m_);
    const int slot = clv_slot(static_cast<int>(id), st.active);
    const bool resident = arena_.resident(slot);
    w.u8(resident ? 1 : 0);
    if (resident) w.f32_array(arena_.data(slot), m_ * k_ * 4);
  }

  // The accumulated scaler total must round-trip bit-exactly: a fresh resum
  // would differ in the low bits from the incremental subtract/add history,
  // shifting every subsequent likelihood. The pending-resum flag rides along
  // so a checkpoint taken right after a reject resums exactly once, like the
  // uninterrupted run.
  w.section("SCLR");
  w.f64_array(scaler_total_.data(), m_);
  w.u8(scaler_resum_ ? 1 : 0);
  w.f64(ln_lik_);
  w.u8(lik_valid_ ? 1 : 0);
}

void PlfEngine::restore_state(util::BinaryReader& r) {
  checker_.check();
  PLF_CHECK(!in_proposal_, "restore_state: close the open proposal first");

  r.section("ENGI");
  const std::uint64_t m = r.u64();
  const std::uint64_t k = r.u64();
  const std::uint64_t n_nodes = r.u64();
  const std::uint64_t n_taxa = r.u64();
  PLF_CHECK(m == m_ && k == k_ && n_nodes == tree_.n_nodes() &&
                n_taxa == tree_.n_taxa(),
            "restore_state: checkpoint was written by a differently-"
            "configured engine (pattern/category/tree shape mismatch)");

  tree_ = phylo::Tree::load(r);

  r.section("MODL");
  phylo::GtrParams p;
  for (double& v : p.rates) v = r.f64();
  for (double& v : p.pi) v = r.f64();
  p.gamma_shape = r.f64();
  p.n_rate_categories = static_cast<std::size_t>(r.u64());
  p.p_invariant = r.f64();
  PLF_CHECK(p.n_rate_categories == k_,
            "restore_state: rate category count is fixed at construction");
  model_ = phylo::SubstitutionModel(p);
  refresh_const_lik();

  // Branch matrices are pure functions of (model, branch length): rebuild
  // every branch eagerly and leave it CLEAN. Leaving branches dirty instead
  // would be wrong, not just lazy — the first post-restore proposal's
  // reject() must flip back to real pre-proposal buffers, never to buffers
  // that are empty because they predate the checkpoint.
  tp_builds_ = 0;
  for (std::size_t id = 0; id < tree_.n_nodes(); ++id) {
    const phylo::TreeNode& n = tree_.node(static_cast<int>(id));
    if (n.parent == phylo::kNoNode) continue;
    BranchState& st = branches_[id];
    st.active = 0;
    st.dirty = false;
    st.flip_epoch = 0;
    st.tm[0] = model_.transition_matrices(
        tree_.branch_length(static_cast<int>(id)));
    if (n.is_leaf()) {
      st.tp[0] = TipPartial(st.tm[0]);
      st.tp_stamp[0] = ++tp_builds_;
      st.tp_stamp[1] = 0;
    }
    ++stats_.tm_builds;
  }

  // Drop every pre-restore CLV before loading the checkpointed ones: a stale
  // buffer left "resident" would satisfy the recompute closure's residency
  // test while holding the wrong contents.
  arena_.evict_all();

  r.section("NODE");
  for (std::size_t id = 0; id < tree_.n_nodes(); ++id) {
    if (tree_.node(static_cast<int>(id)).is_leaf()) continue;
    NodeState& st = nodes_[id];
    const std::uint8_t active = r.u8();
    PLF_CHECK(active <= 1, "restore_state: corrupt buffer index");
    st.active = active;
    const std::uint8_t dirty = r.u8();
    PLF_CHECK(dirty <= 1, "restore_state: corrupt dirty flag");
    st.dirty = dirty != 0;
    st.dirty_epoch = 0;
    const std::vector<float> scaler = r.f32_array();
    PLF_CHECK(scaler.size() == m_, "restore_state: scaler row size mismatch");
    st.scaler[static_cast<std::size_t>(st.active)].assign(scaler.begin(),
                                                          scaler.end());
    st.scaler[static_cast<std::size_t>(st.active ^ 1)].assign(m_, 0.0f);
    st.flip_epoch = 0;
    st.pair_stamp_l = 0;  // pair tables revalidate against the new tp stamps
    st.pair_stamp_r = 0;
    if (r.u8() != 0) {
      float* dst = arena_.acquire(clv_slot(static_cast<int>(id), st.active));
      const std::vector<float> cl = r.f32_array();
      PLF_CHECK(cl.size() == m_ * k_ * 4,
                "restore_state: CLV buffer size mismatch");
      std::memcpy(dst, cl.data(), cl.size() * sizeof(float));
    }
  }

  r.section("SCLR");
  const std::vector<double> total = r.f64_array();
  PLF_CHECK(total.size() == m_, "restore_state: scaler total size mismatch");
  scaler_total_.assign(total.begin(), total.end());
  scaler_resum_ = r.u8() != 0;
  retouch_scalers_ = false;
  ln_lik_ = r.f64();
  lik_valid_ = r.u8() != 0;

  // The proposal undo machinery starts from a clean slate.
  proposal_epoch_ = 0;
  saved_ln_lik_ = 0.0;
  saved_lik_valid_ = false;
  flipped_nodes_.clear();
  flipped_branches_.clear();
  node_dirty_marks_.clear();
  branch_dirty_marks_.clear();
  pre_dirty_nodes_.clear();
  pre_dirty_branches_.clear();
  old_lengths_.clear();
  nni_log_.clear();
  spr_log_.clear();
  old_params_.reset();

  publish_arena_gauges(obs::MetricsRegistry::global());
}

double PlfEngine::log_likelihood() {
  checker_.check();
  if (!lik_valid_) evaluate();
  return ln_lik_;
}

const float* PlfEngine::node_cl(int node) const {
  const NodeState& st = nodes_[static_cast<std::size_t>(node)];
  PLF_CHECK(!tree_.node(node).is_leaf(), "node_cl: leaf nodes carry no cl");
  return arena_.data(clv_slot(node, st.active));
}

bool PlfEngine::node_resident(int node) const {
  PLF_CHECK(!tree_.node(node).is_leaf(),
            "node_resident: leaf nodes carry no cl");
  const NodeState& st = nodes_[static_cast<std::size_t>(node)];
  return arena_.resident(clv_slot(node, st.active));
}

void PlfEngine::evict_node_for_test(int node) {
  PLF_CHECK(!tree_.node(node).is_leaf(),
            "evict_node_for_test: leaf nodes carry no cl");
  const NodeState& st = nodes_[static_cast<std::size_t>(node)];
  arena_.evict_slot_for_test(clv_slot(node, st.active));
}

}  // namespace plf::core
