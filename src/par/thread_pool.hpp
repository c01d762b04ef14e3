// Persistent worker pool with OpenMP-like parallel-for semantics.
//
// The paper parallelizes the outermost PLF loop with
// `#pragma omp parallel for` (§3.2) and observes that the spawn/sync cost of
// each parallel region is what limits scalability as the number of PLF calls
// grows (§4.1.1). We reproduce that structure: one pool is created up front
// and each `parallel_for` is a "parallel region" with the static schedule of
// `schedule(static)` — one contiguous block of the index range per thread.
// Regions are counted; bench_suite's `par.region_overhead.t*` cases time
// empty ones.
//
// Multi-region sharing (docs/SHARDING.md): unlike an OpenMP team, the pool
// accepts parallel_for calls from MANY external threads concurrently. Each
// call enqueues a region; workers drain the region queue in FIFO order,
// claiming blocks from the oldest region that still has unclaimed blocks,
// so independent engine instances can batch their plans through one shared
// pool without serializing on a single-region lock. A submitting thread only
// executes blocks of its own region (and then blocks until that region
// completes), which bounds its latency by its own work plus whatever the
// workers are already committed to. Nested calls — a region body invoking
// parallel_for on the same pool — remain rejected: they could deadlock the
// workers executing the outer region.
//
// Determinism: a region always partitions [begin, end) into exactly `size()`
// contiguous blocks and passes the BLOCK index as the body's second argument,
// no matter which thread claims which block. Reductions that combine
// per-block partials in index order (ThreadedBackend::run_root_reduce)
// therefore stay bit-identical under region interleaving.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace plf::par {

/// Inclusive-exclusive index range [begin, end).
struct Range {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
  bool empty() const { return begin >= end; }
};

/// Block `index` of the static schedule's partition of [begin, end) into
/// `blocks` contiguous blocks, the remainder spread over the first blocks.
/// The partition depends only on its arguments, never on which thread runs
/// a block, so a caller that walks the blocks itself in index order (the
/// threaded backend's inline evaluations) reproduces a region's per-block
/// reduction exactly.
inline Range static_block(std::size_t begin, std::size_t end,
                          std::size_t blocks, std::size_t index) {
  const std::size_t total = end - begin;
  const std::size_t base = total / blocks;
  const std::size_t extra = total % blocks;
  const std::size_t first =
      begin + index * base + (index < extra ? index : extra);
  return Range{first, first + base + (index < extra ? 1 : 0)};
}

class ThreadPool {
 public:
  /// Creates `threads` workers. 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads that execute a region (workers + calling thread).
  std::size_t size() const { return workers_.size() + 1; }

  /// Run `body(block_range, block_index)` for each of the `size()` static
  /// blocks of [begin, end) (empty blocks are skipped). Blocks until every
  /// block has completed (the implicit barrier at the end of an OpenMP
  /// parallel-for). Safe to call repeatedly and from several threads at once
  /// (regions from concurrent callers interleave on the workers); NOT
  /// reentrant from inside a region body on the same pool.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(Range, std::size_t)>& body);

  /// Non-empty regions entered since construction or reset_regions().
  std::uint64_t regions() const {
    return regions_.load(std::memory_order_relaxed);
  }
  void reset_regions() { regions_.store(0, std::memory_order_relaxed); }

 private:
  struct Region;
  void worker_loop();
  /// Execute block `block` of `region`. Exceptions are captured into the
  /// region.
  void run_block(Region& region, std::size_t block);
  /// Mark `region` finished if all blocks are claimed and none is running:
  /// unlinks it from the queue and wakes its submitter.
  void finish_if_complete(Region& region) PLF_REQUIRES(m_);
  /// Oldest enqueued region with unclaimed blocks, or nullptr.
  Region* claimable_region() PLF_REQUIRES(m_);

  std::vector<std::thread> workers_;  // immutable after construction

  // Region queue protocol: m_ guards the queue and every Region's claim state
  // (cursor / in-flight count / done flag). Workers sleep on cv_start_ until
  // some region has unclaimed blocks; each submitter sleeps on cv_done_ until
  // its own (stack-owned) region is done. A Region is unlinked under m_
  // before its submitter can return, so queue pointers never dangle.
  util::Mutex m_;
  util::CondVar cv_start_;
  util::CondVar cv_done_;
  std::vector<Region*> queue_ PLF_GUARDED_BY(m_);  // FIFO, oldest first
  bool shutting_down_ PLF_GUARDED_BY(m_) = false;

  std::atomic<std::uint64_t> regions_{0};
};

}  // namespace plf::par
