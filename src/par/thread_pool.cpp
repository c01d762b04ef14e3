#include "par/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "obs/names.hpp"
#include "obs/profile.hpp"
#include "util/clock.hpp"
#include "util/contracts.hpp"

namespace plf::par {

namespace {
/// Innermost pool whose region body this thread is currently executing.
/// parallel_for checks it to reject nested submission to the same pool (the
/// workers it would wait on may be the ones executing the outer body).
thread_local const ThreadPool* t_executing_pool = nullptr;

struct ExecutingPoolScope {
  const ThreadPool* saved;
  explicit ExecutingPoolScope(const ThreadPool* pool)
      : saved(t_executing_pool) {
    t_executing_pool = pool;
  }
  ~ExecutingPoolScope() { t_executing_pool = saved; }
};
}  // namespace

struct ThreadPool::Region {
  std::size_t begin = 0;
  std::size_t end = 0;
  Schedule schedule = Schedule::kStatic;
  std::size_t chunk = 1;
  std::size_t threads = 1;      ///< claim-slot space == static partition width
  std::size_t total_units = 0;  ///< static: `threads` blocks; dynamic: chunks
  const std::function<void(Range, std::size_t)>* body = nullptr;

  // Claim state, guarded by the owning pool's m_ (a nested struct cannot name
  // the outer instance's capability, so the proof lives in ThreadPool's
  // PLF_REQUIRES(m_) helpers that are the only accessors).
  std::size_t next_unit = 0;  ///< units [0, next_unit) are claimed
  std::size_t in_flight = 0;  ///< units claimed but not yet finished
  bool done = false;          ///< fully executed and unlinked from the queue

  util::Mutex error_m;
  /// First exception thrown by any participant.
  std::exception_ptr error PLF_GUARDED_BY(error_m);
  void record_error() PLF_EXCLUDES(error_m) {
    util::MutexLock lock(error_m);
    if (!error) error = std::current_exception();
  }
  /// Lock-discipline helper for the caller's post-join rethrow: reads the
  /// slot under error_m (the final in_flight decrement happens-before the
  /// caller leaving cv_done_, but TSA proves the simple rule "error is only
  /// touched under error_m" instead of the wait-edge argument).
  std::exception_ptr take_error() PLF_EXCLUDES(error_m) {
    util::MutexLock lock(error_m);
    return error;
  }

  /// Index range of one unit. Static units are the contiguous per-thread
  /// blocks of static_block() — the partition depends only on (begin, end,
  /// threads), never on which thread claims the block.
  Range unit_range(std::size_t unit) const {
    if (schedule == Schedule::kStatic) {
      return static_block(begin, end, threads, unit);
    }
    const std::size_t total = end - begin;
    const std::size_t start = unit * chunk;
    return Range{begin + start, begin + std::min(total, start + chunk)};
  }

  /// thread_index the body sees for this unit: the block index itself under
  /// static scheduling (determinism contract), the claimer's stable slot
  /// under dynamic.
  std::size_t unit_thread_index(std::size_t unit, std::size_t slot) const {
    return schedule == Schedule::kStatic ? unit : slot;
  }
};

ThreadPool::ThreadPool(std::size_t threads) {
  std::size_t n = threads;
  if (n == 0) {
    n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // The calling thread is worker 0; spawn n-1 helpers.
  workers_.reserve(n - 1);
  for (std::size_t i = 1; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(m_);
    shutting_down_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool::Region* ThreadPool::claimable_region() {
  for (Region* r : queue_) {
    if (r->next_unit < r->total_units) return r;
  }
  return nullptr;
}

void ThreadPool::finish_if_complete(Region& region) {
  if (region.next_unit < region.total_units || region.in_flight != 0 ||
      region.done) {
    return;
  }
  queue_.erase(std::find(queue_.begin(), queue_.end(), &region));
  region.done = true;
  // notify_all: several submitters may be parked here, each watching its own
  // region's done flag. After this the Region (stack-owned by its submitter)
  // may be destroyed — do not touch it again.
  cv_done_.notify_all();
}

void ThreadPool::run_unit(Region& region, std::size_t unit, std::size_t slot) {
  const Range r = region.unit_range(unit);
  if (r.empty()) return;
  // One span per executed unit; each thread records into its own registry
  // shard, so these show up as separate trace rows.
  PLF_PROF_SCOPE(obs::kTimerParWorker);
  ExecutingPoolScope scope(this);
  try {
    (*region.body)(r, region.unit_thread_index(unit, slot));
  } catch (...) {
    region.record_error();
  }
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  // worker_index in [1, size()) is this thread's stable dynamic-schedule
  // claim slot; slot 0 belongs to whichever thread submitted the region.
  for (;;) {
    Region* region = nullptr;
    std::size_t unit = 0;
    {
      util::MutexLock lock(m_);
      // Predicate runs with m_ held by the wait loop itself; TSA analyzes
      // the lambda without that context, hence the exemption.
      cv_start_.wait(m_, [&]() PLF_NO_TSA {
        return shutting_down_ || claimable_region() != nullptr;
      });
      if (shutting_down_) return;
      region = claimable_region();
      unit = region->next_unit++;
      ++region->in_flight;
    }
    run_unit(*region, unit, worker_index);
    {
      util::MutexLock lock(m_);
      --region->in_flight;
      finish_if_complete(*region);
    }
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(Range, std::size_t)>& body,
                              Schedule schedule, std::size_t chunk) {
  PLF_CHECK(begin <= end, "parallel_for: begin > end");
  const std::size_t total = end - begin;
  if (total == 0) return;

  // A region body must not submit to the pool executing it: the workers it
  // would wait on may be the ones running the outer region. Concurrent calls
  // from distinct external threads are fine — they queue.
  PLF_CHECK(t_executing_pool != this,
            "parallel_for: nested call from inside a region body on the same "
            "pool (submit from a different thread or pool)");

  Stopwatch sw;
  PLF_PROF_COUNT(obs::kCounterParRegions, 1);
  PLF_PROF_SCOPE(obs::kTimerParRegion);

  Region region;
  region.begin = begin;
  region.end = end;
  region.schedule = schedule;
  region.threads = size();
  region.body = &body;
  if (chunk == 0) {
    // Default dynamic chunk: aim for ~4 chunks per thread.
    chunk = std::max<std::size_t>(1, total / (4 * region.threads));
  }
  region.chunk = chunk;
  region.total_units = schedule == Schedule::kStatic
                           ? region.threads
                           : (total + chunk - 1) / chunk;
  PLF_DCHECK(region.chunk >= 1, "parallel_for: zero dynamic chunk");
  PLF_DCHECK(region.threads >= 1, "parallel_for: pool has no threads");

  if (workers_.empty()) {
    // Serial pool: run every unit inline; the first exception propagates and
    // abandons the rest, matching the single participant's old share.
    for (std::size_t u = 0; u < region.total_units; ++u) {
      const Range r = region.unit_range(u);
      if (r.empty()) continue;
      PLF_PROF_SCOPE(obs::kTimerParWorker);
      ExecutingPoolScope scope(this);
      (*region.body)(r, region.unit_thread_index(u, 0));
    }
  } else {
    {
      util::MutexLock lock(m_);
      queue_.push_back(&region);
    }
    cv_start_.notify_all();
    // Participate in our own region only (claim slot 0): helping other
    // queued regions would let their runtimes leak into this caller's
    // latency. Workers drain whatever we leave unclaimed.
    for (;;) {
      std::size_t unit;
      {
        util::MutexLock lock(m_);
        if (region.next_unit >= region.total_units) break;
        unit = region.next_unit++;
        ++region.in_flight;
      }
      run_unit(region, unit, 0);
      {
        util::MutexLock lock(m_);
        --region.in_flight;
        finish_if_complete(region);
      }
    }
    {
      util::MutexLock lock(m_);
      // Predicate runs with m_ held by the wait loop itself (see worker_loop).
      cv_done_.wait(m_, [&]() PLF_NO_TSA { return region.done; });
    }
    // TSA finding (docs/STATIC_ANALYSIS.md): this read used to access
    // region.error bare — safe only via the cv_done_ wait edge, invisible to
    // the analysis and fragile under refactoring. Read it under error_m.
    if (std::exception_ptr error = region.take_error()) {
      std::rethrow_exception(error);
    }
  }

  {
    util::MutexLock lock(stats_m_);
    ++stats_.regions;
    // The body time is included here; callers interested purely in overhead
    // should time empty regions (see the calibration bench).
    stats_.region_overhead_s += sw.seconds();
  }
}

void ThreadPool::parallel_for_each(std::size_t begin, std::size_t end,
                                   const std::function<void(std::size_t)>& body) {
  parallel_for(begin, end, [&body](Range r, std::size_t) {
    for (std::size_t i = r.begin; i < r.end; ++i) body(i);
  });
}

PoolStats ThreadPool::stats() const {
  util::MutexLock lock(stats_m_);
  return stats_;
}

void ThreadPool::reset_stats() {
  util::MutexLock lock(stats_m_);
  stats_ = PoolStats{};
}

ThreadPool& default_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace plf::par
