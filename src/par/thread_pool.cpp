#include "par/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "obs/names.hpp"
#include "obs/profile.hpp"
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
  std::size_t blocks = 1;  ///< static partition width == the pool's size()
  const std::function<void(Range, std::size_t)>* body = nullptr;

  // Claim state, guarded by the owning pool's m_ (a nested struct cannot name
  // the outer instance's capability, so the proof lives in ThreadPool's
  // PLF_REQUIRES(m_) helpers that are the only accessors).
  std::size_t next_block = 0;  ///< blocks [0, next_block) are claimed
  std::size_t in_flight = 0;   ///< blocks claimed but not yet finished
  bool done = false;           ///< fully executed and unlinked from the queue

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
};

ThreadPool::ThreadPool(std::size_t threads) {
  std::size_t n = threads;
  if (n == 0) {
    n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // The calling thread takes part in every region; spawn n-1 helpers.
  workers_.reserve(n - 1);
  for (std::size_t i = 1; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
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
    if (r->next_block < r->blocks) return r;
  }
  return nullptr;
}

void ThreadPool::finish_if_complete(Region& region) {
  if (region.next_block < region.blocks || region.in_flight != 0 ||
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

void ThreadPool::run_block(Region& region, std::size_t block) {
  const Range r = static_block(region.begin, region.end, region.blocks, block);
  if (r.empty()) return;
  // One span per executed block; each thread records into its own registry
  // shard, so these show up as separate trace rows.
  PLF_PROF_SCOPE(obs::kTimerParWorker);
  ExecutingPoolScope scope(this);
  try {
    (*region.body)(r, block);
  } catch (...) {
    region.record_error();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    Region* region = nullptr;
    std::size_t block = 0;
    {
      util::MutexLock lock(m_);
      // Predicate runs with m_ held by the wait loop itself; TSA analyzes
      // the lambda without that context, hence the exemption.
      cv_start_.wait(m_, [&]() PLF_NO_TSA {
        return shutting_down_ || claimable_region() != nullptr;
      });
      if (shutting_down_) return;
      region = claimable_region();
      block = region->next_block++;
      ++region->in_flight;
    }
    run_block(*region, block);
    {
      util::MutexLock lock(m_);
      --region->in_flight;
      finish_if_complete(*region);
    }
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(Range, std::size_t)>& body) {
  PLF_CHECK(begin <= end, "parallel_for: begin > end");
  if (begin == end) return;

  // A region body must not submit to the pool executing it: the workers it
  // would wait on may be the ones running the outer region. Concurrent calls
  // from distinct external threads are fine — they queue.
  PLF_CHECK(t_executing_pool != this,
            "parallel_for: nested call from inside a region body on the same "
            "pool (submit from a different thread or pool)");

  regions_.fetch_add(1, std::memory_order_relaxed);
  PLF_PROF_SCOPE(obs::kTimerParRegion);

  Region region;
  region.begin = begin;
  region.end = end;
  region.blocks = size();
  region.body = &body;

  {
    util::MutexLock lock(m_);
    queue_.push_back(&region);
  }
  cv_start_.notify_all();
  // Participate in our own region only: helping other queued regions would
  // let their runtimes leak into this caller's latency. Workers drain
  // whatever we leave unclaimed; a pool without workers runs its one block
  // here.
  for (;;) {
    std::size_t block;
    {
      util::MutexLock lock(m_);
      if (region.next_block >= region.blocks) break;
      block = region.next_block++;
      ++region.in_flight;
    }
    run_block(region, block);
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

}  // namespace plf::par
