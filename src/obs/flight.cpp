#include "obs/flight.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <ostream>
#include <sstream>
#include <vector>

#include <unistd.h>

#include "obs/json_util.hpp"
#include "util/contracts.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace plf::obs {

namespace {

/// One ring slot. Every field is a relaxed atomic: a writer publishing a slot
/// and the crash-path reader scanning it never constitute a data race, and a
/// half-written slot is detected (and skipped) via the seq protocol below
/// rather than locked out.
///
/// TSA exemption (docs/STATIC_ANALYSIS.md): Slot and Ring implement a seqlock
/// — no capability is ever held, so there is nothing for Clang's thread
/// safety analysis to track. Correctness rests on the release store of `seq`
/// publishing the payload and the reader's acquire/re-read tear check in
/// snapshot_ring(); the recording path is exercised concurrently by
/// par_stress_test under the tsan preset, which is the right tool for
/// lock-free protocols TSA cannot model. Only the registration list below
/// (Rings) uses a lock, and that one IS annotated.
struct Slot {
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint64_t> t_ns{0};
  std::atomic<std::uint64_t> dur_ns{0};
  std::atomic<std::uint64_t> seq{0};  // 0 = never written
};

/// Per-thread ring. head counts events ever written; slot i holds the event
/// with seq == i+1 once complete. The writer stores the payload first, then
/// seq with release order; the reader checks seq (acquire) before and after
/// reading the payload and drops the slot if they differ (overwritten
/// mid-read) or if seq doesn't match the expected value for that position.
struct Ring {
  std::atomic<std::uint64_t> head{0};
  Slot slots[kFlightRingSize];
  std::uint32_t tid = 0;
};

/// Registered rings, never deallocated: a crash dump may run during static
/// destruction or after the owning thread exited, so both the list and the
/// rings leak by design.
struct Rings {
  util::Mutex m;
  /// Registration order == tid order. Entries are append-only and never
  /// removed, so the dump paths may copy the list under m and then read the
  /// (immortal, lock-free) rings without holding it.
  std::vector<Ring*> list PLF_GUARDED_BY(m);
};

Rings& rings() {
  static Rings* r = new Rings;  // leaked: see above
  return *r;
}

void crash_hook() noexcept;  // forward

Ring& ring_for_this_thread() {
  thread_local Ring* cached = nullptr;
  if (cached != nullptr) return *cached;
  auto* ring = new Ring;  // leaked: dump may outlive the thread
  Rings& r = rings();
  {
    util::MutexLock lock(r.m);
    ring->tid = static_cast<std::uint32_t>(r.list.size());
    r.list.push_back(ring);
  }
  // First recording thread arms the contract crash hook, so a PLF_DCHECK
  // death dumps the rings without any explicit install call.
  static std::once_flag once;
  std::call_once(once, [] { plf::detail::set_contract_crash_hook(&crash_hook); });
  cached = ring;
  return *ring;
}

void record(const char* name, std::uint64_t t_ns,
            std::uint64_t dur_ns) noexcept {
  Ring& ring = ring_for_this_thread();
  const std::uint64_t seq = ring.head.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring.slots[seq % kFlightRingSize];
  slot.seq.store(0, std::memory_order_release);  // invalidate while rewriting
  slot.name.store(name, std::memory_order_relaxed);
  slot.t_ns.store(t_ns, std::memory_order_relaxed);
  slot.dur_ns.store(dur_ns, std::memory_order_relaxed);
  slot.seq.store(seq + 1, std::memory_order_release);
}

struct SnapshotEvent {
  const char* name;
  std::uint64_t t_ns;
  std::uint64_t dur_ns;
  std::uint64_t seq;
};

/// Read one ring without stopping its writer. Torn slots (seq changed while
/// the payload was read, or still mid-rewrite) are dropped.
std::vector<SnapshotEvent> snapshot_ring(const Ring& ring) {
  std::vector<SnapshotEvent> out;
  out.reserve(kFlightRingSize);
  const std::uint64_t head = ring.head.load(std::memory_order_acquire);
  const std::uint64_t lo = head > kFlightRingSize ? head - kFlightRingSize : 0;
  for (std::uint64_t s = lo; s < head; ++s) {
    const Slot& slot = ring.slots[s % kFlightRingSize];
    const std::uint64_t seq_before = slot.seq.load(std::memory_order_acquire);
    if (seq_before != s + 1) continue;  // overwritten or incomplete
    SnapshotEvent ev;
    ev.name = slot.name.load(std::memory_order_relaxed);
    ev.t_ns = slot.t_ns.load(std::memory_order_relaxed);
    ev.dur_ns = slot.dur_ns.load(std::memory_order_relaxed);
    ev.seq = seq_before;
    const std::uint64_t seq_after = slot.seq.load(std::memory_order_acquire);
    if (seq_after != seq_before) continue;  // torn: rewritten mid-read
    if (ev.name == nullptr) continue;
    out.push_back(ev);
  }
  std::sort(out.begin(), out.end(),
            [](const SnapshotEvent& a, const SnapshotEvent& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::atomic<bool> g_dumped{false};
std::terminate_handler g_prev_terminate = nullptr;

void crash_hook() noexcept { dump_flight("contract-violation"); }

[[noreturn]] void terminate_hook() {
  dump_flight("terminate");
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

}  // namespace

void flight_record_span(const char* name, std::uint64_t start_ns,
                        std::uint64_t dur_ns) noexcept {
  if (name == nullptr) return;
  record(name, start_ns, dur_ns);
}

void install_flight_handlers() {
  plf::detail::set_contract_crash_hook(&crash_hook);
  static std::once_flag once;
  std::call_once(once, [] {
    g_prev_terminate = std::set_terminate(&terminate_hook);
  });
}

void write_flight_json(std::ostream& os, const char* reason) {
  using detail::json_escape;
  // Copying the list under m (instead of holding m across the dump) is
  // deliberate here, unlike the metrics flush: entries are append-only and
  // rings are immortal, so a stale copy only misses threads whose FIRST
  // event post-dates the crash — and the dump path must touch as few locks
  // as possible while the process is dying.
  std::vector<Ring*> list;
  {
    Rings& r = rings();
    util::MutexLock lock(r.m);
    list = r.list;
  }
  os << "{\"schema\":\"plf-flight-v1\",\"reason\":\""
     << json_escape(reason != nullptr ? reason : "unknown") << "\",\"pid\":"
     << static_cast<std::uint64_t>(::getpid()) << ",\"threads\":[";
  bool first_thread = true;
  for (const Ring* ring : list) {
    const std::vector<SnapshotEvent> events = snapshot_ring(*ring);
    if (!first_thread) os << ",";
    first_thread = false;
    os << "{\"tid\":" << ring->tid << ",\"events\":[";
    bool first_ev = true;
    for (const SnapshotEvent& ev : events) {
      if (!first_ev) os << ",";
      first_ev = false;
      os << "{\"kind\":\"span\",\"name\":\"" << json_escape(ev.name)
         << "\",\"seq\":" << ev.seq << ",\"t_ns\":" << ev.t_ns
         << ",\"dur_ns\":" << ev.dur_ns << "}";
    }
    os << "]}";
  }
  os << "]}";
}

void flight_dump_path(char* buf, std::uint32_t buf_size) noexcept {
  if (buf == nullptr || buf_size == 0) return;
  // getenv is not thread-safe against setenv, but nothing in this process
  // mutates the environment after startup and this runs on the death path.
  const char* env = std::getenv("PLF_FLIGHT_PATH");  // NOLINT(concurrency-mt-unsafe)
  if (env != nullptr && env[0] != '\0') {
    std::snprintf(buf, buf_size, "%s", env);
  } else {
    std::snprintf(buf, buf_size, "plf_flight_%llu.json",
                  static_cast<unsigned long long>(::getpid()));
  }
}

void dump_flight(const char* reason) noexcept {
  // Re-entrancy / double-dump guard: the contract hook and the terminate
  // hook can both fire on one death (abort after terminate), and a crash
  // inside the dump itself must not recurse.
  if (g_dumped.exchange(true, std::memory_order_acq_rel)) return;
  try {
    std::ostringstream os;
    write_flight_json(os, reason);
    const std::string json = os.str();
    std::fprintf(stderr, "plf: flight recorder dump (%s):\n%s\n",
                 reason != nullptr ? reason : "unknown", json.c_str());
    std::fflush(stderr);
    char path[512];
    flight_dump_path(path, sizeof(path));
    if (std::FILE* f = std::fopen(path, "w"); f != nullptr) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "plf: flight recorder written to %s\n", path);
      std::fflush(stderr);
    }
  } catch (...) {
    // Dying anyway; a failed dump must not mask the original fault.
  }
}

void flight_reset_for_tests() {
  std::vector<Ring*> list;
  {
    Rings& r = rings();
    util::MutexLock lock(r.m);
    list = r.list;
  }
  for (Ring* ring : list) {
    for (Slot& slot : ring->slots) {
      slot.seq.store(0, std::memory_order_relaxed);
      slot.name.store(nullptr, std::memory_order_relaxed);
      slot.t_ns.store(0, std::memory_order_relaxed);
      slot.dur_ns.store(0, std::memory_order_relaxed);
    }
    ring->head.store(0, std::memory_order_release);
  }
  g_dumped.store(false, std::memory_order_release);
}

}  // namespace plf::obs
