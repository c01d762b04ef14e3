// Flight recorder: a crash-durable trail of the last ~256 profiling events
// per thread.
//
// The trace buffer (obs/trace.hpp) answers "what did the whole run do" and is
// written out on clean exit. This module answers the opposite question: the
// process is dying *right now* — a PLF_DCHECK tripped, or an exception
// escaped to std::terminate — what was each thread doing just before? Every
// PLF_PROF_SCOPE exit also appends one fixed-size span record to a
// lock-free per-thread ring. The rings cost a handful of relaxed
// atomic stores per event, never allocate after thread start, and are read
// only on the death path, where the dump handler writes the merged rings as
// JSON to stderr and to `plf_flight_<pid>.json` (override the path with the
// PLF_FLIGHT_PATH environment variable).
//
// Two dump triggers exist:
//   - fatal contract violations (PLF_DCHECK / PLF_ASSUME in checked builds):
//     flight.cpp installs itself into plf::detail::set_contract_crash_hook
//     the first time any event is recorded, so no setup call is needed;
//   - std::terminate (uncaught PLF_CHECK throw, etc.): opt-in via
//     install_flight_handlers(), which chains the previous handler.
//
// Event names must be string literals (or otherwise immortal storage): the
// ring stores the pointer, not a copy — the PLF_PROF_* macros guarantee this.
#pragma once

#include <cstdint>
#include <iosfwd>

namespace plf::obs {

/// Events retained per thread. Power of two; oldest events are overwritten.
inline constexpr std::uint32_t kFlightRingSize = 256;

/// Append a completed span to this thread's ring. `name` must be immortal
/// (string literal). Lock-free, allocation-free after the first call on a
/// thread, safe from any thread at any time.
void flight_record_span(const char* name, std::uint64_t start_ns,
                        std::uint64_t dur_ns) noexcept;

/// Install the std::terminate hook (and the contract crash hook, normally
/// auto-installed on first record). Idempotent; chains any previously
/// installed terminate handler after the dump.
void install_flight_handlers();

/// Write every thread's ring as one JSON document:
///   {"schema":"plf-flight-v1","reason":...,"pid":...,"threads":[
///     {"tid":0,"events":[{"kind":"span","name":...,"t_ns":...,...}, ...]}]}
/// Events within a thread are ordered oldest-first. Not async-signal-safe in
/// the strict sense (streams allocate), but safe for abort/terminate paths.
void write_flight_json(std::ostream& os, const char* reason);

/// Dump all rings to stderr and to the flight file (PLF_FLIGHT_PATH or
/// `plf_flight_<pid>.json` in the working directory). Never throws; used
/// directly as the crash/terminate handler body.
void dump_flight(const char* reason) noexcept;

/// Path dump_flight() will write to, honouring PLF_FLIGHT_PATH.
/// Exposed so tests and docs agree with the implementation.
void flight_dump_path(char* buf, std::uint32_t buf_size) noexcept;

/// Clear every ring's contents (names, timestamps, sequence numbers). For
/// tests that want a deterministic event set; rings themselves stay
/// registered so recording threads keep working.
void flight_reset_for_tests();

}  // namespace plf::obs
