// Compiled-in fail-point registry (robustness tentpole).
//
// A fail point is a named site in a durability code path — journal append,
// snapshot write, record apply — where a test, the chaos driver, or an
// operator (via `pubsub_cli --failpoints` / the PUBSUB_FAILPOINTS env var)
// can deterministically inject a failure the code must survive.  The
// registry is process-global and off by default: an unconfigured process
// pays one relaxed atomic load per site evaluation.
//
// Spec grammar (comma- or semicolon-separated list):
//
//   site=ACTION[:ARG][*COUNT][^SKIP][+SEQ][@PROB]
//
//   ACTION  off    — disarm the site (useful to override an earlier entry)
//           error  — report failure: a flush site returns false (fsync
//                    error), a write site performs a short write of ARG
//                    bytes (default 0)
//           crash  — throw InjectedCrash before the operation (simulated
//                    process death; nothing reaches the sink)
//           torn   — write the first ARG bytes of the payload, then throw
//                    InjectedCrash (torn tail: a crash mid-append)
//           delay  — add ARG ms of synthetic latency at the site (SLO
//                    drills: the fleet's slow-shard watchdog test)
//           Each site implements only some of these (FailPointSite::
//           actions); naming another one is an error, like an unknown site.
//   ARG     non-negative integer parameter of the action (byte count, or
//           milliseconds for delay)
//   COUNT   fire at most COUNT times, then disarm (default: unlimited)
//   SKIP    let the first SKIP matching evaluations pass before arming
//           (deterministic "fail on the Nth append" scheduling)
//   SEQ     stay dormant until the instrumented component reports sequence
//           number SEQ or later via advance_sequence() (the broker reports
//           each command's seq).  Dormant evaluations consume neither SKIP
//           nor COUNT, so a fault can target e.g. the organic checkpoint a
//           schedule knows will run at a given command.
//   PROB    fire with probability PROB per evaluation (default 1), drawn
//           from the registry's seeded generator — randomized but
//           reproducible chaos runs
//
// Examples:
//   journal.flush=error*1            fail exactly the next fsync
//   journal.write=torn:7^3           3 appends succeed, the 4th tears
//                                    after 7 bytes
//   snapshot.write=crash*1+40        crash the first snapshot write at or
//                                    after broker seq 40
//   broker.publish.post_journal=crash@0.01   1% crash after the WAL append
//
// Site names follow `component.operation[.detail]` (see DESIGN.md §9);
// KnownSites() lists every site compiled into the tree so docs, `pubsub_cli
// help`, and the chaos driver never drift from the code.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

namespace pubsub {

// Simulated process death, thrown at a firing crash/torn fail point.  The
// intended handling is a kill/recover cycle: discard the broker, re-read
// snapshot + journal, resume.  Deliberately NOT derived from
// std::runtime_error so ordinary error handling does not swallow it.
class InjectedCrash : public std::exception {
 public:
  explicit InjectedCrash(std::string site)
      : site_(std::move(site)), what_("injected crash at fail point " + site_) {}
  const char* what() const noexcept override { return what_.c_str(); }
  const std::string& site() const { return site_; }

 private:
  std::string site_;
  std::string what_;
};

enum class FailAction { kOff, kError, kCrash, kTorn, kDelay };

// Result of evaluating a site: what to do, and the action's byte argument.
struct FailPointDecision {
  FailAction action = FailAction::kOff;
  std::size_t arg = 0;
};

struct FailPointSite {
  const char* name;
  const char* description;
  // The actions the site's seam implements, '|'-separated ("error|crash").
  // `off` is always accepted.
  const char* actions;
};

class FailPoints {
 public:
  // Process-global registry (the CLI and chaos driver configure one set of
  // faults per process, mirroring how an operator flag works).
  static FailPoints& Instance();

  // Parse and arm `spec` (grammar above), merging over the current
  // configuration.  A malformed entry, one naming a site that is not in
  // KnownSites(), or one whose action the site does not implement throws
  // std::invalid_argument and arms none of the spec's entries.
  void configure(const std::string& spec);
  // Arm from PUBSUB_FAILPOINTS / PUBSUB_FAILPOINTS_SEED if set.
  void configure_from_env();
  // Disarm everything and zero hit/fire accounting.
  void clear();
  // Seed for the @PROB draws (splitmix64); default 0.
  void set_seed(std::uint64_t seed);

  // Evaluate a site: called by the instrumented code on every pass through
  // the seam.  Returns kOff unless the site is armed and due.
  FailPointDecision eval(const std::string& site);

  // Report the instrumented component's current sequence number; +SEQ
  // entries stay dormant while the last reported value is below theirs.
  // A plain store, not a running max: recovery replays from an older seq,
  // and the window should track the live position.
  void advance_sequence(std::uint64_t seq);

  // True once configure() armed anything (fast path: one atomic load).
  bool active() const { return active_.load(std::memory_order_relaxed); }

  // Accounting, for tests and the chaos report.
  std::uint64_t hits(const std::string& site) const;   // evaluations
  std::uint64_t fired(const std::string& site) const;  // non-kOff results

  // Every fail-point site compiled into the tree, sorted by name.
  static const std::vector<FailPointSite>& KnownSites();

 private:
  FailPoints();
  ~FailPoints();
  FailPoints(const FailPoints&) = delete;
  FailPoints& operator=(const FailPoints&) = delete;

  std::atomic<bool> active_{false};
  struct Impl;
  Impl* impl_;
};

}  // namespace pubsub
