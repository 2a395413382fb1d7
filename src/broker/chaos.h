// Chaos driver: scripted kill/recover cycles for the durable broker.
//
// The durability claim of this layer ("recovery is bit-identical to an
// uninterrupted run") is only as good as the failure schedule it has been
// tested against.  RunChaos makes that schedule explicit: it drives a
// broker through the same command stream `pubsub_cli serve-replay` would
// produce, repeatedly kills it at the named fail-point sites of
// util/failpoint.h (crashes before/after the WAL append, torn journal
// tails, fsync failures that force degraded mode, crashes mid-recovery),
// recovers from the surviving in-memory "disk", and after every cycle
// compares the FNV-1a state digest against an un-faulted reference run at
// the same sequence number.
//
// The harness owns the process-global FailPoints registry for its run:
// callers must not have fail points armed concurrently.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "broker/types.h"
#include "net/transit_stub.h"
#include "workload/types.h"

namespace pubsub {

// The exact command stream serve-replay drives, precomputed: schedule[k]
// carries seq k+1 and the timestamp the ManualClock would have stamped, so
// a broker at seq S always resumes at schedule[S] — regardless of how many
// times it has been killed in between.  Replicates serve-replay's churn
// policy draw-for-draw (same trace seed, same split stream).
std::vector<JournalRecord> BuildChaosSchedule(const TransitStubNetwork& net,
                                              const Workload& base,
                                              std::size_t num_events,
                                              std::size_t churn_every,
                                              std::uint64_t seed);

struct ChaosOptions {
  std::size_t num_events = 400;  // trace length (as serve-replay --events)
  std::size_t churn_every = 5;   // churn cadence (as serve-replay --churn-every)
  std::uint64_t seed = 7;        // trace/churn seed (as serve-replay --seed)
  std::uint64_t chaos_seed = 1;  // fault site/timing selection stream
  std::size_t cycles = 200;      // kill/recover cycles to force
  std::uint64_t snapshot_every = 50;  // checkpoint cadence in commands
  BrokerOptions broker;
};

struct ChaosReport {
  std::size_t commands = 0;       // schedule length (== the final seq)
  std::size_t cycles = 0;         // kills executed (injected + hard kills)
  std::size_t recoveries = 0;     // completed Broker::Recover calls
  std::size_t torn_tails = 0;     // recoveries that dropped a torn tail
  std::size_t degraded_entries = 0;  // degraded-mode rounds driven
  std::size_t digest_checks = 0;     // post-recovery digest comparisons
  std::size_t digest_mismatches = 0; // any non-zero value is a found bug
  std::map<std::string, std::uint64_t> kills_by_site;
  std::uint64_t final_seq = 0;
  std::uint64_t final_digest = 0;
  std::uint64_t reference_digest = 0;
  bool digests_match = false;  // final state bit-identical to the reference
};

// Run the full chaos schedule.  `base` must be a stock workload (the trace
// generator's event space); `pub` the matching publication model.  All
// journal/snapshot I/O happens against in-memory strings, so the run is
// hermetic and deterministic in (seed, chaos_seed, options).
ChaosReport RunChaos(const TransitStubNetwork& net, const Workload& base,
                     const PublicationModel& pub, const ChaosOptions& opts);

// Multi-line human-readable rendering (pubsub_cli chaos).
std::string FormatChaosReport(const ChaosReport& r);

}  // namespace pubsub
