// Pieces the untraced and traced runs share (private to the benchmark).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "serve_bench.h"

namespace servebench::detail {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// What replaying one stream leaves behind that does not depend on timing:
// every field repeats exactly when the same stream is replayed.
struct StreamTally {
  std::uint64_t commands = 0;
  std::uint64_t publishes = 0;
  std::uint64_t shards_matched = 0;  // Σ FleetPublishOutcome::shards_matched
  std::uint64_t refreshes = 0;       // Σ shard BrokerStats::refreshes
  std::uint64_t refresh_churn = 0;   // broker_refresh_trigger_total{cause}
  std::uint64_t refresh_waste = 0;
  std::uint64_t wasted = 0;          // Σ shard wasted_deliveries
  std::uint64_t emitted = 0;         // Σ shard messages_emitted
  std::uint64_t multicast = 0;       // Σ shard multicast_events
  std::uint64_t shard_publishes = 0; // Σ shard publishes
  std::uint64_t wire_bytes = 0;      // Σ runtime_bytes_on_wire_total
  std::uint64_t messages = 0;        // Σ runtime_messages_sent_total
  std::uint64_t journal_bytes = 0;   // Σ shard journal_bytes
  std::uint64_t digest = 0;          // BrokerFleet::state_digest()
  bool operator==(const StreamTally&) const = default;
};

// Fills the shard-derived fields of `t` from the fleet's end state.
void TallyShards(const pubsub::BrokerFleet& fleet, StreamTally* t);

// One untraced replay of a stream: its set-up time, whole-stream wall time
// and each command's apply time.
struct Replay {
  // Per-command flags; they depend only on the stream, so every replay of
  // a stream must produce the same ones.
  static constexpr std::uint8_t kPublish = 1;
  static constexpr std::uint8_t kRefreshed = 2;  // a shard re-clustered
  double setup_s = 0.0;
  double stream_s = 0.0;
  std::uint64_t publishes = 0;
  std::vector<double> us;           // per command, in stream order
  std::vector<std::uint8_t> flags;  // per command
};

// Replays corpus stream `i` untraced on a fresh fleet.  Returns false (and
// counts one failure in `r`) if a command threw; the rest of that stream
// is then not attempted.
bool ReplayStream(const Corpus& c, std::size_t i, Replay* out,
                  StreamTally* tally, RunResult* r);

// The output check: per stream, the FleetOracle digest of the same
// schedule.  Run with re-clustering off — the fleet digest does not depend
// on clustering (serve/fleet.h) — and untimed.
std::vector<std::uint64_t> OracleDigests(const Corpus& c);

// Records a failure note (the first few only) and marks `r` incorrect.
void Fail(RunResult* r, const std::string& why);

// Tracks per-stream tallies across passes: the first replay of a stream
// fixes its tally, later ones must repeat it exactly.  finish() checks the
// digests against the oracle and, on any mismatch, counts every attempted
// command as failed.
class TallyBook {
 public:
  explicit TallyBook(std::size_t streams)
      : first_(streams), have_(streams, false) {}
  void record(std::size_t i, const StreamTally& t, RunResult* r);
  void finish(const Corpus& c, RunResult* r) const;
  // Σ over the corpus (one replay per stream).
  StreamTally total() const;

 private:
  std::vector<StreamTally> first_;
  std::vector<bool> have_;
};

Metric Median(const std::string& name, const std::string& unit,
              std::vector<double> samples);
// Percentile q of the samples; not reportable unless at least ten
// samples lie beyond it.
Metric Tail(const std::string& name, const std::string& unit,
            std::vector<double> samples, double q);
double Ratio(double num, double den);

}  // namespace servebench::detail
