// Publish-path stage tracing (telemetry issue tentpole, part 2).
//
// Every publish walks four stages — match (interested-set + matcher
// decision), group-selection (unicast completion of interested \ group),
// delivery-plan (runtime pricing of the multicast tree / unicast fan-out)
// and journal-flush (write-ahead serialization + sink flush).  The broker
// measures each stage with a pluggable Clock (StopwatchClock live,
// ManualClock in deterministic tests) and, for every `--trace-sample`-th
// command, records the spans into a fixed-capacity ring.
//
// The ring is single-writer by construction: the broker command path is
// serial, so record() needs no synchronization.  When full it overwrites
// the oldest span and counts the drop — tracing never grows memory or
// stalls the hot path.
#pragma once

#include <cstdint>
#include <vector>

namespace pubsub {

enum class PublishStage : std::uint8_t {
  kMatch = 0,
  kGroupSelection = 1,
  kDeliveryPlan = 2,
  kJournalFlush = 3,
  // Fleet-level stages (fleet observability tentpole).  The coordinator
  // records these around the sharded publish pipeline; brokers never emit
  // them, so kNumPublishStages still sizes the per-stage broker histograms.
  kFleetFanOut = 4,
  kFleetMerge = 5,
  kFleetDeliver = 6,
  // Nothing records this stage; servebench/traced_run.cc switches over it.
  kReplicaApply = 7,
};

inline constexpr std::size_t kNumPublishStages = 4;
inline constexpr std::size_t kNumTraceStages = 8;

const char* StageName(PublishStage stage);

struct TraceSpan {
  // Fleet-assigned causal trace id.  0 = untraced / standalone sampling
  // (the broker stamps its own seq there when no fleet context is armed).
  std::uint64_t trace_id = 0;
  std::uint64_t seq = 0;  // local sequence number of the traced command
  // Shard that emitted the span; -1 = fleet coordinator or a standalone
  // broker outside any fleet.
  std::int32_t shard = -1;
  PublishStage stage = PublishStage::kMatch;
  double start_ms = 0.0;     // trace-clock time at stage entry
  double duration_ms = 0.0;  // stage wall time (0 under a ManualClock)
};

class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity);

  void record(const TraceSpan& span);

  std::size_t capacity() const { return buf_.size(); }
  std::uint64_t recorded() const { return recorded_; }
  // Spans overwritten before anyone read them.
  std::uint64_t dropped() const {
    return recorded_ > buf_.size() ? recorded_ - buf_.size() : 0;
  }

  // Retained spans, oldest first.
  std::vector<TraceSpan> spans() const;

 private:
  std::vector<TraceSpan> buf_;
  std::uint64_t recorded_ = 0;
};

}  // namespace pubsub
