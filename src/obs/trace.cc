#include "obs/trace.h"

#include <stdexcept>

namespace pubsub {

const char* StageName(PublishStage stage) {
  switch (stage) {
    case PublishStage::kMatch:
      return "match";
    case PublishStage::kGroupSelection:
      return "group_selection";
    case PublishStage::kDeliveryPlan:
      return "delivery_plan";
    case PublishStage::kJournalFlush:
      return "journal_flush";
    case PublishStage::kFleetFanOut:
      return "fleet_fanout";
    case PublishStage::kFleetMerge:
      return "fleet_merge";
    case PublishStage::kFleetDeliver:
      return "fleet_deliver";
    case PublishStage::kReplicaApply:
      return "replica_apply";
  }
  return "unknown";
}

TraceRing::TraceRing(std::size_t capacity) : buf_(capacity == 0 ? 1 : capacity) {}

void TraceRing::record(const TraceSpan& span) {
  buf_[static_cast<std::size_t>(recorded_ % buf_.size())] = span;
  ++recorded_;
}

std::vector<TraceSpan> TraceRing::spans() const {
  std::vector<TraceSpan> out;
  const std::uint64_t n =
      recorded_ < buf_.size() ? recorded_ : static_cast<std::uint64_t>(buf_.size());
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = recorded_ - n; i < recorded_; ++i)
    out.push_back(buf_[static_cast<std::size_t>(i % buf_.size())]);
  return out;
}

}  // namespace pubsub
