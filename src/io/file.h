// Append-only sink for the broker's durability seams.
//
// The broker never writes a journal record or snapshot straight to a
// std::ostream: it goes through a StreamSink, so the failure modes of real
// storage — short writes, torn tails, fsync errors, crashes mid-append —
// can be injected deterministically at the named fail-point sites of
// util/failpoint.h and the recovery/degradation paths tested without a
// faulty disk.
//
// Semantics mirror POSIX append + fsync:
//   * write() may accept fewer bytes than offered (a short write); the
//     caller retries the remainder.
//   * flush() pushes accepted bytes to stable storage; false means the
//     bytes may not be durable (fsync error) and the caller must retry or
//     degrade (see kJournalFlushRetries in broker/broker.h).
//   * Either call may throw InjectedCrash (simulated process death).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

namespace pubsub {

// Sink over any std::ostream, consulting the fail-point registry at
// "<site_prefix>.write" and "<site_prefix>.flush" on every call:
//   error at .write → short write of the fail point's ARG bytes
//   error at .flush → flush() returns false
//   torn  at .write → ARG bytes reach the stream, then InjectedCrash
//   crash           → InjectedCrash before the operation
// With the registry inactive this is a plain pass-through.
class StreamSink {
 public:
  explicit StreamSink(std::ostream& os, std::string site_prefix = "journal");
  // Append up to n bytes; returns the count accepted (<= n).
  std::size_t write(const char* data, std::size_t n);
  // Make accepted bytes durable; false = flush failure.
  bool flush();

 private:
  std::ostream* os_;
  std::string write_site_;
  std::string flush_site_;
};

}  // namespace pubsub
