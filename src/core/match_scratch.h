// Per-event scratch arenas for the publish/match hot path (DESIGN.md §10).
//
// All per-event working memory — the word-packed bit scratch, the sorted
// interested set, unicast completion targets, host-node lists and
// per-delivery latencies — lives in one MatchScratch.  The vectors only
// ever grow: after a warm-up pass their capacity covers the workload's
// high-water mark, and every subsequent match/publish reuses them, so
// steady-state publish performs zero heap allocations (pinned by
// tests/test_publish_alloc.cc with a counting operator new).
//
// Ownership convention: the broker owns one scratch per instance (its
// commands are sequenced, so one is enough); free-standing call sites and
// batch-pipeline workers use thread_local_instance() — one arena per pool
// thread, so concurrent matching never shares buffers.  Spans returned by
// match()/publish() alias the scratch the call ran against and stay valid
// until that scratch's next use; matches against *other* scratches never
// disturb them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "workload/types.h"

namespace pubsub {

struct MatchScratch {
  // Word-packed subscriber bits: the lattice stab's column AND, read by the
  // ascending emission and the group-completion AND-NOT kernel.  Contract:
  // all words are zero between uses; a consumer writes bits, records the
  // touched word range in [word_lo, word_hi], and must call clear_words()
  // when done.
  std::vector<std::uint64_t> words;
  std::size_t word_lo = static_cast<std::size_t>(-1);
  std::size_t word_hi = 0;

  // Sorted (ascending) interested subscriber set of the last emission.
  std::vector<SubscriberId> interested;
  // Unicast completion targets (interested \ group).
  std::vector<SubscriberId> unicast;
  // Host nodes for a delivery call.
  std::vector<NodeId> nodes;
  // Per-target modelled latencies of one publish.
  std::vector<double> latencies;

  // Ensure `words` can hold `bits` bits.  New words are zero; existing
  // words are untouched (they are zero by the clear_words contract).
  void require_bits(std::size_t bits) {
    const std::size_t needed = (bits + 63) / 64;
    if (words.size() < needed) words.resize(needed, 0);
  }

  // Zero the touched word range and reset it.  Cheap when nothing was
  // scattered since the last clear.
  void clear_words() {
    if (word_lo <= word_hi && word_hi < words.size()) {
      for (std::size_t w = word_lo; w <= word_hi; ++w) words[w] = 0;
    }
    word_lo = static_cast<std::size_t>(-1);
    word_hi = 0;
  }

  // One arena per thread for free-standing call sites (two-argument
  // match() overloads, batch-pipeline workers).
  static MatchScratch& thread_local_instance() {
    thread_local MatchScratch scratch;
    return scratch;
  }
};

}  // namespace pubsub
