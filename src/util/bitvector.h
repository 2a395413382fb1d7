// Word-packed dynamic bit-vector.
//
// Subscriber membership vectors s(a) (paper §4.1) are bit-vectors over the
// subscriber population.  The expected-waste distance reduces to two
// "and-not + popcount" passes, so those kernels are the hot path of every
// clustering algorithm in src/core.  This class provides exactly the
// operations the clustering layer needs, on 64-bit words.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

// Marks the functions that run std::popcount over membership words: the
// count kernels below and the two distance kernels in core/cluster_types.
// Without -mpopcnt, GCC and Clang compile std::popcount on x86-64 to a
// call into libgcc's __popcountdi2.  On x86-64 this macro asks the
// compiler for a POPCNT clone plus a baseline clone of the function, and
// the loader's ifunc resolver picks one once, at startup, by CPU.  So the
// kernels use the instruction wherever the CPU has it, and the binary
// still runs on x86-64 CPUs that lack it (no -march flag is needed).
// Other targets get plain functions.  So do ThreadSanitizer builds: with
// GCC 12, a TSan binary that contains a target_clones resolver crashes at
// startup.
#if defined(__SANITIZE_THREAD__)
#define PUBSUB_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PUBSUB_TSAN_BUILD 1
#endif
#endif
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(PUBSUB_TSAN_BUILD)
#define PUBSUB_POPCOUNT_KERNEL __attribute__((target_clones("popcnt", "default")))
#else
#define PUBSUB_POPCOUNT_KERNEL
#endif

namespace pubsub {

class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(std::size_t nbits)
      : nbits_(nbits), words_((nbits + kWordBits - 1) / kWordBits, 0) {}
  // Adopts raw words (bit i is bit i%64 of word i/64).  Throws
  // std::invalid_argument unless there are exactly ceil(nbits/64) words and
  // no bit at or above nbits is set.
  BitVector(std::size_t nbits, std::span<const std::uint64_t> words);

  std::size_t size() const { return nbits_; }
  bool empty() const { return nbits_ == 0; }

  bool test(std::size_t i) const {
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
  }
  void set(std::size_t i) { words_[i / kWordBits] |= Mask(i); }
  void reset(std::size_t i) { words_[i / kWordBits] &= ~Mask(i); }
  void assign(std::size_t i, bool v) { v ? set(i) : reset(i); }

  // Number of set bits.
  std::size_t count() const;
  bool any() const;
  bool none() const { return !any(); }

  // In-place logical operations; operands must have equal size.
  BitVector& operator|=(const BitVector& o);
  BitVector& operator&=(const BitVector& o);
  BitVector& operator^=(const BitVector& o);
  // this &= ~o
  BitVector& and_not_assign(const BitVector& o);

  friend BitVector operator|(BitVector a, const BitVector& b) { return a |= b; }
  friend BitVector operator&(BitVector a, const BitVector& b) { return a &= b; }
  friend BitVector operator^(BitVector a, const BitVector& b) { return a ^= b; }

  bool operator==(const BitVector& o) const {
    return nbits_ == o.nbits_ && words_ == o.words_;
  }

  // |this \ o| — the expected-waste kernel: count of bits set here but not
  // in o, computed without materializing a temporary.
  std::size_t count_and_not(const BitVector& o) const;
  // |this \ o| and |o \ this| together, in ONE pass over the words — the
  // fused expected-waste kernel (each word pair is loaded once and both
  // AND-NOT popcounts accumulated), half the memory traffic of two
  // count_and_not calls.  The counts are bit-identical to the two-call
  // form.
  void count_diffs(const BitVector& o, std::size_t* this_not_o,
                   std::size_t* o_not_this) const;
  // |this ∩ o|
  std::size_t count_and(const BitVector& o) const;
  // |this ∪ o|
  std::size_t count_or(const BitVector& o) const;

  // True iff every bit set here is also set in o.
  bool is_subset_of(const BitVector& o) const;
  bool intersects(const BitVector& o) const;

  // Invoke f(i) for every set bit, in increasing order.  Templated so the
  // callback inlines into the word loop — this runs on the publish hot path.
  template <typename F>
  void for_each_set(F&& f) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t w = words_[wi];
      while (w != 0) {
        const int b = std::countr_zero(w);
        f(wi * kWordBits + static_cast<std::size_t>(b));
        w &= w - 1;
      }
    }
  }
  std::vector<std::size_t> set_bits() const;

  // Raw 64-bit words (bit i of the vector is bit i%64 of word i/64).  Exposed
  // so hot paths can run fused word kernels (AND-NOT set difference, popcount
  // of AND) against membership vectors without per-bit calls.
  std::span<const std::uint64_t> words() const { return words_; }
  static constexpr std::size_t word_bits() { return kWordBits; }

  // FNV-1a over the words; used to merge identical membership vectors into
  // hyper-cells (paper §4.1 "Implementation Notes").
  std::size_t hash() const;

  // "1011…" (bit 0 first), for diagnostics.
  std::string to_string() const;

 private:
  static constexpr std::size_t kWordBits = 64;
  static std::uint64_t Mask(std::size_t i) {
    return std::uint64_t{1} << (i % kWordBits);
  }

  std::size_t nbits_ = 0;
  std::vector<std::uint64_t> words_;
};

struct BitVectorHash {
  std::size_t operator()(const BitVector& v) const { return v.hash(); }
};

}  // namespace pubsub
