// Stream adapters over a chain of pages (docs/STORAGE.md §"Blob chains").
//
// A blob is a byte sequence stored as a linked chain of pages, each payload
// laid out as [next u32][used u32][data ...].  The head page id and total
// byte length live in the file's header metadata, so a page file can carry
// an arbitrary serialized artifact — the broker snapshot path routes
// WriteBrokerSnapshot/ReadBrokerSnapshot through these adapters, which is
// what lets Broker::Recover stream pages on demand instead of slurping the
// whole file: the std::istream pulls one page per underflow.  Both streams
// rethrow a storage fault raised under them (StorageError, InjectedCrash,
// ...) instead of swallowing it into badbit, so a damaged page file fails
// with its typed error rather than as a parse error further up.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "storage/buffer_pool.h"

namespace pubsub {

struct PageBlob {
  PageId head = kNoPage;
  std::uint64_t bytes = 0;
  std::uint32_t pages = 0;
};

// Header-metadata encoding of a blob ("blob head=H bytes=B pages=P").
std::string FormatBlobMeta(const PageBlob& blob);
bool ParseBlobMeta(const std::string& meta, PageBlob* out);

// Accumulates written bytes into a page chain.  Usage:
//   PageBlobWriter w(&pool);
//   WriteBrokerSnapshot(w.stream(), snap);
//   PageBlob blob = w.finish();   // emits the tail, flushes the pool
// finish() must be called exactly once; it stores the blob descriptor in
// the storage header metadata as a side effect.
class PageBlobWriter {
 public:
  explicit PageBlobWriter(BufferPool* pool);
  ~PageBlobWriter();

  std::ostream& stream() { return out_; }
  PageBlob finish();

 private:
  class Buf : public std::streambuf {
   public:
    explicit Buf(BufferPool* pool);
    PageBlob finish();

   protected:
    int_type overflow(int_type ch) override;
    std::streamsize xsputn(const char* s, std::streamsize n) override;

   private:
    void append(const char* data, std::size_t n);
    void emit(PageId next);
    PageId alloc_unpinned();

    BufferPool* pool_;
    std::size_t cap_;            // data bytes per chain page
    std::vector<char> buffer_;   // bytes for the page at pending_
    PageId head_ = kNoPage;
    PageId pending_ = kNoPage;   // page id reserved for buffer_'s bytes
    std::uint64_t bytes_ = 0;
    std::uint32_t pages_ = 0;
    bool finished_ = false;
  };

  Buf buf_;
  std::ostream out_;
};

// Streams a blob back as a std::istream, loading one page per refill.
class PageBlobReader {
 public:
  // Reads the blob described by the storage header metadata; throws
  // StorageError(kBadHeader) if the metadata does not describe a blob.
  explicit PageBlobReader(BufferPool* pool);
  PageBlobReader(BufferPool* pool, const PageBlob& blob);

  std::istream& stream() { return in_; }
  const PageBlob& blob() const { return blob_; }

 private:
  class Buf : public std::streambuf {
   public:
    Buf(BufferPool* pool, const PageBlob& blob);

   protected:
    int_type underflow() override;

   private:
    BufferPool* pool_;
    PageBlob blob_;
    PageId next_ = kNoPage;
    std::uint64_t remaining_;
    std::uint32_t pages_seen_ = 0;
    std::vector<char> chunk_;
  };

  PageBlob blob_;
  Buf buf_;
  std::istream in_;
};

}  // namespace pubsub
