// Page files: a write-once writer and a read-only reader for one byte blob
// stored as a chain of fixed-size, CRC-guarded pages (docs/STORAGE.md).
//
// The broker snapshot page file (broker/snapshot_file.h) is the one
// artefact in this format.  It is written once, front to back, and read
// once, front to back, so the tier needs no page cache and no allocator:
//
//   * PageFileWriter streams bytes into chain pages, writing each page once
//     in id order from a single page buffer; finish() then writes the
//     header (geometry plus the blob's head, length and page count) and
//     flushes.  The header goes last, so a save that dies before writing
//     it leaves a file the reader rejects.
//   * PageFileReader opens the file read-only, clips pages torn off the
//     file tail, and streams the chain back one page per refill.  Reading
//     never writes: two readers of one torn file see the same clip.
//
// Every page, the header included, carries a CRC-32C over its tag and
// payload, the tag being the page's own id, so torn writes and misdirected
// reads surface as typed StorageErrors.  Durability faults run through the
// fail-point registry (sites `storage.page.write`, `storage.flush`,
// `storage.page.read`); a page write or flush that fails kWriteAttempts
// times degrades the writer, which then refuses further writes with
// StorageDegradedError (the journal sink's semantics, DESIGN.md §13).
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

namespace pubsub {

class Counter;
class MetricsRegistry;

// Pages are addressed by dense 32-bit ids; the header sits before page 0
// and is tagged kNoPage.
using PageId = std::uint32_t;
inline constexpr PageId kNoPage = 0xFFFFFFFFu;

// Per-page on-disk overhead: u32 CRC-32C + u32 tag.  The usable payload is
// page_size - overhead.
inline constexpr std::uint32_t kPageOverhead = 8;
// Smallest supported page (the header fields and metadata must fit).
inline constexpr std::uint32_t kMinPageSize = 1024;
// Attempts per page write or flush before the writer degrades.
inline constexpr std::size_t kWriteAttempts = 4;

enum class StorageErrorCode {
  kIo,           // read/write/seek failed at the filesystem layer
  kBadHeader,    // missing/short/corrupt header page (wrong magic, CRC, ...)
  kCrcMismatch,  // page CRC does not match its contents
  kBadPage,      // structural violation: tag mismatch, id out of range,
                 // malformed blob chain
  kTornPage,     // page lies beyond the durable tail of the file
};

class StorageError : public std::runtime_error {
 public:
  StorageError(StorageErrorCode code, PageId page, const std::string& detail);
  StorageErrorCode code() const { return code_; }
  PageId page() const { return page_; }  // kNoPage when not page-specific

 private:
  StorageErrorCode code_;
  PageId page_;
};

// Thrown once a page write or flush has used up its kWriteAttempts and by
// every write the writer is asked for after that (mirrors
// BrokerDegradedError on the journal path).
class StorageDegradedError : public std::runtime_error {
 public:
  explicit StorageDegradedError(const std::string& what)
      : std::runtime_error(what) {}
};

// Where the blob lives: its first page, byte length and chain length.
struct PageBlob {
  PageId head = kNoPage;
  std::uint64_t bytes = 0;
  std::uint32_t pages = 0;
};

// Creates (truncates) a page file and streams one blob into it:
//   PageFileWriter w(path, page_size);
//   WriteBrokerSnapshot(w.stream(), snap);
//   PageBlob blob = w.finish();   // tail page, header, flush
// Storage faults raised under stream() propagate typed (StorageError,
// StorageDegradedError, InjectedCrash), not as badbit.
class PageFileWriter : private std::streambuf {
 public:
  // Throws std::invalid_argument for page_size < kMinPageSize and
  // StorageError{kIo} when the file cannot be created.  `metrics`
  // (nullable) receives the storage_* write counters.
  PageFileWriter(const std::string& path, std::uint32_t page_size,
                 MetricsRegistry* metrics = nullptr);
  // stream() points at this object.
  PageFileWriter(const PageFileWriter&) = delete;
  PageFileWriter& operator=(const PageFileWriter&) = delete;

  std::ostream& stream() { return out_; }
  // Writes the last chain page and the header, then flushes: the
  // durability point.  Call once.
  PageBlob finish();
  bool degraded() const { return degraded_; }

 private:
  int_type overflow(int_type ch) override;
  void require_writable() const;
  void start_page();
  void emit_page(PageId next);
  void write_frame(std::uint64_t offset, const char* frame);
  void flush_file();
  void count_failure(const std::string& why, std::size_t* failures);

  std::string path_;
  std::uint32_t page_size_;
  std::ofstream file_;
  std::vector<char> frame_;  // the one page buffer
  std::uint32_t pages_ = 0;  // chain pages written
  std::uint64_t bytes_ = 0;  // blob bytes in those pages
  bool finished_ = false;
  bool degraded_ = false;
  Counter* m_writes_ = nullptr;
  Counter* m_flush_failures_ = nullptr;
  Counter* m_retries_ = nullptr;
  Counter* m_degraded_ = nullptr;
  std::ostream out_;
};

// Opens a page file read-only and streams its blob back.  The page size
// comes from the file's header.
class PageFileReader : private std::streambuf {
 public:
  // Validates the header (magic, geometry, CRC, version, blob metadata)
  // and clips the page count to the pages the file fully contains.
  // Throws StorageError{kBadHeader} for a file that is not a complete page
  // file header and StorageError{kIo} when it cannot be opened.  `metrics`
  // (nullable) receives storage_page_reads_total.
  explicit PageFileReader(const std::string& path,
                          MetricsRegistry* metrics = nullptr);
  // stream() points at this object.
  PageFileReader(const PageFileReader&) = delete;
  PageFileReader& operator=(const PageFileReader&) = delete;

  std::istream& stream() { return in_; }
  const PageBlob& blob() const { return blob_; }
  std::uint32_t page_size() const { return page_size_; }
  // Readable pages (after the clip) and pages the header claimed beyond
  // the file's tail.
  std::size_t page_count() const { return page_count_; }
  std::size_t clipped_pages() const { return clipped_pages_; }

  // The CRC- and tag-checked payload of page `id` (page_size - kPageOverhead
  // bytes), valid until the next read.  Ids past the clipped page count
  // throw StorageError{kBadPage}.
  const char* read_page(PageId id);

 private:
  int_type underflow() override;

  std::ifstream file_;
  std::uint32_t page_size_ = 0;
  std::size_t page_count_ = 0;
  std::size_t clipped_pages_ = 0;
  PageBlob blob_;
  std::vector<char> frame_;
  PageId next_ = kNoPage;        // next chain page to stream
  std::uint64_t remaining_ = 0;  // blob bytes not yet streamed
  std::uint32_t pages_seen_ = 0;
  Counter* m_reads_ = nullptr;
  std::istream in_;
};

}  // namespace pubsub
