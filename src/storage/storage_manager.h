// Paged storage seam: a page store behind a narrow allocate/read/write/flush
// interface (docs/STORAGE.md).
//
// The design reproduces the classic spatial-index storage split — a
// `DiskStorageManager` / `MemoryStorageManager` pair behind one interface,
// fronted by a buffer pool — so a structure built of fixed-size pages can
// run entirely in RAM (tests) or against a real file (snapshot page files,
// streaming cold-start recovery) with no change above the seam.
//
// Page files are self-describing: page 0 is a header (magic, version,
// geometry, free-list head, owner metadata string) and every page — header
// included — carries a CRC-32C over its tag and payload, so torn writes and
// misdirected reads surface as typed StorageErrors at read time.  Freed
// pages are chained into a free list and reused before the file grows.
//
// Durability faults are first-class: DiskStorageManager threads the
// fail-point registry through its read/write/fsync paths (sites
// `storage.page.read`, `storage.page.write`, `storage.flush`) and degrades
// to read-only mode after a capped-backoff retry budget, with the same
// semantics as the broker's journal sink (DESIGN.md §13).
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace pubsub {

class Clock;
class MetricsRegistry;
class Counter;

// Pages are addressed by dense 32-bit ids; the header of a disk file is
// page 0 and is not addressable through the StorageManager interface.
using PageId = std::uint32_t;
inline constexpr PageId kNoPage = 0xFFFFFFFFu;

// Per-page on-disk overhead: u32 CRC-32C + u32 tag (the page's own id,
// catching misdirected reads).  The usable payload is page_size - overhead.
inline constexpr std::uint32_t kPageOverhead = 8;
// Owner metadata capacity in the header page (a short free-form text line:
// the snapshot page file stores its blob head and byte length here).
inline constexpr std::uint32_t kMetaCapacity = 512;
// Smallest supported page (the header fields + metadata must fit with room
// to spare for a useful payload).
inline constexpr std::uint32_t kMinPageSize = 1024;

enum class StorageErrorCode {
  kIo,           // read/write/seek failed at the filesystem layer
  kBadHeader,    // missing/short/corrupt header page (wrong magic, CRC, ...)
  kCrcMismatch,  // page CRC does not match its contents
  kBadPage,      // structural violation: tag mismatch, id out of range,
                 // malformed free-list or blob chain
  kTornPage,     // page lies beyond the durable tail of the file
};
const char* StorageErrorCodeName(StorageErrorCode code);

class StorageError : public std::runtime_error {
 public:
  StorageError(StorageErrorCode code, PageId page, const std::string& detail);
  StorageErrorCode code() const { return code_; }
  PageId page() const { return page_; }  // kNoPage when not page-specific

 private:
  StorageErrorCode code_;
  PageId page_;
};

// Thrown by mutations once the manager has exhausted its flush/write retry
// budget and entered degraded read-only mode (mirrors BrokerDegradedError:
// reads keep serving, writes are refused until clear_degraded() re-probes).
class StorageDegradedError : public std::runtime_error {
 public:
  explicit StorageDegradedError(const std::string& what)
      : std::runtime_error(what) {}
};

struct StorageStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t allocations = 0;
  std::uint64_t frees = 0;
  std::uint64_t flushes = 0;
  std::uint64_t flush_failures = 0;
  std::uint64_t retries = 0;
  std::uint64_t degraded_entries = 0;
};

class StorageManager {
 public:
  virtual ~StorageManager() = default;

  virtual std::uint32_t page_size() const = 0;
  // Usable bytes per page (page_size - kPageOverhead).
  std::uint32_t payload_size() const { return page_size() - kPageOverhead; }
  // Pages ever allocated (free-listed pages included; header excluded).
  virtual std::size_t page_count() const = 0;
  // Pages currently on the free list.
  virtual std::size_t free_count() const = 0;

  // Reserve a page id (free-list reuse first, then growth).  The page's
  // contents are unspecified until the first write.
  virtual PageId allocate() = 0;
  // Return a page to the free list.  Reading a freed page is undefined
  // (the free-list chain overwrites its payload prefix).
  virtual void free_page(PageId id) = 0;

  // Copy a page's payload into `out` (payload_size() bytes).
  virtual void read(PageId id, char* out) = 0;
  // Write a page's payload from `data` (payload_size() bytes).
  virtual void write(PageId id, const char* data) = 0;
  // Durability point: persist the header (allocation state, metadata) and
  // all buffered page writes.
  virtual void flush() = 0;

  // Owner metadata, persisted in the header page (<= kMetaCapacity bytes).
  virtual const std::string& meta() const = 0;
  virtual void set_meta(const std::string& m) = 0;

  // Degraded read-only mode (disk manager only; memory never degrades).
  virtual bool degraded() const { return false; }
  // Probe the device; on success clear the degraded flag.  Returns the
  // healthy state after the probe.
  virtual bool clear_degraded() { return true; }

  virtual const StorageStats& stats() const = 0;
};

// Page store backed by process memory.  Same interface, same free-list
// discipline and id assignment as the disk manager, so a page structure
// built against one is identical against the other.  Never degrades and
// consults no fail points.
class MemoryStorageManager final : public StorageManager {
 public:
  explicit MemoryStorageManager(std::uint32_t page_size = 4096);

  std::uint32_t page_size() const override { return page_size_; }
  std::size_t page_count() const override { return pages_.size(); }
  std::size_t free_count() const override { return free_.size(); }
  PageId allocate() override;
  void free_page(PageId id) override;
  void read(PageId id, char* out) override;
  void write(PageId id, const char* data) override;
  void flush() override;
  const std::string& meta() const override { return meta_; }
  void set_meta(const std::string& m) override;
  const StorageStats& stats() const override { return stats_; }

 private:
  void check_id(PageId id) const;

  std::uint32_t page_size_;
  std::vector<std::unique_ptr<char[]>> pages_;
  std::vector<PageId> free_;  // LIFO, matching the disk free-list order
  std::string meta_;
  StorageStats stats_;
};

// Page store backed by a real file.  See docs/STORAGE.md for the on-disk
// layout.  Not thread-safe; one owner at a time (no file locking).
class DiskStorageManager final : public StorageManager {
 public:
  struct Options {
    std::uint32_t page_size = 4096;
    // Write/flush retry budget before entering degraded read-only mode,
    // with capped exponential backoff between attempts (identical knobs to
    // DurabilityOptions on the broker's journal path).
    std::size_t flush_retries = 4;
    double backoff_base_ms = 1.0;
    double backoff_cap_ms = 64.0;
    // Clock used for backoff sleeps.  A ManualClock is advanced
    // deterministically (tests); nullptr means backoff is recorded in the
    // stats but no real time passes (retries are cheap in-process).
    Clock* clock = nullptr;
    // Registry for storage_* counters; nullptr disables metric export.
    MetricsRegistry* metrics = nullptr;
  };

  // Pages silently lost to a torn tail at open (file truncated mid-write).
  struct OpenReport {
    std::size_t clipped_pages = 0;
  };

  // Create a fresh page file at `path`, truncating any existing file.
  static std::unique_ptr<DiskStorageManager> Create(const std::string& path,
                                                    const Options& options);
  static std::unique_ptr<DiskStorageManager> Create(const std::string& path) {
    return Create(path, Options());
  }
  // Open an existing page file.  Validates the header (magic, version, CRC)
  // and clips the page count to the durable tail: pages the header claims
  // but the file does not fully contain read as kTornPage errors, and
  // `report` (optional) records how many were clipped.
  static std::unique_ptr<DiskStorageManager> Open(const std::string& path,
                                                  const Options& options,
                                                  OpenReport* report = nullptr);
  static std::unique_ptr<DiskStorageManager> Open(const std::string& path) {
    return Open(path, Options());
  }

  ~DiskStorageManager() override;

  const std::string& path() const { return path_; }
  std::uint32_t page_size() const override { return options_.page_size; }
  std::size_t page_count() const override { return page_count_; }
  std::size_t free_count() const override { return free_count_; }
  PageId allocate() override;
  void free_page(PageId id) override;
  void read(PageId id, char* out) override;
  void write(PageId id, const char* data) override;
  void flush() override;
  const std::string& meta() const override { return meta_; }
  void set_meta(const std::string& m) override;
  bool degraded() const override { return degraded_; }
  bool clear_degraded() override;
  const StorageStats& stats() const override { return stats_; }

 private:
  DiskStorageManager(std::string path, const Options& options);

  void open_file(bool truncate);
  void load_header(OpenReport* report);
  void write_header();
  // Raw page write at `id` with fail-point evaluation, short-write retry,
  // capped backoff, and degraded-mode entry on budget exhaustion.
  void write_page_raw(PageId id, const char* frame);
  void read_page_raw(PageId id, char* frame);
  void require_healthy() const;
  void enter_degraded(const std::string& why);
  void backoff(double* delay_ms);
  std::uint64_t file_offset(PageId id) const {
    return (static_cast<std::uint64_t>(id) + 1) * options_.page_size;
  }

  std::string path_;
  Options options_;
  std::fstream file_;
  std::size_t page_count_ = 0;   // addressable pages (header excluded)
  std::size_t durable_pages_ = 0;  // pages fully contained in the file
  std::size_t free_count_ = 0;
  PageId free_head_ = kNoPage;
  std::string meta_;
  bool header_dirty_ = false;
  bool degraded_ = false;
  StorageStats stats_;
  // Scratch frame for header/free-list page assembly.
  std::vector<char> frame_;
  // Exported counters (null when options_.metrics == nullptr).
  Counter* m_reads_ = nullptr;
  Counter* m_writes_ = nullptr;
  Counter* m_flush_failures_ = nullptr;
  Counter* m_retries_ = nullptr;
  Counter* m_degraded_ = nullptr;
};

}  // namespace pubsub
