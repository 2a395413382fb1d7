// LRU buffer pool over a StorageManager (docs/STORAGE.md).
//
// The pool caches page payloads in fixed frames with pin counts.  The
// contract:
//
//   * pin(id) returns a pointer valid until the matching unpin(id, dirty).
//     Pins nest (same page pinned twice needs two unpins).
//   * A pinned frame is never evicted.  Eviction takes the least-recently-
//     unpinned frame; a dirty victim is written back first.
//   * When every frame is pinned and a miss needs a frame, pin() throws
//     BufferPoolExhaustedError — loudly, never a deadlock or silent grow.
//     Callers size --buffer-pages above their worst-case simultaneous pins
//     (the blob streams need 1).
//   * allocate() reserves a page id in storage and installs a zeroed frame
//     for it, pinned and dirty; the page reaches storage at eviction or
//     flush(), not before.
//   * flush() writes back every dirty frame (pinned frames included — their
//     current contents are snapshotted) and then flushes storage.
//
// Hit/miss/eviction/write-back counters export through MetricsRegistry as
// deterministic metrics: pool traffic is a pure function of the applied
// command stream, so two identical runs scrape identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "storage/storage_manager.h"

namespace pubsub {

class MetricsRegistry;
class Counter;
class Gauge;

class BufferPoolExhaustedError : public std::runtime_error {
 public:
  explicit BufferPoolExhaustedError(const std::string& what)
      : std::runtime_error(what) {}
};

class BufferPool {
 public:
  struct Options {
    std::size_t capacity = 64;  // frames (--buffer-pages)
  };

  // `storage` must outlive the pool.  `metrics` may be nullptr.
  BufferPool(StorageManager* storage, const Options& options,
             MetricsRegistry* metrics = nullptr);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  StorageManager* storage() { return storage_; }
  std::uint32_t payload_size() const { return storage_->payload_size(); }
  std::size_t capacity() const { return options_.capacity; }
  std::size_t resident() const { return frames_.size(); }
  std::size_t pinned() const { return pinned_frames_; }

  // Pin a page, loading it from storage on a miss.  Throws
  // BufferPoolExhaustedError if a frame is needed and all are pinned.
  char* pin(PageId id);
  // Release one pin; `dirty` marks the frame as modified since load.
  void unpin(PageId id, bool dirty);

  // Reserve a new page and install a zeroed frame, pinned and dirty.
  PageId allocate();
  // Drop the page from the pool (must be unpinned) and free it in storage.
  void free_page(PageId id);

  // Write back all dirty frames and flush storage (the durability point).
  void flush();

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t writebacks() const { return writebacks_; }

 private:
  struct Frame {
    std::unique_ptr<char[]> data;
    std::size_t pins = 0;
    bool dirty = false;
    // Position in lru_ when pins == 0 (unpinned frames only).
    std::list<PageId>::iterator lru_pos;
    bool in_lru = false;
  };

  Frame& frame_for(PageId id, bool load);
  void evict_one();
  void writeback(PageId id, Frame& frame);

  StorageManager* storage_;
  Options options_;
  std::unordered_map<PageId, Frame> frames_;
  // Least-recently-unpinned order, most recent at the front.
  std::list<PageId> lru_;
  std::size_t pinned_frames_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t writebacks_ = 0;
  Counter* m_hits_ = nullptr;
  Counter* m_misses_ = nullptr;
  Counter* m_evictions_ = nullptr;
  Counter* m_writebacks_ = nullptr;
  Gauge* m_capacity_ = nullptr;
  Gauge* m_pinned_ = nullptr;
};

// RAII pin: unpins on destruction with the dirty flag accumulated via
// set_dirty().  Move-only.
class PageRef {
 public:
  PageRef(BufferPool& pool, PageId id)
      : pool_(&pool), id_(id), data_(pool.pin(id)) {}
  // Allocate a fresh page (pinned, zeroed, dirty).
  static PageRef Alloc(BufferPool& pool);

  PageRef(PageRef&& other) noexcept
      : pool_(other.pool_),
        id_(other.id_),
        data_(other.data_),
        dirty_(other.dirty_) {
    other.pool_ = nullptr;
  }
  PageRef& operator=(PageRef&& other) noexcept {
    if (this != &other) {
      release();
      pool_ = other.pool_;
      id_ = other.id_;
      data_ = other.data_;
      dirty_ = other.dirty_;
      other.pool_ = nullptr;
    }
    return *this;
  }
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  ~PageRef() { release(); }

  PageId id() const { return id_; }
  char* data() { return data_; }
  const char* data() const { return data_; }
  void set_dirty() { dirty_ = true; }

 private:
  PageRef(BufferPool& pool, PageId id, char* data, bool dirty)
      : pool_(&pool), id_(id), data_(data), dirty_(dirty) {}
  void release() {
    if (pool_ != nullptr) {
      pool_->unpin(id_, dirty_);
      pool_ = nullptr;
    }
  }

  BufferPool* pool_;
  PageId id_ = kNoPage;
  char* data_ = nullptr;
  bool dirty_ = false;
};

}  // namespace pubsub
