// Storage subsystem tests: page-file format, free-list reuse, CRC/tag
// detection, torn-tail reopen fuzz, buffer-pool edge cases, degraded-mode
// backoff, and blob stream round trips (docs/STORAGE.md).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/crc32.h"
#include "storage/page_stream.h"
#include "storage/storage_manager.h"
#include "util/failpoint.h"

namespace pubsub {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

std::vector<char> Pattern(std::size_t n, unsigned seed) {
  std::vector<char> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<char>((i * 131 + seed * 7 + 3) & 0xFF);
  return v;
}

// Every fail-point test must leave the process-global registry disarmed.
class StorageFailPointTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPoints::Instance().clear(); }
  void TearDown() override { FailPoints::Instance().clear(); }
};

TEST(Crc32, KnownAnswerAndChaining) {
  // CRC-32C check value from RFC 3720 ("123456789" -> 0xE3069283).
  const char* s = "123456789";
  EXPECT_EQ(Crc32c(s, 9), 0xE3069283u);
  // Chained partial checksums equal the one-shot checksum.
  EXPECT_EQ(Crc32c(s + 4, 5, Crc32c(s, 4)), Crc32c(s, 9));
  EXPECT_NE(Crc32c(s, 9), Crc32c(s, 8));
}

TEST(MemoryStorage, RoundTripAndFreeListReuse) {
  MemoryStorageManager sm(1024);
  EXPECT_EQ(sm.payload_size(), 1024u - kPageOverhead);
  const PageId a = sm.allocate();
  const PageId b = sm.allocate();
  const PageId c = sm.allocate();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);

  const std::vector<char> pa = Pattern(sm.payload_size(), 1);
  sm.write(a, pa.data());
  std::vector<char> out(sm.payload_size());
  sm.read(a, out.data());
  EXPECT_EQ(out, pa);

  // LIFO free-list reuse: the most recently freed id comes back first, and
  // the file does not grow while the free list is non-empty.
  sm.free_page(a);
  sm.free_page(c);
  EXPECT_EQ(sm.free_count(), 2u);
  EXPECT_EQ(sm.allocate(), c);
  EXPECT_EQ(sm.allocate(), a);
  EXPECT_EQ(sm.free_count(), 0u);
  EXPECT_EQ(sm.allocate(), 3u);
  EXPECT_EQ(sm.page_count(), 4u);

  EXPECT_THROW(sm.read(99, out.data()), StorageError);
  sm.set_meta("hello");
  EXPECT_EQ(sm.meta(), "hello");
  EXPECT_THROW(sm.set_meta(std::string(kMetaCapacity + 1, 'x')),
               std::invalid_argument);
}

TEST(DiskStorage, CreateWriteReadReopen) {
  const std::string path = TempPath("disk_roundtrip.pagefile");
  const std::vector<char> p0 = Pattern(1024 - kPageOverhead, 1);
  const std::vector<char> p1 = Pattern(1024 - kPageOverhead, 2);
  {
    DiskStorageManager::Options opts;
    opts.page_size = 1024;
    auto sm = DiskStorageManager::Create(path, opts);
    EXPECT_EQ(sm->allocate(), 0u);
    EXPECT_EQ(sm->allocate(), 1u);
    sm->write(0, p0.data());
    sm->write(1, p1.data());
    sm->set_meta("tree-of-life");
    sm->flush();
  }
  {
    auto sm = DiskStorageManager::Open(path);
    EXPECT_EQ(sm->page_size(), 1024u);  // geometry comes from the header
    EXPECT_EQ(sm->page_count(), 2u);
    EXPECT_EQ(sm->meta(), "tree-of-life");
    std::vector<char> out(sm->payload_size());
    sm->read(0, out.data());
    EXPECT_EQ(out, p0);
    sm->read(1, out.data());
    EXPECT_EQ(out, p1);
  }
}

TEST(DiskStorage, FreeListSurvivesReopen) {
  const std::string path = TempPath("disk_freelist.pagefile");
  DiskStorageManager::Options opts;
  opts.page_size = 1024;
  const std::vector<char> pay = Pattern(1024 - kPageOverhead, 3);
  {
    auto sm = DiskStorageManager::Create(path, opts);
    for (PageId i = 0; i < 4; ++i) {
      ASSERT_EQ(sm->allocate(), i);
      sm->write(i, pay.data());
    }
    sm->free_page(1);
    sm->free_page(3);
    sm->flush();
  }
  {
    auto sm = DiskStorageManager::Open(path);
    EXPECT_EQ(sm->free_count(), 2u);
    EXPECT_EQ(sm->allocate(), 3u);  // LIFO: last freed, first reused
    EXPECT_EQ(sm->allocate(), 1u);
    EXPECT_EQ(sm->allocate(), 4u);  // then growth
  }
}

TEST(DiskStorage, CrcMismatchDetected) {
  const std::string path = TempPath("disk_crc.pagefile");
  DiskStorageManager::Options opts;
  opts.page_size = 1024;
  const std::vector<char> pay = Pattern(1024 - kPageOverhead, 4);
  {
    auto sm = DiskStorageManager::Create(path, opts);
    sm->allocate();
    sm->write(0, pay.data());
    sm->flush();
  }
  // Flip one payload byte of page 0 (physical offset page_size + overhead).
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(1024 + kPageOverhead + 100);
    const char evil = 'X';
    f.write(&evil, 1);
  }
  auto sm = DiskStorageManager::Open(path);
  std::vector<char> out(sm->payload_size());
  try {
    sm->read(0, out.data());
    FAIL() << "corrupt page read did not throw";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.code(), StorageErrorCode::kCrcMismatch);
    EXPECT_EQ(e.page(), 0u);
  }
}

TEST(DiskStorage, MisdirectedReadDetectedByTag) {
  const std::string path = TempPath("disk_tag.pagefile");
  DiskStorageManager::Options opts;
  opts.page_size = 1024;
  {
    auto sm = DiskStorageManager::Create(path, opts);
    sm->allocate();
    sm->allocate();
    sm->write(0, Pattern(sm->payload_size(), 5).data());
    sm->write(1, Pattern(sm->payload_size(), 6).data());
    sm->flush();
  }
  // Swap the two pages' raw frames: CRCs still verify (each frame is
  // internally consistent) but the tag exposes the misdirection.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    std::vector<char> f0(1024), f1(1024);
    f.seekg(1024);
    f.read(f0.data(), 1024);
    f.seekg(2048);
    f.read(f1.data(), 1024);
    f.seekp(1024);
    f.write(f1.data(), 1024);
    f.seekp(2048);
    f.write(f0.data(), 1024);
  }
  auto sm = DiskStorageManager::Open(path);
  std::vector<char> out(sm->payload_size());
  try {
    sm->read(0, out.data());
    FAIL() << "misdirected read did not throw";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.code(), StorageErrorCode::kBadPage);
  }
}

TEST(DiskStorage, RejectsGarbageAndTinyPages) {
  const std::string path = TempPath("disk_garbage.pagefile");
  {
    std::ofstream f(path, std::ios::binary);
    f << "this is not a page file, but it is longer than nothing";
  }
  try {
    auto sm = DiskStorageManager::Open(path);
    FAIL() << "garbage file opened";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.code(), StorageErrorCode::kBadHeader);
  }
  EXPECT_THROW({ MemoryStorageManager small(64); }, std::invalid_argument);
  DiskStorageManager::Options tiny;
  tiny.page_size = 128;
  EXPECT_THROW(DiskStorageManager::Create(TempPath("tiny.pagefile"), tiny),
               std::invalid_argument);
}

// Reopen-after-crash fuzz: truncate a healthy 4-page file at every byte
// offset across the interesting boundaries and check the typed outcome —
// never garbage data, never an unflagged short read.
TEST(DiskStorage, TornTailReopenFuzzedAtByteOffsets) {
  const std::string path = TempPath("disk_torn.pagefile");
  constexpr std::uint32_t kPage = 1024;
  DiskStorageManager::Options opts;
  opts.page_size = kPage;
  std::vector<std::vector<char>> pays;
  {
    auto sm = DiskStorageManager::Create(path, opts);
    for (PageId i = 0; i < 4; ++i) {
      sm->allocate();
      pays.push_back(Pattern(sm->payload_size(), 10 + i));
      sm->write(i, pays.back().data());
    }
    sm->flush();
  }
  const std::uint64_t full = fs::file_size(path);
  ASSERT_EQ(full, 5u * kPage);  // header + 4 pages

  // Sweep byte offsets around each page boundary plus a few interior cuts.
  std::vector<std::uint64_t> cuts;
  for (std::uint64_t base = 0; base <= full; base += kPage) {
    for (std::int64_t d : {-3, -1, 0, 1, 7}) {
      const std::int64_t c = static_cast<std::int64_t>(base) + d;
      if (c >= 0 && c < static_cast<std::int64_t>(full))
        cuts.push_back(static_cast<std::uint64_t>(c));
    }
  }
  cuts.push_back(kPage + 511);      // mid page 0
  cuts.push_back(3 * kPage + 900);  // mid page 2

  const std::string work = TempPath("disk_torn_cut.pagefile");
  for (const std::uint64_t cut : cuts) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    fs::copy_file(path, work, fs::copy_options::overwrite_existing);
    fs::resize_file(work, cut);
    if (cut < kPage) {
      // Header itself torn: the file must be rejected as a whole.
      try {
        auto sm = DiskStorageManager::Open(work);
        FAIL() << "torn header accepted";
      } catch (const StorageError& e) {
        EXPECT_EQ(e.code(), StorageErrorCode::kBadHeader);
      }
      continue;
    }
    DiskStorageManager::OpenReport rep;
    auto sm = DiskStorageManager::Open(work, opts, &rep);
    const std::size_t durable = static_cast<std::size_t>(cut / kPage) - 1;
    EXPECT_EQ(sm->page_count(), std::min<std::size_t>(durable, 4));
    EXPECT_EQ(rep.clipped_pages, 4 - sm->page_count());
    std::vector<char> out(sm->payload_size());
    for (PageId i = 0; i < 4; ++i) {
      if (i < sm->page_count()) {
        sm->read(i, out.data());
        EXPECT_EQ(out, pays[i]) << "surviving page corrupted";
      } else {
        EXPECT_THROW(sm->read(i, out.data()), StorageError);
      }
    }
  }
}

TEST(BufferPool, CountsHitsMissesEvictionsExactly) {
  MemoryStorageManager sm(1024);
  BufferPool::Options po;
  po.capacity = 2;
  BufferPool pool(&sm, po);

  const PageId a = pool.allocate();
  pool.unpin(a, true);
  const PageId b = pool.allocate();
  pool.unpin(b, true);
  const PageId c = pool.allocate();  // evicts LRU (a), writes it back
  pool.unpin(c, true);
  EXPECT_EQ(pool.evictions(), 1u);
  EXPECT_EQ(pool.writebacks(), 1u);

  pool.pin(c);  // resident: hit
  pool.unpin(c, false);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 0u);

  pool.pin(a);  // miss: reloads a, evicting b
  pool.unpin(a, false);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.evictions(), 2u);
  EXPECT_EQ(pool.writebacks(), 2u);  // b was dirty

  std::vector<char> out(sm.payload_size());
  sm.read(b, out.data());  // b's eviction persisted its zeroed frame
}

TEST(BufferPool, AllPinnedPoolFailsLoudly) {
  MemoryStorageManager sm(1024);
  BufferPool::Options po;
  po.capacity = 2;
  BufferPool pool(&sm, po);
  const PageId a = pool.allocate();
  const PageId b = pool.allocate();
  // Both frames pinned: the next distinct pin must throw, not deadlock and
  // not silently grow the pool.
  EXPECT_THROW(pool.allocate(), BufferPoolExhaustedError);
  EXPECT_EQ(pool.pinned(), 2u);
  // Re-pinning a resident page is fine (no new frame needed).
  pool.pin(a);
  pool.unpin(a, false);
  pool.unpin(a, true);
  pool.unpin(b, true);
  EXPECT_NO_THROW(pool.allocate());
  EXPECT_THROW(pool.unpin(a, false), std::logic_error);  // not pinned now
  pool.flush();
}

TEST(BufferPool, DirtyWritebackReachesStorageOnFlush) {
  MemoryStorageManager sm(1024);
  BufferPool::Options po;
  po.capacity = 4;
  BufferPool pool(&sm, po);
  const std::vector<char> pay = Pattern(sm.payload_size(), 9);
  PageId id;
  {
    PageRef ref = PageRef::Alloc(pool);
    id = ref.id();
    std::copy(pay.begin(), pay.end(), ref.data());
    ref.set_dirty();
  }
  pool.flush();
  std::vector<char> out(sm.payload_size());
  sm.read(id, out.data());
  EXPECT_EQ(out, pay);
}

TEST(BufferPool, ExportsDeterministicMetrics) {
  MetricsRegistry reg;
  MemoryStorageManager sm(1024);
  BufferPool::Options po;
  po.capacity = 2;
  BufferPool pool(&sm, po, &reg);
  const PageId a = pool.allocate();
  pool.unpin(a, true);
  const PageId b = pool.allocate();
  pool.unpin(b, true);
  pool.allocate();  // eviction
  const MetricsSnapshot snap = reg.scrape(/*include_runtime=*/false);
  bool saw_evictions = false;
  for (const auto& m : snap.samples) {
    if (m.info.name == "storage_pool_evictions_total") {
      saw_evictions = true;
      EXPECT_EQ(m.counter_value, 1u);
    }
  }
  EXPECT_TRUE(saw_evictions);
}

using DiskStorageFailPoints = StorageFailPointTest;

TEST_F(DiskStorageFailPoints, ShortWriteHealedByRetry) {
  const std::string path = TempPath("disk_shortwrite.pagefile");
  DiskStorageManager::Options opts;
  opts.page_size = 1024;
  auto sm = DiskStorageManager::Create(path, opts);
  sm->allocate();
  const std::vector<char> pay = Pattern(sm->payload_size(), 21);
  // One short write of 5 bytes; the page write loop must rewrite the whole
  // frame on retry and succeed.
  FailPoints::Instance().configure("storage.page.write=error:5*1");
  sm->write(0, pay.data());
  EXPECT_EQ(sm->stats().retries, 1u);
  EXPECT_FALSE(sm->degraded());
  sm->flush();
  std::vector<char> out(sm->payload_size());
  sm->read(0, out.data());
  EXPECT_EQ(out, pay);
}

TEST_F(DiskStorageFailPoints, FlushFailureDegradesThenHeals) {
  const std::string path = TempPath("disk_degraded.pagefile");
  ManualClock clock;
  DiskStorageManager::Options opts;
  opts.page_size = 1024;
  opts.flush_retries = 4;
  opts.clock = &clock;
  auto sm = DiskStorageManager::Create(path, opts);
  sm->allocate();
  const std::vector<char> pay = Pattern(sm->payload_size(), 22);
  sm->write(0, pay.data());

  FailPoints::Instance().configure("storage.flush=error*100");
  EXPECT_THROW(sm->flush(), StorageDegradedError);
  EXPECT_TRUE(sm->degraded());
  // Backoff advanced the manual clock deterministically: 1 + 2 + 4 ms for
  // the three retries before the budget of 4 attempts ran out.
  EXPECT_DOUBLE_EQ(clock.now_ms(), 7.0);
  EXPECT_EQ(sm->stats().degraded_entries, 1u);

  // Degraded mode: reads serve, mutations refuse.
  std::vector<char> out(sm->payload_size());
  sm->read(0, out.data());
  EXPECT_EQ(out, pay);
  EXPECT_THROW(sm->write(0, pay.data()), StorageDegradedError);
  EXPECT_THROW(sm->allocate(), StorageDegradedError);
  EXPECT_THROW(sm->flush(), StorageDegradedError);

  // Probe with the fault still armed: stays degraded.
  EXPECT_FALSE(sm->clear_degraded());
  EXPECT_TRUE(sm->degraded());

  // Disarm and re-probe: healthy again, and the interrupted durability
  // point completes.
  FailPoints::Instance().clear();
  EXPECT_TRUE(sm->clear_degraded());
  EXPECT_FALSE(sm->degraded());
  sm->write(0, pay.data());
  sm->flush();
}

TEST_F(DiskStorageFailPoints, CrashAtPageWriteLeavesReopenableFile) {
  const std::string path = TempPath("disk_crash.pagefile");
  DiskStorageManager::Options opts;
  opts.page_size = 1024;
  {
    auto sm = DiskStorageManager::Create(path, opts);
    sm->allocate();
    sm->write(0, Pattern(sm->payload_size(), 23).data());
    sm->flush();
    FailPoints::Instance().configure("storage.page.write=crash*1");
    sm->allocate();
    EXPECT_THROW(sm->write(1, Pattern(sm->payload_size(), 24).data()),
                 InjectedCrash);
    FailPoints::Instance().clear();
    // Simulated death: drop the manager without a clean flush.
  }
  // The file reopens; the flushed page is intact, the unflushed id is
  // beyond the durable tail.
  auto sm = DiskStorageManager::Open(path);
  std::vector<char> out(sm->payload_size());
  sm->read(0, out.data());
  EXPECT_EQ(out, Pattern(sm->payload_size(), 23));
}

TEST(PageStream, BlobRoundTripsAtEdgeSizes) {
  const std::size_t cap = 1024 - kPageOverhead - 8;  // chain header: 8 bytes
  const std::vector<std::size_t> sizes = {0,       1,       cap - 1, cap,
                                          cap + 1, 3 * cap, 100000};
  // One write + read-back on fresh storage; returns the pool's counters.
  const auto round_trip = [&](std::size_t n, std::size_t frames) {
    MemoryStorageManager sm(1024);
    BufferPool::Options po;
    po.capacity = frames;
    BufferPool pool(&sm, po);
    std::string text;
    text.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      text.push_back(static_cast<char>('a' + (i * 31 + n) % 26));

    PageBlobWriter writer(&pool);
    writer.stream() << text;
    const PageBlob blob = writer.finish();
    EXPECT_EQ(blob.bytes, n);
    EXPECT_EQ(blob.pages, (n + cap - 1) / cap);

    PageBlobReader reader(&pool);
    std::string got((std::istreambuf_iterator<char>(reader.stream())),
                    std::istreambuf_iterator<char>());
    EXPECT_EQ(got, text);
    return std::vector<std::uint64_t>{pool.hits(), pool.misses(),
                                      pool.evictions(), pool.writebacks()};
  };
  for (const std::size_t n : sizes) {
    // A 2-frame pool evicts on any blob over two pages; the bytes read back
    // must not change, only the pool traffic.
    for (const std::size_t frames : {4, 2}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " frames=" + std::to_string(frames));
      const auto counters = round_trip(n, frames);
      if (frames == 2 && n > 2 * cap) {
        EXPECT_GT(counters[2], 0u);
      }
      // Pool traffic is a pure function of the access sequence, so two
      // identical runs count identical hits, misses and evictions.
      EXPECT_EQ(round_trip(n, frames), counters);
    }
  }
}

TEST(PageStream, BlobSurvivesDiskReopen) {
  const std::string path = TempPath("blob_reopen.pagefile");
  DiskStorageManager::Options opts;
  opts.page_size = 1024;
  std::string text;
  for (int i = 0; i < 5000; ++i) text += "line " + std::to_string(i) + "\n";
  {
    auto sm = DiskStorageManager::Create(path, opts);
    BufferPool::Options po;
    po.capacity = 3;
    BufferPool pool(sm.get(), po);
    PageBlobWriter writer(&pool);
    writer.stream() << text;
    writer.finish();
  }
  {
    auto sm = DiskStorageManager::Open(path);
    BufferPool::Options po;
    po.capacity = 3;
    BufferPool pool(sm.get(), po);
    PageBlobReader reader(&pool);
    std::string got((std::istreambuf_iterator<char>(reader.stream())),
                    std::istreambuf_iterator<char>());
    EXPECT_EQ(got, text);
  }
}

TEST(PageStream, TornChainPageSurfacesTypedError) {
  const std::string path = TempPath("blob_torn.pagefile");
  DiskStorageManager::Options opts;
  opts.page_size = 1024;
  std::string text(10000, 'z');
  {
    auto sm = DiskStorageManager::Create(path, opts);
    BufferPool::Options po;
    po.capacity = 3;
    BufferPool pool(sm.get(), po);
    PageBlobWriter writer(&pool);
    writer.stream() << text;
    writer.finish();
  }
  // Chop the last chain page off the file.
  fs::resize_file(path, fs::file_size(path) - 1024);
  auto sm = DiskStorageManager::Open(path);
  BufferPool::Options po;
  po.capacity = 3;
  BufferPool pool(sm.get(), po);
  PageBlobReader reader(&pool);
  EXPECT_THROW(
      {
        std::string got((std::istreambuf_iterator<char>(reader.stream())),
                        std::istreambuf_iterator<char>());
      },
      StorageError);
}

}  // namespace
}  // namespace pubsub
