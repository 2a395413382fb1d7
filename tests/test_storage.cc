// Storage subsystem tests: page-file format and pinned bytes, CRC/tag
// detection, torn-tail fuzz, read-only reading, write/flush fault
// handling, and blob stream round trips (docs/STORAGE.md).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "storage/crc32.h"
#include "storage/page_file.h"
#include "util/failpoint.h"

namespace pubsub {
namespace {

namespace fs = std::filesystem;

// Blob bytes per chain page at the 1024-byte test page size: page overhead
// plus the 8-byte chain header ([next u32][used u32]).
constexpr std::uint32_t kPage = 1024;
constexpr std::size_t kCap = kPage - kPageOverhead - 8;

std::string TempPath(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

std::string Pattern(std::size_t n, unsigned seed) {
  std::string v(n, '\0');
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<char>((i * 131 + seed * 7 + 3) & 0xFF);
  return v;
}

PageBlob WriteBlob(const std::string& path, const std::string& text,
                   std::uint32_t page_size = kPage,
                   MetricsRegistry* metrics = nullptr) {
  PageFileWriter writer(path, page_size, metrics);
  writer.stream() << text;
  return writer.finish();
}

std::string ReadAll(PageFileReader& reader) {
  return std::string(std::istreambuf_iterator<char>(reader.stream()),
                     std::istreambuf_iterator<char>());
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::uint32_t U32At(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) | (std::uint32_t{b[1]} << 8) |
         (std::uint32_t{b[2]} << 16) | (std::uint32_t{b[3]} << 24);
}

// Chain page `id` of `reader` holds `data` and links to `next`.
void ExpectChainPage(PageFileReader& reader, PageId id, PageId next,
                     const std::string& data) {
  const char* payload = reader.read_page(id);
  EXPECT_EQ(U32At(payload), next);
  EXPECT_EQ(U32At(payload + 4), data.size());
  EXPECT_TRUE(std::string(payload + 8, data.size()) == data)
      << "page " << id << " corrupted";
}

std::uint64_t CounterValue(MetricsRegistry& reg, const std::string& name) {
  return reg.counter(name, "")->value();
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

TEST(DiskStorage, CreateWriteReadReopen) {
  const std::string path = TempPath("disk_roundtrip.pagefile");
  const std::string text = Pattern(2 * kCap, 1);
  const PageBlob written = WriteBlob(path, text);
  EXPECT_EQ(written.head, 0u);
  EXPECT_EQ(written.bytes, text.size());
  EXPECT_EQ(written.pages, 2u);

  PageFileReader reader(path);
  EXPECT_EQ(reader.page_size(), kPage);  // geometry comes from the header
  EXPECT_EQ(reader.page_count(), 2u);
  EXPECT_EQ(reader.clipped_pages(), 0u);
  EXPECT_EQ(reader.blob().head, 0u);
  EXPECT_EQ(reader.blob().bytes, text.size());
  EXPECT_EQ(reader.blob().pages, 2u);
  ExpectChainPage(reader, 0, 1, text.substr(0, kCap));
  ExpectChainPage(reader, 1, kNoPage, text.substr(kCap));
  EXPECT_EQ(ReadAll(reader), text);
}

// The page-file bytes are an interchange format: these CRC-32Cs of whole
// files were recorded from the buffer-pool writer this one replaced.
TEST(DiskStorage, PageFileBytesPinnedByCrc) {
  struct Case {
    std::size_t bytes;
    std::uint32_t page_size;
    std::uint64_t file_size;
    std::uint32_t crc;
  };
  for (const Case& c : {Case{3000, 1024, 4096, 0x3B0A1350u},
                        Case{0, 1024, 1024, 0x136F530Eu},
                        Case{3000, 4096, 8192, 0x8B9BF4CFu}}) {
    SCOPED_TRACE("bytes=" + std::to_string(c.bytes) +
                 " page_size=" + std::to_string(c.page_size));
    const std::string path = TempPath("disk_pinned.pagefile");
    WriteBlob(path, Pattern(c.bytes, 42), c.page_size);
    const std::string file = FileBytes(path);
    EXPECT_EQ(file.size(), c.file_size);
    EXPECT_EQ(Crc32c(file.data(), file.size()), c.crc);
  }
}

TEST(DiskStorage, CrcMismatchDetected) {
  const std::string path = TempPath("disk_crc.pagefile");
  WriteBlob(path, Pattern(kCap, 4));
  // Flip one payload byte of page 0 (physical offset page_size + overhead).
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(kPage + kPageOverhead + 100);
    const char evil = 'X';
    f.write(&evil, 1);
  }
  PageFileReader reader(path);
  try {
    reader.read_page(0);
    FAIL() << "corrupt page read did not throw";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.code(), StorageErrorCode::kCrcMismatch);
    EXPECT_EQ(e.page(), 0u);
  }
  PageFileReader streamed(path);
  try {
    ReadAll(streamed);
    FAIL() << "corrupt blob read did not throw";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.code(), StorageErrorCode::kCrcMismatch);
  }
}

TEST(DiskStorage, MisdirectedReadDetectedByTag) {
  const std::string path = TempPath("disk_tag.pagefile");
  WriteBlob(path, Pattern(2 * kCap, 5));
  // Swap the two pages' raw frames: CRCs still verify (each frame is
  // internally consistent) but the tag exposes the misdirection.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    std::vector<char> f0(kPage), f1(kPage);
    f.seekg(kPage);
    f.read(f0.data(), kPage);
    f.seekg(2 * kPage);
    f.read(f1.data(), kPage);
    f.seekp(kPage);
    f.write(f1.data(), kPage);
    f.seekp(2 * kPage);
    f.write(f0.data(), kPage);
  }
  PageFileReader reader(path);
  try {
    reader.read_page(0);
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
    PageFileReader reader(path);
    FAIL() << "garbage file opened";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.code(), StorageErrorCode::kBadHeader);
  }
  EXPECT_THROW(PageFileWriter(TempPath("tiny.pagefile"), 128),
               std::invalid_argument);
}

// Reopen-after-crash fuzz: truncate a healthy 4-page file at every byte
// offset across the interesting boundaries and check the typed outcome —
// never garbage data, never an unflagged short read.
TEST(DiskStorage, TornTailReopenFuzzedAtByteOffsets) {
  const std::string path = TempPath("disk_torn.pagefile");
  const std::string text = Pattern(4 * kCap, 10);
  WriteBlob(path, text);
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
        PageFileReader reader(work);
        FAIL() << "torn header accepted";
      } catch (const StorageError& e) {
        EXPECT_EQ(e.code(), StorageErrorCode::kBadHeader);
      }
      continue;
    }
    PageFileReader reader(work);
    const std::size_t durable = static_cast<std::size_t>(cut / kPage) - 1;
    EXPECT_EQ(reader.page_count(), std::min<std::size_t>(durable, 4));
    EXPECT_EQ(reader.clipped_pages(), 4 - reader.page_count());
    for (PageId i = 0; i < 4; ++i) {
      if (i < reader.page_count()) {
        ExpectChainPage(reader, i, i == 3 ? kNoPage : i + 1,
                        text.substr(i * kCap, kCap));
      } else {
        EXPECT_THROW(reader.read_page(i), StorageError);
      }
    }
    PageFileReader streamed(work);
    EXPECT_THROW(ReadAll(streamed), StorageError);
  }
}

// Reading a torn file reports the clip and leaves the file as it found it,
// so every later reader sees the same clip.
TEST(DiskStorage, ReadingTornFileNeverWritesIt) {
  const std::string path = TempPath("disk_readonly.pagefile");
  WriteBlob(path, Pattern(4 * kCap, 11));
  fs::resize_file(path, 3 * kPage + 500);  // header + 2 pages + a torn one
  const std::string before = FileBytes(path);
  for (int load = 0; load < 2; ++load) {
    SCOPED_TRACE("load " + std::to_string(load));
    {
      PageFileReader reader(path);
      EXPECT_EQ(reader.clipped_pages(), 2u);
      EXPECT_THROW(ReadAll(reader), StorageError);
    }
    EXPECT_TRUE(FileBytes(path) == before) << "reading rewrote the file";
  }
}

using DiskStorageFailPoints = StorageFailPointTest;

TEST_F(DiskStorageFailPoints, ShortWriteHealedByRetry) {
  const std::string path = TempPath("disk_shortwrite.pagefile");
  MetricsRegistry reg;
  const std::string text = Pattern(kCap, 21);
  PageFileWriter writer(path, kPage, &reg);
  writer.stream() << text;
  // One short write of 5 bytes; the page write loop must rewrite the whole
  // frame on retry and succeed.
  FailPoints::Instance().configure("storage.page.write=error:5*1");
  writer.finish();
  EXPECT_EQ(CounterValue(reg, "storage_retries_total"), 1u);
  EXPECT_FALSE(writer.degraded());
  PageFileReader reader(path);
  EXPECT_EQ(ReadAll(reader), text);
}

TEST_F(DiskStorageFailPoints, FlushFailureDegradesAndRefusesWrites) {
  const std::string path = TempPath("disk_degraded.pagefile");
  MetricsRegistry reg;
  const std::string text = Pattern(kCap, 22);
  {
    PageFileWriter writer(path, kPage, &reg);
    writer.stream() << text;

    FailPoints::Instance().configure("storage.flush=error*100");
    EXPECT_THROW(writer.finish(), StorageDegradedError);
    EXPECT_TRUE(writer.degraded());
    // The retry budget: kWriteAttempts failed flushes, one fewer retries.
    EXPECT_EQ(CounterValue(reg, "storage_flush_failures_total"),
              kWriteAttempts);
    EXPECT_EQ(CounterValue(reg, "storage_retries_total"), kWriteAttempts - 1);
    EXPECT_EQ(CounterValue(reg, "storage_degraded_entries_total"), 1u);

    // Degraded mode: every further write refuses.
    EXPECT_THROW(writer.stream() << std::string(3 * kCap, 'y'),
                 StorageDegradedError);
    EXPECT_THROW(writer.finish(), StorageDegradedError);
    FailPoints::Instance().clear();
  }
  // Reads serve: the pages and header written before the failed flush
  // reach the file when the writer closes it.
  PageFileReader reader(path);
  EXPECT_EQ(ReadAll(reader), text);
}

TEST_F(DiskStorageFailPoints, CrashAtPageWriteLeavesReopenableFile) {
  const std::string path = TempPath("disk_crash.pagefile");
  const std::string tmp = path + ".tmp";
  const std::string text = Pattern(3 * kCap, 23);
  WriteBlob(path, text);
  {
    PageFileWriter writer(tmp, kPage);
    FailPoints::Instance().configure("storage.page.write=crash*1^1");
    EXPECT_THROW(
        {
          writer.stream() << Pattern(3 * kCap, 24);
          writer.finish();
        },
        InjectedCrash);
    FailPoints::Instance().clear();
    // Simulated death: drop the writer without a header or a flush.
  }
  // The durable file reopens intact.
  PageFileReader reader(path);
  EXPECT_EQ(ReadAll(reader), text);
  // The interrupted file never reads as complete: its header comes last.
  try {
    PageFileReader torn(tmp);
    FAIL() << "interrupted page file opened";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.code(), StorageErrorCode::kBadHeader);
  }
}

TEST(PageStream, BlobRoundTripsAtEdgeSizes) {
  const std::vector<std::size_t> sizes = {0,        1,        kCap - 1, kCap,
                                          kCap + 1, 3 * kCap, 100000};
  // One write + read-back; returns the page traffic counters.
  const auto round_trip = [&](std::size_t n) {
    const std::string path = TempPath("blob_edge.pagefile");
    MetricsRegistry reg;
    std::string text;
    text.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      text.push_back(static_cast<char>('a' + (i * 31 + n) % 26));

    const PageBlob blob = WriteBlob(path, text, kPage, &reg);
    EXPECT_EQ(blob.bytes, n);
    EXPECT_EQ(blob.pages, (n + kCap - 1) / kCap);
    EXPECT_EQ(fs::file_size(path), (blob.pages + 1) * kPage);

    PageFileReader reader(path, &reg);
    EXPECT_EQ(ReadAll(reader), text);
    const std::uint64_t writes = CounterValue(reg, "storage_page_writes_total");
    const std::uint64_t reads = CounterValue(reg, "storage_page_reads_total");
    // Each chain page is written once and read once; the header is written
    // once and read outside the page path.
    EXPECT_EQ(writes, blob.pages + 1u);
    EXPECT_EQ(reads, blob.pages);
    return std::vector<std::uint64_t>{writes, reads};
  };
  for (const std::size_t n : sizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    // Page traffic is a pure function of the blob, so two identical runs
    // count identical reads and writes.
    EXPECT_EQ(round_trip(n), round_trip(n));
  }
}

TEST(PageStream, BlobSurvivesDiskReopen) {
  const std::string path = TempPath("blob_reopen.pagefile");
  std::string text;
  for (int i = 0; i < 5000; ++i) text += "line " + std::to_string(i) + "\n";
  WriteBlob(path, text);
  PageFileReader reader(path);
  EXPECT_EQ(ReadAll(reader), text);
}

TEST(PageStream, TornChainPageSurfacesTypedError) {
  const std::string path = TempPath("blob_torn.pagefile");
  WriteBlob(path, std::string(10000, 'z'));
  // Chop the last chain page off the file.
  fs::resize_file(path, fs::file_size(path) - kPage);
  PageFileReader reader(path);
  EXPECT_EQ(reader.clipped_pages(), 1u);
  EXPECT_THROW(ReadAll(reader), StorageError);
}

}  // namespace
}  // namespace pubsub
