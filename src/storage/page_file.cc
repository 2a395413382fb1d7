#include "storage/page_file.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "obs/metrics.h"
#include "storage/crc32.h"
#include "util/failpoint.h"

namespace pubsub {
namespace {

// Page files are an interchange format (snapshots move between hosts), so
// integers are pinned to little-endian byte order rather than memcpy'd in
// host order.
void PutU32(char* p, std::uint32_t v) {
  unsigned char* b = reinterpret_cast<unsigned char*>(p);
  b[0] = static_cast<unsigned char>(v);
  b[1] = static_cast<unsigned char>(v >> 8);
  b[2] = static_cast<unsigned char>(v >> 16);
  b[3] = static_cast<unsigned char>(v >> 24);
}

std::uint32_t GetU32(const char* p) {
  const unsigned char* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

// Physical page layout:   [crc u32][tag u32][payload ...]
// CRC covers tag + payload.  The tag is the page's logical id (kNoPage for
// the header), catching misdirected reads.
constexpr std::size_t kCrcOff = 0;
constexpr std::size_t kTagOff = 4;
constexpr std::size_t kPayloadOff = 8;
// Chain page payload: [next u32][used u32][data ...]
constexpr std::size_t kChainDataOff = kPayloadOff + 8;

// Header payload:  magic, version, page_size, page_count, free_head,
// free_count, meta_len, meta[kMetaCapacity].  The free-list fields are a
// vestige of version 1's page allocator: always kNoPage and 0.
constexpr std::uint32_t kMagic = 0x47505350u;  // "PSPG" little-endian
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kMetaCapacity = 512;
constexpr std::size_t kHdrMagic = 0;
constexpr std::size_t kHdrVersion = 4;
constexpr std::size_t kHdrPageSize = 8;
constexpr std::size_t kHdrPageCount = 12;
constexpr std::size_t kHdrFreeHead = 16;
constexpr std::size_t kHdrFreeCount = 20;
constexpr std::size_t kHdrMetaLen = 24;
constexpr std::size_t kHdrMeta = 28;

const char* kWriteSite = "storage.page.write";
const char* kReadSite = "storage.page.read";
const char* kFlushSite = "storage.flush";

// Logical page `id` lives one page past the header.
std::uint64_t FrameOffset(PageId id, std::uint32_t page_size) {
  return (static_cast<std::uint64_t>(id) + 1) * page_size;
}

void SealFrame(char* frame, std::uint32_t page_size, std::uint32_t tag) {
  PutU32(frame + kTagOff, tag);
  PutU32(frame + kCrcOff, Crc32c(frame + kTagOff, page_size - kTagOff));
}

bool FrameCrcMatches(const char* frame, std::uint32_t page_size) {
  return GetU32(frame + kCrcOff) ==
         Crc32c(frame + kTagOff, page_size - kTagOff);
}

const char* StorageErrorCodeName(StorageErrorCode code) {
  switch (code) {
    case StorageErrorCode::kIo:
      return "io";
    case StorageErrorCode::kBadHeader:
      return "bad-header";
    case StorageErrorCode::kCrcMismatch:
      return "crc-mismatch";
    case StorageErrorCode::kBadPage:
      return "bad-page";
    case StorageErrorCode::kTornPage:
      return "torn-page";
  }
  return "unknown";
}

// Header-metadata encoding of a blob ("blob head=H bytes=B pages=P").
std::string FormatBlobMeta(const PageBlob& blob) {
  std::ostringstream out;
  out << "blob head=" << blob.head << " bytes=" << blob.bytes
      << " pages=" << blob.pages;
  return out.str();
}

bool ParseBlobMeta(const std::string& meta, PageBlob* out) {
  std::istringstream in(meta);
  std::string tag;
  in >> tag;
  if (tag != "blob") return false;
  PageBlob blob;
  auto field = [&](const char* name, auto& value) {
    std::string key;
    in >> key;
    const std::string want = std::string(name) + "=";
    if (key.rfind(want, 0) != 0) return false;
    std::istringstream v(key.substr(want.size()));
    v >> value;
    return !v.fail();
  };
  if (!field("head", blob.head) || !field("bytes", blob.bytes) ||
      !field("pages", blob.pages)) {
    return false;
  }
  *out = blob;
  return true;
}

StorageError BadHeader(const std::string& detail) {
  return StorageError(StorageErrorCode::kBadHeader, kNoPage, detail);
}

}  // namespace

StorageError::StorageError(StorageErrorCode code, PageId page,
                           const std::string& detail)
    : std::runtime_error(std::string("storage error [") +
                         StorageErrorCodeName(code) + "] page " +
                         (page == kNoPage ? std::string("-")
                                          : std::to_string(page)) +
                         ": " + detail),
      code_(code),
      page_(page) {}

// ---------------------------------------------------------------------------
// PageFileWriter

PageFileWriter::PageFileWriter(const std::string& path,
                               std::uint32_t page_size,
                               MetricsRegistry* metrics)
    : path_(path), page_size_(page_size), out_(this) {
  out_.exceptions(std::ios::badbit);  // rethrow storage faults, typed
  if (page_size < kMinPageSize) {
    throw std::invalid_argument("page_size must be >= " +
                                std::to_string(kMinPageSize));
  }
  if (metrics != nullptr) {
    MetricsRegistry& m = *metrics;
    m_writes_ = m.counter("storage_page_writes_total",
                          "Pages written to the page file");
    m_flush_failures_ = m.counter(
        "storage_flush_failures_total",
        "Failed page-file write/fsync attempts (before retry)");
    m_retries_ = m.counter("storage_retries_total",
                           "Page-file write/fsync retries after a failure");
    m_degraded_ = m.counter(
        "storage_degraded_entries_total",
        "Times the page file entered degraded read-only mode");
  }
  file_.open(path_, std::ios::binary | std::ios::out | std::ios::trunc);
  if (!file_.is_open()) {
    throw StorageError(StorageErrorCode::kIo, kNoPage,
                       "cannot open page file " + path_);
  }
  frame_.resize(page_size_);
  start_page();
}

void PageFileWriter::start_page() {
  setp(frame_.data() + kChainDataOff, frame_.data() + page_size_);
}

PageFileWriter::int_type PageFileWriter::overflow(int_type ch) {
  if (traits_type::eq_int_type(ch, traits_type::eof())) {
    return traits_type::not_eof(ch);
  }
  require_writable();
  // The page is full and another byte exists, so the page's successor is
  // the next id.
  emit_page(pages_ + 1);
  start_page();
  *pptr() = traits_type::to_char_type(ch);
  pbump(1);
  return ch;
}

void PageFileWriter::emit_page(PageId next) {
  char* frame = frame_.data();
  const auto used = static_cast<std::uint32_t>(pptr() - pbase());
  std::memset(pptr(), 0, static_cast<std::size_t>(epptr() - pptr()));
  PutU32(frame + kPayloadOff, next);
  PutU32(frame + kPayloadOff + 4, used);
  SealFrame(frame, page_size_, pages_);
  write_frame(FrameOffset(pages_, page_size_), frame);
  ++pages_;
  bytes_ += used;
}

void PageFileWriter::require_writable() const {
  if (degraded_) {
    throw StorageDegradedError("page file " + path_ +
                               " is degraded (write retry budget exhausted)");
  }
  if (finished_) {
    throw std::logic_error("PageFileWriter: write after finish()");
  }
}

PageBlob PageFileWriter::finish() {
  require_writable();
  finished_ = true;
  if (pptr() != pbase()) emit_page(kNoPage);
  setp(nullptr, nullptr);  // later stream writes reach overflow() and throw

  const PageBlob blob{pages_ > 0 ? 0 : kNoPage, bytes_, pages_};
  const std::string meta = FormatBlobMeta(blob);
  char* frame = frame_.data();
  std::memset(frame, 0, page_size_);
  char* payload = frame + kPayloadOff;
  PutU32(payload + kHdrMagic, kMagic);
  PutU32(payload + kHdrVersion, kVersion);
  PutU32(payload + kHdrPageSize, page_size_);
  PutU32(payload + kHdrPageCount, pages_);
  PutU32(payload + kHdrFreeHead, kNoPage);
  PutU32(payload + kHdrFreeCount, 0);
  PutU32(payload + kHdrMetaLen, static_cast<std::uint32_t>(meta.size()));
  std::memcpy(payload + kHdrMeta, meta.data(), meta.size());
  SealFrame(frame, page_size_, kNoPage);
  write_frame(0, frame);
  flush_file();
  return blob;
}

void PageFileWriter::write_frame(std::uint64_t offset, const char* frame) {
  const auto write_bytes = [&](std::size_t n) {
    file_.clear();
    file_.seekp(static_cast<std::streamoff>(offset));
    file_.write(frame, static_cast<std::streamsize>(n));
  };
  FailPoints& fp = FailPoints::Instance();
  std::size_t failures = 0;
  for (;;) {
    std::string why = "filesystem write error";
    const FailPointDecision d =
        fp.active() ? fp.eval(kWriteSite) : FailPointDecision{};
    switch (d.action) {
      case FailAction::kOff:
      case FailAction::kDelay:  // no clock to advance: nothing to simulate
        write_bytes(page_size_);
        if (file_.good()) {
          Inc(m_writes_);
          return;
        }
        break;
      case FailAction::kError: {  // short write: only ARG bytes land
        const std::size_t n = std::min<std::size_t>(d.arg, page_size_);
        write_bytes(n);
        file_.flush();
        why = "injected short write (" + std::to_string(n) + " bytes)";
        break;
      }
      case FailAction::kCrash:
        throw InjectedCrash(kWriteSite);
      case FailAction::kTorn:  // ARG bytes land, then the process "dies"
        write_bytes(std::min<std::size_t>(d.arg, page_size_));
        file_.flush();
        throw InjectedCrash(kWriteSite);
    }
    file_.clear();
    count_failure(why, &failures);
  }
}

void PageFileWriter::flush_file() {
  FailPoints& fp = FailPoints::Instance();
  std::size_t failures = 0;
  for (;;) {
    const FailPointDecision d =
        fp.active() ? fp.eval(kFlushSite) : FailPointDecision{};
    if (d.action == FailAction::kCrash || d.action == FailAction::kTorn) {
      throw InjectedCrash(kFlushSite);
    }
    if (d.action != FailAction::kError) {
      file_.flush();
      if (file_.good()) return;
      file_.clear();
    }
    count_failure("flush failure", &failures);
  }
}

void PageFileWriter::count_failure(const std::string& why,
                                   std::size_t* failures) {
  Inc(m_flush_failures_);
  if (++*failures >= kWriteAttempts) {
    degraded_ = true;
    setp(nullptr, nullptr);  // every later stream write reaches overflow()
    Inc(m_degraded_);
    throw StorageDegradedError("page file " + path_ + " degraded: " + why +
                               " after " + std::to_string(*failures) +
                               " attempts");
  }
  Inc(m_retries_);
}

// ---------------------------------------------------------------------------
// PageFileReader

PageFileReader::PageFileReader(const std::string& path,
                               MetricsRegistry* metrics)
    : in_(this) {
  in_.exceptions(std::ios::badbit);  // rethrow storage faults, typed
  if (metrics != nullptr) {
    m_reads_ = metrics->counter("storage_page_reads_total",
                                "Pages read from the page file");
  }
  file_.open(path, std::ios::binary | std::ios::in);
  if (!file_.is_open()) {
    throw StorageError(StorageErrorCode::kIo, kNoPage,
                       "cannot open page file " + path);
  }
  std::error_code ec;
  const std::uint64_t size = std::filesystem::file_size(path, ec);
  if (ec) {
    throw StorageError(StorageErrorCode::kIo, kNoPage,
                       "cannot stat page file " + path);
  }
  // Peek the fixed prologue first: the header's own geometry field decides
  // how many bytes the CRC covers, so the reader adopts the file's page
  // size before verifying anything.
  char prologue[kPayloadOff + kHdrPageSize + 4];
  if (size < sizeof(prologue)) {
    throw BadHeader("file shorter than a header prologue (torn header)");
  }
  file_.read(prologue, sizeof(prologue));
  if (file_.gcount() != static_cast<std::streamsize>(sizeof(prologue))) {
    throw BadHeader("short header read");
  }
  if (GetU32(prologue + kPayloadOff + kHdrMagic) != kMagic) {
    throw BadHeader("bad magic (not a page file?)");
  }
  page_size_ = GetU32(prologue + kPayloadOff + kHdrPageSize);
  if (page_size_ < kMinPageSize) {
    throw BadHeader("implausible page size in header");
  }
  if (size < page_size_) {
    throw BadHeader("file shorter than one page (torn header)");
  }
  frame_.resize(page_size_);
  file_.seekg(0);
  file_.read(frame_.data(), page_size_);
  if (file_.gcount() != static_cast<std::streamsize>(page_size_)) {
    throw BadHeader("short header read");
  }
  if (!FrameCrcMatches(frame_.data(), page_size_)) {
    throw BadHeader("header CRC mismatch");
  }
  const char* payload = frame_.data() + kPayloadOff;
  if (GetU32(payload + kHdrVersion) != kVersion) {
    throw BadHeader("unsupported page-file version");
  }
  page_count_ = GetU32(payload + kHdrPageCount);
  const std::uint32_t meta_len = GetU32(payload + kHdrMetaLen);
  if (meta_len > kMetaCapacity) {
    throw BadHeader("implausible meta length");
  }
  const std::string meta(payload + kHdrMeta, meta_len);

  // Clip to the durable tail: a truncated copy, or a crash that persisted
  // the header but not every page, leaves the header claiming pages the
  // file does not fully contain.  Those pages are gone; reading one throws
  // instead of returning garbage.
  const std::size_t durable = static_cast<std::size_t>(size / page_size_) - 1;
  if (page_count_ > durable) {
    clipped_pages_ = page_count_ - durable;
    page_count_ = durable;
  }
  if (!ParseBlobMeta(meta, &blob_)) {
    throw BadHeader("page file metadata does not describe a blob: \"" + meta +
                    "\"");
  }
  next_ = blob_.head;
  remaining_ = blob_.bytes;
}

const char* PageFileReader::read_page(PageId id) {
  if (id >= page_count_) {
    throw StorageError(StorageErrorCode::kBadPage, id, "page id out of range");
  }
  FailPoints& fp = FailPoints::Instance();
  if (fp.active()) {
    switch (fp.eval(kReadSite).action) {
      case FailAction::kOff:
      case FailAction::kDelay:
        break;
      case FailAction::kError:
      case FailAction::kTorn:
        throw StorageError(StorageErrorCode::kIo, id, "injected read error");
      case FailAction::kCrash:
        throw InjectedCrash(kReadSite);
    }
  }
  file_.clear();
  file_.seekg(static_cast<std::streamoff>(FrameOffset(id, page_size_)));
  file_.read(frame_.data(), page_size_);
  if (file_.gcount() != static_cast<std::streamsize>(page_size_)) {
    file_.clear();
    throw StorageError(StorageErrorCode::kTornPage, id,
                       "page lies beyond the durable tail of the file");
  }
  Inc(m_reads_);
  if (!FrameCrcMatches(frame_.data(), page_size_)) {
    throw StorageError(StorageErrorCode::kCrcMismatch, id,
                       "page CRC mismatch (torn or corrupt page)");
  }
  const std::uint32_t tag = GetU32(frame_.data() + kTagOff);
  if (tag != id) {
    throw StorageError(StorageErrorCode::kBadPage, id,
                       "page tag mismatch (misdirected read, found tag " +
                           std::to_string(tag) + ")");
  }
  return frame_.data() + kPayloadOff;
}

PageFileReader::int_type PageFileReader::underflow() {
  if (remaining_ == 0 || next_ == kNoPage) {
    if (remaining_ != 0) {
      throw StorageError(StorageErrorCode::kBadPage, kNoPage,
                         "blob chain ended " + std::to_string(remaining_) +
                             " bytes early");
    }
    return traits_type::eof();
  }
  if (++pages_seen_ > blob_.pages) {
    throw StorageError(StorageErrorCode::kBadPage, next_,
                       "blob chain longer than its descriptor (cycle?)");
  }
  const PageId page = next_;
  const char* payload = read_page(page);
  next_ = GetU32(payload);
  const std::uint32_t used = GetU32(payload + 4);
  if (used > page_size_ - kChainDataOff) {
    throw StorageError(StorageErrorCode::kBadPage, page,
                       "blob page claims more bytes than fit its payload");
  }
  if (used > remaining_) {
    throw StorageError(StorageErrorCode::kBadPage, page,
                       "blob chain carries more bytes than its descriptor");
  }
  if (used == 0) {
    // A zero-used page mid-chain would loop forever; only legal as the
    // empty blob's (nonexistent) head.
    throw StorageError(StorageErrorCode::kBadPage, page, "empty blob page");
  }
  remaining_ -= used;
  char* data = frame_.data() + kChainDataOff;
  setg(data, data, data + used);
  return traits_type::to_int_type(*data);
}

}  // namespace pubsub
