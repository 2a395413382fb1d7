#include "storage/page_stream.h"

#include <cstring>
#include <sstream>

#include "storage/page_codec.h"

namespace pubsub {

using storage::GetU32;
using storage::PutU32;

namespace {

// Chain page payload: [next u32][used u32][data ...]
constexpr std::size_t kChainHeaderBytes = 8;

}  // namespace

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

// ---------------------------------------------------------------------------
// PageBlobWriter

PageBlobWriter::PageBlobWriter(BufferPool* pool) : buf_(pool), out_(&buf_) {
  out_.exceptions(std::ios::badbit);  // rethrow storage faults, typed
}

PageBlobWriter::~PageBlobWriter() = default;

PageBlob PageBlobWriter::finish() {
  out_.flush();
  return buf_.finish();
}

PageBlobWriter::Buf::Buf(BufferPool* pool)
    : pool_(pool), cap_(pool->payload_size() - kChainHeaderBytes) {
  buffer_.reserve(cap_);
}

PageId PageBlobWriter::Buf::alloc_unpinned() {
  const PageId id = pool_->allocate();
  pool_->unpin(id, /*dirty=*/true);
  ++pages_;
  return id;
}

void PageBlobWriter::Buf::emit(PageId next) {
  PageRef ref(*pool_, pending_);
  char* p = ref.data();
  std::memset(p, 0, pool_->payload_size());
  PutU32(p, next);
  PutU32(p + 4, static_cast<std::uint32_t>(buffer_.size()));
  std::memcpy(p + kChainHeaderBytes, buffer_.data(), buffer_.size());
  ref.set_dirty();
  buffer_.clear();
}

void PageBlobWriter::Buf::append(const char* data, std::size_t n) {
  while (n > 0) {
    if (pending_ == kNoPage) {
      pending_ = alloc_unpinned();
      head_ = pending_;
    }
    if (buffer_.size() == cap_) {
      // Current page is full and more bytes exist: reserve the successor so
      // its id can be linked, then emit the full page.
      const PageId next = alloc_unpinned();
      emit(next);
      pending_ = next;
    }
    const std::size_t take = std::min(n, cap_ - buffer_.size());
    buffer_.insert(buffer_.end(), data, data + take);
    data += take;
    n -= take;
    bytes_ += take;
  }
}

PageBlobWriter::Buf::int_type PageBlobWriter::Buf::overflow(int_type ch) {
  if (traits_type::eq_int_type(ch, traits_type::eof())) return ch;
  const char c = traits_type::to_char_type(ch);
  append(&c, 1);
  return ch;
}

std::streamsize PageBlobWriter::Buf::xsputn(const char* s, std::streamsize n) {
  append(s, static_cast<std::size_t>(n));
  return n;
}

PageBlob PageBlobWriter::Buf::finish() {
  if (finished_) {
    throw std::logic_error("PageBlobWriter::finish() called twice");
  }
  finished_ = true;
  if (pending_ != kNoPage) {
    emit(kNoPage);
  }
  PageBlob blob{head_, bytes_, pages_};
  pool_->storage()->set_meta(FormatBlobMeta(blob));
  pool_->flush();
  return blob;
}

// ---------------------------------------------------------------------------
// PageBlobReader

namespace {

PageBlob BlobFromMeta(BufferPool* pool) {
  PageBlob blob;
  if (!ParseBlobMeta(pool->storage()->meta(), &blob)) {
    throw StorageError(StorageErrorCode::kBadHeader, kNoPage,
                       "page file metadata does not describe a blob: \"" +
                           pool->storage()->meta() + "\"");
  }
  return blob;
}

}  // namespace

PageBlobReader::PageBlobReader(BufferPool* pool)
    : PageBlobReader(pool, BlobFromMeta(pool)) {}

PageBlobReader::PageBlobReader(BufferPool* pool, const PageBlob& blob)
    : blob_(blob), buf_(pool, blob), in_(&buf_) {
  in_.exceptions(std::ios::badbit);  // rethrow storage faults, typed
}

PageBlobReader::Buf::Buf(BufferPool* pool, const PageBlob& blob)
    : pool_(pool), blob_(blob), next_(blob.head), remaining_(blob.bytes) {
  chunk_.resize(pool->payload_size() - kChainHeaderBytes);
}

PageBlobReader::Buf::int_type PageBlobReader::Buf::underflow() {
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
  std::uint32_t used = 0;
  {
    PageRef ref(*pool_, page);
    const char* p = ref.data();
    next_ = GetU32(p);
    used = GetU32(p + 4);
    if (used > chunk_.size()) {
      throw StorageError(StorageErrorCode::kBadPage, page,
                         "blob page claims more bytes than fit its payload");
    }
    std::memcpy(chunk_.data(), p + kChainHeaderBytes, used);
  }
  if (used > remaining_) {
    throw StorageError(StorageErrorCode::kBadPage, page,
                       "blob chain carries more bytes than its descriptor");
  }
  remaining_ -= used;
  setg(chunk_.data(), chunk_.data(), chunk_.data() + used);
  if (used == 0) {
    // A zero-used page mid-chain would loop forever; only legal as the
    // empty blob's (nonexistent) head.
    throw StorageError(StorageErrorCode::kBadPage, page, "empty blob page");
  }
  return traits_type::to_int_type(chunk_[0]);
}

}  // namespace pubsub
