#include "broker/snapshot_file.h"

#include <filesystem>

#include "broker/broker.h"
#include "io/serialize.h"
#include "storage/buffer_pool.h"
#include "storage/storage_manager.h"

namespace pubsub {

PageBlob SaveSnapshotPageFile(const std::string& path, const Broker& broker,
                              std::uint32_t page_size,
                              std::size_t buffer_pages,
                              MetricsRegistry* metrics) {
  const std::string tmp = path + ".tmp";
  PageBlob blob;
  {
    DiskStorageManager::Options so;
    so.page_size = page_size;
    so.metrics = metrics;
    auto sm = DiskStorageManager::Create(tmp, so);
    BufferPool::Options po;
    po.capacity = buffer_pages;
    BufferPool pool(sm.get(), po, metrics);
    PageBlobWriter writer(&pool);
    broker.write_snapshot(writer.stream());
    blob = writer.finish();  // emits the tail page and blob meta, flushes
  }
  std::filesystem::rename(tmp, path);
  return blob;
}

BrokerSnapshot LoadSnapshotPageFile(const std::string& path,
                                    std::size_t buffer_pages,
                                    MetricsRegistry* metrics,
                                    std::size_t* clipped_pages) {
  DiskStorageManager::Options so;
  so.metrics = metrics;
  DiskStorageManager::OpenReport report;
  auto sm = DiskStorageManager::Open(path, so, &report);
  if (clipped_pages != nullptr) *clipped_pages = report.clipped_pages;
  BufferPool::Options po;
  po.capacity = buffer_pages;
  BufferPool pool(sm.get(), po, metrics);
  PageBlobReader reader(&pool);
  return ReadBrokerSnapshot(reader.stream());
}

}  // namespace pubsub
