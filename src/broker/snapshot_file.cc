#include "broker/snapshot_file.h"

#include <filesystem>

#include "broker/broker.h"
#include "io/serialize.h"

namespace pubsub {

PageBlob SaveSnapshotPageFile(const std::string& path, const Broker& broker,
                              std::uint32_t page_size,
                              MetricsRegistry* metrics) {
  const std::string tmp = path + ".tmp";
  PageBlob blob;
  {
    PageFileWriter writer(tmp, page_size, metrics);
    broker.write_snapshot(writer.stream());
    blob = writer.finish();  // tail page, header with the blob meta, flush
  }
  std::filesystem::rename(tmp, path);
  return blob;
}

BrokerSnapshot LoadSnapshotPageFile(const std::string& path,
                                    MetricsRegistry* metrics,
                                    std::size_t* clipped_pages) {
  PageFileReader reader(path, metrics);
  if (clipped_pages != nullptr) *clipped_pages = reader.clipped_pages();
  return ReadBrokerSnapshot(reader.stream());
}

}  // namespace pubsub
