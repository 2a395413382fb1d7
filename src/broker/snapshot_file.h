// Broker snapshots as page files: the artefact `pubsub_cli --storage=disk`
// writes at every checkpoint and `recover --storage=disk` reads back
// (docs/STORAGE.md, "Snapshot page files").
//
// The file holds one page blob carrying the v3 text snapshot.  Saving
// follows the text snapshot's atomic-replace protocol: the blob is built
// at `path` + ".tmp", flushed, and only then renamed over `path`, so a
// save that fails or crashes part-way leaves the previous file intact.
// Storage faults surface as their typed errors (StorageError,
// StorageDegradedError, InjectedCrash) rather than as parse errors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "broker/types.h"
#include "storage/page_file.h"

namespace pubsub {

class Broker;
class MetricsRegistry;

// Write `broker`'s snapshot to `path` as a page file of `page_size`-byte
// pages.  `metrics` (nullable) receives the storage_* write counters.
// Returns the blob written.
PageBlob SaveSnapshotPageFile(const std::string& path, const Broker& broker,
                              std::uint32_t page_size,
                              MetricsRegistry* metrics = nullptr);

// Read the snapshot in the page file at `path`, streaming one page per
// refill (the page size comes from the file).  The file is opened
// read-only and never modified.  Pages torn off the file tail are clipped
// at open and counted in `*clipped_pages` (nullable) before the blob is
// read; a blob that needs a clipped page then throws StorageError.
BrokerSnapshot LoadSnapshotPageFile(const std::string& path,
                                    MetricsRegistry* metrics = nullptr,
                                    std::size_t* clipped_pages = nullptr);

}  // namespace pubsub
