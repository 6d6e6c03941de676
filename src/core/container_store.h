// Durable compressed-container storage with crash-atomic streaming
// appends (the persistence half of chunk-parallel ingest).
//
// A ContainerStore owns a device region laid out as
//
//   [ static header | slot descriptor | redo log | slot 0 | slot 1 ]
//
// and keeps the serialized container (compress::SerializeCorpus bytes)
// in one of two slots. AppendFiles merges new documents into the
// in-memory grammar (see compress/parallel_compress.h); the store makes
// that durable with a classic shadow-slot protocol:
//
//   1. The merged container is serialized into the INACTIVE slot,
//      flushed, and drained — new data is durable while the descriptor
//      still points at the old slot.
//   2. The slot descriptor (active slot, sequence number, length) flips
//      through nvm::CommitAtomic: one strict redo-log transaction whose
//      commit record is the durability point (a full log is checkpointed
//      and the commit retried). Each append is exactly one such commit
//      (`append_epochs`).
//
// A crash before the commit record leaves the old descriptor: recovery
// opens the old container, and the half-written inactive slot is
// unreferenced garbage. A crash after it replays the flip and opens the
// appended container. There is no window where a reader can observe a
// mix, which is what the drain-point sweep in tests/crash_sweep_test.cc
// verifies at every fence of the workload.

#ifndef NTADOC_CORE_CONTAINER_STORE_H_
#define NTADOC_CORE_CONTAINER_STORE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "compress/format.h"
#include "compress/parallel_compress.h"
#include "nvm/nvm_device.h"
#include "nvm/obj_log.h"
#include "util/status.h"

namespace ntadoc::core {

struct ContainerStoreOptions {
  /// Redo-log region bytes. The descriptor flip is tiny, so this mostly
  /// bounds how many appends fit between group checkpoints.
  uint64_t log_bytes = 4096;
};

/// A staged-but-uncommitted append: the merged container is durable in
/// the inactive slot, but the descriptor still names the old one. The
/// refresh path seals a new serving generation from `merged` between
/// StageAppend and CommitAppend, so the descriptor flip — the true
/// cutover — happens only once the replacement generation exists.
struct PendingAppend {
  compress::CompressedCorpus merged;
  uint64_t length = 0;    ///< serialized container bytes in the slot
  uint32_t target_slot = 0;
  uint64_t sequence = 0;  ///< sequence CommitAppend will install
};

/// Durable dual-slot container home. Not thread-safe; the serving
/// engine opens containers read-only, and at most one writer may stage
/// and commit appends at a time (the generational refresher serializes
/// refreshes itself).
class ContainerStore {
 public:
  /// Formats [base, base+size) of `device` and stores `corpus` as the
  /// initial container (slot 0, sequence 1). `device` must outlive the
  /// store.
  static Result<ContainerStore> Create(nvm::NvmDevice* device, uint64_t base,
                                       uint64_t size,
                                       const compress::CompressedCorpus& corpus,
                                       const ContainerStoreOptions& opts = {});

  /// Opens a formatted region after a restart: validates the header
  /// against the layout it describes (DataLoss otherwise), recovers the
  /// redo log (replaying any committed-but-unapplied descriptor flip),
  /// then validates the descriptor.
  static Result<ContainerStore> Open(nvm::NvmDevice* device, uint64_t base);

  ContainerStore(ContainerStore&&) = default;
  ContainerStore& operator=(ContainerStore&&) = default;

  /// Reads and parses the active slot. Deserialization re-validates the
  /// container checksum, so torn or corrupt slot data fails loudly.
  Result<compress::CompressedCorpus> Load();

  /// Durably appends `new_files` to the stored container (see file
  /// comment for the crash protocol). On success the active container
  /// decodes identically to a full recompress of old+new files. `stats`
  /// (optional) receives the merge counters with `append_epochs` set to
  /// this store's lifetime descriptor-commit count.
  Status AppendFiles(const std::vector<compress::InputFile>& new_files,
                const compress::ParallelCompressOptions& popts,
                compress::ParallelCompressStats* stats = nullptr);

  /// First half of AppendFiles: loads the active container, merges
  /// `new_files`, and shadow-writes the result durably into the inactive
  /// slot — without flipping the descriptor. The store is unchanged until
  /// CommitAppend; a crash here loses only the staged bytes. Transient
  /// media faults surface as DataLoss, which is retryable (the next
  /// StageAppend re-reads and re-stages from scratch).
  Result<PendingAppend> StageAppend(
      const std::vector<compress::InputFile>& new_files,
      const compress::ParallelCompressOptions& popts,
      compress::ParallelCompressStats* stats = nullptr);

  /// Second half of AppendFiles: flips the descriptor to the staged slot
  /// as one redo-log transaction. `pending` must come from this store's most
  /// recent StageAppend (enforced via the sequence guard); on failure the
  /// old descriptor stays live and the call may be retried.
  Status CommitAppend(const PendingAppend& pending);

  /// Slot currently holding the container (0 or 1).
  uint32_t active_slot() const { return desc_.active_slot; }

  /// Descriptor sequence number (1 after Create, +1 per append).
  uint64_t sequence() const { return desc_.sequence; }

  /// The container generation: a name for the descriptor sequence that
  /// the serving layer uses to key sealed-prefix reuse and to identify
  /// serving generations. Changes exactly when a commit lands.
  uint64_t generation() const { return desc_.sequence; }

  /// The device holding this store's region (for clock access on retry
  /// backoff paths). Never null.
  nvm::NvmDevice* device() const { return device_; }

  /// Registers a hook invoked after every successful descriptor commit
  /// with the new generation number. The CLI uses this to notify serving
  /// processes that a refresh cutover landed.
  void set_refresh_hook(std::function<void(uint64_t)> hook) {
    refresh_hook_ = std::move(hook);
  }

  /// Serialized bytes of the active container.
  uint64_t container_bytes() const { return desc_.length; }

  /// Descriptor commits performed by this store instance.
  uint64_t append_epochs() const { return append_epochs_; }

  /// Capacity of each slot under the current geometry.
  uint64_t slot_capacity() const { return header_.slot_capacity; }

 private:
  /// Static geometry, written once at Create time (one 64 B line).
  struct Header {
    uint64_t magic = 0;
    uint64_t region_size = 0;
    uint64_t log_offset = 0;
    uint64_t log_bytes = 0;
    uint64_t slot_offset[2] = {0, 0};
    uint64_t slot_capacity = 0;

    bool operator==(const Header&) const = default;
  };

  /// Mutable state, one 64 B line, flipped by one commit per append.
  struct SlotDesc {
    uint32_t active_slot = 0;
    uint32_t padding = 0;
    uint64_t sequence = 0;
    uint64_t length = 0;
  };

  ContainerStore(nvm::NvmDevice* device, uint64_t base);

  /// The header of a [base, base+size) region with a `log_bytes` redo
  /// log: Create writes it, and Open accepts only a header equal to the
  /// layout its own size fields derive. InvalidArgument or OutOfRange
  /// when the region is misaligned, too small, or outside `device`.
  static Result<Header> Layout(const nvm::NvmDevice& device, uint64_t base,
                               uint64_t size, uint64_t log_bytes);

  uint64_t header_offset() const { return base_; }
  uint64_t desc_offset() const { return base_ + 64; }

  nvm::NvmDevice* device_;
  uint64_t base_;
  Header header_;
  SlotDesc desc_;
  std::optional<nvm::RedoLog> log_;
  uint64_t append_epochs_ = 0;
  std::function<void(uint64_t)> refresh_hook_;
};

}  // namespace ntadoc::core

#endif  // NTADOC_CORE_CONTAINER_STORE_H_
