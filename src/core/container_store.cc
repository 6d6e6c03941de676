#include "core/container_store.h"

#include <string>
#include <utility>

#include "nvm/pmem.h"

namespace ntadoc::core {

namespace {

constexpr uint64_t kStoreMagic = 0x4E54414443535452ull;  // "NTADCSTR"
constexpr uint64_t kLine = 64;

}  // namespace

ContainerStore::ContainerStore(nvm::NvmDevice* device, uint64_t base)
    : device_(device), base_(base) {}

Result<ContainerStore::Header> ContainerStore::Layout(
    const nvm::NvmDevice& device, uint64_t base, uint64_t size,
    uint64_t log_bytes) {
  constexpr uint64_t kMeta = 2 * kLine;  // header line + descriptor line
  if (base % kLine != 0 || size % kLine != 0) {
    return Status::InvalidArgument(
        "ContainerStore: region must be 64 B aligned");
  }
  if (log_bytes % kLine != 0 || log_bytes < 512) {
    return Status::InvalidArgument(
        "ContainerStore: log_bytes must be >= 512 and 64 B aligned");
  }
  if (size < kMeta + 2 * kLine || size - kMeta - 2 * kLine < log_bytes) {
    return Status::InvalidArgument(
        "ContainerStore: region too small for layout");
  }
  if (size > device.capacity() || base > device.capacity() - size) {
    return Status::OutOfRange(
        "ContainerStore: region exceeds device capacity");
  }
  Header h;
  h.magic = kStoreMagic;
  h.region_size = size;
  h.log_offset = base + kMeta;
  h.log_bytes = log_bytes;
  h.slot_capacity = ((size - kMeta - log_bytes) / 2) & ~(kLine - 1);
  h.slot_offset[0] = h.log_offset + log_bytes;
  h.slot_offset[1] = h.slot_offset[0] + h.slot_capacity;
  return h;
}

Result<ContainerStore> ContainerStore::Create(
    nvm::NvmDevice* device, uint64_t base, uint64_t size,
    const compress::CompressedCorpus& corpus,
    const ContainerStoreOptions& opts) {
  ContainerStore store(device, base);
  NTADOC_ASSIGN_OR_RETURN(store.header_,
                          Layout(*device, base, size, opts.log_bytes));
  const Header& h = store.header_;

  const std::string bytes = compress::SerializeCorpus(corpus);
  if (bytes.size() > h.slot_capacity) {
    return Status::ResourceExhausted(
        "ContainerStore::Create: container does not fit a slot");
  }

  // Initial container into slot 0, durable before any metadata names it.
  nvm::PmemMemcpyPersist(*device, h.slot_offset[0], bytes.data(),
                         bytes.size());

  SlotDesc& d = store.desc_;
  d.active_slot = 0;
  d.sequence = 1;
  d.length = bytes.size();
  device->Write(store.header_offset(), h);
  device->Write(store.desc_offset(), d);
  device->FlushRange(store.header_offset(), 2 * kLine);
  device->Drain();

  NTADOC_ASSIGN_OR_RETURN(
      nvm::RedoLog log, nvm::RedoLog::Create(device, h.log_offset, h.log_bytes));
  store.log_.emplace(std::move(log));
  return store;
}

Result<ContainerStore> ContainerStore::Open(nvm::NvmDevice* device,
                                            uint64_t base) {
  ContainerStore store(device, base);
  NTADOC_RETURN_IF_ERROR(device->TryReadBytes(base, &store.header_,
                                              sizeof(store.header_)));
  const Header& h = store.header_;
  if (h.magic != kStoreMagic) {
    return Status::DataLoss("ContainerStore::Open: bad magic");
  }
  // The header is written once and carries no checksum: it must be
  // exactly the layout its own size fields derive, inside the device.
  const auto layout = Layout(*device, base, h.region_size, h.log_bytes);
  if (!layout.ok() || !(*layout == h)) {
    return Status::DataLoss("ContainerStore::Open: corrupt geometry header");
  }

  // Recover the descriptor flip, if one was committed but its home line
  // never made it to media: Recover() replays the committed prefix,
  // flushes homes, and truncates.
  NTADOC_ASSIGN_OR_RETURN(nvm::RedoLog log,
                          nvm::RedoLog::Open(device, h.log_offset));
  NTADOC_RETURN_IF_ERROR(log.Recover().status());
  store.log_.emplace(std::move(log));

  NTADOC_RETURN_IF_ERROR(
      device->TryReadBytes(store.desc_offset(), &store.desc_,
                           sizeof(store.desc_)));
  const SlotDesc& d = store.desc_;
  if (d.active_slot > 1 || d.sequence == 0 || d.length > h.slot_capacity) {
    return Status::DataLoss("ContainerStore::Open: corrupt slot descriptor");
  }
  return store;
}

Result<compress::CompressedCorpus> ContainerStore::Load() {
  std::string bytes(desc_.length, '\0');
  NTADOC_RETURN_IF_ERROR(device_->TryReadBytes(
      header_.slot_offset[desc_.active_slot], bytes.data(), bytes.size()));
  return compress::DeserializeCorpus(bytes);
}

Result<PendingAppend> ContainerStore::StageAppend(
    const std::vector<compress::InputFile>& new_files,
    const compress::ParallelCompressOptions& popts,
    compress::ParallelCompressStats* stats) {
  NTADOC_ASSIGN_OR_RETURN(compress::CompressedCorpus base, Load());
  NTADOC_ASSIGN_OR_RETURN(
      compress::CompressedCorpus merged,
      compress::AppendFiles(base, new_files, popts, stats));

  const std::string bytes = compress::SerializeCorpus(merged);
  if (bytes.size() > header_.slot_capacity) {
    return Status::ResourceExhausted(
        "ContainerStore::StageAppend: merged container does not fit a slot");
  }

  // Shadow write: the new container lands in the inactive slot and is
  // drained durable while the descriptor still names the old slot. A
  // crash anywhere up to the commit record loses only the append.
  const uint32_t target = 1 - desc_.active_slot;
  nvm::PmemMemcpyPersist(*device_, header_.slot_offset[target], bytes.data(),
                         bytes.size());

  PendingAppend pending;
  pending.merged = std::move(merged);
  pending.length = bytes.size();
  pending.target_slot = target;
  pending.sequence = desc_.sequence + 1;
  return pending;
}

Status ContainerStore::CommitAppend(const PendingAppend& pending) {
  if (pending.sequence != desc_.sequence + 1 ||
      pending.target_slot != 1 - desc_.active_slot) {
    return Status::InvalidArgument(
        "ContainerStore::CommitAppend: pending append is stale (staged "
        "against a different descriptor)");
  }
  SlotDesc next = desc_;
  next.active_slot = pending.target_slot;
  next.sequence = pending.sequence;
  next.length = pending.length;
  // One strict redo transaction: a crash before its commit record keeps
  // the old descriptor, one after it replays the flip.
  NTADOC_RETURN_IF_ERROR(nvm::CommitAtomic(
      *device_, &*log_, /*data=*/{}, /*body=*/{},
      {desc_offset(), &next, sizeof(next)}));
  desc_ = next;
  ++append_epochs_;
  if (refresh_hook_) refresh_hook_(desc_.sequence);
  return Status::OK();
}

Status ContainerStore::AppendFiles(
    const std::vector<compress::InputFile>& new_files,
    const compress::ParallelCompressOptions& popts,
    compress::ParallelCompressStats* stats) {
  NTADOC_ASSIGN_OR_RETURN(PendingAppend pending,
                          StageAppend(new_files, popts, stats));
  NTADOC_RETURN_IF_ERROR(CommitAppend(pending));
  if (stats != nullptr) stats->append_epochs = append_epochs_;
  return Status::OK();
}

}  // namespace ntadoc::core
