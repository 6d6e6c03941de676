#include "nvm/nvm_pool.h"

#include <algorithm>
#include <cstring>

#include "nvm/obj_log.h"
#include "nvm/pmem.h"
#include "util/hash.h"
#include "util/logging.h"

namespace ntadoc::nvm {

uint64_t NvmPool::HeaderChecksum(const Header& h) {
  return Fnv1a64(&h, offsetof(Header, checksum));
}

uint32_t NvmPool::RemapChecksum(const RemapEntry& e) {
  return Crc32(&e, offsetof(RemapEntry, checksum));
}

NvmPool::Header NvmPool::MakeHeader(uint32_t remap_count) const {
  Header h{};
  h.magic = kMagic;
  h.version = kVersion;
  h.spare_blocks = spare_blocks_;
  h.size = size_;
  h.top = top_;
  h.spare_off = spare_off_;
  h.remap_off = remap_off_;
  h.remap_count = remap_count;
  h.remap_capacity = remap_capacity_;
  h.checksum = HeaderChecksum(h);
  return h;
}

Result<NvmPool> NvmPool::Create(NvmDevice* device, uint64_t base,
                                uint64_t size, const PoolOptions& opts) {
  NTADOC_CHECK(device != nullptr);
  if (size < 2 * kHeaderSlot) {
    return Status::InvalidArgument("pool size too small");
  }
  if (base + size > device->capacity()) {
    return Status::InvalidArgument("pool exceeds device capacity");
  }
  NvmPool pool(device, base, size, base + kHeaderSlot);
  if (opts.spare_blocks > 0) {
    const uint32_t entries =
        opts.remap_capacity > 0 ? opts.remap_capacity : opts.spare_blocks;
    const uint64_t spare_bytes = uint64_t{opts.spare_blocks} * kMediaBlock;
    const uint64_t table_bytes = uint64_t{entries} * sizeof(RemapEntry);
    // The spare region is media-block aligned so each spare slot is a
    // whole ECC block; the table sits just below it, line-aligned.
    const uint64_t spare_off = ((base + size - spare_bytes) / kMediaBlock) *
                               kMediaBlock;
    if (spare_off < base + size - spare_bytes ||
        spare_off < base + 2 * kHeaderSlot + table_bytes) {
      return Status::InvalidArgument("pool too small for spare region");
    }
    const uint64_t remap_off = ((spare_off - table_bytes) / kHeaderSlot) *
                               kHeaderSlot;
    if (remap_off < base + 2 * kHeaderSlot) {
      return Status::InvalidArgument("pool too small for remap table");
    }
    pool.spare_off_ = spare_off;
    pool.remap_off_ = remap_off;
    pool.spare_blocks_ = opts.spare_blocks;
    pool.remap_capacity_ = entries;
  }
  pool.PersistHeader();
  return pool;
}

Result<NvmPool> NvmPool::Open(NvmDevice* device, uint64_t base) {
  NTADOC_CHECK(device != nullptr);
  if (base + sizeof(Header) > device->capacity()) {
    return Status::InvalidArgument("pool base out of range");
  }
  Header h;
  NTADOC_RETURN_IF_ERROR(device->TryReadBytes(base, &h, sizeof(h)));
  if (h.magic != kMagic) {
    return Status::DataLoss("pool header magic mismatch");
  }
  if (h.version != kVersion) {
    return Status::DataLoss("pool header version mismatch");
  }
  if (h.checksum != HeaderChecksum(h)) {
    return Status::DataLoss("pool header checksum mismatch");
  }
  if (base + h.size > device->capacity() || h.top < base + kHeaderSlot ||
      h.top > base + h.size) {
    return Status::DataLoss("pool header bounds corrupt");
  }
  NvmPool pool(device, base, h.size, h.top);
  if (h.spare_blocks > 0) {
    const uint64_t spare_bytes = uint64_t{h.spare_blocks} * kMediaBlock;
    const uint64_t table_bytes = uint64_t{h.remap_capacity} *
                                 sizeof(RemapEntry);
    if (h.spare_off % kMediaBlock != 0 ||
        h.spare_off + spare_bytes > base + h.size ||
        h.remap_off % kHeaderSlot != 0 ||
        h.remap_off + table_bytes > h.spare_off ||
        h.remap_off < base + 2 * kHeaderSlot ||
        h.remap_count > h.remap_capacity ||
        h.remap_count > h.spare_blocks || h.top > h.remap_off) {
      return Status::DataLoss("pool repair-region bounds corrupt");
    }
    pool.spare_off_ = h.spare_off;
    pool.remap_off_ = h.remap_off;
    pool.spare_blocks_ = h.spare_blocks;
    pool.remap_capacity_ = h.remap_capacity;
    pool.remap_count_ = h.remap_count;
    // Every committed remap record must validate; a corrupt table means
    // we no longer know which media was redirected.
    for (uint32_t i = 0; i < h.remap_count; ++i) {
      auto entry = pool.ReadRemapEntry(i);
      NTADOC_RETURN_IF_ERROR(entry.status());
    }
  } else if (h.spare_off != 0 || h.remap_off != 0 || h.remap_count != 0 ||
             h.remap_capacity != 0) {
    return Status::DataLoss("pool repair-region fields inconsistent");
  }
  return pool;
}

Result<PoolOffset> NvmPool::Alloc(uint64_t size, uint64_t align) {
  NTADOC_DCHECK((align & (align - 1)) == 0) << "alignment not a power of 2";
  uint64_t start = (top_ + align - 1) & ~(align - 1);
  if (start + size > alloc_limit()) {
    return Status::ResourceExhausted(
        "NVM pool exhausted: need " + std::to_string(size) + " bytes, " +
        std::to_string(Remaining()) + " remaining");
  }
  top_ = start + size;
  return start;
}

void NvmPool::PersistHeader() {
  const Header h = MakeHeader(remap_count_);
  PmemMemcpyPersist(*device_, base_, &h, sizeof(h));
}

void NvmPool::PersistAll() {
  PmemPersist(*device_, data_start(), UsedBytes());
  PersistHeader();
}

void NvmPool::Reset() {
  top_ = data_start();
  PersistHeader();
}

Status NvmPool::ResetTopTo(PoolOffset new_top) {
  if (new_top < data_start() || new_top > alloc_limit()) {
    return Status::InvalidArgument("pool reset target outside data region");
  }
  top_ = new_top;
  PersistHeader();
  return Status::OK();
}

Result<uint32_t> NvmPool::RemapBlock(uint64_t block_off, const void* content,
                                     uint64_t len, RedoLog* log) {
  if (spare_blocks_ == 0) {
    return Status::FailedPrecondition("pool has no spare region");
  }
  if (block_off % kMediaBlock != 0 || len == 0 || len > kMediaBlock ||
      block_off + len > alloc_limit() || block_off + kMediaBlock <= base_) {
    return Status::InvalidArgument("remap target outside pool data region");
  }
  if (remap_count_ >= remap_capacity_ || remap_count_ >= spare_blocks_) {
    return Status::ResourceExhausted("remap table full");
  }
  const uint32_t slot = remap_count_;
  const uint64_t spare_dst = spare_off_ + uint64_t{slot} * kMediaBlock;
  RemapEntry entry{};
  entry.orig_off = block_off;
  entry.spare_slot = slot;
  entry.checksum = RemapChecksum(entry);
  const Header next = MakeHeader(remap_count_ + 1);
  // Recovered contents go to the spare block AND the home block: the
  // emulated controller redirects the bad media on the store, so every
  // existing absolute offset into the pool stays valid. Both are durable
  // before the entry and the header's count bump commit; recovery that
  // sees the old count ignores the entry, and the repair is redone.
  const DurableWrite contents[] = {{spare_dst, content, len},
                                   {block_off, content, len}};
  const DurableWrite record[] = {
      {remap_off_ + uint64_t{slot} * sizeof(RemapEntry), &entry,
       sizeof(entry)}};
  NTADOC_RETURN_IF_ERROR(CommitAtomic(*device_, log, contents, record,
                                      {base_, &next, sizeof(next)}));
  ++remap_count_;
  return slot;
}

Result<NvmPool::RemapEntry> NvmPool::ReadRemapEntry(uint32_t index) {
  if (index >= remap_count_) {
    return Status::InvalidArgument("remap index out of range");
  }
  RemapEntry e;
  const uint64_t off = remap_off_ + uint64_t{index} * sizeof(RemapEntry);
  NTADOC_RETURN_IF_ERROR(device_->TryReadBytes(off, &e, sizeof(e)));
  if (e.checksum != RemapChecksum(e)) {
    return Status::DataLoss("remap entry checksum mismatch");
  }
  if (e.orig_off % kMediaBlock != 0 || e.orig_off >= alloc_limit() ||
      e.spare_slot >= spare_blocks_) {
    return Status::DataLoss("remap entry bounds corrupt");
  }
  return e;
}

void NvmPool::ClearOwners() { owners_.clear(); }

void NvmPool::RegisterOwner(uint64_t begin, uint64_t len, std::string name) {
  if (len == 0) return;
  owners_.push_back(OwnerExtent{begin, begin + len, std::move(name)});
}

std::string NvmPool::OwnerOf(uint64_t off, uint64_t len) const {
  for (const OwnerExtent& e : owners_) {
    if (off < e.end && off + len > e.begin) return e.name;
  }
  return "";
}

Result<NvmPool::ScrubReport> NvmPool::Scrub() {
  // The header must itself be readable and consistent with our in-memory
  // view before the data walk means anything.
  Header h;
  NTADOC_RETURN_IF_ERROR(device_->TryReadBytes(base_, &h, sizeof(h)));
  if (h.magic != kMagic || h.version != kVersion ||
      h.checksum != HeaderChecksum(h)) {
    return Status::DataLoss("pool header corrupt during scrub");
  }
  if (h.top < base_ + kHeaderSlot || h.top > base_ + h.size ||
      base_ + h.size > device_->capacity()) {
    return Status::DataLoss("pool header bounds corrupt during scrub");
  }
  ScrubReport report;
  std::vector<uint8_t> buf(kMediaBlock);
  // Walk block-aligned chunks so bad_blocks counts distinct media
  // blocks (data_start is only 64-aligned).
  for (uint64_t off = data_start(); off < h.top;
       off = (off / kMediaBlock + 1) * kMediaBlock) {
    const uint64_t len =
        std::min((off / kMediaBlock + 1) * kMediaBlock, h.top) - off;
    report.scanned_bytes += len;
    if (!device_->TryReadBytes(off, buf.data(), len).ok()) {
      ++report.bad_blocks;
      Damage d;
      d.block_off = (off / kMediaBlock) * kMediaBlock;
      d.owner = OwnerOf(off, len);
      report.damage.push_back(std::move(d));
    }
  }
  return report;
}

}  // namespace ntadoc::nvm
