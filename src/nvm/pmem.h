// Phase-level persistence: the libpmem-analog layer.
//
// The paper's phase-level strategy maps NVM directly (libpmem) and flushes
// at the end of each N-TADOC phase, amortizing persistence cost. This file
// provides the thin flush/drain helpers plus PhaseMarker — a tiny
// checksummed record that durably names the last completed phase, so
// recovery after a crash restarts from that phase boundary — and
// CommitAtomic, the one commit for small durable updates.

#ifndef NTADOC_NVM_PMEM_H_
#define NTADOC_NVM_PMEM_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "nvm/nvm_device.h"
#include "util/hash.h"
#include "util/status.h"

namespace ntadoc::nvm {

class RedoLog;

/// pmem_persist analog for data already stored.
inline void PmemPersist(NvmDevice& device, uint64_t offset, uint64_t len) {
  device.FlushRange(offset, len);
  device.Drain();
  device.AssertPersisted(offset, len);
}

/// pmem_memcpy_persist analog: write + flush + drain in one call.
inline void PmemMemcpyPersist(NvmDevice& device, uint64_t offset,
                              const void* src, uint64_t len) {
  device.WriteBytes(offset, src, len);
  PmemPersist(device, offset, len);
}

/// One store of a durable update: `len` bytes from `src` at device offset
/// `off`.
struct DurableWrite {
  uint64_t off = 0;
  const void* src = nullptr;
  uint64_t len = 0;
};

/// The commit of every small durable update: the bad-block remap, the tier
/// placement entry and the container descriptor flip (DESIGN.md §6). The
/// `body` records and the `commit` record that makes them valid commit as
/// one crash-atomic update: recovery sees the old commit record, or the
/// new one with everything it covers. With `log` (no transaction open) it
/// is one strict redo transaction; with null, the ordered protocol: body
/// durable under one fence, then `commit`, which must lie in one 64 B
/// line, under a second. `data` (bulk bytes the update publishes) is
/// never logged: it is made durable in place before anything commits. On
/// error nothing committed and the log is left closed.
Status CommitAtomic(NvmDevice& device, RedoLog* log,
                    std::span<const DurableWrite> data,
                    std::span<const DurableWrite> body,
                    const DurableWrite& commit);

/// Durable "last completed phase" record at a fixed device offset.
///
/// Dual-slot (A/B) commit: the two CRC32-checksummed, sequence-numbered
/// records live in separate cache lines and commits alternate between
/// them, so a torn commit of phase N only ever destroys the slot being
/// written — recovery falls back to the intact slot still holding phase
/// N-1. (The previous single-slot design lost the N-1 record too and
/// forced recovery to restart from scratch.) LastCommittedPhase returns
/// the phase of the valid record with the highest sequence number, or 0
/// when neither slot is intact (unformatted or doubly-torn media).
class PhaseMarker {
 public:
  /// `device` must outlive the marker; `offset` names a kRegionSize-byte
  /// region (two 64-byte slots).
  PhaseMarker(NvmDevice* device, uint64_t offset)
      : device_(device), offset_(offset) {}

  /// Size of one marker slot (a cache line).
  static constexpr uint64_t kSlotSize = 64;

  /// Total device region the marker occupies (slots A and B).
  static constexpr uint64_t kRegionSize = 2 * kSlotSize;

  /// Durably invalidates both slots, then commits phase 0.
  void Format() {
    const Record zero{};
    device_->Write(offset_, zero);
    device_->Write(offset_ + kSlotSize, zero);
    PmemPersist(*device_, offset_, kRegionSize);
    CommitPhase(0);
  }

  /// Durably records that `phase` has fully completed, overwriting the
  /// slot NOT holding the latest valid record.
  void CommitPhase(uint64_t phase) {
    uint64_t seq = 0;
    int target = 0;
    if (const int latest = LatestValidSlot(&seq); latest >= 0) {
      target = 1 - latest;
    }
    Record r{};
    r.magic = kMagic;
    r.seq = seq + 1;
    r.phase = phase;
    r.crc = Checksum(r);
    PmemMemcpyPersist(*device_, offset_ + target * kSlotSize, &r, sizeof(r));
  }

  /// Last durably completed phase; falls back to the older slot when the
  /// newest is torn, and reads as phase 0 ("start from scratch") only
  /// when neither slot is intact.
  uint64_t LastCommittedPhase() const {
    uint64_t seq = 0;
    const int latest = LatestValidSlot(&seq);
    if (latest < 0) return 0;
    return ReadSlot(latest).phase;
  }

 private:
  struct Record {
    uint64_t magic;
    uint64_t seq;    // monotonically increasing commit ordinal (>= 1)
    uint64_t phase;
    uint32_t crc;    // CRC32 over the fields above
    uint32_t pad;
  };
  static constexpr uint64_t kMagic = 0x4E54414443504853ULL;  // "NTADCPHS"

  static uint32_t Checksum(const Record& r) {
    return Crc32(&r, offsetof(Record, crc));
  }

  Record ReadSlot(int slot) const {
    return device_->Read<Record>(offset_ + slot * kSlotSize);
  }

  static bool Valid(const Record& r) {
    return r.magic == kMagic && r.crc == Checksum(r);
  }

  /// Index (0/1) of the valid record with the highest seq, or -1 if
  /// neither slot holds a valid record. `*seq_out` gets that seq.
  int LatestValidSlot(uint64_t* seq_out) const {
    int latest = -1;
    *seq_out = 0;
    for (int slot = 0; slot < 2; ++slot) {
      const Record r = ReadSlot(slot);
      if (Valid(r) && (latest < 0 || r.seq > *seq_out)) {
        latest = slot;
        *seq_out = r.seq;
      }
    }
    return latest;
  }

  NvmDevice* device_;
  uint64_t offset_;
};

}  // namespace ntadoc::nvm

#endif  // NTADOC_NVM_PMEM_H_
