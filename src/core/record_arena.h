// Host-side record staging for epoch group commit (operation-level
// persistence with commit_interval > 1).
//
// An epoch's step writes go through to their home locations at once and
// are recorded here; at the epoch commit the records are coalesced into
// the intervals the redo log stages as one batch. Recording is a flat
// append of (offset, length, arena position) plus the bytes — no
// per-write search or allocation — and coalescing is one stable sort by
// offset (LSD radix: an epoch seeding from the root's file segments
// records tens of thousands of counter writes) followed by a replay of
// the writes in recording order, so the newest bytes win wherever writes
// overlap.

#ifndef NTADOC_CORE_RECORD_ARENA_H_
#define NTADOC_CORE_RECORD_ARENA_H_

#include <cstdint>
#include <span>
#include <vector>

namespace ntadoc::core {

/// One epoch's recorded writes over a flat byte arena.
class RecordArena {
 public:
  /// `len` recorded bytes destined for device offset `off`; they sit at
  /// `pos` in the arena (see bytes()).
  struct Record {
    uint64_t off;
    uint64_t pos;
    uint32_t len;
  };

  /// Records a write of `len` bytes at `off`. A zero-length write is
  /// ignored.
  void Add(uint64_t off, const void* data, uint32_t len);

  /// True when Σ RedoLog::EncodedRecordBytes over the coalesced intervals
  /// is below `limit`. Merging never grows the encoding, so the sum over
  /// the records as appended is an upper bound: only when that bound
  /// reaches `limit` are the records coalesced to decide exactly.
  bool EncodedBelow(uint64_t limit);

  /// Coalesces the records in place into pairwise disjoint, non-adjacent
  /// intervals sorted by offset: writes that overlap or touch merge, and
  /// the newest bytes win at every address.
  void Coalesce();

  /// The coalesced intervals; valid after Coalesce() until the next Add.
  std::span<const Record> records() const { return records_; }
  const uint8_t* bytes(const Record& r) const { return bytes_.data() + r.pos; }

  /// Σ RedoLog::EncodedRecordBytes over the records: exact after
  /// Coalesce(), an upper bound of the coalesced sum before it.
  uint64_t encoded_bytes() const { return encoded_; }

  /// Non-empty writes recorded since the last Clear().
  uint64_t writes() const { return writes_; }

  bool empty() const { return records_.empty(); }

  /// Drops every record; the buffers keep their capacity for the next
  /// epoch.
  void Clear();

 private:
  struct SortKey {
    uint64_t off;
    uint32_t record;  // index into records_
    uint32_t len;
  };

  /// Sorts by_off_ by offset, stably.
  void SortByOffset();

  std::vector<Record> records_;
  std::vector<uint8_t> bytes_;
  uint64_t encoded_ = 0;
  uint64_t writes_ = 0;
  // Coalesce() scratch, reused across epochs.
  std::vector<SortKey> by_off_;
  std::vector<SortKey> sort_tmp_;
  std::vector<uint32_t> interval_of_;  // record -> interval
  std::vector<Record> merged_;
  std::vector<uint8_t> merged_bytes_;
};

}  // namespace ntadoc::core

#endif  // NTADOC_CORE_RECORD_ARENA_H_
