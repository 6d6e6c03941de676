// Redo-log transactions: the operation-level persistence substrate.
//
// The paper's operation-level strategy uses PMDK libpmemobj-cpp, whose
// transactions make every mutation failure-atomic at the cost of write
// amplification (each store is written twice — log then home — plus
// flushes and fences). RedoLog reproduces that protocol on NvmDevice:
//
//   Begin() -> Stage(off, data) ... -> Commit()
//
// Commit appends staged entries at the log tail, flushes them, advances
// the durable commit record (the durability point), then applies the
// writes to their home locations WITHOUT flushing them — the log itself
// guarantees durability. When the log fills, the caller flushes the home
// regions and calls Truncate() (group checkpoint), amortizing home-side
// flushes the way PMDK transaction logs do. Recovery() replays the whole
// committed prefix in order (values are absolute, so replay converges to
// the latest state) and discards any torn tail.

#ifndef NTADOC_NVM_OBJ_LOG_H_
#define NTADOC_NVM_OBJ_LOG_H_

#include <cstdint>
#include <span>
#include <vector>

#include "nvm/nvm_device.h"
#include "util/status.h"

namespace ntadoc::nvm {

/// Failure-atomic redo log over a dedicated device region.
class RedoLog {
 public:
  /// Formats a log over [base, base+size) of `device`. `device` must
  /// outlive the log. Size must hold at least one maximal transaction.
  static Result<RedoLog> Create(NvmDevice* device, uint64_t base,
                                uint64_t size);

  /// Opens an existing log (after restart); does NOT run recovery.
  static Result<RedoLog> Open(NvmDevice* device, uint64_t base);

  RedoLog(RedoLog&&) = default;
  RedoLog& operator=(RedoLog&&) = default;
  RedoLog(const RedoLog&) = delete;
  RedoLog& operator=(const RedoLog&) = delete;

  /// Begins a transaction. Only one may be open at a time.
  void Begin();

  /// Stages a write of `len` bytes to device offset `target`. The home
  /// location is untouched until Commit().
  void Stage(uint64_t target, const void* data, uint32_t len);

  /// Convenience for trivially copyable values.
  template <typename T>
  void StageValue(uint64_t target, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    Stage(target, &value, sizeof(T));
  }

  /// Durably commits and applies all staged writes. Returns
  /// ResourceExhausted when the staged data does not fit the remaining
  /// log space — the staged writes are KEPT; the caller must flush its
  /// home state, call Truncate(), and retry Commit().
  Status Commit();

  /// Epoch-commit variant: durably commits all staged writes WITHOUT
  /// applying them to their home locations — the caller guarantees every
  /// staged value has already been written through to its home (volatile
  /// stores; the log being durable is what makes them recoverable).
  ///
  /// Unlike Commit(), the whole epoch is packed into ONE batch record
  /// (12-byte sub-headers, no per-sub-record checksum or padding) whose
  /// kSealTarget sentinel marks it as an epoch seal, and the durability
  /// point is the record flush itself — no header update. Recovery scans
  /// past the header's committed extent and accepts every checksum-valid
  /// sealed suffix; record checksums are chained over the log generation
  /// (bumped at each Truncate), so stale records from a truncated
  /// generation can never revalidate. This halves the fence count of an
  /// epoch commit relative to the header-commit protocol and minimizes
  /// the appended bytes the log pays for per cold block and per flushed
  /// line.
  ///
  /// `home_lines` are the 64 B home lines the caller dirtied and did NOT
  /// flush itself; on success they are recorded so FlushAppliedHome()
  /// covers them at the next group checkpoint (callers subtract lines
  /// they already made durable — re-flushing a clean line would trip the
  /// persist checker). Same failure contract as Commit().
  Status CommitApplied(std::span<const uint64_t> home_lines);

  /// Epoch mode: the caller made these 64 B home lines (sorted, as
  /// NvmDevice::FlushLineRuns leaves them) durable itself — in-place data
  /// flushed ahead of the epoch's commit record — so they are dropped
  /// from the pending checkpoint set: FlushAppliedHome() must never clwb
  /// a line with no store since its last flush.
  void NoteHomeLinesFlushed(std::span<const uint64_t> lines);

  /// Flushes every home line written by entries applied since the last
  /// Truncate(), fences, and asserts durability. Commit() applies
  /// entries to their homes WITHOUT flushing (the log guarantees
  /// durability), so a group checkpoint calls this before Truncate() —
  /// flushing exactly the dirtied lines, never clean ones.
  void FlushAppliedHome();

  /// Discards all committed entries. The caller must have flushed every
  /// home location the log covers (group checkpoint) beforehand —
  /// normally via FlushAppliedHome().
  void Truncate();

  /// Bytes of committed entries currently in the log.
  uint64_t used_bytes() const { return tail_; }

  /// Bytes the log region can hold (excluding the header slot).
  uint64_t capacity_bytes() const { return data_capacity(); }

  /// Encoded size of one record carrying a `len`-byte payload (header
  /// plus 8-byte-aligned payload). Callers budgeting log space before
  /// Commit() sum this over their staged writes.
  static constexpr uint64_t EncodedRecordBytes(uint32_t len) {
    return sizeof(EntryHeader) + ((static_cast<uint64_t>(len) + 7) & ~7ull);
  }

  /// Drops staged writes without touching the device.
  void Abort();

  /// Replays the committed prefix in order (with home flushes), then
  /// truncates. The prefix is the header's committed extent plus any
  /// checksum-valid sealed suffix appended by epoch commits after the
  /// last header write. Returns the number of replayed writes.
  Result<uint64_t> Recover();

  /// Sum of payload bytes durably logged since creation (write
  /// amplification accounting).
  uint64_t logged_payload_bytes() const { return logged_payload_bytes_; }

  /// Committed transactions since creation.
  uint64_t committed_txns() const { return committed_txns_; }

  /// Group checkpoints (FlushAppliedHome calls) since creation.
  uint64_t checkpoints() const { return checkpoints_; }

  bool in_transaction() const { return in_txn_; }

 private:
  struct Header {
    uint64_t magic;
    uint32_t version;
    uint32_t state;       // 0 = empty, 1 = committed (apply pending)
    uint64_t size;
    uint64_t used;        // bytes of valid entries when state == 1
    uint64_t generation;  // bumped at Truncate; chained into checksums
    uint64_t checksum;    // over the preceding fields
  };
  struct EntryHeader {
    uint64_t target;
    uint32_t len;
    uint32_t checksum;  // over generation, target, len AND payload
  };
  static constexpr uint64_t kMagic = 0x4E544144434C4F47ULL;  // "NTADCLOG"
  static constexpr uint32_t kVersion = 3;
  static constexpr uint64_t kHeaderSlot = 64;
  /// Target sentinel of an epoch batch record: its payload is packed
  /// sub-records, and its presence seals the log up to and including
  /// itself — everything before it in the current generation is
  /// committed even though the header was never rewritten.
  static constexpr uint64_t kSealTarget = ~0ull;

  struct StagedWrite {
    uint64_t target;
    uint64_t buf_offset;
    uint32_t len;
  };

  RedoLog(NvmDevice* device, uint64_t base, uint64_t size)
      : device_(device), base_(base), size_(size) {}

  uint64_t data_start() const { return base_ + kHeaderSlot; }
  uint64_t data_capacity() const { return size_ - kHeaderSlot; }

  void WriteHeader(uint32_t state, uint64_t used);
  static uint64_t HeaderChecksum(const Header& h);
  static uint32_t EntryChecksum(uint64_t generation, uint64_t target,
                                uint32_t len, const void* payload);

  /// Applies freshly committed log entries in [from, to) to their home
  /// locations without verification (we just wrote them) and without
  /// flushing — the log itself guarantees durability until checkpoint.
  uint64_t ApplyEntries(uint64_t from, uint64_t to);

  /// Strict-commit prefix: space check, tail append of one record per
  /// staged write, flush + fence, then the durable commit record
  /// (WriteHeader — the durability point). On success `*out_new_tail`
  /// holds the new committed extent; the caller applies and advances
  /// tail_.
  Status AppendStaged(uint64_t* out_new_tail);

  /// Scans forward from `from` for checksum-valid records of the current
  /// generation and returns the extent after the last epoch batch record
  /// found (or `from` when none is): the epoch-committed suffix the
  /// header never recorded. Media errors and invalid records simply end
  /// the scan.
  uint64_t ScanSealedExtent(uint64_t from);

  /// Recovery-path apply of [0, to): validates every record's extent,
  /// target, and payload checksum before copying; any violation or
  /// unreadable log block returns DataLoss without touching further
  /// home locations.
  Result<uint64_t> VerifiedApply(uint64_t to);

  NvmDevice* device_;
  uint64_t base_;
  uint64_t size_;
  bool in_txn_ = false;
  uint64_t tail_ = 0;  // committed bytes (>= the durable header's extent:
                       // sealed epochs advance it without a header write)
  uint64_t generation_ = 0;  // mirrors the durable header's generation
  std::vector<StagedWrite> staged_;
  std::vector<uint8_t> stage_buf_;  // reused across transactions
  std::vector<uint8_t> batch_buf_;  // epoch batch packing scratch
  // Home lines dirtied by applied-but-unflushed entries; drained by
  // FlushAppliedHome() at checkpoint time.
  std::vector<uint64_t> applied_home_lines_;
  uint64_t logged_payload_bytes_ = 0;
  uint64_t committed_txns_ = 0;
  uint64_t checkpoints_ = 0;
};

}  // namespace ntadoc::nvm

#endif  // NTADOC_NVM_OBJ_LOG_H_
