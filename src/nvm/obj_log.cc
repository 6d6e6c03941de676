#include "nvm/obj_log.h"

#include <algorithm>
#include <cstring>

#include "util/hash.h"
#include "util/logging.h"

namespace ntadoc::nvm {

uint64_t RedoLog::HeaderChecksum(const Header& h) {
  return Fnv1a64(&h, offsetof(Header, checksum));
}

uint32_t RedoLog::EntryChecksum(uint64_t generation, uint64_t target,
                                uint32_t len, const void* payload) {
  // CRC32 rather than folded FNV: a torn cache-line flush corrupts a
  // contiguous burst of payload bytes, exactly the error class CRC is
  // guaranteed to detect. The chain covers target and len as well as the
  // payload — a payload-only checksum lets a torn header silently
  // redirect a valid payload, and makes an all-zero record
  // self-validating (CRC of an empty payload is 0, matching a zeroed
  // checksum field). The log generation is chained in first: sealed
  // epoch recovery scans past the header's committed extent, and the
  // generation is what keeps checksum-valid records from a truncated
  // earlier life of the log from ever revalidating.
  uint32_t c = Crc32(&generation, sizeof(generation));
  c = Crc32(&target, sizeof(target), c);
  c = Crc32(&len, sizeof(len), c);
  return Crc32(payload, len, c);
}

Result<RedoLog> RedoLog::Create(NvmDevice* device, uint64_t base,
                                uint64_t size) {
  NTADOC_CHECK(device != nullptr);
  if (size < 2 * kHeaderSlot) {
    return Status::InvalidArgument("redo log region too small");
  }
  if (base + size > device->capacity()) {
    return Status::InvalidArgument("redo log exceeds device capacity");
  }
  RedoLog log(device, base, size);
  log.WriteHeader(/*state=*/0, /*used=*/0);
  return log;
}

Result<RedoLog> RedoLog::Open(NvmDevice* device, uint64_t base) {
  NTADOC_CHECK(device != nullptr);
  if (base + sizeof(Header) > device->capacity()) {
    return Status::InvalidArgument("redo log base out of range");
  }
  const Header h = device->Read<Header>(base);
  if (h.magic != kMagic || h.version != kVersion) {
    return Status::DataLoss("redo log header mismatch");
  }
  if (h.checksum != HeaderChecksum(h)) {
    return Status::DataLoss("redo log header checksum mismatch");
  }
  RedoLog log(device, base, h.size);
  log.tail_ = h.state == 1 ? h.used : 0;
  log.generation_ = h.generation;
  return log;
}

void RedoLog::WriteHeader(uint32_t state, uint64_t used) {
  Header h{};
  h.magic = kMagic;
  h.version = kVersion;
  h.state = state;
  h.size = size_;
  h.used = used;
  h.generation = generation_;
  h.checksum = HeaderChecksum(h);
  device_->Write(base_, h);
  device_->FlushRange(base_, sizeof(Header));
  device_->Drain();
  device_->AssertPersisted(base_, sizeof(Header));
}

void RedoLog::Begin() {
  NTADOC_CHECK(!in_txn_) << "nested transaction";
  in_txn_ = true;
  staged_.clear();
  stage_buf_.clear();
}

void RedoLog::Stage(uint64_t target, const void* data, uint32_t len) {
  NTADOC_CHECK(in_txn_) << "Stage outside transaction";
  const uint64_t off = stage_buf_.size();
  stage_buf_.insert(stage_buf_.end(), static_cast<const uint8_t*>(data),
                    static_cast<const uint8_t*>(data) + len);
  staged_.push_back(StagedWrite{target, off, len});
}

Status RedoLog::AppendStaged(uint64_t* out_new_tail) {
  // Space check first: on a full log the staged writes are kept so the
  // caller can checkpoint, Truncate() and retry.
  uint64_t need = 0;
  for (const auto& w : staged_) {
    need += EncodedRecordBytes(w.len);
  }
  if (need > data_capacity()) {
    in_txn_ = false;
    staged_.clear();
    return Status::InvalidArgument("transaction exceeds redo log size");
  }
  if (tail_ + need > data_capacity()) {
    return Status::ResourceExhausted("redo log full: checkpoint required");
  }
  in_txn_ = false;

  // 1. Append entries at the tail.
  uint64_t off = data_start() + tail_;
  for (const auto& w : staged_) {
    EntryHeader eh{w.target, w.len,
                   EntryChecksum(generation_, w.target, w.len,
                                 stage_buf_.data() + w.buf_offset)};
    device_->Write(off, eh);
    device_->WriteBytes(off + sizeof(EntryHeader),
                        stage_buf_.data() + w.buf_offset, w.len);
    logged_payload_bytes_ += w.len;
    off += EncodedRecordBytes(w.len);
  }
  const uint64_t new_tail = off - data_start();
  device_->FlushRange(data_start() + tail_, new_tail - tail_);
  device_->Drain();
  // The commit record must never point at entries that are not durable.
  device_->AssertPersisted(data_start() + tail_, new_tail - tail_);

  // 2. Durability point: advance the commit record.
  WriteHeader(/*state=*/1, new_tail);
  *out_new_tail = new_tail;
  return Status::OK();
}

Status RedoLog::Commit() {
  NTADOC_CHECK(in_txn_) << "Commit outside transaction";
  if (staged_.empty()) {
    in_txn_ = false;
    return Status::OK();
  }
  uint64_t new_tail = 0;
  NTADOC_RETURN_IF_ERROR(AppendStaged(&new_tail));

  // 3. Apply to home locations without flushing (the log is durable; the
  //    home side is flushed in bulk at checkpoint time).
  ApplyEntries(tail_, new_tail);
  tail_ = new_tail;
  staged_.clear();
  ++committed_txns_;
  return Status::OK();
}

Status RedoLog::CommitApplied(std::span<const uint64_t> home_lines) {
  NTADOC_CHECK(in_txn_) << "CommitApplied outside transaction";
  if (staged_.empty()) {
    in_txn_ = false;
    return Status::OK();
  }

  // 1. Pack the whole epoch into ONE batch record: sub-records are laid
  // out back to back with 12-byte sub-headers (target, len) and no
  // alignment padding, and the record's single checksum covers them all.
  // Relative to one EntryHeader per staged write this saves 4 checksum
  // bytes plus up to 7 padding bytes per sub-record — log appends pay
  // per cold block and per flushed line, so encoded bytes are the cost.
  batch_buf_.clear();
  for (const auto& w : staged_) {
    const uint8_t* p = stage_buf_.data() + w.buf_offset;
    batch_buf_.insert(batch_buf_.end(),
                      reinterpret_cast<const uint8_t*>(&w.target),
                      reinterpret_cast<const uint8_t*>(&w.target) + 8);
    batch_buf_.insert(batch_buf_.end(),
                      reinterpret_cast<const uint8_t*>(&w.len),
                      reinterpret_cast<const uint8_t*>(&w.len) + 4);
    batch_buf_.insert(batch_buf_.end(), p, p + w.len);
  }
  const uint32_t packed = static_cast<uint32_t>(batch_buf_.size());
  const uint64_t need = EncodedRecordBytes(packed);
  if (need > data_capacity()) {
    in_txn_ = false;
    staged_.clear();
    return Status::InvalidArgument("transaction exceeds redo log size");
  }
  if (tail_ + need > data_capacity()) {
    return Status::ResourceExhausted("redo log full: checkpoint required");
  }
  in_txn_ = false;

  // 2. Append and flush. The batch record's kSealTarget sentinel marks
  // it as an epoch seal, so the flush below IS the durability point:
  // recovery accepts any checksum-valid sealed suffix of the current
  // generation without the header ever being rewritten. That saves the
  // per-epoch header write + flush + fence of the strict protocol.
  const uint64_t off = data_start() + tail_;
  EntryHeader eh{kSealTarget, packed,
                 EntryChecksum(generation_, kSealTarget, packed,
                               batch_buf_.data())};
  device_->Write(off, eh);
  device_->WriteBytes(off + sizeof(EntryHeader), batch_buf_.data(), packed);
  logged_payload_bytes_ += packed;
  const uint64_t new_tail = tail_ + need;
  device_->FlushRange(off, need);
  device_->Drain();
  device_->AssertPersisted(off, need);

  // 3. The caller already wrote every staged value through to its home
  // location (write-through epoch mode), so there is nothing to apply —
  // but the caller's unflushed home lines are dirty, and a later group
  // checkpoint truncates the log assuming FlushAppliedHome() covers
  // them. Record them exactly as ApplyEntries() would have.
  applied_home_lines_.insert(applied_home_lines_.end(), home_lines.begin(),
                             home_lines.end());
  tail_ = new_tail;
  staged_.clear();
  ++committed_txns_;
  return Status::OK();
}

void RedoLog::NoteHomeLinesFlushed(std::span<const uint64_t> lines) {
  if (applied_home_lines_.empty() || lines.empty()) return;
  std::erase_if(applied_home_lines_, [lines](uint64_t l) {
    return std::binary_search(lines.begin(), lines.end(), l);
  });
}

void RedoLog::FlushAppliedHome() {
  ++checkpoints_;
  if (applied_home_lines_.empty()) return;
  device_->FlushLineRuns(applied_home_lines_);
  applied_home_lines_.clear();
}

void RedoLog::Truncate() {
  // Bumping the generation before the header write retires every record
  // still sitting in the data region: their checksums chain the old
  // generation, so a post-truncate sealed-extent scan rejects them even
  // though their bytes are intact.
  ++generation_;
  WriteHeader(/*state=*/0, 0);
  tail_ = 0;
  applied_home_lines_.clear();
}

void RedoLog::Abort() {
  in_txn_ = false;
  staged_.clear();
}

uint64_t RedoLog::ApplyEntries(uint64_t from, uint64_t to) {
  uint64_t off = data_start() + from;
  const uint64_t end = data_start() + to;
  uint64_t applied = 0;
  while (off + sizeof(EntryHeader) <= end) {
    // An unreadable header ends the walk: a zero-filled (or otherwise
    // poisoned) length would desynchronize every later record boundary
    // and apply garbage-targeted writes. The failed read already bumped
    // the media error counter, so the engine's per-step check turns the
    // lost entries into DataLoss and repairs or salvages.
    EntryHeader eh;
    if (!device_->TryReadBytes(off, &eh, sizeof(eh)).ok()) break;
    const uint64_t payload = off + sizeof(EntryHeader);
    if (payload + eh.len > end) break;  // torn tail; stop
    // Zero-copy home apply. An unreadable payload block has nothing to
    // copy home — the header is intact, so the record boundary is still
    // trustworthy: skip just this write (the bumped media error counter
    // makes the engine's per-step check fail and salvage).
    auto src = device_->TryReadSpan(payload, eh.len);
    if (!src.ok()) {
      off = payload + ((static_cast<uint64_t>(eh.len) + 7) & ~7ull);
      continue;
    }
    device_->WriteBytes(eh.target, *src, eh.len);
    if (eh.len > 0) {
      for (uint64_t line = eh.target / 64;
           line <= (eh.target + eh.len - 1) / 64; ++line) {
        applied_home_lines_.push_back(line);
      }
    }
    ++applied;
    off = payload + ((static_cast<uint64_t>(eh.len) + 7) & ~7ull);
  }
  return applied;
}


uint64_t RedoLog::ScanSealedExtent(uint64_t from) {
  uint64_t off = data_start() + from;
  const uint64_t end = data_start() + data_capacity();
  uint64_t sealed = from;
  while (off + sizeof(EntryHeader) <= end) {
    EntryHeader eh;
    if (!device_->TryReadBytes(off, &eh, sizeof(eh)).ok()) break;
    const uint64_t payload = off + sizeof(EntryHeader);
    const uint64_t rec_end =
        payload + ((static_cast<uint64_t>(eh.len) + 7) & ~7ull);
    if (rec_end > end || rec_end < payload) break;
    const uint8_t* src = nullptr;
    if (eh.len > 0) {
      auto r = device_->TryReadSpan(payload, eh.len);
      if (!r.ok()) break;
      src = *r;
    }
    // A checksum miss ends the scan rather than skipping the record: a
    // torn record desynchronizes every later boundary, and any record
    // from a truncated generation marks dead space. Either way, a seal
    // beyond this point never covers a fully durable epoch.
    if (EntryChecksum(generation_, eh.target, eh.len, src) != eh.checksum) {
      break;
    }
    off = rec_end;
    if (eh.target == kSealTarget) {
      sealed = off - data_start();
    }
  }
  return sealed;
}

Result<uint64_t> RedoLog::VerifiedApply(uint64_t to) {
  uint64_t off = data_start();
  const uint64_t end = data_start() + to;
  uint64_t applied = 0;
  std::vector<uint64_t> home_lines;
  while (off < end) {
    if (off + sizeof(EntryHeader) > end) {
      return Status::DataLoss("redo log record header past committed extent");
    }
    // Zero-copy verified replay: header and payload are borrowed from the
    // log region; the home write below may overlap the borrow for a
    // corrupt record targeting the log itself (WriteBytes tolerates
    // overlap), and each record is fully consumed before its home write.
    NTADOC_ASSIGN_OR_RETURN(
        const EntryHeader* ehp,
        device_->TryReadTypedSpan<EntryHeader>(off, 1));
    const EntryHeader eh = *ehp;
    const uint64_t payload = off + sizeof(EntryHeader);
    if (payload + eh.len > end) {
      return Status::DataLoss("redo log record length exceeds extent");
    }
    if (eh.target == kSealTarget) {
      // Epoch batch record: its payload is packed sub-records (target,
      // len, bytes — no padding) covered by the one record checksum.
      // The sentinel target must not reach the bounds check below.
      // Unlike the single-record path, sub-records are still being
      // parsed while earlier ones are written home, so the payload is
      // copied out of the log region first — a home write overlapping
      // the log must not clobber sub-records not yet consumed.
      NTADOC_ASSIGN_OR_RETURN(const uint8_t* borrowed,
                              device_->TryReadSpan(payload, eh.len));
      if (EntryChecksum(generation_, kSealTarget, eh.len, borrowed) !=
          eh.checksum) {
        return Status::DataLoss("epoch batch checksum mismatch");
      }
      const std::vector<uint8_t> copy(borrowed, borrowed + eh.len);
      const uint8_t* batch = copy.data();
      uint64_t pos = 0;
      while (pos < eh.len) {
        if (pos + 12 > eh.len) {
          return Status::DataLoss("epoch batch sub-record truncated");
        }
        uint64_t target;
        uint32_t len;
        std::memcpy(&target, batch + pos, sizeof(target));
        std::memcpy(&len, batch + pos + 8, sizeof(len));
        pos += 12;
        if (pos + len > eh.len) {
          return Status::DataLoss("epoch batch sub-record truncated");
        }
        if (target + len > device_->capacity() || target + len < target) {
          return Status::DataLoss("epoch batch target out of range");
        }
        device_->WriteBytes(target, batch + pos, len);
        if (len > 0) {
          for (uint64_t line = target / 64;
               line <= (target + len - 1) / 64; ++line) {
            home_lines.push_back(line);
          }
        }
        ++applied;
        pos += len;
      }
      off = payload + ((static_cast<uint64_t>(eh.len) + 7) & ~7ull);
      continue;
    }
    if (eh.target + eh.len > device_->capacity() ||
        eh.target + eh.len < eh.target) {
      return Status::DataLoss("redo log record target out of range");
    }
    NTADOC_ASSIGN_OR_RETURN(const uint8_t* src,
                            device_->TryReadSpan(payload, eh.len));
    if (EntryChecksum(generation_, eh.target, eh.len, src) != eh.checksum) {
      return Status::DataLoss("redo log record checksum mismatch");
    }
    device_->WriteBytes(eh.target, src, eh.len);
    if (eh.len > 0) {
      for (uint64_t line = eh.target / 64;
           line <= (eh.target + eh.len - 1) / 64; ++line) {
        home_lines.push_back(line);
      }
    }
    ++applied;
    off = payload + ((static_cast<uint64_t>(eh.len) + 7) & ~7ull);
  }
  device_->FlushLineRuns(home_lines);
  return applied;
}

Result<uint64_t> RedoLog::Recover() {
  Header h;
  NTADOC_RETURN_IF_ERROR(device_->TryReadBytes(base_, &h, sizeof(h)));
  if (h.magic != kMagic || h.checksum != HeaderChecksum(h)) {
    return Status::DataLoss("redo log header corrupt during recovery");
  }
  generation_ = h.generation;
  if (h.used > data_capacity()) {
    return Status::DataLoss("redo log committed extent exceeds region");
  }
  // The header lower-bounds the committed extent: sealed epoch commits
  // advance durability without rewriting it, so scan the suffix for
  // checksum-valid records of the current generation ending in a SEAL.
  const uint64_t committed = h.state == 1 ? h.used : 0;
  const uint64_t extent = ScanSealedExtent(committed);
  if (extent == 0) {
    // Nothing committed: any partially written entries are dead.
    tail_ = 0;
    return uint64_t{0};
  }
  // Replay the committed prefix in order; later txns overwrite earlier
  // values, converging to the newest durable state. Every record is
  // bounds- and checksum-validated before its home copy.
  NTADOC_ASSIGN_OR_RETURN(const uint64_t replayed, VerifiedApply(extent));
  Truncate();
  return replayed;
}

}  // namespace ntadoc::nvm
