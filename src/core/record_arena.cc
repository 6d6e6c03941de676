#include "core/record_arena.h"

#include <algorithm>
#include <array>
#include <limits>
#include <utility>

#include "nvm/obj_log.h"
#include "util/logging.h"

namespace ntadoc::core {

using nvm::RedoLog;

void RecordArena::Add(uint64_t off, const void* data, uint32_t len) {
  if (len == 0) return;
  ++writes_;
  const auto* p = static_cast<const uint8_t*>(data);
  records_.push_back(Record{off, bytes_.size(), len});
  bytes_.insert(bytes_.end(), p, p + len);
  encoded_ += RedoLog::EncodedRecordBytes(len);
}

bool RecordArena::EncodedBelow(uint64_t limit) {
  if (encoded_ < limit) return true;
  Coalesce();
  return encoded_ < limit;
}

void RecordArena::SortByOffset() {
  // LSD radix over the bytes of (off - lowest off): each pass is stable,
  // so equal offsets keep recording order.
  uint64_t lo = std::numeric_limits<uint64_t>::max();
  uint64_t hi = 0;
  for (const SortKey& k : by_off_) {
    lo = std::min(lo, k.off);
    hi = std::max(hi, k.off);
  }
  sort_tmp_.resize(by_off_.size());
  for (int shift = 0; shift < 64 && ((hi - lo) >> shift) != 0; shift += 8) {
    std::array<uint32_t, 256> next{};
    for (const SortKey& k : by_off_) ++next[((k.off - lo) >> shift) & 0xFF];
    uint32_t sum = 0;
    for (uint32_t& c : next) sum += std::exchange(c, sum);
    for (const SortKey& k : by_off_) {
      sort_tmp_[next[((k.off - lo) >> shift) & 0xFF]++] = k;
    }
    by_off_.swap(sort_tmp_);
  }
}

void RecordArena::Coalesce() {
  const size_t n = records_.size();
  if (n == 0) return;
  NTADOC_CHECK_LE(n, std::numeric_limits<uint32_t>::max());

  by_off_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    by_off_[i] = {records_[i].off, static_cast<uint32_t>(i), records_[i].len};
  }
  SortByOffset();

  // One sweep forms the intervals: a record starting at or before the
  // open interval's end overlaps or touches it and joins it.
  interval_of_.resize(n);
  merged_.clear();
  uint64_t pos = 0;
  uint64_t end = 0;
  auto close = [&] {
    Record& m = merged_.back();
    NTADOC_CHECK_LE(end - m.off, std::numeric_limits<uint32_t>::max());
    m.len = static_cast<uint32_t>(end - m.off);
    pos += m.len;
  };
  for (const SortKey& k : by_off_) {
    if (merged_.empty() || k.off > end) {
      if (!merged_.empty()) close();
      merged_.push_back(Record{k.off, pos, 0});
      end = k.off;
    }
    end = std::max(end, k.off + k.len);
    interval_of_[k.record] = static_cast<uint32_t>(merged_.size() - 1);
  }
  close();

  // Replay the writes in recording order, so the newest bytes win.
  merged_bytes_.resize(pos);
  for (size_t i = 0; i < n; ++i) {
    const Record& r = records_[i];
    const Record& m = merged_[interval_of_[i]];
    std::copy_n(bytes_.data() + r.pos, r.len,
                merged_bytes_.data() + m.pos + (r.off - m.off));
  }
  encoded_ = 0;
  for (const Record& m : merged_) {
    encoded_ += RedoLog::EncodedRecordBytes(m.len);
  }
  records_.swap(merged_);
  bytes_.swap(merged_bytes_);
}

void RecordArena::Clear() {
  records_.clear();
  bytes_.clear();
  encoded_ = 0;
  writes_ = 0;
}

}  // namespace ntadoc::core
