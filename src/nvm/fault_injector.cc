#include "nvm/fault_injector.h"

#include <algorithm>

namespace ntadoc::nvm {

FaultInjector::FaultInjector(FaultPlan plan, uint64_t seed, uint64_t capacity)
    : plan_(std::move(plan)), rng_(seed ^ 0x464C54494E4A4354ull),
      capacity_(capacity) {
  transient_remaining_.assign(plan_.faults.size(), 0);
  // Address-range unreadable blocks are armed immediately: the media was
  // already bad when the device was attached. Address-range transient
  // specs likewise start with their full fail budget.
  for (size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& s = plan_.faults[i];
    if (s.effect == FaultEffect::kUnreadableBlock ||
        s.effect == FaultEffect::kTransientRead) {
      reads_relevant_ = true;
    }
    if (s.effect == FaultEffect::kUnreadableBlock &&
        s.trigger == FaultTrigger::kAddressRange) {
      const auto [begin, end] = EffectiveRange(s);
      if (end > begin) PoisonRange(begin, end - begin, s.sticky);
    }
    if (s.effect == FaultEffect::kTransientRead &&
        s.trigger == FaultTrigger::kAddressRange) {
      transient_remaining_[i] = std::max<uint32_t>(1, s.transient_fail_count);
    }
  }
}

std::pair<uint64_t, uint64_t> FaultInjector::EffectiveRange(
    const FaultSpec& s) const {
  uint64_t begin = s.range_begin;
  uint64_t end = s.range_end;
  if (begin == 0 && end == 0) end = capacity_;
  end = std::min(end, capacity_);
  begin = std::min(begin, end);
  return {begin, end};
}

bool FaultInjector::Overlaps(const FaultSpec& s, uint64_t offset, uint64_t len,
                             uint64_t capacity) {
  uint64_t begin = s.range_begin;
  uint64_t end = s.range_end;
  if (begin == 0 && end == 0) end = capacity;
  return offset < end && offset + len > begin;
}

FaultInjector::ReadFault FaultInjector::OnRead(uint64_t offset, uint64_t len) {
  if (len == 0) return ReadFault::kNone;
  ++read_calls_;
  for (size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& s = plan_.faults[i];
    if (s.trigger != FaultTrigger::kNthRead || read_fired_.count(i)) continue;
    if (s.effect != FaultEffect::kUnreadableBlock &&
        s.effect != FaultEffect::kTransientRead) {
      continue;
    }
    if (!Overlaps(s, offset, len, capacity_)) continue;
    if (read_calls_ < s.n) continue;
    read_fired_.insert(i);
    if (s.effect == FaultEffect::kTransientRead) {
      transient_remaining_[i] = std::max<uint32_t>(1, s.transient_fail_count);
      continue;
    }
    // One media block inside the intersection of the read and the spec's
    // window goes bad — a single failed ECC block, not the whole
    // transfer. Which block is a seeded pick for determinism.
    const auto [rb, re] = EffectiveRange(s);
    const uint64_t begin = std::max(offset, rb);
    const uint64_t end = std::min(offset + len, re);
    if (end > begin) {
      const uint64_t first = begin / kBlock;
      const uint64_t last = (end - 1) / kBlock;
      const uint64_t b = first + PickIndex(last - first + 1);
      PoisonRange(b * kBlock, 1, s.sticky);
    }
  }
  return Probe(offset, len);
}

FaultInjector::ReadFault FaultInjector::OnRetryRead(uint64_t offset,
                                                    uint64_t len) {
  if (len == 0) return ReadFault::kNone;
  return Probe(offset, len);
}

FaultInjector::ReadFault FaultInjector::Probe(uint64_t offset, uint64_t len) {
  if (IsPoisoned(offset, len)) {
    ++stats_.failed_reads;
    return ReadFault::kPermanent;
  }
  for (size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& s = plan_.faults[i];
    if (s.effect != FaultEffect::kTransientRead) continue;
    if (transient_remaining_[i] == 0) continue;
    if (s.trigger == FaultTrigger::kNthRead && !read_fired_.count(i)) continue;
    if (!Overlaps(s, offset, len, capacity_)) continue;
    --transient_remaining_[i];
    ++stats_.transient_faults;
    return ReadFault::kTransient;
  }
  return ReadFault::kNone;
}

int FaultInjector::OnFlush(uint64_t offset, uint64_t len) {
  // The device only calls this for flushes covering >= 1 dirty line, so
  // the ordinal counts flushes that could actually tear.
  ++flush_calls_;
  for (size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& s = plan_.faults[i];
    if (s.effect != FaultEffect::kTornFlush ||
        s.trigger != FaultTrigger::kNthFlush || flush_fired_.count(i)) {
      continue;
    }
    if (flush_calls_ < s.n) continue;
    if (!Overlaps(s, offset, len, capacity_)) continue;
    flush_fired_.insert(i);
    ++stats_.torn_flushes;
    return static_cast<int>(i);
  }
  return -1;
}

uint32_t FaultInjector::TornKeepBytes(int spec_index) {
  const FaultSpec& s = plan_.faults[static_cast<size_t>(spec_index)];
  if (s.torn_keep_bytes != FaultSpec::kAuto) {
    return std::min<uint32_t>(s.torn_keep_bytes & ~7u, 56);
  }
  // Seeded multiple of 8 in [8, 56]: always a real tear, never a full
  // persist and never a clean drop (those are SimulateCrash territory).
  return static_cast<uint32_t>(8 * (1 + rng_.Uniform(7)));
}

uint64_t FaultInjector::PickIndex(uint64_t count) {
  return count <= 1 ? 0 : rng_.Uniform(count);
}

bool FaultInjector::IsPoisoned(uint64_t offset, uint64_t len) const {
  if ((poisoned_blocks_.empty() && sticky_blocks_.empty()) || len == 0) {
    return false;
  }
  const uint64_t first = offset / kBlock;
  const uint64_t last = (offset + len - 1) / kBlock;
  for (uint64_t b = first; b <= last; ++b) {
    if (poisoned_blocks_.count(b) || sticky_blocks_.count(b)) return true;
  }
  return false;
}

void FaultInjector::OnWrite(uint64_t offset, uint64_t len) {
  if (poisoned_blocks_.empty() || len == 0) return;
  // A store remaps every block it touches (the emulated controller
  // rewrites the whole ECC block on a partial store), so a fresh init
  // that rewrites a region heals the media under it. Sticky blocks are
  // dead beyond the controller's reach and stay unreadable.
  const uint64_t first = offset / kBlock;
  const uint64_t last = (offset + len - 1) / kBlock;
  for (uint64_t b = first; b <= last; ++b) {
    poisoned_blocks_.erase(b);
  }
}

void FaultInjector::PoisonRange(uint64_t offset, uint64_t len, bool sticky) {
  if (len == 0) return;
  auto& set = sticky ? sticky_blocks_ : poisoned_blocks_;
  const uint64_t first = offset / kBlock;
  const uint64_t last = (offset + len - 1) / kBlock;
  for (uint64_t b = first; b <= last; ++b) {
    if (set.insert(b).second) ++stats_.blocks_poisoned;
  }
}

}  // namespace ntadoc::nvm
