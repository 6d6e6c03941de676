// Deterministic, seedable media fault injection for NvmDevice.
//
// Real Optane-class media fails in ways a clean power-loss model cannot
// express: an 8-byte store inside a flushed line may tear, persisted
// bytes may rot, and whole 256 B media blocks may become uncorrectable.
// FaultInjector lets tests declare such faults up front in a FaultPlan
// and replays them exactly — same plan + same seed means byte-identical
// device states — so every recovery test is reproducible.
//
// Fault classes:
//   kTornFlush       On the triggering flush, one dirty line inside the
//                    flushed range persists only a prefix of its new
//                    content (a multiple of 8 bytes — the media's atomic
//                    write unit); the suffix keeps the old persisted
//                    bytes. The tear only becomes visible if the device
//                    crashes before the line is flushed again.
//   kCrashBitFlip    At crash time, flips N bits at seeded positions
//                    inside the spec's address range (bit rot in
//                    persisted data).
//   kUnreadableBlock Marks 256 B media blocks sticky-unreadable; reads
//                    overlapping them fail with Status::DataLoss until
//                    the block is rewritten (media remap).
//   kTransientRead   A flaky window: once armed, the next
//                    `transient_fail_count` read attempts overlapping the
//                    spec's range fail, then the fault heals on its own
//                    (ECC retry succeeds). The device's RetryPolicy
//                    absorbs these without surfacing an error.
//
// Triggers:
//   kNthFlush        The Nth FlushRange call that covers >= 1 dirty line
//                    (1-based).
//   kNthRead         The Nth ReadBytes/TryReadBytes call (1-based).
//   kAddressRange    Armed immediately at device construction; only
//                    meaningful for kUnreadableBlock, kCrashBitFlip and
//                    kTransientRead.

#ifndef NTADOC_NVM_FAULT_INJECTOR_H_
#define NTADOC_NVM_FAULT_INJECTOR_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "util/random.h"

namespace ntadoc::nvm {

/// What the fault does to the media.
enum class FaultEffect : uint8_t {
  kTornFlush = 0,
  kCrashBitFlip = 1,
  kUnreadableBlock = 2,
  kTransientRead = 3,
};

/// When the fault fires.
enum class FaultTrigger : uint8_t {
  kNthFlush = 0,
  kNthRead = 1,
  kAddressRange = 2,
};

/// One declarative fault. Fields not relevant to the chosen
/// effect/trigger are ignored.
struct FaultSpec {
  FaultEffect effect = FaultEffect::kTornFlush;
  FaultTrigger trigger = FaultTrigger::kNthFlush;

  /// 1-based ordinal for kNthFlush / kNthRead.
  uint64_t n = 1;

  /// Address window the fault applies to ([begin, end)); 0/0 means the
  /// whole device. For kNthFlush/kNthRead triggers the window further
  /// restricts which calls count toward the ordinal.
  uint64_t range_begin = 0;
  uint64_t range_end = 0;

  /// kCrashBitFlip: number of bits to flip.
  uint32_t bit_flips = 1;

  /// kTornFlush: bytes of the new line content that survive. Rounded
  /// down to a multiple of 8; kAuto picks a seeded multiple of 8 in
  /// [8, 56].
  static constexpr uint32_t kAuto = ~0u;
  uint32_t torn_keep_bytes = kAuto;

  /// kTransientRead: number of read attempts that fail before the fault
  /// heals (each retry counts as one attempt).
  uint32_t transient_fail_count = 2;

  /// kUnreadableBlock: sticky poison survives rewrites — the media is
  /// dead beyond what the controller's block remapping can redirect, so
  /// reads keep failing no matter what is stored. Models the
  /// "re-derivation impossible" case behind degraded-mode queries.
  bool sticky = false;
};

/// A reproducible set of faults.
struct FaultPlan {
  std::vector<FaultSpec> faults;
  bool empty() const { return faults.empty(); }
};

/// Runtime state for a FaultPlan. Owned by NvmDevice; all hooks are
/// invoked by the device, never by user code.
class FaultInjector {
 public:
  static constexpr uint64_t kBlock = 256;  // media ECC block size

  /// Counters for test assertions.
  struct Stats {
    uint64_t torn_flushes = 0;
    uint64_t bits_flipped = 0;
    uint64_t blocks_poisoned = 0;
    uint64_t failed_reads = 0;
    uint64_t transient_faults = 0;  // failed attempts that later heal
  };

  /// Outcome of one read attempt.
  enum class ReadFault : uint8_t {
    kNone = 0,       // read succeeds
    kTransient = 1,  // attempt fails; a retry may succeed
    kPermanent = 2,  // overlaps a sticky-unreadable block
  };

  FaultInjector(FaultPlan plan, uint64_t seed, uint64_t capacity);

  /// Called once per ReadBytes/TryReadBytes. Counts toward kNthRead
  /// ordinals and may arm/poison as a side effect. kPermanent means the
  /// read overlaps an unreadable block (DataLoss unless repaired);
  /// kTransient means this attempt failed but the device may retry.
  ReadFault OnRead(uint64_t offset, uint64_t len);

  /// A retry of the immediately preceding failed attempt. Does NOT count
  /// toward kNthRead ordinals (retries are controller-internal), but does
  /// consume the transient fault's remaining fail budget.
  ReadFault OnRetryRead(uint64_t offset, uint64_t len);

  /// Called once per FlushRange that covers at least one dirty line.
  /// Returns the index of a spec whose kNthFlush trigger fired with a
  /// kTornFlush effect, or -1. The device then calls TearLine() for the
  /// chosen line.
  int OnFlush(uint64_t offset, uint64_t len);

  /// For a fired torn-flush spec: how many bytes of the new line content
  /// to keep (multiple of 8 in [0, 64)), the spec's own count or a seeded
  /// choice.
  uint32_t TornKeepBytes(int spec_index);

  /// Seeded pick of one element out of `count` (for choosing which dirty
  /// line in the flushed range tears).
  uint64_t PickIndex(uint64_t count);

  /// Called from SimulateCrash after rollback. Invokes `flip` for every
  /// byte position that takes bit damage: flip(offset, bit_mask).
  template <typename FlipFn>
  void OnCrash(FlipFn&& flip) {
    for (size_t i = 0; i < plan_.faults.size(); ++i) {
      const FaultSpec& s = plan_.faults[i];
      if (s.effect != FaultEffect::kCrashBitFlip || crash_fired_.count(i)) {
        continue;
      }
      crash_fired_.insert(i);
      const auto [begin, end] = EffectiveRange(s);
      if (end <= begin) continue;
      for (uint32_t b = 0; b < s.bit_flips; ++b) {
        const uint64_t off = begin + rng_.Uniform(end - begin);
        const uint8_t mask = static_cast<uint8_t>(1u << rng_.Uniform(8));
        flip(off, mask);
        ++stats_.bits_flipped;
      }
    }
  }

  /// True if [offset, offset+len) overlaps a poisoned block.
  bool IsPoisoned(uint64_t offset, uint64_t len) const;

  /// Called on every write: any write touching a poisoned block clears
  /// its poison (the emulated controller rewrites the whole ECC block on
  /// a store, remapping the bad media).
  void OnWrite(uint64_t offset, uint64_t len);

  /// Marks every block overlapping [offset, offset+len) unreadable.
  /// Sticky poison is immune to the OnWrite heal.
  void PoisonRange(uint64_t offset, uint64_t len, bool sticky = false);

  const Stats& stats() const { return stats_; }
  uint64_t poisoned_block_count() const {
    return poisoned_blocks_.size() + sticky_blocks_.size();
  }

  /// True when reads can ever fail or poison blocks under this plan, i.e.
  /// it contains an unreadable-block or transient-read spec (armed now or
  /// by a future kNthRead trigger). When false, the device's read path
  /// skips the injector entirely and its write path skips the
  /// poison-clearing hook (nothing can ever be poisoned).
  bool reads_relevant() const { return reads_relevant_; }

 private:
  std::pair<uint64_t, uint64_t> EffectiveRange(const FaultSpec& s) const;
  static bool Overlaps(const FaultSpec& s, uint64_t offset, uint64_t len,
                       uint64_t capacity);

  /// Shared read-attempt check: permanent poison wins, then armed
  /// transient specs with remaining fail budget.
  ReadFault Probe(uint64_t offset, uint64_t len);

  FaultPlan plan_;
  Rng rng_;
  uint64_t capacity_;
  uint64_t flush_calls_ = 0;
  uint64_t read_calls_ = 0;
  std::unordered_set<size_t> flush_fired_;
  std::unordered_set<size_t> read_fired_;
  std::unordered_set<size_t> crash_fired_;
  std::unordered_set<uint64_t> poisoned_blocks_;  // block index = off/kBlock
  std::unordered_set<uint64_t> sticky_blocks_;    // never healed by writes
  std::vector<uint32_t> transient_remaining_;     // per spec; 0 = healed
  Stats stats_;
  bool reads_relevant_ = false;
};

}  // namespace ntadoc::nvm

#endif  // NTADOC_NVM_FAULT_INJECTOR_H_
