// Pool-resident open-addressing hash table (Figure 4).
//
// Layout: three adjacent pool buffers — status bytes (empty/occupied),
// keys, values — with power-of-two capacity for mask-based slot mapping
// and pseudo-random (double-hash) probing on collision, exactly as the
// paper describes. The capacity is fixed at creation from the bottom-up
// upper bound; when the summation ablation is off, the engine rebuilds
// the table into a doubled allocation on overflow, paying the redundant
// NVM reads and writes the paper's design eliminates.

#ifndef NTADOC_CORE_NVM_HASH_TABLE_H_
#define NTADOC_CORE_NVM_HASH_TABLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include <unordered_map>

#include "nvm/nvm_pool.h"
#include "nvm/obj_log.h"
#include "nvm/pmem.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/status.h"

namespace ntadoc::core {

/// Fixed-capacity counting hash table in an NVM pool. K and V must be
/// trivially copyable; KHash must be stateless.
template <typename K, typename V, typename KHash>
class NvmHashTable {
 public:
  static_assert(std::is_trivially_copyable_v<K>);
  static_assert(std::is_trivially_copyable_v<V>);

  using Key = K;
  using Value = V;

  NvmHashTable() = default;

  /// Creates a table that can hold `expected_entries` at ~50% load. The
  /// capacity is rounded up to a power of two (cache alignment, paper
  /// Section IV-D). All three buffers are zero-filled (charged): bulk
  /// readers (Extract, Validate) touch every slot, so never-written key
  /// and value bytes must still be defined, readable media.
  static Result<NvmHashTable> Create(nvm::NvmPool* pool,
                                     uint64_t expected_entries) {
    const uint64_t cap = NextPowerOfTwo(std::max<uint64_t>(
        8, expected_entries + expected_entries / 4));
    NTADOC_ASSIGN_OR_RETURN(const nvm::PoolOffset status_off,
                            pool->Alloc(cap, /*align=*/64));
    NTADOC_ASSIGN_OR_RETURN(const nvm::PoolOffset keys_off,
                            pool->template AllocArray<K>(cap));
    NTADOC_ASSIGN_OR_RETURN(const nvm::PoolOffset vals_off,
                            pool->template AllocArray<V>(cap));
    NvmHashTable t(pool, status_off, keys_off, vals_off, cap);
    t.ClearStatus();
    t.ZeroBuffer(keys_off, cap * sizeof(K));
    t.ZeroBuffer(vals_off, cap * sizeof(V));
    return t;
  }

  /// Re-attaches to an existing table after recovery; the entry count is
  /// recomputed with a charged status scan.
  static NvmHashTable Attach(nvm::NvmPool* pool, nvm::PoolOffset status_off,
                             nvm::PoolOffset keys_off,
                             nvm::PoolOffset vals_off, uint64_t capacity) {
    NvmHashTable t(pool, status_off, keys_off, vals_off, capacity);
    t.RecountSize();
    return t;
  }

  bool valid() const { return pool_ != nullptr; }
  uint64_t capacity() const { return capacity_; }
  uint64_t size() const { return size_; }
  nvm::PoolOffset status_offset() const { return status_off_; }
  nvm::PoolOffset keys_offset() const { return keys_off_; }
  nvm::PoolOffset values_offset() const { return vals_off_; }

  /// Pending (staged, not yet durable) inserts/updates of one
  /// operation-level transaction, keyed by slot.
  struct Pending {
    std::unordered_map<uint64_t, std::pair<K, V>> inserts;
    std::unordered_map<uint64_t, V> updates;
    void Clear() {
      inserts.clear();
      updates.clear();
    }
  };

  /// Transactional AddDelta: stages the mutation into `log` (to be
  /// applied at commit) while keeping probe consistency via `pending`.
  /// Within one transaction each staged slot is tracked so later ops see
  /// earlier staged state.
  Status AddDeltaTx(const K& key, const V& delta, nvm::RedoLog* log,
                    Pending* pending) {
    const uint64_t mask = capacity_ - 1;
    const uint64_t h = KHash()(key);
    const uint64_t step = (Mix64(h) << 1) | 1;
    uint64_t slot = h & mask;
    for (uint64_t probe = 0; probe < capacity_; ++probe) {
      auto pit = pending->inserts.find(slot);
      if (pit != pending->inserts.end()) {
        if (pit->second.first == key) {
          pit->second.second = static_cast<V>(pit->second.second + delta);
          log->StageValue(ValOff(slot), pit->second.second);
          return Status::OK();
        }
        slot = (slot + step) & mask;
        continue;
      }
      const uint8_t st =
          pool_->device().template Read<uint8_t>(StatusOff(slot));
      if (st == 0) {
        if (size_ + 1 > MaxEntries()) {
          return Status::ResourceExhausted("NvmHashTable over max load");
        }
        pending->inserts.emplace(slot, std::make_pair(key, delta));
        log->StageValue(StatusOff(slot), uint8_t{1});
        log->StageValue(KeyOff(slot), key);
        log->StageValue(ValOff(slot), delta);
        ++size_;
        return Status::OK();
      }
      if (pool_->device().template Read<K>(KeyOff(slot)) == key) {
        auto uit = pending->updates.find(slot);
        const V base =
            uit != pending->updates.end()
                ? uit->second
                : pool_->device().template Read<V>(ValOff(slot));
        const V next = static_cast<V>(base + delta);
        pending->updates[slot] = next;
        log->StageValue(ValOff(slot), next);
        return Status::OK();
      }
      slot = (slot + step) & mask;
    }
    // Can only happen when poisoned status bytes masquerade as occupied
    // slots (the load factor otherwise guarantees a free slot).
    return Status::DataLoss("hash table probe cycle exhausted");
  }

  /// Media + invariant check used on the recovery re-attach path: the
  /// three buffers must be readable and every status byte must be 0 or 1.
  /// Returns DataLoss on an unreadable block or an impossible status
  /// value (bit rot).
  Status Validate() const {
    auto status = pool_->device().template TryReadTypedSpan<uint8_t>(
        status_off_, capacity_);
    if (!status.ok()) return status.status();
    for (uint64_t slot = 0; slot < capacity_; ++slot) {
      if ((*status)[slot] > 1) {
        return Status::DataLoss("hash table status byte corrupt at slot " +
                                std::to_string(slot));
      }
    }
    auto keys = pool_->device().TryReadSpan(keys_off_, capacity_ * sizeof(K));
    if (!keys.ok()) return keys.status();
    auto vals = pool_->device().TryReadSpan(vals_off_, capacity_ * sizeof(V));
    if (!vals.ok()) return vals.status();
    return Status::OK();
  }

  /// Recomputes size() by scanning the status buffer (charged exactly
  /// like the per-slot loop it replaces: quantum = 1 byte).
  void RecountSize() {
    auto status = pool_->device().template TryReadTypedSpan<uint8_t>(
        status_off_, capacity_, /*quantum=*/1);
    if (!status.ok()) {
      // Unreadable status media: report nothing here; the recovery path's
      // Validate()/media-error check sees the bumped counter and falls
      // back to a fresh init.
      size_ = 0;
      return;
    }
    uint64_t n = 0;
    for (uint64_t slot = 0; slot < capacity_; ++slot) {
      if ((*status)[slot] != 0) ++n;
    }
    size_ = n;
  }

  /// Adds `delta` to the value of `key`, inserting (with value = delta)
  /// if absent. Returns ResourceExhausted when the table would exceed its
  /// maximum load factor — callers rebuild in that case — and DataLoss
  /// when corrupt status bytes break the probe invariant.
  Status AddDelta(const K& key, const V& delta) {
    uint64_t slot = 0;
    const Probe p = FindSlot(key, &slot);
    if (p == Probe::kExhausted) {
      return Status::DataLoss("hash table probe cycle exhausted");
    }
    if (p == Probe::kFound) {
      const V cur = pool_->device().template Read<V>(ValOff(slot));
      pool_->device().Write(ValOff(slot), static_cast<V>(cur + delta));
      return Status::OK();
    }
    if (size_ + 1 > MaxEntries()) {
      return Status::ResourceExhausted("NvmHashTable over max load");
    }
    pool_->device().Write(StatusOff(slot), uint8_t{1});
    pool_->device().Write(KeyOff(slot), key);
    pool_->device().Write(ValOff(slot), delta);
    ++size_;
    return Status::OK();
  }

  /// AddDelta routed through a write-through recorder (epoch group
  /// commit): probes and reads exactly like AddDelta — the writer writes
  /// every value through to home immediately, so device reads observe
  /// the newest state — but issues the stores via `writer`, which both
  /// applies them and records them for the epoch's coalesced redo
  /// record. Repeated updates of one slot therefore collapse to a single
  /// final-value log record at epoch commit.
  template <typename Writer>
  Status AddDeltaVia(const K& key, const V& delta, Writer* writer) {
    uint64_t slot = 0;
    const Probe p = FindSlot(key, &slot);
    if (p == Probe::kExhausted) {
      return Status::DataLoss("hash table probe cycle exhausted");
    }
    if (p == Probe::kFound) {
      const V cur = pool_->device().template Read<V>(ValOff(slot));
      writer->WriteValue(ValOff(slot), static_cast<V>(cur + delta));
      return Status::OK();
    }
    if (size_ + 1 > MaxEntries()) {
      return Status::ResourceExhausted("NvmHashTable over max load");
    }
    writer->WriteValue(StatusOff(slot), uint8_t{1});
    writer->WriteValue(KeyOff(slot), key);
    writer->WriteValue(ValOff(slot), delta);
    ++size_;
    return Status::OK();
  }

  /// Overwrites (or inserts) key -> value.
  Status Put(const K& key, const V& value) {
    uint64_t slot = 0;
    const Probe p = FindSlot(key, &slot);
    if (p == Probe::kExhausted) {
      return Status::DataLoss("hash table probe cycle exhausted");
    }
    if (p == Probe::kFound) {
      pool_->device().Write(ValOff(slot), value);
      return Status::OK();
    }
    if (size_ + 1 > MaxEntries()) {
      return Status::ResourceExhausted("NvmHashTable over max load");
    }
    pool_->device().Write(StatusOff(slot), uint8_t{1});
    pool_->device().Write(KeyOff(slot), key);
    pool_->device().Write(ValOff(slot), value);
    ++size_;
    return Status::OK();
  }

  /// Looks up `key`; NotFound if absent.
  Result<V> Get(const K& key) const {
    uint64_t slot = 0;
    if (FindSlot(key, &slot) != Probe::kFound) {
      return Status::NotFound("key not in NvmHashTable");
    }
    return pool_->device().template Read<V>(ValOff(slot));
  }

  /// Charged scan of all occupied entries into a host vector. Borrows the
  /// three buffers zero-copy with bulk sequential extent charges. On an
  /// unreadable block nothing is extracted (all three extents are still
  /// charged); the caller's media-error check reports the loss.
  template <typename Alloc>
  void Extract(std::vector<std::pair<K, V>, Alloc>* out) const {
    auto status = pool_->device().template TryReadTypedSpan<uint8_t>(
        status_off_, capacity_);
    auto keys =
        pool_->device().template TryReadTypedSpan<K>(keys_off_, capacity_);
    auto vals =
        pool_->device().template TryReadTypedSpan<V>(vals_off_, capacity_);
    if (!status.ok() || !keys.ok() || !vals.ok()) return;
    for (uint64_t slot = 0; slot < capacity_; ++slot) {
      if ((*status)[slot] != 0) {
        out->emplace_back((*keys)[slot], (*vals)[slot]);
      }
    }
  }

  /// Re-zeroes the status buffer, logically emptying the table.
  void Clear() {
    ClearStatus();
    size_ = 0;
  }

  /// Copies all entries into `dst` (used by the no-summation rebuild
  /// path). `dst` must be large enough. The occupancy scan borrows the
  /// status buffer (charged per slot); key/value reads stay per occupied
  /// slot, and dst->Put stores may overwrite our own buffers' blocks, so
  /// the status span must be consumed before the first Put.
  Status RebuildInto(NvmHashTable* dst) const {
    auto status = pool_->device().template TryReadTypedSpan<uint8_t>(
        status_off_, capacity_, /*quantum=*/1);
    if (!status.ok()) return status.status();
    std::vector<uint8_t> occupied(*status, *status + capacity_);
    for (uint64_t slot = 0; slot < capacity_; ++slot) {
      if (occupied[slot] != 0) {
        NTADOC_RETURN_IF_ERROR(
            dst->Put(pool_->device().template Read<K>(KeyOff(slot)),
                     pool_->device().template Read<V>(ValOff(slot))));
      }
    }
    return Status::OK();
  }

  /// Flushes status/key/value buffers for persistence.
  void Persist() {
    pool_->device().FlushRange(status_off_, capacity_);
    pool_->device().FlushRange(keys_off_, capacity_ * sizeof(K));
    pool_->device().FlushRange(vals_off_, capacity_ * sizeof(V));
    pool_->device().Drain();
    pool_->device().AssertPersisted(status_off_, capacity_);
    pool_->device().AssertPersisted(keys_off_, capacity_ * sizeof(K));
    pool_->device().AssertPersisted(vals_off_, capacity_ * sizeof(V));
  }

  /// Flushes only the status (occupancy) buffer. Clear() touches nothing
  /// else, so persisting a cleared table this way avoids redundantly
  /// flushing the untouched key/value buffers.
  void PersistStatus() {
    nvm::PmemPersist(pool_->device(), status_off_, capacity_);
  }

  /// Total pool bytes occupied.
  uint64_t FootprintBytes() const {
    return capacity_ * (1 + sizeof(K) + sizeof(V));
  }

 private:
  NvmHashTable(nvm::NvmPool* pool, nvm::PoolOffset status_off,
               nvm::PoolOffset keys_off, nvm::PoolOffset vals_off,
               uint64_t capacity)
      : pool_(pool),
        status_off_(status_off),
        keys_off_(keys_off),
        vals_off_(vals_off),
        capacity_(capacity) {}

  uint64_t MaxEntries() const { return capacity_ - capacity_ / 8; }

  uint64_t StatusOff(uint64_t slot) const { return status_off_ + slot; }
  uint64_t KeyOff(uint64_t slot) const {
    return keys_off_ + slot * sizeof(K);
  }
  uint64_t ValOff(uint64_t slot) const {
    return vals_off_ + slot * sizeof(V);
  }

  enum class Probe { kFound, kFree, kExhausted };

  /// Double-hash probe: the slot holding `key`, or the first free slot.
  /// kExhausted means the probe visited every slot without finding either
  /// — impossible under the load-factor invariant unless status bytes are
  /// corrupt. Poisoned media reads as zeros (= free), so a probe over a
  /// damaged block cannot detect the damage itself; the engine catches it
  /// via the per-step media-error check instead.
  Probe FindSlot(const K& key, uint64_t* out) const {
    const uint64_t mask = capacity_ - 1;
    const uint64_t h = KHash()(key);
    const uint64_t step = (Mix64(h) << 1) | 1;  // odd => full cycle
    uint64_t slot = h & mask;
    for (uint64_t probe = 0; probe < capacity_; ++probe) {
      const uint8_t st =
          pool_->device().template Read<uint8_t>(StatusOff(slot));
      if (st == 0) {
        *out = slot;
        return Probe::kFree;
      }
      if (pool_->device().template Read<K>(KeyOff(slot)) == key) {
        *out = slot;
        return Probe::kFound;
      }
      slot = (slot + step) & mask;
    }
    return Probe::kExhausted;
  }

  void ClearStatus() { ZeroBuffer(status_off_, capacity_); }

  void ZeroBuffer(nvm::PoolOffset off, uint64_t bytes) {
    // One bulk charged fill; quantum 512 keeps the charging identical to
    // the 512-byte-chunked write loop this replaces.
    pool_->device().FillBytes(off, bytes, 0, /*quantum=*/512);
  }

  nvm::NvmPool* pool_ = nullptr;
  nvm::PoolOffset status_off_ = 0;
  nvm::PoolOffset keys_off_ = 0;
  nvm::PoolOffset vals_off_ = 0;
  uint64_t capacity_ = 0;
  uint64_t size_ = 0;
};

}  // namespace ntadoc::core

#endif  // NTADOC_CORE_NVM_HASH_TABLE_H_
