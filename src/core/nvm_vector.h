// Fixed-capacity typed array in the NVM pool (Section IV-D).
//
// N-TADOC sizes every variable-length structure up front using the
// bottom-up summation (Algorithm 2) and then allocates it exactly once in
// the pool — NvmVector is that allocation: a bounds-checked typed window
// onto pool storage, with every element access charged through the
// device. When summation is disabled (ablation), the engine instead grows
// vectors by allocate-copy-rebuild, which is precisely the redundant NVM
// traffic the paper's design avoids.

#ifndef NTADOC_CORE_NVM_VECTOR_H_
#define NTADOC_CORE_NVM_VECTOR_H_

#include <cstdint>

#include "nvm/nvm_pool.h"
#include "nvm/pmem.h"
#include "util/logging.h"
#include "util/status.h"

namespace ntadoc::core {

/// Typed fixed-capacity array in an NVM pool. T must be trivially
/// copyable. The vector object itself is a volatile handle; the data is
/// pool-resident and addressable by (pool, offset, capacity).
template <typename T>
class NvmVector {
 public:
  static_assert(std::is_trivially_copyable_v<T>);

  NvmVector() = default;

  /// Allocates capacity*sizeof(T) bytes in `pool`.
  static Result<NvmVector<T>> Create(nvm::NvmPool* pool, uint64_t capacity) {
    NTADOC_ASSIGN_OR_RETURN(const nvm::PoolOffset off,
                            pool->template AllocArray<T>(capacity));
    return NvmVector<T>(pool, off, capacity);
  }

  /// Re-attaches to an existing allocation (after recovery).
  static NvmVector<T> Attach(nvm::NvmPool* pool, nvm::PoolOffset offset,
                             uint64_t capacity, uint64_t size) {
    NvmVector<T> v(pool, offset, capacity);
    v.size_ = size;
    return v;
  }

  bool valid() const { return pool_ != nullptr; }
  uint64_t capacity() const { return capacity_; }
  uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  nvm::PoolOffset offset() const { return offset_; }

  /// Device offset of element `i`.
  uint64_t ElementOffset(uint64_t i) const { return offset_ + i * sizeof(T); }

  /// Charged element load.
  T Get(uint64_t i) const {
    NTADOC_DCHECK_LT(i, size_);
    return pool_->device().template Read<T>(ElementOffset(i));
  }

  /// Charged element store (i < size()).
  void Set(uint64_t i, const T& v) {
    NTADOC_DCHECK_LT(i, size_);
    pool_->device().Write(ElementOffset(i), v);
  }

  /// Appends; ResourceExhausted when full (callers with summation enabled
  /// never hit this).
  Status PushBack(const T& v) {
    if (size_ == capacity_) {
      return Status::ResourceExhausted("NvmVector capacity exceeded");
    }
    pool_->device().Write(ElementOffset(size_), v);
    ++size_;
    return Status::OK();
  }

  /// Bulk charged read of [begin, begin+count) into `dst`.
  void ReadRange(uint64_t begin, uint64_t count, T* dst) const {
    NTADOC_DCHECK_LE(begin + count, size_);
    pool_->device().ReadBytes(ElementOffset(begin), dst, count * sizeof(T));
  }

  /// Zero-copy borrow of [begin, begin+count), charged exactly like a
  /// per-element Get() loop over the range (quantum = sizeof(T)). The
  /// borrow's contents are valid until the next device write or crash.
  /// DataLoss on unreadable media (charged, media error counter bumped).
  Result<const T*> ReadSpan(uint64_t begin, uint64_t count) const {
    NTADOC_DCHECK_LE(begin + count, size_);
    return pool_->device().template TryReadTypedSpan<T>(
        ElementOffset(begin), count, /*quantum=*/sizeof(T));
  }

  /// Bulk charged write; extends size to at least begin+count.
  void WriteRange(uint64_t begin, uint64_t count, const T* src) {
    NTADOC_DCHECK_LE(begin + count, capacity_);
    pool_->device().WriteBytes(ElementOffset(begin), src, count * sizeof(T));
    if (begin + count > size_) size_ = begin + count;
  }

  /// Sets logical size (elements in [0, n) must have been written).
  void Resize(uint64_t n) {
    NTADOC_DCHECK_LE(n, capacity_);
    size_ = n;
  }

  /// Zero-fills the whole capacity (one bulk charged fill; quantum keeps
  /// the charging identical to the 512-element chunked loop this
  /// replaces) and sets size to `logical_size`.
  void ZeroFill(uint64_t logical_size) {
    pool_->device().FillBytes(offset_, capacity_ * sizeof(T), 0,
                              /*quantum=*/512 * sizeof(T));
    size_ = logical_size;
  }

  /// Flushes the contents for persistence.
  void Persist() {
    nvm::PmemPersist(pool_->device(), offset_, size_ * sizeof(T));
  }

 private:
  NvmVector(nvm::NvmPool* pool, nvm::PoolOffset offset, uint64_t capacity)
      : pool_(pool), offset_(offset), capacity_(capacity) {}

  nvm::NvmPool* pool_ = nullptr;
  nvm::PoolOffset offset_ = 0;
  uint64_t capacity_ = 0;
  uint64_t size_ = 0;
};

}  // namespace ntadoc::core

#endif  // NTADOC_CORE_NVM_VECTOR_H_
