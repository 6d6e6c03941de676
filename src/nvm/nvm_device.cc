#include "nvm/nvm_device.h"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <limits>

#include "nvm/tiered_pool.h"
#include "util/logging.h"

namespace ntadoc::nvm {

namespace {

// Bounded read retry for transient media errors: up to four retries after
// the failed read, each charging a controller backoff (2 us, doubling per
// attempt) plus the re-issued read, so absorbed faults still cost
// simulated time. Retries never help against sticky-unreadable blocks.
constexpr uint32_t kMaxReadRetries = 4;
constexpr uint64_t kRetryBackoffNs = 2000;

uint64_t PageSize() {
  static const uint64_t page = static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
  return page;
}

// Bytes of a device's data pages: its capacity rounded up to whole pages.
uint64_t DataBytes(uint64_t capacity) {
  const uint64_t page = PageSize();
  return (capacity + page - 1) / page * page;
}

}  // namespace

void NvmDevice::Unmap::operator()(uint8_t* data) const {
  ASAN_UNPOISON_MEMORY_REGION(data, bytes);
  munmap(data, bytes);
}

void NvmDevice::ChargeRead(uint64_t offset, uint64_t len) {
  if (tier_router_ == nullptr) {
    model_.TouchRead(offset, len);
  } else {
    tier_router_->TouchRead(offset, len);
  }
}

void NvmDevice::ChargeReadExtent(uint64_t offset, uint64_t len,
                                 uint64_t quantum) {
  if (tier_router_ == nullptr) {
    model_.TouchReadExtent(offset, len, quantum);
  } else {
    tier_router_->TouchReadExtent(offset, len, quantum);
  }
}

void NvmDevice::ChargeWriteExtent(uint64_t offset, uint64_t len,
                                  uint64_t quantum) {
  if (tier_router_ == nullptr) {
    model_.TouchWriteExtent(offset, len, quantum);
  } else {
    tier_router_->TouchWriteExtent(offset, len, quantum);
  }
}

void NvmDevice::ChargeFlushCost(uint64_t offset, uint64_t len) {
  if (tier_router_ == nullptr) {
    model_.ChargeFlush(len);
  } else {
    tier_router_->ChargeFlush(offset, len);
  }
}

void NvmDevice::ChargeDrainCost() {
  if (tier_router_ == nullptr) {
    model_.ChargeDrain();
  } else {
    tier_router_->ChargeDrain();
  }
}

void NvmDevice::InvalidateAllBuffers() {
  model_.InvalidateBuffer();
  if (tier_router_ != nullptr) tier_router_->InvalidateBuffers();
}

Result<std::unique_ptr<NvmDevice>> NvmDevice::Create(DeviceOptions options) {
  if (options.capacity == 0) {
    return Status::InvalidArgument("device capacity must be > 0");
  }
  if (options.base_image != nullptr &&
      options.base_image->size() > options.capacity) {
    return Status::InvalidArgument(
        "base image larger than device capacity");
  }
  // A private anonymous mapping reads as zeros and costs host memory only
  // for the pages a run touches. NORESERVE: devices are sized for the
  // worst case and mostly untouched, so reserving swap for them is waste.
  const uint64_t page = PageSize();
  if (options.capacity > std::numeric_limits<size_t>::max() - 2 * page) {
    return Status::ResourceExhausted("device capacity exceeds address space");
  }
  const uint64_t data_bytes = DataBytes(options.capacity);
  void* map = mmap(nullptr, data_bytes + page, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (map == MAP_FAILED) {
    return Status::ResourceExhausted(
        "cannot map " + std::to_string(options.capacity) + "-byte device");
  }
  Backing data(static_cast<uint8_t*>(map), Unmap{data_bytes + page});
  // An overrun must fault as a heap overrun would: a PROT_NONE guard page
  // follows the data pages, and under ASan the slack between capacity and
  // the page end reads like a redzone.
  if (mprotect(data.get() + data_bytes, page, PROT_NONE) != 0) {
    return Status::ResourceExhausted("cannot guard device mapping");
  }
  ASAN_POISON_MEMORY_REGION(data.get() + options.capacity,
                            data_bytes - options.capacity);
#ifdef MADV_NOHUGEPAGE
  // Residency stays per touched base page even where the host defaults to
  // transparent huge pages, which would back 2 MiB for one touched byte.
  madvise(map, data_bytes, MADV_NOHUGEPAGE);
#endif
  if (options.clock == nullptr) options.clock = MakeSimClock();
  return std::unique_ptr<NvmDevice>(
      new NvmDevice(std::move(options), std::move(data)));
}

NvmDevice::NvmDevice(DeviceOptions options, Backing data)
    : capacity_(options.capacity),
      model_(options.profile, options.clock),
      strict_(options.strict_persistence),
      random_evict_probability_(options.random_evict_probability),
      evict_rng_(options.evict_seed),
      data_(std::move(data)),
      snapshot_at_drain_(options.snapshot_at_drain),
      snapshot_drains_begin_(options.snapshot_drains_begin),
      snapshot_drains_end_(options.snapshot_drains_end),
      snapshot_region_offset_(options.snapshot_region_offset),
      snapshot_region_len_(options.snapshot_region_len) {
  if (options.base_image != nullptr) {
    // Session-private materialization of the shared sealed image (see
    // DeviceOptions::base_image). Uncharged: the copy models mapping the
    // sealed pool, not device traffic.
    std::memcpy(data_.get(), options.base_image->data(),
                options.base_image->size());
  }
  if (!options.fault_plan.empty()) {
    injector_ = std::make_unique<FaultInjector>(std::move(options.fault_plan),
                                                options.fault_seed, capacity_);
  }
  if (options.persist_check) {
    check_ = std::make_unique<PersistCheck>(options.clock);
  }
  // With no checker and no fault plan that can ever touch reads, the read
  // path is charge + memcpy; likewise writes when additionally nothing
  // tracks dirty lines. Both are fixed for the device's lifetime.
  const bool injected_reads =
      injector_ != nullptr && injector_->reads_relevant();
  read_slow_ = check_ != nullptr || injected_reads;
  write_slow_ = strict_ || check_ != nullptr || injected_reads;
}

void NvmDevice::ReadBytes(uint64_t offset, void* dst, uint64_t len) {
  if (len == 0) return;  // guards the offset+len-1 line math below layers
  NTADOC_DCHECK_LE(offset + len, capacity_);
  ChargeRead(offset, len);
  if (read_slow_) {
    if (check_ != nullptr) check_->OnRead(offset, len);
    if (injector_ != nullptr) {
      FaultInjector::ReadFault f = injector_->OnRead(offset, len);
      if (f == FaultInjector::ReadFault::kTransient) {
        f = RetryRead(offset, len, 0, /*extent=*/false);
      }
      if (f != FaultInjector::ReadFault::kNone) {
        // Uncorrectable media error: the caller gets deterministic
        // zeros, never stale plausible-looking data and never
        // uninitialized bytes (degraded-mode consumers may keep going).
        std::memset(dst, 0, len);
        ++media_errors_;
        return;
      }
    }
  }
  std::memcpy(dst, data_.get() + offset, len);
}

FaultInjector::ReadFault NvmDevice::RetryRead(uint64_t offset, uint64_t len,
                                              uint64_t quantum, bool extent) {
  FaultInjector::ReadFault f = FaultInjector::ReadFault::kTransient;
  uint64_t backoff = kRetryBackoffNs;
  for (uint32_t attempt = 0;
       attempt < kMaxReadRetries &&
       f == FaultInjector::ReadFault::kTransient;
       ++attempt) {
    ++transient_retries_;
    model_.clock().Charge(backoff);
    backoff *= 2;
    // The controller re-issues the read; charge it like the original.
    if (extent) {
      ChargeReadExtent(offset, len, quantum);
    } else {
      ChargeRead(offset, len);
    }
    f = injector_->OnRetryRead(offset, len);
  }
  return f;
}

Status NvmDevice::TryReadBytes(uint64_t offset, void* dst, uint64_t len) {
  const uint64_t errors_before = media_errors_;
  ReadBytes(offset, dst, len);
  if (media_errors_ != errors_before) {
    return Status::DataLoss("uncorrectable media error at offset " +
                            std::to_string(offset));
  }
  return Status::OK();
}

Result<const uint8_t*> NvmDevice::TryReadSpan(uint64_t offset, uint64_t len,
                                              uint64_t quantum) {
  NTADOC_DCHECK_LE(offset + len, capacity_);
  if (len == 0) return static_cast<const uint8_t*>(data_.get() + offset);
  ChargeReadExtent(offset, len, quantum);
  if (read_slow_) {
    if (check_ != nullptr) check_->OnRead(offset, len);
    if (injector_ != nullptr) {
      FaultInjector::ReadFault f = injector_->OnRead(offset, len);
      if (f == FaultInjector::ReadFault::kTransient) {
        f = RetryRead(offset, len, quantum, /*extent=*/true);
      }
      if (f != FaultInjector::ReadFault::kNone) {
        ++media_errors_;
        return Status::DataLoss("uncorrectable media error at offset " +
                                std::to_string(offset));
      }
    }
  }
  return static_cast<const uint8_t*>(data_.get() + offset);
}

void NvmDevice::PoisonForTesting(uint64_t offset, uint64_t len, bool sticky) {
  if (injector_ == nullptr) {
    injector_ = std::make_unique<FaultInjector>(FaultPlan{}, 1, capacity_);
  }
  injector_->PoisonRange(offset, len, sticky);
  // The device may have been built with the fast read/write paths; the
  // injector is now load-bearing on both.
  read_slow_ = true;
  write_slow_ = true;
}

void NvmDevice::WriteBytes(uint64_t offset, const void* src, uint64_t len,
                           uint64_t quantum) {
  if (len == 0) return;  // guards the offset+len-1 line math below layers
  NTADOC_DCHECK_LE(offset + len, capacity_);
  ChargeWriteExtent(offset, len, quantum);
  if (write_slow_) {
    if (check_ != nullptr) check_->OnStore(offset, len);
    if (strict_) TrackDirty(offset, len);
    if (injector_ != nullptr) injector_->OnWrite(offset, len);
  }
  // memmove, not memcpy: callers may legally write data read through a
  // TryReadSpan borrow of an overlapping extent (e.g. log replay with a
  // corrupt record targeting the log region itself).
  std::memmove(data_.get() + offset, src, len);
}

void NvmDevice::FillBytes(uint64_t offset, uint64_t len, uint8_t value,
                          uint64_t quantum) {
  if (len == 0) return;
  NTADOC_DCHECK_LE(offset + len, capacity_);
  ChargeWriteExtent(offset, len, quantum);
  if (write_slow_) {
    if (check_ != nullptr) check_->OnStore(offset, len);
    if (strict_) TrackDirty(offset, len);
    if (injector_ != nullptr) injector_->OnWrite(offset, len);
  }
  std::memset(data_.get() + offset, value, len);
}

void NvmDevice::TrackDirty(uint64_t offset, uint64_t len) {
  const uint64_t first = offset / kLine;
  const uint64_t last = (offset + len - 1) / kLine;
  for (uint64_t line = first; line <= last; ++line) {
    auto it = dirty_lines_.find(line);
    if (it == dirty_lines_.end()) {
      std::array<uint8_t, kLine> pre{};
      std::memcpy(pre.data(), data_.get() + line * kLine, LineBytes(line));
      dirty_lines_.emplace(line, pre);
    }
  }
  // CPU caches may write dirty lines back at arbitrary times; model that
  // as a random eviction, which simply makes the line durable early.
  if (random_evict_probability_ > 0.0 && !dirty_lines_.empty() &&
      evict_rng_.Bernoulli(random_evict_probability_)) {
    auto it = dirty_lines_.begin();
    std::advance(it, evict_rng_.Uniform(dirty_lines_.size()));
    dirty_lines_.erase(it);
  }
}

void NvmDevice::FlushRange(uint64_t offset, uint64_t len) {
  if (len == 0) return;
  NTADOC_DCHECK_LE(offset + len, capacity_);
  ChargeFlushCost(offset, len);
  if (check_ != nullptr) check_->OnFlush(offset, len);
  if (!strict_) return;
  const uint64_t first = offset / kLine;
  const uint64_t last = (offset + len - 1) / kLine;
  uint64_t torn_line = kNoTornLine;
  if (injector_ != nullptr) {
    torn_line = MaybeTearFlush(first, last);
  }
  if (last - first + 1 >= dirty_lines_.size()) {
    // Large flush: iterate the (smaller) dirty set instead of the range.
    for (auto it = dirty_lines_.begin(); it != dirty_lines_.end();) {
      if (it->first >= first && it->first <= last && it->first != torn_line) {
        it = dirty_lines_.erase(it);
      } else {
        ++it;
      }
    }
  } else {
    for (uint64_t line = first; line <= last; ++line) {
      if (line != torn_line) dirty_lines_.erase(line);
    }
  }
}

uint64_t NvmDevice::MaybeTearFlush(uint64_t first, uint64_t last) {
  // Collect the dirty lines covered by this flush, in deterministic
  // (address) order; the flush ordinal only counts flushes that have at
  // least one line to tear.
  std::vector<uint64_t> covered;
  for (const auto& [line, pre] : dirty_lines_) {
    if (line >= first && line <= last) covered.push_back(line);
  }
  if (covered.empty()) return kNoTornLine;
  const int spec = injector_->OnFlush(first * kLine, (last - first + 1) * kLine);
  if (spec < 0) return kNoTornLine;
  std::sort(covered.begin(), covered.end());
  const uint64_t line = covered[injector_->PickIndex(covered.size())];
  const uint32_t keep = injector_->TornKeepBytes(spec);
  // The media persisted only the first `keep` bytes of the line's new
  // content; the suffix still holds the old persisted bytes. Rewrite the
  // line's pre-image accordingly and keep it dirty: if the caller crashes
  // before this line is flushed again, the tear materializes; a later
  // successful flush heals it.
  auto& pre = dirty_lines_[line];
  std::memcpy(pre.data(), data_.get() + line * kLine,
              std::min<uint64_t>(keep, LineBytes(line)));
  return line;
}

void NvmDevice::Drain() {
  ChargeDrainCost();
  if (check_ != nullptr) check_->OnDrain();
  ++drain_count_;
  if (snapshot_at_drain_ != 0 && drain_count_ == snapshot_at_drain_) {
    drain_snapshot_ = PersistedSnapshot();
  }
  if (snapshot_drains_begin_ != 0 && drain_count_ >= snapshot_drains_begin_ &&
      (snapshot_drains_end_ == 0 || drain_count_ <= snapshot_drains_end_)) {
    const uint64_t len = snapshot_region_len_ == 0
                             ? capacity_ - snapshot_region_offset_
                             : snapshot_region_len_;
    drain_snapshots_.push_back(PersistedRegion(snapshot_region_offset_, len));
  }
}

void NvmDevice::AssertPersisted(uint64_t offset, uint64_t len) {
  if (len == 0) return;
  NTADOC_DCHECK_LE(offset + len, capacity_);
  if (check_ != nullptr) check_->AssertPersisted(offset, len);
}

uint64_t NvmDevice::FlushLines(std::vector<uint64_t>& lines) {
  // Flush every dirtied line exactly once, after ALL the caller's writes:
  // per-write flushing would clwb lines a later write re-dirties before
  // the fence (a store-after-flush-before-drain hazard) and would clwb
  // shared lines repeatedly.
  std::sort(lines.begin(), lines.end());
  lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  for (size_t i = 0; i < lines.size();) {
    size_t j = i + 1;
    while (j < lines.size() && lines[j] == lines[j - 1] + 1) ++j;
    FlushRange(lines[i] * kLine, (j - i) * kLine);
    i = j;
  }
  return lines.size();
}

uint64_t NvmDevice::FlushLineRuns(std::vector<uint64_t>& lines) {
  if (lines.empty()) return 0;
  FlushLines(lines);
  Drain();
  for (const uint64_t line : lines) AssertPersisted(line * kLine, kLine);
  return lines.size();
}

void NvmDevice::SimulateCrash() {
  if (strict_) {
    for (const auto& [line, pre] : dirty_lines_) {
      std::memcpy(data_.get() + line * kLine, pre.data(), LineBytes(line));
    }
    dirty_lines_.clear();
  }
  if (injector_ != nullptr) {
    // Bit rot strikes the persisted image at crash time.
    injector_->OnCrash([this](uint64_t off, uint8_t mask) {
      if (off < capacity_) data_[off] ^= mask;
    });
  }
  if (check_ != nullptr) check_->OnCrash();
  InvalidateAllBuffers();
}

void NvmDevice::ZeroRange(uint64_t offset, uint64_t len) {
  const uint64_t page = PageSize();
  const uint64_t end = offset + len;
  const uint64_t lo = std::min(end, (offset + page - 1) / page * page);
  const uint64_t hi = std::max(lo, end / page * page);
  std::memset(data_.get() + offset, 0, lo - offset);
  if (hi > lo && madvise(data_.get() + lo, hi - lo, MADV_DONTNEED) != 0) {
    std::memset(data_.get() + lo, 0, hi - lo);
  }
  std::memset(data_.get() + hi, 0, end - hi);
}

void NvmDevice::LoadSnapshot(const std::vector<uint8_t>& image,
                             uint64_t offset) {
  NTADOC_CHECK(image.size() <= capacity_ &&
               offset <= capacity_ - image.size())
      << "snapshot past device end";
  const uint64_t end = offset + image.size();
  ZeroRange(0, offset);
  if (!image.empty()) {
    std::memcpy(data_.get() + offset, image.data(), image.size());
  }
  ZeroRange(end, capacity_ - end);
  dirty_lines_.clear();
  if (check_ != nullptr) check_->OnCrash();
  InvalidateAllBuffers();
}

std::vector<uint8_t> NvmDevice::PersistedRegion(uint64_t offset,
                                                uint64_t len) const {
  NTADOC_CHECK_LE(offset + len, capacity_) << "region past device end";
  std::vector<uint8_t> image(data_.get() + offset,
                             data_.get() + offset + len);
  for (const auto& [line, pre] : dirty_lines_) {
    const uint64_t lo = line * kLine;
    if (lo + kLine <= offset || lo >= offset + len) continue;
    const uint64_t b = std::max(lo, offset);
    const uint64_t e = std::min(lo + kLine, offset + len);
    std::memcpy(image.data() + (b - offset), pre.data() + (b - lo), e - b);
  }
  return image;
}

std::vector<uint8_t> NvmDevice::PersistedSnapshot() const {
  return PersistedRegion(0, capacity_);
}

Result<std::shared_ptr<const SealedImage>> NvmDevice::Seal(
    std::unique_ptr<NvmDevice> device) {
  NTADOC_CHECK(device != nullptr);
  // Roll back in place what PersistedSnapshot() rolls back in its copy.
  for (const auto& [line, pre] : device->dirty_lines_) {
    std::memcpy(device->data_.get() + line * kLine, pre.data(),
                device->LineBytes(line));
  }
  if (mprotect(device->data_.get(), DataBytes(device->capacity_),
               PROT_READ) != 0) {
    return Status::ResourceExhausted("cannot write-protect sealed image");
  }
  return std::shared_ptr<const SealedImage>(
      new SealedImage(std::move(device->data_), device->capacity_));
}

Status NvmDevice::SaveImage(const std::string& path) const {
  std::vector<uint8_t> image = PersistedSnapshot();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open for write: " + path);
  }
  const size_t written = std::fwrite(image.data(), 1, image.size(), f);
  std::fclose(f);
  if (written != image.size()) {
    return Status::IoError("short write: " + path);
  }
  return Status::OK();
}

Status NvmDevice::LoadImage(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open for read: " + path);
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 0 || static_cast<uint64_t>(size) > capacity_) {
    std::fclose(f);
    return Status::InvalidArgument("image does not fit device: " + path);
  }
  std::vector<uint8_t> image(static_cast<size_t>(size));
  const size_t read = std::fread(image.data(), 1, image.size(), f);
  std::fclose(f);
  if (read != image.size()) {
    return Status::IoError("short read: " + path);
  }
  LoadSnapshot(image);
  return Status::OK();
}

}  // namespace ntadoc::nvm
