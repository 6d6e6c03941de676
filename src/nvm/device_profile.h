// Device cost profiles for the storage emulation layer.
//
// The reproduction has no Intel Optane hardware (the product line is
// discontinued and this environment has no persistent memory), so every
// storage medium is modeled by a DeviceProfile: media access granularity,
// read/write latencies on a device-buffer miss, a device-internal buffer
// (the Optane XPBuffer, the OS page cache for SSD/HDD, the CPU cache for
// DRAM), and persistence costs (cache-line flush, fence). The profiles are
// calibrated from published Optane characterization studies so that the
// *relative* behaviour (256 B access amplification, read/write asymmetry,
// locality sensitivity) matches the paper's platform.

#ifndef NTADOC_NVM_DEVICE_PROFILE_H_
#define NTADOC_NVM_DEVICE_PROFILE_H_

#include <cstdint>
#include <string>

namespace ntadoc::nvm {

/// Storage medium kinds used across the evaluation.
enum class MediumKind : uint8_t { kDram = 0, kOptane, kSsd, kHdd };

/// Returns a stable display name ("DRAM", "NVM", "SSD", "HDD").
const char* MediumKindToString(MediumKind kind);

/// Cost model of one storage medium. All latencies are simulated
/// nanoseconds charged to the run's SimClock.
struct DeviceProfile {
  /// Display name, e.g. "NVM (Optane-like)".
  std::string name;

  MediumKind kind = MediumKind::kOptane;

  /// Media access granularity in bytes: every access touches whole blocks
  /// (64 for DRAM cache lines, 256 for 3D-XPoint, 4096 for SSD/HDD pages).
  /// Must be a power of two (MemoryModel checks).
  uint64_t block_size = 256;

  /// Latency to read one block that misses the device buffer.
  uint64_t read_miss_ns = 300;

  /// Latency to write one block that misses the device buffer. NVM writes
  /// are slower than reads (write asymmetry).
  uint64_t write_miss_ns = 900;

  /// Latency when the touched block is resident in the device buffer.
  uint64_t buffer_hit_ns = 40;

  /// Cost per 64 B dirty line flushed (clwb-like) for persistence.
  uint64_t flush_line_ns = 250;

  /// Cost of a persistence fence (sfence-like drain).
  uint64_t drain_ns = 120;

  /// Extra charge when the accessed block is not adjacent to the previous
  /// one (rotational seek). Zero for everything but HDD.
  uint64_t seek_ns = 0;

  /// Device buffer capacity in blocks (set-associative LRU). This is the
  /// XPBuffer for Optane and stands in for the page cache for SSD/HDD.
  uint64_t buffer_blocks = 16384;

  /// True if data survives a crash once flushed (NVM/SSD/HDD).
  bool persistent = true;
};

/// DRAM: 64 B lines, symmetric ~80 ns misses, large cache, volatile.
DeviceProfile DramProfile();

/// Optane-like persistent memory: 256 B media blocks, 300 ns read misses,
/// ~3x write asymmetry, 4 MiB internal buffer.
DeviceProfile OptaneProfile();

/// NVMe SSD accessed through a file system: 4 KiB pages, ~10 us reads.
/// `cache_bytes` sizes the simulated page cache (the paper caps the memory
/// budget at 20% of the dataset; benches pass that in).
DeviceProfile SsdProfile(uint64_t cache_bytes = 8ull << 20);

/// SAS HDD: 4 KiB pages, milliseconds-scale access plus seek penalties.
DeviceProfile HddProfile(uint64_t cache_bytes = 8ull << 20);

/// ReRAM-like persistent memory (the paper's §VI-F migration candidate):
/// finer 64 B granularity, faster reads, writes still asymmetric.
DeviceProfile ReRamProfile();

/// PCM-like persistent memory (§VI-F): 3D-XPoint-class reads with a
/// steeper write penalty.
DeviceProfile PcmProfile();

/// Profile for `kind` with default parameters.
DeviceProfile ProfileFor(MediumKind kind);

/// Streaming read cost of the source disk that holds the dataset (the
/// paper stores datasets on disk and includes the IO in the init phase;
/// its platform pairs the NVM with a SAS HDD array, ~250 MB/s streaming).
inline constexpr double kSourceDiskNsPerByte = 4.0;

}  // namespace ntadoc::nvm

#endif  // NTADOC_NVM_DEVICE_PROFILE_H_
