// Uncompressed text analytics on a storage device — the paper's baseline.
//
// The baseline stores the dictionary-converted token stream (no
// compression) on the device and scans it per task. Its counters live on
// the device too and are charged to the device's clock; the host-side
// result assembly is not charged.

#ifndef NTADOC_BASELINE_UNCOMPRESSED_H_
#define NTADOC_BASELINE_UNCOMPRESSED_H_

#include <cstdint>

#include "compress/compressor.h"
#include "nvm/nvm_device.h"
#include "tadoc/analytics.h"
#include "tadoc/engine.h"
#include "util/status.h"

namespace ntadoc::baseline {

using compress::CompressedCorpus;
using tadoc::AnalyticsOptions;
using tadoc::AnalyticsOutput;
using tadoc::RunMetrics;
using tadoc::Task;

/// Uncompressed scan-based analytics over a device-resident token stream.
class UncompressedAnalytics {
 public:
  /// `device` must outlive the engine; the corpus token stream is
  /// expanded and written to the device at offset 0 during each Run()'s
  /// init phase (the paper times dataset loading as part of
  /// initialization).
  UncompressedAnalytics(const CompressedCorpus* corpus,
                        nvm::NvmDevice* device);

  /// Runs one analytics task; fills `metrics` if non-null.
  Result<AnalyticsOutput> Run(Task task, const AnalyticsOptions& opts = {},
                              RunMetrics* metrics = nullptr);

  /// Bytes the token stream occupies on the device.
  uint64_t StreamBytes() const { return stream_bytes_; }

 private:
  /// Writes the expanded token stream to the device; returns its length
  /// in symbols.
  Result<uint64_t> LoadStream();

  const CompressedCorpus* corpus_;
  nvm::NvmDevice* device_;
  uint64_t stream_bytes_ = 0;
};

}  // namespace ntadoc::baseline

#endif  // NTADOC_BASELINE_UNCOMPRESSED_H_
