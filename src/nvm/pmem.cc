#include "nvm/pmem.h"

#include <vector>

#include "nvm/obj_log.h"
#include "util/logging.h"

namespace ntadoc::nvm {

Status CommitAtomic(NvmDevice& device, RedoLog* log,
                    std::span<const DurableWrite> data,
                    std::span<const DurableWrite> body,
                    const DurableWrite& commit) {
  NTADOC_DCHECK(commit.len > 0 &&
                commit.off / 64 == (commit.off + commit.len - 1) / 64)
      << "commit record must lie in one 64 B line";
  NTADOC_DCHECK(log == nullptr || !log->in_transaction())
      << "CommitAtomic needs a log with no open transaction";
  // Whatever is not logged is stored, flushed and fenced in place before
  // anything commits.
  std::vector<DurableWrite> in_place(data.begin(), data.end());
  if (log == nullptr) in_place.insert(in_place.end(), body.begin(), body.end());
  if (!in_place.empty()) {
    for (const auto& w : in_place) device.WriteBytes(w.off, w.src, w.len);
    for (const auto& w : in_place) device.FlushRange(w.off, w.len);
    device.Drain();
    for (const auto& w : in_place) device.AssertPersisted(w.off, w.len);
  }
  if (log == nullptr) {
    PmemMemcpyPersist(device, commit.off, commit.src, commit.len);
    return Status::OK();
  }
  log->Begin();
  for (const DurableWrite& w : body) {
    log->Stage(w.off, w.src, static_cast<uint32_t>(w.len));
  }
  log->Stage(commit.off, commit.src, static_cast<uint32_t>(commit.len));
  Status s = log->CommitOrCheckpoint();
  if (!s.ok()) log->Abort();
  return s;
}

}  // namespace ntadoc::nvm
