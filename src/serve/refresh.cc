#include "serve/refresh.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "util/logging.h"

namespace ntadoc::serve {

namespace {

// Backoff before the second attempt of a durable step, doubling per
// further attempt: a refresh under transient faults is visibly slower in
// simulated time, never silently free.
constexpr uint64_t kRetryBackoffSimNs = 4000;

}  // namespace

CorpusRefresher::CorpusRefresher(core::ContainerStore* store,
                                 ServingEngine* server,
                                 RefreshOptions options)
    : store_(store), server_(server), options_(std::move(options)) {
  NTADOC_CHECK(store_ != nullptr);
  NTADOC_CHECK(server_ != nullptr);
  if (options_.max_attempts == 0) options_.max_attempts = 1;
}

RefreshStats CorpusRefresher::stats() const {
  util::MutexLock lock(&mu_);
  return stats_;
}

Status CorpusRefresher::WithRetry(const std::function<Status()>& step) {
  uint64_t backoff = kRetryBackoffSimNs;
  for (uint32_t attempt = 1;; ++attempt) {
    const Status s = step();
    // Only media trouble is worth retrying: the next attempt re-reads
    // the container and re-stages from scratch (or re-commits), so a
    // healed transient fault succeeds. Bad input or a full slot never
    // heals.
    if (s.ok() || s.code() != StatusCode::kDataLoss ||
        attempt >= options_.max_attempts) {
      return s;
    }
    ++stats_.refresh_retries;
    store_->device()->clock().Charge(backoff);
    backoff *= 2;
  }
}

Result<SealedPool> CorpusRefresher::SealGeneration(
    const compress::CompressedCorpus* corpus, uint64_t gen) {
  // Inherit the serving configuration of the generation being replaced;
  // only the identity (and, if the corpus outgrew the device, the
  // capacity) changes.
  std::shared_ptr<const SealedPool> current = server_->current_pool();
  NTADOC_CHECK(current != nullptr);
  SealOptions so = current->options;
  so.engine.container_generation = gen;
  so.capacity = std::max<uint64_t>(so.capacity,
                                   corpus->grammar.ExpandedLength() * 48);
  return SealPool(corpus, so);
}

Status CorpusRefresher::Refresh(
    const std::vector<compress::InputFile>& new_files) {
  util::MutexLock lock(&mu_);

  // 1. Stage (durable shadow write, old descriptor still live).
  std::optional<core::PendingAppend> staged;
  const Status stage = WithRetry([&] {
    Result<core::PendingAppend> got =
        store_->StageAppend(new_files, options_.compress);
    if (!got.ok()) return got.status();
    staged = std::move(*got);
    return Status::OK();
  });

  std::shared_ptr<compress::CompressedCorpus> corpus;
  uint64_t gen_id = 0;
  if (stage.ok()) {
    gen_id = staged->sequence;
    corpus = std::make_shared<compress::CompressedCorpus>(
        std::move(staged->merged));
  } else if (options_.allow_degraded) {
    // Stage never produced a merged corpus (the container itself was
    // unreadable after retries): merge in memory against the corpus the
    // fleet is serving right now.
    std::shared_ptr<const SealedPool> current = server_->current_pool();
    NTADOC_CHECK(current != nullptr && current->corpus != nullptr);
    auto merged =
        compress::AppendFiles(*current->corpus, new_files, options_.compress);
    if (!merged.ok()) {
      ++stats_.refresh_aborts;
      return merged.status();
    }
    corpus = std::make_shared<compress::CompressedCorpus>(std::move(*merged));
    gen_id = server_->current_generation() + 1;
  } else {
    ++stats_.refresh_aborts;
    return stage;
  }

  // 2. Seal the replacement generation. Sealing happens BETWEEN stage and
  // commit: if it fails, the store has not cut over and the old
  // generation keeps serving.
  auto sealed = SealGeneration(corpus.get(), gen_id);
  if (!sealed.ok()) {
    ++stats_.refresh_aborts;
    return sealed.status();
  }

  // 3. Flip the descriptor, if the stage gave a durable slot to flip to.
  const Status commit =
      stage.ok() ? WithRetry([&] { return store_->CommitAppend(*staged); })
                 : stage;
  if (!commit.ok()) {
    if (!options_.allow_degraded) {
      // Abort: descriptor untouched, old generation keeps serving;
      // the staged slot is unreferenced garbage the next stage reuses.
      ++stats_.refresh_aborts;
      return commit;
    }
    // Degraded: serve the merged corpus from memory. Nothing durable
    // changed — a crash recovers the old generation.
    ++stats_.degraded_refreshes;
  }

  // 4. Publish.
  server_->PublishGeneration(
      std::make_shared<const SealedPool>(std::move(*sealed)), gen_id, corpus);
  ++stats_.generations_published;
  return Status::OK();
}

}  // namespace ntadoc::serve
