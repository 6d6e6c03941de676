// The traversal hot path: StepWriter, the decoded-rule cache, StepLoop
// and the three traversal kernels, with the per-step checks they call.

#include "core/engine_internal.h"

namespace ntadoc::core {

namespace {

/// Borrows an immutable local-gram payload zero-copy. A step's counter and
/// log writes never target the init-phase payload region (that is the
/// integrity-hash invariant), so the borrow stays valid across the step.
Result<std::span<const GramEntry>> BorrowGrams(nvm::NvmDevice* device,
                                               const GramMeta& gm) {
  if (gm.count == 0) return std::span<const GramEntry>();
  if (gm.off > device->capacity() ||
      gm.count > (device->capacity() - gm.off) / sizeof(GramEntry) ||
      gm.off % alignof(GramEntry) != 0) {
    return Status::DataLoss("gram payload descriptor out of bounds");
  }
  NTADOC_ASSIGN_OR_RETURN(
      const GramEntry* buf,
      device->TryReadTypedSpan<GramEntry>(gm.off, gm.count));
  return std::span<const GramEntry>(buf, gm.count);
}

/// The one place where a traversal step's stores meet the persistence
/// mode. Four regimes, selected at construction:
///   * no log              — volatile run: plain device writes;
///   * no log, phase flush — phase-level persistence: plain device writes,
///     and the traversal state is bulk-flushed once at the phase boundary
///     (see PersistTraversalState);
///   * commit_interval 1   — strict libpmemobj-style operation
///     persistence: each step is one redo-log transaction
///     (Begin/Stage/Commit), bit-for-bit the historical per-step
///     protocol;
///   * commit_interval K>1 — epoch group commit: stores write through to
///     their home locations immediately (volatile) and are recorded
///     host-side; every K steps the records are coalesced — overlapping
///     or adjacent writes merged into one interval, so repeated updates
///     of the same counter collapse to one final-value record — and
///     staged into a single redo-log transaction. The epoch's durable
///     commit record is what makes the written-through home state
///     recoverable; a crash loses at most the open epoch, and recovery
///     resumes at the last committed epoch boundary. In-place bulk data
///     (bottom-up lists) is flush-deferred: its dirty 64 B lines are
///     collected per epoch, deduplicated, and flushed as contiguous runs
///     under one drain.
class StepWriter {
 public:
  StepWriter(nvm::NvmDevice* device, nvm::NvmPool* pool, nvm::RedoLog* log,
             uint64_t cursor_off, bool phase_flush, uint32_t commit_interval,
             NTadocRunInfo* info)
      : device_(device),
        pool_(pool),
        log_(log),
        cursor_off_(cursor_off),
        phase_flush_(phase_flush),
        interval_(log != nullptr ? std::max<uint32_t>(1, commit_interval)
                                 : 1),
        info_(info) {}

  bool transactional() const { return log_ != nullptr; }
  bool epoch_mode() const { return interval_ > 1; }
  bool phase_flush() const { return phase_flush_; }

  /// Opens a step: a strict step begins its transaction (epochs span
  /// steps), and the pending counter updates start empty.
  void Begin() {
    word_pending_.Clear();
    gram_pending_.Clear();
    if (log_ != nullptr && !epoch_mode()) log_->Begin();
  }

  void WriteBytes(uint64_t off, const void* data, uint32_t len) {
    if (log_ == nullptr) {
      device_->WriteBytes(off, data, len);
    } else if (!epoch_mode()) {
      log_->Stage(off, data, len);
    } else {
      // Write through now; the epoch's commit record restores the value
      // after a crash. The epoch commit coalesces the recorded writes.
      device_->WriteBytes(off, data, len);
      if (len > 0) {
        line_events_ += (off + len - 1) / kLine - off / kLine + 1;
        arena_.Add(off, data, len);
      }
    }
  }

  template <typename T>
  void Write(uint64_t off, const T& v) {
    WriteBytes(off, &v, sizeof(T));
  }

  /// Adds `delta` to `key`'s counter in `table`. A strict transaction
  /// stages the add (AddDeltaTx, whose probe sees the step's earlier
  /// staged inserts); every other regime stores it through Write
  /// (AddDeltaVia). A full table — reachable only in the no-summation
  /// ablation — is rebuilt into a doubled allocation, paying the redundant
  /// NVM reads/writes Algorithm 2 avoids, and the add is retried.
  template <typename Table, typename K>
  Status AddDelta(Table* table, const K& key, uint64_t delta) {
    auto add = [&] {
      return transactional() && !epoch_mode()
                 ? table->AddDeltaTx(key, delta, log_, PendingOf(table))
                 : table->AddDeltaVia(key, delta, this);
    };
    Status s = add();
    if (s.code() == StatusCode::kResourceExhausted) {
      NTADOC_ASSIGN_OR_RETURN(Table bigger,
                              Table::Create(pool_, table->capacity()));
      NTADOC_RETURN_IF_ERROR(table->RebuildInto(&bigger));
      *table = bigger;
      ++info_->counter_rebuilds;
      s = add();
    }
    return s;
  }

  /// Adds a payload's words, each scaled by `weight`.
  Status AddWords(WordTable* table,
                  const std::vector<std::pair<uint32_t, uint32_t>>& words,
                  uint64_t weight) {
    for (const auto& [word, freq] : words) {
      NTADOC_RETURN_IF_ERROR(AddDelta(table, word, weight * freq));
    }
    return Status::OK();
  }

  /// Adds an immutable local-gram payload, each count scaled by `weight`.
  Status AddGrams(GramTable* table, const GramMeta& gm, uint64_t weight) {
    NTADOC_ASSIGN_OR_RETURN(const std::span<const GramEntry> grams,
                            BorrowGrams(device_, gm));
    for (const GramEntry& e : grams) {
      NTADOC_RETURN_IF_ERROR(AddDelta(table, e.key, weight * e.count));
    }
    return Status::OK();
  }

  /// Writes bottom-up list `r` to its pool allocation. With summation the
  /// bound always holds and the list is written once, sequentially; in the
  /// ablation the list is appended incrementally with allocate-copy-grow
  /// reconstructions on overflow.
  template <typename Entry, typename Vec>
  Status WriteList(NvmVector<ListMeta>* metas, uint32_t r, const Vec& acc,
                   bool summation) {
    auto make_entry = [](const auto& kv) {
      if constexpr (std::is_same_v<Entry, WordEntry>) {
        return WordEntry{kv.first, 0, kv.second};
      } else {
        return GramEntry{kv.first, kv.second};
      }
    };
    ListMeta m = metas->Get(r);
    if (acc.size() <= m.capacity) {
      std::vector<Entry> buf;
      buf.reserve(acc.size());
      for (const auto& kv : acc) buf.push_back(make_entry(kv));
      if (!buf.empty()) {
        device_->WriteBytes(m.off, buf.data(), buf.size() * sizeof(Entry));
        PersistInPlace(m.off, buf.size() * sizeof(Entry));
      }
    } else {
      if (summation) {
        return Status::Internal("bottom-up summation bound violated for R" +
                                std::to_string(r));
      }
      uint64_t cap = m.capacity;
      uint64_t off = m.off;
      if (cap == 0) {
        cap = 8;
        NTADOC_ASSIGN_OR_RETURN(off, pool_->AllocArray<Entry>(cap));
      }
      uint64_t written = 0;
      std::vector<Entry> tmp;
      for (const auto& kv : acc) {
        if (written == cap) {
          const uint64_t new_cap = cap * 2;
          NTADOC_ASSIGN_OR_RETURN(const nvm::PoolOffset new_off,
                                  pool_->AllocArray<Entry>(new_cap));
          tmp.resize(written);
          device_->ReadBytes(off, tmp.data(), written * sizeof(Entry));
          device_->WriteBytes(new_off, tmp.data(), written * sizeof(Entry));
          off = new_off;
          cap = new_cap;
          ++info_->counter_rebuilds;
        }
        const Entry e = make_entry(kv);
        device_->WriteBytes(off + written * sizeof(Entry), &e, sizeof(Entry));
        ++written;
      }
      PersistInPlace(off, written * sizeof(Entry));
      m.off = off;
      m.capacity = cap;
    }
    m.size = acc.size();
    Write(metas->ElementOffset(r), m);
    return Status::OK();
  }

  /// Stages the durable cursor into the step (logged steps only).
  void StageCursor(const Cursor& c) {
    if (log_ != nullptr) Write(cursor_off_, SlotOf(c));
  }

  /// Commits the step. A strict step commits its transaction; on a full
  /// log it first performs the group checkpoint and retries. Epoch mode
  /// counts the step and commits the whole epoch when it is full, when
  /// the coalesced records approach the log reserve, or when `force` is
  /// set (phase boundaries: the cursor must be durable before the phase
  /// marker advances past it).
  Status Commit(bool force = false) {
    if (log_ == nullptr) return Status::OK();
    if (epoch_mode()) {
      ++steps_;
      if (!force && steps_ < interval_ &&
          arena_.EncodedBelow(log_->capacity_bytes() / 4)) {
        return Status::OK();
      }
      return CommitEpoch();
    }
    return log_->CommitOrCheckpoint();
  }

  /// A commit point that stages only the cursor (stage starts and the
  /// phase-end done-cursor).
  Status CommitCursor(const Cursor& c, bool force = false) {
    Begin();
    StageCursor(c);
    return Commit(force);
  }

 private:
  static constexpr uint64_t kLine = nvm::PersistCheck::kLine;

  WordTable::Pending* PendingOf(WordTable*) { return &word_pending_; }
  GramTable::Pending* PendingOf(GramTable*) { return &gram_pending_; }

  /// `len` in-place bytes were just written at `off` (bulk list data
  /// bypasses the redo log). A strict step flushes them before its
  /// meta/cursor commit; epoch mode relies on the epoch commit instead,
  /// where all deferred lines share one deduplicated flush + drain.
  void PersistInPlace(uint64_t off, uint64_t len) {
    if (log_ == nullptr || len == 0) return;
    if (!epoch_mode()) {
      nvm::PmemPersist(*device_, off, len);
      return;
    }
    const uint64_t first = off / kLine;
    const uint64_t last = (off + len - 1) / kLine;
    for (uint64_t l = first; l <= last; ++l) deferred_lines_.push_back(l);
    line_events_ += last - first + 1;
  }
  /// Commits the accumulated epoch: flushes deferred in-place data under
  /// one drain, stages the coalesced records as one transaction, and
  /// publishes the durable commit record. The group checkpoint happens
  /// only here, immediately after a successful commit — home state is
  /// consistent exactly at epoch boundaries, so FlushAppliedHome can
  /// never leak an uncommitted write-through value to durable home.
  Status CommitEpoch() {
    steps_ = 0;
    if (arena_.empty() && deferred_lines_.empty()) return Status::OK();

    // 1. Deferred data first: the commit record publishes metadata that
    // points at it, so the data must be durable before the record is.
    // FlushLineRuns leaves the lines sorted and deduplicated.
    uint64_t flushed_now = 0;
    if (!deferred_lines_.empty()) {
      flushed_now = device_->FlushLineRuns(deferred_lines_);
      // Those lines are clean now; no later checkpoint may re-flush
      // them (including stale entries from earlier epochs).
      log_->NoteHomeLinesFlushed(deferred_lines_);
    }
    if (arena_.empty()) {
      if (info_ != nullptr) {
        info_->coalesced_flush_lines += line_events_ - flushed_now;
      }
      DropEpoch();
      return Status::OK();
    }

    // 2. One transaction for the epoch's coalesced records. The intervals
    // come sorted and disjoint, so their home lines arrive in order and
    // only a line shared by neighbouring intervals repeats. Lines the
    // deferred flush above already made durable stay out of the
    // checkpoint set (list data packs against its descriptor array, so
    // sharing a 64 B line is routine).
    arena_.Coalesce();
    log_->Begin();
    home_lines_.clear();
    auto flushed = deferred_lines_.cbegin();
    for (const RecordArena::Record& r : arena_.records()) {
      log_->Stage(r.off, arena_.bytes(r), r.len);
      for (uint64_t l = r.off / kLine; l <= (r.off + r.len - 1) / kLine;
           ++l) {
        if (!home_lines_.empty() && home_lines_.back() == l) continue;
        while (flushed != deferred_lines_.cend() && *flushed < l) ++flushed;
        if (flushed != deferred_lines_.cend() && *flushed == l) continue;
        home_lines_.push_back(l);
      }
    }
    const uint64_t home_kept = home_lines_.size();
    Status s = log_->CommitApplied(home_lines_);
    if (!s.ok()) {
      if (s.code() == StatusCode::kResourceExhausted) {
        // The per-step protocol checkpoints and retries here, but a
        // mid-epoch FlushAppliedHome would flush home lines carrying
        // uncommitted write-through values — leaked durable state that
        // recovery would then double-apply. The reserve policy (early
        // commit at capacity/4, checkpoint above capacity/2) makes this
        // reachable only when a single step outgrows the reserve, so
        // fail honestly instead.
        log_->Abort();
        s = Status::InvalidArgument(
            "epoch exceeds redo log reserve: increase redo_log_bytes or "
            "lower commit_interval");
      }
      DropEpoch();
      return s;
    }
    if (info_ != nullptr) {
      ++info_->epoch_commits;
      info_->coalesced_records += arena_.writes() - arena_.records().size();
      info_->coalesced_flush_lines +=
          line_events_ - (flushed_now + home_kept);
    }
    DropEpoch();

    // 3. Clean-boundary group checkpoint, deferred until the remaining
    // reserve could no longer absorb a worst-case epoch (the early-commit
    // threshold above): checkpointing re-flushes every home line dirtied
    // since the last one, so eagerness directly multiplies line flushes.
    if (log_->used_bytes() > log_->capacity_bytes() -
                                 log_->capacity_bytes() / 4) {
      log_->FlushAppliedHome();
      log_->Truncate();
    }
    return Status::OK();
  }

  void DropEpoch() {
    arena_.Clear();
    deferred_lines_.clear();
    line_events_ = 0;
  }

  nvm::NvmDevice* device_;
  nvm::NvmPool* pool_;
  nvm::RedoLog* log_;
  uint64_t cursor_off_;
  bool phase_flush_;
  uint32_t interval_;
  NTadocRunInfo* info_;
  // Staged counter updates of the open strict transaction, so later
  // probes within the step see earlier staged inserts.
  WordTable::Pending word_pending_;
  GramTable::Pending gram_pending_;
  uint32_t steps_ = 0;  // steps since the last epoch commit
  RecordArena arena_;         // the open epoch's write-through records
  uint64_t line_events_ = 0;  // line flushes the strict path would pay
  std::vector<uint64_t> deferred_lines_;
  std::vector<uint64_t> home_lines_;  // CommitEpoch scratch
};

}  // namespace

// ---------------------------------------------------------------------------
// Decoded-rule DRAM cache
// ---------------------------------------------------------------------------

/// Bounded LRU cache of decoded payloads, the state behind a
/// SharedRuleCache. The pool payloads are immutable after init, so a
/// decoded copy can be reused for the whole traversal; a hit replays the
/// payload's device extents against a DRAM cost model that shares the
/// looking-up run's SimClock, so the simulated run still pays (cheap DRAM)
/// access costs rather than getting the data for free. The cache survives
/// across runs and across the sessions over one sealed pool —
/// deterministic init makes the offsets stable — and is explicitly
/// invalidated whenever a run repairs, salvages or degrades.
struct NTadocEngine::RuleCache {
  struct Entry {
    DecodedPayload payload;
    PayloadExtent extent;
    uint64_t bytes = 0;  // host-memory estimate for the budget
    std::list<uint64_t>::iterator lru_it;
  };

  explicit RuleCache(uint64_t budget_bytes) : budget(budget_bytes) {}

  static uint64_t KeyOf(bool segment, uint32_t id) {
    return (segment ? (1ull << 32) : 0) | id;
  }

  static uint64_t PayloadBytes(const DecodedPayload& p) {
    return sizeof(Entry) +
           (p.subrules.capacity() + p.words.capacity()) *
               sizeof(std::pair<uint32_t, uint32_t>);
  }

  /// Returns the cached payload or null; charges `dram` — the caller's
  /// per-session DRAM model, so a hit on a shared cache lands on the
  /// lane of the session that performed the lookup — for the extents
  /// the device read would have touched.
  const DecodedPayload* Lookup(bool segment, uint32_t id,
                               nvm::MemoryModel* dram) {
    auto it = map.find(KeyOf(segment, id));
    if (it == map.end()) return nullptr;
    lru.splice(lru.begin(), lru, it->second.lru_it);
    const PayloadExtent& e = it->second.extent;
    dram->TouchRead(e.meta_off, e.meta_len);
    if (e.payload_len > 0) dram->TouchReadExtent(e.payload_off, e.payload_len);
    return &it->second.payload;
  }

  /// Admission policy. Caching is only a win when BOTH hold:
  ///   (a) the payload is re-read — the second miss proves reuse, so
  ///       single-use rules (read once to build the estimator, once to
  ///       traverse) never displace anything; and
  ///   (b) a DRAM replay is actually cheaper than what the device just
  ///       charged for this decode: a warm device buffer often re-reads
  ///       a payload for less than the worst-case DRAM line replay a hit
  ///       would charge, in which case caching *slows the run down*.
  /// The measured cost of the current miss captures the device buffer's
  /// real behavior; the replay side is a worst-case (all-miss) estimate.
  /// The 2x margin covers the other direction of error: one expensive
  /// miss does not mean future re-reads stay expensive (the device
  /// buffer may have warmed by then), so a payload is admitted only when
  /// replaying it from DRAM wins even if re-reads turn out to cost half
  /// of what this miss did.
  bool ShouldAdmit(bool segment, uint32_t id, const PayloadExtent& e,
                   uint64_t measured_device_ns) {
    if (seen_once.insert(KeyOf(segment, id)).second) return false;
    const nvm::DeviceProfile p = nvm::DramProfile();
    auto blocks = [&p](uint64_t len) {
      return (len + p.block_size - 1) / p.block_size;
    };
    uint64_t replay = blocks(e.meta_len) * p.read_miss_ns;
    if (e.payload_len > 0) replay += blocks(e.payload_len) * p.read_miss_ns;
    return measured_device_ns > 2 * replay;
  }

  void Insert(bool segment, uint32_t id, const DecodedPayload& payload,
              const PayloadExtent& extent) {
    const uint64_t bytes = PayloadBytes(payload);
    if (bytes > budget) return;  // would evict everything for one entry
    while (used + bytes > budget && !lru.empty()) {
      auto victim = map.find(lru.back());
      used -= victim->second.bytes;
      map.erase(victim);
      lru.pop_back();
    }
    lru.push_front(KeyOf(segment, id));
    Entry e{payload, extent, bytes, lru.begin()};
    map.emplace(KeyOf(segment, id), std::move(e));
    used += bytes;
  }

  void Clear() {
    map.clear();
    lru.clear();
    seen_once.clear();
    used = 0;
  }

  uint64_t budget;
  uint64_t used = 0;
  std::list<uint64_t> lru;  // front = most recently used key
  std::unordered_map<uint64_t, Entry> map;
  std::unordered_set<uint64_t> seen_once;  // keys missed at least once
};

DecodedPayload NTadocEngine::ReadPayloadCached(State* st, bool segment,
                                               uint32_t id) {
  SharedRuleCache* cache = ses_->rule_cache.get();
  if (cache == nullptr) {
    return segment ? ReadSegmentPayload(st->dag, &*st->pool, id)
                   : ReadRulePayload(st->dag, &*st->pool, id);
  }
  {
    // Lookup under the cache lock; the DRAM replay charges this
    // session's model (its own clock lane), never a sibling's.
    util::MutexLock lock(&cache->mu_);
    if (const DecodedPayload* hit =
            cache->cache_->Lookup(segment, id, &*ses_->cache_dram)) {
      ++ses_->run_info.rule_cache_hits;
      return *hit;  // copied into the return value before unlock
    }
  }
  ++ses_->run_info.rule_cache_misses;
  PayloadExtent extent;
  const uint64_t decode_t0 = device_->clock().NowNanos();
  DecodedPayload payload =
      segment ? ReadSegmentPayload(st->dag, &*st->pool, id, &extent)
              : ReadRulePayload(st->dag, &*st->pool, id, &extent);
  const uint64_t decode_ns = device_->clock().NowNanos() - decode_t0;
  // Never cache a payload read through an unreadable block: the decode
  // came back empty with the media error counter bumped, and the caller
  // is about to salvage.
  if (device_->media_error_count() != ses_->media_errors_seen) return payload;
  util::MutexLock lock(&cache->mu_);
  if (cache->cache_->ShouldAdmit(segment, id, extent, decode_ns)) {
    cache->cache_->Insert(segment, id, payload, extent);
  }
  return payload;
}

// ---------------------------------------------------------------------------
// SharedRuleCache
// ---------------------------------------------------------------------------

SharedRuleCache::SharedRuleCache(uint64_t budget_bytes)
    : cache_(std::make_unique<NTadocEngine::RuleCache>(budget_bytes)) {}

SharedRuleCache::~SharedRuleCache() = default;

void SharedRuleCache::Invalidate() {
  util::MutexLock lock(&mu_);
  cache_->Clear();
  ++invalidations_;
}

uint64_t SharedRuleCache::entries() const {
  util::MutexLock lock(&mu_);
  return cache_->map.size();
}

uint64_t SharedRuleCache::invalidations() const {
  util::MutexLock lock(&mu_);
  return invalidations_;
}

Status NTadocEngine::CheckSessionLimits() const {
  if (options_.cancel != nullptr &&
      options_.cancel->load(std::memory_order_relaxed)) {
    return Status::DeadlineExceeded("session cancelled");
  }
  if (ses_->deadline_ns != 0 &&
      device_->clock().NowNanos() > ses_->deadline_ns) {
    return Status::DeadlineExceeded("session sim-clock deadline expired");
  }
  return Status::OK();
}

void NTadocEngine::InvalidateRuleCache() {
  if (ses_->rule_cache) ses_->rule_cache->Invalidate();
}

Status NTadocEngine::MaybeMigrate(State* st) {
  nvm::TieredPool* tiered = ses_->tiered.get();
  if (tiered == nullptr) return Status::OK();
  NTADOC_RETURN_IF_ERROR(tiered->MaybeMigrate(st->tx_log()));
  if (tiered->TakePayloadDemotion()) {
    // Demoted payload units invalidate the decoded-rule cache: its
    // admission decisions were priced against the faster tier.
    InvalidateRuleCache();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Persistence helpers
// ---------------------------------------------------------------------------

void NTadocEngine::CommitPhase(uint64_t phase) {
  if (options_.persistence == PersistenceMode::kNone) return;
  nvm::PhaseMarker marker(device_, kMarkerOffset);
  marker.CommitPhase(phase);
}

Status NTadocEngine::MaybeInjectCrash() {
  if (options_.crash_after_traversal_steps != 0 &&
      ses_->run_info.traversal_steps >= options_.crash_after_traversal_steps) {
    device_->SimulateCrash();
    return Status::Internal("injected crash after " +
                            std::to_string(ses_->run_info.traversal_steps) +
                            " traversal steps");
  }
  return Status::OK();
}

Status NTadocEngine::CheckMediaErrors() {
  const uint64_t n = device_->media_error_count();
  if (n != ses_->media_errors_seen) {
    ses_->media_errors_seen = n;
    if (ses_->degraded) {
      // Degraded mode: the lost data contributes nothing; the event is
      // folded into the run's completeness fraction instead of failing.
      ++ses_->degraded_events;
      return Status::OK();
    }
    return Status::DataLoss(
        "uncorrectable media error during traversal reads");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Traversal phase
// ---------------------------------------------------------------------------

namespace {

/// Host-side form of a bottom-up list: (word or n-gram key, count) pairs
/// sorted by key.
template <typename Entry>
using ListOf = tracked::vector<std::pair<
    std::conditional_t<std::is_same_v<Entry, WordEntry>, uint32_t, NgramKey>,
    uint64_t>>;

/// Reads a bottom-up list back into a host vector through one zero-copy
/// borrowed span (bulk-charged, same as the staging read it replaces).
template <typename Entry, typename Vec>
void ReadList(nvm::NvmDevice* device, const ListMeta& m, Vec* out) {
  // Corrupt descriptor: read nothing; the caller's media-error check
  // turns the poisoned descriptor read into DataLoss. The alignment
  // check keeps a torn descriptor from producing a misaligned borrow.
  if (m.size == 0 || m.off > device->capacity() ||
      m.size > (device->capacity() - m.off) / sizeof(Entry) ||
      m.off % alignof(Entry) != 0) {
    out->clear();
    return;
  }
  auto span = device->TryReadTypedSpan<Entry>(m.off, m.size);
  if (!span.ok()) {
    // Unreadable media: empty result, error counter already bumped — the
    // caller's per-step media check fails and the run salvages.
    out->clear();
    return;
  }
  const Entry* buf = *span;
  out->resize(m.size);
  for (uint64_t i = 0; i < m.size; ++i) {
    if constexpr (std::is_same_v<Entry, WordEntry>) {
      (*out)[i] = {buf[i].word, buf[i].count};
    } else {
      (*out)[i] = {buf[i].key, buf[i].count};
    }
  }
}

/// Results of the per-file tasks (term vectors, inverted index, ranked
/// inverted index), collected one file at a time by either traversal
/// strategy and assembled once at the end.
class PerFileResults {
 public:
  PerFileResults(Task task, uint32_t num_files, uint32_t dict_size,
                 uint32_t top_k)
      : top_k_(top_k) {
    out_.task = task;
    if (task == Task::kTermVector) out_.term_vectors.resize(num_files);
    if (task == Task::kInvertedIndex) postings_.resize(dict_size);
  }

  /// File `f`'s word counts (term vector or inverted index) or n-gram
  /// counts (ranked inverted index), in any order.
  template <typename Vec>
  void Add(uint32_t f, const Vec& counts) {
    if constexpr (std::is_same_v<typename Vec::value_type::first_type,
                                 NgramKey>) {
      for (const auto& [k, c] : counts) {
        if (c != 0) gram_postings_.push_back({k, f, c});
      }
    } else if (out_.task == Task::kTermVector) {
      out_.term_vectors[f] = CanonicalTopK(counts, top_k_);
    } else {
      for (const auto& [w, c] : counts) {
        if (c != 0) postings_[w].push_back(f);
      }
    }
  }

  AnalyticsOutput Assemble() && {
    for (WordId w = compress::kFirstWordId; w < postings_.size(); ++w) {
      if (!postings_[w].empty()) {
        out_.inverted_index.emplace_back(w, std::move(postings_[w]));
      }
    }
    out_.ranked_index = RankedIndex(std::move(gram_postings_));
    return std::move(out_);
  }

 private:
  uint32_t top_k_;
  AnalyticsOutput out_;
  std::vector<std::vector<uint32_t>> postings_;
  std::vector<GramPosting> gram_postings_;
};

}  // namespace

/// The traversal step driver. Every kernel is a frontier — its loops pick
/// the next step, and the step's reducer returns where the durable cursor
/// stands after it — plus that per-step reducer. StepLoop owns everything
/// around the reducer, in one fixed order:
///   Begin -> reduce -> media check -> stage cursor -> count the step ->
///   crash injection -> deadline/cancel -> commit -> migration tick.
/// How a step's stores become durable is the StepWriter's business; the
/// phase end (result extraction, the done-cursor or the phase-level bulk
/// flush, the phase marker) is Finish(). Per-file top-down steps are
/// constructed non-durable: their counters are written unlogged and they
/// stage no cursor, commit nothing and skip the migration tick.
class NTadocEngine::StepLoop {
 public:
  StepLoop(NTadocEngine* engine, State* st, bool durable)
      : engine_(engine),
        st_(st),
        durable_(durable),
        // Only operation-level persistence opens a redo log.
        writer_(engine->device_, &*st->pool,
                durable ? st->tx_log() : nullptr, st->cursor_off,
                engine->options_.persistence == PersistenceMode::kPhase,
                engine->options_.commit_interval,
                &engine->ses_->run_info),
        results_(st->task, st->dag.num_files,
                 engine->corpus_->grammar.dict_size, st->opts.top_k) {}

  StepWriter& writer() { return writer_; }
  PerFileResults& results() { return results_; }

  /// Where the traversal resumes: the durable cursor under operation-level
  /// persistence, stage 0 otherwise. A torn or unwritten slot, and a
  /// completed run's done-cursor, both start over.
  Cursor ReadCursor() const {
    if (!writer_.transactional()) return Cursor{};
    const CursorSlot c =
        engine_->device_->Read<CursorSlot>(st_->cursor_off);
    if (c.magic != kCursorMagic || c.checksum != CursorChecksum(c) ||
        c.stage == 3) {
      return Cursor{};
    }
    return Cursor{c.stage, c.a, c.b};
  }

  /// Commit point after a kernel's (already flushed) stage-0 reset: the
  /// cursor moves to the start of stage 1.
  Status CommitReset() {
    NTADOC_RETURN_IF_ERROR(writer_.CommitCursor(Cursor{1, 0, 0}));
    return engine_->MaybeMigrate(st_);
  }

  /// A rule's or file segment's decoded payload, with duplicate (id, freq)
  /// pairs combined (only unpruned payloads have any).
  DecodedPayload ReadPayload(bool segment, uint32_t id) {
    DecodedPayload p = engine_->ReadPayloadCached(st_, segment, id);
    if (!st_->dag.pruned) {
      CombineEntries(&p.subrules);
      CombineEntries(&p.words);
    }
    return p;
  }

  /// Runs one step. `reduce` does the kernel's work for it and returns the
  /// cursor that resumes right after it.
  template <typename Reduce>
  Status Step(Reduce reduce) {
    writer_.Begin();
    NTADOC_ASSIGN_OR_RETURN(const Cursor next, reduce());
    NTADOC_RETURN_IF_ERROR(engine_->CheckMediaErrors());
    writer_.StageCursor(next);
    ++engine_->ses_->run_info.traversal_steps;
    NTADOC_RETURN_IF_ERROR(engine_->MaybeInjectCrash());
    NTADOC_RETURN_IF_ERROR(engine_->CheckSessionLimits());
    if (!durable_) return Status::OK();
    NTADOC_RETURN_IF_ERROR(writer_.Commit());
    return engine_->MaybeMigrate(st_);
  }

  /// Phase end: global counters are extracted from their pool table and
  /// per-file results assembled; then the phase boundary persists.
  Result<AnalyticsOutput> Finish() {
    AnalyticsOutput out = std::move(results_).Assemble();
    const Task task = st_->task;
    if (task == Task::kWordCount || task == Task::kSort) {
      tadoc::WordCountResult counts;
      st_->word_table.Extract(&counts);
      std::sort(counts.begin(), counts.end());
      if (task == Task::kSort) {
        out.sorted_words = CanonicalSort(counts, engine_->corpus_->dict);
      } else {
        out.word_counts = std::move(counts);
      }
    } else if (task == Task::kSequenceCount) {
      std::vector<std::pair<NgramKey, uint64_t>> counts;
      st_->gram_table.Extract(&counts);
      std::sort(counts.begin(), counts.end());
      out.sequence_counts = std::move(counts);
    }
    // The extracted counters must be real data, not poison fill.
    NTADOC_RETURN_IF_ERROR(engine_->CheckMediaErrors());
    if (writer_.transactional()) {
      // Forced: the done-cursor (and any open epoch) must be durable
      // before the phase marker advances.
      NTADOC_RETURN_IF_ERROR(
          writer_.CommitCursor(Cursor{3, 0, 0}, /*force=*/true));
    } else if (writer_.phase_flush()) {
      PersistTraversalState(engine_->device_, st_);
    }
    engine_->CommitPhase(2);
    return out;
  }

 private:
  NTadocEngine* engine_;
  State* st_;
  bool durable_;
  StepWriter writer_;
  PerFileResults results_;
};

Result<AnalyticsOutput> NTadocEngine::TraversalPhase(State* st) {
  auto result = [&]() -> Result<AnalyticsOutput> {
    if (st->strategy == TraversalStrategy::kBottomUp) {
      return tadoc::IsSequenceTask(st->task) ? BottomUp<GramEntry>(st)
                                             : BottomUp<WordEntry>(st);
    }
    if (tadoc::IsPerFileTask(st->task)) return TopDownPerFile(st);
    return TopDownGlobal(st);
  }();
  if (!result.ok() && st->log) {
    // A failed step never commits: close its open transaction, so the
    // repair ladder can commit through the same log.
    st->log->Abort();
    if (result.status().code() == StatusCode::kDataLoss &&
        options_.commit_interval > 1 && st->cursor_off != 0) {
      AbortToPhaseStart(device_, &*st->log, st->cursor_off);
    }
  }
  return result;
}

Result<AnalyticsOutput> NTadocEngine::TopDownGlobal(State* st) {
  const uint32_t nr = st->dag.num_rules;
  const uint32_t nf = st->dag.num_files;
  StepLoop loop(this, st, /*durable=*/true);
  StepWriter& w = loop.writer();

  // Resume point (operation level) or fresh working state.
  const Cursor cur = loop.ReadCursor();
  // A checksummed-but-impossible cursor means the persisted state lies.
  if (cur.stage > 3 || (cur.stage == 1 && (cur.a > nf || cur.b > nr)) ||
      (cur.stage == 2 && (cur.a > cur.b || cur.b > nr))) {
    return Status::DataLoss("traversal cursor out of bounds");
  }
  uint64_t seg_start = 0;
  if (cur.stage == 0) {
    // Working state: in-degrees from metadata, weights zeroed, counters
    // cleared, queue empty (phase isolation: traversal-phase data is
    // rebuilt from init-phase data).
    bool weights_reset = false;
    for (uint32_t r = 0; r < nr; ++r) {
      RuleMeta m = st->dag.rule_meta.Get(r);
      st->indeg.Set(r, m.in_degree);
      if (m.weight != 0) {
        m.weight = 0;
        st->dag.rule_meta.Set(r, m);
        weights_reset = true;
        st->rule_meta_dirty = true;
      }
    }
    if (st->use_word_table) st->word_table.Clear();
    if (st->use_gram_table) st->gram_table.Clear();
    st->qhead = st->qtail = 0;
    if (w.transactional()) {
      // The reset must be durable before the cursor says "stage 1", or a
      // crash would resume against rolled-back working state. On a fresh
      // run the weights are already zero and Clear() touches only the
      // status buffers, so flush exactly what the reset dirtied.
      device_->FlushRange(st->indeg.offset(), nr * sizeof(uint32_t));
      if (weights_reset) {
        device_->FlushRange(st->dag.rule_meta.offset(), nr * sizeof(RuleMeta));
      }
      if (st->use_word_table) st->word_table.PersistStatus();
      if (st->use_gram_table) st->gram_table.PersistStatus();
      device_->Drain();
      NTADOC_RETURN_IF_ERROR(loop.CommitReset());
    }
  } else if (cur.stage == 1) {
    seg_start = cur.a;
    st->qhead = 0;
    st->qtail = cur.b;
    ses_->run_info.resumed_at_step = cur.a;
  } else if (cur.stage == 2) {
    seg_start = nf;
    st->qhead = cur.a;
    st->qtail = cur.b;
    ses_->run_info.resumed_at_step = cur.a;
  }

  // The reducer: pushes weight `wr` along a payload's edges (a child
  // whose in-degree reaches zero joins the queue), then adds the
  // payload's words or local n-grams (`grams[id]`), scaled by `wr`, to
  // the global counters.
  const uint64_t weight_field = offsetof(RuleMeta, weight);
  auto propagate = [&](const DecodedPayload& payload, uint64_t wr,
                       const NvmVector<GramMeta>& grams,
                       uint32_t id) -> Status {
    for (const auto& [child, freq] : payload.subrules) {
      if (child == 0 || child >= nr) {
        return Status::DataLoss("payload references rule out of range");
      }
      const RuleMeta cm = st->dag.rule_meta.Get(child);
      w.Write(st->dag.rule_meta.ElementOffset(child) + weight_field,
                   cm.weight + wr * freq);
      st->rule_meta_dirty = true;
      const uint32_t dec = st->dag.pruned ? 1u : freq;
      const uint32_t in = st->indeg.Get(child);
      if (in < dec) {
        return Status::DataLoss("in-degree underflow (corrupt metadata)");
      }
      w.Write(st->indeg.ElementOffset(child), in - dec);
      if (in - dec == 0) {
        if (st->qtail >= nr) {
          return Status::DataLoss("traversal queue overflow (corrupt state)");
        }
        w.Write(st->queue.ElementOffset(st->qtail),
                     static_cast<uint32_t>(child));
        ++st->qtail;
      }
    }
    if (st->use_word_table) {
      NTADOC_RETURN_IF_ERROR(w.AddWords(&st->word_table, payload.words, wr));
    }
    if (st->use_gram_table) {
      NTADOC_RETURN_IF_ERROR(w.AddGrams(&st->gram_table, grams.Get(id), wr));
    }
    return Status::OK();
  };

  // Stage 1: seed from the root's file segments (weight 1 each).
  for (uint64_t f = seg_start; f < nf; ++f) {
    NTADOC_RETURN_IF_ERROR(loop.Step([&]() -> Result<Cursor> {
      const uint32_t file = static_cast<uint32_t>(f);
      NTADOC_RETURN_IF_ERROR(propagate(loop.ReadPayload(/*segment=*/true, file),
                                       1, st->seg_gram_meta, file));
      return Cursor{1, f + 1, st->qtail};
    }));
  }

  // Stage 2: Kahn queue over the pruned DAG.
  while (st->qhead < st->qtail) {
    NTADOC_RETURN_IF_ERROR(loop.Step([&]() -> Result<Cursor> {
      const uint32_t r = st->queue.Get(st->qhead);
      if (r == 0 || r >= nr) {
        return Status::DataLoss("traversal queue entry out of range");
      }
      ++st->qhead;
      const uint64_t wr = st->dag.rule_meta.Get(r).weight;
      NTADOC_RETURN_IF_ERROR(propagate(loop.ReadPayload(/*segment=*/false, r),
                                       wr, st->local_gram_meta, r));
      return Cursor{2, st->qhead, st->qtail};
    }));
  }
  return loop.Finish();
}

Result<AnalyticsOutput> NTadocEngine::TopDownPerFile(State* st) {
  const uint32_t nr = st->dag.num_rules;
  const uint32_t nf = st->dag.num_files;
  const bool rii = st->task == Task::kRankedInvertedIndex;
  StepLoop loop(this, st, /*durable=*/false);
  StepWriter& w = loop.writer();

  // Per-file top-down traversal: rule weights live in the pool-resident
  // metadata (the paper's "weight of the rule"), so every file walks the
  // whole DAG on NVM — zeroing, seeding and propagating weights rule by
  // rule. This is exactly why top-down degrades with many files
  // (Section VI-E). Per-file counters live in the shared pool table,
  // cleared per file (a restarted file is idempotent).
  const uint64_t weight_field = offsetof(RuleMeta, weight);
  auto read_weight = [&](uint32_t r) {
    return device_->Read<uint64_t>(st->dag.rule_meta.ElementOffset(r) +
                                   weight_field);
  };
  auto write_weight = [&](uint32_t r, uint64_t w) {
    device_->Write(st->dag.rule_meta.ElementOffset(r) + weight_field, w);
    st->rule_meta_dirty = true;
  };
  // The reducer's core: adds weight `wt` to a payload's children, and its
  // words or local n-grams (`grams[id]`), scaled by `wt`, to the file's
  // counters.
  auto propagate = [&](const DecodedPayload& payload, uint64_t wt,
                       const NvmVector<GramMeta>& grams,
                       uint32_t id) -> Status {
    for (const auto& [child, freq] : payload.subrules) {
      if (child == 0 || child >= nr) {
        return Status::DataLoss("payload references rule out of range");
      }
      write_weight(child, read_weight(child) + wt * freq);
    }
    if (rii) return w.AddGrams(&st->file_gram_table, grams.Get(id), wt);
    return w.AddWords(&st->file_table, payload.words, wt);
  };

  for (uint32_t f = 0; f < nf; ++f) {
    NTADOC_RETURN_IF_ERROR(loop.Step([&]() -> Result<Cursor> {
      // Zero the weights of every rule for this file's walk.
      for (uint32_t r : st->dag.layout_order) {
        if (r != 0 && read_weight(r) != 0) write_weight(r, 0);
      }
      if (rii) {
        st->file_gram_table.Clear();
      } else {
        st->file_table.Clear();
      }
      // Seed from the file's segment, then propagate through the DAG in
      // layout (topological) order; every rule's weight is checked on NVM
      // whether it participates or not.
      NTADOC_RETURN_IF_ERROR(propagate(loop.ReadPayload(/*segment=*/true, f),
                                       1, st->seg_gram_meta, f));
      for (uint32_t r : st->dag.layout_order) {
        if (r == 0) continue;
        const uint64_t wt = read_weight(r);
        if (wt == 0) continue;
        NTADOC_RETURN_IF_ERROR(propagate(loop.ReadPayload(/*segment=*/false, r),
                                         wt, st->local_gram_meta, r));
      }
      // Harvest this file's results.
      if (rii) {
        std::vector<std::pair<NgramKey, uint64_t>> counts;
        st->file_gram_table.Extract(&counts);
        loop.results().Add(f, counts);
      } else {
        tadoc::WordCountResult counts;
        st->file_table.Extract(&counts);
        loop.results().Add(f, counts);
      }
      return Cursor{};  // per-file steps keep no cursor
    }));
  }
  return loop.Finish();
}

template <typename Entry>
Result<AnalyticsOutput> NTadocEngine::BottomUp(State* st) {
  constexpr bool kWords = std::is_same_v<Entry, WordEntry>;
  const uint32_t nr = st->dag.num_rules;
  const uint32_t nf = st->dag.num_files;
  StepLoop loop(this, st, /*durable=*/true);
  StepWriter& w = loop.writer();

  const Cursor cur = loop.ReadCursor();
  if (cur.stage > 3 || (cur.stage == 1 && cur.a > nr) ||
      (cur.stage == 2 && cur.a > nf)) {
    return Status::DataLoss("traversal cursor out of bounds");
  }
  uint64_t rule_start = 0;
  uint64_t file_start = 0;
  if (cur.stage == 1) {
    rule_start = cur.a;
    ses_->run_info.resumed_at_step = cur.a;
  } else if (cur.stage == 2) {
    rule_start = nr;  // list building complete
    // Per-file host results cannot survive a crash; only global tasks
    // resume mid-aggregation.
    file_start = tadoc::IsPerFileTask(st->task) ? 0 : cur.a;
    ses_->run_info.resumed_at_step = cur.a;
  } else {
    if (st->use_word_table) st->word_table.Clear();
    if (st->use_gram_table) st->gram_table.Clear();
    if (w.transactional()) {
      // Same durability requirement as the top-down reset. Clear() only
      // rewrites the slot-status bytes, so only those need a flush.
      if (st->use_word_table) st->word_table.PersistStatus();
      if (st->use_gram_table) st->gram_table.PersistStatus();
      NTADOC_RETURN_IF_ERROR(loop.CommitReset());
    }
  }

  // The reducer's core: a node's own words (or local n-grams, `grams[id]`)
  // merged with every child's list, scaled by the edge frequency.
  NvmVector<ListMeta>& lists = kWords ? st->word_list_meta : st->gram_list_meta;
  auto merge = [&](const DecodedPayload& payload,
                   const NvmVector<GramMeta>& grams,
                   uint32_t id) -> Result<ListOf<Entry>> {
    ListOf<Entry> acc;
    if constexpr (kWords) {
      acc.reserve(payload.words.size());
      for (const auto& [word, c] : payload.words) acc.emplace_back(word, c);
    } else {
      NTADOC_ASSIGN_OR_RETURN(const std::span<const GramEntry> own,
                              BorrowGrams(device_, grams.Get(id)));
      acc.reserve(own.size());
      for (const GramEntry& e : own) acc.emplace_back(e.key, e.count);
    }
    for (const auto& [child, freq] : payload.subrules) {
      if (child == 0 || child >= nr) {
        return Status::DataLoss("payload references rule out of range");
      }
      ListOf<Entry> child_list;
      ReadList<Entry>(device_, lists.Get(child), &child_list);
      MergeSortedCounts(&acc, child_list, freq);
    }
    return acc;
  };

  // ---- Stage 1: per-rule lists, reverse layout order ----
  // layout_order is topological (parents first); children are therefore
  // visited first when iterating from the back.
  for (uint64_t p = rule_start; p + 1 < nr; ++p) {
    const uint32_t r = st->dag.layout_order[nr - 1 - static_cast<uint32_t>(p)];
    // Root is handled per segment in stage 2; keep step numbering stable
    // by treating it as a no-op step.
    if (r == 0) continue;
    NTADOC_RETURN_IF_ERROR(loop.Step([&]() -> Result<Cursor> {
      NTADOC_ASSIGN_OR_RETURN(
          const ListOf<Entry> acc,
          merge(loop.ReadPayload(/*segment=*/false, r), st->local_gram_meta,
                r));
      NTADOC_RETURN_IF_ERROR(
          w.WriteList<Entry>(&lists, r, acc, options_.enable_summation));
      return Cursor{1, p + 1, 0};
    }));
  }

  // ---- Stage 2: per-file aggregation from the root's segments ----
  auto& table = [st]() -> auto& {
    if constexpr (kWords) {
      return st->word_table;
    } else {
      return st->gram_table;
    }
  }();
  for (uint64_t f = file_start; f < nf; ++f) {
    NTADOC_RETURN_IF_ERROR(loop.Step([&]() -> Result<Cursor> {
      const uint32_t file = static_cast<uint32_t>(f);
      NTADOC_ASSIGN_OR_RETURN(
          const ListOf<Entry> acc,
          merge(loop.ReadPayload(/*segment=*/true, file), st->seg_gram_meta,
                file));
      if (tadoc::IsPerFileTask(st->task)) {
        loop.results().Add(file, acc);
      } else {
        for (const auto& [k, c] : acc) {
          NTADOC_RETURN_IF_ERROR(w.AddDelta(&table, k, c));
        }
      }
      return Cursor{2, f + 1, 0};
    }));
  }
  return loop.Finish();
}

}  // namespace ntadoc::core
