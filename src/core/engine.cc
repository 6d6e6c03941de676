#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <list>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "core/record_arena.h"
#include "core/summation.h"
#include "tadoc/canonical.h"
#include "tadoc/epoch_counts.h"
#include "tadoc/head_tail.h"
#include "tadoc/windows.h"
#include "util/dram_tracker.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/timer.h"

namespace ntadoc::core {

using compress::IsRule;
using compress::RuleIndex;
using compress::Symbol;
using compress::WordId;
using tadoc::CanonicalSort;
using tadoc::CanonicalTopK;
using tadoc::MergeSortedCounts;
using tadoc::NgramKeyHash;
using tadoc::SortAndCombine;

namespace {

constexpr uint64_t kMarkerOffset = 0;
// Dual-slot marker region; the redo log (operation mode) or pool starts
// right after it.
constexpr uint64_t kMarkerRegion = nvm::PhaseMarker::kRegionSize;

/// Pool-resident entry of a bottom-up word list.
struct WordEntry {
  uint32_t word;
  uint32_t pad;
  uint64_t count;
};

/// Pool-resident entry of a gram list (local windows or merged).
struct GramEntry {
  NgramKey key;
  uint64_t count;
};

/// Descriptor of one growable pool list.
struct ListMeta {
  uint64_t off;
  uint64_t capacity;  // in entries
  uint64_t size;      // in entries
};

/// Descriptor of one immutable local-gram payload.
struct GramMeta {
  uint64_t off;
  uint64_t count;
};

/// Durable traversal cursor (operation-level persistence).
struct CursorSlot {
  uint64_t magic;
  uint64_t stage;  // 0 fresh, 1/2 strategy-specific, 3 done
  uint64_t a;
  uint64_t b;
  uint64_t checksum;
};
constexpr uint64_t kCursorMagic = 0x4E54414443435253ULL;  // "NTADCCRS"

uint64_t CursorChecksum(const CursorSlot& c) {
  return Fnv1a64(&c, offsetof(CursorSlot, checksum));
}

/// Catalog slot of one counter table: NvmHashTable::Attach's arguments.
struct TableRef {
  uint64_t status, keys, vals, cap;
};

/// Pool catalog: every offset needed to re-attach after a restart.
/// CatalogOf builds it from a run's State and TryAttach reads it back
/// field for field. `tables` and `list_meta_off` are indexed in
/// ForEachTable / ForEachList order; a slot the task does not use is 0.
struct Catalog {
  uint64_t magic;
  uint64_t signature;
  uint64_t rule_meta_off;
  uint64_t seg_meta_off;
  uint64_t queue_off;
  uint64_t indeg_off;
  TableRef tables[4];         // word, gram, file, file-gram counters
  uint64_t list_meta_off[2];  // word lists, gram lists
  uint64_t local_gram_meta_off;
  uint64_t seg_gram_meta_off;
  uint64_t cursor_off;
  uint64_t integrity_off;
  uint64_t payload_begin, payload_end;  // pruned payload extent
  uint64_t gram_begin, gram_end;        // local-gram payload extent
  uint64_t pruned;
  uint64_t checksum;
};
// The persisted layout, which attach must read from any existing pool:
// 34 words, the table slots from word 6 and the list slots from word 22.
static_assert(sizeof(Catalog) == 272);
static_assert(offsetof(Catalog, tables) == 48);
static_assert(offsetof(Catalog, list_meta_off) == 176);
static_assert(offsetof(Catalog, local_gram_meta_off) == 192);
static_assert(offsetof(Catalog, checksum) == 264);
constexpr uint64_t kCatalogMagic = 0x4E5441444343544CULL;  // "NTADCCTL"

/// The catalog is the pool's first allocation, in the slot right after
/// the pool header; the init integrity hash covers the pool from here up
/// to the init-time top.
uint64_t CatalogOffset(const nvm::NvmPool& pool) {
  return pool.base() + nvm::NvmPool::kHeaderSlot;
}

uint64_t CatalogChecksum(const Catalog& c) {
  return Fnv1a64(&c, offsetof(Catalog, checksum));
}

/// Checksummed record of the init phase's immutable pool content: the
/// pool top at init completion and a hash of every byte in
/// [data_start, init_top) that the traversal phase never mutates.
/// Recovery recomputes the hash before trusting a re-attached init, so a
/// torn flush or bit rot in payloads/metadata cannot produce a silently
/// wrong answer.
struct InitIntegrity {
  uint64_t magic;
  uint64_t init_top;
  uint64_t region_hash;
  uint64_t checksum;  // over the preceding fields
};
constexpr uint64_t kIntegrityMagic = 0x4E54414443494E54ULL;  // "NTADCINT"

uint64_t IntegrityChecksum(const InitIntegrity& r) {
  return Fnv1a64(&r, offsetof(InitIntegrity, checksum));
}

/// Replicated critical metadata, kept in a reserved region at the device
/// tail (persistence != kNone): raw images of the phase-marker region and
/// the pool header, plus the catalog and init-integrity records,
/// checksummed as one unit. Attach fails over to this copy when a primary
/// is unreadable or corrupt and repairs the primary in place. Written
/// once per fresh init (after the phase-1 commit); the pool header image
/// may go stale when later remaps bump the header's count, but restoring
/// the older count only ignores spare copies whose home blocks the
/// emulated controller already healed.
struct MetaMirror {
  uint64_t magic;
  uint64_t signature;
  uint8_t marker[kMarkerRegion];                  // phase-marker image
  uint8_t pool_header[nvm::NvmPool::kHeaderSlot]; // pool-header image
  Catalog catalog;
  InitIntegrity integrity;
  uint64_t checksum;  // over the preceding fields
};
constexpr uint64_t kMetaMirrorMagic = 0x4E544144434D4952ULL;  // "NTADCMIR"
constexpr uint64_t kMirrorRegion = 1024;
static_assert(sizeof(MetaMirror) <= kMirrorRegion);

uint64_t MirrorChecksum(const MetaMirror& m) {
  return Fnv1a64(&m, offsetof(MetaMirror, checksum));
}

uint64_t MirrorOffset(const nvm::NvmDevice& device) {
  return device.capacity() - kMirrorRegion;
}

void WriteMetaMirror(nvm::NvmDevice* device, uint64_t signature,
                     uint64_t pool_base, const Catalog& cat,
                     const InitIntegrity& ii) {
  MetaMirror m{};
  m.magic = kMetaMirrorMagic;
  m.signature = signature;
  // Best effort on the raw images: an unreadable primary leaves zeros,
  // which the mirror's checksum still covers.
  (void)device->TryReadBytes(kMarkerOffset, m.marker, sizeof(m.marker));
  (void)device->TryReadBytes(pool_base, m.pool_header, sizeof(m.pool_header));
  m.catalog = cat;
  m.integrity = ii;
  m.checksum = MirrorChecksum(m);
  nvm::PmemMemcpyPersist(*device, MirrorOffset(*device), &m, sizeof(m));
}

std::optional<MetaMirror> ReadMetaMirror(nvm::NvmDevice* device,
                                         uint64_t signature) {
  MetaMirror m;
  const uint64_t off = MirrorOffset(*device);
  if (!device->TryReadBytes(off, &m, sizeof(m)).ok()) return std::nullopt;
  if (m.magic != kMetaMirrorMagic || m.checksum != MirrorChecksum(m) ||
      m.signature != signature) {
    return std::nullopt;
  }
  return m;
}

/// Half-open byte extent on the device.
struct ByteRange {
  uint64_t begin;
  uint64_t end;
};

struct U32Hash {
  size_t operator()(uint32_t v) const { return Mix64(v); }
};

using WordTable = NvmHashTable<uint32_t, uint64_t, U32Hash>;
using GramTable = NvmHashTable<NgramKey, uint64_t, NgramKeyHash>;

/// Where the durable traversal cursor stands: its stage (0 fresh, 1/2
/// strategy-specific, 3 done), the next step within the stage, and the
/// top-down queue tail.
struct Cursor {
  uint64_t stage = 0;
  uint64_t a = 0;
  uint64_t b = 0;
};

/// The checksummed durable slot of `c` (a default Cursor is stage 0).
CursorSlot SlotOf(const Cursor& c) {
  CursorSlot slot{kCursorMagic, c.stage, c.a, c.b, 0};
  slot.checksum = CursorChecksum(slot);
  return slot;
}

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

  void Write(uint64_t off, const void* data, uint32_t len) {
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
  void WriteValue(uint64_t off, const T& v) {
    Write(off, &v, sizeof(T));
  }

  /// Adds `delta` to `key`'s counter in `table` through the regime's
  /// store path (AddDeltaVia / AddDeltaTx / AddDelta). A full table —
  /// reachable only in the no-summation ablation — is rebuilt into a
  /// doubled allocation, paying the redundant NVM reads/writes Algorithm 2
  /// avoids, and the add is retried.
  template <typename Table, typename K>
  Status AddDelta(Table* table, const K& key, uint64_t delta) {
    Status s;
    if (epoch_mode()) {
      s = table->AddDeltaVia(key, delta, this);
    } else if (transactional()) {
      s = table->AddDeltaTx(key, delta, log_, PendingOf(table));
    } else {
      s = table->AddDelta(key, delta);
    }
    if (s.code() == StatusCode::kResourceExhausted) {
      NTADOC_ASSIGN_OR_RETURN(Table bigger,
                              Table::Create(pool_, table->capacity()));
      NTADOC_RETURN_IF_ERROR(table->RebuildInto(&bigger));
      *table = bigger;
      ++info_->counter_rebuilds;
      s = table->AddDelta(key, delta);
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
    WriteValue(metas->ElementOffset(r), m);
    return Status::OK();
  }

  /// Stages the durable cursor into the step (logged steps only).
  void StageCursor(const Cursor& c) {
    if (log_ != nullptr) WriteValue(cursor_off_, SlotOf(c));
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

/// Combines duplicate (id, freq) pairs (needed when pruning is disabled).
void CombineEntries(std::vector<std::pair<uint32_t, uint32_t>>* v) {
  std::sort(v->begin(), v->end());
  size_t out = 0;
  for (size_t i = 0; i < v->size();) {
    size_t j = i;
    uint64_t total = 0;
    while (j < v->size() && (*v)[j].first == (*v)[i].first) {
      total += (*v)[j].second;
      ++j;
    }
    (*v)[out++] = {(*v)[i].first, static_cast<uint32_t>(total)};
    i = j;
  }
  v->resize(out);
}

/// Algorithm 2's host-side inputs and bounds. They depend only on the
/// grammar and the pruning setting, never on the task, so RunBatch and
/// sealed-prefix sessions reuse them without touching the device.
struct Estimates {
  DagChildren children;             // combined (child, freq) per rule
  std::vector<uint64_t> own_words;  // distinct own words per rule
  std::vector<uint64_t> own_len;    // own word occurrences per rule
  std::vector<uint64_t> explen;     // expansion length per rule
  std::vector<uint64_t> word_ub;    // distinct-word bound per rule
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> seg_children;
  std::vector<uint64_t> seg_explen;
  std::vector<uint64_t> seg_word_ub;
  std::vector<uint64_t> seg_own_distinct;  // distinct own words per segment
};

/// One rule body's or root segment's local n-gram list, exactly as init
/// lays it out in the pool and scoped repair re-derives it: every window
/// the scanner emits, sorted by key with duplicates combined.
std::vector<GramEntry> LocalGrams(tadoc::WindowScanner& scanner,
                                  std::span<const Symbol> seq) {
  std::vector<std::pair<NgramKey, uint64_t>> local;
  scanner.Scan(seq, [&](const NgramKey& k) { local.emplace_back(k, 1); });
  SortAndCombine(&local);
  std::vector<GramEntry> entries;
  entries.reserve(local.size());
  for (const auto& [k, c] : local) entries.push_back(GramEntry{k, c});
  return entries;
}

/// Each mode's display name and its --persistence= flag value.
struct PersistenceName {
  PersistenceMode mode;
  const char* name;
  const char* flag;
};
constexpr PersistenceName kPersistenceNames[] = {
    {PersistenceMode::kNone, "none", "none"},
    {PersistenceMode::kPhase, "phase-level", "phase"},
    {PersistenceMode::kOperation, "operation-level", "operation"},
};

}  // namespace

const char* PersistenceModeToString(PersistenceMode m) {
  for (const PersistenceName& n : kPersistenceNames) {
    if (n.mode == m) return n.name;
  }
  return "?";
}

Result<PersistenceMode> ParsePersistenceMode(std::string_view name) {
  for (const PersistenceName& n : kPersistenceNames) {
    if (name == n.flag || name == n.name) return n.mode;
  }
  return Status::InvalidArgument("unknown persistence mode '" +
                                 std::string(name) + "'");
}

// ---------------------------------------------------------------------------
// State
// ---------------------------------------------------------------------------

struct NTadocEngine::State {
  Task task = Task::kWordCount;
  AnalyticsOptions opts;
  TraversalStrategy strategy = TraversalStrategy::kTopDown;
  uint64_t signature = 0;

  std::optional<nvm::NvmPool> pool;
  std::optional<nvm::RedoLog> log;

  PrunedDag dag;
  NvmVector<uint32_t> queue;
  NvmVector<uint32_t> indeg;
  WordTable word_table;       // global word counts
  GramTable gram_table;       // global gram counts
  WordTable file_table;       // shared per-file word counts
  GramTable file_gram_table;  // shared per-file gram counts
  NvmVector<ListMeta> word_list_meta;
  NvmVector<ListMeta> gram_list_meta;
  NvmVector<GramMeta> local_gram_meta;
  NvmVector<GramMeta> seg_gram_meta;
  uint64_t cursor_off = 0;
  uint64_t integrity_off = 0;
  // Device extent of the local-gram payloads (between the gram meta
  // arrays and the traversal structures); scoped salvage re-derives
  // damaged blocks inside it from the grammar.
  uint64_t gram_begin = 0;
  uint64_t gram_end = 0;

  // Volatile traversal state (mirrored into the cursor in op mode).
  uint64_t qhead = 0;
  uint64_t qtail = 0;

  // Whether the traversal phase wrote any RuleMeta weight (a fresh run
  // over an edge-free grammar never does); gates the phase-end flush of
  // the metadata array.
  bool rule_meta_dirty = false;

  // Which structures this task uses.
  bool use_queue = false;
  bool use_word_table = false;
  bool use_gram_table = false;
  bool use_file_table = false;
  bool use_file_gram_table = false;
  bool use_word_lists = false;
  bool use_gram_lists = false;
  bool use_local_grams = false;

  nvm::RedoLog* tx_log() { return log ? &*log : nullptr; }
};

// ---------------------------------------------------------------------------
// Decoded-rule DRAM cache
// ---------------------------------------------------------------------------

/// Bounded LRU cache of decoded payloads, the state behind a
/// SharedRuleCache. The pool payloads are immutable after init, so a
/// decoded copy can be reused for the whole traversal; a hit replays the
/// payload's device extents against a DRAM cost model that shares the
/// looking-up run's SimClock, so the simulated run still pays (cheap DRAM)
/// access costs rather than getting the data for free. A session-owned
/// cache is cleared at every InitPhase entry (a fresh init or salvage
/// rewrites the pool under the cached offsets); a cache shared by the
/// sessions over one sealed pool survives across them — deterministic
/// init makes the offsets stable — and is explicitly invalidated whenever
/// any session repairs or salvages.
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

// ---------------------------------------------------------------------------
// RunBatch shared init state
// ---------------------------------------------------------------------------

/// What one full initialization leaves behind that every later task in the
/// same batch can reuse: the pool prefix holding the catalog slot and the
/// pruned DAG (immutable after init — traversals reset rule weights before
/// reading them), and the host-side estimator scratch whose derivation is
/// task-independent (it depends only on the grammar and the pruning
/// setting). Later tasks roll the pool's bump pointer back to `dag_top`
/// and re-allocate only their own tables/lists/cursor. When the first
/// sequence task lays its local n-gram lists directly after the DAG, the
/// reusable prefix extends to `gram_top` for later sequence tasks with the
/// same n — a non-sequence task in between allocates over that region and
/// invalidates it.
struct NTadocEngine::BatchShared {
  bool valid = false;
  uint64_t pool_base = 0;
  uint64_t dag_top = 0;  // pool top right after BuildPrunedDag
  PrunedDag dag;         // NvmVector handles are re-attached on reuse
  PruneStats prune;
  // Simulated cost the full init paid for the shared portion (container
  // load + DAG build + estimator reads); reusing tasks report it as
  // RunMetrics::shared_init_sim_ns without paying it again.
  uint64_t shared_sim_ns = 0;
  uint64_t gram_sim_ns = 0;  // extra cost of the gram-region extension

  Estimates est;  // task-independent estimator scratch

  // Local n-gram prefix extension (valid only until a non-sequence task
  // allocates over it).
  bool gram_valid = false;
  uint32_t gram_ngram = 0;
  uint64_t gram_top = 0;  // pool top right after the gram payloads
  uint64_t local_gram_meta_off = 0;
  uint64_t seg_gram_meta_off = 0;
  uint64_t gram_begin = 0;
  uint64_t gram_end = 0;
  std::vector<uint64_t> gram_ub;
};

// ---------------------------------------------------------------------------
// Per-session mutable state
// ---------------------------------------------------------------------------

/// Everything one run/serving session mutates. The engine object itself
/// holds only the immutable wiring (corpus, device, options); pulling the
/// traversal cursors, counters, degraded/repair flags and cache handles
/// into one struct is what lets N snapshot-isolated sessions coexist over
/// one sealed pool with zero cross-session state bleed — each session is
/// one engine instance with its own SessionContext.
struct NTadocEngine::SessionContext {
  NTadocRunInfo run_info;
  uint64_t media_errors_seen = 0;
  bool degraded = false;
  uint64_t degraded_events = 0;

  // Absolute lane-clock deadline (0 = none), armed at Run() entry from
  // options.deadline_sim_ns, and checked at every cooperative cancel
  // point (traversal steps, estimator loops).
  uint64_t deadline_ns = 0;

  std::unique_ptr<State> state;
  std::unique_ptr<BatchShared> batch_shared;

  // Decoded-rule cache: the serving layer's shared one
  // (options.shared_cache), else one this session owns when
  // options.dram_cache_bytes asks for it; null = no cache.
  std::shared_ptr<SharedRuleCache> rule_cache;
  // DRAM replay model for cache hits. Charges this session's clock lane
  // even when the hit came from a cache other sessions share.
  std::optional<nvm::MemoryModel> cache_dram;

  // Satellite (b): init cost this run consumed from a shared prefix
  // without paying it (RunBatch reuse / sealed prefix).
  uint64_t shared_init_sim_ns = 0;
  bool init_shared = false;

  // Tiered placement (options.tiering != nullptr). Owned by the session
  // so heat and placement survive across Runs on one engine; attached to
  // the device as its charge router for the engine's lifetime.
  std::unique_ptr<nvm::TieredPool> tiered;
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

namespace {

/// Walks the counter tables the run uses, in catalog order, as
/// fn(catalog slot, table, owner name). Every walk over the tables goes
/// through here — catalog fill and attach, validation, the phase-end
/// flush, the integrity exclusions, owner labels and tier extents — so
/// each keeps the one device-access order (the LRU block buffer makes
/// order part of the sim cost). Only allocation, whose bounds differ per
/// table, names them one by one.
template <typename StateT, typename Fn>
void ForEachTable(StateT& st, Fn fn) {
  if (st.use_word_table) fn(0, st.word_table, "word_table");
  if (st.use_gram_table) fn(1, st.gram_table, "gram_table");
  if (st.use_file_table) fn(2, st.file_table, "file_table");
  if (st.use_file_gram_table) fn(3, st.file_gram_table, "file_gram_table");
}

/// The same walk over the bottom-up list-descriptor arrays, as
/// fn(catalog slot, descriptor array, entry size, owner name).
template <typename StateT, typename Fn>
void ForEachList(StateT& st, Fn fn) {
  if (st.use_word_lists) {
    fn(0, st.word_list_meta, sizeof(WordEntry), "word_list_meta");
  }
  if (st.use_gram_lists) {
    fn(1, st.gram_list_meta, sizeof(GramEntry), "gram_list_meta");
  }
}

/// A counter table's three pool buffers as fn(offset, length): status
/// bytes, keys, values.
template <typename Table, typename Fn>
void ForEachBuffer(const Table& t, Fn fn) {
  fn(t.status_offset(), t.capacity());
  fn(t.keys_offset(), t.capacity() * sizeof(typename Table::Key));
  fn(t.values_offset(), t.capacity() * sizeof(typename Table::Value));
}

/// The catalog describing `st`'s pool layout, checksummed.
template <typename StateT>
Catalog CatalogOf(const StateT& st) {
  Catalog cat{};
  cat.magic = kCatalogMagic;
  cat.signature = st.signature;
  cat.rule_meta_off = st.dag.rule_meta.offset();
  cat.seg_meta_off = st.dag.seg_meta.offset();
  if (st.use_queue) {
    cat.queue_off = st.queue.offset();
    cat.indeg_off = st.indeg.offset();
  }
  ForEachTable(st, [&cat](int i, const auto& t, const char*) {
    cat.tables[i] = TableRef{t.status_offset(), t.keys_offset(),
                             t.values_offset(), t.capacity()};
  });
  ForEachList(st, [&cat](int i, const NvmVector<ListMeta>& metas, uint64_t,
                         const char*) {
    cat.list_meta_off[i] = metas.offset();
  });
  if (st.use_local_grams) {
    cat.local_gram_meta_off = st.local_gram_meta.offset();
    cat.seg_gram_meta_off = st.seg_gram_meta.offset();
  }
  cat.cursor_off = st.cursor_off;
  cat.integrity_off = st.integrity_off;
  cat.payload_begin = st.dag.payload_begin;
  cat.payload_end = st.dag.payload_end;
  cat.gram_begin = st.gram_begin;
  cat.gram_end = st.gram_end;
  cat.pruned = st.dag.pruned ? 1 : 0;
  cat.checksum = CatalogChecksum(cat);
  return cat;
}

/// Phase-level persistence at the end of the traversal phase: flush only
/// the traversal-phase data (weights, working arrays, counters, lists) —
/// the init-phase data was persisted at the init boundary already.
template <typename StateT>
void PersistTraversalState(nvm::NvmDevice* device, StateT* st) {
  const uint32_t nr = st->dag.num_rules;
  // All device reads happen before the first clwb: the list loops read
  // each descriptor, and pool allocations pack tightly enough that a
  // descriptor array can share its last cache line with adjacent list
  // data — reading that line between its clwb and the fence would
  // observe a value that is not yet guaranteed durable. Every extent is
  // collected as line numbers first and flushed as deduplicated
  // contiguous runs, so a line shared by adjacent structures (two lists,
  // a queue next to its in-degree array, a table's status buffer next to
  // its keys) is never clwb'd twice per fence.
  std::vector<uint64_t> lines;
  auto collect = [&lines](uint64_t off, uint64_t len) {
    if (len == 0) return;
    for (uint64_t l = off / nvm::PersistCheck::kLine;
         l <= (off + len - 1) / nvm::PersistCheck::kLine; ++l) {
      lines.push_back(l);
    }
  };
  // Descriptor arrays are read as one borrowed span (charged exactly like
  // the per-descriptor loop it replaces). An unreadable descriptor block
  // skips the list-data lines: the old path would have collected garbage
  // extents from poisoned descriptors, so nothing durable is lost.
  ForEachList(*st, [&](int, const NvmVector<ListMeta>& metas,
                       uint64_t entry_size, const char*) {
    if (auto span = metas.ReadSpan(0, nr); span.ok()) {
      const ListMeta* m = *span;
      for (uint32_t r = 0; r < nr; ++r) {
        if (m[r].size > 0) collect(m[r].off, m[r].size * entry_size);
      }
    }
    collect(metas.offset(), nr * sizeof(ListMeta));
  });
  // Only top-down traversals propagate weights into RuleMeta, and a
  // traversal of an edge-free grammar over a fresh device never touches
  // them at all (the stage-0 reset skips weights that are already zero),
  // so the flush is further gated on a weight actually being written.
  if (st->strategy != TraversalStrategy::kBottomUp && st->rule_meta_dirty) {
    collect(st->dag.rule_meta.offset(), nr * sizeof(RuleMeta));
  }
  if (st->use_queue) {
    collect(st->indeg.offset(), nr * sizeof(uint32_t));
    collect(st->queue.offset(), nr * sizeof(uint32_t));
  }
  // A table's status buffer is always dirtied by the stage-0 Clear(),
  // but its key/value buffers are only written on insert — an empty
  // table's keys and values are clean.
  ForEachTable(*st, [&](int, const auto& t, const char*) {
    if (t.size() > 0) {
      ForEachBuffer(t, collect);
    } else {
      collect(t.status_offset(), t.capacity());
    }
  });
  device->FlushLineRuns(lines);
}

/// Byte extents of pool state that legitimately mutates during the
/// traversal phase; everything else between the pool's data start and the
/// init-time top is immutable after init and covered by the integrity
/// hash. Metadata arrays are excluded field-wise: only RuleMeta::weight
/// and ListMeta::size change under the summation estimator, so a torn
/// flush in any other field is caught.
template <typename StateT>
std::vector<ByteRange> CollectMutableExtents(const StateT& st) {
  std::vector<ByteRange> v;
  auto add = [&v](uint64_t off, uint64_t len) {
    if (len > 0) v.push_back(ByteRange{off, off + len});
  };
  const uint32_t nr = st.dag.num_rules;
  for (uint32_t r = 0; r < nr; ++r) {
    add(st.dag.rule_meta.ElementOffset(r) + offsetof(RuleMeta, weight),
        sizeof(uint64_t));
  }
  if (st.use_queue) {
    add(st.queue.offset(), nr * sizeof(uint32_t));
    add(st.indeg.offset(), nr * sizeof(uint32_t));
  }
  ForEachTable(st, [&](int, const auto& t, const char*) {
    ForEachBuffer(t, add);
  });
  // One borrowed span over the descriptor array (same charging as the
  // per-descriptor loop). On unreadable media no extents are excluded;
  // the integrity hash then mismatches, which is the right outcome for a
  // region that cannot even be read.
  ForEachList(st, [&](int, const NvmVector<ListMeta>& metas,
                      uint64_t entry_size, const char*) {
    auto span = metas.ReadSpan(0, nr);
    if (!span.ok()) return;
    const ListMeta* m = *span;
    for (uint32_t r = 0; r < nr; ++r) {
      add(m[r].off, m[r].capacity * entry_size);
      add(metas.ElementOffset(r) + offsetof(ListMeta, size),
          sizeof(uint64_t));
    }
  });
  add(st.cursor_off, 64);
  add(st.integrity_off, 64);
  return v;
}

/// Hashes [begin, end) minus the excluded extents. Each gap is borrowed
/// zero-copy in one span (quantum 4096 keeps the cost identical to the
/// 4096-byte staging loop this replaces) so an unreadable media block
/// surfaces as DataLoss rather than being hashed as poison.
Result<uint64_t> HashImmutableRegion(nvm::NvmDevice* device, uint64_t begin,
                                     uint64_t end,
                                     std::vector<ByteRange> excluded) {
  std::sort(excluded.begin(), excluded.end(),
            [](const ByteRange& a, const ByteRange& b) {
              return a.begin < b.begin;
            });
  uint64_t h = Fnv1a64(&begin, sizeof(begin));
  auto hash_span = [&](uint64_t a, uint64_t b) -> Status {
    if (a >= b) return Status::OK();
    NTADOC_ASSIGN_OR_RETURN(
        const uint8_t* p,
        device->TryReadSpan(a, b - a, /*quantum=*/4096));
    h = Fnv1a64(p, b - a, h);
    return Status::OK();
  };
  uint64_t pos = begin;
  for (const ByteRange& e : excluded) {
    if (pos >= end) break;
    const uint64_t gap_end = std::max(pos, std::min(e.begin, end));
    NTADOC_RETURN_IF_ERROR(hash_span(pos, gap_end));
    pos = std::max(pos, std::min(e.end, end));
  }
  NTADOC_RETURN_IF_ERROR(hash_span(pos, end));
  return h;
}

/// The init integrity hash of `st`'s pool up to `init_top`: everything
/// from the catalog on that the traversal never mutates.
template <typename StateT>
Result<uint64_t> HashInitRegion(nvm::NvmDevice* device, const StateT& st,
                                uint64_t init_top) {
  return HashImmutableRegion(device, CatalogOffset(*st.pool), init_top,
                             CollectMutableExtents(st));
}

/// Walks every pool structure the run allocated, in one fixed order, as
/// fn(offset, length, owner name, placement class). Both consumers use
/// this one walk: owner labels let a scrub map a damaged block back to
/// its object (ScrubReport::damage), and the tiered pool places the same
/// extents by class. List data stays unlabeled: RepairDamage classifies
/// it through the mutable extents, not through owner names.
template <typename StateT, typename Fn>
void ForEachStructure(const StateT& st, Fn fn) {
  using nvm::TierClass;
  const uint32_t nr = st.dag.num_rules;
  const uint32_t nf = st.dag.num_files;
  fn(CatalogOffset(*st.pool), sizeof(Catalog), "catalog", TierClass::kMeta);
  fn(st.dag.rule_meta.offset(), nr * sizeof(RuleMeta), "rule_meta",
     TierClass::kMeta);
  fn(st.dag.seg_meta.offset(), nf * sizeof(SegmentMeta), "seg_meta",
     TierClass::kMeta);
  if (st.dag.payload_end > st.dag.payload_begin) {
    fn(st.dag.payload_begin, st.dag.payload_end - st.dag.payload_begin,
       "payload", TierClass::kPayload);
  }
  if (st.use_local_grams) {
    fn(st.local_gram_meta.offset(), nr * sizeof(GramMeta), "local_gram_meta",
       TierClass::kMeta);
    fn(st.seg_gram_meta.offset(), nf * sizeof(GramMeta), "seg_gram_meta",
       TierClass::kMeta);
  }
  if (st.gram_end > st.gram_begin) {
    fn(st.gram_begin, st.gram_end - st.gram_begin, "gram_payload",
       TierClass::kGramPayload);
  }
  if (st.use_queue) {
    fn(st.queue.offset(), nr * sizeof(uint32_t), "queue", TierClass::kQueue);
    fn(st.indeg.offset(), nr * sizeof(uint32_t), "indeg", TierClass::kQueue);
  }
  ForEachTable(st, [&fn](int, const auto& t, const char* name) {
    ForEachBuffer(t, [&](uint64_t off, uint64_t len) {
      fn(off, len, name, TierClass::kTable);
    });
  });
  ForEachList(st, [&](int, const NvmVector<ListMeta>& metas, uint64_t,
                      const char* name) {
    fn(metas.offset(), nr * sizeof(ListMeta), name, TierClass::kMeta);
  });
  fn(st.cursor_off, 64, "cursor", TierClass::kCursor);
  fn(st.integrity_off, 64, "integrity", TierClass::kCursor);
}

template <typename StateT>
void RegisterPoolOwners(nvm::NvmPool* pool, const StateT& st) {
  pool->ClearOwners();
  ForEachStructure(st, [pool](uint64_t off, uint64_t len, const char* owner,
                              nvm::TierClass) {
    pool->RegisterOwner(off, len, owner);
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction / signature
// ---------------------------------------------------------------------------

NTadocEngine::NTadocEngine(const CompressedCorpus* corpus,
                           nvm::NvmDevice* device, NTadocOptions options)
    : corpus_(corpus),
      device_(device),
      options_(options),
      ses_(std::make_unique<SessionContext>()) {
  NTADOC_CHECK(corpus != nullptr);
  NTADOC_CHECK(device != nullptr);
  ses_->rule_cache = options_.shared_cache;
  if (ses_->rule_cache == nullptr && options_.dram_cache_bytes > 0) {
    ses_->rule_cache =
        std::make_shared<SharedRuleCache>(options_.dram_cache_bytes);
  }
  if (ses_->rule_cache != nullptr) {
    ses_->cache_dram.emplace(nvm::DramProfile(), device_->clock_ptr());
  }
}

NTadocEngine::~NTadocEngine() {
  // The device outlives this engine (tests and serving reuse it across
  // engines); never leave it routing charges through a dead TieredPool.
  if (ses_ != nullptr && ses_->tiered != nullptr &&
      device_->tier_router() == ses_->tiered.get()) {
    device_->set_tier_router(nullptr);
  }
}

const NTadocRunInfo& NTadocEngine::run_info() const { return ses_->run_info; }

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

Status NTadocEngine::SetupTiering(State* st, bool fresh) {
  nvm::TieredPool* tiered = ses_->tiered.get();
  if (tiered == nullptr) return Status::OK();
  // Fresh inits (including salvage restarts) reformat the placement
  // region: its committed entries describe a pool layout that no longer
  // exists. Attach loads the committed prefix instead, so a recovered
  // run resumes with every persistent-tier placement intact.
  NTADOC_RETURN_IF_ERROR(tiered->InitRegion(fresh));
  tiered->ResetExtents();
  ForEachStructure(*st, [tiered](uint64_t off, uint64_t len, const char*,
                                 nvm::TierClass cls) {
    tiered->RegisterExtent(off, len, cls);
  });
  return tiered->ApplyInitialPlacement();
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
// SharedRuleCache / SealedPrefix
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

SealedPrefix::SealedPrefix() = default;
SealedPrefix::~SealedPrefix() = default;

namespace {

uint64_t ComputeSignature(const CompressedCorpus& corpus, Task task,
                          const AnalyticsOptions& opts,
                          TraversalStrategy strategy,
                          const NTadocOptions& options) {
  uint64_t h = Mix64(static_cast<uint64_t>(task));
  h = HashCombine(h, opts.ngram);
  h = HashCombine(h, opts.top_k);
  h = HashCombine(h, static_cast<uint64_t>(strategy));
  h = HashCombine(h, static_cast<uint64_t>(options.persistence));
  h = HashCombine(h, options.enable_pruning ? 1 : 0);
  h = HashCombine(h, options.enable_summation ? 1 : 0);
  h = HashCombine(h, corpus.grammar.NumRules());
  h = HashCombine(h, corpus.grammar.num_files);
  h = HashCombine(h, corpus.grammar.dict_size);
  h = HashCombine(h, corpus.grammar.TotalSymbols());
  return h;
}

}  // namespace

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

namespace {

/// Moves the durable cursor back to stage 0, so the next attempt re-runs
/// the traversal phase from its idempotent reset (which rewrites every
/// line an abandoned step dirtied). The redo log, if any, is emptied
/// first: its committed transactions hold the old cursor, and replaying
/// them on re-attach would resurrect the abandoned resume point. Two
/// callers:
///   * epoch-mode error unwinding — a step that fails mid-epoch (media
///     damage surfacing as DataLoss; never an injected crash, which must
///     not write post-crash) leaves uncommitted write-through values in
///     home with no power loss to roll them back, and resuming mid-phase
///     would re-apply deltas on top of them;
///   * scoped repair — zero-filled traversal state invalidates any
///     resume point.
void AbortToPhaseStart(nvm::NvmDevice* device, nvm::RedoLog* log,
                       uint64_t cursor_off) {
  if (log != nullptr) {
    log->FlushAppliedHome();
    log->Truncate();
  }
  const CursorSlot start = SlotOf(Cursor{});
  nvm::PmemMemcpyPersist(*device, cursor_off, &start, sizeof(start));
}

}  // namespace

// ---------------------------------------------------------------------------
// Initialization phase
// ---------------------------------------------------------------------------

Result<bool> NTadocEngine::TryAttach(State* st, uint64_t pool_base) {
  if (options_.persistence == PersistenceMode::kNone) return false;
  const auto& grammar = corpus_->grammar;

  // Every detected-corruption exit funnels through here: count it, log
  // it, and fall back to a fresh init (which rewrites — and thereby
  // heals — the damaged state).
  auto corrupt = [&](std::string_view what) -> bool {
    ++ses_->run_info.corruption_detected;
    NTADOC_LOG(Warning) << "recovery attach rejected: " << what
                        << "; restarting from the compressed container";
    return false;
  };

  // The replicated metadata at the device tail can stand in for any of
  // the critical primaries (marker, pool header, catalog, integrity
  // record); a failover rewrites the primary from the mirror copy.
  // Loaded lazily: the fault-free attach path never reads it.
  bool mirror_probed = false;
  std::optional<MetaMirror> mirror;
  auto get_mirror = [&]() -> MetaMirror* {
    if (!mirror_probed) {
      mirror_probed = true;
      mirror = ReadMetaMirror(device_, st->signature);
    }
    return mirror ? &*mirror : nullptr;
  };
  auto restore = [&](const char* what, uint64_t off, const void* copy,
                     uint64_t len) {
    ++ses_->run_info.corruption_detected;
    ++ses_->run_info.scoped_repairs;
    NTADOC_LOG(Warning) << what << "; restored from the metadata mirror";
    nvm::PmemMemcpyPersist(*device_, off, copy, len);
  };

  {
    uint8_t region[kMarkerRegion];
    if (!device_->TryReadBytes(kMarkerOffset, region, sizeof(region)).ok()) {
      MetaMirror* m = get_mirror();
      if (m == nullptr) return corrupt("phase marker unreadable");
      restore("phase marker unreadable", kMarkerOffset, m->marker,
              sizeof(m->marker));
    }
  }
  nvm::PhaseMarker marker(device_, kMarkerOffset);
  const uint64_t committed = marker.LastCommittedPhase();
  if (committed < 1 || committed >= 2) return false;  // nothing to reuse

  auto pool = nvm::NvmPool::Open(device_, pool_base);
  if (!pool.ok()) {
    MetaMirror* m = get_mirror();
    if (m != nullptr) {
      restore("pool header corrupt", pool_base, m->pool_header,
              sizeof(m->pool_header));
      pool = nvm::NvmPool::Open(device_, pool_base);
    }
    if (!pool.ok()) return corrupt("pool header corrupt");
  }
  st->pool.emplace(std::move(pool).value());

  const uint64_t catalog_off = CatalogOffset(*st->pool);
  Catalog cat;
  const bool cat_ok =
      device_->TryReadBytes(catalog_off, &cat, sizeof(cat)).ok() &&
      cat.magic == kCatalogMagic && cat.checksum == CatalogChecksum(cat);
  if (!cat_ok) {
    MetaMirror* m = get_mirror();
    if (m == nullptr) return corrupt("catalog unreadable or corrupt");
    cat = m->catalog;
    restore("catalog unreadable or corrupt", catalog_off, &cat, sizeof(cat));
  }
  if (cat.signature != st->signature) {
    return false;  // a different run's state — stale, not corrupt
  }

  // Read the catalog back field for field (CatalogOf wrote it).
  const uint32_t nr = grammar.NumRules();
  const uint32_t nf = grammar.num_files;
  nvm::NvmPool* p = &*st->pool;
  st->dag.pruned = cat.pruned != 0;
  st->dag.num_rules = nr;
  st->dag.num_files = nf;
  st->dag.layout_order = grammar.TopologicalOrder();
  st->dag.rule_meta = NvmVector<RuleMeta>::Attach(p, cat.rule_meta_off, nr, nr);
  st->dag.seg_meta =
      NvmVector<SegmentMeta>::Attach(p, cat.seg_meta_off, nf, nf);
  if (st->use_queue) {
    st->queue = NvmVector<uint32_t>::Attach(p, cat.queue_off, nr, nr);
    st->indeg = NvmVector<uint32_t>::Attach(p, cat.indeg_off, nr, nr);
  }
  ForEachTable(*st, [&](int i, auto& t, const char*) {
    const TableRef& ref = cat.tables[i];
    t = std::decay_t<decltype(t)>::Attach(p, ref.status, ref.keys, ref.vals,
                                          ref.cap);
  });
  ForEachList(*st, [&](int i, NvmVector<ListMeta>& metas, uint64_t,
                       const char*) {
    metas = NvmVector<ListMeta>::Attach(p, cat.list_meta_off[i], nr, nr);
  });
  if (st->use_local_grams) {
    st->local_gram_meta =
        NvmVector<GramMeta>::Attach(p, cat.local_gram_meta_off, nr, nr);
    st->seg_gram_meta =
        NvmVector<GramMeta>::Attach(p, cat.seg_gram_meta_off, nf, nf);
  }
  st->cursor_off = cat.cursor_off;
  st->integrity_off = cat.integrity_off;
  st->dag.payload_begin = cat.payload_begin;
  st->dag.payload_end = cat.payload_end;
  st->gram_begin = cat.gram_begin;
  st->gram_end = cat.gram_end;
  // Scoped salvage rewrites blocks inside these extents, so they must be
  // sane before any repair trusts them.
  if (cat.payload_begin > cat.payload_end ||
      cat.payload_end > st->pool->top() ||
      (cat.payload_begin != 0 && cat.payload_begin < catalog_off) ||
      cat.gram_begin > cat.gram_end || cat.gram_end > st->pool->top()) {
    return corrupt("catalog payload extents out of bounds");
  }

  // Redo-log recovery runs before the media scrub and any repair: a
  // committed-but-unapplied step must land first, or a replayed cursor
  // could resurrect a resume point that repair just reset.
  if (options_.persistence == PersistenceMode::kOperation) {
    auto log = nvm::RedoLog::Open(device_, kMarkerRegion);
    if (!log.ok()) return corrupt("redo log header corrupt");
    st->log.emplace(std::move(log).value());
    const auto replayed = st->log->Recover();
    if (!replayed.ok()) return corrupt("redo log recovery failed");
  }

  // Media scrub before trusting any pool content; damaged blocks are
  // repaired in place (re-derived and remapped) when every damaged byte
  // is re-derivable, so a single bad block costs one object's repair
  // instead of a full restart.
  RegisterPoolOwners(p, *st);
  const auto scrub = st->pool->Scrub();
  if (!scrub.ok()) return corrupt("pool scrub failed");
  if (scrub.value().bad_blocks > 0) {
    if (!RepairDamage(st, scrub.value().damage)) {
      ses_->run_info.blocks_lost += scrub.value().bad_blocks;
      return corrupt("unrepairable media damage in pool");
    }
  }

  // Structural invariants: a torn flush in a list descriptor would
  // otherwise send WriteList to a wild offset. Descriptors are read as
  // one borrowed span (the scrub above already proved the pool readable,
  // so a span failure here is itself corruption).
  const uint64_t dev_cap = device_->capacity();
  const char* broken = nullptr;
  ForEachList(*st, [&](int, const NvmVector<ListMeta>& metas,
                       uint64_t entry_size, const char* name) {
    if (broken != nullptr) return;
    auto span = metas.ReadSpan(0, nr);
    if (!span.ok()) {
      broken = name;
      return;
    }
    const ListMeta* m = *span;
    for (uint32_t r = 0; r < nr && broken == nullptr; ++r) {
      if (m[r].size > m[r].capacity ||
          (m[r].capacity > 0 &&
           (m[r].off < catalog_off || m[r].off % alignof(uint64_t) != 0 ||
            m[r].off + m[r].capacity * entry_size > dev_cap))) {
        broken = name;
      }
    }
  });
  ForEachTable(*st, [&](int, const auto& t, const char* name) {
    if (broken == nullptr && !t.Validate().ok()) broken = name;
  });
  if (broken != nullptr) {
    return corrupt(std::string(broken) + " out of bounds or unreadable");
  }

  // End-to-end integrity: recompute the hash of everything the traversal
  // never mutates and compare with the record written at init commit.
  InitIntegrity ii;
  bool ii_ok = cat.integrity_off != 0 &&
               device_->TryReadBytes(cat.integrity_off, &ii, sizeof(ii)).ok() &&
               ii.magic == kIntegrityMagic &&
               ii.checksum == IntegrityChecksum(ii);
  if (!ii_ok && cat.integrity_off != 0) {
    // A degraded init writes an intentionally invalid record (magic 0);
    // its mirror copy is equally invalid, so this failover can never
    // bless an init that was sealed without a verified hash.
    MetaMirror* m = get_mirror();
    if (m != nullptr && m->integrity.magic == kIntegrityMagic &&
        m->integrity.checksum == IntegrityChecksum(m->integrity)) {
      ii = m->integrity;
      restore("init integrity record corrupt", cat.integrity_off, &ii,
              sizeof(ii));
      ii_ok = true;
    }
  }
  if (!ii_ok) return corrupt("init integrity record unreadable or corrupt");
  if (ii.init_top < catalog_off + sizeof(Catalog) ||
      ii.init_top > st->pool->top()) {
    return corrupt("init integrity bounds corrupt");
  }
  const auto hash = HashInitRegion(device_, *st, ii.init_top);
  if (!hash.ok()) return corrupt("immutable region unreadable");
  if (hash.value() != ii.region_hash) {
    return corrupt("immutable region hash mismatch (torn write or bit rot)");
  }

  ses_->run_info.init_phase_reused = 1;
  return true;
}

// Scoped salvage (the repair counterpart of TryAttach's detection): each
// damaged 256 B block is repaired by re-deriving every object it overlaps
// from the compressed container (payloads, local gram lists — byte-exact,
// so the init integrity hash still verifies), zeroing traversal state the
// next stage-0 pass rebuilds anyway, or restoring replicated metadata
// from the mirror. The healed contents are then moved to a spare block
// through the pool's remap table. Any damaged byte that fits none of
// those classes makes the block unrepairable and the caller salvages.
bool NTadocEngine::RepairDamage(
    State* st, const std::vector<nvm::NvmPool::Damage>& damage) {
  if (!st->pool || st->dag.num_rules == 0) return false;
  // Serving sessions serialize repairs on the pool-level lock: at most
  // one session rewrites (its private copy of) pool state at a time,
  // keeping repair burst load off the device model while siblings read.
  util::OptionalMutexLock repair_lk(options_.repair_lock.get());
  nvm::NvmPool& pool = *st->pool;
  const auto& grammar = corpus_->grammar;
  constexpr uint64_t kBlock = nvm::NvmPool::kMediaBlock;
  const uint64_t catalog_off = CatalogOffset(pool);
  const uint64_t top = pool.top();
  const uint32_t nr = st->dag.num_rules;
  const uint32_t nf = st->dag.num_files;

  // Object extents, computed once up front. Poisoned metadata reads come
  // back as zeros and contribute no extent; the blocks they would have
  // covered then fail the coverage check, which is the correct outcome
  // (metadata arrays are not re-derivable here).
  struct Obj {
    enum Kind : uint8_t { kRule, kSeg, kLocalGram, kSegGram };
    uint64_t begin, end;
    uint32_t id;
    Kind kind;
  };
  std::vector<Obj> objs;
  const ByteRange payloads{st->dag.payload_begin, st->dag.payload_end};
  const ByteRange grams{st->gram_begin, st->gram_end};
  auto add = [&objs](uint64_t off, uint64_t len, const ByteRange& region,
                     uint32_t id, Obj::Kind kind) {
    if (len > 0 && off >= region.begin && off + len <= region.end) {
      objs.push_back(Obj{off, off + len, id, kind});
    }
  };
  const uint64_t entry = st->dag.pruned ? sizeof(PrunedEntry) : sizeof(Symbol);
  for (uint32_t r = 1; r < nr; ++r) {
    const RuleMeta m = st->dag.rule_meta.Get(r);
    const uint64_t n = st->dag.pruned
                           ? uint64_t{m.num_subrules} + m.num_words
                           : uint64_t{m.raw_len};
    add(m.payload_off, n * entry, payloads, r, Obj::kRule);
  }
  for (uint32_t f = 0; f < nf; ++f) {
    const SegmentMeta m = st->dag.seg_meta.Get(f);
    add(m.payload_off, (uint64_t{m.num_subrules} + m.num_words) * entry,
        payloads, f, Obj::kSeg);
  }
  if (st->use_local_grams) {
    for (uint32_t r = 1; r < nr; ++r) {
      const GramMeta gm = st->local_gram_meta.Get(r);
      add(gm.off, gm.count * sizeof(GramEntry), grams, r, Obj::kLocalGram);
    }
    for (uint32_t f = 0; f < nf; ++f) {
      const GramMeta gm = st->seg_gram_meta.Get(f);
      add(gm.off, gm.count * sizeof(GramEntry), grams, f, Obj::kSegGram);
    }
  }

  const std::vector<ByteRange> mut = CollectMutableExtents(*st);

  // Gram re-derivation machinery, built only when a gram payload is
  // actually damaged (the head/tail table is the expensive part); the
  // lists come from the same LocalGrams init wrote them with.
  std::optional<tadoc::HeadTailTable> ht;
  std::optional<tadoc::WindowScanner> scanner;
  std::vector<std::pair<uint32_t, uint32_t>> segments;
  auto local_grams = [&](const Obj& o) -> std::vector<GramEntry> {
    if (!ht) {
      ht.emplace(tadoc::HeadTailTable::Build(grammar, st->opts.ngram));
      scanner.emplace(&*ht, st->opts.ngram);
      segments = grammar.RootSegments();
    }
    std::span<const Symbol> seq;
    if (o.kind == Obj::kLocalGram) {
      seq = grammar.rules[o.id];
    } else if (o.id < segments.size()) {
      const auto [begin, end] = segments[o.id];
      seq = std::span<const Symbol>(grammar.rules[0]).subspan(begin,
                                                              end - begin);
    }
    return LocalGrams(*scanner, seq);
  };

  const uint64_t cursor_b = st->cursor_off;
  const uint64_t cursor_e = st->cursor_off + 64;
  const uint64_t integ_b = st->integrity_off;
  const uint64_t integ_e = st->integrity_off + 64;
  bool cursor_reset = false;
  std::optional<MetaMirror> mirror;  // loaded on first metadata restore

  for (const nvm::NvmPool::Damage& d : damage) {
    ++ses_->run_info.corruption_detected;
    const uint64_t b0 = d.block_off;
    const uint64_t b1 = std::min(b0 + kBlock, top);
    if (b0 < pool.base() || b1 <= b0) {
      // The block holds the pool header (and the marker region below
      // it): not repairable at this layer.
      return false;
    }
    auto overlaps = [&](uint64_t a, uint64_t b) { return a < b1 && b > b0; };
    NTADOC_LOG(Warning) << "scoped repair of media block at " << b0
                        << " (owner: "
                        << (d.owner.empty() ? "unowned" : d.owner) << ")";

    // Plan coverage first: every damaged byte must be re-derivable,
    // resettable or restorable, or the caller has to salvage.
    std::vector<ByteRange> covered;
    auto cover = [&](uint64_t a, uint64_t b) {
      a = std::max(a, b0);
      b = std::min(b, b1);
      if (a < b) covered.push_back(ByteRange{a, b});
    };
    cover(catalog_off, catalog_off + sizeof(Catalog));
    cover(cursor_b, cursor_e);
    cover(integ_b, integ_e);
    cover(payloads.begin, payloads.end);
    cover(grams.begin, grams.end);
    for (const ByteRange& e : mut) cover(e.begin, e.end);
    std::sort(covered.begin(), covered.end(),
              [](const ByteRange& a, const ByteRange& b) {
                return a.begin < b.begin;
              });
    // Uncovered gaps overlapping a registered owner are immutable,
    // non-re-derivable structure (metadata arrays): unrepairable. Gaps
    // no owner claims are allocator padding — never written since the
    // pool was created, so rewriting zeros restores them byte-exactly
    // (the init integrity hash covers padding).
    std::vector<ByteRange> padding;
    uint64_t pos = b0;
    auto claim_gap = [&](uint64_t a, uint64_t b) {
      if (a >= b) return true;
      if (!pool.OwnerOf(a, b - a).empty()) return false;
      padding.push_back(ByteRange{a, b});
      return true;
    };
    for (const ByteRange& e : covered) {
      if (e.begin > pos && !claim_gap(pos, e.begin)) return false;
      pos = std::max(pos, e.end);
      if (pos >= b1) break;
    }
    if (pos < b1 && !claim_gap(pos, b1)) return false;

    // The steps below only store. Each line is flushed once, after its
    // last store (a store to a flushed line before its fence leaves the
    // persist order undefined): RemapBlock stores and flushes the block's
    // lines, and `outside` collects those full-object rewrites store
    // beyond the block.
    constexpr uint64_t kLine = nvm::PersistCheck::kLine;
    std::vector<uint64_t> outside;
    auto stored = [&](uint64_t a, uint64_t b) {
      for (uint64_t l = a / kLine; l <= (b - 1) / kLine; ++l) {
        if (l < b0 / kLine || l > (b1 - 1) / kLine) outside.push_back(l);
      }
    };
    auto store = [&](uint64_t off, const void* src, uint64_t len) {
      device_->WriteBytes(off, src, len);
      stored(off, off + len);
    };

    // Reset baseline: zero the damaged slices of the payload/gram
    // regions (restores allocator padding to its never-written state)
    // and of the mutable traversal extents (the next stage-0 pass
    // rebuilds those from init-phase data anyway).
    auto zero = [&](uint64_t a, uint64_t b) {
      static constexpr uint8_t kZeros[nvm::NvmPool::kMediaBlock] = {};
      a = std::max(a, b0);
      b = std::min(b, b1);
      if (a < b) store(a, kZeros, b - a);
    };
    zero(payloads.begin, payloads.end);
    zero(grams.begin, grams.end);
    for (const ByteRange& e : padding) zero(e.begin, e.end);
    for (const ByteRange& e : mut) {
      // The cursor and integrity slots get real contents below.
      if (e.begin >= cursor_b && e.end <= cursor_e) continue;
      if (e.begin >= integ_b && e.end <= integ_e) continue;
      if (overlaps(e.begin, e.end)) {
        zero(e.begin, e.end);
        cursor_reset = true;
      }
    }

    // Re-derive every object the block overlaps. Full-object rewrites:
    // byte-exact reproductions of what init wrote, so the integrity hash
    // still verifies afterward.
    for (const Obj& o : objs) {
      if (!overlaps(o.begin, o.end)) continue;
      switch (o.kind) {
        case Obj::kRule:
          if (!RederiveRulePayload(grammar, st->dag, &pool, o.id).ok()) {
            return false;
          }
          stored(o.begin, o.end);
          break;
        case Obj::kSeg:
          if (!RederiveSegmentPayload(grammar, st->dag, &pool, o.id).ok()) {
            return false;
          }
          stored(o.begin, o.end);
          break;
        case Obj::kLocalGram:
        case Obj::kSegGram: {
          const std::vector<GramEntry> entries = local_grams(o);
          if (entries.size() * sizeof(GramEntry) != o.end - o.begin) {
            return false;  // metadata inconsistent with re-derivation
          }
          store(o.begin, entries.data(), o.end - o.begin);
          break;
        }
      }
    }

    // Restore replicated metadata the block overlaps.
    if (overlaps(cursor_b, cursor_e)) {
      const CursorSlot start = SlotOf(Cursor{});
      store(st->cursor_off, &start, sizeof(start));
      cursor_reset = true;
    }
    if (overlaps(catalog_off, catalog_off + sizeof(Catalog)) ||
        overlaps(integ_b, integ_e)) {
      if (!mirror) mirror = ReadMetaMirror(device_, st->signature);
      if (!mirror) return false;
      if (overlaps(catalog_off, catalog_off + sizeof(Catalog))) {
        store(catalog_off, &mirror->catalog, sizeof(Catalog));
      }
      if (overlaps(integ_b, integ_e)) {
        if (mirror->integrity.magic != kIntegrityMagic) return false;
        store(st->integrity_off, &mirror->integrity, sizeof(InitIntegrity));
      }
    }

    // The stores above healed the block (the emulated controller
    // rewrites whole ECC blocks on a store) and untouched bytes keep
    // their original contents; read the authoritative block back, still
    // unflushed, and move it to a spare. A read that still fails means
    // the media is dead beyond remapping (degraded-mode territory).
    uint8_t buf[nvm::NvmPool::kMediaBlock];
    if (!device_->TryReadBytes(b0, buf, b1 - b0).ok()) return false;
    device_->FlushLines(outside);  // durable at the remap's first fence
    const auto slot = pool.RemapBlock(b0, buf, b1 - b0, st->tx_log());
    if (!slot.ok()) return false;  // out of spares / remap table full
    ++ses_->run_info.blocks_remapped;
    ++ses_->run_info.scoped_repairs;
  }
  device_->Drain();

  if (cursor_reset) {
    // Zero-filled traversal state invalidates any resume point: restart
    // the traversal from stage 0 against the repaired init state.
    AbortToPhaseStart(device_, st->tx_log(), st->cursor_off);
  }
  // The repair rewrote pool payloads under the offsets the decoded-rule
  // cache is keyed by; drop it before anything replays a stale entry.
  InvalidateRuleCache();
  return true;
}

// Mid-run repair: the traversal hit an unreadable block. Scrub the pool
// to find all current damage and repair it in place so the run can
// re-attach and resume instead of restarting from the container.
bool NTadocEngine::TryScopedRepair() {
  if (!ses_->state || !ses_->state->pool) return false;
  State* st = ses_->state.get();
  RegisterPoolOwners(&*st->pool, *st);
  const auto scrub = st->pool->Scrub();
  if (!scrub.ok()) return false;
  if (scrub.value().bad_blocks == 0) return false;  // damage not in pool
  return RepairDamage(st, scrub.value().damage);
}

std::pair<uint64_t, uint64_t> NTadocEngine::payload_region() const {
  if (!ses_->state) return {0, 0};
  return {ses_->state->dag.payload_begin, ses_->state->dag.payload_end};
}

std::pair<uint64_t, uint64_t> NTadocEngine::gram_region() const {
  if (!ses_->state) return {0, 0};
  return {ses_->state->gram_begin, ses_->state->gram_end};
}

Status NTadocEngine::InitPhase(Task task, const AnalyticsOptions& opts,
                               State* st, bool force_fresh) {
  const auto& grammar = corpus_->grammar;
  // A session-owned cache is keyed by (kind, id) against the pool this
  // phase lays out; anything decoded from a previous attempt (or a
  // salvaged pool) is stale now. A shared cache is NOT cleared here:
  // concurrent sessions init private clones of one deterministic sealed
  // layout, so cross-session entries stay valid until a repair/salvage
  // explicitly invalidates them.
  if (ses_->rule_cache != nullptr && options_.shared_cache == nullptr) {
    ses_->rule_cache->Invalidate();
  }
  st->task = task;
  st->opts = opts;
  st->strategy =
      tadoc::ResolveStrategy(options_.traversal, task, corpus_->num_files());
  st->signature =
      ComputeSignature(*corpus_, task, opts, st->strategy, options_);

  const bool seq = tadoc::IsSequenceTask(task);
  const bool per_file = tadoc::IsPerFileTask(task);
  const bool bottom_up = st->strategy == TraversalStrategy::kBottomUp;

  st->use_local_grams = seq;
  if (bottom_up) {
    st->use_word_lists = !seq;
    st->use_gram_lists = seq;
    st->use_word_table = task == Task::kWordCount || task == Task::kSort;
    st->use_gram_table = task == Task::kSequenceCount;
  } else {
    st->use_queue = !per_file;
    st->use_word_table = task == Task::kWordCount || task == Task::kSort;
    st->use_gram_table = task == Task::kSequenceCount;
    st->use_file_table =
        task == Task::kTermVector || task == Task::kInvertedIndex;
    st->use_file_gram_table = task == Task::kRankedInvertedIndex;
  }

  const uint64_t pool_base =
      kMarkerRegion + (options_.persistence == PersistenceMode::kOperation
                         ? options_.redo_log_bytes
                         : 0);
  // Persistent runs reserve the device tail for the metadata mirror.
  uint64_t pool_size =
      device_->capacity() - pool_base -
      (options_.persistence != PersistenceMode::kNone ? kMirrorRegion : 0);
  if (options_.tiering != nullptr) {
    // Tiered runs additionally reserve the durable placement region
    // between the pool end and the mirror. The reserve is deterministic
    // from options, so an attach recomputes the identical layout.
    const uint64_t reserve =
        nvm::TieredPool::PlacementReserve(*options_.tiering);
    if (pool_size <= 2 * reserve) {
      return Status::InvalidArgument(
          "device too small for a tiered placement region");
    }
    pool_size -= reserve;
    if (ses_->tiered == nullptr) {
      NTADOC_ASSIGN_OR_RETURN(
          ses_->tiered,
          nvm::TieredPool::Make(device_, pool_base + pool_size, reserve,
                                *options_.tiering));
      device_->set_tier_router(ses_->tiered.get());
    }
  }

  // Shared init prefix, if one applies: a RunBatch-local prefix from an
  // earlier task of this batch takes priority; otherwise a SealedPrefix
  // captured over the image this session's device was cloned from. Both
  // replace the expensive task-independent half of this phase — the
  // container load, the pruned DAG build, and the estimator's payload
  // reads.
  const BatchShared* reuse_src = nullptr;
  if (!force_fresh) {
    if (ses_->batch_shared && ses_->batch_shared->valid &&
        ses_->batch_shared->pool_base == pool_base) {
      reuse_src = ses_->batch_shared.get();
    } else if (const SealedPrefix* sp = options_.sealed_prefix.get();
               sp != nullptr && sp->shared_ != nullptr &&
               sp->shared_->valid && sp->corpus_ == corpus_ &&
               sp->pruned_ == options_.enable_pruning &&
               sp->persistence_ == options_.persistence &&
               (sp->persistence_ != PersistenceMode::kOperation ||
                sp->redo_log_bytes_ == options_.redo_log_bytes) &&
               sp->container_generation_ == options_.container_generation &&
               sp->shared_->pool_base == pool_base) {
      reuse_src = sp->shared_.get();
    }
  }
  // True only for the mutable RunBatch prefix: a sealed prefix is shared
  // read-only across sessions and must never be written through.
  const bool own_reuse = reuse_src != nullptr &&
                         reuse_src == ses_->batch_shared.get();

  // ---- Attach path: a completed, signature-matching init is reused ----
  // Skipped when a shared prefix applies: the prefix already proves the
  // image's init half, and per-task structures are reallocated anyway.
  if (!force_fresh && reuse_src == nullptr) {
    NTADOC_ASSIGN_OR_RETURN(const bool attached, TryAttach(st, pool_base));
    if (attached) return SetupTiering(st, /*fresh=*/false);
  }

  // ---- Fresh initialization ----
  const bool batch_reuse = reuse_src != nullptr;
  // The local-gram region extends the reusable prefix only when it was
  // laid down for the same n and nothing allocated over it since.
  const bool gram_reuse = batch_reuse && st->use_local_grams &&
                          reuse_src->gram_valid &&
                          reuse_src->gram_ngram == opts.ngram;
  const uint64_t init_sim_t0 = device_->clock().NowNanos();
  nvm::PhaseMarker marker(device_, kMarkerOffset);
  if (!batch_reuse) {
    // Reading the compressed container from the source disk (the paper
    // times dataset loading; N-TADOC reads the compressed representation).
    uint64_t container_bytes =
        grammar.TotalSymbols() * sizeof(Symbol) + 16 * grammar.NumRules();
    for (compress::WordId w = 0; w < corpus_->dict.size(); ++w) {
      container_bytes += corpus_->dict.Spell(w).size() + 4;
    }
    device_->clock().Charge(static_cast<uint64_t>(
        container_bytes * nvm::kSourceDiskNsPerByte));
  }
  marker.Format();
  if (options_.persistence == PersistenceMode::kOperation) {
    NTADOC_ASSIGN_OR_RETURN(
        auto log,
        nvm::RedoLog::Create(device_, kMarkerRegion, options_.redo_log_bytes));
    st->log.emplace(std::move(log));
  }
  if (batch_reuse) {
    // Re-open the pool over the previous task's layout and roll the bump
    // pointer back to the end of the shared prefix; the catalog slot and
    // the pruned DAG stay in place, everything later is reallocated.
    NTADOC_ASSIGN_OR_RETURN(auto pool,
                            nvm::NvmPool::Open(device_, pool_base));
    st->pool.emplace(std::move(pool));
    NTADOC_RETURN_IF_ERROR(st->pool->ResetTopTo(
        gram_reuse ? reuse_src->gram_top : reuse_src->dag_top));
    // A non-sequence task allocates over the gram region, invalidating
    // the extension — but only for the mutable batch prefix; a sealed
    // prefix's sessions each overwrite a private device clone, never the
    // shared image.
    if (!gram_reuse && own_reuse) ses_->batch_shared->gram_valid = false;
    st->dag = reuse_src->dag;
    st->dag.rule_meta = NvmVector<RuleMeta>::Attach(
        &*st->pool, reuse_src->dag.rule_meta.offset(),
        reuse_src->dag.rule_meta.capacity(),
        reuse_src->dag.rule_meta.size());
    st->dag.seg_meta = NvmVector<SegmentMeta>::Attach(
        &*st->pool, reuse_src->dag.seg_meta.offset(),
        reuse_src->dag.seg_meta.capacity(),
        reuse_src->dag.seg_meta.size());
    ses_->run_info.prune = reuse_src->prune;
    ++ses_->run_info.batch_init_reuses;
    // Satellite (b): report the shared cost this run consumed without
    // paying it, so batch/serving tasks stay cost-comparable.
    ses_->init_shared = true;
    ses_->shared_init_sim_ns =
        reuse_src->shared_sim_ns +
        (gram_reuse ? reuse_src->gram_sim_ns : 0);
  } else {
    // Persistent pools carry spare blocks + a remap table so single-block
    // media failures can be repaired in place instead of restarting.
    nvm::PoolOptions pool_opts;
    if (options_.persistence != PersistenceMode::kNone) {
      pool_opts.spare_blocks =
          pool_size >= (1ull << 20) ? 64
                                    : (pool_size >= (64ull << 10) ? 8 : 0);
    }
    NTADOC_ASSIGN_OR_RETURN(
        auto pool, nvm::NvmPool::Create(device_, pool_base, pool_size,
                                        pool_opts));
    st->pool.emplace(std::move(pool));
    NTADOC_ASSIGN_OR_RETURN(const nvm::PoolOffset catalog_off,
                            st->pool->Alloc(sizeof(Catalog), 64));
    NTADOC_DCHECK_EQ(catalog_off, CatalogOffset(*st->pool));

    // Pruning with NVM pool management (Algorithm 1).
    NTADOC_ASSIGN_OR_RETURN(
        st->dag, BuildPrunedDag(grammar, &*st->pool, options_.enable_pruning,
                                &ses_->run_info.prune));
    if (ses_->batch_shared) {
      ses_->batch_shared->pool_base = pool_base;
      ses_->batch_shared->dag_top = st->pool->top();
      ses_->batch_shared->dag = st->dag;
      ses_->batch_shared->prune = ses_->run_info.prune;
      ses_->batch_shared->gram_valid = false;
    }
  }
  const uint32_t nr = grammar.NumRules();
  const uint32_t nf = grammar.num_files;

  // Algorithm 2's host-side scratch: taken from the shared prefix (it
  // depends only on the grammar and the pruning setting, never on the
  // task, so reuse touches no device), or derived from the payloads.
  Estimates derived;
  const Estimates& est = batch_reuse ? reuse_src->est : derived;
  if (!batch_reuse) {
    Estimates& e = derived;
    e.children.resize(nr);
    e.own_words.assign(nr, 0);
    e.own_len.assign(nr, 0);
    for (uint32_t r = 1; r < nr; ++r) {
      NTADOC_RETURN_IF_ERROR(CheckSessionLimits());
      const DecodedPayload p = ReadPayloadCached(st, /*segment=*/false, r);
      e.children[r] = p.subrules;
      if (!st->dag.pruned) CombineEntries(&e.children[r]);
      // Distinct own words (pruned payloads are already unique).
      if (st->dag.pruned) {
        e.own_words[r] = p.words.size();
        for (const auto& [w, f] : p.words) {
          (void)w;
          e.own_len[r] += f;
        }
      } else {
        auto w = p.words;
        e.own_len[r] = w.size();
        CombineEntries(&w);
        e.own_words[r] = w.size();
      }
    }
    // Poisoned payload reads above would feed garbage rule ids into the
    // estimator's index arithmetic; stop here if any read failed.
    NTADOC_RETURN_IF_ERROR(CheckMediaErrors());

    // Expansion lengths (occurrence counts), children first: a structure
    // can never hold more entries than the expansion has tokens, so these
    // sharpen the distinct-item bounds below.
    e.explen.assign(nr, 0);
    for (auto it = st->dag.layout_order.rbegin();
         it != st->dag.layout_order.rend(); ++it) {
      const uint32_t r = *it;
      if (r == 0) continue;
      e.explen[r] = e.own_len[r];
      for (const auto& [child, freq] : e.children[r]) {
        e.explen[r] += e.explen[child] * freq;
      }
    }

    // Bottom-up summation (Algorithm 2): distinct-word upper bounds,
    // capped by the expansion length and the dictionary size.
    e.word_ub = BottomUpSummation(e.children, e.own_words);
    for (uint32_t r = 0; r < nr; ++r) {
      e.word_ub[r] = std::min<uint64_t>(
          std::min<uint64_t>(e.word_ub[r], grammar.dict_size),
          r == 0 ? e.word_ub[r] : std::max<uint64_t>(e.explen[r], 1));
    }

    // Segment bounds, capped by the segment's expansion length.
    e.seg_word_ub.assign(nf, 0);
    e.seg_explen.assign(nf, 0);
    e.seg_own_distinct.assign(nf, 0);
    e.seg_children.assign(nf, {});
    for (uint32_t f = 0; f < nf; ++f) {
      NTADOC_RETURN_IF_ERROR(CheckSessionLimits());
      DecodedPayload p = ReadPayloadCached(st, /*segment=*/true, f);
      NTADOC_RETURN_IF_ERROR(CheckMediaErrors());
      if (!st->dag.pruned) {
        CombineEntries(&p.subrules);
        CombineEntries(&p.words);
      }
      e.seg_children[f] = p.subrules;
      e.seg_own_distinct[f] = p.words.size();
      uint64_t own = 0;
      for (const auto& [w, freq] : p.words) {
        (void)w;
        own += freq;
      }
      e.seg_explen[f] = own;
      for (const auto& [child, freq] : p.subrules) {
        e.seg_explen[f] += e.explen[child] * freq;
      }
      e.seg_word_ub[f] = std::min<uint64_t>(
          std::min<uint64_t>(
              SpanUpperBound(p.subrules, p.words.size(), e.word_ub),
              grammar.dict_size),
          std::max<uint64_t>(e.seg_explen[f], 1));
    }
    if (ses_->batch_shared) {
      ses_->batch_shared->est = derived;
      ses_->batch_shared->valid = true;
      // Everything charged since init_sim_t0 is the shared portion
      // (container load, DAG build, estimator reads); per-task costs
      // start after this capture point.
      ses_->batch_shared->shared_sim_ns =
          device_->clock().NowNanos() - init_sim_t0;
    }
  }

  // Sequence support: local boundary windows per rule / segment, stored
  // as pool payloads (order information preserved via head/tail
  // preprocessing — Section IV-D).
  std::vector<uint64_t> gram_ub;
  if (gram_reuse) {
    // The gram lists sit directly after the DAG in the shared prefix,
    // written by an earlier task of the same batch for the same n;
    // re-attach to them instead of scanning the grammar again.
    st->local_gram_meta = NvmVector<GramMeta>::Attach(
        &*st->pool, reuse_src->local_gram_meta_off, nr, nr);
    st->seg_gram_meta = NvmVector<GramMeta>::Attach(
        &*st->pool, reuse_src->seg_gram_meta_off, nf, nf);
    st->gram_begin = reuse_src->gram_begin;
    st->gram_end = reuse_src->gram_end;
    gram_ub = reuse_src->gram_ub;
  } else if (st->use_local_grams) {
    const uint64_t gram_sim_t0 = device_->clock().NowNanos();
    const tadoc::HeadTailTable ht =
        tadoc::HeadTailTable::Build(grammar, opts.ngram);
    tadoc::WindowScanner scanner(&ht, opts.ngram);
    NTADOC_ASSIGN_OR_RETURN(st->local_gram_meta,
                            NvmVector<GramMeta>::Create(&*st->pool, nr));
    st->local_gram_meta.Resize(nr);
    NTADOC_ASSIGN_OR_RETURN(st->seg_gram_meta,
                            NvmVector<GramMeta>::Create(&*st->pool, nf));
    st->seg_gram_meta.Resize(nf);
    st->gram_begin = st->pool->top();
    std::vector<uint64_t> own_grams(nr, 0);

    // Allocates and writes one local list; scoped repair re-derives the
    // same bytes through LocalGrams.
    auto write_local = [&](std::span<const Symbol> seq) -> Result<GramMeta> {
      const std::vector<GramEntry> entries = LocalGrams(scanner, seq);
      NTADOC_ASSIGN_OR_RETURN(
          const nvm::PoolOffset off,
          st->pool->template AllocArray<GramEntry>(entries.size()));
      // One staged bulk store instead of a store per entry; the quantum
      // keeps the charged cost identical to the per-entry loop.
      if (!entries.empty()) {
        device_->WriteBytes(off, entries.data(),
                            entries.size() * sizeof(GramEntry),
                            /*quantum=*/sizeof(GramEntry));
      }
      return GramMeta{off, entries.size()};
    };

    for (uint32_t r : st->dag.layout_order) {
      if (r == 0) continue;
      NTADOC_RETURN_IF_ERROR(CheckSessionLimits());
      NTADOC_ASSIGN_OR_RETURN(const GramMeta gm, write_local(grammar.rules[r]));
      st->local_gram_meta.Set(r, gm);
      own_grams[r] = gm.count;
    }
    const std::span<const Symbol> root(grammar.rules[0]);
    const auto segments = grammar.RootSegments();
    for (uint32_t f = 0; f < segments.size(); ++f) {
      const auto [begin, end] = segments[f];
      NTADOC_ASSIGN_OR_RETURN(const GramMeta gm,
                              write_local(root.subspan(begin, end - begin)));
      st->seg_gram_meta.Set(f, gm);
    }
    st->gram_end = st->pool->top();
    gram_ub = BottomUpSummation(est.children, own_grams);
    for (uint32_t r = 1; r < nr; ++r) {
      gram_ub[r] = std::min<uint64_t>(gram_ub[r],
                                      std::max<uint64_t>(est.explen[r], 1));
    }
    // Written right after the DAG (nothing allocated between), so the
    // reusable prefix can extend over the gram region for later sequence
    // tasks of this batch.
    if (ses_->batch_shared) {
      ses_->batch_shared->gram_valid = ses_->batch_shared->valid;
      ses_->batch_shared->gram_ngram = opts.ngram;
      ses_->batch_shared->gram_top = st->pool->top();
      ses_->batch_shared->local_gram_meta_off = st->local_gram_meta.offset();
      ses_->batch_shared->seg_gram_meta_off = st->seg_gram_meta.offset();
      ses_->batch_shared->gram_begin = st->gram_begin;
      ses_->batch_shared->gram_end = st->gram_end;
      ses_->batch_shared->gram_ub = gram_ub;
      ses_->batch_shared->gram_sim_ns =
          device_->clock().NowNanos() - gram_sim_t0;
    }
  }

  // Traversal structures, allocated once at their estimated bounds.
  if (st->use_queue) {
    NTADOC_ASSIGN_OR_RETURN(st->queue,
                            NvmVector<uint32_t>::Create(&*st->pool, nr));
    st->queue.Resize(nr);
    NTADOC_ASSIGN_OR_RETURN(st->indeg,
                            NvmVector<uint32_t>::Create(&*st->pool, nr));
    st->indeg.Resize(nr);
  }

  const uint64_t small = options_.enable_summation ? 0 : 8;
  uint64_t total_tokens = 0;
  for (uint64_t e : est.seg_explen) total_tokens += e;

  // Tight per-file bound: sum of per-rule item counts over the file's
  // *reachable rule set* (a rule contributes distinct items once, no
  // matter how often it occurs).
  std::vector<uint8_t> reach_seen(nr, 0);
  auto reachable_sum =
      [&](const std::vector<std::pair<uint32_t, uint32_t>>& roots,
          const std::vector<uint64_t>& own) {
        std::vector<uint32_t> stack;
        std::vector<uint32_t> visited;
        uint64_t total = 0;
        for (const auto& [c, f] : roots) {
          (void)f;
          if (!reach_seen[c]) {
            reach_seen[c] = 1;
            stack.push_back(c);
            visited.push_back(c);
          }
        }
        while (!stack.empty()) {
          const uint32_t r = stack.back();
          stack.pop_back();
          total += own[r];
          for (const auto& [c, f] : est.children[r]) {
            (void)f;
            if (!reach_seen[c]) {
              reach_seen[c] = 1;
              stack.push_back(c);
              visited.push_back(c);
            }
          }
        }
        for (uint32_t v : visited) reach_seen[v] = 0;
        return total;
      };
  // The gram tables' bounds need each rule's and segment's local n-gram
  // count, read back from the gram metadata as borrowed spans (charged
  // like per-element loops; no other table's allocation precedes them,
  // since only sequence tasks have gram tables). An unreadable block
  // contributes 0 and the media check at the end of InitPhase turns the
  // poisoned estimate into a salvage.
  std::vector<uint64_t> rule_grams(nr, 0);
  std::vector<uint64_t> seg_grams(nf, 0);
  if (st->use_gram_table || st->use_file_gram_table) {
    if (nr > 1) {
      if (auto span = st->local_gram_meta.ReadSpan(1, nr - 1); span.ok()) {
        for (uint32_t r = 1; r < nr; ++r) rule_grams[r] = (*span)[r - 1].count;
      }
    }
    if (nf > 0) {
      if (auto span = st->seg_gram_meta.ReadSpan(0, nf); span.ok()) {
        for (uint32_t f = 0; f < nf; ++f) seg_grams[f] = (*span)[f].count;
      }
    }
  }
  if (st->use_word_table) {
    uint64_t expected = 0;
    for (uint64_t ub : est.seg_word_ub) expected += ub;
    expected = std::min<uint64_t>(
        std::min<uint64_t>(expected, grammar.dict_size), total_tokens);
    NTADOC_ASSIGN_OR_RETURN(
        st->word_table,
        WordTable::Create(&*st->pool, small ? small : expected));
  }
  if (st->use_gram_table) {
    uint64_t expected = 0;
    for (uint64_t n : rule_grams) expected += n;
    for (uint64_t n : seg_grams) expected += n;
    expected = std::min<uint64_t>(expected, total_tokens);
    NTADOC_ASSIGN_OR_RETURN(
        st->gram_table,
        GramTable::Create(&*st->pool, small ? small : expected));
  }
  if (st->use_file_table) {
    uint64_t expected = 0;
    for (uint32_t f = 0; f < nf; ++f) {
      uint64_t root_items = 0;
      if (batch_reuse) {
        // The shared scratch already holds this segment's combined
        // adjacency and distinct-word count; no device reads needed.
        root_items = reachable_sum(est.seg_children[f], est.own_words) +
                     est.seg_own_distinct[f];
      } else {
        DecodedPayload p = ReadPayloadCached(st, /*segment=*/true, f);
        NTADOC_RETURN_IF_ERROR(CheckMediaErrors());
        if (!st->dag.pruned) {
          CombineEntries(&p.subrules);
          CombineEntries(&p.words);
        }
        root_items = reachable_sum(p.subrules, est.own_words) + p.words.size();
      }
      const uint64_t file_bound = std::min<uint64_t>(
          std::min<uint64_t>(root_items, est.seg_word_ub[f]),
          std::max<uint64_t>(est.seg_explen[f], 1));
      expected = std::max(expected, file_bound);
    }
    NTADOC_ASSIGN_OR_RETURN(
        st->file_table,
        WordTable::Create(&*st->pool, small ? small : expected));
  }
  if (st->use_file_gram_table) {
    uint64_t expected = 0;
    for (uint32_t f = 0; f < nf; ++f) {
      const uint64_t file_bound = std::min<uint64_t>(
          reachable_sum(est.seg_children[f], rule_grams) + seg_grams[f],
          std::max<uint64_t>(est.seg_explen[f], 1));
      expected = std::max(expected, file_bound);
    }
    NTADOC_ASSIGN_OR_RETURN(
        st->file_gram_table,
        GramTable::Create(&*st->pool, small ? small : expected));
  }
  // Bottom-up lists: one pool allocation per rule at its bound (a small
  // starting allocation in the no-summation ablation); the root has none.
  static_assert(alignof(WordEntry) == 8 && alignof(GramEntry) == 8,
                "list entries are allocated 8-byte aligned");
  auto alloc_lists = [&](NvmVector<ListMeta>* metas,
                         const std::vector<uint64_t>& ub,
                         uint64_t entry_size) -> Status {
    NTADOC_ASSIGN_OR_RETURN(*metas,
                            NvmVector<ListMeta>::Create(&*st->pool, nr));
    metas->Resize(nr);
    for (uint32_t r = 0; r < nr; ++r) {
      const uint64_t capn =
          r == 0 ? 0
                 : (options_.enable_summation
                        ? ub[r]
                        : std::min<uint64_t>(8, std::max<uint64_t>(1, ub[r])));
      nvm::PoolOffset off = nvm::kNullPoolOffset;
      if (capn > 0) {
        NTADOC_ASSIGN_OR_RETURN(off, st->pool->Alloc(capn * entry_size, 8));
      }
      metas->Set(r, ListMeta{off, capn, 0});
    }
    return Status::OK();
  };
  if (st->use_word_lists) {
    NTADOC_RETURN_IF_ERROR(
        alloc_lists(&st->word_list_meta, est.word_ub, sizeof(WordEntry)));
  }
  if (st->use_gram_lists) {
    NTADOC_RETURN_IF_ERROR(
        alloc_lists(&st->gram_list_meta, gram_ub, sizeof(GramEntry)));
  }

  NTADOC_ASSIGN_OR_RETURN(st->cursor_off,
                          st->pool->Alloc(sizeof(CursorSlot), 64));
  device_->Write(st->cursor_off, SlotOf(Cursor{}));

  NTADOC_ASSIGN_OR_RETURN(st->integrity_off,
                          st->pool->Alloc(sizeof(InitIntegrity), 64));

  const Catalog cat = CatalogOf(*st);
  device_->Write(CatalogOffset(*st->pool), cat);

  // Seal the init phase: hash everything the traversal never mutates so
  // recovery can prove the re-attached state is bit-exact.
  InitIntegrity ii{};
  if (options_.persistence != PersistenceMode::kNone) {
    ii.magic = kIntegrityMagic;
    ii.init_top = st->pool->top();
    const auto hash = HashInitRegion(device_, *st, ii.init_top);
    if (hash.ok()) {
      ii.region_hash = hash.value();
    } else if (ses_->degraded) {
      // Part of the immutable region is permanently unreadable, so no
      // honest hash exists. Seal with an intentionally invalid record:
      // a later attach can never trust a degraded init.
      ii.magic = 0;
      ++ses_->degraded_events;
    } else {
      return hash.status();
    }
    ii.checksum = IntegrityChecksum(ii);
    device_->Write(st->integrity_off, ii);
  }

  NTADOC_RETURN_IF_ERROR(SetupTiering(st, /*fresh=*/true));

  // Never commit an init phase built from poisoned reads.
  NTADOC_RETURN_IF_ERROR(CheckMediaErrors());

  if (options_.crash_in_init) {
    device_->SimulateCrash();
    return Status::Internal("injected crash during initialization");
  }

  // Phase boundary: persist everything written so far, then the marker,
  // then the replicated metadata (whose images must reflect the
  // committed state they will restore).
  if (options_.persistence != PersistenceMode::kNone) {
    st->pool->PersistAll();
    CommitPhase(1);
    WriteMetaMirror(device_, st->signature, pool_base, cat, ii);
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
    // One sort puts every n-gram's postings together in RankPostings
    // order: count descending, ties by file ascending.
    std::sort(gram_postings_.begin(), gram_postings_.end(),
              [](const GramPosting& a, const GramPosting& b) {
                if (a.key != b.key) return a.key < b.key;
                if (a.count != b.count) return a.count > b.count;
                return a.file < b.file;
              });
    for (size_t i = 0; i < gram_postings_.size();) {
      const NgramKey& key = gram_postings_[i].key;
      size_t j = i;
      while (j < gram_postings_.size() && gram_postings_[j].key == key) ++j;
      std::vector<std::pair<uint32_t, uint64_t>> ranked;
      ranked.reserve(j - i);
      for (; i < j; ++i) {
        ranked.emplace_back(gram_postings_[i].file, gram_postings_[i].count);
      }
      out_.ranked_index.emplace_back(key, std::move(ranked));
    }
    return std::move(out_);
  }

 private:
  struct GramPosting {
    NgramKey key;
    uint32_t file;
    uint64_t count;
  };

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
      w.WriteValue(st->dag.rule_meta.ElementOffset(child) + weight_field,
                   cm.weight + wr * freq);
      st->rule_meta_dirty = true;
      const uint32_t dec = st->dag.pruned ? 1u : freq;
      const uint32_t in = st->indeg.Get(child);
      if (in < dec) {
        return Status::DataLoss("in-degree underflow (corrupt metadata)");
      }
      w.WriteValue(st->indeg.ElementOffset(child), in - dec);
      if (in - dec == 0) {
        if (st->qtail >= nr) {
          return Status::DataLoss("traversal queue overflow (corrupt state)");
        }
        w.WriteValue(st->queue.ElementOffset(st->qtail),
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

// ---------------------------------------------------------------------------
// Run
// ---------------------------------------------------------------------------

Result<AnalyticsOutput> NTadocEngine::Run(Task task,
                                          const AnalyticsOptions& opts,
                                          RunMetrics* metrics) {
  if (opts.ngram < 2 || opts.ngram > NgramKey::kMaxNgram) {
    return Status::InvalidArgument("ngram must be in [2, 4]");
  }
  if (opts.top_k == 0) {
    return Status::InvalidArgument("top_k must be > 0");
  }
  if (options_.persistence == PersistenceMode::kOperation &&
      !options_.enable_summation) {
    return Status::InvalidArgument(
        "operation-level persistence requires the summation estimator");
  }
  ses_->run_info = NTadocRunInfo();
  // Arm the session deadline as an absolute lane-clock timestamp; every
  // cancellation point compares against it, including repair/salvage
  // attempts (they run on the same clock).
  ses_->deadline_ns =
      options_.deadline_sim_ns == 0
          ? 0
          : device_->clock().NowNanos() + options_.deadline_sim_ns;

  // Repair/salvage loop. Detected corruption (DataLoss) escalates in
  // order of blast radius:
  //   1. scoped repair — re-derive + remap just the damaged blocks and
  //      resume (attach-path damage is repaired inside TryAttach; this
  //      loop handles damage the traversal trips over);
  //   2. salvage restart — discard the persisted state and rebuild from
  //      the still-valid compressed container;
  //   3. degraded mode (opt-in) — complete the query treating unreadable
  //      media as empty, reporting completeness < 1.
  // Injected crashes (Internal) are never salvaged — they model real
  // power loss and must surface to the caller.
  ses_->degraded = false;
  ses_->degraded_events = 0;
  const uint64_t transient0 = device_->transient_retry_count();
  // The tiered pool may not exist yet at Run() entry (it is created inside
  // InitPhase on the first Run); a null pool contributes zero baselines.
  nvm::TierCounters tier0;
  if (ses_->tiered != nullptr) tier0 = ses_->tiered->counters();
  bool force_fresh = false;
  uint32_t salvage_attempts = 0;
  uint32_t scoped_attempts = 0;
  WallTimer timer;

  auto finish_info = [&] {
    ses_->run_info.transient_retries =
        device_->transient_retry_count() - transient0;
    if (ses_->tiered != nullptr) {
      const nvm::TierCounters tc = ses_->tiered->counters();
      ses_->run_info.promotions = tc.promotions - tier0.promotions;
      ses_->run_info.demotions = tc.demotions - tier0.demotions;
      ses_->run_info.migration_epochs =
          tc.migration_epochs - tier0.migration_epochs;
      ses_->run_info.tier_resident_bytes = tc.resident_bytes;
    }
    if (ses_->degraded && ses_->degraded_events > 0) {
      ses_->run_info.degraded_queries = 1;
      const uint64_t steps = ses_->run_info.traversal_steps;
      ses_->run_info.completeness =
          steps == 0 ? 0.0
                     : 1.0 - static_cast<double>(
                                 std::min(ses_->degraded_events, steps)) /
                                 static_cast<double>(steps);
    }
  };

  for (;;) {
    // Fault accounting accumulates across repair/salvage attempts;
    // everything else describes the final (successful) attempt only.
    const RunCounters carried = ses_->run_info.AcrossAttempts();
    ses_->run_info = NTadocRunInfo();
    ses_->run_info += carried;
    ses_->state = std::make_unique<State>();
    ses_->media_errors_seen = device_->media_error_count();
    ses_->shared_init_sim_ns = 0;
    ses_->init_shared = false;

    auto salvage = [&](const Status& s) {
      // A batch's shared prefix lives in the pool being discarded; drop
      // it so every remaining task of the batch does a full init, and
      // drop decoded-rule caches built over the doomed layout.
      ses_->batch_shared.reset();
      InvalidateRuleCache();
      ++ses_->run_info.corruption_detected;
      ++ses_->run_info.salvage_restarts;
      ++salvage_attempts;
      NTADOC_LOG(Warning) << "salvage restart " << salvage_attempts
                          << " after data loss: " << s.message();
      // Invalidate the damaged persistence state so nothing re-attaches
      // to it; the compressed container is the source of truth. Serving
      // sessions serialize this rewrite on the pool-level repair lock.
      if (options_.persistence != PersistenceMode::kNone) {
        util::OptionalMutexLock repair_lk(options_.repair_lock.get());
        nvm::PhaseMarker(device_, kMarkerOffset).Format();
      }
      force_fresh = true;
    };
    // Last resort once repair and salvage budgets are spent: rerun with
    // media errors absorbed instead of surfaced. Only ever entered once.
    auto try_degrade = [&] {
      if (!options_.allow_degraded || ses_->degraded) return false;
      ses_->batch_shared.reset();
      InvalidateRuleCache();
      NTADOC_LOG(Warning)
          << "repair and salvage exhausted; rerunning degraded";
      ses_->degraded = true;
      force_fresh = true;
      if (options_.persistence != PersistenceMode::kNone) {
        util::OptionalMutexLock repair_lk(options_.repair_lock.get());
        nvm::PhaseMarker(device_, kMarkerOffset).Format();
      }
      return true;
    };
    // The ladder for a failed phase; true means run the attempt again.
    auto recover = [&](const Status& s) {
      if (s.code() != StatusCode::kDataLoss) return false;
      // Scoped repair first: damage in state a fresh rebuild never
      // rewrites (e.g. a poisoned block under allocator padding, found by
      // the integrity hash) can only be cleared by repair — salvage
      // restarts would hit it again forever. Repaired in place, the next
      // attempt re-attaches to the persisted state and resumes (no
      // force_fresh).
      if (options_.persistence != PersistenceMode::kNone &&
          scoped_attempts < options_.max_scoped_repairs &&
          TryScopedRepair()) {
        ses_->batch_shared.reset();  // prefix repaired under the batch's feet
        ++scoped_attempts;
        return true;
      }
      if (salvage_attempts < options_.max_salvage_restarts) {
        salvage(s);
        return true;
      }
      return try_degrade();
    };

    timer.Reset();
    const uint64_t sim0 = device_->clock().NowNanos();
    const Status init_status =
        InitPhase(task, opts, ses_->state.get(), force_fresh);
    const uint64_t init_wall = timer.ElapsedNanos();
    const uint64_t init_sim = device_->clock().NowNanos() - sim0;
    if (!init_status.ok()) {
      if (recover(init_status)) continue;
      finish_info();
      return init_status;
    }
    // Attach-path probes may have tripped media errors that were handled
    // (counted, repaired, salvaged or healed); only errors from here on
    // are fatal.
    ses_->media_errors_seen = device_->media_error_count();

    timer.Reset();
    const uint64_t trav_sim0 = device_->clock().NowNanos();
    auto result = TraversalPhase(ses_->state.get());
    if (!result.ok()) {
      if (recover(result.status())) continue;
      finish_info();
      return result;
    }
    ses_->run_info.pool_used_bytes = ses_->state->pool ? ses_->state->pool->UsedBytes() : 0;
    if (ses_->state->log) {
      ses_->run_info.redo_logged_bytes = ses_->state->log->logged_payload_bytes();
      ses_->run_info.group_checkpoints = ses_->state->log->checkpoints();
    }
    if (metrics != nullptr) {
      metrics->init_wall_ns = init_wall;
      metrics->init_sim_ns = init_sim;
      metrics->traversal_wall_ns = timer.ElapsedNanos();
      metrics->traversal_sim_ns = device_->clock().NowNanos() - trav_sim0;
      metrics->used_traversal = ses_->state->strategy;
      metrics->shared_init_sim_ns = ses_->shared_init_sim_ns;
      metrics->init_shared = ses_->init_shared;
    }
    finish_info();
    return result;
  }
}

Result<std::vector<AnalyticsOutput>> NTadocEngine::RunBatch(
    std::span<const Task> tasks, const AnalyticsOptions& opts,
    std::vector<RunMetrics>* metrics) {
  std::vector<AnalyticsOutput> outputs;
  outputs.reserve(tasks.size());
  if (metrics != nullptr) metrics->assign(tasks.size(), RunMetrics{});
  if (tasks.empty()) return outputs;

  // Arm the shared-prefix capture: the first full init fills it, every
  // later task's InitPhase consumes it. A salvage or scoped repair along
  // the way drops it (Run resets the pointer), after which the remaining
  // tasks initialize from scratch.
  ses_->batch_shared = std::make_unique<BatchShared>();
  uint64_t reuses = 0;
  Status failure = Status::OK();
  for (size_t i = 0; i < tasks.size(); ++i) {
    auto out = Run(tasks[i], opts, metrics ? &(*metrics)[i] : nullptr);
    reuses += ses_->run_info.batch_init_reuses;
    if (!out.ok()) {
      failure = out.status();
      break;
    }
    outputs.push_back(std::move(*out));
  }
  ses_->batch_shared.reset();
  // run_info() after a batch reports the last task's run, with the reuse
  // counter aggregated over the whole batch.
  ses_->run_info.batch_init_reuses = reuses;
  if (!failure.ok()) return failure;
  return outputs;
}

Result<AnalyticsOutput> NTadocEngine::RunAndCapturePrefix(
    Task task, const AnalyticsOptions& opts,
    std::shared_ptr<const SealedPrefix>* prefix, RunMetrics* metrics) {
  NTADOC_CHECK(prefix != nullptr);
  prefix->reset();
  // Arm the capture exactly like RunBatch's first task: the full init
  // fills the shared state, which then moves into the immutable handle.
  ses_->batch_shared = std::make_unique<BatchShared>();
  auto out = Run(task, opts, metrics);
  std::unique_ptr<BatchShared> captured = std::move(ses_->batch_shared);
  if (!out.ok()) return out;
  if (captured == nullptr || !captured->valid) {
    // Attach reuse, repair or salvage got in the way; the caller should
    // seal over a fresh device (serve::SealPool always does).
    return Status::Internal(
        "sealed-prefix capture requires an undisturbed full init");
  }
  auto sealed = std::shared_ptr<SealedPrefix>(new SealedPrefix());
  sealed->corpus_ = corpus_;
  sealed->pruned_ = options_.enable_pruning;
  sealed->persistence_ = options_.persistence;
  sealed->redo_log_bytes_ = options_.redo_log_bytes;
  sealed->container_generation_ = options_.container_generation;
  sealed->shared_init_sim_ns_ =
      captured->shared_sim_ns +
      (captured->gram_valid ? captured->gram_sim_ns : 0);
  sealed->shared_ = std::move(captured);
  *prefix = std::move(sealed);
  return out;
}

}  // namespace ntadoc::core
