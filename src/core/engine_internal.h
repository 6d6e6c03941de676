// The N-TADOC engine's internals, shared by its translation units:
// engine.cc (Run, RunBatch and the session), engine_init.cc (InitPhase,
// attach and repair) and engine_traversal.cc (StepWriter, StepLoop and the
// three traversal kernels). It holds the engine's private types, the
// persisted pool layout and the walks over it.

#ifndef NTADOC_CORE_ENGINE_INTERNAL_H_
#define NTADOC_CORE_ENGINE_INTERNAL_H_

#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <list>
#include <numeric>
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
using tadoc::GramPosting;
using tadoc::MergeSortedCounts;
using tadoc::NgramKeyHash;
using tadoc::RankedIndex;
using tadoc::SortAndCombine;

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

inline uint64_t CursorChecksum(const CursorSlot& c) {
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
inline uint64_t CatalogOffset(const nvm::NvmPool& pool) {
  return pool.base() + nvm::NvmPool::kHeaderSlot;
}

inline uint64_t CatalogChecksum(const Catalog& c) {
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

inline uint64_t IntegrityChecksum(const InitIntegrity& r) {
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

inline uint64_t MirrorChecksum(const MetaMirror& m) {
  return Fnv1a64(&m, offsetof(MetaMirror, checksum));
}

inline uint64_t MirrorOffset(const nvm::NvmDevice& device) {
  return device.capacity() - kMirrorRegion;
}

inline void WriteMetaMirror(nvm::NvmDevice* device, uint64_t signature,
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

inline std::optional<MetaMirror> ReadMetaMirror(nvm::NvmDevice* device,
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
inline CursorSlot SlotOf(const Cursor& c) {
  CursorSlot slot{kCursorMagic, c.stage, c.a, c.b, 0};
  slot.checksum = CursorChecksum(slot);
  return slot;
}

/// Combines duplicate (id, freq) pairs (needed when pruning is disabled).
inline void CombineEntries(std::vector<std::pair<uint32_t, uint32_t>>* v) {
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
// RunBatch's local n-gram extension
// ---------------------------------------------------------------------------

/// RunBatch's one extension of the InitPrefix: a sequence task's local
/// n-gram lists, laid directly after the DAG, which a later task with the
/// same n reuses until a task in between allocates over them.
struct NTadocEngine::GramRegion {
  uint32_t ngram = 0;
  uint64_t top = 0;  // pool top right after the gram payloads
  uint64_t local_gram_meta_off = 0;
  uint64_t seg_gram_meta_off = 0;
  uint64_t begin = 0;
  uint64_t end = 0;
  std::vector<uint64_t> ub;  // per-rule list bounds
  uint64_t sim_ns = 0;       // what laying the lists cost
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

  // Armed by RunBatch and CapturePrefix. Every init of the batch
  // leaves its prefix here for the next task, and a sequence task its
  // local n-gram lists; a salvage or repair disarms it.
  struct Batch {
    std::shared_ptr<const InitPrefix> prefix;
    std::optional<GramRegion> grams;
  };
  std::optional<Batch> batch;

  // Decoded-rule cache (options.shared_cache); null = no cache.
  std::shared_ptr<SharedRuleCache> rule_cache;
  // DRAM replay model for cache hits. Charges this session's clock lane
  // even when the hit came from a cache other sessions share.
  std::optional<nvm::MemoryModel> cache_dram;

  // Init cost this run consumed from a reused prefix without paying it.
  uint64_t shared_init_sim_ns = 0;
  bool init_shared = false;

  // Tiered placement (options.tiering != nullptr). Owned by the session
  // so heat and placement survive across Runs on one engine; attached to
  // the device as its charge router for the engine's lifetime.
  std::unique_ptr<nvm::TieredPool> tiered;
};

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
inline Result<uint64_t> HashImmutableRegion(nvm::NvmDevice* device, uint64_t begin,
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
inline void AbortToPhaseStart(nvm::NvmDevice* device, nvm::RedoLog* log,
                       uint64_t cursor_off) {
  if (log != nullptr) {
    log->FlushAppliedHome();
    log->Truncate();
  }
  const CursorSlot start = SlotOf(Cursor{});
  nvm::PmemMemcpyPersist(*device, cursor_off, &start, sizeof(start));
}

}  // namespace ntadoc::core

#endif  // NTADOC_CORE_ENGINE_INTERNAL_H_
