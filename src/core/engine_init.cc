// The initialization phase: InitPhase over the init prefix, the attach
// path of recovery, and scoped repair.

#include "core/engine_internal.h"

namespace ntadoc::core {

namespace {

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

}  // namespace

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

namespace {

/// Settles what `task` runs on: its traversal strategy, the signature a
/// re-attach must match, and which structures the run uses.
template <typename StateT>
void PlanStructures(const CompressedCorpus& corpus,
                    const NTadocOptions& options, Task task,
                    const AnalyticsOptions& opts, StateT* st) {
  st->task = task;
  st->opts = opts;
  st->strategy =
      tadoc::ResolveStrategy(options.traversal, task, corpus.num_files());
  st->signature = ComputeSignature(corpus, task, opts, st->strategy, options);

  const bool seq = tadoc::IsSequenceTask(task);
  const bool per_file = tadoc::IsPerFileTask(task);
  st->use_local_grams = seq;
  st->use_word_table = task == Task::kWordCount || task == Task::kSort;
  st->use_gram_table = task == Task::kSequenceCount;
  if (st->strategy == TraversalStrategy::kBottomUp) {
    st->use_word_lists = !seq;
    st->use_gram_lists = seq;
  } else {
    st->use_queue = !per_file;
    st->use_file_table =
        task == Task::kTermVector || task == Task::kInvertedIndex;
    st->use_file_gram_table = task == Task::kRankedInvertedIndex;
  }
}

uint64_t Sum(const std::vector<uint64_t>& v) {
  return std::accumulate(v.begin(), v.end(), uint64_t{0});
}

/// Bytes of the compressed container as read from the source disk.
uint64_t ContainerBytes(const CompressedCorpus& corpus) {
  const auto& grammar = corpus.grammar;
  uint64_t bytes =
      grammar.TotalSymbols() * sizeof(Symbol) + 16 * grammar.NumRules();
  for (WordId w = 0; w < corpus.dict.size(); ++w) {
    bytes += corpus.dict.Spell(w).size() + 4;
  }
  return bytes;
}

/// Sums `own` over the rules reachable from `roots`: a rule contributes
/// its distinct items once, however often it occurs — the tight per-file
/// bound. `seen` is one zero byte per rule, left all zero again.
uint64_t ReachableSum(const DagChildren& children,
                      const std::vector<std::pair<uint32_t, uint32_t>>& roots,
                      const std::vector<uint64_t>& own,
                      std::vector<uint8_t>* seen) {
  std::vector<uint32_t> stack;
  std::vector<uint32_t> visited;
  auto visit = [&](uint32_t r) {
    if ((*seen)[r]) return;
    (*seen)[r] = 1;
    stack.push_back(r);
    visited.push_back(r);
  };
  for (const auto& root : roots) visit(root.first);
  uint64_t total = 0;
  while (!stack.empty()) {
    const uint32_t r = stack.back();
    stack.pop_back();
    total += own[r];
    for (const auto& child : children[r]) visit(child.first);
  }
  for (uint32_t v : visited) (*seen)[v] = 0;
  return total;
}

/// Each rule's and file segment's local n-gram count.
struct LocalGramCounts {
  std::vector<uint64_t> rules, segs;
};

/// Reads the local n-gram counts back from the gram metadata as borrowed
/// spans (charged like per-element loops). An unreadable block
/// contributes 0, and the media check at the end of InitPhase turns the
/// poisoned estimate into a salvage.
template <typename StateT>
LocalGramCounts ReadLocalGramCounts(const StateT& st) {
  const uint32_t nr = st.dag.num_rules;
  const uint32_t nf = st.dag.num_files;
  LocalGramCounts g{std::vector<uint64_t>(nr), std::vector<uint64_t>(nf)};
  if (nr > 1) {
    if (auto span = st.local_gram_meta.ReadSpan(1, nr - 1); span.ok()) {
      for (uint32_t r = 1; r < nr; ++r) g.rules[r] = (*span)[r - 1].count;
    }
  }
  if (nf > 0) {
    if (auto span = st.seg_gram_meta.ReadSpan(0, nf); span.ok()) {
      for (uint32_t f = 0; f < nf; ++f) g.segs[f] = (*span)[f].count;
    }
  }
  return g;
}

/// Global word table: the segments' distinct-word bounds summed, capped
/// by the dictionary and the corpus length.
uint64_t WordTableBound(const Estimates& est, uint64_t dict_size,
                        uint64_t tokens) {
  return std::min({Sum(est.seg_word_ub), dict_size, tokens});
}

/// Global gram table: every rule's and segment's local n-gram count
/// summed, capped by the corpus length.
uint64_t GramTableBound(const LocalGramCounts& grams, uint64_t tokens) {
  return std::min(Sum(grams.rules) + Sum(grams.segs), tokens);
}

/// Shared per-file word table, one file at a time: the largest file's
/// distinct words over its reachable rule set, capped by its segment
/// bound and length.
uint64_t FileTableBound(const Estimates& est) {
  std::vector<uint8_t> seen(est.children.size(), 0);
  uint64_t bound = 0;
  for (uint32_t f = 0; f < est.seg_children.size(); ++f) {
    const uint64_t root_items =
        ReachableSum(est.children, est.seg_children[f], est.own_words,
                     &seen) +
        est.seg_own_distinct[f];
    bound = std::max(
        bound, std::min<uint64_t>(
                   std::min<uint64_t>(root_items, est.seg_word_ub[f]),
                   std::max<uint64_t>(est.seg_explen[f], 1)));
  }
  return bound;
}

/// Shared per-file gram table, one file at a time: the largest file's
/// local n-grams over its reachable rule set, capped by its length.
uint64_t FileGramTableBound(const Estimates& est,
                            const LocalGramCounts& grams) {
  std::vector<uint8_t> seen(est.children.size(), 0);
  uint64_t bound = 0;
  for (uint32_t f = 0; f < est.seg_children.size(); ++f) {
    const uint64_t reachable = ReachableSum(
        est.children, est.seg_children[f], grams.rules, &seen);
    bound = std::max(bound, std::min<uint64_t>(
                                reachable + grams.segs[f],
                                std::max<uint64_t>(est.seg_explen[f], 1)));
  }
  return bound;
}

/// Bottom-up lists: one pool allocation per rule at its bound `ub[r]` (at
/// most 8 entries in the no-summation ablation, which grows them); the
/// root has none.
Status AllocLists(nvm::NvmPool* pool, NvmVector<ListMeta>* metas,
                  const std::vector<uint64_t>& ub, uint64_t entry_size,
                  bool summation) {
  static_assert(alignof(WordEntry) == 8 && alignof(GramEntry) == 8,
                "list entries are allocated 8-byte aligned");
  const uint32_t nr = static_cast<uint32_t>(ub.size());
  NTADOC_ASSIGN_OR_RETURN(*metas, NvmVector<ListMeta>::Create(pool, nr));
  metas->Resize(nr);
  for (uint32_t r = 0; r < nr; ++r) {
    const uint64_t capn =
        r == 0 ? 0
        : summation
            ? ub[r]
            : std::min<uint64_t>(8, std::max<uint64_t>(1, ub[r]));
    nvm::PoolOffset off = nvm::kNullPoolOffset;
    if (capn > 0) {
      NTADOC_ASSIGN_OR_RETURN(off, pool->Alloc(capn * entry_size, 8));
    }
    metas->Set(r, ListMeta{off, capn, 0});
  }
  return Status::OK();
}

}  // namespace

Status NTadocEngine::InitPhase(Task task, const AnalyticsOptions& opts,
                               State* st, bool force_fresh) {
  PlanStructures(*corpus_, options_, task, opts, st);
  const bool op = options_.persistence == PersistenceMode::kOperation;
  const uint64_t redo_bytes = op ? options_.redo_log_bytes : 0;
  const InitPrefix::Key key{corpus_, options_.enable_pruning,
                            options_.persistence, redo_bytes,
                            options_.container_generation,
                            /*pool_base=*/kMarkerRegion + redo_bytes};
  const uint64_t pool_base = key.pool_base;
  NTADOC_ASSIGN_OR_RETURN(const uint64_t pool_size, PoolSize(pool_base));

  // A prefix built under this engine's keys replaces the expensive half
  // of this phase (container load, DAG build, estimator reads) and, as it
  // proves the image's init half, the attach.
  std::shared_ptr<const InitPrefix> prefix =
      force_fresh ? nullptr : MatchingPrefix(key);
  if (!force_fresh && prefix == nullptr) {
    NTADOC_ASSIGN_OR_RETURN(const bool attached, TryAttach(st, pool_base));
    if (attached) return SetupTiering(st, /*fresh=*/false);
  }

  // ---- Fresh initialization ----
  const bool reused = prefix != nullptr;
  // RunBatch's gram region applies when it was laid for this task's n
  // and nothing allocated over it since.
  const GramRegion* grams =
      reused && st->use_local_grams && ses_->batch && ses_->batch->grams &&
              ses_->batch->grams->ngram == opts.ngram
          ? &*ses_->batch->grams
          : nullptr;
  const uint64_t sim_t0 = device_->clock().NowNanos();
  if (!reused) {
    // Reading the compressed container from the source disk (the paper
    // times dataset loading; N-TADOC reads the compressed representation).
    device_->clock().Charge(static_cast<uint64_t>(
        ContainerBytes(*corpus_) * nvm::kSourceDiskNsPerByte));
  }
  nvm::PhaseMarker(device_, kMarkerOffset).Format();
  if (options_.persistence == PersistenceMode::kOperation) {
    NTADOC_ASSIGN_OR_RETURN(
        auto log,
        nvm::RedoLog::Create(device_, kMarkerRegion, options_.redo_log_bytes));
    st->log.emplace(std::move(log));
  }
  if (reused) {
    NTADOC_RETURN_IF_ERROR(ReopenPrefix(*prefix, grams, st));
  } else {
    NTADOC_ASSIGN_OR_RETURN(prefix, BuildPrefix(st, key, pool_size, sim_t0));
  }
  if (ses_->batch) {
    ses_->batch->prefix = prefix;
    // Everything below allocates over a gram region it does not reuse.
    if (grams == nullptr) ses_->batch->grams.reset();
  }

  NTADOC_ASSIGN_OR_RETURN(const std::vector<uint64_t> gram_ub,
                          LayLocalGrams(st, prefix->est_, grams));
  NTADOC_RETURN_IF_ERROR(
      AllocateTraversalStructures(st, prefix->est_, gram_ub));
  return CommitInit(st, pool_base);
}

Result<uint64_t> NTadocEngine::PoolSize(uint64_t pool_base) {
  // Persistent runs reserve the device tail for the metadata mirror.
  uint64_t pool_size =
      device_->capacity() - pool_base -
      (options_.persistence != PersistenceMode::kNone ? kMirrorRegion : 0);
  if (options_.tiering == nullptr) return pool_size;
  // Tiered runs additionally reserve the durable placement region
  // between the pool end and the mirror. The reserve is deterministic
  // from options, so an attach recomputes the identical layout.
  const uint64_t reserve = nvm::TieredPool::PlacementReserve(*options_.tiering);
  if (pool_size <= 2 * reserve) {
    return Status::InvalidArgument(
        "device too small for a tiered placement region");
  }
  pool_size -= reserve;
  if (ses_->tiered == nullptr) {
    NTADOC_ASSIGN_OR_RETURN(
        ses_->tiered, nvm::TieredPool::Make(device_, pool_base + pool_size,
                                            reserve, *options_.tiering));
    device_->set_tier_router(ses_->tiered.get());
  }
  return pool_size;
}

// The batch's own prefix first, then the sealed pool's.
std::shared_ptr<const InitPrefix> NTadocEngine::MatchingPrefix(
    const InitPrefix::Key& key) const {
  auto matches = [&key](const std::shared_ptr<const InitPrefix>& p) {
    return p != nullptr && p->key_ == key;
  };
  if (ses_->batch && matches(ses_->batch->prefix)) return ses_->batch->prefix;
  if (matches(options_.sealed_prefix)) return options_.sealed_prefix;
  return nullptr;
}

Result<std::shared_ptr<const InitPrefix>> NTadocEngine::BuildPrefix(
    State* st, const InitPrefix::Key& key, uint64_t pool_size,
    uint64_t sim_t0) {
  // Persistent pools carry spare blocks + a remap table so single-block
  // media failures can be repaired in place instead of restarting.
  nvm::PoolOptions pool_opts;
  if (options_.persistence != PersistenceMode::kNone) {
    pool_opts.spare_blocks =
        pool_size >= (1ull << 20) ? 64 : (pool_size >= (64ull << 10) ? 8 : 0);
  }
  NTADOC_ASSIGN_OR_RETURN(
      auto pool,
      nvm::NvmPool::Create(device_, key.pool_base, pool_size, pool_opts));
  st->pool.emplace(std::move(pool));
  NTADOC_ASSIGN_OR_RETURN(const nvm::PoolOffset catalog_off,
                          st->pool->Alloc(sizeof(Catalog), 64));
  NTADOC_DCHECK_EQ(catalog_off, CatalogOffset(*st->pool));

  // Pruning with NVM pool management (Algorithm 1).
  NTADOC_ASSIGN_OR_RETURN(
      st->dag, BuildPrunedDag(corpus_->grammar, &*st->pool,
                              options_.enable_pruning, &ses_->run_info.prune));
  auto prefix = std::shared_ptr<InitPrefix>(new InitPrefix());
  prefix->key_ = key;
  prefix->dag_top_ = st->pool->top();
  prefix->dag_ = st->dag;
  prefix->prune_ = ses_->run_info.prune;
  NTADOC_ASSIGN_OR_RETURN(prefix->est_, DeriveEstimates(st));
  // Everything charged since sim_t0 is the shared portion (container
  // load, DAG build, estimator reads); per-task costs start here.
  prefix->shared_init_sim_ns_ = device_->clock().NowNanos() - sim_t0;
  return std::shared_ptr<const InitPrefix>(std::move(prefix));
}

// Algorithm 2's host-side scratch, derived from the pruned payloads. It
// depends only on the grammar and the pruning setting, never on the task.
Result<Estimates> NTadocEngine::DeriveEstimates(State* st) {
  const auto& grammar = corpus_->grammar;
  const uint32_t nr = grammar.NumRules();
  const uint32_t nf = grammar.num_files;
  Estimates e;
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
      for (const auto& word : p.words) e.own_len[r] += word.second;
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
    for (const auto& word : p.words) e.seg_explen[f] += word.second;
    for (const auto& [child, freq] : p.subrules) {
      e.seg_explen[f] += e.explen[child] * freq;
    }
    e.seg_word_ub[f] = std::min<uint64_t>(
        std::min<uint64_t>(
            SpanUpperBound(p.subrules, p.words.size(), e.word_ub),
            grammar.dict_size),
        std::max<uint64_t>(e.seg_explen[f], 1));
  }
  return e;
}

// Re-opens the pool over an earlier init's layout and rolls the bump
// pointer back to the end of the prefix (or of the batch's gram region):
// everything later is reallocated.
Status NTadocEngine::ReopenPrefix(const InitPrefix& prefix,
                                  const GramRegion* grams, State* st) {
  NTADOC_ASSIGN_OR_RETURN(auto pool,
                          nvm::NvmPool::Open(device_, prefix.key_.pool_base));
  st->pool.emplace(std::move(pool));
  NTADOC_RETURN_IF_ERROR(
      st->pool->ResetTopTo(grams != nullptr ? grams->top : prefix.dag_top_));
  auto rebind = [st](const auto& v) {
    return std::decay_t<decltype(v)>::Attach(&*st->pool, v.offset(),
                                             v.capacity(), v.size());
  };
  st->dag = prefix.dag_;
  st->dag.rule_meta = rebind(prefix.dag_.rule_meta);
  st->dag.seg_meta = rebind(prefix.dag_.seg_meta);
  ses_->run_info.prune = prefix.prune_;
  ++ses_->run_info.batch_init_reuses;
  // The shared cost this run consumed without paying it.
  ses_->init_shared = true;
  ses_->shared_init_sim_ns =
      prefix.shared_init_sim_ns_ + (grams != nullptr ? grams->sim_ns : 0);
  return Status::OK();
}

// Sequence support: local boundary windows per rule / segment, stored as
// pool payloads (order information preserved via head/tail preprocessing
// — Section IV-D). Returns the per-rule gram-list bounds.
Result<std::vector<uint64_t>> NTadocEngine::LayLocalGrams(
    State* st, const Estimates& est, const GramRegion* reuse) {
  const auto& grammar = corpus_->grammar;
  const uint32_t nr = grammar.NumRules();
  const uint32_t nf = grammar.num_files;
  if (reuse != nullptr) {  // re-attach instead of scanning the grammar
    st->local_gram_meta = NvmVector<GramMeta>::Attach(
        &*st->pool, reuse->local_gram_meta_off, nr, nr);
    st->seg_gram_meta = NvmVector<GramMeta>::Attach(
        &*st->pool, reuse->seg_gram_meta_off, nf, nf);
    st->gram_begin = reuse->begin;
    st->gram_end = reuse->end;
    return reuse->ub;
  }
  if (!st->use_local_grams) return std::vector<uint64_t>();

  const uint64_t sim_t0 = device_->clock().NowNanos();
  const uint32_t n = st->opts.ngram;
  const tadoc::HeadTailTable ht = tadoc::HeadTailTable::Build(grammar, n);
  tadoc::WindowScanner scanner(&ht, n);
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
  std::vector<uint64_t> gram_ub = BottomUpSummation(est.children, own_grams);
  for (uint32_t r = 1; r < nr; ++r) {
    gram_ub[r] =
        std::min<uint64_t>(gram_ub[r], std::max<uint64_t>(est.explen[r], 1));
  }
  // Laid right after the DAG (nothing allocated between), so a later
  // sequence task of the batch can reuse them.
  if (ses_->batch) {
    ses_->batch->grams = GramRegion{
        n, st->pool->top(), st->local_gram_meta.offset(),
        st->seg_gram_meta.offset(), st->gram_begin, st->gram_end, gram_ub,
        device_->clock().NowNanos() - sim_t0};
  }
  return gram_ub;
}

// Traversal structures, each allocated once at its bound (small in the
// no-summation ablation, which rebuilds on overflow), in a fixed order.
Status NTadocEngine::AllocateTraversalStructures(
    State* st, const Estimates& est, const std::vector<uint64_t>& gram_ub) {
  nvm::NvmPool* pool = &*st->pool;
  const uint32_t nr = st->dag.num_rules;
  if (st->use_queue) {
    NTADOC_ASSIGN_OR_RETURN(st->queue, NvmVector<uint32_t>::Create(pool, nr));
    st->queue.Resize(nr);
    NTADOC_ASSIGN_OR_RETURN(st->indeg, NvmVector<uint32_t>::Create(pool, nr));
    st->indeg.Resize(nr);
  }
  const bool summation = options_.enable_summation;
  auto capacity = [summation](uint64_t bound) {
    return summation ? bound : uint64_t{8};
  };
  // No counter table can hold more entries than the corpus has tokens.
  const uint64_t tokens = Sum(est.seg_explen);
  if (st->use_word_table) {
    NTADOC_ASSIGN_OR_RETURN(
        st->word_table,
        WordTable::Create(pool, capacity(WordTableBound(
                                    est, corpus_->grammar.dict_size, tokens))));
  }
  if (st->use_gram_table) {
    NTADOC_ASSIGN_OR_RETURN(
        st->gram_table,
        GramTable::Create(pool, capacity(GramTableBound(
                                    ReadLocalGramCounts(*st), tokens))));
  }
  if (st->use_file_table) {
    NTADOC_ASSIGN_OR_RETURN(
        st->file_table,
        WordTable::Create(pool, capacity(FileTableBound(est))));
  }
  if (st->use_file_gram_table) {
    NTADOC_ASSIGN_OR_RETURN(
        st->file_gram_table,
        GramTable::Create(pool, capacity(FileGramTableBound(
                                    est, ReadLocalGramCounts(*st)))));
  }
  // Bottom-up lists: one pool allocation per rule; the root has none.
  if (st->use_word_lists) {
    NTADOC_RETURN_IF_ERROR(AllocLists(pool, &st->word_list_meta, est.word_ub,
                                      sizeof(WordEntry), summation));
  }
  if (st->use_gram_lists) {
    NTADOC_RETURN_IF_ERROR(AllocLists(pool, &st->gram_list_meta, gram_ub,
                                      sizeof(GramEntry), summation));
  }
  return Status::OK();
}

// The phase boundary: cursor, catalog and integrity seal, tier placement,
// then the durable phase-1 commit.
Status NTadocEngine::CommitInit(State* st, uint64_t pool_base) {
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

}  // namespace ntadoc::core
