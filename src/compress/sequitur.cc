#include "compress/sequitur.h"

#include <algorithm>

#include "util/logging.h"

namespace ntadoc::compress {

Sequitur::Sequitur() {
  nodes_.emplace_back();  // index 0 = null sentinel
  // Root rule (id 0): a guard node linked to itself.
  RuleRec root;
  root.guard = NewNode(kGuardSym);
  root.uses = 0;
  root.alive = true;
  nodes_[root.guard].prev = root.guard;
  nodes_[root.guard].next = root.guard;
  nodes_[root.guard].aux = 0;
  rules_.push_back(root);
}

uint32_t Sequitur::NewNode(Symbol sym) {
  uint32_t n;
  if (!free_nodes_.empty()) {
    n = free_nodes_.back();
    free_nodes_.pop_back();
  } else {
    n = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[n].sym = sym;
  nodes_[n].prev = kNull;
  nodes_[n].next = kNull;
  nodes_[n].aux = 0;
  return n;
}

void Sequitur::FreeNode(uint32_t n) {
  nodes_[n].sym = kFreeSym;
  nodes_[n].prev = kNull;
  nodes_[n].next = kNull;
  free_nodes_.push_back(n);
}

uint32_t Sequitur::NewRule() {
  const uint32_t id = static_cast<uint32_t>(rules_.size());
  RuleRec r;
  r.guard = NewNode(kGuardSym);
  r.uses = 0;
  r.alive = true;
  nodes_[r.guard].prev = r.guard;
  nodes_[r.guard].next = r.guard;
  nodes_[r.guard].aux = id;
  rules_.push_back(r);
  return id;
}

void Sequitur::LinkAfter(uint32_t a, uint32_t b) {
  const uint32_t c = nodes_[a].next;
  nodes_[b].prev = a;
  nodes_[b].next = c;
  nodes_[a].next = b;
  nodes_[c].prev = b;
}

void Sequitur::RemoveDigram(uint32_t first) {
  if (first == kNull || IsGuard(first)) return;
  const uint32_t second = nodes_[first].next;
  if (IsGuard(second)) return;
  const Symbol a = nodes_[first].sym;
  const Symbol b = nodes_[second].sym;
  if (!Indexable(a, b)) return;
  digram_index_.Erase(DigramKey(a, b), first);
}

void Sequitur::Append(WordId word) {
  NTADOC_CHECK(!finished_) << "Append after Finish";
  ++tokens_;
  const uint32_t guard = rules_[0].guard;
  const uint32_t last = nodes_[guard].prev;
  const uint32_t n = NewNode(MakeWordSymbol(word));
  LinkAfter(last, n);
  if (last != guard) TryDigram(last);
}

void Sequitur::AppendFile(const std::vector<WordId>& words) {
  for (WordId w : words) Append(w);
  Append(kFileSepWord);
}

bool Sequitur::TryDigram(uint32_t first) {
  if (first == kNull || IsGuard(first)) return false;
  const uint32_t second = nodes_[first].next;
  if (IsGuard(second)) return false;
  const Symbol a = nodes_[first].sym;
  const Symbol b = nodes_[second].sym;
  if (!Indexable(a, b)) return false;
  const uint32_t match = digram_index_.FindOrInsert(DigramKey(a, b), first);
  if (match == kNull || match == first) return false;
  // Overlapping occurrences (e.g. "a a a") are not replaced.
  if (nodes_[match].next == first || nodes_[first].next == match) {
    return false;
  }
  HandleMatch(first, match);
  return true;
}

bool Sequitur::IsCompleteRuleBody(uint32_t first) const {
  const uint32_t p = nodes_[first].prev;
  if (!IsGuard(p)) return false;
  if (nodes_[p].aux == 0) return false;  // the root is never reused
  const uint32_t second = nodes_[first].next;
  if (IsGuard(second)) return false;
  return IsGuard(nodes_[second].next);
}

void Sequitur::DecrementUse(Symbol sym) {
  if (!IsRule(sym)) return;
  RuleRec& r = rules_[RuleIndex(sym)];
  NTADOC_DCHECK(r.alive);
  NTADOC_DCHECK(r.uses > 0);
  --r.uses;
}

void Sequitur::ReplacePair(uint32_t first, uint32_t rule_id) {
  const uint32_t second = nodes_[first].next;
  const uint32_t left = nodes_[first].prev;
  const uint32_t right = nodes_[second].next;
  const Symbol a = nodes_[first].sym;
  const Symbol b = nodes_[second].sym;

  // Destroy the three digrams that involve the pair.
  RemoveDigram(left);
  RemoveDigram(first);
  RemoveDigram(second);

  nodes_[left].next = right;
  nodes_[right].prev = left;
  FreeNode(first);
  FreeNode(second);

  const uint32_t n = NewNode(MakeRuleSymbol(rule_id));
  LinkAfter(left, n);
  ++rules_[rule_id].uses;
  DecrementUse(a);
  DecrementUse(b);

  // Re-check the junctions. If the left junction restructures, it consumes
  // n, so the right junction was handled by that restructuring's own
  // checks (canonical Sequitur pattern).
  if (!TryDigram(left)) TryDigram(n);
}

void Sequitur::HandleMatch(uint32_t newer, uint32_t match) {
  uint32_t rule_id;
  if (IsCompleteRuleBody(match)) {
    rule_id = nodes_[nodes_[match].prev].aux;
    ReplacePair(newer, rule_id);
  } else {
    const Symbol a = nodes_[match].sym;
    const Symbol b = nodes_[nodes_[match].next].sym;
    rule_id = NewRule();
    const uint32_t guard = rules_[rule_id].guard;
    const uint32_t na = NewNode(a);
    const uint32_t nb = NewNode(b);
    LinkAfter(guard, na);
    LinkAfter(na, nb);
    if (IsRule(a)) ++rules_[RuleIndex(a)].uses;
    if (IsRule(b)) ++rules_[RuleIndex(b)].uses;
    // The rule body becomes the canonical occurrence of this digram.
    digram_index_.Assign(DigramKey(a, b), na);
    ReplacePair(match, rule_id);
    ReplacePair(newer, rule_id);
  }
  // Rule-utility maintenance: the restructuring above removed occurrences
  // of the digram's symbols; any rule that now has a single remaining use
  // lives in rule_id's body, so inline it there. The cascades inside
  // ReplacePair may even have consumed rule_id itself — check liveness.
  if (!rules_[rule_id].alive) return;
  const uint32_t guard = rules_[rule_id].guard;
  MaybeExpandUnderused(nodes_[guard].next);
  if (!rules_[rule_id].alive) return;
  MaybeExpandUnderused(nodes_[rules_[rule_id].guard].prev);
}

void Sequitur::MaybeExpandUnderused(uint32_t n) {
  if (n == kNull || IsGuard(n)) return;
  const Symbol sym = nodes_[n].sym;
  if (!IsRule(sym)) return;
  const RuleRec& r = rules_[RuleIndex(sym)];
  if (r.alive && r.uses == 1) ExpandRuleAt(n);
}

void Sequitur::ExpandRuleAt(uint32_t n) {
  const Symbol sym = nodes_[n].sym;
  NTADOC_DCHECK(IsRule(sym));
  const uint32_t rule_id = RuleIndex(sym);
  RuleRec& r = rules_[rule_id];
  NTADOC_DCHECK(r.alive);
  NTADOC_DCHECK_EQ(r.uses, 1u);

  const uint32_t left = nodes_[n].prev;
  const uint32_t right = nodes_[n].next;
  RemoveDigram(left);
  RemoveDigram(n);

  const uint32_t guard = r.guard;
  const uint32_t first = nodes_[guard].next;
  const uint32_t last = nodes_[guard].prev;
  NTADOC_DCHECK(first != guard) << "expanding an empty rule";

  // Splice the body between left and right.
  nodes_[left].next = first;
  nodes_[first].prev = left;
  nodes_[last].next = right;
  nodes_[right].prev = last;

  FreeNode(n);
  FreeNode(guard);
  r.alive = false;
  r.uses = 0;
  r.guard = kNull;

  // Index the junction digrams if their keys are free. (Canonical
  // Sequitur does the same; in rare cases this leaves a duplicate digram
  // unreplaced, which costs a little compression but never correctness.)
  auto index_if_absent = [&](uint32_t f) {
    if (f == kNull || IsGuard(f)) return;
    const uint32_t s = nodes_[f].next;
    if (IsGuard(s)) return;
    const Symbol x = nodes_[f].sym;
    const Symbol y = nodes_[s].sym;
    if (!Indexable(x, y)) return;
    digram_index_.FindOrInsert(DigramKey(x, y), f);
  };
  index_if_absent(left);
  index_if_absent(last);
}

Grammar Sequitur::Finish(uint32_t num_files, uint32_t dict_size) {
  NTADOC_CHECK(!finished_) << "Finish called twice";
  finished_ = true;

  // Renumber live rules in DFS-from-root discovery order (root first).
  std::vector<uint32_t> new_id(rules_.size(), ~0u);
  std::vector<uint32_t> order;  // old ids in new-id order
  new_id[0] = 0;
  order.push_back(0);
  std::vector<uint32_t> stack{0};
  while (!stack.empty()) {
    const uint32_t old = stack.back();
    stack.pop_back();
    const uint32_t guard = rules_[old].guard;
    for (uint32_t n = nodes_[guard].next; n != guard; n = nodes_[n].next) {
      const Symbol s = nodes_[n].sym;
      if (IsRule(s) && new_id[RuleIndex(s)] == ~0u) {
        new_id[RuleIndex(s)] = static_cast<uint32_t>(order.size());
        order.push_back(RuleIndex(s));
        stack.push_back(RuleIndex(s));
      }
    }
  }

  Grammar g;
  g.num_files = num_files;
  g.dict_size = dict_size;
  g.rules.resize(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    const uint32_t guard = rules_[order[i]].guard;
    auto& body = g.rules[i];
    for (uint32_t n = nodes_[guard].next; n != guard; n = nodes_[n].next) {
      const Symbol s = nodes_[n].sym;
      body.push_back(IsRule(s) ? MakeRuleSymbol(new_id[RuleIndex(s)]) : s);
    }
  }
  return g;
}

Status Sequitur::CheckInvariants() const {
  // Recompute rule use counts and check list structure.
  std::vector<uint32_t> uses(rules_.size(), 0);
  for (size_t rid = 0; rid < rules_.size(); ++rid) {
    const RuleRec& r = rules_[rid];
    if (!r.alive) continue;
    const uint32_t guard = r.guard;
    if (guard == kNull || !IsGuard(guard)) {
      return Status::Internal("rule guard invalid");
    }
    uint64_t steps = 0;
    for (uint32_t n = nodes_[guard].next; n != guard; n = nodes_[n].next) {
      if (++steps > nodes_.size()) {
        return Status::Internal("rule body list does not terminate");
      }
      if (nodes_[nodes_[n].next].prev != n || nodes_[nodes_[n].prev].next != n) {
        return Status::Internal("doubly-linked list inconsistent");
      }
      const Symbol s = nodes_[n].sym;
      if (s == kFreeSym) return Status::Internal("freed node in body");
      if (IsRule(s)) {
        if (RuleIndex(s) >= rules_.size() || !rules_[RuleIndex(s)].alive) {
          return Status::Internal("reference to dead rule");
        }
        ++uses[RuleIndex(s)];
      }
    }
    if (rid != 0 && steps < 2) {
      return Status::Internal("non-root rule shorter than 2 symbols");
    }
  }
  for (size_t rid = 1; rid < rules_.size(); ++rid) {
    if (!rules_[rid].alive) continue;
    if (uses[rid] != rules_[rid].uses) {
      return Status::Internal("use count mismatch for R" +
                              std::to_string(rid));
    }
    if (uses[rid] < 2) {
      return Status::Internal("rule utility violated for R" +
                              std::to_string(rid));
    }
  }
  Status status;
  digram_index_.ForEach([&](uint64_t key, uint32_t first) {
    if (status.ok()) status = CheckIndexEntry(key, first);
  });
  return status;
}

Status Sequitur::CheckIndexEntry(uint64_t key, uint32_t first) const {
  if (first >= nodes_.size()) return Status::Internal("index node oob");
  const Node& fn = nodes_[first];
  if (fn.sym == kFreeSym || fn.sym == kGuardSym) {
    return Status::Internal("index entry points at dead/guard node");
  }
  const Node& sn = nodes_[fn.next];
  if (sn.sym == kFreeSym || sn.sym == kGuardSym) {
    return Status::Internal("index entry second node dead/guard");
  }
  if (DigramKey(fn.sym, sn.sym) != key) {
    return Status::Internal("index entry key mismatch");
  }
  if (digram_index_.Find(key) != first) {
    return Status::Internal("index entry not found from its key");
  }
  return Status::OK();
}

}  // namespace ntadoc::compress
