#include "compress/grammar.h"

#include <algorithm>
#include <string>

#include "util/logging.h"

namespace ntadoc::compress {

uint64_t Grammar::TotalSymbols() const {
  uint64_t total = 0;
  for (const auto& r : rules) total += r.size();
  return total;
}

uint64_t Grammar::ExpandedLength() const {
  // lengths[r] = expanded length of rule r, computed bottom-up over a
  // reverse topological order.
  const std::vector<uint32_t> order = TopologicalOrder();
  std::vector<uint64_t> lengths(rules.size(), 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const uint32_t r = *it;
    uint64_t len = 0;
    for (Symbol s : rules[r]) {
      len += IsRule(s) ? lengths[RuleIndex(s)] : 1;
    }
    lengths[r] = len;
  }
  return rules.empty() ? 0 : lengths[0];
}

void Grammar::ExpandRule(uint32_t rule_id, std::vector<Symbol>* out) const {
  NTADOC_CHECK_LT(rule_id, rules.size());
  // Explicit stack of (rule, position) to avoid deep recursion on
  // pathological grammars.
  std::vector<std::pair<uint32_t, size_t>> stack;
  stack.emplace_back(rule_id, 0);
  while (!stack.empty()) {
    auto& [r, pos] = stack.back();
    if (pos >= rules[r].size()) {
      stack.pop_back();
      continue;
    }
    const Symbol s = rules[r][pos++];
    if (IsRule(s)) {
      stack.emplace_back(RuleIndex(s), 0);
    } else {
      out->push_back(s);
    }
  }
}

std::vector<Symbol> Grammar::ExpandAll() const {
  std::vector<Symbol> out;
  if (!rules.empty()) ExpandRule(0, &out);
  return out;
}

std::vector<std::pair<uint32_t, uint32_t>> Grammar::RootSegments() const {
  std::vector<std::pair<uint32_t, uint32_t>> segments;
  if (rules.empty()) return segments;
  const std::vector<Symbol>& root = rules[0];
  uint32_t begin = 0;
  for (uint32_t i = 0; i < root.size(); ++i) {
    if (IsWord(root[i]) && IsFileSep(root[i])) {
      segments.emplace_back(begin, i);
      begin = i + 1;
    }
  }
  return segments;
}

namespace {

/// Kahn's walk over rule -> subrule edges, consuming `indeg` (each rule's
/// reference count). The stack starts with the unreferenced rules in id
/// order and pops the most recent push first; a rule's children are
/// pushed in body order as their last reference is consumed. Returns the
/// rules reached, parents before children: all of them unless the graph
/// has a cycle.
std::vector<uint32_t> KahnOrder(const Grammar& g,
                                std::vector<uint32_t>* indeg) {
  const uint32_t n = g.NumRules();
  std::vector<uint32_t> stack;
  std::vector<uint32_t> order;
  order.reserve(n);
  for (uint32_t r = 0; r < n; ++r) {
    if ((*indeg)[r] == 0) stack.push_back(r);
  }
  while (!stack.empty()) {
    const uint32_t r = stack.back();
    stack.pop_back();
    order.push_back(r);
    for (Symbol s : g.rules[r]) {
      if (IsRule(s) && --(*indeg)[RuleIndex(s)] == 0) {
        stack.push_back(RuleIndex(s));
      }
    }
  }
  return order;
}

}  // namespace

Status Grammar::Validate(std::vector<uint32_t>* topo_order) const {
  if (rules.empty()) return Status::InvalidArgument("grammar has no rules");
  const uint32_t n = NumRules();
  // One counting pass: the reference counts are the in-degrees the cycle
  // check consumes.
  std::vector<uint32_t> uses(n, 0);
  uint64_t sep_count = 0;
  for (uint32_t r = 0; r < n; ++r) {
    for (Symbol s : rules[r]) {
      if (IsRule(s)) {
        if (RuleIndex(s) >= n) {
          return Status::DataLoss("rule reference out of range");
        }
        ++uses[RuleIndex(s)];
      } else if (IsFileSep(s)) {
        if (r != 0) {
          return Status::DataLoss("file separator inside non-root rule");
        }
        ++sep_count;
      } else if (s >= dict_size) {
        return Status::DataLoss("word id exceeds dictionary size");
      }
    }
  }
  for (uint32_t r = 1; r < n; ++r) {
    if (uses[r] == 0) {
      return Status::DataLoss("unreferenced rule R" + std::to_string(r));
    }
  }
  if (sep_count != num_files) {
    return Status::DataLoss("separator count != num_files");
  }
  // Cycle check: the walk must reach every rule. (TopologicalOrder
  // CHECK-fails on a cycle; this is the non-fatal version of the same
  // walk, so on success its order is TopologicalOrder()'s.)
  std::vector<uint32_t> order = KahnOrder(*this, &uses);
  if (order.size() != n) {
    return Status::DataLoss("grammar contains a rule cycle");
  }
  if (topo_order != nullptr) *topo_order = std::move(order);
  return Status::OK();
}

std::vector<uint32_t> Grammar::TopologicalOrder() const {
  const uint32_t n = NumRules();
  std::vector<uint32_t> indeg(n, 0);
  for (uint32_t r = 0; r < n; ++r) {
    for (Symbol s : rules[r]) {
      if (IsRule(s)) ++indeg[RuleIndex(s)];
    }
  }
  std::vector<uint32_t> order = KahnOrder(*this, &indeg);
  NTADOC_CHECK_EQ(order.size(), n) << "grammar contains a rule cycle";
  return order;
}

GrammarStats ComputeStats(const Grammar& grammar) {
  GrammarStats s;
  s.num_rules = grammar.NumRules();
  s.total_symbols = grammar.TotalSymbols();
  s.expanded_tokens = grammar.ExpandedLength();
  s.root_length = grammar.rules.empty() ? 0 : grammar.rules[0].size();
  for (const auto& r : grammar.rules) {
    s.max_rule_length = std::max<uint64_t>(s.max_rule_length, r.size());
  }
  s.compression_ratio =
      s.total_symbols == 0
          ? 0.0
          : static_cast<double>(s.expanded_tokens) /
                static_cast<double>(s.total_symbols);
  return s;
}

}  // namespace ntadoc::compress
