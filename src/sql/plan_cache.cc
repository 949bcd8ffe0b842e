#include "sql/plan_cache.h"

#include <bit>

#include "sql/evaluator.h"
#include "sql/lexer.h"
#include "sql/physical_planner.h"

namespace flock::sql {

using storage::DataType;
using storage::Value;

std::string NormalizeSql(const std::string& sql) {
  StatusOr<LexedStatement> lexed = LexStatement(sql);
  return lexed.ok() ? std::move(lexed->key) : std::string();
}

namespace {

/// Same type and same value; doubles compare by their bits. (Parameters
/// are never NULL.)
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() == DataType::kDouble) {
    return std::bit_cast<uint64_t>(a.double_value()) ==
           std::bit_cast<uint64_t>(b.double_value());
  }
  return a == b;
}

/// Calls `fn` on every expression tree of `plan` and its inputs.
template <typename Fn>
void ForEachExpr(LogicalPlan& plan, const Fn& fn) {
  if (plan.predicate) fn(*plan.predicate);
  for (auto& e : plan.exprs) fn(*e);
  for (auto& e : plan.group_by) fn(*e);
  for (auto& e : plan.aggregates) fn(*e);
  if (plan.join_condition) fn(*plan.join_condition);
  for (auto& k : plan.sort_keys) fn(*k.expr);
  for (auto& child : plan.children) ForEachExpr(*child, fn);
}

}  // namespace

bool PlanCache::GuardsHold(const Entry& entry,
                           const std::vector<Value>& params) {
  if (params.size() != entry.params.size()) return false;
  for (size_t k = 0; k < entry.pinned.size(); ++k) {
    if (entry.pinned[k] && !SameValue(params[k], entry.params[k])) {
      return false;
    }
  }
  for (const auto& [table, version] : entry.stats) {
    if (table->current_version() != version) return false;
  }
  for (const StandingGuard& guard : entry.standing) {
    const std::vector<size_t> standing =
        guard.table == nullptr
            ? std::vector<size_t>()
            : StandingSegments(*guard.table,
                               BindPruneConjuncts(guard.conjuncts, &params));
    if (standing != guard.standing) return false;
  }
  return true;
}

PlanCache::EntryPtr PlanCache::Get(const std::string& key,
                                   const std::vector<Value>& params) {
  EntryPtr entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      entry = it->second->second;
    }
  }
  // The guards read the entry and the live tables, outside the lock.
  if (entry != nullptr && !GuardsHold(*entry, params)) entry = nullptr;
  return entry;
}

void PlanCache::Count(bool hit) {
  (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const PhysicalPlan> PlanCache::Find(
    const std::string& key, const std::vector<Value>& params) {
  EntryPtr entry = Get(key, params);
  std::shared_ptr<const PhysicalPlan> plan =
      entry != nullptr ? entry->physical : nullptr;
  Count(plan != nullptr);
  return plan;
}

PlanPtr PlanCache::Lookup(const std::string& key,
                          const std::vector<Value>& params) {
  EntryPtr entry = Get(key, params);
  Count(entry != nullptr);
  if (entry == nullptr) return nullptr;
  PlanPtr plan = entry->plan->Clone();
  ForEachExpr(*plan, [&](Expr& root) {
    VisitExprMutable(&root, [&](Expr* e) {
      if (e->kind == ExprKind::kLiteral) e->literal = LiteralValue(*e, &params);
    });
  });
  return plan;
}

void PlanCache::Insert(const std::string& key, PlanPtr plan,
                       std::shared_ptr<const PhysicalPlan> physical,
                       std::vector<Value> params, std::vector<bool> pinned) {
  if (capacity_ == 0 || plan == nullptr) return;
  auto entry = std::make_shared<Entry>();
  // The data-dependent guards, read off the plan once.
  std::vector<const LogicalPlan*> nodes = {plan.get()};
  while (!nodes.empty()) {
    const LogicalPlan* node = nodes.back();
    nodes.pop_back();
    if (node->stats_version.has_value()) {
      entry->stats.emplace_back(node->table, *node->stats_version);
    }
    if (node->standing_segments.has_value()) {
      ScanProof proof = ProveScan(*node->children[0]);
      entry->standing.push_back(StandingGuard{
          proof.scan != nullptr ? proof.scan->table : nullptr,
          std::move(proof.conjuncts), *node->standing_segments});
    }
    for (const auto& child : node->children) nodes.push_back(child.get());
  }
  entry->plan = std::move(plan);
  entry->physical = std::move(physical);
  entry->params = std::move(params);
  entry->pinned = std::move(pinned);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++invalidations_;
  }
  lru_.emplace_front(key, std::move(entry));
  index_[key] = lru_.begin();
  ++insertions_;
}

void PlanCache::Insert(const std::string& key, PlanPtr plan) {
  std::shared_ptr<const PhysicalPlan> physical;
  if (registry_ != nullptr && plan != nullptr) {
    StatusOr<PhysicalPlanPtr> lowered = PhysicalPlanner(registry_).Lower(*plan);
    if (lowered.ok()) physical = std::move(*lowered);
  }
  Insert(key, std::move(plan), std::move(physical), {}, {});
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  invalidations_ += lru_.size();
  index_.clear();
  lru_.clear();
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  stats.insertions = insertions_;
  stats.invalidations = invalidations_;
  return stats;
}

}  // namespace flock::sql
