#include "sql/plan_cache.h"

#include <bit>

#include "sql/lexer.h"
#include "sql/physical_plan.h"

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

/// False when some scan of `plan` carries statistics of a table version
/// that is no longer current.
bool StatsCurrent(const LogicalPlan& plan) {
  if (plan.stats_version.has_value() &&
      *plan.stats_version != plan.table->current_version()) {
    return false;
  }
  for (const auto& child : plan.children) {
    if (!StatsCurrent(*child)) return false;
  }
  return true;
}

/// False when some node's filters leave other segments standing than the
/// ones its rewrite was planned for.
bool SameSegmentsStanding(const LogicalPlan& plan) {
  if (plan.standing_segments.has_value() &&
      ProveScan(*plan.children[0]).standing != *plan.standing_segments) {
    return false;
  }
  for (const auto& child : plan.children) {
    if (!SameSegmentsStanding(*child)) return false;
  }
  return true;
}

}  // namespace

PlanPtr PlanCache::Bind(const Entry& entry, const std::vector<Value>& params) {
  if (params.size() != entry.params.size()) return nullptr;
  for (size_t k = 0; k < entry.pinned.size(); ++k) {
    if (entry.pinned[k] && !SameValue(params[k], entry.params[k])) {
      return nullptr;
    }
  }
  if (!StatsCurrent(*entry.plan)) return nullptr;
  PlanPtr plan = entry.plan->Clone();
  if (!params.empty()) {
    ForEachExpr(*plan, [&](Expr& root) {
      VisitExprMutable(&root, [&](Expr* e) {
        if (e->kind == ExprKind::kLiteral && e->param_slot >= 0 &&
            static_cast<size_t>(e->param_slot) < params.size()) {
          e->literal = params[static_cast<size_t>(e->param_slot)];
        }
      });
    });
  }
  if (!SameSegmentsStanding(*plan)) return nullptr;
  return plan;
}

PlanPtr PlanCache::Lookup(const std::string& key,
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
  // Binding works on a private clone, outside the lock.
  PlanPtr plan = entry == nullptr ? nullptr : Bind(*entry, params);
  (plan != nullptr ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  return plan;
}

void PlanCache::Insert(const std::string& key, PlanPtr plan,
                       std::vector<Value> params, std::vector<bool> pinned) {
  if (capacity_ == 0 || plan == nullptr) return;
  auto entry = std::make_shared<const Entry>(
      Entry{std::move(plan), std::move(params), std::move(pinned)});
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
