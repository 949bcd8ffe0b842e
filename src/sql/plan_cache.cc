#include "sql/plan_cache.h"

#include "sql/lexer.h"

namespace flock::sql {

std::string NormalizeSql(const std::string& sql) {
  StatusOr<LexedStatement> lexed = LexStatement(sql);
  return lexed.ok() ? std::move(lexed->key) : std::string();
}

namespace {

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

}  // namespace

PlanPtr PlanCache::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end() || !StatsCurrent(*it->second->second)) {
    ++stats_.misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  return it->second->second->Clone();
}

void PlanCache::Insert(const std::string& key, PlanPtr plan) {
  if (capacity_ == 0 || plan == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.invalidations;
  }
  lru_.emplace_front(key, std::move(plan));
  index_[key] = lru_.begin();
  ++stats_.insertions;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.invalidations += lru_.size();
  index_.clear();
  lru_.clear();
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace flock::sql
