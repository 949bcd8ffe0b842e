#ifndef FLOCK_SQL_PLAN_CACHE_H_
#define FLOCK_SQL_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "sql/logical_plan.h"

namespace flock::sql {

/// The plan-cache key of `sql`: LexStatement(sql).key (see
/// LexedStatement::key for the rule), or "" when `sql` does not lex.
std::string NormalizeSql(const std::string& sql);

/// Cumulative counters, readable while the cache is in use.
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t invalidations = 0;  // entries dropped by Clear()

  double hit_rate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Thread-safe LRU cache of optimized logical plans keyed by the lexed
/// statement's key (LexedStatement::key: token texts, names lower-cased,
/// literals verbatim) — the prepared-statement path of the serving
/// layer. A key names one token sequence, so two statements that share
/// a plan are the same statement up to case, layout and comments. A hit
/// skips parse/plan/optimize entirely; the caller still lowers the
/// (cloned) plan to a fresh physical tree per execution, so concurrent
/// executions of the same cached statement never share operator state.
///
/// Invalidation contract: cached plans embed resolved storage::TablePtr
/// handles and (after cross-optimization) specialized model names, so any
/// DDL — CREATE/DROP TABLE, CREATE/DROP MODEL — and any model redeploy
/// must Clear() the cache. Plain DML does not: scans read the live table
/// through the resolved handle. The one exception is a plan a rewrite
/// built from table statistics (a model compressed to the zone maps'
/// value ranges): its scan records the table version it read
/// (LogicalPlan::stats_version), and Lookup treats an entry whose version
/// is no longer current as a miss, so the caller re-plans and Insert
/// replaces it. SqlEngine and FlockEngine enforce this; see
/// SqlEngine::Execute and FlockEngine's locking contract.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 256) : capacity_(capacity) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns a private clone of the cached plan for `key`, or nullptr on
  /// miss (including a stale stats_version). Counts a hit/miss and
  /// refreshes LRU order.
  PlanPtr Lookup(const std::string& key);

  /// Inserts (or replaces) the plan for `key`, evicting the least
  /// recently used entry when at capacity. The cache takes ownership;
  /// callers keep executing their own copy.
  void Insert(const std::string& key, PlanPtr plan);

  /// Drops every entry (DDL / model-redeploy invalidation).
  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }
  PlanCacheStats stats() const;

 private:
  using LruList = std::list<std::pair<std::string, PlanPtr>>;

  size_t capacity_;
  mutable std::mutex mu_;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::string, LruList::iterator> index_;
  PlanCacheStats stats_;
};

}  // namespace flock::sql

#endif  // FLOCK_SQL_PLAN_CACHE_H_
