#ifndef FLOCK_SQL_PLAN_CACHE_H_
#define FLOCK_SQL_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sql/logical_plan.h"
#include "storage/value.h"

namespace flock::sql {

/// The plan-cache key of `sql`: LexStatement(sql).key, the statement's
/// shape with its literals as typed slots (see LexedStatement::key), or ""
/// when `sql` does not lex.
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

/// Thread-safe LRU cache of optimized logical plans keyed by statement
/// shape (LexedStatement::key: token texts, names lower-cased, every
/// literal a typed slot `?i`/`?d`/`?s`), the prepared-statement path of
/// the serving layer. A hit skips parse/plan/optimize entirely: it clones
/// the cached plan and writes the statement's parameter values into every
/// literal that carries a slot (Expr::param_slot), wherever a rewrite
/// moved it. The caller lowers the bound clone to a fresh physical tree,
/// so concurrent executions of one shape never share operator state.
///
/// A cached plan holds for other parameter values only where planning did
/// not read them. An entry keeps three guards, and a lookup that fails
/// one is a miss (the caller re-plans and Insert replaces the entry):
///  * pinned slots: the values of every slot a plan-time step read
///    (PinScope: constant folding, a model named by a string, LIMIT and
///    OFFSET, column names spelled from literal text, Equals between
///    literals, compression narrowing a feature's range) must be equal,
///    same type and same bits;
///  * standing segments: a node whose rewrite depended on which segments
///    the filters below it leave standing (LogicalPlan::standing_segments,
///    set by model compression) must see the same set under the bound
///    values, by the same proof (ProveScan);
///  * statistics: a scan whose rewrite read its table's zone maps records
///    the table version (LogicalPlan::stats_version), and an entry whose
///    version is no longer current is stale.
/// So a hit returns exactly the plan a fresh plan of the statement would.
///
/// Invalidation contract: cached plans embed resolved storage::TablePtr
/// handles and (after cross-optimization) specialized model names, so any
/// DDL — CREATE/DROP TABLE, CREATE/DROP MODEL — and any model redeploy
/// must Clear() the cache. Plain DML does not: scans read the live table
/// through the resolved handle, and the two data-dependent guards above
/// are checked on every lookup. SqlEngine and FlockEngine enforce this;
/// see SqlEngine::Execute and FlockEngine's locking contract.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 256) : capacity_(capacity) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns a private clone of the plan cached for `key` with `params`
  /// bound into its slots, or nullptr on a miss (no entry, or a guard
  /// fails). Counts a hit or miss and refreshes LRU order.
  PlanPtr Lookup(const std::string& key,
                 const std::vector<storage::Value>& params = {});

  /// Inserts (or replaces) the plan for `key`, planned from `params`, of
  /// which planning read the slots flagged in `pinned`. Evicts the least
  /// recently used entry when at capacity. The cache takes ownership;
  /// callers keep executing their own copy.
  void Insert(const std::string& key, PlanPtr plan,
              std::vector<storage::Value> params, std::vector<bool> pinned);

  /// Inserts a plan whose parameter values are not known. It pins every
  /// slot, so it serves only lookups that bind no parameter.
  void Insert(const std::string& key, PlanPtr plan) {
    Insert(key, std::move(plan), {}, {});
  }

  /// Drops every entry (DDL / model-redeploy invalidation).
  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }
  PlanCacheStats stats() const;

 private:
  struct Entry {
    PlanPtr plan;
    std::vector<storage::Value> params;  // the values it was planned from
    std::vector<bool> pinned;            // per slot; shorter = unpinned
  };
  using EntryPtr = std::shared_ptr<const Entry>;
  using LruList = std::list<std::pair<std::string, EntryPtr>>;

  /// The bound clone of `entry` for `params`, or nullptr when a guard
  /// fails.
  static PlanPtr Bind(const Entry& entry,
                      const std::vector<storage::Value>& params);

  size_t capacity_;
  mutable std::mutex mu_;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::string, LruList::iterator> index_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  uint64_t insertions_ = 0;     // guarded by mu_
  uint64_t invalidations_ = 0;  // guarded by mu_
};

}  // namespace flock::sql

#endif  // FLOCK_SQL_PLAN_CACHE_H_
