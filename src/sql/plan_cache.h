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

#include "sql/function_registry.h"
#include "sql/logical_plan.h"
#include "sql/physical_plan.h"
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

/// Thread-safe LRU cache of lowered plans keyed by statement shape
/// (LexedStatement::key: token texts, names lower-cased, every literal a
/// typed slot `?i`/`?d`/`?s`), the prepared-statement path of the serving
/// layer. An entry holds the optimized logical plan and its PhysicalPlan,
/// lowered once. A hit skips parse, plan, optimize and lowering: Find
/// returns the shared, immutable PhysicalPlan, and the caller executes it
/// with the statement's parameters (ExecContext::params), which every
/// literal with a slot (Expr::param_slot) reads, wherever a rewrite moved
/// it. Concurrent executions of one shape run one plan, each with its own
/// per-execution state.
///
/// A cached plan holds for other parameter values only where planning did
/// not read them. An entry keeps three guards, read off the plan once at
/// insertion, and a lookup that fails one is a miss (the caller re-plans
/// and Insert replaces the entry):
///  * pinned slots: the values of every slot a plan-time step read
///    (PinScope: constant folding, a model named by a string, LIMIT and
///    OFFSET, column names spelled from literal text, Equals between
///    literals, compression narrowing a feature's range) must be equal,
///    same type and same bits;
///  * standing segments: a node whose rewrite depended on which segments
///    the filters below it leave standing (LogicalPlan::standing_segments,
///    set by model compression) must see the same set under the bound
///    values: the recorded prune conjuncts (ProveScan), their slots bound
///    (BindPruneConjuncts), against the table's live zone maps;
///  * statistics: a scan whose rewrite read its table's zone maps records
///    the table version (LogicalPlan::stats_version), and an entry whose
///    version is no longer current is stale.
/// So a hit runs exactly the plan a fresh plan of the statement would.
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
  /// `registry`, when given, lowers the plans Insert(key, plan) receives.
  explicit PlanCache(size_t capacity = 256,
                     const FunctionRegistry* registry = nullptr)
      : capacity_(capacity), registry_(registry) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The lowered plan cached for `key`, when its guards hold for
  /// `params`; nullptr on a miss (an entry that holds no lowered plan is
  /// one). Counts a hit or miss and refreshes LRU order. The plan is
  /// shared: execute it with `params`.
  std::shared_ptr<const PhysicalPlan> Find(
      const std::string& key, const std::vector<storage::Value>& params = {});

  /// The optimized logical plan a hit for `params` runs, as a private
  /// clone with `params` written into its slots (the plan EXPLAIN of the
  /// statement would show), or nullptr on a miss. Counts like Find.
  PlanPtr Lookup(const std::string& key,
                 const std::vector<storage::Value>& params = {});

  /// Inserts (or replaces) the entry for `key`: the optimized `plan`, its
  /// lowering `physical`, the `params` it was planned from and the slots
  /// planning and lowering read (`pinned`). Evicts the least recently used
  /// entry when at capacity.
  void Insert(const std::string& key, PlanPtr plan,
              std::shared_ptr<const PhysicalPlan> physical,
              std::vector<storage::Value> params, std::vector<bool> pinned);

  /// Inserts a plan whose parameter values are not known. It pins every
  /// slot, so it serves only lookups that bind no parameter. The cache
  /// lowers it with its registry; without one (or if lowering fails) only
  /// Lookup serves it.
  void Insert(const std::string& key, PlanPtr plan);

  /// Drops every entry (DDL / model-redeploy invalidation).
  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }
  PlanCacheStats stats() const;

 private:
  /// A compressed node's guard: the segments of `table` the filters below
  /// it left standing when it was planned, and those filters' conjuncts.
  struct StandingGuard {
    storage::TablePtr table;  // null: no scan under a filter chain
    std::vector<ScanPruneConjunct> conjuncts;
    std::vector<size_t> standing;
  };
  struct Entry {
    PlanPtr plan;
    std::shared_ptr<const PhysicalPlan> physical;  // null: Lookup only
    std::vector<storage::Value> params;  // the values it was planned from
    std::vector<bool> pinned;            // per slot; shorter = unpinned
    std::vector<StandingGuard> standing;
    /// Tables whose statistics a rewrite read, with their versions then.
    std::vector<std::pair<storage::TablePtr, uint64_t>> stats;
  };
  using EntryPtr = std::shared_ptr<const Entry>;
  using LruList = std::list<std::pair<std::string, EntryPtr>>;

  /// The entry for `key` when every guard holds for `params`, else null.
  EntryPtr Get(const std::string& key,
               const std::vector<storage::Value>& params);
  static bool GuardsHold(const Entry& entry,
                         const std::vector<storage::Value>& params);
  void Count(bool hit);

  size_t capacity_;
  const FunctionRegistry* registry_;
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
