#ifndef FLOCK_STORAGE_TABLE_H_
#define FLOCK_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "storage/observer.h"
#include "storage/record_batch.h"
#include "storage/schema.h"

namespace flock::storage {

/// Per-column summary statistics. The Flock cross-optimizer's
/// ModelCompression rule prunes decision-tree branches whose split threshold
/// lies outside [min, max] of the feeding column (paper §4.1: "model
/// compression exploiting input data statistics"), and the physical scan
/// operator prunes whole segments whose zone map cannot satisfy a pushed
/// filter conjunct.
struct ColumnStats {
  double min = 0.0;  // meaningful only when has_range
  double max = 0.0;  // meaningful only when has_range
  size_t null_count = 0;
  size_t row_count = 0;
  bool numeric = false;
  /// True when min/max describe at least one non-NULL numeric value.
  /// NaN values are counted in row_count but left out of min/max.
  /// Empty, all-NULL, and non-numeric columns report has_range == false;
  /// callers must not read min/max then (historically they saw a bogus
  /// [0, 0] and could not tell it from a genuine zero range).
  bool has_range = false;
};

/// A fixed-capacity horizontal slice of a table's columns. Rows append into
/// the *open* (last) segment until it reaches the table's segment capacity,
/// at which point it is sealed and a new open segment starts. Sealed
/// segments never grow again; UPDATE and DELETE rewrite affected segments
/// by swapping in *fresh* column vectors, so record batches viewing the old
/// vectors remain consistent snapshots. Zone maps (per-column min/max/null
/// counts) are maintained eagerly: incrementally on append, recomputed only
/// for segments a mutation rewrites.
///
/// Each segment also keeps a finer zone map per Table::kBlockRows-row block
/// (`block_maps[c][b]` covers rows [b * kBlockRows, (b + 1) * kBlockRows)
/// of column c), so a point lookup reads one block instead of the whole
/// segment. Block maps are built in the same pass that extends the segment
/// map (each block's fold is merged into it), rebuilt with it when a
/// mutation rewrites a column, and never persisted: recovery rebuilds them
/// from the restored rows.
struct Segment {
  std::vector<ColumnVectorPtr> columns;  // one per schema column
  std::vector<ColumnStats> zone_maps;    // one per schema column
  std::vector<std::vector<ColumnStats>> block_maps;  // [column][block]
  size_t num_rows = 0;
  bool sealed = false;
};

/// An append-friendly columnar table, stored as a sequence of fixed-capacity
/// immutable segments with per-segment and per-block zone maps, plus a
/// version counter.
///
/// Locking contract (enforced by the engine layer, documented here because
/// this class is where it matters): mutators (AppendBatch, AppendRow,
/// FilterInPlace, UpdateColumn, RestoreSegments, set_observer) require the
/// engine's exclusive lock — they are never concurrent with each other or
/// with readers. All const members are safe to call concurrently under the
/// engine's shared lock: none writes shared state.
///
/// Zero-copy scans: ScanSegment returns views that share the segment's
/// column vectors. Views taken under the shared lock must not outlive the
/// statement that created them — a later append may grow the open segment's
/// vectors in place (sealed segments and mutation paths are safe: they swap
/// in fresh vectors instead of touching shared ones).
class Table {
 public:
  /// ~64K rows per segment: large enough to amortize per-segment metadata,
  /// small enough that zone maps discriminate on range predicates.
  static constexpr size_t kDefaultSegmentCapacity = 64 * 1024;
  /// Rows per block zone map: one default executor morsel, so a block the
  /// maps disprove is exactly one morsel the scan never builds.
  static constexpr size_t kBlockRows = RecordBatch::kDefaultBatchSize;

  /// `segment_capacity` is a knob for tests and benchmarks that need
  /// multi-segment tables with small row counts; production tables use
  /// the default.
  Table(std::string name, Schema schema,
        size_t segment_capacity = kDefaultSegmentCapacity);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }

  /// 0 at creation; every INSERT, UPDATE and DELETE adds one. Cached
  /// plans and compressed models record it to notice later mutations.
  uint64_t current_version() const { return version_; }

  // --- Segment geometry -----------------------------------------------

  size_t num_segments() const { return segments_.size(); }
  size_t segment_capacity() const { return segment_capacity_; }
  /// Rows currently in segment `s` (may be below capacity after deletes).
  size_t segment_rows(size_t s) const { return segments_[s]->num_rows; }
  /// Global row index of segment `s`'s first row.
  size_t segment_row_begin(size_t s) const;
  /// Zone map for column `c` of segment `s` (maintained eagerly).
  const ColumnStats& segment_zone_map(size_t s, size_t c) const {
    return segments_[s]->zone_maps[c];
  }
  /// Blocks in segment `s`: ceil(segment_rows(s) / kBlockRows).
  size_t segment_blocks(size_t s) const {
    return (segments_[s]->num_rows + kBlockRows - 1) / kBlockRows;
  }
  /// Zone map for column `c` of block `b` in segment `s` (maintained
  /// eagerly, with the segment's zone map).
  const ColumnStats& block_zone_map(size_t s, size_t c, size_t b) const {
    return segments_[s]->block_maps[c][b];
  }
  /// The shared column vector backing (s, c); read-only for callers.
  /// Exposed so tests can assert scan morsels alias segment memory.
  const ColumnVectorPtr& segment_column(size_t s, size_t c) const {
    return segments_[s]->columns[c];
  }

  // --- Reads ----------------------------------------------------------

  /// Zero-copy view of rows [begin, end) of segment `s`: the returned
  /// batch shares the segment's column vectors — dense when the range
  /// covers the whole segment, a selection view otherwise. See the class
  /// comment for view lifetime rules.
  RecordBatch ScanSegment(size_t s, size_t begin, size_t end) const {
    return ScanSegment(s, begin, end, {}, schema_);
  }
  RecordBatch ScanSegment(size_t s) const {
    return ScanSegment(s, 0, segments_[s]->num_rows);
  }
  /// The same view over the `projection` columns only (empty = all), in
  /// that order, under `schema`, which must describe them: a scan builds
  /// its morsels already projected, with its own output schema.
  RecordBatch ScanSegment(size_t s, size_t begin, size_t end,
                          const std::vector<size_t>& projection,
                          const Schema& schema) const;

  /// Copies rows [begin, end), in global row order, into a fresh batch
  /// (DML snapshots and other consumers that outlive the statement).
  RecordBatch ScanRange(size_t begin, size_t end) const;

  /// Copies the whole table.
  RecordBatch ScanAll() const { return ScanRange(0, num_rows_); }

  // --- Mutations (engine exclusive lock) ------------------------------

  /// Appends rows; one version bump per call (a batch INSERT is one
  /// version). Rows fill the open segment, then spill into new segments.
  Status AppendBatch(const RecordBatch& batch);
  Status AppendRow(const std::vector<Value>& row);

  /// Deletes rows where `keep[i] == false`; returns rows removed. Only
  /// segments that actually lose rows are rewritten (their zone maps
  /// recomputed); untouched segments keep their vectors and zone maps.
  /// Segments emptied entirely are dropped.
  size_t FilterInPlace(const std::vector<bool>& keep);

  /// Overwrites column `col` at the given global row indices; bumps
  /// version. Rewrites only the touched segments' column `col` (and its
  /// zone maps); other columns and segments are untouched.
  Status UpdateColumn(size_t col, const std::vector<uint32_t>& rows,
                      const std::vector<Value>& values);

  /// Installs `segments` as the table's exact physical layout (one batch
  /// per segment, in order). Recovery-only: the table must be empty; no
  /// observer fires; one version bump covers all rows.
  Status RestoreSegments(const std::vector<RecordBatch>& segments);

  /// Installs a mutation observer (nullptr to clear). Not synchronized
  /// with concurrent mutation; set during single-threaded setup.
  void set_observer(TableObserver* observer) { observer_ = observer; }

 private:
  /// The open segment, creating one if the last is sealed/missing.
  Segment* OpenSegment();
  /// Appends rows [begin, end) of `dense` into segments, extending zone
  /// maps incrementally and sealing segments as they fill.
  void AppendRowsToSegments(const RecordBatch& dense);
  /// Folds rows [begin, end) of column `c` into its block maps and, block
  /// by block, into its segment zone map: one pass over the data.
  static void ExtendZoneMaps(Segment* seg, size_t c, size_t begin,
                             size_t end);
  /// Recomputes the segment and block zone maps of column `c` in segment
  /// `seg` from scratch.
  static void RecomputeZoneMap(Segment* seg, size_t c);

  std::string name_;
  Schema schema_;
  size_t segment_capacity_;
  std::vector<std::unique_ptr<Segment>> segments_;
  size_t num_rows_ = 0;
  uint64_t version_ = 0;
  TableObserver* observer_ = nullptr;  // not owned
};

using TablePtr = std::shared_ptr<Table>;

}  // namespace flock::storage

#endif  // FLOCK_STORAGE_TABLE_H_
