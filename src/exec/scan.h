// Table scans: plain (zone-map pruned) and BDCC (group-pruned, optionally
// group-ordered for sandwich consumers). Both charge simulated I/O through
// the buffer pool when the table is registered with one.
//
// Scans optionally enforce their sargable predicates *row-level* (planner
// pushdown): each zone-bounded chunk is evaluated with typed, branch-free
// kernels directly over the storage lanes (string ranges pre-resolved to a
// per-dictionary-code verdict table at Open), then
//  - fully-passing chunks bulk-append as before,
//  - fully-failing chunks append nothing (no copy at all),
//  - dense partial chunks bulk-append and attach a selection vector,
//  - sparse partial chunks gather only the qualifying rows.
// Batches returned to Recycle() are reused, so steady-state scanning does
// not allocate per batch.
#ifndef BDCC_EXEC_SCAN_H_
#define BDCC_EXEC_SCAN_H_

#include <memory>
#include <string>
#include <vector>

#include "bdcc/bdcc_table.h"
#include "bdcc/scatter_scan.h"
#include "exec/morsel.h"
#include "exec/operator.h"
#include "storage/zonemap.h"

namespace bdcc {
namespace exec {

/// Sargable predicate usable against zone maps (MinMax pushdown) and, when
/// row filtering is enabled, enforced per row inside the scan.
struct ScanPredicate {
  std::string column;
  ValueRange range;
};

/// How scan predicates use a column's encoded mirror (Table::
/// BuildEncodedLanes) when one exists:
///  kAuto — evaluate directly over the encoded blocks (one comparison per
///          RLE run, unpack-compare for bit-packed spans);
///  kOff  — ignore the encoding, evaluate over the flat lane.
enum class EncodedEval { kAuto, kOff };

namespace internal {

/// One bound row-level predicate with constants pre-typed for the column's
/// storage lane ("bind constants once"): numeric bounds as lane values,
/// string ranges as a per-dictionary-code verdict table.
struct BoundRowPred {
  int col = 0;
  TypeId type = TypeId::kInt64;
  int64_t lo_i64 = 0, hi_i64 = 0;
  int32_t lo_i32 = 0, hi_i32 = 0;
  double lo_f64 = 0, hi_f64 = 0;
  // Whether the float range had an explicit upper bound: NaN mirrors the
  // Filter path's comparison semantics (NaN compares "greater"), passing
  // lower bounds and failing only explicit upper bounds.
  bool has_hi_f64 = false;
  std::vector<uint8_t> code_ok;  // string columns: verdict per dict code
};

/// Shared scan-side machinery: row-predicate kernels, selection building,
/// and batch recycling.
class ScanFilterState {
 public:
  /// Resolve `preds` against `table`'s columns (call at Open).
  Status Bind(const Table& table, const std::vector<ScanPredicate>& preds);

  bool active() const { return !bound_.empty(); }

  void set_encoded_eval(EncodedEval mode) { encoded_eval_ = mode; }

  /// Evaluate all predicates over storage rows [begin, end); selected
  /// chunk-relative indices land in `rel_sel` (scratch reused across calls).
  /// `ctx` takes the encoded-span stats.
  void EvalSpan(const Table& table, uint64_t begin, uint64_t end,
                ExecContext* ctx, std::vector<uint32_t>* rel_sel);

  /// Take a batch for filling: a recycled one when available, else fresh
  /// (typed per `schema`, string dictionaries wired from storage).
  Batch TakeBatch(const Table& table, const std::vector<int>& col_idx,
                  const Schema& schema, size_t reserve_rows);
  /// Return a no-longer-referenced batch for reuse (type-checked).
  void Recycle(Batch&& batch, const Schema& schema);
  void ClearRecycled() { recycled_.clear(); }

 private:
  std::vector<BoundRowPred> bound_;
  EncodedEval encoded_eval_ = EncodedEval::kOff;
  std::vector<uint8_t> mask_;  // scratch
  std::vector<Batch> recycled_;
};

/// Builds the output selection while chunks append: identity until the
/// first partial chunk, explicit afterwards.
class SelBuilder {
 public:
  /// `n` appended rows, all selected (base = physical rows before append).
  void AddDense(size_t base, size_t n);
  /// Bulk-appended chunk of which only `rel` (chunk-relative) are selected.
  void AddPartial(size_t base, const std::vector<uint32_t>& rel);
  size_t logical_rows() const { return logical_; }
  /// Install num_rows/sel on `out` (physical = rows actually appended).
  void Finish(Batch* out);

 private:
  std::vector<uint32_t> sel_;
  bool explicit_ = false;
  size_t logical_ = 0;
};

}  // namespace internal

/// \brief State and per-chunk emission shared by PlainScan and BdccScan:
/// resolved columns and zone predicates, the row filter, zero-copy and
/// morsel settings, and batch recycling. Each scan walks its own spans and
/// hands every chunk to one routine, ScanChunk.
class TableScan : public Operator {
 public:
  const Schema& schema() const override { return schema_; }
  void Close(ExecContext* ctx) override { filter_.ClearRecycled(); }
  void Recycle(Batch&& batch) override {
    filter_.Recycle(std::move(batch), schema_);
  }

  /// Enforce the zone predicates row-level inside the scan (emitting
  /// selection vectors / gathered rows). Call before Open.
  void EnableRowFilter(bool on) { row_filter_ = on; }

  /// Evaluate pushed predicates over encoded lanes per `mode` (when the
  /// table has them; see EncodedEval). Call before Open.
  void SetEncodedEval(EncodedEval mode) { filter_.set_encoded_eval(mode); }

  /// Emit zone-sized chunks the zone maps prove fully-passing (or any chunk
  /// when no filter is enforced) as zero-copy views over the storage lanes
  /// instead of copying. Call before Open; consumers must honor the
  /// ColumnVector view contract (see exec/batch.h).
  void EnableZeroCopy(bool on) { zero_copy_ = on; }

  /// Restrict this scan to a strided subset of morsels (parallel clone
  /// path; see exec/morsel.h): row morsels for PlainScan, GroupRange-index
  /// morsels for BdccScan. Only valid for ungrouped BdccScans — grouped
  /// scans parallelize by group-id chunking instead. Call before Open.
  void RestrictToMorsels(MorselSet morsels) { morsels_ = std::move(morsels); }

 protected:
  /// Output of one Next() call while chunks append to it.
  struct Emit {
    explicit Emit(Batch batch) : out(std::move(batch)) {}
    Batch out;
    internal::SelBuilder selb;
    std::vector<uint32_t> rel_scratch;
    size_t appended = 0;  // physical rows appended to `out`
    bool view = false;    // `out` became a single-chunk borrowed view
  };

  TableScan(std::vector<std::string> columns,
            std::vector<ScanPredicate> zone_predicates)
      : preds_(std::move(zone_predicates)), col_names_(std::move(columns)) {}

  /// Open-time half shared by both scans: bind the row filter and resolve
  /// columns and zone predicates against `table`; reset the walk state.
  Status OpenOn(const Table& table);

  /// Scan one chunk of `data` starting at `*cursor` and ending at `limit`
  /// or the zone end, whichever is first: MinMax skip of zones lying fully
  /// inside [skip_begin, skip_end), zone and decode-skip counting, the
  /// scan.decode fault point, a zero-copy view when `views` allows one,
  /// else EmitChunk into `emit`. Advances `*cursor` past what it consumed.
  /// Defined (and only called) in scan.cc.
  inline Status ScanChunk(const Table& data, uint64_t limit,
                          uint64_t skip_begin, uint64_t skip_end, bool views,
                          ExecContext* ctx, uint64_t* cursor, Emit* emit);

  std::vector<ScanPredicate> preds_;
  std::vector<int> col_idx_;
  Schema schema_;
  MorselSet morsels_;
  size_t morsel_pos_ = 0;
  uint64_t cursor_ = 0;
  bool row_filter_ = false;
  bool zero_copy_ = false;
  internal::ScanFilterState filter_;

 private:
  std::vector<std::string> col_names_;
  std::vector<std::pair<int, ValueRange>> bound_preds_;
  // End row of the last chunk read: a chunk starting there continues the
  // same zone visit, so a zone counts once per contiguous visit.
  uint64_t read_end_ = 0;
};

/// \brief Sequential scan over a plain table with MinMax zone skipping.
class PlainScan : public TableScan {
 public:
  PlainScan(const Table* table, std::vector<std::string> columns,
            std::vector<ScanPredicate> zone_predicates = {});

  Status Open(ExecContext* ctx) override;
  Result<Batch> Next(ExecContext* ctx) override;

 private:
  const Table* table_;
};

/// How a BDCC scan should tag batches for sandwich consumers: group id is
/// the concatenation of the listed uses' aligned bin prefixes.
struct GroupSpec {
  size_t use_idx = 0;
  int shared_bits = 0;
};

/// \brief Scan over a BDCC table driven by (pruned, possibly reordered)
/// group ranges from the scatter-scan planner.
class BdccScan : public TableScan {
 public:
  BdccScan(const BdccTable* table, std::vector<std::string> columns,
           std::vector<GroupRange> ranges,
           std::vector<ScanPredicate> zone_predicates = {},
           std::vector<GroupSpec> grouping = {}, uint64_t pruned_groups = 0);

  Status Open(ExecContext* ctx) override;
  Result<Batch> Next(ExecContext* ctx) override;

  /// Group id a given reduced key maps to under `grouping`.
  int64_t GroupIdOf(uint64_t key) const;

  /// Attach the delta-side leg of a live-table snapshot: once the clustered
  /// ranges drain, the scan walks `chunks` (sealed delta chunk tables in the
  /// base data()'s column schema) under the same zone pruning and row-level
  /// sarg filtering. Batches are cut at chunk boundaries, string verdicts
  /// are re-bound per chunk — every chunk carries its own dictionaries (see
  /// src/delta/delta_store.h) — and no zero-copy views are emitted. `pin`
  /// keeps the snapshot (base version + chunks) alive for the scan's
  /// lifetime; `table` passed to the constructor must be that snapshot's
  /// base. Only valid for ungrouped scans (the delta is unclustered, so
  /// grouped emission is impossible — the planner falls back to ungrouped
  /// plans while a delta is live). Call before Open.
  void AttachDelta(std::shared_ptr<const void> pin,
                   std::vector<const Table*> chunks) {
    delta_pin_ = std::move(pin);
    delta_chunks_ = std::move(chunks);
  }

 private:
  Result<Batch> NextDelta(ExecContext* ctx);

  const BdccTable* table_;
  std::vector<GroupRange> ranges_;
  std::vector<GroupSpec> grouping_;
  uint64_t pruned_groups_;
  size_t range_idx_ = 0;  // cursor_ is the row within ranges_[range_idx_]
  // Delta-side leg (AttachDelta): snapshot pin, chunk walk state, and the
  // chunk the filter's dictionary verdicts are currently bound to.
  std::shared_ptr<const void> delta_pin_;
  std::vector<const Table*> delta_chunks_;
  size_t delta_idx_ = 0;
  uint64_t delta_cursor_ = 0;
  int delta_bound_ = -1;
  bool main_done_ = false;
};

/// Group id `key` maps to under `grouping` (-1 when grouping is empty):
/// the concatenation of each use's aligned bin prefix, major first. Shared
/// by BdccScan and the planner's group-chunked parallel pipelines.
int64_t GroupIdForKey(const BdccTable& table,
                      const std::vector<GroupSpec>& grouping, uint64_t key);

}  // namespace exec
}  // namespace bdcc

#endif  // BDCC_EXEC_SCAN_H_
