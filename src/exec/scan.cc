#include "exec/scan.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/bits.h"
#include "exec/kernels/kernels.h"
#include "storage/compression/encoded_column.h"

namespace bdcc {
namespace exec {

namespace internal {

Status ScanFilterState::Bind(const Table& table,
                             const std::vector<ScanPredicate>& preds) {
  bound_.clear();
  for (const ScanPredicate& p : preds) {
    BDCC_ASSIGN_OR_RETURN(int idx, table.ColumnIndex(p.column));
    const Column& col = table.column(idx);
    BoundRowPred b;
    b.col = idx;
    b.type = col.type();
    switch (col.type()) {
      case TypeId::kInt64:
        b.lo_i64 = p.range.lo ? p.range.lo->AsInt64()
                              : std::numeric_limits<int64_t>::min();
        b.hi_i64 = p.range.hi ? p.range.hi->AsInt64()
                              : std::numeric_limits<int64_t>::max();
        break;
      case TypeId::kFloat64:
        b.lo_f64 = p.range.lo ? p.range.lo->AsDouble()
                              : -std::numeric_limits<double>::infinity();
        b.hi_f64 = p.range.hi ? p.range.hi->AsDouble()
                              : std::numeric_limits<double>::infinity();
        b.has_hi_f64 = p.range.hi.has_value();
        break;
      case TypeId::kString: {
        // Bind the range to the dictionary once: one verdict per code.
        const Dictionary& dict = *col.dict();
        b.code_ok.resize(dict.size());
        for (int32_t c = 0; c < dict.size(); ++c) {
          b.code_ok[c] = p.range.Contains(Value::String(dict.Get(c))) ? 1 : 0;
        }
        break;
      }
      default: {  // i32-backed
        int64_t lo = p.range.lo ? p.range.lo->AsInt64()
                                : std::numeric_limits<int32_t>::min();
        int64_t hi = p.range.hi ? p.range.hi->AsInt64()
                                : std::numeric_limits<int32_t>::max();
        if (lo > std::numeric_limits<int32_t>::max() ||
            hi < std::numeric_limits<int32_t>::min()) {
          // The range lies entirely outside the lane's domain: match
          // nothing (a naive clamp would wrongly admit the boundary value).
          b.lo_i32 = 1;
          b.hi_i32 = 0;
        } else {
          b.lo_i32 = static_cast<int32_t>(std::clamp<int64_t>(
              lo, std::numeric_limits<int32_t>::min(),
              std::numeric_limits<int32_t>::max()));
          b.hi_i32 = static_cast<int32_t>(std::clamp<int64_t>(
              hi, std::numeric_limits<int32_t>::min(),
              std::numeric_limits<int32_t>::max()));
        }
        break;
      }
    }
    bound_.push_back(std::move(b));
  }
  return Status::OK();
}

void ScanFilterState::EvalSpan(const Table& table, uint64_t begin,
                               uint64_t end, ExecContext* ctx,
                               std::vector<uint32_t>* rel_sel) {
  using compression::EncodedLane;
  size_t n = static_cast<size_t>(end - begin);
  mask_.assign(n, 1);
  bool none_pass = false;
  for (const BoundRowPred& p : bound_) {
    if (none_pass) break;
    const Column& col = table.column(p.col);
    // i32-backed lanes may carry an encoded mirror; honor the mode.
    const EncodedLane* enc =
        (encoded_eval_ == EncodedEval::kAuto && p.type != TypeId::kInt64 &&
         p.type != TypeId::kFloat64)
            ? col.encoded()
            : nullptr;
    switch (p.type) {
      case TypeId::kInt64:
        kernels::RangeMaskI64(col.i64().data() + begin, n, p.lo_i64,
                              p.hi_i64, mask_.data());
        break;
      case TypeId::kFloat64:
        kernels::RangeMaskF64(col.f64().data() + begin, n, p.lo_f64,
                              p.hi_f64, p.has_hi_f64, mask_.data());
        break;
      case TypeId::kString: {
        const uint8_t* ok = p.code_ok.data();
        if (enc != nullptr) {
          EncodedLane::SpanVerdict v = enc->VerdictMask(
              col.i32().data(), begin, end, ok, p.code_ok.size(),
              mask_.data());
          ctx->stats()->encoded_spans += 1;
          // kNonePass zeroes the whole span mask, so the AND-chain is done.
          none_pass = v == EncodedLane::SpanVerdict::kNonePass;
        } else {
          kernels::VerdictMaskI32(col.i32().data() + begin, n, ok,
                                  mask_.data());
        }
        break;
      }
      default: {
        if (enc != nullptr) {
          EncodedLane::SpanVerdict v =
              enc->RangeMask(col.i32().data(), begin, end, p.lo_i32,
                             p.hi_i32, mask_.data());
          ctx->stats()->encoded_spans += 1;
          none_pass = v == EncodedLane::SpanVerdict::kNonePass;
        } else {
          kernels::RangeMaskI32(col.i32().data() + begin, n, p.lo_i32,
                                p.hi_i32, mask_.data());
        }
        break;
      }
    }
  }
  rel_sel->clear();
  if (!none_pass) kernels::MaskToSel(mask_.data(), n, 0, rel_sel);
}

Batch ScanFilterState::TakeBatch(const Table& table,
                                 const std::vector<int>& col_idx,
                                 const Schema& schema, size_t reserve_rows) {
  Batch out;
  if (!recycled_.empty()) {
    out = std::move(recycled_.back());
    recycled_.pop_back();
    out.num_rows = 0;
    out.sel.clear();
    out.group_id = -1;
    for (ColumnVector& c : out.columns) c.ClearKeepCapacity();
  } else {
    out.columns.reserve(col_idx.size());
    for (size_t c = 0; c < col_idx.size(); ++c) {
      ColumnVector v(schema.field(c).type);
      v.Reserve(reserve_rows);
      out.columns.push_back(std::move(v));
    }
  }
  for (size_t c = 0; c < col_idx.size(); ++c) {
    if (table.column(col_idx[c]).type() == TypeId::kString) {
      out.columns[c].dict = table.column(col_idx[c]).dict();
    }
  }
  return out;
}

void ScanFilterState::Recycle(Batch&& batch, const Schema& schema) {
  RecycleIntoFreeList(std::move(batch), schema, &recycled_);
}

void SelBuilder::AddDense(size_t base, size_t n) {
  if (explicit_) {
    for (size_t i = 0; i < n; ++i) {
      sel_.push_back(static_cast<uint32_t>(base + i));
    }
  }
  logical_ += n;
}

void SelBuilder::AddPartial(size_t base, const std::vector<uint32_t>& rel) {
  if (!explicit_) {
    // Everything so far was dense: materialize the identity prefix.
    sel_.reserve(logical_ + rel.size());
    for (size_t i = 0; i < logical_; ++i) {
      sel_.push_back(static_cast<uint32_t>(i));
    }
    explicit_ = true;
  }
  for (uint32_t r : rel) sel_.push_back(static_cast<uint32_t>(base + r));
  logical_ += rel.size();
}

void SelBuilder::Finish(Batch* out) {
  out->num_rows = logical_;
  if (explicit_) out->sel = std::move(sel_);
}

}  // namespace internal

namespace {

using internal::SelBuilder;

// Append rows [begin, end) of the storage columns to `out` (no I/O or stats
// accounting — see ChargeSpan).
void AppendRows(const Table& table, const std::vector<int>& col_idx,
                uint64_t begin, uint64_t end, Batch* out) {
  for (size_t c = 0; c < col_idx.size(); ++c) {
    const Column& src = table.column(col_idx[c]);
    ColumnVector& v = out->columns[c];
    switch (src.type()) {
      case TypeId::kInt64:
        v.i64.insert(v.i64.end(), src.i64().begin() + begin,
                     src.i64().begin() + end);
        break;
      case TypeId::kFloat64:
        v.f64.insert(v.f64.end(), src.f64().begin() + begin,
                     src.f64().begin() + end);
        break;
      default:
        v.i32.insert(v.i32.end(), src.i32().begin() + begin,
                     src.i32().begin() + end);
        break;
    }
  }
}

// Append only rows begin+rel_sel[i] (sparse chunk: gather straight from
// storage, no intermediate copy).
void AppendSelectedRows(const Table& table, const std::vector<int>& col_idx,
                        uint64_t begin, const std::vector<uint32_t>& rel_sel,
                        Batch* out) {
  for (size_t c = 0; c < col_idx.size(); ++c) {
    const Column& src = table.column(col_idx[c]);
    ColumnVector& v = out->columns[c];
    switch (src.type()) {
      case TypeId::kInt64: {
        const int64_t* data = src.i64().data() + begin;
        for (uint32_t r : rel_sel) v.i64.push_back(data[r]);
        break;
      }
      case TypeId::kFloat64: {
        const double* data = src.f64().data() + begin;
        for (uint32_t r : rel_sel) v.f64.push_back(data[r]);
        break;
      }
      default: {
        const int32_t* data = src.i32().data() + begin;
        for (uint32_t r : rel_sel) v.i32.push_back(data[r]);
        break;
      }
    }
  }
}

// Charge simulated I/O and scan stats for reading rows [begin, end) of the
// scanned columns (the scan reads the span even when predicates then drop
// rows). Simulated I/O only when the execution context is wired to a pool
// (plan-time mini-evaluations pass a pool-less context).
void ChargeSpan(const Table& table, const std::vector<int>& col_idx,
                uint64_t begin, uint64_t end, ExecContext* ctx) {
  if (table.HasIoHandles() && ctx->buffer_pool() != nullptr) {
    for (size_t c = 0; c < col_idx.size(); ++c) {
      table.buffer_pool()->ReadRows(table.io_handle(col_idx[c]), begin, end);
    }
  }
  ctx->stats()->rows_scanned += end - begin;
}

// Minimum chunk size worth emitting as a borrowed view: below this the
// bookkeeping of cutting a single-chunk batch outweighs the saved copy.
constexpr uint64_t kMinViewRows = 256;

// Point every output column at the storage lanes for rows [begin, end):
// the zero-copy emission path for chunks proven fully-passing.
void MakeViews(const Table& table, const std::vector<int>& col_idx,
               uint64_t begin, uint64_t end, Batch* out) {
  size_t n = static_cast<size_t>(end - begin);
  for (size_t c = 0; c < col_idx.size(); ++c) {
    const Column& src = table.column(col_idx[c]);
    ColumnVector& v = out->columns[c];
    switch (src.type()) {
      case TypeId::kInt64:
        v.SetView(src.i64().data() + begin, n);
        break;
      case TypeId::kFloat64:
        v.SetView(src.f64().data() + begin, n);
        break;
      default:
        v.SetView(src.i32().data() + begin, n);
        break;
    }
  }
  out->num_rows = n;
}

// One zone-bounded chunk through the optional row filter (`apply_filter`
// false also covers chunks the zone maps proved fully-passing). Returns the
// number of physical rows appended and records selection state in `selb`.
size_t EmitChunk(const Table& table, const std::vector<int>& col_idx,
                 uint64_t begin, uint64_t end, bool apply_filter,
                 internal::ScanFilterState* filter, ExecContext* ctx,
                 Batch* out, SelBuilder* selb,
                 std::vector<uint32_t>* rel_scratch) {
  size_t base = out->physical_rows();
  size_t n = static_cast<size_t>(end - begin);
  ChargeSpan(table, col_idx, begin, end, ctx);
  if (!apply_filter || !filter->active()) {
    AppendRows(table, col_idx, begin, end, out);
    selb->AddDense(base, n);
    return n;
  }
  filter->EvalSpan(table, begin, end, ctx, rel_scratch);
  size_t k = rel_scratch->size();
  ctx->stats()->rows_filtered_at_scan += n - k;
  if (k == 0) return 0;  // nothing qualifies: no copy at all
  if (k == n) {
    AppendRows(table, col_idx, begin, end, out);
    selb->AddDense(base, n);
    return n;
  }
  double density = static_cast<double>(k) / static_cast<double>(n);
  if (!ctx->sel_enabled() || density < ExecContext::kCompactDensity) {
    // Sparse: gather just the qualifying rows from storage.
    AppendSelectedRows(table, col_idx, begin, *rel_scratch, out);
    selb->AddDense(base, k);
    return k;
  }
  // Dense partial: bulk copy (memcpy-speed) and narrow with a selection.
  AppendRows(table, col_idx, begin, end, out);
  selb->AddPartial(base, *rel_scratch);
  return n;
}

// Zone predicates a MinMax zone of `table` may satisfy / provably satisfies
// for every row (callers check HasZoneMaps()).
bool ZoneMayMatch(const Table& table,
                  const std::vector<std::pair<int, ValueRange>>& preds,
                  uint64_t zone) {
  for (const auto& [col, range] : preds) {
    if (!table.zone_map(col).MayMatch(zone, range)) return false;
  }
  return true;
}

bool ZoneAllMatch(const Table& table,
                  const std::vector<std::pair<int, ValueRange>>& preds,
                  uint64_t zone) {
  for (const auto& [col, range] : preds) {
    if (!table.zone_map(col).AllMatch(zone, range)) return false;
  }
  return true;
}

// Skip span for legs that may skip any zone MinMax excludes.
constexpr uint64_t kAnyZone = std::numeric_limits<uint64_t>::max();

}  // namespace

// ---------------- TableScan ----------------

Status TableScan::OpenOn(const Table& table) {
  cursor_ = 0;
  morsel_pos_ = morsels_.offset;
  read_end_ = 0;  // row 0 starts a zone, so no chunk continues a visit yet
  filter_.ClearRecycled();
  if (row_filter_) {
    BDCC_RETURN_NOT_OK(filter_.Bind(table, preds_));
  }
  col_idx_.clear();
  bound_preds_.clear();
  std::vector<Field> fields;
  for (const std::string& name : col_names_) {
    BDCC_ASSIGN_OR_RETURN(int idx, table.ColumnIndex(name));
    col_idx_.push_back(idx);
    fields.push_back(Field{name, table.column(idx).type()});
  }
  for (const ScanPredicate& p : preds_) {
    BDCC_ASSIGN_OR_RETURN(int idx, table.ColumnIndex(p.column));
    bound_preds_.push_back({idx, p.range});
  }
  schema_ = Schema(std::move(fields));
  return Status::OK();
}

inline Status TableScan::ScanChunk(const Table& data, uint64_t limit,
                                   uint64_t skip_begin, uint64_t skip_end,
                                   bool views, ExecContext* ctx,
                                   uint64_t* cursor, Emit* emit) {
  uint64_t begin = *cursor;
  uint64_t end = limit;
  bool zone_all_match = false;
  if (data.HasZoneMaps()) {
    uint64_t zone = begin / data.zone_rows();
    uint64_t zone_begin = zone * data.zone_rows();
    uint64_t zone_end = zone_begin + data.zone_rows();
    if (zone_begin >= skip_begin && zone_end <= skip_end &&
        !ZoneMayMatch(data, bound_preds_, zone)) {
      ctx->stats()->zones_skipped += 1;
      *cursor = zone_end;
      return Status::OK();
    }
    if (begin == zone_begin || begin != read_end_) {
      ctx->stats()->zones_read += 1;
    }
    end = std::min(end, zone_end);
    zone_all_match = ZoneAllMatch(data, bound_preds_, zone);
  }
  bool filtering = row_filter_ && filter_.active();
  // Zone maps proving every row passes short-circuit the chunk past
  // predicate evaluation (and any encoded-lane work) entirely.
  if (filtering && zone_all_match) ctx->stats()->decodes_skipped += 1;
  if (BDCC_UNLIKELY(fault::ShouldFail(fault::kScanDecode))) {
    ctx->stats()->faults_injected += 1;
    return Status::IOError("injected decode fault (scan chunk)");
  }
  read_end_ = end;
  *cursor = end;
  if (views && emit->appended == 0 && end - begin >= kMinViewRows &&
      (!filtering || zone_all_match)) {
    ChargeSpan(data, col_idx_, begin, end, ctx);
    MakeViews(data, col_idx_, begin, end, &emit->out);
    ctx->stats()->chunks_zero_copy += 1;
    emit->view = true;
    return Status::OK();
  }
  emit->appended +=
      EmitChunk(data, col_idx_, begin, end, filtering && !zone_all_match,
                &filter_, ctx, &emit->out, &emit->selb, &emit->rel_scratch);
  return Status::OK();
}

// ---------------- PlainScan ----------------

PlainScan::PlainScan(const Table* table, std::vector<std::string> columns,
                     std::vector<ScanPredicate> zone_predicates)
    : TableScan(std::move(columns), std::move(zone_predicates)),
      table_(table) {}

Status PlainScan::Open(ExecContext* ctx) { return OpenOn(*table_); }

Result<Batch> PlainScan::Next(ExecContext* ctx) {
  uint64_t rows = table_->num_rows();
  Emit emit(filter_.TakeBatch(*table_, col_idx_, schema_, ctx->batch_size()));
  while (emit.appended < ctx->batch_size()) {
    BDCC_RETURN_NOT_OK(ctx->CheckLifecycle());
    uint64_t limit = rows;
    if (morsels_.valid()) {
      // Walk this clone's strided morsels; a batch may span morsels.
      while (morsel_pos_ < morsels_.morsels->size()) {
        const Morsel& m = (*morsels_.morsels)[morsel_pos_];
        if (cursor_ < m.begin) cursor_ = m.begin;
        if (cursor_ < m.end) break;
        morsel_pos_ += morsels_.stride;
      }
      if (morsel_pos_ >= morsels_.morsels->size()) break;
      limit = (*morsels_.morsels)[morsel_pos_].end;
    } else if (cursor_ >= rows) {
      break;
    }
    limit = std::min(limit, cursor_ + (ctx->batch_size() - emit.appended));
    BDCC_RETURN_NOT_OK(ScanChunk(*table_, limit, 0, kAnyZone, zero_copy_, ctx,
                                 &cursor_, &emit));
    if (emit.view) return std::move(emit.out);  // single-chunk borrowed batch
  }
  emit.selb.Finish(&emit.out);
  return std::move(emit.out);  // empty == end-of-stream
}

// ---------------- BdccScan ----------------

BdccScan::BdccScan(const BdccTable* table, std::vector<std::string> columns,
                   std::vector<GroupRange> ranges,
                   std::vector<ScanPredicate> zone_predicates,
                   std::vector<GroupSpec> grouping, uint64_t pruned_groups)
    : TableScan(std::move(columns), std::move(zone_predicates)),
      table_(table),
      ranges_(std::move(ranges)),
      grouping_(std::move(grouping)),
      pruned_groups_(pruned_groups) {}

Status BdccScan::Open(ExecContext* ctx) {
  range_idx_ = 0;
  delta_idx_ = 0;
  delta_cursor_ = 0;
  delta_bound_ = -1;
  main_done_ = false;
  // Morsel restriction addresses ranges by index, so grouped scans (which
  // sort/coalesce below) must use group-id chunking instead.
  BDCC_CHECK(!morsels_.valid() || grouping_.empty());
  // The delta is unclustered: grouped emission over it is impossible (the
  // planner must not hand a grouped scan a delta leg).
  BDCC_CHECK(delta_chunks_.empty() || grouping_.empty());
  ctx->stats()->groups_pruned += pruned_groups_;
  BDCC_RETURN_NOT_OK(OpenOn(table_->data()));
  // Grouped emission must present group ids in ascending order (sandwich
  // operators align on them). Sort by the *emitted* id — the aligned shared
  // prefix — not the full dimension bits; a stable sort keeps physical
  // (key) order within each group for better coalescing below.
  if (!grouping_.empty()) {
    std::stable_sort(ranges_.begin(), ranges_.end(),
                     [&](const GroupRange& a, const GroupRange& b) {
                       return GroupIdOf(a.key) < GroupIdOf(b.key);
                     });
  }
  // Coalesce physically contiguous ranges that share a group id so batches
  // are not fragmented at count-table group boundaries (for an ungrouped
  // scan every contiguous run merges into one span). Skipped under a morsel
  // restriction, whose spans address the ranges by index.
  if (!ranges_.empty() && !morsels_.valid()) {
    std::vector<GroupRange> merged;
    merged.reserve(ranges_.size());
    int64_t last_gid = 0;
    for (const GroupRange& r : ranges_) {
      int64_t gid = GroupIdOf(r.key);
      if (!merged.empty() && merged.back().row_end == r.row_begin &&
          last_gid == gid) {
        merged.back().row_end = r.row_end;
      } else {
        merged.push_back(r);
        last_gid = gid;
      }
    }
    ranges_ = std::move(merged);
  }
  return Status::OK();
}

int64_t GroupIdForKey(const BdccTable& table,
                      const std::vector<GroupSpec>& grouping, uint64_t key) {
  if (grouping.empty()) return -1;
  int64_t gid = 0;
  for (const GroupSpec& g : grouping) {
    uint64_t mask = table.ReducedMask(g.use_idx);
    int own_bits = bits::Ones(mask);
    uint64_t prefix = bits::ExtractBits(key, mask);
    BDCC_CHECK(g.shared_bits <= own_bits);
    gid = (gid << g.shared_bits) |
          static_cast<int64_t>(prefix >> (own_bits - g.shared_bits));
  }
  return gid;
}

int64_t BdccScan::GroupIdOf(uint64_t key) const {
  return GroupIdForKey(*table_, grouping_, key);
}

Result<Batch> BdccScan::Next(ExecContext* ctx) {
  if (main_done_) return NextDelta(ctx);
  const Table& data = table_->data();
  Emit emit(filter_.TakeBatch(data, col_idx_, schema_, ctx->batch_size()));
  int64_t batch_gid = -2;  // unset sentinel
  while (emit.appended < ctx->batch_size()) {
    BDCC_RETURN_NOT_OK(ctx->CheckLifecycle());
    if (morsels_.valid()) {
      // Walk this clone's strided morsels of range indices.
      while (morsel_pos_ < morsels_.morsels->size()) {
        const Morsel& m = (*morsels_.morsels)[morsel_pos_];
        if (range_idx_ < m.begin) {
          range_idx_ = m.begin;
          cursor_ = 0;
        }
        if (range_idx_ < m.end) break;
        morsel_pos_ += morsels_.stride;
      }
      if (morsel_pos_ >= morsels_.morsels->size()) break;
    } else if (range_idx_ >= ranges_.size()) {
      break;
    }
    const GroupRange& range = ranges_[range_idx_];
    // A batch never mixes group ids (sandwich alignment contract); ranges
    // are id-sorted, so we only ever cut at id boundaries.
    int64_t gid = GroupIdOf(range.key);
    if (batch_gid != -2 && gid != batch_gid) break;
    if (cursor_ == 0) {
      cursor_ = range.row_begin;
      ctx->stats()->groups_read += 1;
    }
    if (cursor_ >= range.row_end) {
      ++range_idx_;
      cursor_ = 0;
      continue;
    }
    uint64_t limit = std::min(range.row_end,
                              cursor_ + (ctx->batch_size() - emit.appended));
    size_t before = emit.appended;
    // Only zones lying fully inside the range may be skipped.
    BDCC_RETURN_NOT_OK(ScanChunk(data, limit, range.row_begin, range.row_end,
                                 zero_copy_, ctx, &cursor_, &emit));
    if (emit.view) {
      emit.out.group_id = gid;
      return std::move(emit.out);  // single-chunk borrowed batch
    }
    // Only chunks that contributed rows pin the batch's group id; a fully
    // filtered group simply emits nothing (like a zone-skipped one).
    if (emit.appended > before) batch_gid = gid;
  }
  emit.selb.Finish(&emit.out);
  emit.out.group_id = batch_gid == -2 ? -1 : batch_gid;
  if (grouping_.empty()) emit.out.group_id = -1;
  if (emit.out.num_rows == 0 && !delta_chunks_.empty()) {
    // Clustered leg drained without producing a batch: hand off to the
    // delta-side leg (never mixing legs inside one batch).
    main_done_ = true;
    filter_.Recycle(std::move(emit.out), schema_);
    return NextDelta(ctx);
  }
  return std::move(emit.out);
}

Result<Batch> BdccScan::NextDelta(ExecContext* ctx) {
  while (delta_idx_ < delta_chunks_.size()) {
    const Table& chunk = *delta_chunks_[delta_idx_];
    uint64_t rows = chunk.num_rows();
    if (rows == 0) {
      ++delta_idx_;
      delta_cursor_ = 0;
      continue;
    }
    if (delta_bound_ != static_cast<int>(delta_idx_)) {
      // Entering this chunk: re-bind string verdict tables to its private
      // dictionaries (numeric bounds re-bind for free).
      if (row_filter_) BDCC_RETURN_NOT_OK(filter_.Bind(chunk, preds_));
      delta_bound_ = static_cast<int>(delta_idx_);
      ctx->stats()->delta_chunks += 1;
    }
    // TakeBatch wires output dictionaries from `chunk`, and the batch ends
    // at the chunk boundary — downstream never sees mixed dictionary
    // sources inside one batch.
    Emit emit(filter_.TakeBatch(chunk, col_idx_, schema_, ctx->batch_size()));
    while (emit.appended < ctx->batch_size() && delta_cursor_ < rows) {
      BDCC_RETURN_NOT_OK(ctx->CheckLifecycle());
      uint64_t limit =
          std::min(rows, delta_cursor_ + (ctx->batch_size() - emit.appended));
      uint64_t scanned = ctx->stats()->rows_scanned;
      BDCC_RETURN_NOT_OK(ScanChunk(chunk, limit, 0, kAnyZone, /*views=*/false,
                                   ctx, &delta_cursor_, &emit));
      ctx->stats()->delta_rows_scanned += ctx->stats()->rows_scanned - scanned;
    }
    if (delta_cursor_ >= rows) {
      ++delta_idx_;
      delta_cursor_ = 0;
    }
    if (emit.selb.logical_rows() > 0 || emit.appended > 0) {
      emit.selb.Finish(&emit.out);
      return std::move(emit.out);
    }
    // Fully filtered: on to the next chunk.
    filter_.Recycle(std::move(emit.out), schema_);
  }
  // End of stream: an empty batch typed per the schema (base dictionaries).
  return filter_.TakeBatch(table_->data(), col_idx_, schema_, 0);
}

}  // namespace exec
}  // namespace bdcc
