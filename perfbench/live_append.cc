// live-append: the BDCC LINEITEM is built from the first half of the SF
// 0.05 rows and wrapped in a LiveTable. One writer appends the other half
// in kBatchRows-row batches in a closed loop while kReaders readers run
// Q1/Q6/Q12/Q14 in a closed loop, each over its own SnapshotDb refreshed
// before every query and served through one QueryRunner, and a DeltaMerger
// re-clusters in the background. Once the writer is done the merger drains
// the delta to zero rows and the readers' queries must equal the
// bulk-built BDCC result.
//
// One such cycle takes about two seconds, so the run repeats it on a fresh
// copy of the half-built base until the time is used, with unloaded
// reference passes of the three schemes between cycles; medians over
// cycles and latencies pooled over cycles are reported.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "common/task_scheduler.h"
#include "delta/delta_merger.h"
#include "delta/live_table.h"
#include "delta/snapshot_db.h"
#include "serve/query_runner.h"
#include "workloads.h"

namespace perfbench {

using namespace bdcc;  // NOLINT

namespace {

constexpr uint64_t kBatchRows = 4096;
constexpr int kReaders = 2;
constexpr int kReaderQueries[] = {1, 6, 12, 14};
// Reader mix in percent, per kReaderQueries entry. Q6 < Q14 < Q12 < Q1 in
// latency, and the shares put the median inside Q14's mode rather than on
// the edge between two query kinds, where it would flip between them.
constexpr int kReaderMixPct[] = {15, 25, 25, 35};

// Two interactive slots and one batch slot for two readers: admission and
// pool reservation run on every read, and two concurrent Q1s queue.
serve::RunnerConfig ReaderRunnerConfig() {
  serve::RunnerConfig config;
  config.admission.of(serve::QueryClass::kInteractive) = {2, 4, 0};
  config.admission.of(serve::QueryClass::kBatch) = {1, 4, 0};
  config.pool_bytes = 256ull << 20;
  return config;
}
constexpr double kMiB = 1024.0 * 1024.0;
constexpr int kReferencePasses = 3;

// Dimension-bin resolver over the Plain scheme's source rows: appended rows
// compute their BDCC keys through it.
class PlainResolver : public TableResolver {
 public:
  explicit PlainResolver(const tpch::TpchDb* db) : db_(db) {}
  Result<const Table*> GetTable(const std::string& name) const override {
    const Table* t = db_->plain().storage(name);
    if (t == nullptr) return Status::NotFound(name);
    return t;
  }
  Result<const catalog::ForeignKey*> GetForeignKey(
      const std::string& id) const override {
    return db_->schema_catalog().GetForeignKey(id);
  }

 private:
  const tpch::TpchDb* db_;
};

Table SliceRows(const Table& full, uint64_t begin, uint64_t end) {
  Table slice(full.name());
  for (int c = 0; c < static_cast<int>(full.num_columns()); ++c) {
    slice.AddColumn(full.column_name(c), Column(full.column(c).type()))
        .AbortIfNotOK();
  }
  slice.AppendRowsFrom(full, begin, end);
  return slice;
}

// What set-up leaves behind for the cycles.
struct LiveState {
  std::unique_ptr<PlainResolver> resolver;
  std::unique_ptr<BdccTable> base;  // LINEITEM from the first half
  std::vector<Table> batches;       // the second half
  uint64_t appended_rows = 0;
  std::unique_ptr<delta::LiveTable> first_live;
};

std::unique_ptr<delta::LiveTable> NewLiveTable(const tpch::TpchDb& db,
                                               const LiveState& state) {
  Table data = state.base->data().Clone();
  data.BuildZoneMaps(db.options().zone_rows);
  data.BuildEncodedLanes();
  return delta::LiveTable::Create(
             state.base->WithData(std::move(data),
                                  state.base->count_table()),
             state.resolver.get())
      .ValueOrDie();
}

void PrepareLive(tpch::TpchDb* db, LiveState* state) {
  state->resolver = std::make_unique<PlainResolver>(db);
  const Table* full = db->plain().storage("LINEITEM");
  const uint64_t total = full->num_rows();
  const uint64_t half = total / 2;
  BdccBuildOptions build = db->options().advisor.build;
  build.zone_rows = db->options().zone_rows;
  state->base = std::make_unique<BdccTable>(
      BuildBdccTable(SliceRows(*full, 0, half),
                     db->bdcc_tables().at("LINEITEM").uses(), *state->resolver,
                     build)
          .ValueOrDie());
  state->batches.clear();
  for (uint64_t at = half; at < total; at += kBatchRows) {
    state->batches.push_back(
        SliceRows(*full, at, std::min(total, at + kBatchRows)));
  }
  state->appended_rows = total - half;
  state->first_live = NewLiveTable(*db, *state);
}

struct Cycles {
  int count = 0;
  double wall_s = 0;
  std::vector<double> cycle_s;  // append start to drained
  std::vector<double> read_ms, interactive_ms;
  // Tails of each cycle's reads: one stall of the host moves one cycle's.
  std::vector<double> cycle_tail_ms, cycle_interactive_tail_ms,
      cycle_tail_pct;
  std::vector<double> append_ms, refresh_us, self_ms, exec_ms;
  std::vector<double> append_krows_s, drain_s, passes, rows_per_pass,
      max_delta_rows, peak_delta_mb;
  uint64_t rows_scanned = 0, delta_rows_scanned = 0, attempts = 0;
  serve::RunnerStats serve_stats;
  Usage usage;
};

void RunCycle(const tpch::TpchDb& db, std::unique_ptr<delta::LiveTable> live,
              const LiveState& state, const Suite& reference,
              serve::QueryRunner* runner, const Args& args, Cycles* out,
              Report* report) {
  delta::DeltaMerger::Options merge_options;
  merge_options.trigger_rows = 1;  // merge whatever the delta holds
  delta::DeltaMerger merger(live.get(), common::TaskScheduler::Shared(),
                            merge_options);
  const auto cycle_start = Clock::now();

  std::atomic<bool> stop{false};
  std::mutex mu;  // guards `out` and `report` from the readers
  auto reader = [&](int r) {
    delta::SnapshotDb overlay(&db.bdcc());
    overlay.AddLiveTable(live.get());
    Rng rng(args.seed, 5000 + 16 * static_cast<uint64_t>(out->count) + r);
    std::vector<double> read_ms, interactive_ms, refresh_us, self_ms,
        exec_ms;
    uint64_t rows = 0, delta_rows = 0, attempted = 0, failed = 0,
             attempts = 0;
    while (!stop.load(std::memory_order_acquire)) {
      int pick = static_cast<int>(rng.Next() % 100), k = 0;
      while (pick >= kReaderMixPct[k]) pick -= kReaderMixPct[k++];
      const int q = kReaderQueries[k];
      const bool interactive = IsInteractiveQuery(q);
      const auto t0 = Clock::now();
      {
        ScopedSpan span("delta.refresh");
        overlay.Refresh();
      }
      const auto sent = Clock::now();
      refresh_us.push_back(MillisBetween(t0, sent) * 1000.0);
      exec::ExecStats stats;
      double fn_ms = 0;
      auto fn = [&](exec::ExecContext* ctx,
                    uint64_t budget) -> Result<exec::Batch> {
        ++attempts;
        QueryOptions qo;
        qo.scale_factor = db.options().scale_factor;
        qo.memory_limit_bytes = budget;
        QueryRun run = RunQuery(overlay, q, qo, ctx);
        fn_ms += run.wall_ms;
        stats = run.stats;
        if (!run.ok) return run.status;
        return std::move(run.result);
      };
      serve::QueryReport rep;
      {
        ScopedSpan span("serve.execute",
                        Tracer::Get().enabled()
                            ? "q=" + std::to_string(q) +
                                  (interactive ? " class=interactive"
                                               : " class=batch")
                            : std::string());
        rep = runner->Execute(interactive ? serve::QueryClass::kInteractive
                                          : serve::QueryClass::kBatch,
                              fn);
      }
      const auto done = Clock::now();
      ++attempted;
      if (rep.outcome != serve::Outcome::kOk || stats.faults_injected != 0 ||
          stats.morsels_cancelled != 0) {
        ++failed;
        std::fprintf(stderr, "perfbench: live Q%d %s: %s\n", q,
                     serve::OutcomeName(rep.outcome),
                     rep.status.ToString().c_str());
        continue;
      }
      const double ms = MillisBetween(t0, done);
      read_ms.push_back(ms);
      if (interactive) interactive_ms.push_back(ms);
      self_ms.push_back(MillisBetween(sent, done) - fn_ms);
      exec_ms.push_back(fn_ms);
      rows += stats.rows_scanned;
      delta_rows += stats.delta_rows_scanned;
    }
    std::lock_guard<std::mutex> lock(mu);
    out->read_ms.insert(out->read_ms.end(), read_ms.begin(), read_ms.end());
    out->interactive_ms.insert(out->interactive_ms.end(),
                               interactive_ms.begin(), interactive_ms.end());
    out->refresh_us.insert(out->refresh_us.end(), refresh_us.begin(),
                           refresh_us.end());
    out->self_ms.insert(out->self_ms.end(), self_ms.begin(), self_ms.end());
    out->exec_ms.insert(out->exec_ms.end(), exec_ms.begin(), exec_ms.end());
    out->attempts += attempts;
    out->rows_scanned += rows;
    out->delta_rows_scanned += delta_rows;
    report->CountOps(attempted, failed);
  };
  const size_t reads_before = out->read_ms.size();
  const size_t interactive_before = out->interactive_ms.size();
  std::vector<std::thread> readers;
  const int num_readers = std::max(1, std::min(kReaders, AffinityCpus() - 1));
  for (int r = 0; r < num_readers; ++r) readers.emplace_back(reader, r);

  // The writer: appends back to back.
  double max_delta_rows = 0, peak_delta_bytes = 0;
  uint64_t append_failed = 0;
  const auto write_start = Clock::now();
  for (const Table& batch : state.batches) {
    auto t0 = Clock::now();
    Result<uint64_t> appended = [&] {
      ScopedSpan span("delta.append");
      return live->Append(batch);
    }();
    out->append_ms.push_back(MillisBetween(t0, Clock::now()));
    if (!appended.ok()) {
      ++append_failed;
      std::fprintf(stderr, "perfbench: append failed: %s\n",
                   appended.status().ToString().c_str());
    }
    delta::LiveTable::Stats stats = live->stats();
    max_delta_rows = std::max(max_delta_rows,
                              static_cast<double>(stats.delta_rows));
    peak_delta_bytes = std::max(peak_delta_bytes,
                                static_cast<double>(stats.delta_bytes));
  }
  const auto last_append = Clock::now();
  {
    ScopedSpan span("delta.drain");
    for (int i = 0; i < 100 && live->delta_rows() > 0; ++i) {
      merger.Poke();
      merger.Drain();
    }
  }
  const double drain_s = SecondsSince(last_append);
  out->cycle_s.push_back(SecondsSince(write_start));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  out->wall_s += SecondsSince(cycle_start);
  merger.Stop();

  const double passes = static_cast<double>(merger.passes_completed());
  const double write_s =
      std::chrono::duration<double>(last_append - write_start).count();
  out->append_krows_s.push_back(static_cast<double>(state.appended_rows) /
                                write_s / 1000.0);
  out->drain_s.push_back(drain_s);
  double pct = 0;
  out->cycle_tail_ms.push_back(
      Tail(std::vector<double>(out->read_ms.begin() + reads_before,
                               out->read_ms.end()),
           &pct));
  out->cycle_tail_pct.push_back(pct);
  out->cycle_interactive_tail_ms.push_back(Tail(std::vector<double>(
      out->interactive_ms.begin() + interactive_before,
      out->interactive_ms.end())));
  out->passes.push_back(passes);
  out->rows_per_pass.push_back(
      passes > 0 ? static_cast<double>(state.appended_rows) / passes : 0.0);
  out->max_delta_rows.push_back(max_delta_rows);
  out->peak_delta_mb.push_back(peak_delta_bytes / kMiB);
  report->CountOps(state.batches.size(), append_failed);
  report->CountOps(merger.passes_completed() + merger.passes_failed(),
                   merger.passes_failed());
  if (live->delta_rows() != 0) {
    report->Mismatch("delta not drained: " +
                     std::to_string(live->delta_rows()) + " rows left");
  }

  // After the drain the live table must answer like the bulk-built one.
  delta::SnapshotDb overlay(&db.bdcc());
  overlay.AddLiveTable(live.get());
  for (int q : kReaderQueries) {
    exec::ExecContext ctx(nullptr);
    QueryOptions qo;
    qo.scale_factor = db.options().scale_factor;
    QueryRun run = RunQuery(overlay, q, qo, &ctx);
    report->CountOp(run.ok);
    std::string why;
    if (run.ok && !SameResult(Canonicalize(run.result), reference.reference(q),
                              kFloatTol, &why)) {
      report->Mismatch("live Q" + std::to_string(q) +
                       " after drain differs from bulk-built bdcc: " + why);
    }
  }
  ++out->count;
}

// Cycles until `seconds` have gone and at least `min_cycles` ran. With
// `reference_passes`, kReferencePasses unloaded passes run before each
// cycle, so the reference times are sampled across the whole run.
Cycles RunCycles(const tpch::TpchDb& db, LiveState* state,
                 const Suite& reference, Suite* reference_passes,
                 const Args& args, double seconds, int min_cycles,
                 Report* report) {
  Cycles out;
  serve::QueryRunner runner(ReaderRunnerConfig());
  const Usage usage0 = ProcessUsage();
  const auto start = Clock::now();
  while (out.count < min_cycles || SecondsSince(start) < seconds) {
    for (int i = 0; reference_passes != nullptr && i < kReferencePasses;
         ++i) {
      reference_passes->TimedPass();
    }
    std::unique_ptr<delta::LiveTable> live =
        state->first_live ? std::move(state->first_live)
                          : NewLiveTable(db, *state);
    RunCycle(db, std::move(live), *state, reference, &runner, args, &out,
             report);
  }
  const Usage usage1 = ProcessUsage();
  out.usage.cpu_s = usage1.cpu_s - usage0.cpu_s;
  out.usage.ctx_switches = usage1.ctx_switches - usage0.ctx_switches;
  out.serve_stats = runner.stats();
  return out;
}

}  // namespace

int RunLiveAppend(const Args& args, Report* report) {
  tpch::TpchDbOptions options;
  options.scale_factor = ScaleFactor(args.tiny);
  options.seed = args.seed;
  LiveState state;
  auto db = TimedSetup(options, report, [&](tpch::TpchDb* built) {
    state = LiveState();
    if (built != nullptr) PrepareLive(built, &state);
  });

  const bool trace = Tracer::Get().enabled();
  Tracer::Get().set_enabled(false);

  // Unloaded reference on the bulk-built database: the three schemes for
  // the readers' queries; its BDCC results check the drained live table.
  Suite reference(db.get(), {1, 6, 12, 14}, 1, args, report);
  reference.Check();
  Cycles c = RunCycles(*db, &state, reference, &reference, args,
                       args.seconds, 3, report);
  reference.SetMetrics(/*latency=*/false);
  report->Set("p50_ms", Median(c.read_ms));
  report->Set("p99_ms", Median(c.cycle_tail_ms));
  report->Set("interactive_p99_ms", Median(c.cycle_interactive_tail_ms));
  report->Set("lat.samples", static_cast<double>(c.read_ms.size()));
  report->Set("lat.tail_pct", Median(c.cycle_tail_pct));
  report->Set("delta.append_p50_ms", Median(c.append_ms));
  report->Set("delta.append_p99_ms", Tail(c.append_ms));
  report->Set("delta.refresh_p50_us", Median(c.refresh_us));
  report->Set("delta.merge_passes", Median(c.passes));
  report->Set("delta.rows_per_pass", Median(c.rows_per_pass));
  report->Set("delta.max_delta_rows", Median(c.max_delta_rows));
  report->Set("delta.scan_delta_frac",
              c.rows_scanned == 0
                  ? 0.0
                  : static_cast<double>(c.delta_rows_scanned) /
                        static_cast<double>(c.rows_scanned));
  report->Set("delta.peak_delta_mb", Median(c.peak_delta_mb));
  report->Set("delta.append_krows_s", Median(c.append_krows_s));
  report->Set("delta.drain_s", Median(c.drain_s));
  report->Set("serve.self_p50_ms", Median(c.self_ms));
  report->Set("serve.self_p99_ms", Tail(c.self_ms));
  report->Set("serve.exec_p50_ms", Median(c.exec_ms));
  report->Set("serve.shed", static_cast<double>(c.serve_stats.shed));
  report->Set("serve.retries", static_cast<double>(c.serve_stats.retries));
  report->Set("serve.exhausted",
              static_cast<double>(c.serve_stats.exhausted));
  report->Set("serve.reads_per_s", c.read_ms.size() / c.wall_s);
  report->Set("serve.ok_per_attempt",
              c.attempts == 0 ? 0.0
                              : static_cast<double>(c.serve_stats.ok) /
                                    static_cast<double>(c.attempts));
  report->Set("common.cpu_s", c.usage.cpu_s);
  report->Set("common.busy_frac", c.usage.cpu_s / (c.wall_s * AffinityCpus()));
  report->Set("common.ctx_switches", static_cast<double>(c.usage.ctx_switches));

  if (trace) {
    Tracer::Get().set_enabled(true);
    Report traced;
    Cycles t = RunCycles(*db, &state, reference, nullptr, args, args.seconds,
                         1, &traced);
    report->Set("trace.overhead_frac",
                Median(t.cycle_s) / Median(c.cycle_s) - 1.0);
    report->CountOps(traced.attempted(), traced.failed());
    if (!traced.correct()) report->Mismatch("traced cycles");
  }
  return 0;
}

}  // namespace perfbench
