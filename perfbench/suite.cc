// Timed set-up, the three-scheme query suite, and the two TPC-H workloads
// (tpch22-t1, tpch22-t4) built from them.
#include <algorithm>
#include <array>
#include <cstdio>
#include <numeric>

#include "advisor/advisor.h"
#include "tpch/dbgen.h"
#include "tpch/tpch_queries.h"
#include "tpch/tpch_schema.h"
#include "workloads.h"

namespace perfbench {

using namespace bdcc;  // NOLINT

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr opt::Scheme kSchemes[3] = {opt::Scheme::kPlain, opt::Scheme::kPk,
                                     opt::Scheme::kBdcc};

// Resolver over a map of tables plus a catalog's foreign keys.
class MapResolver : public TableResolver {
 public:
  MapResolver(const std::map<std::string, Table>* tables,
              const catalog::Catalog* catalog)
      : tables_(tables), catalog_(catalog) {}
  Result<const Table*> GetTable(const std::string& name) const override {
    auto it = tables_->find(name);
    if (it == tables_->end()) return Status::NotFound("no table " + name);
    return &it->second;
  }
  Result<const catalog::ForeignKey*> GetForeignKey(
      const std::string& id) const override {
    return catalog_->GetForeignKey(id);
  }

 private:
  const std::map<std::string, Table>* tables_;
  const catalog::Catalog* catalog_;
};

// Times the advisor phases of `options` by calling them beside
// TpchDb::Create (which runs them internally and exposes no timings).
void TraceSetupPhases(const tpch::TpchDbOptions& options, Report* report) {
  auto catalog = tpch::MakeTpchCatalog(/*with_hints=*/true).ValueOrDie();
  tpch::DbgenOptions gen;
  gen.scale_factor = options.scale_factor;
  gen.seed = options.seed;
  auto t0 = Clock::now();
  std::map<std::string, Table> tables;
  {
    ScopedSpan span("tpch.dbgen");
    tables = tpch::GenerateTpch(gen).ValueOrDie();
  }
  report->Set("tpch.dbgen_s", SecondsSince(t0));

  MapResolver resolver(&tables, &catalog);
  advisor::AdvisorOptions adv = options.advisor;
  adv.build.zone_rows = options.zone_rows;
  t0 = Clock::now();
  advisor::SchemaDesign design;
  {
    ScopedSpan span("advisor.design");
    design = advisor::DesignSchema(catalog, resolver, adv).ValueOrDie();
  }
  report->Set("advisor.design_s", SecondsSince(t0));

  std::map<std::string, Table> sources;
  for (const auto& [name, table] : tables) sources.emplace(name, table.Clone());
  t0 = Clock::now();
  {
    ScopedSpan span("advisor.build");
    advisor::BuildDesignedTables(design, std::move(sources), resolver, adv)
        .ValueOrDie();
  }
  report->Set("advisor.build_s", SecondsSince(t0));
}

struct Execution {
  QueryRun run;
  io::IoStats io;
};

Execution ExecuteCold(tpch::TpchDb* db, opt::Scheme scheme, int q,
                      int threads, bool notes) {
  io::BufferPool* pool = db->pool(scheme);
  io::DeviceModel* device = db->device(scheme);
  pool->Clear();
  pool->ResetStats();
  device->ResetStats();
  exec::ExecContext ctx(pool);
  QueryOptions qo;
  qo.threads = threads;
  qo.scale_factor = db->options().scale_factor;
  qo.collect_notes = notes;
  Execution e;
  e.run = RunQuery(db->db(scheme), q, qo, &ctx);
  e.io = device->stats();
  return e;
}

// Counts one execution; false when it failed (error or a lifecycle counter
// that must stay zero on an unlimited run).
bool Account(const Execution& e, opt::Scheme scheme, int q, Report* report) {
  bool ok = e.run.ok && LifecycleClean(e.run.stats);
  report->CountOp(ok);
  if (!ok) {
    std::fprintf(stderr, "perfbench: Q%d %s failed: %s\n", q,
                 opt::SchemeName(scheme),
                 e.run.ok ? "nonzero lifecycle counters"
                          : e.run.status.ToString().c_str());
  }
  return ok;
}

void CountNotes(const std::vector<std::string>& notes, double counts[5]) {
  const char* prefixes[5] = {"sandwich join", "sandwich aggregation",
                             "merge join", "pushdown:", "parallel "};
  for (const std::string& n : notes) {
    for (int i = 0; i < 5; ++i) {
      if (n.rfind(prefixes[i], 0) == 0) counts[i] += 1;
    }
  }
}

std::string QueryMetric(int q, opt::Scheme scheme) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "tpch.q%02d.%s_ms", q,
                opt::SchemeName(scheme));
  return buf;
}

}  // namespace

std::unique_ptr<tpch::TpchDb> TimedSetup(
    const tpch::TpchDbOptions& options, Report* report,
    const std::function<void(tpch::TpchDb*)>& extra) {
  if (Tracer::Get().enabled()) TraceSetupPhases(options, report);
  std::unique_ptr<tpch::TpchDb> db;
  std::vector<double> times_s;
  double create_s = 0;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    db.reset();
    if (extra) extra(nullptr);
    auto t0 = Clock::now();
    {
      ScopedSpan span("tpch.create");
      db = tpch::TpchDb::Create(options).ValueOrDie();
    }
    create_s = SecondsSince(t0);
    if (extra) extra(db.get());
    times_s.push_back(SecondsSince(t0));
  }
  report->Set("setup_s", Median(times_s));
  if (Tracer::Get().enabled()) {
    report->Set("tpch.create_other_s",
                create_s - report->Get("tpch.dbgen_s") -
                    report->Get("advisor.design_s") -
                    report->Get("advisor.build_s"));
  }
  report->Set("advisor.dimensions",
              static_cast<double>(db->design().dimensions.size()));
  double groups = 0;
  for (const auto& [name, table] : db->bdcc_tables()) {
    groups += static_cast<double>(table.count_table().num_groups());
  }
  report->Set("advisor.groups", groups);
  return db;
}

Suite::Suite(tpch::TpchDb* db, std::vector<int> queries, int threads,
             const Args& args, Report* report)
    : db_(db),
      queries_(std::move(queries)),
      threads_(threads),
      args_(args),
      report_(report),
      ref_(tpch::kNumTpchQueries + 1),
      cells_(tpch::kNumTpchQueries + 1) {}

void Suite::Check() {
  const int kBdcc = static_cast<int>(opt::Scheme::kBdcc);
  for (int q : queries_) {
    CanonResult serial;
    if (threads_ > 1) {
      Execution e = ExecuteCold(db_, opt::Scheme::kBdcc, q, 1, false);
      if (Account(e, opt::Scheme::kBdcc, q, report_)) {
        serial = Canonicalize(e.run.result);
      }
    }
    CanonResult canon[3];
    for (opt::Scheme s : kSchemes) {
      Execution e = ExecuteCold(db_, s, q, threads_, true);
      if (!Account(e, s, q, report_)) continue;
      canon[static_cast<int>(s)] = Canonicalize(e.run.result);
      CountNotes(e.run.notes, note_counts_);
    }
    std::string why;
    for (opt::Scheme s : {opt::Scheme::kPlain, opt::Scheme::kPk}) {
      if (!SameResult(canon[static_cast<int>(s)], canon[kBdcc], kFloatTol,
                      &why)) {
        report_->Mismatch("Q" + std::to_string(q) + " " +
                          opt::SchemeName(s) + " differs from bdcc: " + why);
      }
    }
    if (threads_ > 1 && !SameResult(canon[kBdcc], serial, kFloatTol, &why)) {
      report_->Mismatch("Q" + std::to_string(q) + " bdcc at " +
                        std::to_string(threads_) +
                        " threads differs from 1 thread: " + why);
    }
    ref_[q] = std::move(canon[kBdcc]);
  }
  if (args_.corrupt) Corrupt(&ref_[queries_.front()]);
}

void Suite::TimedPass() {
  std::vector<int> order = queries_;
  Rng rng(args_.seed, 1000 + static_cast<uint64_t>(passes_));
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Next() % i]);
  }
  for (int q : order) {
    for (opt::Scheme s : kSchemes) {
      Execution e = ExecuteCold(db_, s, q, threads_, false);
      if (!Account(e, s, q, report_)) continue;
      Cell& cell = cells_[q][static_cast<int>(s)];
      cell.wall_ms.push_back(e.run.wall_ms);
      cell.io_ms.push_back(e.io.simulated_seconds * 1000.0);
      cell.peak_bytes.push_back(static_cast<double>(e.run.peak_bytes));
      cell.stats.Merge(e.run.stats);
      cell.io += e.io;
      all_ms_.push_back(e.run.wall_ms);
      if (IsInteractiveQuery(q)) interactive_ms_.push_back(e.run.wall_ms);
      std::string why;
      if (!SameResult(Canonicalize(e.run.result), ref_[q], kFloatTol, &why)) {
        report_->Mismatch("Q" + std::to_string(q) + " " + opt::SchemeName(s) +
                          " pass " + std::to_string(passes_) + ": " + why);
      }
    }
  }
  ++passes_;
}

void Suite::SetMetrics(bool latency) const {
  const char* note_names[5] = {"opt.sandwich_joins", "opt.sandwich_aggs",
                               "opt.merge_joins", "opt.group_pushdowns",
                               "opt.parallel_ops"};
  for (int i = 0; i < 5; ++i) report_->Set(note_names[i], note_counts_[i]);
  const double passes = std::max(1, passes_);
  double encoded_spans = 0, zero_copy = 0, decodes_skipped = 0;
  for (opt::Scheme s : kSchemes) {
    const int si = static_cast<int>(s);
    const std::string name = opt::SchemeName(s);
    double total_ms = 0, io_ms = 0, peak = 0;
    exec::ExecStats stats;
    io::IoStats io;
    for (int q : queries_) {
      const Cell& cell = cells_[q][si];
      double ms = Median(cell.wall_ms);
      report_->Set(QueryMetric(q, s), ms);
      total_ms += ms;
      io_ms += Median(cell.io_ms);
      peak += Median(cell.peak_bytes);
      stats.Merge(cell.stats);
      io += cell.io;
    }
    report_->Set(name + "_s", total_ms / 1000.0);
    if (s == opt::Scheme::kBdcc) {
      report_->Set("bdcc_io_ms", io_ms);
      report_->Set("bdcc_peak_mb", peak / kMiB);
      report_->Set("bdcc.groups_read", stats.groups_read / passes);
      const uint64_t groups = stats.groups_read + stats.groups_pruned;
      report_->Set("bdcc.group_prune_frac",
                   groups == 0 ? 0.0
                               : static_cast<double>(stats.groups_pruned) /
                                     static_cast<double>(groups));
      report_->Set("bdcc.sandwich_partitions",
                   stats.sandwich_partitions / passes);
    } else {
      report_->Set("io.sim_ms." + name, io_ms);
      report_->Set("exec.peak_mb." + name, peak / kMiB);
    }
    report_->Set("scan.rows_scanned." + name, stats.rows_scanned / passes);
    const uint64_t zones = stats.zones_read + stats.zones_skipped;
    report_->Set("scan.zone_skip_frac." + name,
                 zones == 0 ? 0.0
                            : static_cast<double>(stats.zones_skipped) /
                                  static_cast<double>(zones));
    encoded_spans += stats.encoded_spans / passes;
    zero_copy += stats.chunks_zero_copy / passes;
    decodes_skipped += stats.decodes_skipped / passes;
    report_->Set("io.random_requests." + name, io.random_requests / passes);
    report_->Set("io.mb_read." + name, io.bytes_read / passes / kMiB);
  }
  report_->Set("scan.encoded_spans", encoded_spans);
  report_->Set("scan.zero_copy_chunks", zero_copy);
  report_->Set("scan.decodes_skipped", decodes_skipped);

  if (latency) {
    // The median comes from each query kind's median time, so a host stall
    // during a few executions does not move it.
    std::vector<double> kind_ms;
    for (int q : queries_) {
      for (const Cell& cell : cells_[q]) {
        kind_ms.push_back(Median(cell.wall_ms));
      }
    }
    double pct = 0;
    report_->Set("p50_ms", Median(kind_ms));
    report_->Set("p99_ms", Tail(all_ms_, &pct));
    report_->Set("interactive_p99_ms", Tail(interactive_ms_));
    report_->Set("lat.samples", static_cast<double>(all_ms_.size()));
    report_->Set("lat.tail_pct", pct);
  }
}

// One measured phase of a TPC-H workload: timed passes until `seconds`
// have gone and at least kMinPasses ran. Returns the sum over query kinds
// of their median execution time, in seconds.
double TimedPasses(Suite* suite, double seconds, Report* report) {
  constexpr int kMinPasses = 3;
  const Usage usage0 = ProcessUsage();
  const auto start = Clock::now();
  while (suite->passes() < kMinPasses || SecondsSince(start) < seconds) {
    suite->TimedPass();
  }
  const double wall_s = SecondsSince(start);
  const Usage usage1 = ProcessUsage();
  suite->SetMetrics(/*latency=*/true);
  const double cpu_s = usage1.cpu_s - usage0.cpu_s;
  report->Set("common.cpu_s", cpu_s);
  report->Set("common.busy_frac", cpu_s / (wall_s * AffinityCpus()));
  report->Set("common.ctx_switches",
              static_cast<double>(usage1.ctx_switches - usage0.ctx_switches));
  return report->Get("plain_s") + report->Get("pk_s") + report->Get("bdcc_s");
}

int RunTpchWorkload(const Args& args, int threads, Report* report) {
  tpch::TpchDbOptions options;
  options.scale_factor = ScaleFactor(args.tiny);
  options.seed = args.seed;
  auto db = TimedSetup(options, report);

  std::vector<int> queries(tpch::kNumTpchQueries);
  std::iota(queries.begin(), queries.end(), 1);
  const bool trace = Tracer::Get().enabled();
  Tracer::Get().set_enabled(false);
  Suite suite(db.get(), queries, threads, args, report);
  suite.Check();
  const double pass_s = TimedPasses(&suite, args.seconds, report);
  if (trace) {
    // The same passes again with spans on; their metrics go to a scratch
    // report so the untraced numbers stand.
    Tracer::Get().set_enabled(true);
    Report traced;
    Suite again(db.get(), queries, threads, args, &traced);
    again.Check();
    const double traced_s = TimedPasses(&again, args.seconds, &traced);
    report->Set("trace.overhead_frac", traced_s / pass_s - 1.0);
    report->CountOps(traced.attempted(), traced.failed());
    if (!traced.correct()) report->Mismatch("traced passes");
  }
  return 0;
}

}  // namespace perfbench
