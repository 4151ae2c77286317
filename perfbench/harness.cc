#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "tpch/tpch_queries.h"

namespace perfbench {

using namespace bdcc;  // NOLINT

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Metric registry.

namespace {

std::vector<MetricDef> BuildRegistry() {
  std::vector<MetricDef> m;
  auto e2e = [&](const char* name, const char* unit) {
    m.push_back({name, unit, true});
  };
  auto layer = [&](const std::string& name, const char* unit) {
    m.push_back({name, unit, false});
  };
  e2e("setup_s", "s");
  e2e("plain_s", "s");
  e2e("pk_s", "s");
  e2e("bdcc_s", "s");
  e2e("bdcc_io_ms", "ms");
  e2e("bdcc_peak_mb", "MB");
  e2e("p50_ms", "ms");
  e2e("p99_ms", "ms");
  e2e("interactive_p99_ms", "ms");
  e2e("rss_mb", "MB");

  const char* schemes[] = {"plain", "pk", "bdcc"};
  for (int q = 1; q <= tpch::kNumTpchQueries; ++q) {
    char prefix[16];
    std::snprintf(prefix, sizeof(prefix), "tpch.q%02d.", q);
    for (const char* s : schemes) {
      layer(std::string(prefix) + s + "_ms", "ms");
    }
  }
  layer("tpch.dbgen_s", "s");
  layer("advisor.design_s", "s");
  layer("advisor.build_s", "s");
  layer("tpch.create_other_s", "s");
  layer("advisor.dimensions", "count");
  layer("advisor.groups", "count");
  for (const char* n : {"sandwich_joins", "sandwich_aggs", "merge_joins",
                        "group_pushdowns", "parallel_ops"}) {
    layer(std::string("opt.") + n, "count");
  }
  layer("bdcc.groups_read", "count");
  layer("bdcc.group_prune_frac", "ratio");
  layer("bdcc.sandwich_partitions", "count");
  for (const char* s : schemes) {
    layer(std::string("scan.rows_scanned.") + s, "rows");
  }
  for (const char* s : schemes) {
    layer(std::string("scan.zone_skip_frac.") + s, "ratio");
  }
  layer("scan.encoded_spans", "count");
  layer("scan.zero_copy_chunks", "count");
  layer("scan.decodes_skipped", "count");
  layer("exec.peak_mb.plain", "MB");
  layer("exec.peak_mb.pk", "MB");
  for (const char* s : schemes) {
    layer(std::string("io.random_requests.") + s, "count");
  }
  for (const char* s : schemes) layer(std::string("io.mb_read.") + s, "MB");
  layer("io.sim_ms.plain", "ms");
  layer("io.sim_ms.pk", "ms");
  layer("common.cpu_s", "s");
  layer("common.busy_frac", "ratio");
  layer("common.ctx_switches", "count");
  layer("serve.self_p50_ms", "ms");
  layer("serve.self_p99_ms", "ms");
  layer("serve.exec_p50_ms", "ms");
  layer("serve.shed", "count");
  layer("serve.retries", "count");
  layer("serve.exhausted", "count");
  layer("serve.ok_per_attempt", "ratio");
  layer("serve.reads_per_s", "1/s");
  layer("delta.append_p50_ms", "ms");
  layer("delta.append_p99_ms", "ms");
  layer("delta.refresh_p50_us", "us");
  layer("delta.merge_passes", "count");
  layer("delta.rows_per_pass", "rows");
  layer("delta.max_delta_rows", "rows");
  layer("delta.scan_delta_frac", "ratio");
  layer("delta.peak_delta_mb", "MB");
  layer("delta.append_krows_s", "Krows/s");
  layer("delta.drain_s", "s");
  layer("trace.overhead_frac", "ratio");
  layer("lat.samples", "count");
  layer("lat.tail_pct", "%");
  return m;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

}  // namespace

const std::vector<MetricDef>& AllMetrics() {
  static const std::vector<MetricDef> registry = BuildRegistry();
  return registry;
}

bool IsInteractiveQuery(int q) {
  return q == 3 || q == 6 || q == 12 || q == 14;
}

void Report::Set(const std::string& name, double value) {
  for (const MetricDef& def : AllMetrics()) {
    if (def.name == name) {
      values_[name] = value;
      return;
    }
  }
  std::fprintf(stderr, "perfbench: unregistered metric %s\n", name.c_str());
  std::abort();
}

double Report::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::Mismatch(const std::string& what) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  correct_ = false;
  ++failed_;
}

std::string Report::ResultJson(bool end_to_end, std::string* missing) const {
  std::string metrics;
  for (const MetricDef& def : AllMetrics()) {
    if (def.end_to_end != end_to_end) continue;
    auto it = values_.find(def.name);
    double value = 0;
    if (it != values_.end()) {
      value = it->second;
    } else if (end_to_end) {
      *missing += (missing->empty() ? "" : ",") + def.name;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + def.name + "\": {\"value\": " + JsonNumber(value) +
               ", \"unit\": \"" + def.unit + "\"}";
  }
  return std::string("{\"correct\": ") + (correct_ ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {" +
         metrics + "}}";
}

// ---------------------------------------------------------------------------
// Latency statistics.

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Tail(std::vector<double> v, double* pct) {
  if (v.empty()) {
    if (pct != nullptr) *pct = 0;
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  size_t idx;
  double p;
  if (n >= 1000) {
    p = 99.0;
    idx = static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n))) - 1;
  } else if (n > 10) {
    idx = n - 11;  // ten samples lie beyond it
    p = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  } else {
    idx = n - 1;
    p = 100.0;
  }
  if (pct != nullptr) *pct = p;
  return v[idx];
}

// ---------------------------------------------------------------------------
// Tracing.

namespace {

thread_local uint64_t t_current_span = 0;
thread_local uint64_t t_current_request = 0;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string Tracer::SelfTimeJson() const {
  std::vector<Span> spans = Spans();
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) children[s.parent].push_back(&s);
  struct Acc {
    uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Acc> by_name;
  for (const Span& s : spans) {
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (const Span* c : children[s.id]) {
      int64_t a = std::max(c->start_ns, s.start_ns);
      int64_t b = std::min(c->end_ns, s.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (!open || a > cur_b) {
        if (open) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        open = true;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (open) covered += cur_b - cur_a;
    Acc& acc = by_name[s.name];
    ++acc.count;
    double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    acc.total_ms += dur;
    acc.self_ms += dur - static_cast<double>(covered) / 1e6;
  }
  std::string out = "{";
  for (const auto& [name, acc] : by_name) {
    if (out.size() > 1) out += ", ";
    out += "\"" + JsonEscape(name) + "\": {\"count\": " +
           std::to_string(acc.count) +
           ", \"total_ms\": " + JsonNumber(acc.total_ms) +
           ", \"self_ms\": " + JsonNumber(acc.self_ms) + "}";
  }
  return out + "}";
}

ScopedSpan::ScopedSpan(const char* name, std::string tags) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  active_ = true;
  {
    std::lock_guard<std::mutex> lock(tracer.mu_);
    span_.id = tracer.next_id_++;
    if (t_current_span == 0) t_current_request = tracer.next_request_++;
  }
  saved_parent_ = t_current_span;
  saved_request_ = t_current_request;
  span_.parent = t_current_span;
  span_.request = t_current_request;
  span_.name = name;
  span_.tags = std::move(tags);
  t_current_span = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  t_current_span = saved_parent_;
  t_current_request = saved_request_;
  Tracer::Get().Add(std::move(span_));
}

// ---------------------------------------------------------------------------
// Result checks.

CanonResult Canonicalize(const exec::Batch& batch) {
  CanonResult rows(batch.num_rows);
  for (size_t r = 0; r < batch.num_rows; ++r) {
    const uint32_t phys = batch.RowAt(r);
    CanonRow& row = rows[r];
    for (const exec::ColumnVector& c : batch.columns) {
      if (c.type == TypeId::kFloat64) {
        row.floats.push_back(c.IsNull(phys) ? -1e300 : c.f64_data()[phys]);
      } else if (c.IsNull(phys)) {
        row.key += "|<null>";
      } else {
        row.key += "|" + c.GetValue(phys).ToString();
      }
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const CanonRow& a, const CanonRow& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.floats < b.floats;
            });
  return rows;
}

bool SameResult(const CanonResult& a, const CanonResult& b, double rel_tol,
                std::string* why) {
  if (a.size() != b.size()) {
    *why = "row count " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key || a[i].floats.size() != b[i].floats.size()) {
      *why = "row " + std::to_string(i) + " key " + a[i].key + " vs " +
             b[i].key;
      return false;
    }
    for (size_t f = 0; f < a[i].floats.size(); ++f) {
      double x = a[i].floats[f], y = b[i].floats[f];
      double tol = rel_tol * std::max({1.0, std::fabs(x), std::fabs(y)});
      if (!(std::fabs(x - y) <= tol)) {
        *why = "row " + std::to_string(i) + " (" + a[i].key +
               ") float column " + std::to_string(f) + ": " +
               JsonNumber(x) + " vs " + JsonNumber(y);
        return false;
      }
    }
  }
  return true;
}

void Corrupt(CanonResult* result) {
  if (result->empty()) {
    result->push_back(CanonRow{"|corrupt", {}});
  } else if (!result->front().floats.empty()) {
    result->front().floats[0] = result->front().floats[0] * 1.5 + 1.0;
  } else {
    result->front().key += "|corrupt";
  }
}

// ---------------------------------------------------------------------------
// Query runner.

QueryRun RunQuery(const opt::PhysicalDb& db, int q,
                  const QueryOptions& options, exec::ExecContext* exec_ctx) {
  QueryRun out;
  tpch::QueryContext ctx;
  ctx.db = &db;
  ctx.exec = exec_ctx;
  ctx.scale_factor = options.scale_factor;
  ctx.planner.num_threads = options.threads;
  ctx.planner.memory_limit_bytes = options.memory_limit_bytes;
  if (options.collect_notes) ctx.notes = &out.notes;

  std::string tags;
  if (Tracer::Get().enabled()) {
    tags = std::string("scheme=") + opt::SchemeName(db.scheme()) +
           " q=" + std::to_string(q) +
           " threads=" + std::to_string(options.threads);
  }
  auto start = Clock::now();
  Result<exec::Batch> result = [&] {
    ScopedSpan span("tpch.query", std::move(tags));
    return tpch::RunTpchQuery(q, ctx);
  }();
  out.wall_ms = MillisBetween(start, Clock::now());
  out.peak_bytes = exec_ctx->memory()->peak_bytes();
  out.stats = *exec_ctx->stats();
  out.status = result.status();
  if (result.ok()) {
    out.ok = true;
    out.result = std::move(result).value();
  }
  return out;
}

bool LifecycleClean(const exec::ExecStats& stats) {
  return stats.budget_denials == 0 && stats.morsels_cancelled == 0 &&
         stats.faults_injected == 0;
}

// ---------------------------------------------------------------------------
// Process and host facts.

int AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

Usage ProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                1e6;
  u.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

Rng::Rng(uint64_t seed, uint64_t stream)
    : state_(seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
             0x94d049bb133111ebull) {}

uint64_t Rng::Next() {
  // splitmix64
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
