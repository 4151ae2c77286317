// Shared pieces of the repository benchmark: command line, metric
// registry and report, span tracer, latency statistics, result checks and
// the query runner every workload times from the outside.
//
// The benchmark only calls the engine's public functions (tpch, advisor,
// opt, exec, io, serve, delta). Layer times come from timing those calls;
// layer counters come from their public accessors.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "exec/batch.h"
#include "exec/exec_context.h"
#include "opt/physical_db.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MillisBetween(Clock::time_point a, Clock::time_point b);
double SecondsSince(Clock::time_point start);

// ---------------------------------------------------------------------------
// Command line.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny scale factors and short phases: the self-test's mode.
  bool tiny = false;
  /// Perturb one checked result, so the output checks must fire.
  bool corrupt = false;
  /// Where a traced run writes its spans (empty = no file).
  std::string trace_out;
};

// ---------------------------------------------------------------------------
// Metrics. Every name the benchmark can print, with its unit, lives in one
// registry; the report refuses names outside it.

struct MetricDef {
  std::string name;
  std::string unit;
  bool end_to_end;
};

const std::vector<MetricDef>& AllMetrics();

/// The four TPC-H query kinds served as interactive requests.
bool IsInteractiveQuery(int q);

class Report {
 public:
  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;

  /// One operation attempted; `ok` false counts it as failed.
  void CountOp(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// A wrong output: the run is not correct, and the operation failed.
  void Mismatch(const std::string& what);

  bool correct() const { return correct_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// The result line. Metrics of the other kind are left out; a metric of
  /// this kind that no workload code set prints as 0 (per-layer) or makes
  /// the run fail (end-to-end).
  std::string ResultJson(bool end_to_end, std::string* missing) const;

 private:
  std::map<std::string, double> values_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

// ---------------------------------------------------------------------------
// Latency statistics.

double Median(std::vector<double> v);

/// The highest percentile that has at least ten samples beyond it, capped
/// at the 99th. `pct` receives the percentile used.
double Tail(std::vector<double> v, double* pct = nullptr);

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around its calls into the
// engine, kept in memory and written once when the run ends.

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  std::string tags;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  static Tracer& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  void Add(Span span);
  std::vector<Span> Spans() const;

  /// Span count and summed self time (duration minus the time its children
  /// cover) per span name, as one JSON object.
  std::string SelfTimeJson() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
  uint64_t next_request_ = 1;

  friend class ScopedSpan;
};

/// Records one span for its scope when tracing is on. A span opened with
/// no enclosing span on its thread starts a new request id; spans nested in
/// it on the same thread share that id.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::string tags = {});
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  Span span_;
  uint64_t saved_parent_ = 0;
  uint64_t saved_request_ = 0;
};

// ---------------------------------------------------------------------------
// Result checks.

/// A query result reduced to sorted rows: non-float columns form a key,
/// float columns are kept for a tolerant comparison.
struct CanonRow {
  std::string key;
  std::vector<double> floats;
};
using CanonResult = std::vector<CanonRow>;

CanonResult Canonicalize(const bdcc::exec::Batch& batch);

/// Same multiset of rows, floats within `rel_tol`. On a difference `why`
/// says where.
bool SameResult(const CanonResult& a, const CanonResult& b, double rel_tol,
                std::string* why);

/// Float tolerance between plans that sum in different orders (schemes,
/// thread counts, delta splits).
inline constexpr double kFloatTol = 1e-6;

/// Damage one value of `result` (the self-test's deliberate corruption).
void Corrupt(CanonResult* result);

// ---------------------------------------------------------------------------
// Running one query from the outside.

struct QueryRun {
  bool ok = false;
  bdcc::Status status;
  bdcc::exec::Batch result;
  double wall_ms = 0;
  uint64_t peak_bytes = 0;
  bdcc::exec::ExecStats stats;
  std::vector<std::string> notes;
};

struct QueryOptions {
  int threads = 1;
  double scale_factor = 0.01;
  bool collect_notes = false;
  /// Per-query memory budget handed to the planner (0 = unlimited).
  uint64_t memory_limit_bytes = 0;
};

/// Plan and run TPC-H query `q` on `db`; the wall time covers planning and
/// execution. `exec_ctx` supplies the buffer pool (may be null). Records a
/// `tpch.query` span.
QueryRun RunQuery(const bdcc::opt::PhysicalDb& db, int q,
                  const QueryOptions& options,
                  bdcc::exec::ExecContext* exec_ctx);

/// Lifecycle counters that must stay zero on an unlimited, fault-free run.
bool LifecycleClean(const bdcc::exec::ExecStats& stats);

// ---------------------------------------------------------------------------
// Process and host facts.

/// CPUs this process may run on (sched_getaffinity).
int AffinityCpus();

struct Usage {
  double cpu_s = 0;
  uint64_t ctx_switches = 0;
};
Usage ProcessUsage();
/// Peak resident set of the process, in MB.
double PeakRssMb();

/// Deterministic 64-bit stream for the benchmark's own choices (arrival
/// times, query order), derived from the workload seed and a purpose tag.
class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream);
  uint64_t Next();

 private:
  uint64_t state_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
