// The benchmark workloads and the pieces they share: the timed database
// set-up and the three-scheme query suite.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "harness.h"
#include "tpch/tpch_db.h"

namespace perfbench {

/// TPC-H scale factor of every workload.
inline double ScaleFactor(bool tiny) { return tiny ? 0.005 : 0.05; }

/// How many times a workload builds its database; setup_s is the median.
inline constexpr int kSetupRepetitions = 3;

/// Build the TPC-H database `kSetupRepetitions` times from `options` (the
/// previous copy is freed before the next build) and keep the last; sets
/// setup_s to the median build time and the advisor's design counters.
/// `extra` (may be empty) runs after every build and is timed with it —
/// the workload's own set-up steps. It is also called with nullptr before
/// every build, to free what it kept from the previous one. A traced run
/// also times the advisor phases by calling them on the side, which sets
/// the set-up layer metrics.
std::unique_ptr<bdcc::tpch::TpchDb> TimedSetup(
    const bdcc::tpch::TpchDbOptions& options, Report* report,
    const std::function<void(bdcc::tpch::TpchDb*)>& extra = {});

/// Plain, PK and BDCC over a fixed set of TPC-H queries, with the scheme's
/// buffer pool and device stats cleared before every execution (cold I/O).
class Suite {
 public:
  /// Everything it runs is counted in `report`, which must outlive it.
  Suite(bdcc::tpch::TpchDb* db, std::vector<int> queries, int threads,
        const Args& args, Report* report);

  /// The untimed first pass: the three schemes must agree, and above one
  /// thread BDCC must agree with a serial BDCC run. Keeps the BDCC results
  /// as the reference of every later check.
  void Check();
  /// Canonical BDCC result of query `q` (after Check()).
  const CanonResult& reference(int q) const { return ref_[q]; }

  /// One timed pass in a seeded query order; each result is checked
  /// against the reference.
  void TimedPass();
  int passes() const { return passes_; }

  /// Sets plain_s/pk_s/bdcc_s, bdcc_io_ms, bdcc_peak_mb, the per-query and
  /// the scan/io/opt/bdcc/exec layer metrics from the timed passes, and
  /// with `latency` also p50_ms/p99_ms/interactive_p99_ms.
  void SetMetrics(bool latency) const;

 private:
  struct Cell {
    std::vector<double> wall_ms;
    std::vector<double> io_ms;
    std::vector<double> peak_bytes;
    bdcc::exec::ExecStats stats;  // summed over timed executions
    bdcc::io::IoStats io;         // summed over timed executions
  };

  bdcc::tpch::TpchDb* db_;
  std::vector<int> queries_;
  int threads_;
  const Args& args_;
  Report* report_;
  std::vector<CanonResult> ref_;
  double note_counts_[5] = {0, 0, 0, 0, 0};
  std::vector<std::array<Cell, 3>> cells_;  // [query][scheme]
  std::vector<double> all_ms_, interactive_ms_;
  int passes_ = 0;
};

int RunTpchWorkload(const Args& args, int threads, Report* report);
int RunLiveAppend(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
