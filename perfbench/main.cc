// Repository benchmark program. One process runs one workload:
//
//   perfbench --workload <tpch22-t1|tpch22-t4|live-append>
//             --seed N --seconds S --trace 0|1
//             [--tiny] [--corrupt] [--trace-out FILE] [--commit ID]
//   perfbench --list-metrics
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// untraced, the per-layer metrics with --trace 1. The line before it
// records provenance; a traced run also prints its untraced phase's
// end-to-end metrics on a line starting "untraced". See README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "common/simd.h"
#include "harness.h"
#include "workloads.h"

namespace {

using namespace perfbench;  // NOLINT

int UsageError(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<tpch22-t1|tpch22-t4|live-append> --seed N "
               "--seconds S --trace 0|1 [--tiny] [--corrupt] "
               "[--trace-out FILE] [--commit ID] | --list-metrics\n",
               why);
  return 2;
}

// A run that measures a different program than the one users get is
// refused before anything is timed.
const char* RefusalReason() {
#ifdef PERFBENCH_SANITIZED
  return "sanitizer build";
#else
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    return "not a Release build";
  }
  for (const char* var : {"BDCC_FAULT_SEED", "BDCC_FAULT_PROB"}) {
    const char* v = std::getenv(var);
    if (v != nullptr && v[0] != '\0') return "fault injection is armed";
  }
  return nullptr;
#endif
}

void ListMetrics() {
  std::printf("[");
  bool first = true;
  for (const MetricDef& def : AllMetrics()) {
    std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"end_to_end\": %s}",
                first ? "" : ", ", def.name.c_str(), def.unit.c_str(),
                def.end_to_end ? "true" : "false");
    first = false;
  }
  std::printf("]\n");
}

std::string ProvenanceJson(const Args& args, const std::string& commit) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"tiny\": %d, \"sf\": %g, \"affinity_cpus\": %d, "
      "\"build_type\": \"%s\", \"simd\": \"%s\", \"commit\": \"%s\"}",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, args.tiny ? 1 : 0,
      ScaleFactor(args.tiny), AffinityCpus(),
      PERFBENCH_BUILD_TYPE,
      bdcc::simd::TierName(bdcc::simd::ActiveTier()), commit.c_str());
  return buf;
}

bool WriteTrace(const std::string& path, const std::string& provenance) {
  std::ofstream out(path);
  if (!out) return false;
  Tracer& tracer = Tracer::Get();
  out << "{\"provenance\": " << provenance
      << ",\n \"self_time\": " << tracer.SelfTimeJson() << ",\n \"spans\": [";
  bool first = true;
  for (const Span& s : tracer.Spans()) {
    out << (first ? "\n  " : ",\n  ") << "{\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"name\": \"" << s.name << "\", \"tags\": \"" << s.tags
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string commit = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--list-metrics") {
      ListMetrics();
      return 0;
    } else if (a == "--tiny") {
      args.tiny = true;
    } else if (a == "--corrupt") {
      args.corrupt = true;
    } else if (a == "--workload" || a == "--seed" || a == "--seconds" ||
               a == "--trace" || a == "--trace-out" || a == "--commit") {
      const char* v = value();
      if (v == nullptr) return UsageError(("missing value for " + a).c_str());
      char* end = nullptr;
      if (a == "--workload") {
        args.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        args.seed = std::strtoull(v, &end, 10);
        have_seed = end != v && *end == '\0';
      } else if (a == "--seconds") {
        args.seconds = std::strtod(v, &end);
        have_seconds = end != v && *end == '\0' && args.seconds > 0;
      } else if (a == "--trace") {
        args.trace = std::string(v) == "1";
        have_trace = std::string(v) == "0" || std::string(v) == "1";
      } else if (a == "--trace-out") {
        args.trace_out = v;
      } else {
        commit = v;
      }
    } else {
      return UsageError(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return UsageError("--workload, --seed, --seconds and --trace are required");
  }
  if (const char* why = RefusalReason()) {
    std::fprintf(stderr, "perfbench: refusing to time: %s\n", why);
    return 3;
  }

  Report report;
  Tracer::Get().set_enabled(args.trace);
  int rc;
  if (args.workload == "tpch22-t1") {
    rc = RunTpchWorkload(args, 1, &report);
  } else if (args.workload == "tpch22-t4") {
    rc = RunTpchWorkload(args, 4, &report);
  } else if (args.workload == "live-append") {
    rc = RunLiveAppend(args, &report);
  } else {
    return UsageError(("unknown workload " + args.workload).c_str());
  }
  Tracer::Get().set_enabled(false);
  if (rc != 0) return rc;
  report.Set("rss_mb", PeakRssMb());

  const std::string provenance = ProvenanceJson(args, commit);
  if (args.trace) {
    // The end-to-end numbers of this run's untraced phase, for reading the
    // per-layer metrics against.
    std::string unset;
    std::printf("untraced %s\n", report.ResultJson(true, &unset).c_str());
  }
  std::printf("provenance %s\n", provenance.c_str());
  if (args.trace && !args.trace_out.empty() &&
      !WriteTrace(args.trace_out, provenance)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.trace_out.c_str());
    return 1;
  }
  std::string missing;
  std::string result = report.ResultJson(!args.trace, &missing);
  if (!missing.empty()) {
    std::fprintf(stderr, "perfbench: workload left metrics unset: %s\n",
                 missing.c_str());
    return 1;
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
