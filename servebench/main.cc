// servebench: the repository's serve-path benchmark.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              [--git DESCRIBE] [--trace-out FILE]
//   servebench --list
//
// Prints a human-readable report (host provenance, every metric with unit
// and sample count, failures) and, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"} with BENCHMARK.json's
// end_to_end metrics (--trace 0) or per_layer metrics (--trace 1).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "serve_bench.h"
#include "util/thread_pool.h"

namespace servebench {
namespace {

struct Args {
  std::string workload;
  long long seed = -1;
  double seconds = 0.0;
  int trace = -1;
  std::string git = "unavailable";
  std::string trace_out;
  bool list = false;
};

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--git DESCRIBE] [--trace-out FILE]\n"
               "       servebench --list\n",
               why.c_str());
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a, std::string* err) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list") {
      a->list = true;
      continue;
    }
    if (i + 1 >= argc) {
      *err = "missing value for " + flag;
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoll(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty() || a->seed < 0) {
        *err = "bad --seed '" + v + "'";
        return false;
      }
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || v.empty() || !(a->seconds > 0.0)) {
        *err = "bad --seconds '" + v + "'";
        return false;
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") {
        *err = "bad --trace '" + v + "' (0 or 1)";
        return false;
      }
      a->trace = v == "1" ? 1 : 0;
    } else if (flag == "--git") {
      a->git = v;
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else {
      *err = "unknown flag " + flag;
      return false;
    }
  }
  return true;
}

void PrintJson(const RunResult& r, const std::vector<std::string>& names) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const std::string& name : names) {
    for (const Metric& m : r.metrics) {
      if (m.name != name || !m.reportable || !std::isfinite(m.value)) continue;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
      first = false;
    }
  }
  std::printf("}}\n");
}

int Run(int argc, char** argv) {
  Args a;
  std::string err;
  if (!ParseArgs(argc, argv, &a, &err)) return Usage(err);
  if (a.list) {
    for (const WorkloadSpec& w : Workloads()) std::printf("%s\n", w.name.c_str());
    return 0;
  }
  const WorkloadSpec* spec = FindWorkload(a.workload);
  if (spec == nullptr) return Usage("unknown --workload '" + a.workload + "'");
  if (a.seed < 0) return Usage("--seed is required");
  if (a.seconds <= 0.0) return Usage("--seconds is required");
  if (a.trace < 0) return Usage("--trace is required");

  pubsub::ThreadPool::global().set_num_threads(kThreads);
  const HostInfo host = Host();
  const double ref_before = ReferenceLoopMs();
  const Corpus corpus = MakeCorpus(*spec, static_cast<std::uint64_t>(a.seed));
  std::size_t commands = 0;
  for (const auto& s : corpus.streams) commands += s.size();

  RunResult r;
  if (a.trace == 1) {
    TraceOptions opts;
    opts.seconds = a.seconds;
    opts.trace_out = a.trace_out;
    r = RunTraced(corpus, opts);
  } else {
    r = RunServe(corpus, a.seconds);
  }
  const double ref_after = ReferenceLoopMs();

  std::printf("# servebench workload=%s seed=%lld seconds=%g trace=%d\n",
              spec->name.c_str(), a.seed, a.seconds, a.trace);
  std::printf("# host: hardware_threads=%u lanes=%d build=%s compiler=\"%s\" "
              "git=%s\n",
              host.hardware_threads, kThreads, host.build_type.c_str(),
              host.compiler.c_str(), a.git.c_str());
  std::printf("# flags: %s\n", host.cxx_flags.c_str());
  std::printf("# host_ref_ms (fixed reference loop, metadata only): "
              "before=%.2f after=%.2f\n",
              ref_before, ref_after);
  std::printf("# corpus: shards=%zu subscribers=%d streams=%zu "
              "events_per_stream=%zu commands=%zu passes=%zu\n",
              spec->shards, spec->subscribers, spec->streams, spec->events,
              commands, r.passes);
  std::printf("%-40s %16s %-10s %10s\n", "metric", "value", "unit",
              "samples");
  for (const Metric& m : r.metrics) {
    if (m.reportable)
      std::printf("%-40s %16.6g %-10s %10zu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    else
      std::printf("%-40s %16s %-10s %10zu\n", m.name.c_str(), "n/a",
                  m.unit.c_str(), m.samples);
  }
  for (const std::string& note : r.notes)
    std::printf("# note: %s\n", note.c_str());
  PrintJson(r, a.trace == 1 ? PerLayerNames() : EndToEndNames());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  try {
    return servebench::Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
}
