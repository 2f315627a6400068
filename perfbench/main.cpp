//===- perfbench/main.cpp - The hotg benchmark driver ----------------------===//
//
//   hotg-perfbench --workload ho-validity|dse-explore|serve-mixed
//                  --seed N --seconds S --trace 0|1 [--root DIR]
//
// Runs one workload for about S seconds and prints human-readable tables,
// then, as the last line of stdout, one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// trace sink installed; with --trace 1 they are the per-layer ones, from a
// run that installs a telemetry::RecordingTraceSink. --root is the
// checkout whose examples/programs the workloads read (default ".").
// Exit code 0 when a result was printed, 2 on a usage or set-up error.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>

using namespace perfbench;

namespace {

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// Every end-to-end metric, printed for every workload with --trace 0.
const MetricSpec EndToEnd[] = {
    {"setup_s", "s"},          {"sessions_per_s", "1/s"},
    {"session_ms.p50", "ms"},  {"job_ms.p50", "ms"},
    {"job_ms.p90", "ms"},      {"max_jobs_per_s", "1/s"},
    {"peak_rss_mb", "MB"},     {"ok_share", "share"},
};

/// Every per-layer metric, printed for every workload with --trace 1. A
/// layer the workload does not exercise reads 0.
const MetricSpec PerLayer[] = {
    {"lang.parse_ms", "ms"},
    {"vm.compile_ms", "ms"},
    {"vm.exec.self_ms", "ms"},
    {"vm.runs", "count"},
    {"vm.instructions", "count"},
    {"dse.execute.self_ms", "ms"},
    {"search.self_ms", "ms"},
    {"search.tests", "count"},
    {"search.candidates", "count"},
    {"search.candidates_deduped", "count"},
    {"search.multistep_runs", "count"},
    {"validity.self_ms", "ms"},
    {"validity.queries", "count"},
    {"validity.unknown", "count"},
    {"validity.groundings_tried", "count"},
    {"validity.groundings_pruned", "count"},
    {"validity.prune_ratio", "ratio"},
    {"validity.strategy_ratio", "ratio"},
    {"solver.self_ms", "ms"},
    {"solver.checks", "count"},
    {"solver.unknown", "count"},
    {"solver.decisions", "count"},
    {"solver.propagations", "count"},
    {"solver.learned_clause_hits", "count"},
    {"solver.prefix_reuse_ratio", "ratio"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.entries", "count"},
    {"serve.codec_us", "us"},
    {"serve.session_ms.mean", "ms"},
    {"serve.queue_wait_ms.mean", "ms"},
    {"serve.session_inflation", "ratio"},
    {"serve.session_drift", "ratio"},
    {"serve.shed", "count"},
    {"serve.retries", "count"},
    {"loadgen.lag_ms.max", "ms"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.attributed_share", "share"},
    {"failed_share", "share"},
    {"host.speed_factor", "ratio"},
    {"program.lexer16.session_ms", "ms"},
    {"program.lexer24.session_ms", "ms"},
    {"program.bar.session_ms", "ms"},
    {"program.checksum_explore.session_ms", "ms"},
    {"program.compose_summarize.session_ms", "ms"},
    {"program.csv_scanner_summarize.session_ms", "ms"},
    {"program.checksum_summarize.session_ms", "ms"},
    {"program.csv_scanner_sound.session_ms", "ms"},
    {"program.checksum_sound.session_ms", "ms"},
    {"program.lexer_random.session_ms", "ms"},
};

[[noreturn]] void usage(const char *Message) {
  std::fprintf(stderr,
               "hotg-perfbench: %s\nusage: hotg-perfbench --workload "
               "ho-validity|dse-explore|serve-mixed --seed N --seconds S "
               "--trace 0|1 [--root DIR]\n",
               Message);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    if (I + 1 >= Argc)
      usage("every option takes a value");
    const char *Flag = Argv[I], *Value = Argv[++I];
    char *End = nullptr;
    if (!std::strcmp(Flag, "--workload")) {
      A.Workload = Value;
      HaveWorkload = true;
    } else if (!std::strcmp(Flag, "--seed")) {
      A.Seed = std::strtoull(Value, &End, 10);
    } else if (!std::strcmp(Flag, "--seconds")) {
      A.Seconds = static_cast<unsigned>(std::strtoul(Value, &End, 10));
      if (A.Seconds == 0)
        usage("--seconds must be positive");
    } else if (!std::strcmp(Flag, "--trace")) {
      A.Trace = std::strtoul(Value, &End, 10) != 0;
    } else if (!std::strcmp(Flag, "--root")) {
      A.Root = Value;
    } else {
      usage("unknown option");
    }
    if (End && *End)
      usage("expected a number");
  }
  if (!HaveWorkload)
    usage("missing --workload");
  if (A.Workload != "ho-validity" && A.Workload != "dse-explore" &&
      A.Workload != "serve-mixed")
    usage("unknown workload");
  return A;
}

/// A JSON number with all its digits (0 for non-finite values).
std::string number(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  RunOutcome Out;
  try {
    Out = A.Workload == "serve-mixed" ? runServeMixed(A) : runClosedLoop(A);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "hotg-perfbench: %s\n", E.what());
    return 2;
  }

  const unsigned Failed = static_cast<unsigned>(Out.Failures.size());
  const double FailedShare =
      Out.Attempted ? static_cast<double>(Failed) / Out.Attempted : 1.0;
  Out.EndToEnd["peak_rss_mb"] = Out.PeakRssMb;
  Out.EndToEnd["ok_share"] = 1.0 - FailedShare;
  Out.PerLayer["failed_share"] = FailedShare;
  Out.PerLayer["host.speed_factor"] = median(Out.HostFactors);
  for (const auto &[Program, Ms] : Out.ProgramSessionMs)
    Out.PerLayer["program." + Program + ".session_ms"] = Ms;

  std::printf("workload %s, seed %llu, %u s, trace %d\n", A.Workload.c_str(),
              static_cast<unsigned long long>(A.Seed), A.Seconds,
              A.Trace ? 1 : 0);
  for (const std::string &Why : Out.Failures)
    std::printf("FAILED %s\n", Why.c_str());
  std::printf("%-40s %14s\n", "program", "session_ms p50");
  for (const auto &[Program, Ms] : Out.ProgramSessionMs)
    std::printf("program.%-32s %14.3f\n", Program.c_str(), Ms);
  std::printf("host speed factor: median %.4f over %zu measurements\n",
              median(Out.HostFactors), Out.HostFactors.size());
  std::printf("deterministic counters:");
  for (const auto &[Name, Value] : Out.Deterministic)
    std::printf(" %s=%llu", Name.c_str(),
                static_cast<unsigned long long>(Value));
  std::printf("\n");

  const Metrics &Values = A.Trace ? Out.PerLayer : Out.EndToEnd;
  std::string Json = "{\"correct\": ";
  Json += Failed == 0 && Out.Attempted > 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Out.Attempted);
  Json += ", \"failed\": " + std::to_string(Failed);
  Json += ", \"metrics\": {";
  bool First = true;
  auto Emit = [&](const MetricSpec &Spec) {
    auto It = Values.find(Spec.Name);
    double V = It == Values.end() ? 0.0 : It->second;
    std::printf("%-40s %18.6f %s\n", Spec.Name, V, Spec.Unit);
    Json += First ? "" : ", ";
    First = false;
    Json += '"';
    Json += Spec.Name;
    Json += "\": {\"value\": " + number(V) + ", \"unit\": \"";
    Json += Spec.Unit;
    Json += "\"}";
  };
  if (A.Trace)
    for (const MetricSpec &Spec : PerLayer)
      Emit(Spec);
  else
    for (const MetricSpec &Spec : EndToEnd)
      Emit(Spec);
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
