//===- perfbench/bench.h - Shared pieces of the hotg benchmark driver ------===//
//
// The benchmark drives hotg's public entry points from outside the engine:
// lang::parseAndCheck, vm::compile, core::DirectedSearch::run,
// core::runRandomSearch and serve::Server::serveStream with the
// serve::Protocol codec. It adds no span or counter inside src/; the
// per-layer numbers come from the engine's existing spans and registry
// counters, plus one "session" span this driver opens around each
// closed-loop session as the root that attribution is measured against.
//
//===----------------------------------------------------------------------===//

#ifndef HOTG_PERFBENCH_BENCH_H
#define HOTG_PERFBENCH_BENCH_H

#include "core/Search.h"
#include "interp/NativeFunc.h"
#include "lang/AST.h"
#include "support/Random.h"
#include "support/Telemetry.h"
#include "vm/Bytecode.h"

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Command line of one benchmark run.
struct Args {
  std::string Root = ".";
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 25;
  bool Trace = false;
};

/// Metric values by name; the driver's metric tables give the units.
using Metrics = std::map<std::string, double>;

/// What one workload run reports back to main().
struct RunOutcome {
  unsigned Attempted = 0;
  std::vector<std::string> Failures; ///< One line per failed operation.
  Metrics EndToEnd;                  ///< Filled with --trace 0.
  Metrics PerLayer;                  ///< Filled with --trace 1.
  /// Counts that must repeat exactly for one seed (printed every run).
  std::map<std::string, uint64_t> Deterministic;
  /// Per-program session medians, printed as rows of their own.
  std::map<std::string, double> ProgramSessionMs;
  /// Every hostFactor() the run measured.
  std::vector<double> HostFactors;
  /// peakRssMb() at a point of the run that every run reaches with the
  /// same work behind it (a time-bounded loop runs a varying number of
  /// rounds, and freed memory the allocator keeps grows with them).
  double PeakRssMb = 0;

  void fail(std::string Why) { Failures.push_back(std::move(Why)); }
};

RunOutcome runClosedLoop(const Args &A);
RunOutcome runServeMixed(const Args &A);

//===-- Clock and statistics ----------------------------------------------===//

double nowSeconds();
double median(std::vector<double> Values);
/// Linear-interpolated percentile, \p P in [0, 100].
double percentile(std::vector<double> Values, double P);
double mean(const std::vector<double> &Values);
double peakRssMb();

/// The host's single-thread speed drifts by up to 2x over minutes on a
/// shared machine, and every wall-clock time drifts with it. hostFactor()
/// runs a fixed allocation-, map- and sort-heavy kernel (the engine's kind
/// of work) three times and returns ReferenceKernelMs over the median
/// kernel time: 1 on a host at the reference speed, 0.5 on one at half of
/// it. Timed values are multiplied by the mean factor measured just before
/// and just after them (rates divided by it), so that they read as on the
/// reference host; the raw wall-clock values are printed beside them.
constexpr double ReferenceKernelMs = 6.0;
double hostFactor();
/// One run of hostFactor()'s kernel, in ms.
double hostKernelMs();
/// hostFactor(), also recorded in \p Out.
double hostFactor(RunOutcome &Out);

/// Independent seeds for (workload seed, stream, index).
uint64_t mixSeed(uint64_t Seed, uint64_t Stream, uint64_t Index);

//===-- Programs ----------------------------------------------------------===//

/// One MiniLang program, parsed, checked and compiled during set-up.
struct Prepared {
  std::string Name;
  std::string Source;
  std::string Entry;
  std::optional<hotg::lang::Program> Prog;
  hotg::vm::CompiledProgram Compiled;
  unsigned InputCells = 0;
  double ParseMs = 0;
  double CompileMs = 0;
};

/// Reads a file below the checkout root; empty optional when unreadable.
std::optional<std::string> readFile(const Args &A, const std::string &Rel);

/// Parses, checks and compiles \p Source (timing both steps). An empty
/// \p Entry picks "main" when present, else the first function, as
/// hotg-run does. Returns null when the program does not compile or lacks
/// the entry.
std::unique_ptr<Prepared> prepare(std::string Name, std::string Source,
                                  std::string Entry);

/// \p Cells random cells in [Lo, Hi].
hotg::interp::TestInput drawInput(hotg::RandomGen &Rng, unsigned Cells,
                                  int64_t Lo, int64_t Hi);

/// Replays every reported bug of \p R on interp::Interpreter (not the
/// engine the search used) and checks it reaches the reported status and
/// error site. Returns the first mismatch, or "" when all replay.
std::string replayBugs(const hotg::lang::Program &Prog,
                       const hotg::interp::NativeRegistry &Natives,
                       std::string_view Entry,
                       const hotg::core::SearchResult &R,
                       const hotg::interp::RunLimits &Limits);

//===-- Registry and trace ------------------------------------------------===//

using Counters = std::map<std::string, uint64_t>;

/// Counter values of the global telemetry registry.
Counters counterSnapshot();
/// \p After minus \p Before, counter by counter.
Counters counterDelta(const Counters &After, const Counters &Before);
uint64_t counterValue(const Counters &C, std::string_view Name);

/// Calls of and total time in one registry timer.
struct TimerTotals {
  uint64_t Count = 0;
  uint64_t TotalNs = 0;
};
TimerTotals timerTotals(std::string_view Name);

/// Self time per layer, derived by trace::buildReport from the events a
/// telemetry::RecordingTraceSink collected. Span names map to layers by
/// their prefix; "session" is the driver's own root span around a
/// closed-loop session.
struct LayerTimes {
  double SearchMs = 0, ValidityMs = 0, SolverMs = 0, VmExecMs = 0,
         DseExecuteMs = 0, OtherMs = 0;
  double SessionWallMs = 0; ///< Total of the "session" root spans.
  double SessionSelfMs = 0; ///< Their self time: time in no layer span.

  double layerSumMs() const {
    return SearchMs + ValidityMs + SolverMs + VmExecMs + DseExecuteMs +
           OtherMs;
  }
  void accumulate(const LayerTimes &O);
};
LayerTimes layerTimes(const hotg::telemetry::RecordingTraceSink &Sink);

/// The registry-derived per-layer counts and ratios of one measured pass.
void addCounterMetrics(Metrics &M, const Counters &Delta);

} // namespace perfbench

#endif // HOTG_PERFBENCH_BENCH_H
