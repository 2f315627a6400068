//===- perfbench/bench.cpp - Shared pieces of the hotg benchmark driver ----===//

#include "bench.h"

#include "interp/Interp.h"
#include "lang/Parser.h"
#include "support/JsonReader.h"
#include "support/TraceAnalysis.h"
#include "vm/Compiler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include <sys/resource.h>

using namespace hotg;

namespace perfbench {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> Values) { return percentile(Values, 50); }

double percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Rank = P / 100.0 * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Rank));
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

double mean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double Sum = 0;
  for (double V : Values)
    Sum += V;
  return Sum / static_cast<double>(Values.size());
}

double peakRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

namespace {
std::atomic<uint64_t> KernelSink{0};
} // namespace

double hostKernelMs() {
  double T0 = nowSeconds();
  std::map<uint32_t, uint32_t> Ordered;
  std::unordered_map<uint32_t, uint32_t> Hashed;
  std::vector<uint32_t> Values;
  uint32_t X = 12345;
  for (uint32_t I = 0; I != 20000; ++I) {
    X = X * 1103515245u + 12345u;
    Ordered[X % 50000] += I;
    Hashed[X % 70000] ^= I;
    Values.push_back(X);
  }
  std::sort(Values.begin(), Values.end());
  uint64_t Acc = Values[Values.size() / 2];
  for (const auto &[Key, Value] : Ordered)
    Acc += Value;
  for (const auto &[Key, Value] : Hashed)
    Acc += Value;
  KernelSink.fetch_add(Acc, std::memory_order_relaxed);
  return (nowSeconds() - T0) * 1e3;
}

double hostFactor() {
  return ReferenceKernelMs /
         median({hostKernelMs(), hostKernelMs(), hostKernelMs()});
}

double hostFactor(RunOutcome &Out) {
  Out.HostFactors.push_back(hostFactor());
  return Out.HostFactors.back();
}

uint64_t mixSeed(uint64_t Seed, uint64_t Stream, uint64_t Index) {
  RandomGen Rng(Seed * 0x100000001b3ULL + Stream * 0x9e3779b97f4a7c15ULL +
                Index);
  Rng.next();
  return Rng.next();
}

std::optional<std::string> readFile(const Args &A, const std::string &Rel) {
  std::ifstream File(A.Root + "/" + Rel);
  if (!File)
    return std::nullopt;
  std::ostringstream Buffer;
  Buffer << File.rdbuf();
  return Buffer.str();
}

std::unique_ptr<Prepared> prepare(std::string Name, std::string Source,
                                  std::string Entry) {
  auto P = std::make_unique<Prepared>();
  P->Name = std::move(Name);
  P->Source = std::move(Source);
  P->Entry = std::move(Entry);

  double T0 = nowSeconds();
  DiagnosticEngine Diags;
  P->Prog = lang::parseAndCheck(P->Source, Diags);
  double T1 = nowSeconds();
  if (!P->Prog)
    return nullptr;
  if (P->Entry.empty() && !P->Prog->Functions.empty())
    P->Entry = P->Prog->findFunction("main") ? "main"
                                             : P->Prog->Functions.front()->Name;
  const lang::FunctionDecl *EntryFn = P->Prog->findFunction(P->Entry);
  if (!EntryFn)
    return nullptr;
  P->Compiled = vm::compile(*P->Prog);
  double T2 = nowSeconds();
  P->ParseMs = (T1 - T0) * 1e3;
  P->CompileMs = (T2 - T1) * 1e3;
  P->InputCells = interp::InputLayout(*EntryFn).size();
  return P;
}

interp::TestInput drawInput(RandomGen &Rng, unsigned Cells, int64_t Lo,
                            int64_t Hi) {
  interp::TestInput Input;
  for (unsigned I = 0; I != Cells; ++I)
    Input.Cells.push_back(Rng.nextInRange(Lo, Hi));
  return Input;
}

std::string replayBugs(const lang::Program &Prog,
                       const interp::NativeRegistry &Natives,
                       std::string_view Entry, const core::SearchResult &R,
                       const interp::RunLimits &Limits) {
  interp::Interpreter Interp(Prog, Natives);
  Interp.setLimits(Limits);
  for (const core::BugRecord &Bug : R.Bugs) {
    interp::RunResult Run = Interp.run(Entry, Bug.Input);
    if (Run.Status != Bug.Status)
      return "bug input " + Bug.Input.toString() + " replays to " +
             interp::runStatusName(Run.Status) + ", reported " +
             interp::runStatusName(Bug.Status);
    if (Bug.Status == interp::RunStatus::ErrorHit &&
        (!Run.Error || Run.Error->Site != Bug.Site))
      return "bug input " + Bug.Input.toString() +
             " replays to another error site";
  }
  return "";
}

Counters counterSnapshot() {
  Counters C;
  for (const auto &[Name, Value] :
       telemetry::Registry::global().snapshot().Counters)
    C[Name] = Value;
  return C;
}

Counters counterDelta(const Counters &After, const Counters &Before) {
  Counters D;
  for (const auto &[Name, Value] : After) {
    auto It = Before.find(Name);
    D[Name] = Value - (It == Before.end() ? 0 : It->second);
  }
  return D;
}

uint64_t counterValue(const Counters &C, std::string_view Name) {
  auto It = C.find(std::string(Name));
  return It == C.end() ? 0 : It->second;
}

TimerTotals timerTotals(std::string_view Name) {
  for (const auto &Row : telemetry::Registry::global().snapshot().Timers)
    if (Row.Name == Name)
      return {Row.Count, Row.TotalNs};
  return {};
}

void LayerTimes::accumulate(const LayerTimes &O) {
  SearchMs += O.SearchMs;
  ValidityMs += O.ValidityMs;
  SolverMs += O.SolverMs;
  VmExecMs += O.VmExecMs;
  DseExecuteMs += O.DseExecuteMs;
  OtherMs += O.OtherMs;
  SessionWallMs += O.SessionWallMs;
  SessionSelfMs += O.SessionSelfMs;
}

LayerTimes layerTimes(const telemetry::RecordingTraceSink &Sink) {
  trace::Trace T;
  T.Events.reserve(Sink.events().size());
  for (const telemetry::Event &E : Sink.events()) {
    json::ParseResult Doc = json::parse(E.toJson());
    if (!Doc || !Doc->isObject())
      continue;
    trace::TraceEvent TE;
    TE.Kind = std::string(Doc->getString("event"));
    TE.Json = std::move(*Doc);
    T.Events.push_back(std::move(TE));
  }

  LayerTimes L;
  for (const trace::PhaseRow &Row : trace::buildReport(T).Phases) {
    double SelfMs = static_cast<double>(Row.SelfNs) / 1e6;
    std::string_view Name = Row.Name;
    if (Name == "session") {
      L.SessionWallMs += static_cast<double>(Row.TotalNs) / 1e6;
      L.SessionSelfMs += SelfMs;
    } else if (Name.starts_with("search.")) {
      L.SearchMs += SelfMs;
    } else if (Name.starts_with("validity.")) {
      L.ValidityMs += SelfMs;
    } else if (Name.starts_with("solver.")) {
      L.SolverMs += SelfMs;
    } else if (Name.starts_with("vm.")) {
      L.VmExecMs += SelfMs;
    } else if (Name.starts_with("dse.")) {
      L.DseExecuteMs += SelfMs;
    } else {
      L.OtherMs += SelfMs;
    }
  }
  return L;
}

void addCounterMetrics(Metrics &M, const Counters &D) {
  auto V = [&](std::string_view Name) {
    return static_cast<double>(counterValue(D, Name));
  };
  auto Ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0.0; };
  M["vm.runs"] = V("vm.runs");
  M["vm.instructions"] = V("vm.instructions");
  M["search.tests"] = V("search.tests");
  M["search.candidates"] = V("search.candidates");
  M["search.candidates_deduped"] = V("search.candidates_deduped");
  M["search.multistep_runs"] = V("search.multistep_runs");
  M["validity.queries"] = V("validity.queries");
  M["validity.unknown"] = V("validity.unknown");
  M["validity.groundings_tried"] = V("validity.groundings_tried");
  M["validity.groundings_pruned"] = V("validity.groundings_pruned");
  M["validity.prune_ratio"] =
      Ratio(V("validity.groundings_pruned"),
            V("validity.groundings_tried") + V("validity.groundings_pruned"));
  M["validity.strategy_ratio"] =
      Ratio(V("validity.strategy_found"), V("validity.queries"));
  M["solver.checks"] = V("solver.checks");
  M["solver.unknown"] = V("solver.unknown");
  M["solver.decisions"] = V("solver.decisions");
  M["solver.propagations"] = V("solver.propagations");
  M["solver.learned_clause_hits"] = V("solver.learned_clause_hits");
  M["solver.prefix_reuse_ratio"] =
      Ratio(V("solver.prefix_literals_reused"),
            V("solver.prefix_literals_reused") + V("solver.scope_pushes"));
}

} // namespace perfbench
