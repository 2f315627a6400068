//===- perfbench/closed_loop.cpp - ho-validity and dse-explore -------------===//
//
// Closed loop, one session at a time, Jobs = 1: a session starts when the
// previous one returned. A round runs every session of the workload once;
// the loop runs whole rounds until --seconds have passed, so the program
// mix is the same in every run. Inputs that are not fixed by the paper are
// drawn from the workload seed, afresh for every round.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "app/Examples.h"
#include "app/KeywordLexer.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <functional>
#include <stdexcept>

using namespace hotg;

namespace perfbench {
namespace {

/// Set-up repetitions; setup_s is their median.
constexpr unsigned SetupReps = 51;
/// peak_rss_mb is read after this many timed rounds: a fixed count, since
/// the allocator keeps some freed memory and a round's peak depends on its
/// draws (the peak after round 0 alone took one of two values, 43 or
/// 58 MB, by seed).
constexpr unsigned RssRounds = 3;

struct Session {
  std::string Program; ///< Row name ("lexer24", "csv_scanner_sound", ...).
  const Prepared *P = nullptr;
  bool Random = false;
  core::SearchOptions Options; ///< Directed sessions.
  unsigned RandomTests = 0;    ///< Random sessions.
  uint64_t RandomSeed = 0;
  /// The paper outcome the session must meet; returns "" when met.
  std::function<std::string(const core::SearchResult &)> Expect;
};

/// What set-up builds: the parsed and compiled programs, and the session
/// list of every round.
struct ClosedSetup {
  interp::NativeRegistry Natives;
  std::vector<std::unique_ptr<Prepared>> Programs;
  std::vector<std::unique_ptr<app::LexerApp>> Lexers;
  std::function<std::vector<Session>(unsigned Round)> Round;

  const Prepared *add(std::unique_ptr<Prepared> P, const std::string &Name) {
    if (!P)
      throw std::runtime_error("program '" + Name + "' does not compile");
    Programs.push_back(std::move(P));
    return Programs.back().get();
  }
  const Prepared *addFile(const Args &A, const std::string &Name) {
    std::optional<std::string> Source =
        readFile(A, "examples/programs/" + Name + ".ml");
    if (!Source)
      throw std::runtime_error("cannot read examples/programs/" + Name +
                               ".ml");
    return add(prepare(Name, std::move(*Source), Name == "lexer" ? "lex_main"
                                                                  : ""),
               Name);
  }
  double parseMs() const {
    double Sum = 0;
    for (const auto &P : Programs)
      Sum += P->ParseMs;
    return Sum;
  }
  double compileMs() const {
    double Sum = 0;
    for (const auto &P : Programs)
      Sum += P->CompileMs;
    return Sum;
  }
};

Session session(std::string Program, const Prepared *P) {
  Session S;
  S.Program = std::move(Program);
  S.P = P;
  return S;
}

std::string expectNoBugs(const core::SearchResult &R) {
  return R.Bugs.empty() ? "" : "unexpected bug: " + R.Bugs.front().Message;
}

core::SearchOptions directed(dse::ConcretizationPolicy Policy,
                             unsigned MaxTests) {
  core::SearchOptions O;
  O.Policy = Policy;
  O.MaxTests = MaxTests;
  O.Jobs = 1;
  return O;
}

/// ho-validity: the higher-order policy, where POST validity and the
/// strategy solver do the work.
std::unique_ptr<ClosedSetup> setupHoValidity(const Args &A) {
  auto S = std::make_unique<ClosedSetup>();
  app::registerExampleNatives(S->Natives);
  const Prepared *Lexer[2];
  const unsigned LexerKeywords[2] = {16, 24};
  for (unsigned I = 0; I != 2; ++I) {
    S->Lexers.push_back(std::make_unique<app::LexerApp>(
        app::buildKeywordLexer({LexerKeywords[I], 2})));
    const app::LexerApp &App = *S->Lexers.back();
    std::string Name = formatString("lexer%u", LexerKeywords[I]);
    Lexer[I] = S->add(prepare(Name, App.Source, App.Entry), Name);
  }
  app::ExampleProgram Bar = app::exampleByName("bar");
  const Prepared *BarProg = S->add(prepare("bar", Bar.Source, Bar.Entry), "bar");
  const Prepared *Checksum = S->addFile(A, "checksum");
  const Prepared *Compose = S->addFile(A, "compose");
  const Prepared *Csv = S->addFile(A, "csv_scanner");

  ClosedSetup *Self = S.get();
  S->Round = [=, Seed = A.Seed](unsigned Round) {
    RandomGen Rng(mixSeed(Seed, 1, Round));
    std::vector<Session> List;
    for (unsigned I = 0; I != 2; ++I) {
      // Section 7: the keyword lexer, inverted through the hash4 samples.
      const app::LexerApp *App = Self->Lexers[I].get();
      Session Sess = session(Lexer[I]->Name, Lexer[I]);
      Sess.Options = directed(dse::ConcretizationPolicy::HigherOrder, 160);
      Sess.Options.InitialInput = App->identifierInput();
      Sess.Options.RandomLo = 32;
      Sess.Options.RandomHi = 126;
      Sess.Options.SkipCoveredTargets = false; // classify() repeats per chunk.
      Sess.Expect = [App](const core::SearchResult &R) -> std::string {
        unsigned Matched = app::countKeywordsMatched(*App, R.Cov);
        if (Matched != App->Spec.NumKeywords)
          return formatString("matched %u of %u keywords", Matched,
                              App->Spec.NumKeywords);
        if (!R.foundErrorSite(0) || !R.foundErrorSite(1))
          return "an error site was not hit";
        return "";
      };
      List.push_back(std::move(Sess));
    }
    {
      // Example 3: mutual hashing; the POST formula is not valid, so the
      // error stays unreached.
      Session Sess = session("bar", BarProg);
      Sess.Options = directed(dse::ConcretizationPolicy::HigherOrder, 64);
      Sess.Options.InitialInput = interp::TestInput{{33, 42}};
      Sess.Expect = expectNoBugs;
      List.push_back(std::move(Sess));
    }
    {
      Session Sess = session("checksum_explore", Checksum);
      Sess.Options = directed(dse::ConcretizationPolicy::HigherOrder, 2000);
      Sess.Options.SkipCoveredTargets = false;
      Sess.Options.InitialInput =
          drawInput(Rng, Checksum->InputCells, 0, 99);
      Sess.Expect = [](const core::SearchResult &R) -> std::string {
        return R.Bugs.empty() ? "no bug found" : "";
      };
      List.push_back(std::move(Sess));
    }
    // Section 8: compositional runs on the AST executor.
    for (const Prepared *P : {Compose, Csv, Checksum}) {
      Session Sess = session(P->Name + "_summarize", P);
      Sess.Options = directed(dse::ConcretizationPolicy::HigherOrder, 64);
      Sess.Options.SummarizeCalls = true;
      Sess.Options.InitialInput = drawInput(Rng, P->InputCells, 0, 99);
      if (P == Compose)
        Sess.Expect = [](const core::SearchResult &R) -> std::string {
          return R.foundStatus(interp::RunStatus::ErrorHit)
                     ? ""
                     : "composed error not reached";
        };
      List.push_back(std::move(Sess));
    }
    return List;
  };
  return S;
}

/// dse-explore: classic sound DSE and random testing, where validity does
/// no work.
std::unique_ptr<ClosedSetup> setupDseExplore(const Args &A) {
  auto S = std::make_unique<ClosedSetup>();
  app::registerExampleNatives(S->Natives);
  const Prepared *Csv = S->addFile(A, "csv_scanner");
  const Prepared *Checksum = S->addFile(A, "checksum");
  const Prepared *Lexer = S->addFile(A, "lexer");

  S->Round = [=, Seed = A.Seed](unsigned Round) {
    RandomGen Rng(mixSeed(Seed, 2, Round));
    std::vector<Session> List;
    {
      Session Sess = session("csv_scanner_sound", Csv);
      Sess.Options = directed(dse::ConcretizationPolicy::Sound, 2000);
      Sess.Options.SkipCoveredTargets = false;
      Sess.Options.InitialInput = drawInput(Rng, Csv->InputCells, 0, 99);
      Sess.Expect = [](const core::SearchResult &R) -> std::string {
        return R.testsRun() == 2000
                   ? ""
                   : formatString("ran %u of 2000 tests", R.testsRun());
      };
      List.push_back(std::move(Sess));
    }
    {
      Session Sess = session("checksum_sound", Checksum);
      Sess.Options = directed(dse::ConcretizationPolicy::Sound, 2000);
      Sess.Options.SkipCoveredTargets = false;
      Sess.Options.InitialInput = drawInput(Rng, Checksum->InputCells, 0, 99);
      List.push_back(std::move(Sess));
    }
    {
      // Section 7: blackbox random testing cannot match a keyword.
      Session Sess = session("lexer_random", Lexer);
      Sess.Random = true;
      Sess.RandomTests = 20000;
      Sess.RandomSeed = Rng.next();
      Sess.Expect = [](const core::SearchResult &R) -> std::string {
        if (R.testsRun() != 20000)
          return formatString("ran %u of 20000 tests", R.testsRun());
        return expectNoBugs(R);
      };
      List.push_back(std::move(Sess));
    }
    return List;
  };
  return S;
}

/// One session. The driver's one span, "session" around the whole call,
/// gives trace::buildReport a root to measure attribution against: time in
/// the session that no engine span covers is its self time. It is inert
/// when no sink is installed.
core::SearchResult runSession(const ClosedSetup &S, const Session &Sess) {
  telemetry::ScopedSpan Root("session");
  if (Sess.Random)
    return core::runRandomSearch(*Sess.P->Prog, S.Natives, Sess.P->Entry,
                                 Sess.RandomTests, 0, 99, Sess.RandomSeed);
  return core::DirectedSearch(*Sess.P->Prog, S.Natives, Sess.P->Entry,
                              Sess.Options)
      .run();
}

/// Checks one session's output; "" when correct.
std::string verify(const ClosedSetup &S, const Session &Sess,
                   const core::SearchResult &R) {
  if (core::searchDegraded(R))
    return "search stopped early";
  std::string Why =
      replayBugs(*Sess.P->Prog, S.Natives, Sess.P->Entry, R,
                 Sess.Random ? interp::RunLimits{} : Sess.Options.Limits);
  if (Why.empty() && Sess.Expect)
    Why = Sess.Expect(R);
  return Why;
}

/// Runs, times and checks one session, with \p Sink (may be null)
/// installed while it runs; returns its wall time in ms.
double timedSession(const ClosedSetup &S, const Session &Sess,
                    telemetry::TraceSink *Sink, RunOutcome &Out) {
  std::optional<core::SearchResult> R;
  double Ms;
  {
    telemetry::ScopedSink Scoped(Sink);
    double T0 = nowSeconds();
    R = runSession(S, Sess);
    Ms = (nowSeconds() - T0) * 1e3;
  }
  ++Out.Attempted;
  if (std::string Why = verify(S, Sess, *R); !Why.empty())
    Out.fail(Sess.Program + ": " + Why);
  return Ms;
}

} // namespace

RunOutcome runClosedLoop(const Args &A) {
  RunOutcome Out;
  const bool Ho = A.Workload == "ho-validity";

  // Set-up: build the inputs, parse and check, compile. Repeated; the
  // last result is kept. Each set-up is scaled by a host kernel run just
  // before it, since one takes far less time than the host's speed needs
  // to drift.
  std::vector<double> RawSetupS, SetupS, ParseMs, CompileMs;
  std::unique_ptr<ClosedSetup> S;
  for (unsigned I = 0; I != SetupReps; ++I) {
    S.reset();
    const double Scale = ReferenceKernelMs / hostKernelMs();
    double T0 = nowSeconds();
    S = Ho ? setupHoValidity(A) : setupDseExplore(A);
    RawSetupS.push_back(nowSeconds() - T0);
    SetupS.push_back(RawSetupS.back() * Scale);
    ParseMs.push_back(S->parseMs() * Scale);
    CompileMs.push_back(S->compileMs() * Scale);
  }
  double F = hostFactor(Out);

  // Round 0 warms the process up and yields the deterministic counters.
  Counters Before = counterSnapshot();
  for (const Session &Sess : S->Round(0))
    timedSession(*S, Sess, nullptr, Out);
  Counters Warm = counterDelta(counterSnapshot(), Before);
  for (const char *Name : {"search.tests", "solver.checks",
                           "validity.groundings_tried",
                           "validity.groundings_pruned", "vm.instructions"})
    Out.Deterministic[Name] = counterValue(Warm, Name);

  // Every round is bracketed by host-speed measurements; its times are
  // scaled by their mean.
  std::map<std::string, std::vector<double>> ByProgram;
  std::vector<double> SessionMs, RawSessionMs, RoundRates, RawRoundRates;
  auto EndRound = [&](const std::vector<Session> &List,
                      const std::vector<double> &Raw) {
    double Next = hostFactor(Out);
    double RoundF = (F + Next) / 2;
    F = Next;
    double RoundS = 0;
    for (size_t I = 0; I != Raw.size(); ++I) {
      SessionMs.push_back(Raw[I] * RoundF);
      RawSessionMs.push_back(Raw[I]);
      ByProgram[List[I].Program].push_back(Raw[I] * RoundF);
      RoundS += Raw[I] / 1e3;
    }
    RawRoundRates.push_back(static_cast<double>(Raw.size()) / RoundS);
    RoundRates.push_back(RawRoundRates.back() / RoundF);
    return RoundF;
  };
  const double Start = nowSeconds();
  auto TimeLeft = [&] { return nowSeconds() - Start < A.Seconds; };

  if (!A.Trace) {
    F = hostFactor(Out);
    for (unsigned Round = 1; TimeLeft() || Round <= RssRounds; ++Round) {
      std::vector<Session> List = S->Round(Round);
      std::vector<double> Raw;
      for (const Session &Sess : List)
        Raw.push_back(timedSession(*S, Sess, nullptr, Out));
      EndRound(List, Raw);
      if (Round == RssRounds)
        Out.PeakRssMb = peakRssMb();
    }
    std::printf("raw wall clock: setup_s %.6f, sessions_per_s %.4f, "
                "session_ms.p50 %.3f, job_ms.p90 %.3f\n",
                median(RawSetupS), median(RawRoundRates), median(RawSessionMs),
                percentile(RawSessionMs, 90));
    Metrics &M = Out.EndToEnd;
    M["setup_s"] = median(SetupS);
    // The median round's throughput: one stalled round cannot move it.
    M["sessions_per_s"] = median(RoundRates);
    M["session_ms.p50"] = median(SessionMs);
    // In a closed loop a job is due when the previous one returns, so job
    // latency is session time and the highest sustained rate is the
    // loop's own throughput.
    M["job_ms.p50"] = M["session_ms.p50"];
    M["job_ms.p90"] = percentile(SessionMs, 90);
    M["max_jobs_per_s"] = M["sessions_per_s"];
  } else {
    // Traced run: each round runs once untraced and once with a
    // RecordingTraceSink installed, in alternating order.
    telemetry::RecordingTraceSink Sink;
    std::vector<LayerTimes> Rounds;
    LayerTimes Total;
    double UntracedMs = 0, TracedMs = 0;
    F = hostFactor(Out);
    for (unsigned Round = 1; Round == 1 || TimeLeft(); ++Round) {
      std::vector<Session> List = S->Round(Round);
      std::vector<double> Raw;
      LayerTimes Layers;
      for (unsigned Pass = 0; Pass != 2; ++Pass) {
        if ((Pass + Round) % 2 == 1) {
          for (const Session &Sess : List)
            Raw.push_back(timedSession(*S, Sess, nullptr, Out));
          continue;
        }
        for (const Session &Sess : List)
          TracedMs += timedSession(*S, Sess, &Sink, Out);
        Layers = layerTimes(Sink);
        Sink.clear();
      }
      for (double Ms : Raw)
        UntracedMs += Ms;
      double RoundF = EndRound(List, Raw);
      for (double *Ms : {&Layers.SearchMs, &Layers.ValidityMs,
                         &Layers.SolverMs, &Layers.VmExecMs,
                         &Layers.DseExecuteMs})
        *Ms *= RoundF;
      Rounds.push_back(Layers);
      Total.accumulate(Layers);
    }
    auto MedianOf = [&](double LayerTimes::*Field) {
      std::vector<double> V;
      for (const LayerTimes &L : Rounds)
        V.push_back(L.*Field);
      return median(V);
    };
    Metrics &M = Out.PerLayer;
    M["lang.parse_ms"] = median(ParseMs);
    M["vm.compile_ms"] = median(CompileMs);
    M["vm.exec.self_ms"] = MedianOf(&LayerTimes::VmExecMs);
    M["dse.execute.self_ms"] = MedianOf(&LayerTimes::DseExecuteMs);
    M["search.self_ms"] = MedianOf(&LayerTimes::SearchMs);
    M["validity.self_ms"] = MedianOf(&LayerTimes::ValidityMs);
    M["solver.self_ms"] = MedianOf(&LayerTimes::SolverMs);
    addCounterMetrics(M, Warm);
    M["trace.overhead_ratio"] = TracedMs / UntracedMs;
    M["trace.attributed_share"] =
        Total.SessionWallMs > 0
            ? 1.0 - Total.SessionSelfMs / Total.SessionWallMs
            : 0.0;
  }
  for (const auto &[Program, Times] : ByProgram)
    Out.ProgramSessionMs[Program] = median(Times);
  return Out;
}

} // namespace perfbench
