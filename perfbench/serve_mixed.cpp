//===- perfbench/serve_mixed.cpp - serve-mixed: an open loop into hotg-serve ===//
//
// One process, four threads: this driver's load generator, the
// serve::Server::serveStream reader, and the server's two workers. The
// generator writes length-prefixed request frames into a pipe at seeded
// arrival times; the server writes response frames into a buffer that
// stamps each one as it is flushed. A job's latency runs from the time it
// was due, so a stalled generator or a growing queue counts against it.
//
// The whole run talks to one long-lived server, as a daemon would be used:
// the cross-session QueryCache grows from phase to phase, and every phase
// is measured on the cache the phases before it left behind. Phases of a
// --trace 0 run:
//   warm-up     one block of jobs, one at a time, not measured;
//   rounds      each an alone window (jobs sent one at a time: the
//               server's unloaded session time, sessions_per_s and
//               session_ms.p50) followed by a fixed-rate window (an open
//               loop at FixedRate: job_ms.p50 and job_ms.p90);
//   saturation  open-loop windows far above capacity: the completion rate
//               with both workers busy (max_jobs_per_s).
// A --trace 1 run replaces the saturation windows by fixed-rate windows
// with a RecordingTraceSink installed, ends with one more alone window
// (serve.session_drift: how much slower the same kind of job got on the
// grown cache), and times the codec outside the server.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "app/Examples.h"
#include "lang/Parser.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "support/JsonReader.h"
#include "support/JsonWriter.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <istream>
#include <map>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <thread>
#include <tuple>
#include <unordered_map>

#include <unistd.h>

using namespace hotg;

namespace perfbench {
namespace {

constexpr unsigned SetupReps = 41;
constexpr unsigned Workers = 2;
/// Large enough that no window can fill it: overload shows as latency and
/// backlog, and a shed job is a failure.
constexpr unsigned QueueCapacity = 256;
/// Offered rate of the fixed-rate windows (jobs/s) on a host at the
/// reference speed: an assumed load, about a ninth of what the two workers
/// complete at saturation on this mix. A window offers it multiplied by
/// the host factor measured just before, so that the load is the same
/// share of the workers' capacity however fast the shared host runs at
/// the moment: queueing, and with it the latency of the median job, grows
/// much faster than linearly with that share.
constexpr double FixedRate = 7;
/// Saturation windows offer their jobs this fast, far above what two
/// workers complete, so both stay busy until the window drains.
constexpr double SaturationRate = 2000;

/// The job mix: every program of examples/programs in equal shares. No
/// documented hotg-serve traffic exists, so the mix is synthetic; it is
/// not weighted toward any program. Every request leaves policy
/// (higher-order), max_tests (64) and multistep (2) at the protocol's
/// defaults and sets explore_paths, so that each job spends its test
/// budget as the closed-loop explore sessions do. lexer.ml has no main and
/// is driven from lex_main, as its header says.
struct JobType {
  const char *File;  ///< examples/programs/<File>.ml
  const char *Entry; ///< Empty: the protocol's default entry.
};
const JobType Types[] = {
    {"checksum", ""}, {"compose", ""}, {"csv_scanner", ""},
    {"lexer", "lex_main"}, {"maze", ""}, {"obscure", ""},
    {"overflow_guard", ""},
};
constexpr unsigned NumTypes = sizeof(Types) / sizeof(Types[0]);
/// A block has two jobs of every type: one repeats one of RepeatedPerType
/// configurations drawn at set-up (and so reads the cross-session
/// QueryCache), one draws a fresh input and seed (and so writes it).
constexpr unsigned BlockJobs = 2 * NumTypes;
constexpr unsigned RepeatedPerType = 4;
constexpr unsigned WarmupJobs = BlockJobs;
/// Per window of every phase.
constexpr unsigned WindowJobs = 2 * BlockJobs;
/// Share of --seconds the fixed-rate windows offer jobs for; it sets the
/// number of rounds.
constexpr double FixedShare = 0.55;
constexpr unsigned TracedWindows = 2;     ///< --trace 1 only.
constexpr unsigned SaturationWindows = 9; ///< --trace 0 only.

/// Rounds of a run of \p Seconds: enough fixed-rate windows to offer jobs
/// for FixedShare of it on a host at the reference speed, and at least
/// three, so that a median over the windows has a middle.
unsigned roundsFor(unsigned Seconds) {
  double WindowS = WindowJobs / FixedRate;
  return std::max(3u, static_cast<unsigned>(
                          std::lround(FixedShare * Seconds / WindowS)));
}

struct Job {
  unsigned Type = 0;
  bool Fresh = false;
  std::vector<int64_t> Input;
  uint64_t SeedField = 0; ///< The request's "seed" (its cache epoch).
  std::string Id;
  std::string Frame;   ///< "<len>\n<payload>\n".
  double Offset = 0;   ///< Arrival offset at one job per second.
};

struct ServeSetup {
  std::vector<std::unique_ptr<Prepared>> Programs; ///< One per job type.
  /// RepeatedPerType configurations per job type, and how often each
  /// type's pool was used so far.
  std::vector<std::vector<Job>> Repeated;
  std::vector<unsigned> RepeatedUses;
  RandomGen Rng{0};
  unsigned NextId = 0;

  /// A job of type \p T with a freshly drawn input and seed.
  Job draw(unsigned T);

  /// The next \p Count jobs: blocks of BlockJobs in seeded order, with
  /// exponential gaps rescaled to a mean of exactly one second.
  std::vector<Job> makeJobs(unsigned Count);
};

/// Every window of one run, in the order the run sends them.
struct Plan {
  std::vector<Job> Warmup;
  std::vector<std::vector<Job>> Alone, Fixed;
  std::vector<std::vector<Job>> Saturation; ///< --trace 0.
  std::vector<std::vector<Job>> Traced;     ///< --trace 1.
  std::vector<Job> Late;                    ///< --trace 1.
};

std::string encodeRequest(const Job &J, const Prepared &P) {
  std::string Out;
  JsonWriter W(Out);
  W.beginObject();
  W.key("id");
  W.value(J.Id);
  W.key("tenant");
  W.value(J.Fresh ? "fresh" : "repeat");
  W.key("program");
  W.value(P.Source);
  if (*Types[J.Type].Entry) {
    W.key("entry");
    W.value(P.Entry);
  }
  W.key("seed");
  W.value(J.SeedField);
  W.key("explore_paths");
  W.value(true);
  W.key("input");
  W.beginArray();
  for (int64_t Cell : J.Input)
    W.value(Cell);
  W.endArray();
  W.endObject();
  return Out;
}

std::vector<Job> ServeSetup::makeJobs(unsigned Count) {
  std::vector<Job> Jobs;
  while (Jobs.size() < Count) {
    std::vector<Job> Block;
    for (unsigned T = 0; T != NumTypes; ++T)
      for (bool Fresh : {false, true}) {
        Job J = Fresh ? draw(T)
                      : Repeated[T][RepeatedUses[T]++ % RepeatedPerType];
        J.Fresh = Fresh;
        Block.push_back(std::move(J));
      }
    for (size_t I = Block.size(); I > 1; --I)
      std::swap(Block[I - 1], Block[Rng.nextBelow(I)]);
    for (Job &J : Block)
      if (Jobs.size() < Count)
        Jobs.push_back(std::move(J));
  }
  double At = 0;
  for (Job &J : Jobs) {
    // Exponential gap: -ln(U), U uniform in (0, 1].
    double U = static_cast<double>(Rng.nextBelow(1u << 30) + 1) /
               static_cast<double>(1u << 30);
    At += -std::log(U);
    J.Offset = At;
  }
  for (Job &J : Jobs) {
    J.Offset *= static_cast<double>(Count) / At;
    J.Id = 'j' + std::to_string(NextId++);
    std::string Payload = encodeRequest(J, *Programs[J.Type]);
    J.Frame = std::to_string(Payload.size()) + "\n" + Payload + "\n";
  }
  return Jobs;
}

/// Reads, parses and compiles the program of every job type.
std::vector<std::unique_ptr<Prepared>> loadPrograms(const Args &A) {
  std::vector<std::unique_ptr<Prepared>> Programs;
  for (const JobType &T : Types) {
    std::string Rel = std::string("examples/programs/") + T.File + ".ml";
    std::optional<std::string> Source = readFile(A, Rel);
    if (!Source)
      throw std::runtime_error("cannot read " + Rel);
    std::unique_ptr<Prepared> P = prepare(T.File, std::move(*Source), T.Entry);
    if (!P)
      throw std::runtime_error(Rel + " does not compile");
    Programs.push_back(std::move(P));
  }
  return Programs;
}

Job ServeSetup::draw(unsigned T) {
  Job J;
  J.Type = T;
  J.Input = drawInput(Rng, Programs[T]->InputCells, 0, 99).Cells;
  J.SeedField = Rng.nextBelow(1000000000);
  return J;
}

/// Set-up: the programs, the repeated configurations and the request
/// frames of every window.
std::unique_ptr<ServeSetup> setupServe(const Args &A, Plan &Windows) {
  auto S = std::make_unique<ServeSetup>();
  S->Rng = RandomGen(mixSeed(A.Seed, 3, 0));
  S->Programs = loadPrograms(A);
  for (unsigned T = 0; T != NumTypes; ++T) {
    S->Repeated.emplace_back();
    for (unsigned I = 0; I != RepeatedPerType; ++I)
      S->Repeated.back().push_back(S->draw(T));
  }
  S->RepeatedUses.assign(NumTypes, 0);

  Windows = Plan();
  Windows.Warmup = S->makeJobs(WarmupJobs);
  for (unsigned R = 0, N = roundsFor(A.Seconds); R != N; ++R) {
    Windows.Alone.push_back(S->makeJobs(WindowJobs));
    Windows.Fixed.push_back(S->makeJobs(WindowJobs));
  }
  if (!A.Trace) {
    for (unsigned W = 0; W != SaturationWindows; ++W)
      Windows.Saturation.push_back(S->makeJobs(WindowJobs));
  } else {
    for (unsigned W = 0; W != TracedWindows; ++W)
      Windows.Traced.push_back(S->makeJobs(WindowJobs));
    Windows.Late = S->makeJobs(WindowJobs);
  }
  return S;
}

/// serveStream's input: the read end of the generator's pipe.
class PipeInBuf : public std::streambuf {
public:
  explicit PipeInBuf(int Fd) : Fd(Fd) { setg(Buf, Buf, Buf); }

protected:
  int_type underflow() override {
    ssize_t N;
    do
      N = ::read(Fd, Buf, sizeof(Buf));
    while (N < 0 && errno == EINTR);
    if (N <= 0)
      return traits_type::eof();
    setg(Buf, Buf, Buf + N);
    return traits_type::to_int_type(Buf[0]);
  }

private:
  int Fd;
  char Buf[4096];
};

/// serveStream's output: collects response frames and stamps each with
/// the time the server flushed it.
class ResponseBuf : public std::streambuf {
public:
  struct Response {
    std::string Payload;
    double AtS = 0;
  };

  size_t completed() {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Responses.size();
  }
  void waitFor(size_t Count) {
    std::unique_lock<std::mutex> Lock(Mutex);
    Arrived.wait(Lock, [&] { return Responses.size() >= Count; });
  }
  /// Responses [From, To); valid once waitFor(To) returned.
  std::vector<Response> range(size_t From, size_t To) {
    std::lock_guard<std::mutex> Lock(Mutex);
    return {Responses.begin() + From, Responses.begin() + To};
  }

protected:
  std::streamsize xsputn(const char *S, std::streamsize N) override {
    std::lock_guard<std::mutex> Lock(Mutex);
    Pending.append(S, static_cast<size_t>(N));
    return N;
  }
  int_type overflow(int_type C) override {
    if (!traits_type::eq_int_type(C, traits_type::eof())) {
      std::lock_guard<std::mutex> Lock(Mutex);
      Pending.push_back(traits_type::to_char_type(C));
    }
    return traits_type::not_eof(C);
  }
  int sync() override {
    double Now = nowSeconds();
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      for (;;) {
        size_t Eol = Pending.find('\n');
        if (Eol == std::string::npos)
          break;
        size_t Len = std::stoul(Pending.substr(0, Eol));
        if (Pending.size() < Eol + 1 + Len + 1)
          break;
        Responses.push_back({Pending.substr(Eol + 1, Len), Now});
        Pending.erase(0, Eol + 1 + Len + 1);
      }
    }
    Arrived.notify_all();
    return 0;
  }

private:
  std::mutex Mutex;
  std::condition_variable Arrived;
  std::string Pending;
  std::vector<Response> Responses;
};

/// Waits until \p AtS: sleeps until a millisecond before, then spins, so
/// that the thread's wake-up delay does not make the job late.
void waitUntil(double AtS) {
  constexpr double SpinS = 0.001;
  if (AtS - nowSeconds() > SpinS)
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(AtS - SpinS))));
  while (nowSeconds() < AtS) {
  }
}

/// One answered job.
struct Answer {
  const Job *J = nullptr;
  std::string Payload;
  double LatencyMs = 0; ///< From due time (open loop) or send time.
};

struct PhaseResult {
  std::vector<Answer> Answers;
  double MaxLagMs = 0;
  uint64_t SessionNs = 0, Sessions = 0; ///< serve.job timer delta.
  /// Host kernel runs between the jobs of a closed loop, or while a
  /// saturation window drains.
  std::vector<double> KernelMs;
  /// Host speed factor of the phase: from KernelMs when there are enough,
  /// else the mean hostFactor() just before and after the phase. In a
  /// saturation window the kernel runs beside the two busy workers and so
  /// reads the host as they find it; in two seven-seed batches
  /// max_jobs_per_s spread 0.13 and 0.11 of its median with it, against
  /// 0.20 and 0.11 when bracketed.
  /// Fixed-rate windows are bracketed: a kernel beside them would run
  /// through their idle gaps and delay sends.
  double Factor = 1;

  /// Mean session time at the reference host speed.
  double sessionMeanMs() const {
    return Sessions ? static_cast<double>(SessionNs) / 1e6 /
                          static_cast<double>(Sessions) * Factor
                    : 0;
  }
  /// Job latencies at the reference host speed (Raw: as measured).
  std::vector<double> latencies(bool Raw = false) const {
    std::vector<double> V;
    for (const Answer &A : Answers)
      V.push_back(A.LatencyMs * (Raw ? 1 : Factor));
    return V;
  }
  /// Jobs per second that the two workers complete while both are busy:
  /// Workers over the mean session time, at the reference host speed.
  /// Session times, not response times, because a window's last jobs run
  /// with one worker idle, and how long that lasts depends on which job
  /// comes last (a checksum job takes a hundred times a small one).
  double throughput(bool Raw = false) const {
    return Workers * static_cast<double>(Sessions) * 1e9 /
           static_cast<double>(SessionNs) / (Raw ? 1 : Factor);
  }
};

serve::ServerOptions serverOptions() {
  serve::ServerOptions Options;
  Options.Workers = Workers;
  Options.QueueCapacity = QueueCapacity;
  return Options;
}

/// The server and the generator's side of it: the pipe, the reader thread
/// and the response buffer.
class Harness {
public:
  Harness() : Server(serverOptions()) {
    if (::pipe(Fds) != 0)
      throw std::runtime_error("pipe failed");
    In = std::make_unique<PipeInBuf>(Fds[0]);
    Reader = std::thread([this] {
      std::istream InStream(In.get());
      std::ostream OutStream(&Out);
      Stats = Server.serveStream(InStream, OutStream);
    });
  }
  ~Harness() { finish(); }
  Harness(const Harness &) = delete;
  Harness &operator=(const Harness &) = delete;

  /// Closes the request stream and waits for the server to drain.
  serve::ServerStats finish() {
    if (Fds[1] >= 0) {
      ::close(Fds[1]);
      Fds[1] = -1;
    }
    if (Reader.joinable())
      Reader.join();
    if (Fds[0] >= 0) {
      ::close(Fds[0]);
      Fds[0] = -1;
    }
    return Stats;
  }

  void send(const Job &J) {
    const char *P = J.Frame.data();
    size_t Left = J.Frame.size();
    while (Left) {
      ssize_t N = ::write(Fds[1], P, Left);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        throw std::runtime_error("request pipe closed");
      P += N;
      Left -= static_cast<size_t>(N);
    }
  }

  /// Sends \p Jobs one at a time, each after the previous answer.
  PhaseResult closedLoop(const std::vector<Job> &Jobs) {
    PhaseResult R;
    TimerTotals Before = timerTotals("serve.job");
    for (size_t I = 0; I != Jobs.size(); ++I) {
      if (I % 4 == 0)
        R.KernelMs.push_back(hostKernelMs());
      size_t Base = Out.completed();
      double SentS = nowSeconds();
      send(Jobs[I]);
      Out.waitFor(Base + 1);
      ResponseBuf::Response Resp = Out.range(Base, Base + 1).front();
      R.Answers.push_back(
          {&Jobs[I], std::move(Resp.Payload), (Resp.AtS - SentS) * 1e3});
    }
    TimerTotals After = timerTotals("serve.job");
    R.SessionNs = After.TotalNs - Before.TotalNs;
    R.Sessions = After.Count - Before.Count;
    return R;
  }

  /// Sends \p Jobs open loop at \p Rate jobs/s, then waits for every
  /// answer.
  /// With \p KernelWhileWaiting, the generator runs the host kernel from
  /// its last send until the last answer.
  PhaseResult openLoop(const std::vector<Job> &Jobs, double Rate,
                       bool KernelWhileWaiting = false) {
    PhaseResult R;
    TimerTotals Before = timerTotals("serve.job");
    const size_t Base = Out.completed();
    const double Start = nowSeconds() + 0.002;
    std::vector<double> Due;
    std::unordered_map<std::string, size_t> ById;
    for (size_t I = 0; I != Jobs.size(); ++I) {
      Due.push_back(Start + Jobs[I].Offset / Rate);
      ById.emplace(Jobs[I].Id, I);
    }
    for (size_t I = 0; I != Jobs.size(); ++I) {
      waitUntil(Due[I]);
      send(Jobs[I]);
      R.MaxLagMs = std::max(R.MaxLagMs, (nowSeconds() - Due[I]) * 1e3);
    }
    while (KernelWhileWaiting && Out.completed() < Base + Jobs.size())
      R.KernelMs.push_back(hostKernelMs());
    Out.waitFor(Base + Jobs.size());
    for (ResponseBuf::Response &Resp : Out.range(Base, Base + Jobs.size())) {
      json::ParseResult Doc = json::parse(Resp.Payload);
      auto It = ById.find(Doc ? std::string(Doc->getString("id")) : "");
      if (It == ById.end())
        throw std::runtime_error("response without a known id");
      R.Answers.push_back({&Jobs[It->second], std::move(Resp.Payload),
                           (Resp.AtS - Due[It->second]) * 1e3});
    }
    TimerTotals After = timerTotals("serve.job");
    R.SessionNs = After.TotalNs - Before.TotalNs;
    R.Sessions = After.Count - Before.Count;
    return R;
  }

  serve::Server &server() { return Server; }

private:
  serve::Server Server;
  int Fds[2] = {-1, -1};
  std::unique_ptr<PipeInBuf> In;
  ResponseBuf Out;
  serve::ServerStats Stats;
  std::thread Reader; ///< Declared last: it uses every member above.
};

/// The request payload inside \p J's frame.
std::string payloadOf(const Job &J) {
  size_t Start = J.Frame.find('\n') + 1;
  return J.Frame.substr(Start, J.Frame.size() - Start - 1);
}

/// The reference answer of one job configuration: the same search run
/// directly through core::DirectedSearch, rendered by
/// core::renderSearchReport, with its bugs replayed on the interpreter.
struct Reference {
  std::string Output;
  std::string Error;
};

Reference referenceFor(const std::string &Payload, const Prepared &P,
                       const interp::NativeRegistry &Natives) {
  serve::JobRequest Req;
  std::string Error;
  if (!serve::decodeJobRequest(Payload, json::ParseLimits{}, Req, Error))
    return {"", "request does not decode: " + Error};
  core::SearchOptions O;
  O.Policy = Req.Policy == "sound" ? dse::ConcretizationPolicy::Sound
                                   : dse::ConcretizationPolicy::HigherOrder;
  O.MaxTests = Req.MaxTests;
  O.MultiStepBound = Req.MultiStep;
  O.Jobs = 1;
  O.Seed = Req.Seed;
  if (Req.Input)
    O.InitialInput = interp::TestInput{*Req.Input};
  O.SkipCoveredTargets = !Req.ExplorePaths;
  core::DirectedSearch Search(*P.Prog, Natives, P.Entry, O);
  core::SearchResult R = Search.run();
  Reference Ref;
  Ref.Output = core::renderSearchReport(Req.Policy, R);
  Ref.Error = replayBugs(*P.Prog, Natives, P.Entry, R, O.Limits);
  return Ref;
}

/// Checks every answer against its reference; references of equal
/// configurations are computed once, on four threads.
void verifyAnswers(const Args &A, const std::vector<const Answer *> &Answers,
                   RunOutcome &Out) {
  using Key = std::tuple<unsigned, std::vector<int64_t>, uint64_t>;
  std::map<Key, const Answer *> Distinct;
  for (const Answer *Ans : Answers)
    Distinct.emplace(Key{Ans->J->Type, Ans->J->Input, Ans->J->SeedField},
                     Ans);
  std::vector<std::pair<const Key *, const Answer *>> Work;
  for (const auto &[K, Ans] : Distinct)
    Work.emplace_back(&K, Ans);
  std::vector<Reference> Refs(Work.size());

  constexpr unsigned Threads = 4;
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&, T] {
      // Each thread parses its own programs.
      std::vector<std::unique_ptr<Prepared>> Programs = loadPrograms(A);
      interp::NativeRegistry Natives;
      app::registerExampleNatives(Natives);
      for (size_t I = T; I < Work.size(); I += Threads) {
        const Job &J = *Work[I].second->J;
        Refs[I] = referenceFor(payloadOf(J), *Programs[J.Type], Natives);
      }
    });
  for (std::thread &T : Pool)
    T.join();

  std::map<Key, const Reference *> ByKey;
  for (size_t I = 0; I != Work.size(); ++I)
    ByKey[*Work[I].first] = &Refs[I];
  for (const Answer *Ans : Answers) {
    ++Out.Attempted;
    const Reference &Ref =
        *ByKey[Key{Ans->J->Type, Ans->J->Input, Ans->J->SeedField}];
    json::ParseResult Doc = json::parse(Ans->Payload);
    std::string Status = Doc ? std::string(Doc->getString("status")) : "";
    std::string Output = Doc ? std::string(Doc->getString("output")) : "";
    if (!Ref.Error.empty())
      Out.fail(Ans->J->Id + ": " + Ref.Error);
    else if (Status != "ok" && Status != "bugs")
      Out.fail(Ans->J->Id + ": status " + Status);
    else if (Output != Ref.Output)
      Out.fail(Ans->J->Id + ": served output differs from the reference");
  }
}

/// Mean microseconds to decode a request and encode its response.
double codecMicros(const std::vector<const Answer *> &Answers) {
  constexpr unsigned Reps = 20;
  double Total = 0;
  for (const Answer *Ans : Answers) {
    std::string Payload = payloadOf(*Ans->J);
    json::ParseResult Doc = json::parse(Ans->Payload);
    serve::JobResponse Resp;
    Resp.Id = std::string(Doc->getString("id"));
    Resp.Status = Doc->getString("status") == "bugs" ? serve::JobStatus::Bugs
                                                     : serve::JobStatus::Ok;
    Resp.Tests = static_cast<unsigned>(Doc->getInt("tests"));
    Resp.Bugs = static_cast<unsigned>(Doc->getInt("bugs"));
    Resp.Output = std::string(Doc->getString("output"));
    double T0 = nowSeconds();
    for (unsigned I = 0; I != Reps; ++I) {
      serve::JobRequest Req;
      std::string Error;
      serve::decodeJobRequest(Payload, json::ParseLimits{}, Req, Error);
      std::string Encoded = serve::encodeJobResponse(Resp);
      if (Encoded.empty())
        throw std::runtime_error("empty response encoding");
    }
    Total += (nowSeconds() - T0) * 1e6 / Reps;
  }
  return Answers.empty() ? 0 : Total / static_cast<double>(Answers.size());
}

/// The per-window values of \p Of, and their median.
template <typename Fn>
double medianOver(const std::vector<PhaseResult> &Windows, Fn Of) {
  std::vector<double> V;
  for (const PhaseResult &W : Windows)
    V.push_back(Of(W));
  return median(V);
}

/// The job latencies of every window in \p Windows (Raw: as measured).
std::vector<double> pooled(const std::vector<PhaseResult> &Windows,
                           bool Raw = false) {
  std::vector<double> V;
  for (const PhaseResult &W : Windows)
    for (double Ms : W.latencies(Raw))
      V.push_back(Ms);
  return V;
}

double perSecond(const std::vector<double> &Ms) {
  double TotalS = 0;
  for (double V : Ms)
    TotalS += V / 1e3;
  return static_cast<double>(Ms.size()) / TotalS;
}

} // namespace

RunOutcome runServeMixed(const Args &A) {
  RunOutcome Out;
  std::vector<std::pair<const char *, double>> Clock{{"start", nowSeconds()}};
  auto Lap = [&](const char *Name) { Clock.emplace_back(Name, nowSeconds()); };

  // Set-up: the programs and the request frames of every window, several
  // times, each scaled by a host kernel run just before it. Starting the
  // server is left out: it is thread start-up, not hotg's work, and it made
  // set-up time spread far wider.
  std::vector<double> RawSetupS, SetupS, ParseMs, CompileMs;
  std::unique_ptr<ServeSetup> S;
  Plan Windows;
  for (unsigned I = 0; I != SetupReps; ++I) {
    S.reset();
    const double Scale = ReferenceKernelMs / hostKernelMs();
    double T0 = nowSeconds();
    S = setupServe(A, Windows);
    RawSetupS.push_back(nowSeconds() - T0);
    SetupS.push_back(RawSetupS.back() * Scale);
    double Parse = 0, Compile = 0;
    for (const auto &P : S->Programs) {
      Parse += P->ParseMs;
      Compile += P->CompileMs;
    }
    ParseMs.push_back(Parse * Scale);
    CompileMs.push_back(Compile * Scale);
  }
  Lap("setup");

  // Every window runs on the one server H and is bracketed by host-speed
  // measurements, taken while the server is idle.
  Harness H;
  smt::QueryCache &Cache = H.server().fabric().cache();
  auto Phase = [&](auto &&Measure) {
    double F0 = hostFactor(Out);
    PhaseResult R = Measure(F0);
    R.Factor = R.KernelMs.size() >= 5
                   ? ReferenceKernelMs / median(R.KernelMs)
                   : (F0 + hostFactor(Out)) / 2;
    Out.HostFactors.push_back(R.Factor);
    return R;
  };
  std::printf("cache entries:");
  auto NoteCache = [&](const char *After) {
    std::printf(" %zu after %s", Cache.size(), After);
  };

  Counters Before = counterSnapshot();
  std::vector<PhaseResult> WarmupR, AloneR, FixedR, SaturationR, TracedR,
      LateR;
  WarmupR.push_back(H.closedLoop(Windows.Warmup));
  NoteCache("warm-up");
  uint64_t Hits = 0, Misses = 0;
  for (size_t R = 0; R != Windows.Alone.size(); ++R) {
    AloneR.push_back(
        Phase([&](double) { return H.closedLoop(Windows.Alone[R]); }));
    FixedR.push_back(Phase([&](double F0) {
      uint64_t H0 = Cache.hits(), M0 = Cache.misses();
      PhaseResult P = H.openLoop(Windows.Fixed[R], FixedRate * F0);
      Hits += Cache.hits() - H0;
      Misses += Cache.misses() - M0;
      return P;
    }));
  }
  NoteCache("rounds");
  Out.PeakRssMb = peakRssMb();
  Lap("rounds");

  LayerTimes Layers;
  Counters TracedDelta;
  std::vector<double> Rates, RawRates;
  if (!A.Trace) {
    for (const std::vector<Job> &Jobs : Windows.Saturation) {
      SaturationR.push_back(
          Phase([&](double) {
            return H.openLoop(Jobs, SaturationRate, /*KernelWhileWaiting=*/true);
          }));
      Rates.push_back(SaturationR.back().throughput());
      RawRates.push_back(SaturationR.back().throughput(true));
    }
    NoteCache("saturation");
  } else {
    telemetry::RecordingTraceSink Sink;
    for (const std::vector<Job> &Jobs : Windows.Traced)
      TracedR.push_back(Phase([&](double F0) {
        Counters C0 = counterSnapshot();
        PhaseResult P;
        {
          telemetry::ScopedSink Scoped(&Sink);
          P = H.openLoop(Jobs, FixedRate * F0);
        }
        for (const auto &[Name, Value] : counterDelta(counterSnapshot(), C0))
          TracedDelta[Name] += Value;
        return P;
      }));
    Layers = layerTimes(Sink);
    NoteCache("traced");
    LateR.push_back(
        Phase([&](double) { return H.closedLoop(Windows.Late); }));
    NoteCache("late");
  }
  const size_t CacheEntries = Cache.size();
  std::printf("\n");
  if (serve::ServerStats Stats = H.finish();
      Stats.Shed || Stats.RejectedMalformed)
    Out.fail("server shed or rejected jobs");
  Counters Run = counterDelta(counterSnapshot(), Before);
  Lap(A.Trace ? "traced" : "saturation");

  std::vector<const Answer *> All;
  for (const auto *Group :
       {&WarmupR, &AloneR, &FixedR, &SaturationR, &TracedR, &LateR})
    for (const PhaseResult &P : *Group)
      for (const Answer &Ans : P.Answers)
        All.push_back(&Ans);
  verifyAnswers(A, All, Out);
  Lap("verify");
  std::printf("phase seconds:");
  for (size_t I = 1; I != Clock.size(); ++I)
    std::printf(" %s %.1f", Clock[I].first, Clock[I].second - Clock[I - 1].second);
  std::printf("\n");

  // Deterministic counts: the alone windows run the same jobs on every run
  // of a seed, and a cache hit never changes a search's result.
  for (const PhaseResult &P : AloneR)
    for (const Answer &Ans : P.Answers) {
      json::ParseResult Doc = json::parse(Ans.Payload);
      Out.Deterministic["alone.search.tests"] +=
          Doc ? static_cast<uint64_t>(Doc->getInt("tests")) : 0;
      Out.Deterministic["alone.bugs"] +=
          Doc ? static_cast<uint64_t>(Doc->getInt("bugs")) : 0;
    }

  for (const auto *Group : {&AloneR, &FixedR}) {
    std::map<std::string, std::vector<double>> ByType;
    for (const PhaseResult &P : *Group)
      for (const Answer &Ans : P.Answers)
        ByType[Types[Ans.J->Type].File].push_back(Ans.LatencyMs);
    for (const auto &[Name, Ms] : ByType)
      std::printf("%-10s %-16s jobs %3zu: raw job_ms mean %8.2f p50 %8.2f "
                  "p90 %8.2f\n",
                  Group == &AloneR ? "alone" : "fixed-rate", Name.c_str(),
                  Ms.size(), mean(Ms), median(Ms), percentile(Ms, 90));
  }
  for (size_t R = 0; R != FixedR.size(); ++R)
    std::printf("round %zu: alone raw latency mean %.3f p50 %.3f ms, host "
                "factor %.3f; fixed-rate raw job_ms p50 %.3f p90 %.3f, "
                "session mean %.3f ms, host factor %.3f\n",
                R, mean(AloneR[R].latencies(true)),
                median(AloneR[R].latencies(true)), AloneR[R].Factor,
                median(FixedR[R].latencies(true)),
                percentile(FixedR[R].latencies(true), 90),
                FixedR[R].sessionMeanMs(), FixedR[R].Factor);
  for (const PhaseResult &P : SaturationR)
    std::printf("saturation window: raw %.2f jobs/s, host factor %.3f\n",
                P.throughput(true), P.Factor);

  auto SessionMean = [](const PhaseResult &P) { return P.sessionMeanMs(); };
  auto P50 = [](const PhaseResult &P) { return median(P.latencies()); };
  if (!A.Trace) {
    // Rates and the 90th percentile are over the jobs of every window of a
    // phase together: one window holds only a few of the checksum jobs
    // that dominate the time. Medians are the median of the windows' own,
    // so that a slow spell of the host, which delays every small job of
    // one window, moves one of them and not the pooled median.
    const std::vector<double> AloneMs = pooled(AloneR),
                              RawAloneMs = pooled(AloneR, true),
                              FixedMs = pooled(FixedR),
                              RawFixedMs = pooled(FixedR, true);
    std::printf("raw wall clock: setup_s %.6f, sessions_per_s %.4f, "
                "session_ms.p50 %.3f, job_ms.p50 %.3f, job_ms.p90 %.3f, "
                "max_jobs_per_s %.4f\n",
                median(RawSetupS), perSecond(RawAloneMs), median(RawAloneMs),
                median(RawFixedMs), percentile(RawFixedMs, 90),
                median(RawRates));
    Metrics &M = Out.EndToEnd;
    M["setup_s"] = median(SetupS);
    M["sessions_per_s"] = perSecond(AloneMs);
    M["session_ms.p50"] = medianOver(AloneR, P50);
    M["job_ms.p50"] = medianOver(FixedR, P50);
    M["job_ms.p90"] = percentile(FixedMs, 90);
    M["max_jobs_per_s"] = median(Rates);
  } else {
    Metrics &M = Out.PerLayer;
    const double TF = medianOver(TracedR, [](const PhaseResult &P) {
      return P.Factor;
    });
    M["lang.parse_ms"] = median(ParseMs);
    M["vm.compile_ms"] = median(CompileMs);
    M["vm.exec.self_ms"] = Layers.VmExecMs * TF;
    M["dse.execute.self_ms"] = Layers.DseExecuteMs * TF;
    M["search.self_ms"] = Layers.SearchMs * TF;
    M["validity.self_ms"] = Layers.ValidityMs * TF;
    M["solver.self_ms"] = Layers.SolverMs * TF;
    addCounterMetrics(M, TracedDelta);
    M["cache.hits"] = static_cast<double>(Hits);
    M["cache.misses"] = static_cast<double>(Misses);
    M["cache.hit_ratio"] =
        Hits + Misses ? static_cast<double>(Hits) / (Hits + Misses) : 0.0;
    M["cache.entries"] = static_cast<double>(CacheEntries);
    std::vector<const Answer *> FixedAnswers;
    for (const PhaseResult &P : FixedR)
      for (const Answer &Ans : P.Answers)
        FixedAnswers.push_back(&Ans);
    M["serve.codec_us"] = codecMicros(FixedAnswers) * hostFactor(Out);
    M["serve.session_ms.mean"] = medianOver(FixedR, SessionMean);
    M["serve.queue_wait_ms.mean"] = medianOver(FixedR, [](const PhaseResult &P) {
      return mean(P.latencies()) - P.sessionMeanMs();
    });
    M["serve.session_inflation"] =
        medianOver(FixedR, SessionMean) / medianOver(AloneR, SessionMean);
    M["serve.session_drift"] =
        LateR.front().sessionMeanMs() / AloneR.front().sessionMeanMs();
    M["serve.shed"] = static_cast<double>(counterValue(Run, "serve.jobs_shed"));
    M["serve.retries"] =
        static_cast<double>(counterValue(Run, "serve.jobs_retried"));
    M["loadgen.lag_ms.max"] = 0;
    for (const PhaseResult &P : FixedR)
      M["loadgen.lag_ms.max"] = std::max(M["loadgen.lag_ms.max"], P.MaxLagMs);
    M["trace.overhead_ratio"] =
        medianOver(TracedR, SessionMean) / medianOver(FixedR, SessionMean);
    double TracedSessionMs = 0;
    for (const PhaseResult &P : TracedR)
      TracedSessionMs += static_cast<double>(P.SessionNs) / 1e6;
    M["trace.attributed_share"] =
        TracedSessionMs > 0 ? Layers.layerSumMs() / TracedSessionMs : 0.0;
  }
  return Out;
}

} // namespace perfbench
