//===- perfbench/src/workloads.cpp - The benchmark's workloads ------------===//
//
// Part of the warrow project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "spans.h"

#include "analysis/bounds.h"
#include "analysis/checks.h"
#include "analysis/env_pool.h"
#include "analysis/interproc.h"
#include "analysis/races.h"
#include "analysis/rel_env.h"
#include "analysis/snapshot.h"
#include "corpus/corpus.h"
#include "eqsys/verify.h"
#include "lang/parser.h"
#include "lattice/combine.h"
#include "solvers/slr_plus.h"
#include "support/rng.h"
#include "workloads/eq_generators.h"
#include "workloads/spec_generator.h"
#include "workloads/wcet_suite.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>
#include <stdexcept>

using namespace warrow;

namespace perfbench {

Counters &Counters::operator+=(const Counters &O) {
  CfgNodes += O.CfgNodes;
  EnvLookups += O.EnvLookups;
  EnvHits += O.EnvHits;
  EnvDistinct += O.EnvDistinct;
  RelLookups += O.RelLookups;
  RelHits += O.RelHits;
  RhsEvals += O.RhsEvals;
  Updates += O.Updates;
  Unknowns += O.Unknowns;
  QueueMax = std::max(QueueMax, O.QueueMax);
  CacheHits += O.CacheHits;
  CacheMisses += O.CacheMisses;
  SnapshotBytes += O.SnapshotBytes;
  SnapshotUnknowns += O.SnapshotUnknowns;
  Restarted += O.Restarted;
  Retracted += O.Retracted;
  return *this;
}

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// Fisher-Yates over warrow's portable generator, so a seed names the
/// same order on every standard library.
void shuffle(std::vector<size_t> &Items, Rng &R) {
  for (size_t I = Items.size(); I > 1; --I)
    std::swap(Items[I - 1], Items[R.below(I)]);
}

/// Adds the calling thread's hash-consing pool counters. Jobs run on
/// fresh threads, so the pools hold exactly this job's environments.
void addPools(Counters &C) {
  const EnvPool &Env = EnvPool::local();
  C.EnvLookups += Env.internHits() + Env.internMisses();
  C.EnvHits += Env.internHits();
  C.EnvDistinct += Env.distinctEnvs();
  const RelPool &Rel = RelPool::local();
  C.RelLookups += Rel.internHits() + Rel.internMisses();
  C.RelHits += Rel.internHits();
}

void addSolve(Counters &C, const SolverStats &S, uint64_t Unknowns) {
  C.RhsEvals += S.RhsEvals;
  C.Updates += S.Updates;
  C.Unknowns += Unknowns;
  C.QueueMax = std::max(C.QueueMax, S.QueueMax);
  C.CacheHits += S.RhsCacheHits;
  C.CacheMisses += S.RhsCacheMisses;
}

/// Runs one eqsys verification, charging its time to the job's
/// verification total and recording a failure.
void verify(JobResult &R, const std::string &What,
            const std::function<VerifyResult()> &Check) {
  auto Start = Clock::now();
  VerifyResult V = Check();
  R.VerifyMs += msSince(Start);
  if (!V.Ok)
    R.Failures.push_back(What + ": " + V.str());
}

struct Frontend {
  std::unique_ptr<Program> P;
  ProgramCfg Cfgs;
};

/// lang: parse (lexer, parser, sema) and CFG construction.
bool frontend(const std::string &Source, SpanRecorder *Rec, Frontend &Out,
              JobResult &R) {
  DiagnosticEngine Diags;
  {
    ScopedSpan S(Rec, "lang.parse");
    Out.P = parseProgram(Source, Diags);
  }
  if (!Out.P) {
    R.Converged = false;
    R.Failures.push_back("source does not parse: " + Diags.str());
    return false;
  }
  {
    ScopedSpan S(Rec, "lang.cfg");
    Out.Cfgs = buildProgramCfg(*Out.P);
  }
  R.C.CfgNodes += Out.Cfgs.totalNodes();
  return true;
}

std::string renderAlarms(const CheckSummary &S) {
  return "div=" + std::to_string(S.DivAlarms) +
         ",bounds=" + std::to_string(S.BoundsAlarms) +
         ",dead=" + std::to_string(S.DeadLines) +
         ",race=" + std::to_string(S.RaceAlarms);
}

const char *solverName(SolverChoice Choice) {
  return Choice == SolverChoice::Warrow ? "warrow" : "two-phase";
}

/// analysis: the checker pass over a solved program.
CheckSummary checkAlarms(const Frontend &F, const AnalysisResult &Res,
                         SpanRecorder *Rec) {
  ScopedSpan S(Rec, "analysis.checks");
  return summarize(runChecks(*F.P, F.Cfgs, Res));
}

//===-- spec-cold ---------------------------------------------------------===//

/// Table 1: the seven SpecCpu-scale programs, context-sensitive, ⊟.
class SpecCold : public Workload {
public:
  SpecCold() {
    for (const SpecProfile &Profile : specSuite()) {
      Inputs.push_back(Profile.Name);
      Sources.push_back(generateSpecProgram(Profile));
    }
  }

  JobResult run(size_t Input, SpanRecorder *Rec, bool Check,
                TraceSink *Lattice) override {
    auto Start = Clock::now();
    JobResult R;
    Frontend F;
    if (!frontend(Sources[Input], Rec, F, R))
      return R;
    AnalysisOptions Options;
    Options.ContextSensitive = true;
    Options.Solver.Trace = Lattice;
    InterprocAnalysis Analysis(*F.P, F.Cfgs, Options);
    AnalysisResult Res;
    {
      ScopedSpan S(Rec, "analysis.solve");
      Res = Analysis.run(SolverChoice::Warrow);
    }
    R.Verdict = renderAlarms(checkAlarms(F, Res, Rec));
    R.Converged = Res.Stats.Converged;
    R.Ms = msSince(Start);
    addSolve(R.C, Res.Stats, Res.NumUnknowns);
    addPools(R.C);
    if (Check)
      verify(R, "verifySolution",
             [&] { return Analysis.verifySolution(Res); });
    return R;
  }

private:
  std::vector<std::string> Sources;
};

//===-- fig7-cells --------------------------------------------------------===//

/// Figure 7's WCET suite plus the on-disk corpus, each program through
/// {⊟, two-phase} × {interval, zones}, and the lockset race analysis for
/// race programs.
class Fig7Cells : public Workload {
public:
  Fig7Cells(std::vector<corpus::CorpusFile> Files) : Files(std::move(Files)) {
    for (const WcetBenchmark &B : wcetSuite()) {
      Inputs.push_back("wcet/" + B.Name);
      Sources.push_back(B.Source);
      FileOf.push_back(-1);
    }
    for (size_t I = 0; I < this->Files.size(); ++I) {
      const corpus::CorpusFile &F = this->Files[I];
      bool Races = F.D.Kind == corpus::CorpusKind::Races;
      Inputs.push_back(std::string(Races ? "races/" : "bounds/") + F.Name);
      Sources.push_back(F.Source);
      FileOf.push_back(static_cast<int>(I));
    }
  }

  /// The warm-up job takes under a millisecond, where 25 samples of the
  /// host's noise gave a median that spread 38% between runs.
  unsigned setupReps() const override { return 1000; }

  JobResult run(size_t Input, SpanRecorder *Rec, bool Check,
                TraceSink *Lattice) override {
    auto Start = Clock::now();
    JobResult R;
    Frontend F;
    if (!frontend(Sources[Input], Rec, F, R))
      return R;
    const corpus::CorpusFile *File =
        FileOf[Input] < 0 ? nullptr : &Files[FileOf[Input]];
    bool Races = File && File->D.Kind == corpus::CorpusKind::Races;
    bool Bounds = File && File->D.Kind == corpus::CorpusKind::Bounds;

    // Check mode verifies after the counters are taken, so every analysis
    // stays alive until then (verifySolution reuses its context table).
    std::vector<std::unique_ptr<InterprocAnalysis>> Analyses;
    std::vector<AnalysisResult> Results;
    for (AnalysisDomain Domain :
         {AnalysisDomain::Interval, AnalysisDomain::Zones})
      for (SolverChoice Choice :
           {SolverChoice::Warrow, SolverChoice::TwoPhase}) {
        AnalysisOptions Options;
        Options.Domain = Domain;
        Options.Solver.Trace = Lattice;
        auto Analysis =
            std::make_unique<InterprocAnalysis>(*F.P, F.Cfgs, Options);
        AnalysisResult Res;
        {
          ScopedSpan S(Rec, "analysis.solve");
          Res = Analysis->run(Choice);
        }
        CheckSummary Sum = checkAlarms(F, Res, Rec);
        R.Verdict += std::string(R.Verdict.empty() ? "" : " ") +
                     std::string(domainName(Domain)) + "/" +
                     solverName(Choice) + "=" + std::to_string(Sum.total());
        if (Bounds) {
          ScopedSpan S(Rec, "analysis.checks");
          uint64_t Alarms = runBoundsChecker(*F.P, F.Cfgs, Res).alarms();
          R.Verdict += "," + std::to_string(Alarms);
        }
        R.Converged = R.Converged && Res.Stats.Converged;
        addSolve(R.C, Res.Stats, Res.NumUnknowns);
        if (Check) {
          Analyses.push_back(std::move(Analysis));
          Results.push_back(std::move(Res));
        }
      }

    std::unique_ptr<RaceAnalysis> RaceWarrow;
    RaceAnalysisResult RaceWarrowResult;
    if (Races)
      for (SolverChoice Choice :
           {SolverChoice::Warrow, SolverChoice::TwoPhase}) {
        AnalysisOptions Options;
        Options.Solver.Trace = Lattice;
        auto Analysis = std::make_unique<RaceAnalysis>(*F.P, F.Cfgs, Options);
        RaceAnalysisResult Res;
        {
          ScopedSpan S(Rec, "analysis.solve");
          Res = Analysis->run(Choice);
        }
        {
          ScopedSpan S(Rec, "analysis.checks");
          size_t Alarms = raceCheckFindings(*F.P, Res.Races).size();
          R.Verdict += std::string(" races/") + solverName(Choice) + "=" +
                       std::to_string(Alarms);
        }
        R.Converged = R.Converged && Res.Stats.Converged;
        addSolve(R.C, Res.Stats, Res.NumUnknowns);
        // The two-phase family freezes access accumulators by design;
        // only the ⊟ result is a post-solution (see corpus.cpp).
        if (Check && Choice == SolverChoice::Warrow) {
          RaceWarrow = std::move(Analysis);
          RaceWarrowResult = std::move(Res);
        }
      }
    R.Ms = msSince(Start);
    addPools(R.C);

    if (!Check)
      return R;
    for (size_t I = 0; I < Analyses.size(); ++I)
      verify(R, "verifySolution cell " + std::to_string(I),
             [&] { return Analyses[I]->verifySolution(Results[I]); });
    if (RaceWarrow)
      verify(R, "RaceAnalysis::verify",
             [&] { return RaceWarrow->verify(RaceWarrowResult); });
    if (File)
      checkDirectives(*File, R);
    return R;
  }

private:
  /// The file's EXPECT-* directives on the cells this workload runs.
  static void checkDirectives(const corpus::CorpusFile &File, JobResult &R) {
    for (const corpus::MatrixCell &Cell : corpus::matrixFor(File.D)) {
      if (Cell.Solver != "warrow" && Cell.Solver != "two-phase")
        continue;
      corpus::CaseResult Case = corpus::runCorpusCase(File, Cell);
      R.Failures.insert(R.Failures.end(), Case.Failures.begin(),
                        Case.Failures.end());
    }
    corpus::CaseResult Concrete = corpus::runConcreteCase(File);
    R.Failures.insert(R.Failures.end(), Concrete.Failures.begin(),
                      Concrete.Failures.end());
  }

  std::vector<corpus::CorpusFile> Files;
  std::vector<std::string> Sources;
  std::vector<int> FileOf; ///< Index into Files; -1 for WCET programs.
};

//===-- edit-resolve ------------------------------------------------------===//

/// The `--snapshot-in/--snapshot-out` flow: single-function edits of two
/// SpecCpu-scale bases, each resumed from the base's snapshot text.
class EditResolve : public Workload {
public:
  EditResolve() {
    struct Mix {
      const char *Name;
      unsigned HelperJobs, FanOutJobs; // Per block of the schedule.
    };
    for (Mix M : {Mix{"401.bzip2", 12, 1}, Mix{"482.sphinx", 3, 4}}) {
      Base B;
      B.Profile = *findSpecProfile(M.Name);
      B.HelperJobs = M.HelperJobs;
      B.FanOutJobs = M.FanOutJobs;
      B.Profile.PureHelpers = HelpersPerBase;
      B.Source = generateSpecProgram(B.Profile);
      size_t BaseIdx = Bases.size();
      std::string Prefix =
          B.Profile.Name + "+h" + std::to_string(HelpersPerBase) + "/";
      unsigned N = B.Profile.NumFunctions;
      for (unsigned H = 0; H < HelpersPerBase; ++H)
        addEdit(B.Profile, BaseIdx, true, N + H,
                Prefix + "h" + std::to_string(H));
      addEdit(B.Profile, BaseIdx, false, N / 2,
              Prefix + "f" + std::to_string(N / 2));
      Bases.push_back(std::move(B));
    }
  }

  const char *inputKind(size_t I) const override {
    return Edits[I].Helper ? "helper" : "fan-out";
  }

  /// Blocks of twenty jobs, shuffled within the block: 12 helper edits
  /// and 1 fan-out edit of 401.bzip2, 3 helper edits and 4 fan-out edits
  /// of 482.sphinx — helper edits 75%, fan-out edits 25%. Job time grows
  /// with the base (snapshot text and parse) and with the cone, so the
  /// sorted job times fall into four groups: bzip2 helpers (ranks 0-60%),
  /// bzip2 fan-out (60-65%), sphinx helpers (65-80%), sphinx fan-out
  /// (80-100%). p50 thus measures helper edits and p90 fan-out edits,
  /// each ten points from a group edge. An even mix per base would put
  /// both percentiles on group edges, where they jump between runs.
  std::vector<size_t> schedule(uint64_t Seed) const override {
    Rng R(Seed);
    std::vector<size_t> Order;
    for (unsigned Block = 0; Block < 64; ++Block) {
      std::vector<size_t> Jobs;
      for (size_t B = 0; B < Bases.size(); ++B) {
        std::vector<size_t> Helpers, FanOut;
        for (size_t I = 0; I < Edits.size(); ++I)
          if (Edits[I].Base == B)
            (Edits[I].Helper ? Helpers : FanOut).push_back(I);
        for (unsigned K = 0; K < Bases[B].HelperJobs; ++K) {
          if (K % Helpers.size() == 0)
            shuffle(Helpers, R);
          Jobs.push_back(Helpers[K % Helpers.size()]);
        }
        Jobs.insert(Jobs.end(), Bases[B].FanOutJobs, FanOut.front());
      }
      shuffle(Jobs, R);
      Order.insert(Order.end(), Jobs.begin(), Jobs.end());
    }
    return Order;
  }

  /// The base cold solves plus the snapshot saves.
  double setUp() override {
    double Ms = 0;
    for (Base &B : Bases) {
      auto Start = Clock::now();
      JobResult Ignored;
      Frontend F;
      if (!frontend(B.Source, nullptr, F, Ignored))
        throw std::runtime_error(B.Profile.Name + ": base does not parse");
      InterprocAnalysis Analysis(*F.P, F.Cfgs, AnalysisOptions{});
      AnalysisSnapshot Snap;
      AnalysisResult Res = Analysis.run(SolverChoice::Warrow, &Snap);
      if (!Res.Stats.Converged)
        throw std::runtime_error(B.Profile.Name + ": base did not converge");
      B.SnapshotText = serializeAnalysisSnapshot(Snap, *F.P);
      Ms += msSince(Start);
    }
    return Ms;
  }

  JobResult run(size_t Input, SpanRecorder *Rec, bool Check,
                TraceSink *Lattice) override {
    auto Start = Clock::now();
    const Edit &E = Edits[Input];
    JobResult R;
    Frontend F;
    if (!frontend(E.Source, Rec, F, R))
      return R;
    std::optional<AnalysisSnapshot> Snap;
    {
      ScopedSpan S(Rec, "snapshot.load");
      Snap = parseAnalysisSnapshot(Bases[E.Base].SnapshotText, *F.P);
    }
    if (!Snap) {
      R.Converged = false;
      R.Failures.push_back("base snapshot does not parse");
      return R;
    }
    AnalysisOptions Options;
    Options.Solver.Trace = Lattice;
    InterprocAnalysis Analysis(*F.P, F.Cfgs, Options);
    AnalysisSnapshot Capture;
    IncrementalStats Inc;
    AnalysisResult Res;
    {
      ScopedSpan S(Rec, "incremental.resolve");
      Res = Analysis.runIncremental(SolverChoice::Warrow, *Snap, *F.P,
                                    &Capture, &Inc);
    }
    CheckSummary Sum = checkAlarms(F, Res, Rec);
    std::string Saved;
    {
      ScopedSpan S(Rec, "snapshot.save");
      Saved = serializeAnalysisSnapshot(Capture, *F.P);
    }
    R.Verdict = renderAlarms(Sum);
    R.Converged = Res.Stats.Converged && !Inc.ColdFallback;
    R.Ms = msSince(Start);
    addSolve(R.C, Res.Stats, Res.NumUnknowns);
    addPools(R.C);
    R.C.SnapshotBytes = Saved.size();
    R.C.SnapshotUnknowns = Inc.SnapshotUnknowns;
    R.C.Restarted = Inc.RestartedUnknowns;
    R.C.Retracted = Inc.RetractedCells;
    if (!Check)
      return R;

    verify(R, "verifySolution", [&] { return Analysis.verifySolution(Res); });
    // The reference: a cold solve of the same edited program.
    InterprocAnalysis Cold(*F.P, F.Cfgs, AnalysisOptions{});
    AnalysisSnapshot ColdCapture;
    AnalysisResult ColdRes = Cold.run(SolverChoice::Warrow, &ColdCapture);
    if (canonicalSigma(Res.Solution, *F.P, Capture.Contexts) !=
        canonicalSigma(ColdRes.Solution, *F.P, ColdCapture.Contexts))
      R.Failures.push_back("warm sigma differs from cold sigma");
    std::string ColdAlarms = renderAlarms(checkAlarms(F, ColdRes, nullptr));
    if (ColdAlarms != R.Verdict)
      R.Failures.push_back("warm alarms " + R.Verdict + " differ from cold " +
                           ColdAlarms);
    return R;
  }

private:
  static constexpr unsigned HelpersPerBase = 4;

  struct Base {
    SpecProfile Profile;
    unsigned HelperJobs = 0, FanOutJobs = 0;
    std::string Source;
    std::string SnapshotText;
  };
  struct Edit {
    size_t Base = 0;
    bool Helper = false;
    std::string Source;
  };

  void addEdit(SpecProfile Profile, size_t BaseIdx, bool Helper,
               unsigned Function, std::string Name) {
    Profile.EditFunction = static_cast<int>(Function);
    Profile.EditDelta = 5;
    Edits.push_back({BaseIdx, Helper, generateSpecProgram(Profile)});
    Inputs.push_back(std::move(Name));
  }

  std::vector<Base> Bases;
  std::vector<Edit> Edits;
};

//===-- stress-rings ------------------------------------------------------===//

/// The storage-free stress system, solved by sequential SLR+ with ⊟: no
/// frontend, no environment pool, no transfer functions.
class StressRings : public Workload {
public:
  static constexpr uint64_t NumRings = 2048;
  static constexpr unsigned RingSize = 64;

  StressRings() {
    for (uint64_t Seed : {1234, 1235, 1236, 1237}) {
      Systems.push_back(stressSideSystem(NumRings, RingSize, /*Bound=*/32,
                                         /*CrossLinks=*/2, Seed));
      Inputs.push_back("rings-" + std::to_string(NumRings) + "x" +
                       std::to_string(RingSize) + "/s" + std::to_string(Seed));
    }
  }

  JobResult run(size_t Input, SpanRecorder *Rec, bool Check,
                TraceSink *Lattice) override {
    auto Start = Clock::now();
    const StressSystem &S = Systems[Input];
    SolverOptions Options;
    Options.MaxRhsEvals = 2'000'000'000ull;
    Options.Trace = Lattice;
    JobResult R;
    PartialSolution<uint64_t, Interval> Sol;
    {
      ScopedSpan Span(Rec, "engine.solve");
      Sol = solveSLRPlus(S.System, S.Root, WarrowCombine{}, Options);
    }
    R.Verdict = "unknowns=" + std::to_string(Sol.Sigma.size());
    R.Converged = Sol.Stats.Converged;
    R.Ms = msSince(Start);
    addSolve(R.C, Sol.Stats, Sol.Sigma.size());
    addPools(R.C);
    if (!Check)
      return R;
    if (Sol.Sigma.size() != S.NumUnknowns)
      R.Failures.push_back("explored " + std::to_string(Sol.Sigma.size()) +
                           " unknowns, the generator predicts " +
                           std::to_string(S.NumUnknowns));
    verify(R, "verifySideEffectingSolution",
           [&] { return verifySideEffectingSolution(S.System, Sol); });
    return R;
  }

private:
  std::vector<StressSystem> Systems;
};

} // namespace

std::vector<size_t> Workload::schedule(uint64_t Seed) const {
  std::vector<size_t> Order(Inputs.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  Rng R(Seed);
  shuffle(Order, R);
  return Order;
}

double Workload::setUp() {
  JobResult R = run(0, nullptr, false, nullptr);
  if (!R.Converged)
    throw std::runtime_error("warm-up job on " + Inputs[0] + " failed");
  return R.Ms;
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       const std::string &RepoRoot,
                                       std::string &Err) {
  if (Name == "spec-cold")
    return std::make_unique<SpecCold>();
  if (Name == "fig7-cells") {
    std::vector<corpus::CorpusFile> Files =
        corpus::loadCorpus(RepoRoot + "/tests/corpus", Err);
    if (!Err.empty())
      return nullptr;
    if (Files.empty()) {
      Err = RepoRoot + "/tests/corpus: no corpus programs";
      return nullptr;
    }
    return std::make_unique<Fig7Cells>(std::move(Files));
  }
  if (Name == "edit-resolve")
    return std::make_unique<EditResolve>();
  if (Name == "stress-rings")
    return std::make_unique<StressRings>();
  Err = "unknown workload '" + Name + "'";
  return nullptr;
}

} // namespace perfbench
