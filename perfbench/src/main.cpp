//===- perfbench/src/main.cpp - End-to-end benchmark harness --------------===//
//
// Part of the warrow project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A single-process, closed-loop harness with one client: it sets the
/// workload up (timed as `setup_s`), runs an untimed check pass over every
/// distinct input with its correctness checks, then runs jobs back to
/// back — each on a fresh thread so the thread-local hash-consing pools
/// start empty — with the fixed reference loop between consecutive jobs,
/// for at least `--seconds` and at least as many jobs as the reported
/// percentiles need. A job counts as ok only if it converged, its verdict
/// equals the pinned one and the check pass's, and its work counters
/// repeat the check pass's exactly.
///
///   perfbench_harness --workload W --seed N --seconds S --trace 0|1
///                     [--time-limit S] [--root DIR] [--verdicts FILE]
///                     [--out-dir DIR] [--print-verdicts]
///
/// With `--time-limit`, a run that cannot collect the jobs its
/// percentiles need early enough to print its result within that many
/// seconds of starting fails instead.
///
/// `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
/// untraced and traced jobs (the difference is the tracing overhead),
/// records spans around every call into warrow, and prints the per-layer
/// metrics. The last line of stdout is the result object.
///
//===----------------------------------------------------------------------===//

#include "measure.h"
#include "spans.h"
#include "workloads.h"

#include "trace/trace.h"

#include <chrono>
#include <malloc.h>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;
using Clock = std::chrono::steady_clock;

namespace {

/// Capacity of the job log, allocated and touched before peak RSS is
/// reset; the loop stops when it is full (fig7-cells runs about 600 jobs
/// a second).
constexpr size_t MaxJobs = size_t(1) << 16;
/// Time kept free under `--time-limit` after the timed loop, for the
/// traced run's lattice pass and the result.
constexpr double TailReserveSeconds = 30;
/// The reference loop runs after a job once this much job time has passed
/// since its last run: after nearly every job on the slow workloads, every
/// few dozen jobs on fig7-cells, whose jobs are shorter than the loop.
constexpr double RefEveryMs = 50;

/// The reference loop's time on a nominal host, about its median on the
/// 4-vCPU Xeon VM the benchmark was tuned on. `setup_s` is set-up time in
/// seconds of that host: raw set-up seconds times NominalRefMs over this
/// run's `host.ref_ms`.
constexpr double NominalRefMs = 4.5;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  double TimeLimit = 0; ///< Seconds from start to the result; 0: none.
  std::string Root = ".";
  std::string Verdicts; ///< Default: <root>/perfbench/verdicts.txt.
  std::string OutDir;   ///< Default: <root>/.bench_build/perfbench/out.
  bool PrintVerdicts = false;
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_harness --workload W --seed N "
               "--seconds S --trace 0|1 [--time-limit S] [--root DIR] "
               "[--verdicts FILE] [--out-dir DIR] [--print-verdicts]\n",
               Why);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--print-verdicts") {
      A.PrintVerdicts = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = Value;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
      if (Value.empty() || *End)
        usage("--seed takes a non-negative integer");
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), &End);
      if (Value.empty() || *End || !(A.Seconds > 0))
        usage("--seconds takes a positive number");
    } else if (Flag == "--time-limit") {
      A.TimeLimit = std::strtod(Value.c_str(), &End);
      if (Value.empty() || *End || !(A.TimeLimit >= 0))
        usage("--time-limit takes a non-negative number");
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        usage("--trace takes 0 or 1");
      A.Trace = Value == "1";
    } else if (Flag == "--root") {
      A.Root = Value;
    } else if (Flag == "--verdicts") {
      A.Verdicts = Value;
    } else if (Flag == "--out-dir") {
      A.OutDir = Value;
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!HaveWorkload)
    usage("--workload is required");
  if (A.TimeLimit > 0 && A.Seconds + TailReserveSeconds > A.TimeLimit)
    usage("--seconds leaves no room for the rest of the run within "
          "--time-limit");
  if (A.Verdicts.empty())
    A.Verdicts = A.Root + "/perfbench/verdicts.txt";
  if (A.OutDir.empty())
    A.OutDir = A.Root + "/.bench_build/perfbench/out";
  return A;
}

/// Runs \p Fn on a fresh thread (fresh thread-local pools) and joins it.
/// An exception becomes a failed job instead of ending the run.
JobResult onFreshThread(const std::function<JobResult()> &Fn) {
  JobResult Out;
  std::thread T([&] {
    try {
      Out = Fn();
    } catch (const std::exception &E) {
      Out = JobResult{};
      Out.Converged = false;
      Out.Failures.push_back(std::string("exception: ") + E.what());
    }
  });
  T.join();
  return Out;
}

/// Counts ⊟ regimes and destabilizations from the solvers' trace hook.
/// Solves are sequential, so plain counters suffice.
class LatticeCounter : public warrow::TraceSink {
public:
  uint64_t Widen = 0, Narrow = 0, Join = 0, Destabilizations = 0;

  void event(warrow::TraceEvent E) override {
    if (E.Kind == warrow::TraceEventKind::Destabilize)
      ++Destabilizations;
    if (E.Kind != warrow::TraceEventKind::Update)
      return;
    if (E.UKind == warrow::UpdateKind::Widen)
      ++Widen;
    else if (E.UKind == warrow::UpdateKind::Narrow)
      ++Narrow;
    else if (E.UKind == warrow::UpdateKind::Join)
      ++Join;
  }
};

/// Pinned verdicts of \p Workload: input name -> verdict. Lines are
/// "<workload> <input> <verdict...>"; '#' starts a comment line.
std::map<std::string, std::string> loadVerdicts(const std::string &Path,
                                                const std::string &Workload) {
  std::map<std::string, std::string> Pinned;
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    std::string W, Input, Verdict;
    Fields >> W >> Input;
    std::getline(Fields >> std::ws, Verdict);
    if (W == Workload)
      Pinned[Input] = Verdict;
  }
  return Pinned;
}

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
};

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// What the timed loop keeps of a job: fixed-size, so the loop's own
/// bookkeeping allocates nothing while peak RSS is measured.
struct Job {
  size_t Input = 0;
  bool Traced = false;
  double Ms = 0;
  uint64_t Unknowns = 0;
};

double ratio(uint64_t Num, uint64_t Den) {
  return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0.0;
}

} // namespace

int main(int Argc, char **Argv) {
  auto ProgramStart = Clock::now();
  Args A = parseArgs(Argc, Argv);
  double LoadStart = loadAverage();

  std::string Err;
  std::unique_ptr<Workload> W = makeWorkload(A.Workload, A.Root, Err);
  if (!W) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  std::map<std::string, std::string> Pinned =
      loadVerdicts(A.Verdicts, A.Workload);
  RefLoop Ref;
  Ref.runMs(); // Pages the chase buffer in before anything is timed.

  // Set-up: what the program costs before the first timed job. The
  // reference loop runs between repetitions by the same rule as between
  // jobs, so `host.ref_ms` covers the set-up phase too.
  std::vector<double> SetupSeconds, RefMs;
  double SinceRefMs = 0;
  for (unsigned I = 0; I < W->setupReps(); ++I) {
    JobResult S = onFreshThread([&] {
      JobResult Out;
      Out.Ms = W->setUp();
      return Out;
    });
    if (!S.Failures.empty()) {
      std::fprintf(stderr, "error: set-up failed: %s\n",
                   S.Failures.front().c_str());
      return 1;
    }
    SetupSeconds.push_back(S.Ms / 1e3);
    SinceRefMs += S.Ms;
    if (SinceRefMs >= RefEveryMs) {
      RefMs.push_back(Ref.runMs());
      SinceRefMs = 0;
    }
  }

  // The untimed check pass: every distinct input once, with its checks.
  std::vector<JobResult> Checked;
  for (size_t I = 0; I < W->numInputs(); ++I)
    Checked.push_back(
        onFreshThread([&] { return W->run(I, nullptr, true, nullptr); }));

  // Per-input problems: every job on such an input fails.
  std::vector<std::string> Problems(W->numInputs());
  for (size_t I = 0; I < W->numInputs(); ++I) {
    const JobResult &C = Checked[I];
    auto Pin = Pinned.find(W->inputName(I));
    if (!C.Converged)
      Problems[I] = "did not converge in the check pass";
    else if (!C.Failures.empty())
      Problems[I] = C.Failures.front();
    else if (Pin == Pinned.end())
      Problems[I] = "no pinned verdict in " + A.Verdicts;
    else if (Pin->second != C.Verdict)
      Problems[I] = "verdict '" + C.Verdict + "' differs from pinned '" +
                    Pin->second + "'";
  }
  uint64_t Failed = 0;
  std::set<std::string> Reported;
  // A job is ok when it converged and its verdict and work counters equal
  // the check pass's on the same input; each reason is reported once.
  auto checkJob = [&](size_t Input, const JobResult &R) {
    const JobResult &C = Checked[Input];
    std::string Why = Problems[Input];
    if (Why.empty() && !R.Converged)
      Why = "did not converge";
    else if (Why.empty() && R.Verdict != C.Verdict)
      Why = "verdict '" + R.Verdict + "' differs from the check pass";
    else if (Why.empty() && !(R.C == C.C))
      Why = "work counters differ from the check pass";
    if (Why.empty())
      return;
    ++Failed;
    std::string Line = W->inputName(Input) + ": " + Why;
    if (Reported.insert(Line).second)
      std::fprintf(stderr, "check failed: %s\n", Line.c_str());
  };

  // The timed closed loop.
  std::vector<Job> Jobs(MaxJobs);
  Jobs.clear(); // Keeps the touched capacity: no growth while measured.
  // Returns the heap that set-up and the check pass freed, so the peak
  // below starts from live memory, not from whatever they left behind.
  malloc_trim(0);
  bool PeakReset = resetPeakRss();
  std::vector<size_t> Schedule = W->schedule(A.Seed);
  SpanRecorder Rec;
  size_t MinRounds = minSamplesFor(A.Trace ? 0.5 : 0.9);
  auto LoopStart = Clock::now();
  for (size_t Round = 0;; ++Round) {
    double Elapsed =
        std::chrono::duration<double>(Clock::now() - LoopStart).count();
    if ((Elapsed >= A.Seconds && Round >= MinRounds) ||
        Jobs.size() + 2 > MaxJobs)
      break;
    double SinceStart =
        std::chrono::duration<double>(Clock::now() - ProgramStart).count();
    if (A.TimeLimit > 0 && SinceStart >= A.TimeLimit - TailReserveSeconds) {
      std::fprintf(stderr,
                   "error: only %zu jobs in %.0f s; percentiles need %zu\n",
                   Round, Elapsed, MinRounds);
      return 1;
    }
    size_t Input = Schedule[Round % Schedule.size()];
    // Traced runs pair every untraced job with a traced one on the same
    // input, alternating which goes first.
    unsigned Variants = A.Trace ? 2 : 1;
    for (unsigned V = 0; V < Variants; ++V) {
      bool Traced = A.Trace && (V + Round) % 2 == 1;
      JobResult R;
      if (Traced) {
        Rec.setJob(Jobs.size());
        size_t JobSpan = Rec.open("job");
        R = onFreshThread([&] { return W->run(Input, &Rec, false, nullptr); });
        Rec.close(JobSpan);
      } else {
        R = onFreshThread(
            [&] { return W->run(Input, nullptr, false, nullptr); });
      }
      checkJob(Input, R);
      SinceRefMs += R.Ms;
      Jobs.push_back({Input, Traced, R.Ms, R.C.Unknowns});
      if (SinceRefMs >= RefEveryMs) {
        RefMs.push_back(Ref.runMs());
        SinceRefMs = 0;
      }
    }
  }
  // The reference buffer and the job log are the benchmark's instruments,
  // not the program's.
  uint64_t PeakKb = peakRssKb();
  uint64_t InstrumentKb = Ref.bufferKb() + MaxJobs * sizeof(Job) / 1024;
  PeakKb = PeakKb > InstrumentKb ? PeakKb - InstrumentKb : 0;

  LatticeCounter Lattice;
  if (A.Trace)
    for (size_t I = 0; I < W->numInputs(); ++I)
      onFreshThread([&] { return W->run(I, nullptr, false, &Lattice); });
  if (A.PrintVerdicts)
    for (size_t I = 0; I < W->numInputs(); ++I)
      std::printf("%s %s %s\n", A.Workload.c_str(), W->inputName(I).c_str(),
                  Checked[I].Verdict.c_str());


  std::vector<double> JobMs, TracedMs;
  double JobSeconds = 0;
  uint64_t JobUnknowns = 0, MaxUnknowns = 0;
  std::map<std::string, uint64_t> KindJobs;
  std::vector<std::vector<double>> InputMs(W->numInputs());
  for (const Job &J : Jobs) {
    if (!J.Traced)
      InputMs[J.Input].push_back(J.Ms);
    (J.Traced ? TracedMs : JobMs).push_back(J.Ms);
    JobSeconds += J.Ms / 1e3;
    JobUnknowns += J.Unknowns;
    MaxUnknowns = std::max(MaxUnknowns, J.Unknowns);
    ++KindJobs[W->inputKind(J.Input)];
  }
  double HostRefMs = median(RefMs);

  // Raw wall-clock figures: recorded with the run metadata. The host's
  // speed drifts by up to a third between runs, more than any bound
  // allows, so the bounded metrics divide by the reference loop instead.
  std::string RawMeta;
  std::vector<Metric> Metrics;
  if (!A.Trace) {
    std::optional<double> P50 = percentile(JobMs, 0.5);
    std::optional<double> P90 = percentile(JobMs, 0.9);
    if (!P50 || !P90) {
      std::fprintf(stderr, "error: %zu jobs are too few for p90\n",
                   JobMs.size());
      return 1;
    }
    double UnknownsPerS = JobUnknowns / JobSeconds;
    RawMeta = ",\"setup_s_raw\":" + jsonNumber(median(SetupSeconds)) +
              ",\"job_ms_p50\":" + jsonNumber(*P50) +
              ",\"job_ms_p90\":" + jsonNumber(*P90) +
              ",\"unknowns_per_s\":" + jsonNumber(UnknownsPerS);
    Metrics = {
        {"job_ref_p50", "ratio", *P50 / HostRefMs},
        {"job_ref_p90", "ratio", *P90 / HostRefMs},
        {"unknowns_per_ref", "1/ref", UnknownsPerS * HostRefMs / 1e3},
        {"peak_rss_mb", "MiB", static_cast<double>(PeakKb) / 1024},
        {"bytes_per_unknown", "B",
         static_cast<double>(PeakKb) * 1024 / static_cast<double>(MaxUnknowns)},
        {"ok_rate", "ratio",
         static_cast<double>(Jobs.size() - Failed) /
             static_cast<double>(Jobs.size())},
        {"setup_s", "s", median(SetupSeconds) * NominalRefMs / HostRefMs},
    };
  } else {
    Counters Pass;
    double VerifyMs = 0;
    for (const JobResult &C : Checked) {
      Pass += C.C;
      VerifyMs += C.VerifyMs;
    }
    double Inputs = static_cast<double>(W->numInputs());
    double TracedJobs = static_cast<double>(TracedMs.size());
    std::map<std::string, double> Self = Rec.selfMs();
    auto StageMs = [&](const char *Stage) { return Self[Stage] / TracedJobs; };
    Metrics = {
        {"lang.parse_ms", "ms", StageMs("lang.parse")},
        {"lang.cfg_ms", "ms", StageMs("lang.cfg")},
        {"lang.cfg_nodes", "count", double(Pass.CfgNodes)},
        {"analysis.solve_ms", "ms", StageMs("analysis.solve")},
        {"analysis.checks_ms", "ms", StageMs("analysis.checks")},
        {"analysis.envpool_lookups", "count", double(Pass.EnvLookups)},
        {"analysis.envpool_hit_rate", "ratio",
         ratio(Pass.EnvHits, Pass.EnvLookups)},
        {"analysis.envpool_distinct", "count", double(Pass.EnvDistinct)},
        {"analysis.relpool_lookups", "count", double(Pass.RelLookups)},
        {"analysis.relpool_hit_rate", "ratio",
         ratio(Pass.RelHits, Pass.RelLookups)},
        {"engine.rhs_evals", "count", double(Pass.RhsEvals)},
        {"engine.updates", "count", double(Pass.Updates)},
        {"engine.unknowns", "count", double(Pass.Unknowns)},
        {"engine.queue_max", "count", double(Pass.QueueMax)},
        {"engine.rhs_cache_hit_rate", "ratio",
         ratio(Pass.CacheHits, Pass.CacheHits + Pass.CacheMisses)},
        {"engine.solve_ms", "ms", StageMs("engine.solve")},
        {"engine.destabilizations", "count", double(Lattice.Destabilizations)},
        {"lattice.widen_updates", "count", double(Lattice.Widen)},
        {"lattice.narrow_updates", "count", double(Lattice.Narrow)},
        {"lattice.join_updates", "count", double(Lattice.Join)},
        {"snapshot.load_ms", "ms", StageMs("snapshot.load")},
        {"snapshot.save_ms", "ms", StageMs("snapshot.save")},
        {"snapshot.kb", "KiB", double(Pass.SnapshotBytes) / 1024 / Inputs},
        {"incremental.resolve_ms", "ms", StageMs("incremental.resolve")},
        {"incremental.restarted_share", "ratio",
         ratio(Pass.Restarted, Pass.SnapshotUnknowns)},
        {"incremental.retracted_cells", "count", double(Pass.Retracted)},
        {"eqsys.verify_ms", "ms", VerifyMs / Inputs},
        {"host.ref_ms", "ms", HostRefMs},
        {"trace.overhead_pct", "%",
         (median(TracedMs) / median(JobMs) - 1) * 100},
    };
    // The per-layer ledger: self time per span name, per traced job.
    std::printf("ledger (ms of self time per traced job, %zu traced jobs):\n",
                TracedMs.size());
    for (const auto &[Name, Ms] : Self)
      std::printf("  %-22s %12.6f\n", Name.c_str(), Ms / TracedJobs);
    std::error_code Ec;
    std::filesystem::create_directories(A.OutDir, Ec);
    std::string SpanPath = A.OutDir + "/spans-" + A.Workload + "-seed" +
                           std::to_string(A.Seed) + ".json";
    if (!Rec.writeJson(SpanPath))
      std::fprintf(stderr, "warning: cannot write %s\n", SpanPath.c_str());
  }

  // Run metadata, one JSON line before the result.
  std::string Meta = "meta {\"workload\":" + jsonString(A.Workload) +
                     ",\"seed\":" + std::to_string(A.Seed) +
                     ",\"seconds\":" + jsonNumber(A.Seconds) +
                     ",\"nproc\":" +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ",\"compiler\":" + jsonString(__VERSION__) +
                     ",\"flags\":" + jsonString(PERFBENCH_CXX_FLAGS) +
                     ",\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE) +
                     ",\"load_start\":" + jsonNumber(LoadStart) +
                     ",\"load_end\":" + jsonNumber(loadAverage()) +
                     ",\"host.ref_ms\":" + jsonNumber(HostRefMs) + RawMeta +
                     ",\"jobs\":" + std::to_string(Jobs.size()) +
                     ",\"traced_jobs\":" + std::to_string(TracedMs.size()) +
                     ",\"inputs\":" + std::to_string(W->numInputs()) +
                     ",\"setup_reps\":" + std::to_string(W->setupReps()) +
                     ",\"peak_rss_reset\":" + (PeakReset ? "true" : "false") +
                     ",\"max_job_unknowns\":" + std::to_string(MaxUnknowns);
  Meta += ",\"input_ms\":{";
  for (size_t I = 0; I < W->numInputs(); ++I)
    Meta += std::string(I ? "," : "") + jsonString(W->inputName(I)) + ":" +
            jsonNumber(median(InputMs[I]));
  Meta += "}";
  if (KindJobs.size() > 1) {
    Meta += ",\"kind_share\":{";
    bool First = true;
    for (const auto &[Kind, N] : KindJobs) {
      Meta += std::string(First ? "" : ",") + jsonString(Kind) + ":" +
              jsonNumber(ratio(N, Jobs.size()));
      First = false;
    }
    Meta += "}";
  }
  std::printf("%s}\n", Meta.c_str());

  std::string Result = "{\"correct\": " +
                       std::string(Failed == 0 ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(Jobs.size()) +
                       ", \"failed\": " + std::to_string(Failed) +
                       ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    if (!validMetricName(M.Name)) {
      std::fprintf(stderr, "error: invalid metric name '%s'\n",
                   M.Name.c_str());
      return 1;
    }
    Result += (I ? ", " : "") + jsonString(M.Name) + ": {\"value\": " +
              jsonNumber(M.Value) + ", \"unit\": " + jsonString(M.Unit) + "}";
  }
  std::printf("%s}}\n", Result.c_str());
  return 0;
}
