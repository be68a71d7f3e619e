//===- perfbench/src/workloads.h - The benchmark's workloads ----*- C++ -*-==//
//
// Part of the warrow project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four workloads of the end-to-end benchmark (README.md explains why
/// each was chosen). A workload owns a fixed set of distinct inputs —
/// generated programs, corpus files, edits or equation systems — and runs
/// one *job* on one of them: from the input in memory to a verdict
/// (alarm counts), through warrow's public API only. The seed picks the
/// order in which jobs visit the inputs, never the inputs themselves, so
/// every per-layer count repeats exactly across seeds.
///
//===----------------------------------------------------------------------===//

#ifndef WARROW_PERFBENCH_WORKLOADS_H
#define WARROW_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace warrow {
class TraceSink;
} // namespace warrow

namespace perfbench {

class SpanRecorder;

/// Deterministic work counters of one job. Every field repeats exactly
/// when the same input runs again on a fresh thread.
struct Counters {
  uint64_t CfgNodes = 0;
  uint64_t EnvLookups = 0, EnvHits = 0, EnvDistinct = 0;
  uint64_t RelLookups = 0, RelHits = 0;
  uint64_t RhsEvals = 0, Updates = 0, Unknowns = 0, QueueMax = 0;
  uint64_t CacheHits = 0, CacheMisses = 0;
  uint64_t SnapshotBytes = 0, SnapshotUnknowns = 0;
  uint64_t Restarted = 0, Retracted = 0;

  /// Sums every field except QueueMax, which takes the maximum.
  Counters &operator+=(const Counters &O);
  bool operator==(const Counters &O) const = default;
};

/// Outcome of one job.
struct JobResult {
  /// Every solve converged (and, on edit-resolve, resumed warm).
  bool Converged = true;
  /// Alarm counts (σ size on stress-rings) in a canonical rendering;
  /// compared against the pinned verdicts.
  std::string Verdict;
  /// Job time: from entry to the verdict, excluding the check mode's
  /// extra work and the teardown of the job's objects.
  double Ms = 0;
  Counters C;
  /// Correctness-check failures (check mode only); empty when all passed.
  std::vector<std::string> Failures;
  /// Milliseconds spent in eqsys verification (check mode only).
  double VerifyMs = 0;
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Distinct inputs, in a fixed canonical order.
  size_t numInputs() const { return Inputs.size(); }
  const std::string &inputName(size_t I) const { return Inputs[I]; }
  /// Class of an input where a workload mixes several (edit-resolve:
  /// "helper" / "fan-out"); empty otherwise.
  virtual const char *inputKind(size_t) const { return ""; }

  /// The seeded job sequence over input indices; the timed loop cycles
  /// through it. Default: one seeded permutation of all inputs.
  virtual std::vector<size_t> schedule(uint64_t Seed) const;

  /// What a user pays before the first verdict; returns its time in
  /// milliseconds, measured like a job's (`JobResult::Ms`: without the
  /// teardown of its objects), for `setup_s`. Default: one job on the
  /// first input. Must be called at least once before `run`.
  virtual double setUp();
  /// How often the harness repeats `setUp` for the median `setup_s`: a
  /// fixed count, not a time budget, because the heap the set-ups leave
  /// behind is where the timed loop starts.
  virtual unsigned setupReps() const { return 25; }

  /// Runs one job on \p Input. \p Rec (nullable) receives spans around
  /// every call into warrow. With \p Check, the job additionally runs its
  /// untimed correctness checks after taking its counters. \p Lattice
  /// (nullable) is attached to every solve as the trace hook.
  virtual JobResult run(size_t Input, SpanRecorder *Rec, bool Check,
                        warrow::TraceSink *Lattice) = 0;

protected:
  std::vector<std::string> Inputs;
};

/// Builds the named workload's inputs. \p RepoRoot locates the on-disk
/// corpus (tests/corpus). Null with \p Err set on failure.
std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       const std::string &RepoRoot,
                                       std::string &Err);

} // namespace perfbench

#endif // WARROW_PERFBENCH_WORKLOADS_H
