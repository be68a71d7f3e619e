//===- perfbench/tests/selftest.cpp - Harness unit self-tests -------------===//
//
// Part of the warrow project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit checks of the harness's measurement primitives: percentile
/// reporting under the ten-samples-beyond rule, metric-name validity and
/// span self time. Exits non-zero on the first failed expectation.
///
//===----------------------------------------------------------------------===//

#include "measure.h"
#include "spans.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

int Failures = 0;

void expect(bool Cond, const char *What) {
  if (!Cond) {
    std::fprintf(stderr, "FAILED: %s\n", What);
    ++Failures;
  }
}

/// 1..N in reverse order, so the percentile must sort.
std::vector<double> descending(size_t N) {
  std::vector<double> Samples;
  for (size_t I = N; I > 0; --I)
    Samples.push_back(static_cast<double>(I));
  return Samples;
}

void testPercentiles() {
  expect(minSamplesFor(0.5) == 20, "p50 needs 20 samples");
  expect(minSamplesFor(0.9) == 100, "p90 needs 100 samples");
  expect(minSamplesFor(0.99) == 1000, "p99 needs 1000 samples");

  expect(!percentile(descending(19), 0.5), "p50 of 19 samples is withheld");
  std::optional<double> P50 = percentile(descending(20), 0.5);
  expect(P50 && *P50 == 10, "p50 of 1..20 is the 10th sample");

  expect(!percentile(descending(99), 0.9), "p90 of 99 samples is withheld");
  std::optional<double> P90 = percentile(descending(100), 0.9);
  expect(P90 && *P90 == 90, "p90 of 1..100 leaves exactly 10 beyond");
  std::optional<double> P90Big = percentile(descending(1000), 0.9);
  expect(P90Big && *P90Big == 900, "p90 of 1..1000 is the 900th sample");

  expect(!percentile({}, 0.5), "no percentile of no samples");
  expect(!percentile(descending(100), 1.0), "q must lie inside (0, 1)");

  expect(median({3, 1, 2}) == 2, "odd median");
  expect(median({4, 1, 3, 2}) == 2.5, "even median averages the middle pair");
}

void testMetricNames() {
  for (const char *Good :
       {"job_ms_p50", "setup_s", "lang.parse_ms", "engine.rhs_evals",
        "trace.overhead_pct", "0x-ray", "a"})
    expect(validMetricName(Good), Good);
  for (const char *Bad : {"", ".leading_dot", "_leading", "has space",
                          "slash/name", "pct%", "ünicode"})
    expect(!validMetricName(Bad), Bad);
  expect(validMetricName(std::string(64, 'm')), "64 characters are allowed");
  expect(!validMetricName(std::string(65, 'm')), "65 characters are not");
}

void testSpanSelfTime() {
  SpanRecorder Rec;
  Rec.setJob(7);
  size_t Outer = Rec.open("outer");
  {
    ScopedSpan Inner(&Rec, "inner");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  Rec.close(Outer);
  const std::vector<Span> &Spans = Rec.spans();
  expect(Spans.size() == 2, "two spans recorded");
  expect(Spans[1].Parent == 0 && Spans[0].Parent == -1, "parent links");
  expect(Spans[0].Job == 7 && Spans[1].Job == 7, "job ids stamped");
  std::map<std::string, double> Self = Rec.selfMs();
  double OuterMs = (Spans[0].EndNs - Spans[0].StartNs) / 1e6;
  expect(Self["inner"] >= 20, "the child's self time is its duration");
  expect(Self["outer"] >= 0 && Self["outer"] < OuterMs - 19,
         "the parent's self time excludes its child");
  ScopedSpan Untraced(nullptr, "nothing"); // A null recorder is a no-op.
}

void testRefLoop() {
  RefLoop Ref;
  double Ms = Ref.runMs();
  expect(Ms > 0 && Ms < 10000, "the reference loop takes measurable time");
}

} // namespace

int main() {
  testPercentiles();
  testMetricNames();
  testSpanSelfTime();
  testRefLoop();
  if (Failures) {
    std::fprintf(stderr, "%d self-test expectation(s) failed\n", Failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
