//===- perfbench/src/measure.h - Statistics and host probes -----*- C++ -*-==//
//
// Part of the warrow project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement primitives of the end-to-end benchmark: percentile
/// reporting under the ten-samples-beyond rule, metric-name validation,
/// the fixed host reference loop, and the process probes (peak RSS,
/// load average). Nothing here uses warrow code, so the reference loop
/// and the probes measure the host, never the analyzer.
///
//===----------------------------------------------------------------------===//

#ifndef WARROW_PERFBENCH_MEASURE_H
#define WARROW_PERFBENCH_MEASURE_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported percentile.
constexpr size_t MinSamplesBeyond = 10;

/// Nearest-rank \p Q-quantile (0 < Q < 1) of \p Samples, or nullopt when
/// fewer than `MinSamplesBeyond` samples lie beyond it — such a
/// percentile is set by a handful of outliers and would not repeat.
std::optional<double> percentile(std::vector<double> Samples, double Q);

/// Smallest sample count for which `percentile(_, Q)` reports.
size_t minSamplesFor(double Q);

/// Plain median (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> Samples);

/// True when \p Name is a valid metric or workload name: 1 to 64
/// characters from [A-Za-z0-9_.-], starting with a letter or digit.
bool validMetricName(std::string_view Name);

/// A fixed, repo-independent memory-latency loop: a pointer chase over
/// one random cycle through 64 MiB of indices. Timed between jobs, it
/// tracks the host's speed so job times can be normalized against it.
/// The working set matters: like the analyzer's jobs (tens of MiB), it
/// does not fit the host's share of the last-level cache, so contention
/// there slows both alike; an 8 MiB chase barely moved while jobs slowed
/// by a third. Its code and sizes are part of the benchmark's definition:
/// changing them changes every normalized metric and `host.ref_ms`.
class RefLoop {
public:
  RefLoop();
  /// Runs the chase once and returns its wall time in milliseconds.
  double runMs();
  /// Resident size of the chase buffer, which peak-RSS figures exclude.
  uint64_t bufferKb() const { return Next.size() * sizeof(uint32_t) / 1024; }

private:
  std::vector<uint32_t> Next;
  uint32_t Cursor = 0;
};

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS. False
/// when the kernel refuses; peak readings then include set-up.
bool resetPeakRss();
/// Peak resident set size (VmHWM) in KiB; 0 when unreadable.
uint64_t peakRssKb();
/// The 1-minute load average; negative when unreadable.
double loadAverage();

} // namespace perfbench

#endif // WARROW_PERFBENCH_MEASURE_H
