//===- perfbench/src/spans.h - In-memory span recorder ----------*- C++ -*-==//
//
// Part of the warrow project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans around the benchmark's calls into each warrow layer: name,
/// start, end, parent span and job id, kept in memory and written out
/// once at exit. A layer's self time is its spans' duration minus the
/// part covered by their child spans. One recorder serves one run; jobs
/// run one at a time (each on its own thread, joined before the next
/// starts), so the recorder needs no locking.
///
//===----------------------------------------------------------------------===//

#ifndef WARROW_PERFBENCH_SPANS_H
#define WARROW_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char *Name = "";
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int64_t Parent = -1; ///< Index of the enclosing span; -1 at top level.
  uint64_t Job = 0;
};

class SpanRecorder {
public:
  SpanRecorder() : Epoch(std::chrono::steady_clock::now()) {}

  /// Job id stamped on spans opened from now on.
  void setJob(uint64_t Job) { CurrentJob = Job; }
  /// Opens a span nested in the innermost open one; returns its index.
  size_t open(const char *Name);
  void close(size_t Index);

  const std::vector<Span> &spans() const { return Spans; }
  /// Summed self time in milliseconds per span name.
  std::map<std::string, double> selfMs() const;
  /// Writes every span as one JSON array; false on I/O failure.
  bool writeJson(const std::string &Path) const;

private:
  uint64_t nowNs() const;

  std::chrono::steady_clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<size_t> OpenStack;
  uint64_t CurrentJob = 0;
};

/// Records one span for the enclosing scope; a null recorder records
/// nothing (the untraced jobs pay one branch).
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder *Rec, const char *Name)
      : Rec(Rec), Index(Rec ? Rec->open(Name) : 0) {}
  ~ScopedSpan() {
    if (Rec)
      Rec->close(Index);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanRecorder *Rec;
  size_t Index;
};

} // namespace perfbench

#endif // WARROW_PERFBENCH_SPANS_H
