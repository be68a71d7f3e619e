//===- perfbench/src/spans.cpp - In-memory span recorder ------------------===//
//
// Part of the warrow project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "spans.h"

#include <cstdio>

namespace perfbench {

uint64_t SpanRecorder::nowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Epoch)
          .count());
}

size_t SpanRecorder::open(const char *Name) {
  Span S;
  S.Name = Name;
  S.Parent = OpenStack.empty() ? -1 : static_cast<int64_t>(OpenStack.back());
  S.Job = CurrentJob;
  S.StartNs = nowNs();
  Spans.push_back(S);
  OpenStack.push_back(Spans.size() - 1);
  return Spans.size() - 1;
}

void SpanRecorder::close(size_t Index) {
  Spans[Index].EndNs = nowNs();
  if (!OpenStack.empty() && OpenStack.back() == Index)
    OpenStack.pop_back();
}

std::map<std::string, double> SpanRecorder::selfMs() const {
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[static_cast<size_t>(S.Parent)] += S.EndNs - S.StartNs;
  std::map<std::string, double> Self;
  for (size_t I = 0; I < Spans.size(); ++I) {
    uint64_t Dur = Spans[I].EndNs - Spans[I].StartNs;
    Self[Spans[I].Name] += static_cast<double>(Dur - ChildNs[I]) / 1e6;
  }
  return Self;
}

bool SpanRecorder::writeJson(const std::string &Path) const {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  std::fputs("[\n", Out);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(Out,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"parent\":%lld,\"job\":%llu}%s\n",
                 I, S.Name, static_cast<unsigned long long>(S.StartNs),
                 static_cast<unsigned long long>(S.EndNs),
                 static_cast<long long>(S.Parent),
                 static_cast<unsigned long long>(S.Job),
                 I + 1 < Spans.size() ? "," : "");
  }
  std::fputs("]\n", Out);
  return std::fclose(Out) == 0;
}

} // namespace perfbench
