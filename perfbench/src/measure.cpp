//===- perfbench/src/measure.cpp - Statistics and host probes -------------===//
//
// Part of the warrow project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "measure.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

/// 1-based nearest rank of the \p Q-quantile among \p N samples. The
/// epsilon keeps products like 0.9 * 100 from rounding up a rank.
size_t nearestRank(double Q, size_t N) {
  double Rank = std::ceil(Q * static_cast<double>(N) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(Rank), 1, N);
}

} // namespace

std::optional<double> percentile(std::vector<double> Samples, double Q) {
  if (Samples.empty() || !(Q > 0 && Q < 1))
    return std::nullopt;
  size_t Rank = nearestRank(Q, Samples.size());
  if (Samples.size() - Rank < MinSamplesBeyond)
    return std::nullopt;
  std::nth_element(Samples.begin(), Samples.begin() + (Rank - 1),
                   Samples.end());
  return Samples[Rank - 1];
}

size_t minSamplesFor(double Q) {
  size_t N = 1;
  while (N - nearestRank(Q, N) < MinSamplesBeyond)
    ++N;
  return N;
}

double median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  size_t Mid = Samples.size() / 2;
  return Samples.size() % 2 ? Samples[Mid]
                            : (Samples[Mid - 1] + Samples[Mid]) / 2;
}

bool validMetricName(std::string_view Name) {
  if (Name.empty() || Name.size() > 64 ||
      !std::isalnum(static_cast<unsigned char>(Name[0])))
    return false;
  return std::all_of(Name.begin(), Name.end(), [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
           C == '.' || C == '-';
  });
}

// Sattolo's algorithm over a fixed linear congruential stream: one cycle
// through all 2^24 slots, so every step of the chase is a dependent load
// to an unpredictable address. Writing every slot makes the whole buffer
// resident, so its size is exactly what peak-RSS figures subtract.
RefLoop::RefLoop() : Next(1u << 24) {
  for (uint32_t I = 0; I < Next.size(); ++I)
    Next[I] = I;
  uint64_t State = 0x9e3779b97f4a7c15ull;
  for (uint32_t I = static_cast<uint32_t>(Next.size()) - 1; I > 0; --I) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    uint32_t J = static_cast<uint32_t>((State >> 33) % I);
    std::swap(Next[I], Next[J]);
  }
}

double RefLoop::runMs() {
  constexpr uint32_t Steps = 1u << 14;
  auto Start = std::chrono::steady_clock::now();
  uint32_t At = Cursor;
  for (uint32_t I = 0; I < Steps; ++I)
    At = Next[At];
  auto End = std::chrono::steady_clock::now();
  Cursor = At; // Keeps the chase observable and varies its start.
  return std::chrono::duration<double, std::milli>(End - Start).count();
}

bool resetPeakRss() {
  std::ofstream Out("/proc/self/clear_refs");
  Out << "5";
  Out.flush();
  return static_cast<bool>(Out);
}

uint64_t peakRssKb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0) {
      std::istringstream Fields(Line.substr(6));
      uint64_t Kb = 0;
      Fields >> Kb;
      return Kb;
    }
  return 0;
}

double loadAverage() {
  std::ifstream In("/proc/loadavg");
  double Load = -1;
  if (!(In >> Load))
    return -1;
  return Load;
}

} // namespace perfbench
