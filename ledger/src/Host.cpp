//===- ledger/src/Host.cpp - Host fingerprint -----------------------------===//

#include "Host.h"
#include "Trace.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <sched.h>
#include <thread>

using namespace ledger;

std::string ledger::cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind("model name", 0) != 0)
      continue;
    size_t Colon = Line.find(':');
    if (Colon != std::string::npos && Colon + 2 <= Line.size())
      return Line.substr(Colon + 2);
  }
  return "unknown";
}

size_t ledger::availableCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0 && CPU_COUNT(&Set) > 0)
    return static_cast<size_t>(CPU_COUNT(&Set));
  unsigned HW = std::thread::hardware_concurrency();
  return HW ? HW : 1;
}

double ledger::peakRssMb() {
  // VmHWM, not getrusage: ru_maxrss survives exec, so a benchmark started
  // from a larger parent (ledger/run.py) would report the parent's peak.
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB -> MiB.
  return 0.0;
}

// A dependent multiply-xorshift chain: pure ALU work, no memory traffic,
// so the ratio measures how many threads the host really runs at once.
static uint64_t spin(uint64_t Iterations, uint64_t Seed) {
  uint64_t X = Seed | 1;
  for (uint64_t I = 0; I != Iterations; ++I) {
    X ^= X >> 29;
    X *= 0xbf58476d1ce4e5b9ULL;
  }
  return X;
}

static std::atomic<uint64_t> SpinSink{0};

static double timeSpinners(size_t N, uint64_t Iterations) {
  std::vector<uint64_t> Sinks(N, 0);
  std::vector<std::thread> Threads;
  Threads.reserve(N);
  double Start = nowS();
  for (size_t I = 0; I != N; ++I)
    Threads.emplace_back(
        [&, I] { Sinks[I] = spin(Iterations, static_cast<uint64_t>(I)); });
  for (std::thread &T : Threads)
    T.join();
  double Elapsed = nowS() - Start;
  // Publishing the results keeps the spin loops from being optimised away.
  for (uint64_t S : Sinks)
    SpinSink.fetch_xor(S, std::memory_order_relaxed);
  return Elapsed;
}

double ledger::measureParallelism(size_t N) {
  if (N < 1)
    N = 1;
  // Calibrate to ~60 ms per spinner. Neighbours on a shared host only
  // ever slow a sample down (on virtual hosts whole vCPUs can stall for
  // hundreds of ms), so the fastest of five measures capacity.
  uint64_t Iterations = 1u << 20;
  while (timeSpinners(1, Iterations) < 0.06 && Iterations < (1ull << 34))
    Iterations *= 2;
  double One = 1e300, Many = 1e300;
  for (int Rep = 0; Rep != 5; ++Rep) {
    One = std::min(One, timeSpinners(1, Iterations));
    Many = std::min(Many, timeSpinners(N, Iterations));
  }
  return static_cast<double>(N) * One / Many;
}
