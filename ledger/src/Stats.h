//===- ledger/src/Stats.h - The benchmark's own arithmetic -------*- C++ -*-===//
//
// Part of the ca2a project: reproduction of Hoffmann & Désérable,
// "CA Agents for All-to-All Communication Are Faster in the Triangulate
// Grid" (PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Order statistics, interval arithmetic for span self time, the
/// reconciliation row and the error-rate base. Header-only and free of
/// any ca2a dependency so tests/selftest.cpp can pin every rule.
///
//===----------------------------------------------------------------------===//

#ifndef CA2A_LEDGER_STATS_H
#define CA2A_LEDGER_STATS_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

namespace ledger {

/// Median (mean of the two middle values for an even count); 0 when empty.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

/// The three quartile cut points exactly as Python's
/// statistics.quantiles(data, n=4) (method 'exclusive') computes them, so
/// the benchmark's spread agrees with the one its users compute.
inline std::array<double, 3> quartiles(std::vector<double> V) {
  if (V.empty())
    return {0.0, 0.0, 0.0};
  std::sort(V.begin(), V.end());
  long Ld = static_cast<long>(V.size());
  if (Ld == 1)
    return {V[0], V[0], V[0]};
  std::array<double, 3> Out{};
  const long N = 4, M = Ld + 1;
  for (long I = 1; I < N; ++I) {
    long J = I * M / N;
    J = J < 1 ? 1 : (J > Ld - 1 ? Ld - 1 : J);
    long Delta = I * M - J * N;
    Out[static_cast<size_t>(I - 1)] =
        (V[static_cast<size_t>(J - 1)] * static_cast<double>(N - Delta) +
         V[static_cast<size_t>(J)] * static_cast<double>(Delta)) /
        static_cast<double>(N);
  }
  return Out;
}

/// The tail point of a sample: the highest percentile that still has at
/// least \p Beyond samples strictly above it in rank. With n sorted
/// samples that is the value at 0-based rank n - Beyond - 1, and the
/// percentile is the share of samples at or below it, 100 (n - Beyond) / n.
struct TailPoint {
  double Value = 0.0;
  double Percentile = 0.0;
  size_t Samples = 0;
  bool Valid = false; ///< False when the sample has no more than Beyond.
};

inline TailPoint tailPoint(std::vector<double> V, size_t Beyond = 10) {
  TailPoint T;
  T.Samples = V.size();
  if (V.size() <= Beyond)
    return T;
  std::sort(V.begin(), V.end());
  size_t Rank = V.size() - Beyond - 1;
  T.Value = V[Rank];
  T.Percentile = 100.0 * static_cast<double>(V.size() - Beyond) /
                 static_cast<double>(V.size());
  T.Valid = true;
  return T;
}

/// A closed time interval [Lo, Hi] in seconds.
using Interval = std::pair<double, double>;

/// Total length of the union of \p Parts after clipping each to
/// [\p Lo, \p Hi]. Overlapping parts (concurrent children, e.g. islands
/// on their own threads) count once.
inline double coveredLength(std::vector<Interval> Parts, double Lo,
                            double Hi) {
  for (Interval &P : Parts) {
    P.first = std::max(P.first, Lo);
    P.second = std::min(P.second, Hi);
  }
  std::sort(Parts.begin(), Parts.end());
  double Total = 0.0, CurLo = 0.0, CurHi = 0.0;
  bool Open = false;
  for (const Interval &P : Parts) {
    if (P.second <= P.first)
      continue;
    if (Open && P.first <= CurHi) {
      CurHi = std::max(CurHi, P.second);
      continue;
    }
    if (Open)
      Total += CurHi - CurLo;
    CurLo = P.first;
    CurHi = P.second;
    Open = true;
  }
  if (Open)
    Total += CurHi - CurLo;
  return Total;
}

/// A span's self time: its duration minus the part of it its children
/// cover.
inline double selfTime(const Interval &Span,
                       const std::vector<Interval> &Children) {
  return (Span.second - Span.first) -
         coveredLength(Children, Span.first, Span.second);
}

/// One workload's reconciliation row: the end-to-end wall time against
/// the time some layer call was in flight. The remainder is the time
/// spent in the benchmark between calls; it is shown, never folded in.
struct Reconciliation {
  double WallS = 0.0;
  double AttributedS = 0.0;
  double UnattributedS = 0.0;
};

inline Reconciliation reconcile(const Interval &Root,
                                const std::vector<Interval> &LayerCalls) {
  Reconciliation R;
  R.WallS = Root.second - Root.first;
  R.AttributedS = coveredLength(LayerCalls, Root.first, Root.second);
  R.UnattributedS = R.WallS - R.AttributedS;
  return R;
}

/// The error-rate base: every operation the workload attempted, whatever
/// its kind (replicas, checkpoint writes and reloads, mailbox posts and
/// collects, oracle comparisons, determinism checks), against those that
/// failed.
struct ErrorLedger {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  void add(uint64_t NumAttempted, uint64_t NumFailed) {
    Attempted += NumAttempted;
    Failed += NumFailed;
  }
  void check(bool Ok) { add(1, Ok ? 0 : 1); }
  double rate() const {
    return Attempted ? static_cast<double>(Failed) /
                           static_cast<double>(Attempted)
                     : 0.0;
  }
};

} // namespace ledger

#endif // CA2A_LEDGER_STATS_H
