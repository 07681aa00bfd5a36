//===- ledger/tests/selftest.cpp - The benchmark's arithmetic -------------===//
//
// Part of the ca2a project: reproduction of Hoffmann & Désérable,
// "CA Agents for All-to-All Communication Are Faster in the Triangulate
// Grid" (PaCT 2013).
//
// Pins the rules the benchmark reports by: median and quartiles (against
// values Python's statistics.quantiles(n=4) prints), the tail-percentile
// rule, self time under overlapping child spans, the reconciliation
// remainder and the error-rate base. Exits 1 on the first failed check.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Trace.h"

#include <cmath>
#include <cstdio>

using namespace ledger;

static int Failures = 0;

static void expectNear(double Got, double Want, const char *What) {
  if (std::fabs(Got - Want) > 1e-9) {
    std::fprintf(stderr, "FAIL %s: got %.12g, want %.12g\n", What, Got, Want);
    ++Failures;
  }
}

static void expectTrue(bool Ok, const char *What) {
  if (!Ok) {
    std::fprintf(stderr, "FAIL %s\n", What);
    ++Failures;
  }
}

static void testMedianAndQuartiles() {
  expectNear(median({}), 0.0, "median of nothing");
  expectNear(median({3.0, 1.0, 2.0}), 2.0, "odd median");
  expectNear(median({4.0, 1.0, 3.0, 2.0}), 2.5, "even median");
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  auto Q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  expectNear(Q[0], 2.75, "q1 of 1..10");
  expectNear(Q[1], 5.5, "q2 of 1..10");
  expectNear(Q[2], 8.25, "q3 of 1..10");
  // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
  Q = quartiles({16, 1, 8, 2, 4});
  expectNear(Q[0], 1.5, "q1 of powers");
  expectNear(Q[1], 4.0, "q2 of powers");
  expectNear(Q[2], 12.0, "q3 of powers");
  // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
  Q = quartiles({7, 5});
  expectNear(Q[0], 4.5, "q1 of two");
  expectNear(Q[2], 7.5, "q3 of two");
  Q = quartiles({3});
  expectNear(Q[0], 3.0, "q1 of one");
}

static void testTailRule() {
  // Ten or fewer samples have no percentile with ten beyond it.
  std::vector<double> Ten(10, 1.0);
  expectTrue(!tailPoint(Ten).Valid, "no tail point at n = 10");
  // n = 11: the minimum is the only point with ten samples above it.
  std::vector<double> V;
  for (int I = 1; I <= 11; ++I)
    V.push_back(I);
  TailPoint T = tailPoint(V);
  expectTrue(T.Valid, "tail point at n = 11");
  expectNear(T.Value, 1.0, "n = 11 tail value");
  expectNear(T.Percentile, 100.0 / 11.0, "n = 11 percentile");
  // n = 100 (shuffled 1..100): p90 = 90, with 91..100 beyond it.
  V.clear();
  for (int I = 0; I != 100; ++I)
    V.push_back((I * 37) % 100 + 1);
  T = tailPoint(V);
  expectNear(T.Value, 90.0, "n = 100 tail value");
  expectNear(T.Percentile, 90.0, "n = 100 percentile");
  expectTrue(T.Samples == 100, "tail sample count");
  // n = 1000: p99.
  V.clear();
  for (int I = 1; I <= 1000; ++I)
    V.push_back(I);
  T = tailPoint(V);
  expectNear(T.Value, 990.0, "n = 1000 tail value");
  expectNear(T.Percentile, 99.0, "n = 1000 percentile");
}

static void testSelfTime() {
  // Parent [0, 10]; children [1, 4] and [3, 6] overlap (concurrent
  // islands), [9, 12] sticks out of the parent: covered = 5 + 1.
  expectNear(selfTime({0, 10}, {{1, 4}, {3, 6}, {9, 12}}), 4.0,
             "self time, overlapping children");
  expectNear(selfTime({0, 10}, {}), 10.0, "self time, no children");
  expectNear(selfTime({0, 10}, {{2, 3}, {2, 3}}), 9.0,
             "self time, identical children");
  expectNear(selfTime({0, 10}, {{-5, 20}}), 0.0,
             "self time, child covering parent");
  expectNear(coveredLength({{1, 2}, {2, 3}}, 0, 10), 2.0, "touching parts");

  // The same rule through the tracer, per layer.
  Tracer T(true, "selftest");
  uint64_t Root = T.add("w", "bench", 0, 0.0, 10.0);
  uint64_t A = T.add("a", "ga", Root, 1.0, 4.0, 1);
  T.add("b", "ga", Root, 3.0, 6.0, 2);
  T.add("a.child", "sim", A, 2.0, 3.0);
  auto Self = T.selfTimeByLayer();
  expectNear(Self["bench"], 5.0, "bench self time");
  expectNear(Self["ga"], 2.0 + 3.0, "ga self time (overlap counts per span)");
  expectNear(Self["sim"], 1.0, "sim self time");
  Tracer Off(false, "off");
  expectTrue(Off.open("x", "bench", 0) == 0 && Off.spans().empty(),
             "a disabled tracer records nothing");
}

static void testReconciliation() {
  Reconciliation R = reconcile({0, 10}, {{1, 4}, {3, 6}, {8, 9}});
  expectNear(R.WallS, 10.0, "recon wall");
  expectNear(R.AttributedS, 6.0, "recon attributed");
  expectNear(R.UnattributedS, 4.0, "recon remainder");
  expectNear(R.AttributedS + R.UnattributedS, R.WallS, "recon sums to wall");

  // Summed over every root of one name (one per island rep).
  Tracer T(true, "selftest");
  uint64_t R1 = T.add("w", "bench", 0, 0.0, 2.0);
  T.add("c", "dist", R1, 0.5, 1.5);
  uint64_t R2 = T.add("w", "bench", 0, 5.0, 8.0);
  T.add("c", "dist", R2, 5.0, 8.0);
  T.add("other", "bench", 0, 0.0, 100.0);
  Reconciliation S = T.reconcile("w");
  expectNear(S.WallS, 5.0, "summed recon wall");
  expectNear(S.AttributedS, 4.0, "summed recon attributed");
  expectNear(S.UnattributedS, 1.0, "summed recon remainder");
}

static void testErrorRate() {
  ErrorLedger E;
  expectNear(E.rate(), 0.0, "empty ledger rate");
  E.add(1000, 0); // replicas
  E.add(200, 1);  // checkpoint writes, one failed
  E.check(true);  // oracle comparison
  E.check(false); // determinism check
  expectTrue(E.Attempted == 1202 && E.Failed == 2, "ledger counts");
  expectNear(E.rate(), 2.0 / 1202.0, "rate over every attempted operation");
}

int main() {
  testMedianAndQuartiles();
  testTailRule();
  testSelfTime();
  testReconciliation();
  testErrorRate();
  if (Failures) {
    std::fprintf(stderr, "%d check(s) failed\n", Failures);
    return 1;
  }
  std::printf("ledger self-test: all checks passed\n");
  return 0;
}
