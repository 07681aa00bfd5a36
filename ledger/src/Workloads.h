//===- ledger/src/Workloads.h - The benchmark's three workloads -*- C++ -*-===//
//
// Part of the ca2a project: reproduction of Hoffmann & Désérable,
// "CA Agents for All-to-All Communication Are Faster in the Triangulate
// Grid" (PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload is a closed loop (a generation, rep or sweep pass starts
/// only when the previous one has finished) that times the public calls
/// it makes into the library, then runs its correctness gate outside the
/// timed regions. ledger/README.md says why each workload exists.
///
//===----------------------------------------------------------------------===//

#ifndef CA2A_LEDGER_WORKLOADS_H
#define CA2A_LEDGER_WORKLOADS_H

#include "Record.h"
#include "Stats.h"
#include "Trace.h"

#include "ga/EvalScheduler.h"
#include "sim/BatchEngine.h"

#include <cstring>
#include <functional>
#include <string>
#include <vector>

namespace ledger {

struct RunContext {
  uint64_t Seed = 1;
  /// Budget of the timed loop; the loop stops at the first unit boundary
  /// after it (never before the workload's minimum unit count).
  double Seconds = 10.0;
  /// When nonzero, run exactly this many units instead (the traced pass
  /// repeats the untraced pass's unit count so the two compare).
  size_t Units = 0;
  size_t NProc = 1;
  /// Take the per-layer measurements (direct layer calls, worker sweep).
  bool Layers = false;
  /// Scratch directory inside the checkout, removed by the caller.
  std::string WorkDir;
  Tracer *Trace = nullptr;
};

struct WorkloadResult {
  MetricList EndToEnd;
  MetricList Layers;
  ErrorLedger Errors;
  std::vector<std::string> Failures;
  JsonObject Record;
  size_t Units = 0;       ///< Reps or sweep passes completed.
  double TimedWallS = 0.; ///< Wall time of the timed regions.
  std::string Backend;    ///< BatchRunStats::BackendUsed, resolved.

  /// Counts one gate check; a failed one is kept with its message.
  void check(bool Ok, const std::string &What) {
    Errors.check(Ok);
    if (!Ok)
      Failures.push_back(What);
  }
};

WorkloadResult runGaPaper(const RunContext &C);
WorkloadResult runTable1Sweep(const RunContext &C);
WorkloadResult runIslandsCkpt(const RunContext &C);

/// splitmix64 of (A, B): independent, reproducible sub-seeds.
inline uint64_t mixSeed(uint64_t A, uint64_t B) {
  uint64_t Z = A + 0x9e3779b97f4a7c15ULL * (B + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// Genome content hash mixed with the exact fitness bits.
inline uint64_t championHash(const ca2a::Genome &G, double Fitness) {
  uint64_t Bits = 0;
  std::memcpy(&Bits, &Fitness, sizeof(Bits));
  return mixSeed(G.hashValue(), Bits);
}

/// Per-generation delta of the scheduler's cumulative counters.
ca2a::SchedulerStats operator-(const ca2a::SchedulerStats &A,
                               const ca2a::SchedulerStats &B);

/// Agent-steps a finished replica executed, computed from its result:
/// k (t_comm + 1) exchanges when solved, k * MaxSteps otherwise.
inline double agentSteps(const ca2a::SimResult &R, int MaxSteps) {
  return static_cast<double>(R.NumAgents) *
         static_cast<double>(R.Success ? R.TComm + 1 : MaxSteps);
}

/// The ga.sched.* per-layer metrics of a set of per-rep scheduler deltas
/// (counts are per-rep medians; the .spread keys are their IQR/median).
void setSchedulerLayers(MetricList &L,
                        const std::vector<ca2a::SchedulerStats> &PerRep);

/// IQR over median of \p V, 0 when the median is 0.
double relativeSpread(const std::vector<double> &V);

/// One timed BatchEngine::run call.
struct BatchCall {
  double WallS = 0.0;
  size_t Replicas = 0;
  double AgentSteps = 0.0;
  ca2a::BatchRunStats Stats;
};

/// Runs \p Replicas on \p Engine with \p Workers inside a "sim" span.
BatchCall timedBatchRun(Tracer &T, uint64_t Parent, const std::string &Name,
                        const ca2a::BatchEngine &Engine,
                        const std::vector<ca2a::BatchReplica> &Replicas,
                        size_t Workers, int MaxSteps,
                        std::vector<ca2a::SimResult> &Results);

/// sim.batch.{calls,replicas,agent_steps,busy_s,replicas_per_s,
/// worker_util} over \p Calls.
void setBatchLayers(MetricList &L, const std::vector<BatchCall> &Calls);

/// Worker-scaling sweep: \p TimeAt(W) runs one unit of \p Replicas
/// replicas at W workers and returns its wall time; each W in 1..NProc is
/// timed \p Reps times (median). Sets support.pool.scaling_eff.w<N> =
/// rate_N / (N rate_1) and sim.batch.serial_replicas_per_s.
void workerSweep(MetricList &L, size_t NProc, int Reps, double Replicas,
                 const std::function<double(size_t)> &TimeAt);

/// Replicas the gate re-ran on the reference World, and their cost.
struct WorldTally {
  double Replicas = 0.0;
  double Seconds = 0.0;
  double Mismatches = 0.0;

  /// sim.world.{replicas,replicas_per_s,mismatches}.
  void setLayers(MetricList &L) const;
};

/// Re-evaluates \p G exactly on the reference World engine and checks
/// the result against \p ExpectedFitness and \p ExpectedSolved.
void referenceCheck(WorkloadResult &R, Tracer &T, uint64_t Parent,
                    const ca2a::Genome &G, const ca2a::Torus &Torus,
                    const std::vector<ca2a::InitialConfiguration> &Fields,
                    ca2a::FitnessParams Params, double ExpectedFitness,
                    int ExpectedSolved, const std::string &What,
                    WorldTally &World);

} // namespace ledger

#endif // CA2A_LEDGER_WORKLOADS_H
