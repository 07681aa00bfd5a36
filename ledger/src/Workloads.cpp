//===- ledger/src/Workloads.cpp - Helpers shared by the workloads ---------===//

#include "Workloads.h"

using namespace ledger;
using namespace ca2a;

SchedulerStats ledger::operator-(const SchedulerStats &A,
                                 const SchedulerStats &B) {
  SchedulerStats D;
  D.Requests = A.Requests - B.Requests;
  D.CacheHits = A.CacheHits - B.CacheHits;
  D.GenomesSimulated = A.GenomesSimulated - B.GenomesSimulated;
  D.GenomesPruned = A.GenomesPruned - B.GenomesPruned;
  D.FieldsSimulated = A.FieldsSimulated - B.FieldsSimulated;
  D.FieldsPruned = A.FieldsPruned - B.FieldsPruned;
  D.Batches = A.Batches - B.Batches;
  D.TaskRetries = A.TaskRetries - B.TaskRetries;
  D.ItemsQuarantined = A.ItemsQuarantined - B.ItemsQuarantined;
  D.GenomesDegraded = A.GenomesDegraded - B.GenomesDegraded;
  D.WatchdogStalls = A.WatchdogStalls - B.WatchdogStalls;
  D.EngineCompileHits = A.EngineCompileHits - B.EngineCompileHits;
  D.EngineCompileMisses = A.EngineCompileMisses - B.EngineCompileMisses;
  D.EngineAllocations = A.EngineAllocations - B.EngineAllocations;
  D.EngineSteadyAllocations =
      A.EngineSteadyAllocations - B.EngineSteadyAllocations;
  D.EngineSlabsFormed = A.EngineSlabsFormed - B.EngineSlabsFormed;
  D.EngineSlabLanes = A.EngineSlabLanes - B.EngineSlabLanes;
  D.EngineLanesRetiredEarly =
      A.EngineLanesRetiredEarly - B.EngineLanesRetiredEarly;
  return D;
}

double ledger::relativeSpread(const std::vector<double> &V) {
  double Med = median(V);
  if (Med == 0.0)
    return 0.0;
  std::array<double, 3> Q = quartiles(V);
  return (Q[2] - Q[0]) / Med;
}

void ledger::setSchedulerLayers(MetricList &L,
                                const std::vector<SchedulerStats> &PerRep) {
  SchedulerStats Sum;
  std::vector<double> Requests, Simulated, Pruned, Batches;
  for (const SchedulerStats &S : PerRep) {
    Sum += S;
    Requests.push_back(static_cast<double>(S.Requests));
    Simulated.push_back(static_cast<double>(S.FieldsSimulated));
    Pruned.push_back(static_cast<double>(S.FieldsPruned));
    Batches.push_back(static_cast<double>(S.Batches));
  }
  L.set("ga.sched.requests", median(Requests), "count");
  L.set("ga.sched.cache_hit_rate", Sum.hitRate(), "ratio");
  L.set("ga.sched.fields_simulated", median(Simulated), "count");
  L.set("ga.sched.fields_simulated.spread", relativeSpread(Simulated),
        "ratio");
  L.set("ga.sched.fields_pruned", median(Pruned), "count");
  L.set("ga.sched.fields_pruned.spread", relativeSpread(Pruned), "ratio");
  L.set("ga.sched.prune_rate", Sum.pruneRate(), "ratio");
  L.set("ga.sched.batches", median(Batches), "count");
  L.set("ga.sched.batch_occupancy", Sum.batchOccupancy(), "pairs/batch");
  L.set("ga.sched.retries", static_cast<double>(Sum.TaskRetries), "count");
  L.set("ga.sched.quarantined", static_cast<double>(Sum.ItemsQuarantined),
        "count");
  L.set("ga.sched.engine_compile_hit_rate", Sum.engineCompileHitRate(),
        "ratio");
  L.set("ga.sched.engine_steady_allocs",
        static_cast<double>(Sum.EngineSteadyAllocations), "count");
  // The GA reaches the engine only through the scheduler, so the engine
  // hygiene counters of these workloads are the scheduler's tallies.
  L.set("sim.batch.compile_hit_rate", Sum.engineCompileHitRate(), "ratio");
  L.set("sim.batch.steady_allocs",
        static_cast<double>(Sum.EngineSteadyAllocations), "count");
  L.set("sim.batch.retries", static_cast<double>(Sum.TaskRetries), "count");
  L.set("sim.batch.failed", static_cast<double>(Sum.ItemsQuarantined),
        "count");
}

BatchCall ledger::timedBatchRun(Tracer &T, uint64_t Parent,
                                const std::string &Name,
                                const BatchEngine &Engine,
                                const std::vector<BatchReplica> &Replicas,
                                size_t Workers, int MaxSteps,
                                std::vector<SimResult> &Results) {
  BatchCall Call;
  BatchRunOptions Opts;
  Opts.NumWorkers = Workers;
  Opts.Stats = &Call.Stats;
  double Start = nowS();
  {
    Span S(T, Name, "sim", Parent);
    Results = Engine.run(Replicas, Opts);
  }
  Call.WallS = nowS() - Start;
  Call.Replicas = Replicas.size();
  for (const SimResult &Res : Results)
    Call.AgentSteps += agentSteps(Res, MaxSteps);
  return Call;
}

void ledger::setBatchLayers(MetricList &L, const std::vector<BatchCall> &Calls) {
  double Replicas = 0.0, Steps = 0.0, Busy = 0.0, Wall = 0.0;
  double UtilWeighted = 0.0;
  for (const BatchCall &C : Calls) {
    Replicas += static_cast<double>(C.Replicas);
    Steps += C.AgentSteps;
    Wall += C.WallS;
    for (double B : C.Stats.WorkerBusySeconds)
      Busy += B;
    UtilWeighted += C.Stats.workerUtilization() * C.WallS;
  }
  L.set("sim.batch.calls", static_cast<double>(Calls.size()), "count");
  L.set("sim.batch.replicas", Replicas, "count");
  L.set("sim.batch.agent_steps", Steps, "count");
  L.set("sim.batch.busy_s", Busy, "s");
  L.set("sim.batch.replicas_per_s", Wall > 0.0 ? Replicas / Wall : 0.0,
        "replicas/s");
  L.set("sim.batch.worker_util", Wall > 0.0 ? UtilWeighted / Wall : 0.0,
        "ratio");
}

void ledger::workerSweep(MetricList &L, size_t NProc, int Reps,
                         double Replicas,
                         const std::function<double(size_t)> &TimeAt) {
  std::vector<double> TimeAtW(NProc + 1, 0.0);
  for (size_t W = 1; W <= NProc; ++W) {
    std::vector<double> Times;
    for (int Rep = 0; Rep != Reps; ++Rep)
      Times.push_back(TimeAt(W));
    TimeAtW[W] = median(Times);
  }
  L.set("sim.batch.serial_replicas_per_s", Replicas / TimeAtW[1],
        "replicas/s");
  for (size_t W = 2; W <= NProc; ++W)
    L.set("support.pool.scaling_eff.w" + std::to_string(W),
          TimeAtW[1] / (static_cast<double>(W) * TimeAtW[W]), "ratio");
}

void ledger::referenceCheck(WorkloadResult &R, Tracer &T, uint64_t Parent,
                            const Genome &G, const Torus &Torus,
                            const std::vector<InitialConfiguration> &Fields,
                            FitnessParams Params, double ExpectedFitness,
                            int ExpectedSolved, const std::string &What,
                            WorldTally &World) {
  Params.Engine = EngineKind::Reference;
  double Start = nowS();
  FitnessResult Ref;
  {
    Span S(T, "evaluateFitness[reference]", "sim", Parent);
    Ref = evaluateFitness(G, Torus, Fields, Params);
  }
  World.Seconds += nowS() - Start;
  World.Replicas += static_cast<double>(Fields.size());
  bool Same =
      Ref.Fitness == ExpectedFitness && Ref.SolvedFields == ExpectedSolved;
  World.Mismatches += !Same;
  R.check(Same, What + ": reference World re-evaluation differs (fitness " +
              jsonNumber(Ref.Fitness) + " vs " + jsonNumber(ExpectedFitness) +
              ", solved " + std::to_string(Ref.SolvedFields) + " vs " +
              std::to_string(ExpectedSolved) + ")");
}

void WorldTally::setLayers(MetricList &L) const {
  L.set("sim.world.replicas", Replicas, "count");
  L.set("sim.world.replicas_per_s", Seconds > 0.0 ? Replicas / Seconds : 0.0,
        "replicas/s");
  L.set("sim.world.mismatches", Mismatches, "count");
}
