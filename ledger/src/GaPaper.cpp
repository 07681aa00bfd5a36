//===- ledger/src/GaPaper.cpp - The paper's GA run ------------------------===//
//
// Part of the ca2a project: reproduction of Hoffmann & Désérable,
// "CA Agents for All-to-All Communication Are Faster in the Triangulate
// Grid" (PaCT 2013).
//
// ga_paper: the mutation-only GA of Sect. 4 as examples/evolve runs it at
// paper scale: T-grid 16x16, 8 agents, 1003 training fields (1000 random
// + 3 manual), N = 20, b = 3, default engine, backend and scheduler, and
// workers = nproc. A rep builds the field set and the Evolution (setup)
// and then steps kGenerations generations.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "agent/BestAgents.h"
#include "ga/Evolution.h"

#include <optional>

using namespace ledger;
using namespace ca2a;

namespace {
constexpr int kAgents = 8;
constexpr int kRandomFields = 1000;
constexpr int kMaxSteps = 200;
constexpr int kGenerations = 50;
constexpr int kPoolSamples = 2; // Pool members re-checked on World.
} // namespace

WorkloadResult ledger::runGaPaper(const RunContext &C) {
  WorkloadResult R;
  Tracer &Tr = *C.Trace;
  Torus T(GridKind::Triangulate, 16);
  EvolutionParams Params;
  Params.Fitness.Sim.MaxSteps = kMaxSteps;
  Params.Fitness.Engine = EngineKind::Batch;
  Params.Fitness.NumWorkers = C.NProc;
  const uint64_t FieldSeed = mixSeed(C.Seed, 0xF1E1D5);

  std::vector<double> SetupS, ConfigS, InitS, GenS, StepPerRepS, SolvedS,
      SolvedGens;
  std::vector<SchedulerStats> SchedPerRep;
  std::vector<InitialConfiguration> Fields;
  std::optional<Evolution> E;
  double StepTotal = 0.0;
  int GensTotal = 0;

  // One rep: setup, then kGenerations timed generations. Samples are kept
  // only for timed reps; returns the champion hash.
  auto RunRep = [&](uint64_t Seed, uint64_t Parent, bool Sample) {
    Params.Seed = Seed;
    double SetupStart = nowS();
    {
      Span S(Tr, "standardConfigurationSet", "config", Parent);
      Fields = standardConfigurationSet(T, kAgents, kRandomFields, FieldSeed);
    }
    double ConfigEnd = nowS();
    {
      Span S(Tr, "Evolution::Evolution", "ga", Parent);
      E.emplace(T, Fields, Params);
    }
    double SetupEnd = nowS();
    SchedulerStats Before = E->schedulerStats();
    std::vector<double> Gens;
    double Solved = -1.0;
    int SolvedGen = 0;
    for (int Gen = 0; Gen != kGenerations; ++Gen) {
      double Start = nowS();
      {
        Span S(Tr, "Evolution::stepGeneration", "ga", Parent);
        (void)E->stepGeneration();
      }
      double End = nowS();
      Gens.push_back(End - Start);
      if (Solved < 0.0 && E->bestEver().CompletelySuccessful) {
        Solved = End - SetupEnd;
        SolvedGen = Gen + 1;
      }
    }
    if (Sample) {
      SetupS.push_back(SetupEnd - SetupStart);
      ConfigS.push_back(ConfigEnd - SetupStart);
      InitS.push_back(SetupEnd - ConfigEnd);
      double Step = 0.0;
      for (double G : Gens)
        Step += G;
      GenS.insert(GenS.end(), Gens.begin(), Gens.end());
      StepPerRepS.push_back(Step);
      StepTotal += Step;
      GensTotal += kGenerations;
      SchedPerRep.push_back(E->schedulerStats() - Before);
      if (Solved >= 0.0) {
        SolvedS.push_back(Solved);
        SolvedGens.push_back(SolvedGen);
      }
    }
    return championHash(E->bestEver().G, E->bestEver().Fitness);
  };

  // Every timed rep takes a fresh GA seed, so a run averages over several
  // trajectories; the last one is repeated untimed to check determinism.
  std::optional<Span> Root;
  Root.emplace(Tr, "ga_paper", "bench");
  double LoopStart = nowS();
  uint64_t Champion = 0;
  size_t Reps = 0;
  while (true) {
    Champion = RunRep(mixSeed(C.Seed, Reps), Root->id(), true);
    ++Reps;
    if (C.Units ? Reps >= C.Units : nowS() - LoopStart >= C.Seconds)
      break;
  }
  R.TimedWallS = nowS() - LoopStart;
  R.Units = Reps;
  R.Backend = simdBackendName(resolveSimdBackend(Params.Fitness.Backend));
  Root.emplace(Tr, "ga_paper.untimed", "bench");
  R.check(RunRep(mixSeed(C.Seed, Reps - 1), Root->id(), false) == Champion,
          "ga_paper: a repeated rep disagrees on the champion");

  // Gate: the champion and a seeded sample of the final pool, re-evaluated
  // exactly on the reference engine.
  WorldTally World;
  const Individual &Best = E->bestEver();
  referenceCheck(R, Tr, Root->id(), Best.G, T, Fields, Params.Fitness,
                 Best.Fitness, Best.SolvedFields, "ga_paper champion",
                 World);
  Rng Pick(mixSeed(C.Seed, 0x5A3B1E));
  const std::vector<Individual> &Pool = E->population();
  for (int I = 0; I != kPoolSamples; ++I) {
    const Individual &Ind = Pool[Pick.uniformInt(Pool.size())];
    referenceCheck(R, Tr, Root->id(), Ind.G, T, Fields, Params.Fitness,
                   Ind.Fitness, Ind.SolvedFields, "ga_paper pool member",
                   World);
  }
  uint64_t Replicas = 0, Quarantined = 0;
  for (const SchedulerStats &S : SchedPerRep) {
    Replicas += S.FieldsSimulated;
    Quarantined += S.ItemsQuarantined;
  }
  R.Errors.add(Replicas, Quarantined);

  TailPoint Tail = tailPoint(GenS);
  R.EndToEnd.set("setup_s", median(SetupS), "s");
  R.EndToEnd.set("gens_per_s", GensTotal / StepTotal, "gen/s");
  R.EndToEnd.set("gen_ms.p50", 1e3 * median(GenS), "ms");
  R.Layers.set("gen_ms.tail", 1e3 * Tail.Value, "ms");
  R.EndToEnd.set("replicas_per_s", static_cast<double>(Replicas) / StepTotal,
                 "replicas/s");
  R.Record.num("generations_per_rep", kGenerations)
      .num("reps", static_cast<double>(R.Units))
      .num("workers", static_cast<double>(C.NProc))
      .num("gen_ms.tail", 1e3 * Tail.Value)
      .num("gen_ms.tail.percentile", Tail.Percentile)
      .num("gen_ms.tail.samples", static_cast<double>(Tail.Samples))
      .raw("setup_s", jsonSummary(SetupS))
      .raw("step_s.per_rep", jsonArray(StepPerRepS))
      .raw("gens_to_solved.per_rep", jsonArray(SolvedGens));

  if (!C.Layers)
    return R;

  MetricList &L = R.Layers;
  L.set("config.fields_s", median(ConfigS), "s");
  setSchedulerLayers(L, SchedPerRep);
  std::vector<double> FieldsSimulated;
  for (const SchedulerStats &S : SchedPerRep)
    FieldsSimulated.push_back(static_cast<double>(S.FieldsSimulated));
  double FieldsPerRep = median(FieldsSimulated);
  double StepS = median(StepPerRepS);
  L.set("ga.init_s", median(InitS), "s");
  L.set("ga.step_s", StepS, "s");
  L.set("ga.fields_per_s", FieldsPerRep / StepS, "fields/s");
  L.set("time_to_solved_s", median(SolvedS), "s");
  L.set("ga.gens_to_solved", median(SolvedGens), "count");
  World.setLayers(L);

  // Direct engine calls on this workload's shape: the published T-agent
  // on the training fields. Its rate prices the GA's simulated fields
  // (modelled engine share) and its worker sweep the pool's scaling.
  BatchEngine Engine(T);
  std::vector<BatchReplica> Replicas8;
  for (const InitialConfiguration &F : Fields)
    Replicas8.push_back({&bestTriangulateAgent(), nullptr,
                         GenomePolicy::Single, &F.Placements,
                         &Params.Fitness.Sim});
  std::vector<BatchCall> Calls;
  std::vector<SimResult> Results;
  for (int Rep = 0; Rep != 9; ++Rep)
    Calls.push_back(timedBatchRun(Tr, Root->id(), "BatchEngine::run", Engine,
                                  Replicas8, C.NProc, kMaxSteps, Results));
  setBatchLayers(L, Calls);
  std::vector<double> Rates, StepRates;
  for (const BatchCall &Call : Calls) {
    Rates.push_back(static_cast<double>(Call.Replicas) / Call.WallS);
    StepRates.push_back(Call.AgentSteps / Call.WallS);
  }
  L.set("sim.batch.T.k8.agent_steps_per_s", median(StepRates),
        "agent-steps/s");
  double EngineS = FieldsPerRep / median(Rates);
  L.set("ga.engine_share", EngineS / StepS, "ratio");
  L.set("ga.unattributed_s", StepS - EngineS, "s");
  workerSweep(L, C.NProc, 9, static_cast<double>(Replicas8.size()),
              [&](size_t W) {
                return timedBatchRun(Tr, Root->id(), "BatchEngine::run[sweep]",
                                     Engine, Replicas8, W, kMaxSteps, Results)
                    .WallS;
              });
  Root.reset();

  // The checkpoint and dist layers are measured on one rep of the
  // islands_ckpt workload, gate included.
  RunContext Sub = C;
  Sub.Units = 1;
  Sub.WorkDir = C.WorkDir + "/islands";
  WorkloadResult Islands = runIslandsCkpt(Sub);
  for (const Metric &M : Islands.Layers.items())
    if (M.Name.rfind("ckpt.", 0) == 0 || M.Name.rfind("dist.", 0) == 0)
      L.set(M.Name, M.Value, M.Unit);
  R.Errors.add(Islands.Errors.Attempted, Islands.Errors.Failed);
  R.Failures.insert(R.Failures.end(), Islands.Failures.begin(),
                    Islands.Failures.end());
  return R;
}
