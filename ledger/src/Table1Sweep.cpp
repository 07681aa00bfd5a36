//===- ledger/src/Table1Sweep.cpp - Table 1 and Sect. 5 sweep -------------===//
//
// Part of the ca2a project: reproduction of Hoffmann & Désérable,
// "CA Agents for All-to-All Communication Are Faster in the Triangulate
// Grid" (PaCT 2013).
//
// table1_sweep: the published best S- and T-agents on 16x16 at k in
// {2, 4, 8, 16, 32} over 1003 fields each and on the packed field (k =
// 256), plus Sect. 5's 16 agents on 33x33 over 1003 random fields. Each
// (grid, shape) is one BatchEngine::run with workers = nproc at
// bench_table1's cutoff; one pass over the fourteen batches is the unit
// of the closed loop.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "agent/BestAgents.h"

#include <memory>
#include <optional>

using namespace ledger;
using namespace ca2a;

namespace {
constexpr int kMaxSteps = 5000; // bench_table1's cutoff.
constexpr int kRandomFields = 1000;
constexpr int kFields33 = 1003;
constexpr int kOracleSamplesPerBatch = 3;

struct Batch {
  std::string Name; ///< "<S|T>.<shape>", the per-layer metric infix.
  const BatchEngine *Engine = nullptr;
  const Torus *Grid = nullptr;
  const Genome *Agent = nullptr;
  std::vector<InitialConfiguration> Fields;
  std::vector<BatchReplica> Replicas;
};

/// Everything the sweep needs before its first timed batch.
struct Setup {
  SimOptions Options;
  std::vector<std::unique_ptr<Torus>> Tori;
  std::vector<std::unique_ptr<BatchEngine>> Engines;
  std::vector<Batch> Batches;
};

std::unique_ptr<Setup> buildSetup(uint64_t Seed, Tracer &Tr, uint64_t Parent) {
  auto S = std::make_unique<Setup>();
  S->Options.MaxSteps = kMaxSteps;
  const uint64_t FieldSeed = mixSeed(Seed, 0x7AB1E1);
  for (GridKind Kind : {GridKind::Square, GridKind::Triangulate}) {
    const char *G = gridKindName(Kind);
    for (int Side : {16, 33}) {
      S->Tori.push_back(std::make_unique<Torus>(Kind, Side));
      S->Engines.push_back(std::make_unique<BatchEngine>(*S->Tori.back()));
    }
    const Torus &T16 = *S->Tori[S->Tori.size() - 2];
    const Torus &T33 = *S->Tori.back();
    auto Add = [&](std::string Shape, const Torus &T,
                   std::vector<InitialConfiguration> Fields) {
      Batch B;
      B.Name = std::string(G) + "." + Shape;
      B.Engine = S->Engines[&T == &T16 ? S->Engines.size() - 2
                                       : S->Engines.size() - 1]
                     .get();
      B.Grid = &T;
      B.Agent = &bestAgent(Kind);
      B.Fields = std::move(Fields);
      S->Batches.push_back(std::move(B));
    };
    Span Sp(Tr, "standardConfigurationSet", "config", Parent);
    for (int K : {2, 4, 8, 16, 32})
      Add("k" + std::to_string(K), T16,
          standardConfigurationSet(T16, K, kRandomFields,
                                   FieldSeed + static_cast<uint64_t>(K)));
    Add("k256", T16, {packedConfiguration(T16)});
    Rng R33(mixSeed(Seed, 0x33));
    std::vector<InitialConfiguration> F33;
    for (int I = 0; I != kFields33; ++I)
      F33.push_back(randomConfiguration(T33, 16, R33));
    Add("33x33k16", T33, std::move(F33));
  }
  // Replicas borrow the field vectors, so wire them after every move.
  for (Batch &B : S->Batches)
    for (const InitialConfiguration &F : B.Fields)
      B.Replicas.push_back({B.Agent, nullptr, GenomePolicy::Single,
                            &F.Placements, &S->Options});
  return S;
}
} // namespace

WorkloadResult ledger::runTable1Sweep(const RunContext &C) {
  WorkloadResult R;
  Tracer &Tr = *C.Trace;
  std::optional<Span> Root;
  Root.emplace(Tr, "table1_sweep", "bench");

  // Every pass starts from a fresh setup (tori, engines, field sets,
  // replica lists), so setup is sampled across the whole run rather than
  // at one moment of a shared host's varying speed. Inputs are identical
  // each time, so every pass must reproduce pass 0 exactly.
  std::vector<double> SetupS, PassS;
  std::unique_ptr<Setup> S;
  std::vector<std::vector<SimResult>> First;
  std::vector<std::vector<BatchCall>> CallsPerBatch;
  std::vector<SimResult> Results;
  double Replicas = 0.0, Failed = 0.0, TimedS = 0.0;
  double LoopStart = nowS();
  for (size_t Pass = 0;; ++Pass) {
    double Start = nowS();
    S = buildSetup(C.Seed, Tr, Root->id());
    SetupS.push_back(nowS() - Start);
    const std::vector<Batch> &Batches = S->Batches;
    First.resize(Batches.size());
    CallsPerBatch.resize(Batches.size());
    Start = nowS();
    for (size_t I = 0; I != Batches.size(); ++I) {
      BatchCall Call =
          timedBatchRun(Tr, Root->id(), "BatchEngine::run", *Batches[I].Engine,
                        Batches[I].Replicas, C.NProc, kMaxSteps, Results);
      Replicas += static_cast<double>(Call.Replicas);
      Failed += static_cast<double>(Call.Stats.ReplicasFailed);
      CallsPerBatch[I].push_back(std::move(Call));
      if (Pass == 0)
        First[I] = Results;
      else
        R.check(Results == First[I],
                "table1_sweep " + Batches[I].Name + ": pass " +
                    std::to_string(Pass) + " differs from pass 0");
    }
    PassS.push_back(nowS() - Start);
    TimedS += PassS.back();
    size_t Done = Pass + 1;
    bool Enough = C.Units ? Done >= C.Units
                          : Done >= 2 && nowS() - LoopStart >= C.Seconds;
    if (Enough)
      break;
  }
  const std::vector<Batch> &Batches = S->Batches;
  R.TimedWallS = nowS() - LoopStart;
  R.Units = PassS.size();
  R.Backend = simdBackendName(CallsPerBatch[0][0].Stats.BackendUsed);
  R.Errors.add(static_cast<uint64_t>(Replicas), static_cast<uint64_t>(Failed));
  Root.emplace(Tr, "table1_sweep.untimed", "bench");

  // Gate: a seeded sample of replicas of every batch, re-run on the
  // reference World, must reproduce pass 0's SimResult exactly.
  Rng Pick(mixSeed(C.Seed, 0x0AC1E));
  WorldTally Oracle;
  std::vector<int> Solved(Batches.size(), 0);
  for (size_t I = 0; I != Batches.size(); ++I) {
    const Batch &B = Batches[I];
    for (const SimResult &Res : First[I])
      Solved[I] += Res.Success;
    World W(*B.Grid);
    size_t N = B.Replicas.size();
    for (int K = 0; K != kOracleSamplesPerBatch && K < static_cast<int>(N);
         ++K) {
      size_t Idx = N == 1 ? 0 : Pick.uniformInt(N);
      double Start = nowS();
      SimResult Ref;
      {
        Span Sp(Tr, "World::run", "sim", Root->id());
        W.reset(*B.Agent, B.Fields[Idx].Placements, S->Options);
        Ref = W.run();
      }
      Oracle.Seconds += nowS() - Start;
      Oracle.Replicas += 1.0;
      bool Same = Ref == First[I][Idx];
      Oracle.Mismatches += !Same;
      R.check(Same, "table1_sweep " + B.Name + " replica " +
                        std::to_string(Idx) + ": World::run differs");
    }
  }

  TailPoint Tail = tailPoint(PassS);
  R.EndToEnd.set("setup_s", median(SetupS), "s");
  R.EndToEnd.set("gens_per_s", static_cast<double>(PassS.size()) / TimedS,
                 "gen/s");
  R.EndToEnd.set("gen_ms.p50", 1e3 * median(PassS), "ms");
  R.Layers.set("gen_ms.tail", 1e3 * Tail.Value, "ms");
  R.EndToEnd.set("replicas_per_s", Replicas / TimedS, "replicas/s");
  std::string SolvedJson = "{";
  for (size_t I = 0; I != Batches.size(); ++I)
    SolvedJson += (I ? ", " : "") + jsonString(Batches[I].Name) + ": [" +
                  std::to_string(Solved[I]) + ", " +
                  std::to_string(Batches[I].Replicas.size()) + "]";
  R.Record.str("gen_unit", "one pass over the 14 (grid, shape) batches")
      .num("passes", static_cast<double>(PassS.size()))
      .num("workers", static_cast<double>(C.NProc))
      .num("max_steps", kMaxSteps)
      .num("gen_ms.tail", 1e3 * Tail.Value)
      .num("gen_ms.tail.percentile", Tail.Percentile)
      .num("gen_ms.tail.samples", static_cast<double>(Tail.Samples))
      .raw("setup_s", jsonSummary(SetupS))
      .raw("solved_of_replicas", SolvedJson + "}");

  if (!C.Layers)
    return R;

  MetricList &L = R.Layers;
  L.set("config.fields_s", median(SetupS), "s");
  std::vector<BatchCall> All;
  uint64_t Hits = 0, Misses = 0, Steady = 0, Retries = 0, Lost = 0;
  for (size_t I = 0; I != Batches.size(); ++I) {
    std::vector<double> Rates;
    for (const BatchCall &Call : CallsPerBatch[I]) {
      Rates.push_back(Call.AgentSteps / Call.WallS);
      Hits += Call.Stats.CompileHits;
      Misses += Call.Stats.CompileMisses;
      Steady += Call.Stats.SteadyAllocations;
      Retries += Call.Stats.TaskRetries;
      Lost += Call.Stats.ReplicasFailed;
      All.push_back(Call);
    }
    L.set("sim.batch." + Batches[I].Name + ".agent_steps_per_s",
          median(Rates), "agent-steps/s");
  }
  setBatchLayers(L, All);
  L.set("sim.batch.compile_hit_rate",
        Hits + Misses ? static_cast<double>(Hits) /
                            static_cast<double>(Hits + Misses)
                      : 0.0,
        "ratio");
  L.set("sim.batch.steady_allocs", static_cast<double>(Steady), "count");
  L.set("sim.batch.retries", static_cast<double>(Retries), "count");
  L.set("sim.batch.failed", static_cast<double>(Lost), "count");
  Oracle.setLayers(L);

  // Worker-scaling sweep: whole passes over the same batches at 1..nproc
  // workers (one flattened replica list would change the shapes).
  workerSweep(L, C.NProc, 3, Replicas / static_cast<double>(PassS.size()),
              [&](size_t W) {
                double Start = nowS();
                for (const Batch &B : Batches)
                  (void)timedBatchRun(Tr, Root->id(),
                                      "BatchEngine::run[sweep]", *B.Engine,
                                      B.Replicas, W, kMaxSteps, Results);
                return nowS() - Start;
              });
  return R;
}
