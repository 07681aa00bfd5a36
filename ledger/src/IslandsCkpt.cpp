//===- ledger/src/IslandsCkpt.cpp - Durable islands -----------------------===//
//
// Part of the ca2a project: reproduction of Hoffmann & Désérable,
// "CA Agents for All-to-All Communication Are Faster in the Triangulate
// Grid" (PaCT 2013).
//
// islands_ckpt: four islands (capped at nproc) in a ring over the file
// transport, migrating 3 individuals per edge every 5 generations, one
// evaluation worker per island, a durable checkpoint per island per
// generation, 103 training fields. A rep is one runIslands call in fresh
// mailbox and checkpoint directories.
//
// runIslands hides its checkpoint writes and mailbox traffic, so the
// ckpt.* and dist.*_ms layer numbers come from calling saveCheckpoint,
// loadCheckpointWithRecovery and FileMailbox::post/collect directly on
// each rep's final checkpoints and on migrant blocks built from them.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "dist/IslandRunner.h"

#include <algorithm>
#include <filesystem>
#include <mutex>

using namespace ledger;
using namespace ca2a;

namespace fs = std::filesystem;

namespace {
constexpr int kAgents = 8;
constexpr int kRandomFields = 100;
constexpr int kMaxSteps = 200;
constexpr int kGenerations = 100;
constexpr int kMigrationInterval = 5;
constexpr int kMigrants = 3;

/// One runIslands call and what its generation callbacks saw.
struct Rep {
  Expected<IslandRunResult> Run = Error("not run");
  std::mutex Mutex; // Guards the callback-written members below.
  std::vector<std::vector<double>> Stamps;            ///< Per island.
  std::vector<std::vector<uint64_t>> FieldsSimulated; ///< Cumulative.
  std::vector<SchedulerStats> Last;
  double FirstSolved = -1.0; ///< Seconds after the call; -1 = never.
  double SetupStart = 0.0, Start = 0.0, End = 0.0;

  /// When the last island reported its first generation.
  double allUp() const {
    double Up = Start;
    for (const auto &S : Stamps)
      Up = std::max(Up, S.empty() ? Start : S.front());
    return Up;
  }
};

class IslandsBench {
public:
  IslandsBench(const RunContext &C, WorkloadResult &R);
  void run();

private:
  void runRep(Rep &Out, uint64_t Seed, const fs::path &Dir);
  void account(const Rep &Done);
  std::vector<CheckpointData> checkCheckpoints(uint64_t Parent);
  void directCalls(const std::vector<CheckpointData> &Final,
                   const fs::path &Dir, uint64_t Seq, uint64_t Parent);
  void report();

  const RunContext &C;
  WorkloadResult &R;
  Tracer &Tr;
  Torus T{GridKind::Triangulate, 16};
  const int NumIslands;
  IslandRunParams P;
  const uint64_t FieldSeed;
  std::vector<InitialConfiguration> Fields;

  std::vector<double> SetupS, ConfigS, GenS, SkewS, SolvedS;
  std::vector<double> WriteMs, ReadMs, PostMs, CollectMs, CkptBytes,
      BlockBytes;
  std::vector<double> Rounds, Posted, Accepted, Writes;
  std::vector<SchedulerStats> SchedPerRep;
  double RunWall = 0.0, Gens = 0.0, Replicas = 0.0, CkptFailed = 0.0;
  double MailboxRetries = 0.0, MailboxRecoveries = 0.0; ///< MailboxStats.
  WorldTally World;
};

IslandsBench::IslandsBench(const RunContext &C, WorkloadResult &R)
    : C(C), R(R), Tr(*C.Trace),
      NumIslands(static_cast<int>(std::min<size_t>(4, C.NProc))),
      FieldSeed(mixSeed(C.Seed, 0x15A7D5)) {
  P.NumIslands = NumIslands;
  P.Topology = TopologyKind::Ring;
  P.MigrationInterval = kMigrationInterval;
  P.MigrantCount = kMigrants;
  P.MigrationDeadlineSeconds = 60.0;
  P.Transport = TransportKind::File;
  P.Evo.Fitness.Sim.MaxSteps = kMaxSteps;
  P.Evo.Fitness.Engine = EngineKind::Batch;
  P.Evo.Fitness.NumWorkers = 1;
  P.Grid = GridKind::Triangulate;
  P.SideLength = 16;
}

// Setup is the training fields, fresh empty mailbox and checkpoint
// directories, and the start of the archipelago: runIslands builds the
// islands (each an Evolution with its initial-pool evaluation) one after
// another inside the call, so the start runs from the call until the last
// island reports its first generation.
void IslandsBench::runRep(Rep &Out, uint64_t Seed, const fs::path &Dir) {
  P.Evo.Seed = Seed;
  P.MailboxDir = (Dir / "mbox").string();
  P.CheckpointDir = (Dir / "ckpt").string();
  size_t N = static_cast<size_t>(NumIslands);
  Out.Stamps.resize(N);
  Out.FieldsSimulated.resize(N);
  Out.Last.resize(N);
  Out.SetupStart = nowS();
  Span Root(Tr, "islands_ckpt", "bench");
  {
    Span S(Tr, "standardConfigurationSet", "config", Root.id());
    Fields = standardConfigurationSet(T, kAgents, kRandomFields, FieldSeed);
  }
  ConfigS.push_back(nowS() - Out.SetupStart);
  std::error_code Ec;
  fs::remove_all(Dir, Ec);
  fs::create_directories(P.MailboxDir, Ec);
  fs::create_directories(P.CheckpointDir, Ec);
  Out.Start = nowS();
  {
    Span RunSpan(Tr, "runIslands", "dist", Root.id());
    auto OnGen = [&](int I, const GenerationStats &S) {
      double Now = nowS();
      size_t Idx = static_cast<size_t>(I);
      std::lock_guard<std::mutex> Lock(Out.Mutex);
      auto &Stamps = Out.Stamps[Idx];
      Tr.add("island.generation", "ga", RunSpan.id(),
             Stamps.empty() ? Out.Start : Stamps.back(), Now, I + 1);
      Stamps.push_back(Now);
      Out.FieldsSimulated[Idx].push_back(S.Sched.FieldsSimulated);
      Out.Last[Idx] = S.Sched;
      if (Out.FirstSolved < 0.0 &&
          S.BestSolvedFields == static_cast<int>(Fields.size()))
        Out.FirstSolved = Now - Out.Start;
    };
    Out.Run = runIslands(T, Fields, P, kGenerations, OnGen);
  }
  Out.End = nowS();
  R.check(static_cast<bool>(Out.Run),
          Out.Run ? std::string()
                  : "runIslands: " + Out.Run.error().message());
}

void IslandsBench::account(const Rep &Done) {
  double AllUp = Done.allUp();
  SetupS.push_back(AllUp - Done.SetupStart);
  R.TimedWallS += Done.End - Done.SetupStart;
  // Throughput counts the generations, and the fields they simulated,
  // completed once every island was up.
  RunWall += Done.End - AllUp;
  SchedulerStats RepSched;
  for (size_t I = 0; I != Done.Stamps.size(); ++I) {
    const auto &Stamps = Done.Stamps[I];
    const auto &Simulated = Done.FieldsSimulated[I];
    size_t Up = 0;
    while (Up + 1 < Stamps.size() && Stamps[Up + 1] <= AllUp)
      ++Up;
    Gens += static_cast<double>(Stamps.size() - Up - 1);
    Replicas += static_cast<double>(Simulated.back() - Simulated[Up]);
    for (size_t G = 1; G < Stamps.size(); ++G)
      GenS.push_back(Stamps[G] - Stamps[G - 1]);
    RepSched += Done.Last[I];
  }
  for (size_t G = 0; G != static_cast<size_t>(kGenerations); ++G) {
    double Lo = 1e300, Hi = -1e300;
    for (const auto &Stamps : Done.Stamps) {
      Lo = std::min(Lo, Stamps[G]);
      Hi = std::max(Hi, Stamps[G]);
    }
    SkewS.push_back(Hi - Lo);
  }
  if (Done.FirstSolved >= 0.0)
    SolvedS.push_back(Done.FirstSolved);
  SchedPerRep.push_back(RepSched);
  R.Errors.add(RepSched.FieldsSimulated, RepSched.ItemsQuarantined);
  double Round = 0, Post = 0, Accept = 0;
  for (const IslandOutcome &O : Done.Run->Islands) {
    Round += static_cast<double>(O.Migration.MigrationRounds);
    Post += static_cast<double>(O.Migration.BlocksPosted);
    Accept += static_cast<double>(O.Migration.MigrantsAccepted);
  }
  Rounds.push_back(Round);
  Posted.push_back(Post);
  Accepted.push_back(Accept);
  // Every island checkpoints after every generation.
  Writes.push_back(static_cast<double>(NumIslands) * kGenerations);
  R.Errors.add(static_cast<uint64_t>(Writes.back() + Post), 0);
}

// Every island's final checkpoint must reload (with .bak recovery) and
// validate against the island's own parameters.
std::vector<CheckpointData> IslandsBench::checkCheckpoints(uint64_t Parent) {
  std::vector<CheckpointData> Final;
  for (int I = 0; I != NumIslands; ++I) {
    std::string Path = islandCheckpointPath(P.CheckpointDir, I);
    EvolutionParams Evo = P.Evo;
    Evo.Seed = deriveIslandSeed(P.Evo.Seed, I);
    Expected<CheckpointData> Loaded = Error("not loaded");
    {
      Span S(Tr, "loadCheckpointWithRecovery", "ckpt", Parent);
      Loaded = loadCheckpointWithRecovery(Path);
    }
    bool Ok = static_cast<bool>(Loaded);
    if (Ok) {
      Expected<bool> Valid = validateCheckpoint(*Loaded, P.Grid, 16, Evo);
      Ok = Valid && Loaded->Snapshot.Generation == kGenerations;
    }
    CkptFailed += !Ok;
    R.check(Ok, "islands_ckpt: island " + std::to_string(I) +
                    " final checkpoint does not reload and validate");
    if (!Ok)
      continue;
    CkptBytes.push_back(static_cast<double>(fs::file_size(Path)));
    Final.push_back(Loaded.takeValue());
  }
  return Final;
}

// Direct layer calls on a rep's final state, in a side directory so the
// run's own files stay untouched.
void IslandsBench::directCalls(const std::vector<CheckpointData> &Final,
                               const fs::path &Dir, uint64_t Seq,
                               uint64_t Parent) {
  fs::path Side = Dir / "direct";
  std::error_code Ec;
  fs::create_directories(Side, Ec);
  uint64_t Context = EvalScheduler(T, Fields, P.Evo.Fitness, P.Evo.Scheduler)
                         .contextFingerprint();
  FileMailbox Box((Side / "mbox").string());
  for (size_t I = 0; I != Final.size(); ++I) {
    std::string Path =
        (Side / ("island" + std::to_string(I) + ".ckpt")).string();
    double Start = nowS();
    Expected<bool> Saved = Error("not saved");
    {
      Span S(Tr, "saveCheckpoint", "ckpt", Parent);
      Saved = saveCheckpoint(Path, Final[I]);
    }
    WriteMs.push_back(1e3 * (nowS() - Start));
    CkptFailed += !Saved;
    R.check(static_cast<bool>(Saved), "saveCheckpoint failed");
    Start = nowS();
    Expected<CheckpointData> Back = Error("not loaded");
    {
      Span S(Tr, "loadCheckpointWithRecovery", "ckpt", Parent);
      Back = loadCheckpointWithRecovery(Path);
    }
    ReadMs.push_back(1e3 * (nowS() - Start));
    CkptFailed += !Back;
    R.check(static_cast<bool>(Back), "loadCheckpointWithRecovery failed");

    MigrantBlock Block;
    Block.FromIsland = static_cast<int>(I);
    Block.ToIsland = static_cast<int>((I + 1) % Final.size());
    Block.Sequence = Seq;
    Block.ContextFingerprint = Context;
    Block.Dims = Final[I].Snapshot.Dims;
    const auto &Pool = Final[I].Snapshot.Pool;
    Block.Migrants.assign(
        Pool.begin(), Pool.begin() + std::min<size_t>(kMigrants, Pool.size()));
    BlockBytes.push_back(
        static_cast<double>(serializeMigrantBlock(Block).size()));
    Start = nowS();
    Expected<bool> Sent = Error("not posted");
    {
      Span S(Tr, "FileMailbox::post", "dist", Parent);
      Sent = Box.post(Block);
    }
    PostMs.push_back(1e3 * (nowS() - Start));
    R.check(static_cast<bool>(Sent), "FileMailbox::post failed");
    Start = nowS();
    Expected<MigrantBlock> Got = Error("not collected");
    {
      Span S(Tr, "FileMailbox::collect", "dist", Parent);
      Got = Box.collect(Block.FromIsland, Block.ToIsland, Block.Sequence,
                        Context, 5.0);
    }
    CollectMs.push_back(1e3 * (nowS() - Start));
    R.check(Got && Got->Migrants.size() == Block.Migrants.size(),
            "FileMailbox::collect failed");
  }
  const MailboxStats &M = Box.stats();
  MailboxRetries += static_cast<double>(M.WriteRetries + M.ReadRetries);
  MailboxRecoveries += static_cast<double>(M.BackupRecoveries);
}

void IslandsBench::run() {
  // Every timed rep takes a fresh GA seed, so a run averages over several
  // trajectories; the last one is repeated untimed to check determinism.
  double LoopStart = nowS();
  uint64_t Champion = 0;
  std::vector<CheckpointData> Final;
  size_t Reps = 0;
  while (true) {
    fs::path Dir = fs::path(C.WorkDir) / ("rep" + std::to_string(Reps));
    Rep Done;
    runRep(Done, mixSeed(C.Seed, Reps), Dir);
    ++Reps;
    if (!Done.Run)
      return;
    account(Done);
    const Individual &Best = Done.Run->Champion;
    Champion = championHash(Best.G, Best.Fitness);
    Span Untimed(Tr, "islands_ckpt.untimed", "bench");
    Final = checkCheckpoints(Untimed.id());
    if (C.Layers && !Final.empty())
      directCalls(Final, Dir, Reps, Untimed.id());
    std::error_code Ec;
    fs::remove_all(Dir, Ec);
    if (C.Units ? Reps >= C.Units : nowS() - LoopStart >= C.Seconds)
      break;
  }
  R.Units = Reps;

  fs::path Dir = fs::path(C.WorkDir) / "repeat";
  Rep Again;
  runRep(Again, mixSeed(C.Seed, Reps - 1), Dir);
  Span Untimed(Tr, "islands_ckpt.untimed", "bench");
  if (Again.Run) {
    const Individual &Best = Again.Run->Champion;
    R.check(championHash(Best.G, Best.Fitness) == Champion,
            "islands_ckpt: a repeated rep disagrees on the champion");
    // The champion and one seeded member of a final pool, re-evaluated
    // exactly on the reference engine.
    referenceCheck(R, Tr, Untimed.id(), Best.G, T, Fields, P.Evo.Fitness,
                   Best.Fitness, Best.SolvedFields, "islands_ckpt champion",
                   World);
  }
  if (!Final.empty()) {
    Rng Pick(mixSeed(C.Seed, 0x15A4D));
    const auto &Pool = Final[Pick.uniformInt(Final.size())].Snapshot.Pool;
    const Individual &Ind = Pool[Pick.uniformInt(Pool.size())];
    referenceCheck(R, Tr, Untimed.id(), Ind.G, T, Fields, P.Evo.Fitness,
                   Ind.Fitness, Ind.SolvedFields, "islands_ckpt pool member",
                   World);
  }
  std::error_code Ec;
  fs::remove_all(Dir, Ec);
  report();
}

void IslandsBench::report() {
  R.Backend = simdBackendName(resolveSimdBackend(P.Evo.Fitness.Backend));
  TailPoint Tail = tailPoint(GenS);
  R.EndToEnd.set("setup_s", median(SetupS), "s");
  R.EndToEnd.set("gens_per_s", Gens / RunWall, "gen/s");
  R.EndToEnd.set("gen_ms.p50", 1e3 * median(GenS), "ms");
  R.Layers.set("gen_ms.tail", 1e3 * Tail.Value, "ms");
  R.EndToEnd.set("replicas_per_s", Replicas / RunWall, "replicas/s");
  R.Record.num("islands", NumIslands)
      .num("workers_per_island", 1)
      .num("generations_per_rep", kGenerations)
      .num("reps", static_cast<double>(R.Units))
      .num("gen_ms.tail", 1e3 * Tail.Value)
      .num("gen_ms.tail.percentile", Tail.Percentile)
      .num("gen_ms.tail.samples", static_cast<double>(Tail.Samples))
      .raw("setup_s", jsonSummary(SetupS));
  if (!C.Layers)
    return;

  R.Record.num("mailbox.retries", MailboxRetries)
      .num("mailbox.backup_recoveries", MailboxRecoveries);
  MetricList &L = R.Layers;
  L.set("config.fields_s", median(ConfigS), "s");
  setSchedulerLayers(L, SchedPerRep);
  L.set("time_to_solved_s", median(SolvedS), "s");
  L.set("ckpt.writes", median(Writes), "count");
  L.set("ckpt.bytes", median(CkptBytes), "B");
  L.set("ckpt.write_ms.p50", median(WriteMs), "ms");
  L.set("ckpt.read_ms.p50", median(ReadMs), "ms");
  L.set("ckpt.failed", CkptFailed, "count");
  L.set("dist.rounds", median(Rounds), "count");
  L.set("dist.blocks_posted", median(Posted), "count");
  L.set("dist.migrants_accepted", median(Accepted), "count");
  L.set("dist.block_bytes", median(BlockBytes), "B");
  L.set("dist.post_ms.p50", median(PostMs), "ms");
  L.set("dist.collect_ms.p50", median(CollectMs), "ms");
  L.set("dist.gen_skew_ms.p50", 1e3 * median(SkewS), "ms");
  World.setLayers(L);
}
} // namespace

WorkloadResult ledger::runIslandsCkpt(const RunContext &C) {
  WorkloadResult R;
  IslandsBench B(C, R);
  B.run();
  return R;
}
