//===- ledger/src/main.cpp - The repository's benchmark -------------------===//
//
// Part of the ca2a project: reproduction of Hoffmann & Désérable,
// "CA Agents for All-to-All Communication Are Faster in the Triangulate
// Grid" (PaCT 2013).
//
// Usage:
//   ca2a_ledger --workload ga_paper|table1_sweep|islands_ckpt --seed N
//               --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 runs the workload untraced for S seconds and prints every
// end-to-end metric. --trace 1 runs it untraced for S/2 seconds, then
// traced over the same number of units with the per-layer measurements,
// and prints every per-layer metric; the difference of the two timed
// walls is the tracing overhead. Either way the last stdout line is
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// and the line before it the full run record (host and config
// fingerprint, samples, gate failures), also written under DIR together
// with the Chrome trace of a traced run. Exit code 1 means a correctness
// check failed, 2 a usage error.
//
//===----------------------------------------------------------------------===//

#include "Host.h"
#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <unistd.h>

using namespace ledger;

namespace {

#ifndef CA2A_LEDGER_COMPILER
#define CA2A_LEDGER_COMPILER "unknown"
#endif
#ifndef CA2A_LEDGER_FLAGS
#define CA2A_LEDGER_FLAGS "unknown"
#endif

struct LayerMetric {
  const char *Name;
  const char *Unit;
};

/// Every per-layer metric a traced run prints, on every workload: a layer
/// a workload does not exercise reads 0 (see ledger/README.md). Keep in
/// step with "per_layer" in BENCHMARK.json; ledger/run.py checks it.
const LayerMetric kLayerMetrics[] = {
    {"gen_ms.tail", "ms"},
    {"config.fields_s", "s"},
    {"sim.batch.calls", "count"},
    {"sim.batch.replicas", "count"},
    {"sim.batch.agent_steps", "count"},
    {"sim.batch.busy_s", "s"},
    {"sim.batch.replicas_per_s", "replicas/s"},
    {"sim.batch.serial_replicas_per_s", "replicas/s"},
    {"sim.batch.S.k2.agent_steps_per_s", "agent-steps/s"},
    {"sim.batch.S.k4.agent_steps_per_s", "agent-steps/s"},
    {"sim.batch.S.k8.agent_steps_per_s", "agent-steps/s"},
    {"sim.batch.S.k16.agent_steps_per_s", "agent-steps/s"},
    {"sim.batch.S.k32.agent_steps_per_s", "agent-steps/s"},
    {"sim.batch.S.k256.agent_steps_per_s", "agent-steps/s"},
    {"sim.batch.S.33x33k16.agent_steps_per_s", "agent-steps/s"},
    {"sim.batch.T.k2.agent_steps_per_s", "agent-steps/s"},
    {"sim.batch.T.k4.agent_steps_per_s", "agent-steps/s"},
    {"sim.batch.T.k8.agent_steps_per_s", "agent-steps/s"},
    {"sim.batch.T.k16.agent_steps_per_s", "agent-steps/s"},
    {"sim.batch.T.k32.agent_steps_per_s", "agent-steps/s"},
    {"sim.batch.T.k256.agent_steps_per_s", "agent-steps/s"},
    {"sim.batch.T.33x33k16.agent_steps_per_s", "agent-steps/s"},
    {"sim.batch.compile_hit_rate", "ratio"},
    {"sim.batch.steady_allocs", "count"},
    {"sim.batch.retries", "count"},
    {"sim.batch.failed", "count"},
    {"sim.batch.worker_util", "ratio"},
    {"support.pool.scaling_eff.w2", "ratio"},
    {"support.pool.scaling_eff.w3", "ratio"},
    {"support.pool.scaling_eff.w4", "ratio"},
    {"support.host.parallelism", "cores"},
    {"ga.sched.requests", "count"},
    {"ga.sched.cache_hit_rate", "ratio"},
    {"ga.sched.fields_simulated", "count"},
    {"ga.sched.fields_simulated.spread", "ratio"},
    {"ga.sched.fields_pruned", "count"},
    {"ga.sched.fields_pruned.spread", "ratio"},
    {"ga.sched.prune_rate", "ratio"},
    {"ga.sched.batches", "count"},
    {"ga.sched.batch_occupancy", "pairs/batch"},
    {"ga.sched.retries", "count"},
    {"ga.sched.quarantined", "count"},
    {"ga.sched.engine_compile_hit_rate", "ratio"},
    {"ga.sched.engine_steady_allocs", "count"},
    {"ga.init_s", "s"},
    {"ga.step_s", "s"},
    {"ga.fields_per_s", "fields/s"},
    {"ga.engine_share", "ratio"},
    {"ga.unattributed_s", "s"},
    {"ga.gens_to_solved", "count"},
    {"time_to_solved_s", "s"},
    {"ckpt.writes", "count"},
    {"ckpt.bytes", "B"},
    {"ckpt.write_ms.p50", "ms"},
    {"ckpt.read_ms.p50", "ms"},
    {"ckpt.failed", "count"},
    {"dist.rounds", "count"},
    {"dist.blocks_posted", "count"},
    {"dist.migrants_accepted", "count"},
    {"dist.block_bytes", "B"},
    {"dist.post_ms.p50", "ms"},
    {"dist.collect_ms.p50", "ms"},
    {"dist.gen_skew_ms.p50", "ms"},
    {"sim.world.replicas", "count"},
    {"sim.world.replicas_per_s", "replicas/s"},
    {"sim.world.mismatches", "count"},
    {"error_rate", "ratio"},
    {"self_s.bench", "s"},
    {"self_s.config", "s"},
    {"self_s.sim", "s"},
    {"self_s.ga", "s"},
    {"self_s.ckpt", "s"},
    {"self_s.dist", "s"},
    {"recon.wall_s", "s"},
    {"recon.attributed_s", "s"},
    {"recon.unattributed_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.overhead_share", "ratio"},
    {"trace.spans", "count"},
};

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string Out = ".bench_out";
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return false;
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = Value;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), &End);
      if (!(A.Seconds > 0.0 && A.Seconds <= 3600.0))
        return false;
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        return false;
      A.Trace = Value == "1";
    } else if (Flag == "--out") {
      A.Out = Value;
    } else {
      return false;
    }
    if (End && *End != '\0')
      return false;
  }
  return HaveWorkload;
}

using WorkloadFn = WorkloadResult (*)(const RunContext &);

WorkloadFn findWorkload(const std::string &Name) {
  if (Name == "ga_paper")
    return runGaPaper;
  if (Name == "table1_sweep")
    return runTable1Sweep;
  if (Name == "islands_ckpt")
    return runIslandsCkpt;
  return nullptr;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  WorkloadFn Run = nullptr;
  if (!parseArgs(Argc, Argv, A) || !(Run = findWorkload(A.Workload))) {
    std::fprintf(stderr,
                 "usage: ca2a_ledger --workload ga_paper|table1_sweep|"
                 "islands_ckpt --seed N --seconds S --trace 0|1 "
                 "[--out DIR]\n");
    return 2;
  }
  namespace fs = std::filesystem;
  std::error_code Ec;
  std::string Tag = A.Workload + "-" + std::to_string(A.Seed) + "-t" +
                    (A.Trace ? "1" : "0");
  fs::path WorkDir = fs::path(A.Out) / "work" /
                     (Tag + "-" + std::to_string(getpid()));
  fs::create_directories(WorkDir, Ec);
  if (Ec) {
    std::fprintf(stderr, "error: cannot create %s: %s\n",
                 WorkDir.string().c_str(), Ec.message().c_str());
    return 2;
  }

  size_t NProc = availableCpus();
  double Parallelism = measureParallelism(NProc);
  Tracer Off(false, Tag), On(true, Tag);
  RunContext Ctx;
  Ctx.Seed = A.Seed;
  Ctx.NProc = NProc;
  Ctx.WorkDir = WorkDir.string();

  WorkloadResult Main;
  MetricList Metrics;
  ErrorLedger Errors;
  std::vector<std::string> Failures;
  std::string TraceFile;
  if (!A.Trace) {
    Ctx.Seconds = A.Seconds;
    Ctx.Trace = &Off;
    Main = Run(Ctx);
    Metrics = Main.EndToEnd;
    Metrics.set("peak_rss_mb", peakRssMb(), "MiB");
  } else {
    Ctx.Seconds = A.Seconds / 2.0;
    Ctx.Trace = &Off;
    WorkloadResult Untraced = Run(Ctx);
    Errors = Untraced.Errors;
    Failures = Untraced.Failures;
    Ctx.Units = Untraced.Units;
    Ctx.Layers = true;
    Ctx.Trace = &On;
    Main = Run(Ctx);

    for (const LayerMetric &M : kLayerMetrics)
      Metrics.set(M.Name, 0.0, M.Unit);
    for (const Metric &M : Main.Layers.items()) {
      bool Known = false;
      for (const LayerMetric &K : kLayerMetrics)
        Known |= M.Name == K.Name;
      if (Known)
        Metrics.set(M.Name, M.Value, M.Unit);
      else
        std::fprintf(stderr, "warning: unlisted per-layer metric %s\n",
                     M.Name.c_str());
    }
    Metrics.set("support.host.parallelism", Parallelism, "cores");
    for (const auto &[Layer, Self] : On.selfTimeByLayer())
      Metrics.set("self_s." + Layer, Self, "s");
    Reconciliation Rec = On.reconcile(A.Workload);
    Metrics.set("recon.wall_s", Rec.WallS, "s");
    Metrics.set("recon.attributed_s", Rec.AttributedS, "s");
    Metrics.set("recon.unattributed_s", Rec.UnattributedS, "s");
    double Overhead = Main.TimedWallS - Untraced.TimedWallS;
    Metrics.set("trace.overhead_s", Overhead, "s");
    Metrics.set("trace.overhead_share", Overhead / Untraced.TimedWallS,
                "ratio");
    Metrics.set("trace.spans", static_cast<double>(On.spans().size()),
                "count");
    TraceFile = (fs::path(A.Out) / ("trace-" + Tag + ".json")).string();
    if (!On.writeChrome(TraceFile)) {
      std::fprintf(stderr, "error: cannot write %s\n", TraceFile.c_str());
      Failures.push_back("cannot write the Chrome trace");
      Errors.check(false);
    }
  }
  Errors.add(Main.Errors.Attempted, Main.Errors.Failed);
  Failures.insert(Failures.end(), Main.Failures.begin(), Main.Failures.end());
  if (A.Trace)
    Metrics.set("error_rate", Errors.rate(), "ratio");
  bool Correct = Errors.Failed == 0 && Failures.empty();

  JsonObject Fingerprint;
  Fingerprint.str("cpu_model", cpuModel())
      .num("nproc", static_cast<double>(NProc))
      .num("support.host.parallelism", Parallelism)
      .str("compiler", CA2A_LEDGER_COMPILER)
      .str("flags", CA2A_LEDGER_FLAGS)
      .str("simd_backend", Main.Backend);
  JsonObject Record;
  Record.str("workload", A.Workload)
      .num("seed", static_cast<double>(A.Seed))
      .num("seconds", A.Seconds)
      .num("trace", A.Trace)
      .raw("fingerprint", Fingerprint.toJson())
      .raw("config", Main.Record.toJson())
      .raw("end_to_end", Main.EndToEnd.toJson())
      .raw("metrics", Metrics.toJson())
      .num("error_rate", Errors.rate())
      .raw("failures", jsonStrings(Failures))
      .str("trace_file", TraceFile);
  std::string RecordJson = Record.toJson();
  std::string RecordFile =
      (fs::path(A.Out) / ("record-" + Tag + ".json")).string();
  if (std::FILE *F = std::fopen(RecordFile.c_str(), "w")) {
    std::fprintf(F, "%s\n", RecordJson.c_str());
    std::fclose(F);
  }
  fs::remove_all(WorkDir, Ec);
  for (const std::string &Msg : Failures)
    std::fprintf(stderr, "FAIL: %s\n", Msg.c_str());

  JsonObject Result;
  Result.raw("correct", Correct ? "true" : "false")
      .raw("attempted", std::to_string(Errors.Attempted))
      .raw("failed", std::to_string(Errors.Failed))
      .raw("metrics", Metrics.toJson());
  std::printf("%s\n%s\n", RecordJson.c_str(), Result.toJson().c_str());
  return Correct ? 0 : 1;
}
