//===- ledger/src/Trace.cpp - In-memory spans for the traced run ----------===//

#include "Trace.h"
#include "Record.h"

#include <chrono>
#include <cstdio>
#include <unordered_map>

using namespace ledger;

double ledger::nowS() {
  static const auto Origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Origin)
      .count();
}

Tracer::Tracer(bool Enabled, std::string RunId)
    : Enabled(Enabled), RunId(std::move(RunId)) {}

uint64_t Tracer::open(const std::string &Name, const std::string &Layer,
                      uint64_t Parent, int Track) {
  if (!Enabled)
    return 0;
  double Now = nowS();
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back({NextId, Parent, Name, Layer, Now, Now, Track});
  return NextId++;
}

void Tracer::close(uint64_t Id) {
  if (!Enabled || Id == 0)
    return;
  double Now = nowS();
  std::lock_guard<std::mutex> Lock(Mutex);
  // Ids are dense and assigned in push order.
  Spans[Id - 1].End = Now;
}

uint64_t Tracer::add(const std::string &Name, const std::string &Layer,
                     uint64_t Parent, double Start, double End, int Track) {
  if (!Enabled)
    return 0;
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back({NextId, Parent, Name, Layer, Start, End, Track});
  return NextId++;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans;
}

static std::unordered_map<uint64_t, std::vector<Interval>>
childrenOf(const std::vector<SpanRecord> &Spans) {
  std::unordered_map<uint64_t, std::vector<Interval>> Children;
  for (const SpanRecord &S : Spans)
    if (S.Parent)
      Children[S.Parent].push_back({S.Start, S.End});
  return Children;
}

std::map<std::string, double> Tracer::selfTimeByLayer() const {
  std::vector<SpanRecord> All = spans();
  auto Children = childrenOf(All);
  std::map<std::string, double> Out;
  for (const SpanRecord &S : All)
    Out[S.Layer] += selfTime({S.Start, S.End}, Children[S.Id]);
  return Out;
}

Reconciliation Tracer::reconcile(const std::string &RootName) const {
  std::vector<SpanRecord> All = spans();
  auto Children = childrenOf(All);
  Reconciliation Sum;
  for (const SpanRecord &S : All) {
    if (S.Parent || S.Name != RootName)
      continue;
    Reconciliation R = ledger::reconcile({S.Start, S.End}, Children[S.Id]);
    Sum.WallS += R.WallS;
    Sum.AttributedS += R.AttributedS;
    Sum.UnattributedS += R.UnattributedS;
  }
  return Sum;
}

bool Tracer::writeChrome(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::string Run = jsonString(RunId);
  std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"run\":%s},"
                  "\"traceEvents\":[",
               Run.c_str());
  bool First = true;
  for (const SpanRecord &S : spans()) {
    std::fprintf(F,
                 "%s\n{\"name\":%s,\"cat\":%s,\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu,\"run\":%s}}",
                 First ? "" : ",", jsonString(S.Name).c_str(),
                 jsonString(S.Layer).c_str(), S.Start * 1e6,
                 (S.End - S.Start) * 1e6, S.Track,
                 static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent), Run.c_str());
    First = false;
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}
