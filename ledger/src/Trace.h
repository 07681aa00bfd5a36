//===- ledger/src/Trace.h - In-memory spans for the traced run --*- C++ -*-===//
//
// Part of the ca2a project: reproduction of Hoffmann & Désérable,
// "CA Agents for All-to-All Communication Are Faster in the Triangulate
// Grid" (PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the benchmark records around each public call it makes into the
/// library (name, layer, start, end, parent, run id). They stay in memory
/// and are written once, at exit, as Chrome trace-event JSON, which opens
/// in Perfetto or chrome://tracing. A disabled tracer records nothing.
///
//===----------------------------------------------------------------------===//

#ifndef CA2A_LEDGER_TRACE_H
#define CA2A_LEDGER_TRACE_H

#include "Stats.h"

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ledger {

/// Seconds on the steady clock since the first call in this process.
double nowS();

struct SpanRecord {
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 for a root span.
  std::string Name;
  std::string Layer;
  double Start = 0.0;
  double End = 0.0;
  int Track = 0; ///< Chrome "tid": islands get one track each.
};

class Tracer {
public:
  Tracer(bool Enabled, std::string RunId);

  /// Opens a span now; returns its id, or 0 when disabled.
  uint64_t open(const std::string &Name, const std::string &Layer,
                uint64_t Parent, int Track = 0);
  void close(uint64_t Id);
  /// Records an already finished span (e.g. one whose start the
  /// benchmark infers from the previous callback on the same track).
  uint64_t add(const std::string &Name, const std::string &Layer,
               uint64_t Parent, double Start, double End, int Track = 0);

  std::vector<SpanRecord> spans() const;
  /// Self time summed per layer over every recorded span.
  std::map<std::string, double> selfTimeByLayer() const;
  /// Every root span named \p RootName against the union of its direct
  /// children, summed over those roots.
  Reconciliation reconcile(const std::string &RootName) const;
  [[nodiscard]] bool writeChrome(const std::string &Path) const;

private:
  bool Enabled;
  std::string RunId;
  mutable std::mutex Mutex; // Guards Spans and NextId.
  std::vector<SpanRecord> Spans;
  uint64_t NextId = 1;
};

/// RAII span on a tracer (no-op when the tracer is disabled).
class Span {
public:
  Span(Tracer &T, const std::string &Name, const std::string &Layer,
       uint64_t Parent = 0, int Track = 0)
      : T(T), Id(T.open(Name, Layer, Parent, Track)) {}
  ~Span() { T.close(Id); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  uint64_t id() const { return Id; }

private:
  Tracer &T;
  uint64_t Id;
};

} // namespace ledger

#endif // CA2A_LEDGER_TRACE_H
