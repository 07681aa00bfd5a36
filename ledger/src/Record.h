//===- ledger/src/Record.h - Metrics and the JSON run record ----*- C++ -*-===//
//
// Part of the ca2a project: reproduction of Hoffmann & Désérable,
// "CA Agents for All-to-All Communication Are Faster in the Triangulate
// Grid" (PaCT 2013).
//
//===----------------------------------------------------------------------===//

#ifndef CA2A_LEDGER_RECORD_H
#define CA2A_LEDGER_RECORD_H

#include <string>
#include <utility>
#include <vector>

namespace ledger {

/// One named number with its unit, as printed in the result line.
struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// Ordered metric list; set() replaces an existing name.
class MetricList {
public:
  void set(const std::string &Name, double Value, const std::string &Unit);
  const std::vector<Metric> &items() const { return Items; }
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string toJson() const;

private:
  std::vector<Metric> Items;
};

/// Insertion-ordered JSON object built from raw JSON values.
class JsonObject {
public:
  JsonObject &raw(const std::string &Key, const std::string &Json);
  JsonObject &str(const std::string &Key, const std::string &Value);
  JsonObject &num(const std::string &Key, double Value);
  std::string toJson() const;

private:
  std::vector<std::pair<std::string, std::string>> Fields;
};

std::string jsonString(const std::string &S);
/// Shortest round-trip decimal form ("null" for NaN/inf).
std::string jsonNumber(double V);
std::string jsonArray(const std::vector<double> &V);

std::string jsonStrings(const std::vector<std::string> &V);
/// {"n", "q1", "median", "q3"} of a sample.
std::string jsonSummary(const std::vector<double> &V);

} // namespace ledger

#endif // CA2A_LEDGER_RECORD_H
