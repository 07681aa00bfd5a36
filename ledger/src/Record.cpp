//===- ledger/src/Record.cpp - Metrics and the JSON run record ------------===//

#include "Record.h"
#include "Stats.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace ledger;

void MetricList::set(const std::string &Name, double Value,
                     const std::string &Unit) {
  for (Metric &M : Items)
    if (M.Name == Name) {
      M.Value = Value;
      M.Unit = Unit;
      return;
    }
  Items.push_back({Name, Value, Unit});
}

std::string MetricList::toJson() const {
  std::string Out = "{";
  for (size_t I = 0; I != Items.size(); ++I) {
    const Metric &M = Items[I];
    Out += (I ? ", " : "") + jsonString(M.Name) + ": {\"value\": " +
           jsonNumber(M.Value) + ", \"unit\": " + jsonString(M.Unit) + "}";
  }
  return Out + "}";
}

JsonObject &JsonObject::raw(const std::string &Key, const std::string &Json) {
  Fields.emplace_back(Key, Json);
  return *this;
}
JsonObject &JsonObject::str(const std::string &Key, const std::string &Value) {
  return raw(Key, jsonString(Value));
}
JsonObject &JsonObject::num(const std::string &Key, double Value) {
  return raw(Key, jsonNumber(Value));
}

std::string JsonObject::toJson() const {
  std::string Out = "{";
  for (size_t I = 0; I != Fields.size(); ++I)
    Out += (I ? ", " : "") + jsonString(Fields[I].first) + ": " +
           Fields[I].second;
  return Out + "}";
}

std::string ledger::jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string ledger::jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[32];
  for (int Precision = 6; Precision <= 17; ++Precision) {
    std::snprintf(Buf, sizeof(Buf), "%.*g", Precision, V);
    if (std::strtod(Buf, nullptr) == V)
      break;
  }
  return Buf;
}

std::string ledger::jsonArray(const std::vector<double> &V) {
  std::string Out = "[";
  for (size_t I = 0; I != V.size(); ++I)
    Out += (I ? ", " : "") + jsonNumber(V[I]);
  return Out + "]";
}

std::string ledger::jsonStrings(const std::vector<std::string> &V) {
  std::string Out = "[";
  for (size_t I = 0; I != V.size(); ++I)
    Out += (I ? ", " : "") + jsonString(V[I]);
  return Out + "]";
}

std::string ledger::jsonSummary(const std::vector<double> &V) {
  std::array<double, 3> Q = quartiles(V);
  return "{\"n\": " + std::to_string(V.size()) +
         ", \"q1\": " + jsonNumber(Q[0]) + ", \"median\": " +
         jsonNumber(median(V)) + ", \"q3\": " + jsonNumber(Q[2]) + "}";
}
