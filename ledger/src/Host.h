//===- ledger/src/Host.h - Host fingerprint ---------------------*- C++ -*-===//
//
// Part of the ca2a project: reproduction of Hoffmann & Désérable,
// "CA Agents for All-to-All Communication Are Faster in the Triangulate
// Grid" (PaCT 2013).
//
//===----------------------------------------------------------------------===//

#ifndef CA2A_LEDGER_HOST_H
#define CA2A_LEDGER_HOST_H

#include <cstddef>
#include <string>

namespace ledger {

/// "model name" of the first CPU in /proc/cpuinfo, or "unknown".
std::string cpuModel();

/// CPUs this process may run on (what nproc prints).
size_t availableCpus();

/// Peak resident set size of this process so far (VmHWM), in MiB.
double peakRssMb();

/// Effective parallelism of the host: N * t1 / tN, where t1 is the time
/// one thread takes for a fixed spin loop alone and tN the time N threads
/// take running the same loop each at once (fastest of five each). N on
/// a host with N real cores; lower when cores are shared or throttled.
double measureParallelism(size_t N);

} // namespace ledger

#endif // CA2A_LEDGER_HOST_H
