// Output checks the benchmark runs on every repetition. They are written
// apart from the program on purpose: modularity is recomputed here rather
// than through quality/modularity.cpp, the labels file is parsed back from
// disk, and the counter identities restate what simt/mem, simt/scoreboard
// and perfmodel promise in their headers. Each check returns an empty
// string when it passes and a one-line reason when it does not.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "perfmodel/machine.hpp"
#include "simt/counters.hpp"
#include "simt/scoreboard.hpp"

namespace e2ebench {

/// Parses a labels file as `nulpa detect --output` writes it: exactly `n`
/// lines, line v reading `v label`, every label in [0, n). Fills `labels`.
std::string read_labels(std::istream& in, nulpa::Vertex n,
                        std::vector<nulpa::Vertex>& labels);

/// Newman modularity of `labels` on the CSR of `g` (unit or float
/// weights), accumulated in long double: sum over arcs of w[c(u) == c(v)]
/// / 2m minus the sum over communities of (K_c / 2m)^2.
double recompute_modularity(const nulpa::Graph& g,
                            std::span<const nulpa::Vertex> labels);

/// The coalescer and scoreboard identities on a run's summed counters:
///   txn_32b + txn_64b + txn_128b == global_transactions
///                                == cache_hits + cache_misses
///   modeled_cycles - stall_cycles == issue_cycles_per_txn * transactions
///   stall_cycles + hidden_latency_cycles
///       == hit_cycles * cache_hits + miss_cycles * cache_misses
std::string check_counter_identities(const nulpa::simt::PerfCounters& c,
                                     const nulpa::simt::PipelineModel& p);

/// Modeled seconds must equal the sum of the cost-breakdown terms, and the
/// launch and pipeline terms must equal their values recomputed here from
/// the counters and the machine's public fields:
///   launch_s == kernel_launches * kernel_launch_s
///   pipeline_s == modeled_cycles / (sm_clock_hz * sm_count)
std::string check_cost_breakdown(double modeled_seconds,
                                 const nulpa::GpuCostBreakdown& b,
                                 const nulpa::simt::PerfCounters& c,
                                 const nulpa::MachineModel& m);

}  // namespace e2ebench
