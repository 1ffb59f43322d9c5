#include "checks.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <istream>
#include <iterator>
#include <string_view>

namespace e2ebench {

using nulpa::EdgeIndex;
using nulpa::Vertex;

namespace {

std::string line_error(std::uint64_t line, const std::string& what) {
  return "labels line " + std::to_string(line + 1) + ": " + what;
}

// Parses one unsigned decimal field at `pos`, which must be followed by
// `end_char`; advances `pos` past it.
bool parse_field(std::string_view text, std::size_t& pos, char end_char,
                 std::uint64_t& out) {
  const char* first = text.data() + pos;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec != std::errc() || ptr == first || ptr == last || *ptr != end_char) {
    return false;
  }
  pos = static_cast<std::size_t>(ptr - text.data()) + 1;
  return true;
}

}  // namespace

std::string read_labels(std::istream& in, Vertex n,
                        std::vector<Vertex>& labels) {
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  labels.assign(n, 0);
  std::size_t pos = 0;
  for (std::uint64_t v = 0; v < n; ++v) {
    if (pos >= text.size()) {
      return "labels file truncated: " + std::to_string(v) + " of " +
             std::to_string(n) + " lines";
    }
    std::uint64_t id = 0, label = 0;
    if (!parse_field(text, pos, ' ', id) ||
        !parse_field(text, pos, '\n', label)) {
      return line_error(v, "not a `vertex label` line");
    }
    if (id != v) {
      return line_error(v, "vertex " + std::to_string(id) + ", expected " +
                               std::to_string(v));
    }
    if (label >= n) {
      return line_error(v, "label " + std::to_string(label) +
                               " outside [0, " + std::to_string(n) + ")");
    }
    labels[v] = static_cast<Vertex>(label);
  }
  if (pos != text.size()) {
    return "labels file has content past line " + std::to_string(n);
  }
  return {};
}

double recompute_modularity(const nulpa::Graph& g,
                            std::span<const Vertex> labels) {
  const Vertex n = g.num_vertices();
  const auto offsets = g.offsets();
  const auto targets = g.targets();
  const auto weights = g.weights();
  std::vector<long double> community_degree(n, 0.0L);
  long double two_m = 0.0L;
  long double internal = 0.0L;
  for (Vertex u = 0; u < n; ++u) {
    for (EdgeIndex e = offsets[u]; e < offsets[u + 1]; ++e) {
      const long double w = weights[e];
      two_m += w;
      community_degree[labels[u]] += w;
      if (labels[targets[e]] == labels[u]) internal += w;
    }
  }
  if (two_m <= 0.0L) return 0.0;
  long double expected = 0.0L;
  for (const long double k : community_degree) {
    expected += (k / two_m) * (k / two_m);
  }
  return static_cast<double>(internal / two_m - expected);
}

std::string check_counter_identities(const nulpa::simt::PerfCounters& c,
                                     const nulpa::simt::PipelineModel& p) {
  const auto str = [](std::uint64_t x) { return std::to_string(x); };
  if (c.txn_32b + c.txn_64b + c.txn_128b != c.global_transactions) {
    return "txn_32b + txn_64b + txn_128b = " +
           str(c.txn_32b + c.txn_64b + c.txn_128b) +
           " != global_transactions = " + str(c.global_transactions);
  }
  if (c.cache_hits + c.cache_misses != c.global_transactions) {
    return "cache_hits + cache_misses = " + str(c.cache_hits + c.cache_misses) +
           " != global_transactions = " + str(c.global_transactions);
  }
  const std::uint64_t issue = p.issue_cycles_per_txn * c.global_transactions;
  if (c.modeled_cycles < c.stall_cycles ||
      c.modeled_cycles - c.stall_cycles != issue) {
    return "modeled_cycles - stall_cycles != issue_cycles_per_txn * "
           "global_transactions = " + str(issue);
  }
  const std::uint64_t latency = p.cache_hit_cycles * c.cache_hits +
                                p.cache_miss_cycles * c.cache_misses;
  if (c.stall_cycles + c.hidden_latency_cycles != latency) {
    return "stall_cycles + hidden_latency_cycles = " +
           str(c.stall_cycles + c.hidden_latency_cycles) +
           " != hit/miss latency sum = " + str(latency);
  }
  return {};
}

std::string check_cost_breakdown(double modeled_seconds,
                                 const nulpa::GpuCostBreakdown& b,
                                 const nulpa::simt::PerfCounters& c,
                                 const nulpa::MachineModel& m) {
  const auto near = [](double a, double want) {
    return std::abs(a - want) <= 1e-12 * std::abs(want);
  };
  const double sum = b.launch_s + b.stream_s + b.random_s + b.atomic_s +
                     b.shared_s + b.pipeline_s;
  if (!near(modeled_seconds, sum)) {
    return "modeled_seconds = " + std::to_string(modeled_seconds) +
           " != sum of cost-breakdown terms = " + std::to_string(sum);
  }
  const double launch_s =
      static_cast<double>(c.kernel_launches) * m.kernel_launch_s;
  if (!near(b.launch_s, launch_s)) {
    return "launch_s = " + std::to_string(b.launch_s) +
           " != kernel_launches * kernel_launch_s = " +
           std::to_string(launch_s);
  }
  // The scoreboard's makespan cycles spread over the modeled SMs.
  const double pipeline_s =
      static_cast<double>(c.modeled_cycles) /
      (m.sm_clock_hz * static_cast<double>(m.sm_count));
  if (!near(b.pipeline_s, pipeline_s)) {
    return "pipeline_s = " + std::to_string(b.pipeline_s) +
           " != modeled_cycles / (sm_clock_hz * sm_count) = " +
           std::to_string(pipeline_s);
  }
  return {};
}

}  // namespace e2ebench
