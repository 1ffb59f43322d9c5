// Tests of the benchmark's own output checks: they must accept a correct
// output whose figures are known by hand and reject each kind of damage
// the benchmark is there to catch.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <utility>

#include "checks.hpp"

namespace {

using nulpa::EdgeIndex;
using nulpa::Graph;
using nulpa::Vertex;

// CSR with both arcs of every undirected unit-weight edge.
Graph undirected(Vertex n,
                 const std::vector<std::pair<Vertex, Vertex>>& edges) {
  std::vector<std::vector<Vertex>> adj(n);
  for (const auto& [u, v] : edges) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  std::vector<EdgeIndex> offsets{0};
  std::vector<Vertex> targets;
  for (auto& row : adj) {
    std::sort(row.begin(), row.end());
    targets.insert(targets.end(), row.begin(), row.end());
    offsets.push_back(targets.size());
  }
  std::vector<nulpa::Weight> weights(targets.size(), 1.0f);
  return Graph(std::move(offsets), std::move(targets), std::move(weights));
}

// Four 4-cliques in a ring, clique c on vertices 4c..4c+3, joined by the
// bridges {4c+3, 4(c+1) mod 16}.
Graph ring_of_cliques() {
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex c = 0; c < 4; ++c) {
    for (Vertex a = 0; a < 4; ++a) {
      for (Vertex b = a + 1; b < 4; ++b) {
        edges.emplace_back(4 * c + a, 4 * c + b);
      }
    }
    edges.emplace_back(4 * c + 3, (4 * c + 4) % 16);
  }
  return undirected(16, edges);
}

std::string labels_text(const std::vector<Vertex>& labels) {
  std::ostringstream os;
  for (std::size_t v = 0; v < labels.size(); ++v) {
    os << v << ' ' << labels[v] << '\n';
  }
  return os.str();
}

std::vector<Vertex> clique_labels() {
  std::vector<Vertex> labels(16);
  for (Vertex v = 0; v < 16; ++v) labels[v] = 4 * (v / 4);
  return labels;
}

TEST(Checks, AcceptsRingOfCliquesWithHandComputedModularity) {
  const Graph g = ring_of_cliques();
  ASSERT_EQ(g.num_edges(), 2u * 28u);
  std::istringstream in(labels_text(clique_labels()));
  std::vector<Vertex> labels;
  ASSERT_EQ(e2ebench::read_labels(in, 16, labels), "");
  EXPECT_EQ(labels, clique_labels());
  // m = 4*6 + 4 = 28; each clique holds 6 edges and degree sum 14:
  // Q = 4 * (6/28 - (14/56)^2) = 6/7 - 1/4 = 17/28.
  EXPECT_NEAR(e2ebench::recompute_modularity(g, labels), 17.0 / 28.0, 1e-12);
  // One community holding everything has Q = 0; singletons have
  // Q = -sum_v (d_v / 2m)^2 = -(8 * 9 + 8 * 16) / 56^2.
  EXPECT_NEAR(e2ebench::recompute_modularity(g, std::vector<Vertex>(16, 0)),
              0.0, 1e-12);
  std::vector<Vertex> singletons(16);
  for (Vertex v = 0; v < 16; ++v) singletons[v] = v;
  EXPECT_NEAR(e2ebench::recompute_modularity(g, singletons),
              -200.0 / 3136.0, 1e-12);
}

TEST(Checks, RejectsTruncatedLabelsFile) {
  std::string text = labels_text(clique_labels());
  std::vector<Vertex> labels;
  const std::string missing_line =
      text.substr(0, text.rfind('\n', text.size() - 2) + 1);
  std::istringstream short_in(missing_line);
  EXPECT_NE(e2ebench::read_labels(short_in, 16, labels), "");
  std::istringstream cut_in(text.substr(0, text.size() - 1));  // no newline
  EXPECT_NE(e2ebench::read_labels(cut_in, 16, labels), "");
  std::istringstream empty_in("");
  EXPECT_NE(e2ebench::read_labels(empty_in, 16, labels), "");
  std::istringstream long_in(text + "16 0\n");
  EXPECT_NE(e2ebench::read_labels(long_in, 16, labels), "");
}

TEST(Checks, RejectsOutOfRangeLabelAndMisnumberedLine) {
  std::vector<Vertex> bad = clique_labels();
  bad[5] = 16;
  std::vector<Vertex> labels;
  std::istringstream range_in(labels_text(bad));
  EXPECT_NE(e2ebench::read_labels(range_in, 16, labels).find("outside"),
            std::string::npos);
  std::string swapped = labels_text(clique_labels());
  swapped.replace(swapped.find("\n2 "), 3, "\n9 ");
  std::istringstream id_in(swapped);
  EXPECT_NE(e2ebench::read_labels(id_in, 16, labels), "");
  std::istringstream junk_in("0 x\n");
  EXPECT_NE(e2ebench::read_labels(junk_in, 1, labels), "");
}

// A counter set that satisfies every identity under the default model:
// 10 transactions, 6 hits and 4 misses cost 6*40 + 4*320 = 1520 latency
// cycles, of which 1000 stall and 520 hide; the makespan is 10 + 1000.
nulpa::simt::PerfCounters consistent_counters() {
  nulpa::simt::PerfCounters c;
  c.global_transactions = 10;
  c.txn_32b = 3;
  c.txn_64b = 2;
  c.txn_128b = 5;
  c.cache_hits = 6;
  c.cache_misses = 4;
  c.stall_cycles = 1000;
  c.hidden_latency_cycles = 520;
  c.modeled_cycles = 1010;
  return c;
}

TEST(Checks, CounterIdentitiesAcceptConsistentAndRejectBrokenSets) {
  const nulpa::simt::PipelineModel p{};
  EXPECT_EQ(e2ebench::check_counter_identities(consistent_counters(), p), "");
  EXPECT_EQ(e2ebench::check_counter_identities({}, p), "");

  auto broken = consistent_counters();
  broken.txn_64b += 1;  // size histogram no longer sums to the total
  EXPECT_NE(e2ebench::check_counter_identities(broken, p), "");
  broken = consistent_counters();
  broken.cache_misses += 1;  // cache verdicts no longer cover every txn
  EXPECT_NE(e2ebench::check_counter_identities(broken, p), "");
  broken = consistent_counters();
  broken.modeled_cycles += 1;  // makespan != issue + stall
  EXPECT_NE(e2ebench::check_counter_identities(broken, p), "");
  broken = consistent_counters();
  broken.hidden_latency_cycles -= 1;  // stall + hidden != latency
  EXPECT_NE(e2ebench::check_counter_identities(broken, p), "");
  broken = consistent_counters();
  broken.stall_cycles = 2000;  // more stall than makespan
  EXPECT_NE(e2ebench::check_counter_identities(broken, p), "");
}

TEST(Checks, CostBreakdownMustSumAndMatchItsCounters) {
  const nulpa::MachineModel m = nulpa::a100();
  nulpa::simt::PerfCounters c = consistent_counters();
  c.kernel_launches = 7;
  nulpa::GpuCostBreakdown b;
  b.launch_s = 7 * m.kernel_launch_s;
  b.stream_s = 2e-4;
  b.pipeline_s =
      static_cast<double>(c.modeled_cycles) / (m.sm_clock_hz * m.sm_count);
  EXPECT_EQ(e2ebench::check_cost_breakdown(b.total(), b, c, m), "");
  EXPECT_NE(e2ebench::check_cost_breakdown(b.total() * 1.001, b, c, m), "");
  EXPECT_NE(
      e2ebench::check_cost_breakdown(b.total() - b.launch_s, b, c, m), "");
  // A breakdown that sums but no longer follows its counters.
  nulpa::GpuCostBreakdown off = b;
  off.pipeline_s *= 2;
  EXPECT_NE(e2ebench::check_cost_breakdown(off.total(), off, c, m), "");
  off = b;
  off.launch_s += m.kernel_launch_s;
  EXPECT_NE(e2ebench::check_cost_breakdown(off.total(), off, c, m), "");
}

}  // namespace
