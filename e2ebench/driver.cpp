// Benchmark driver: one process per step, so that a crash fails one
// repetition and peak memory belongs to the one run that made it.
//
//   e2ebench_driver gen --workload W --seed S --output F.mtx
//       Generates the workload's input with the library's generators and
//       writes it as Matrix Market. Prints {"vertices", "arcs", "algo",
//       "threads"}: the workload's configuration lives only here.
//   e2ebench_driver rep --workload W --input F.mtx --labels L
//                       [--profile] [--track-memory 0] [--scoreboard 0]
//                       [--threads N] [--shards N]
//       One repetition of `nulpa detect --input F.mtx --algo A --output L`:
//       read the file, run the registry runner, write the labels. Each step
//       is timed from outside through the library's public functions; then,
//       untimed, the output is checked (checks.hpp). --profile enables the
//       span profiler for the repetition and adds the per-layer figures of
//       one run; the other flags override the workload's configuration for
//       the ablation runs. Prints one JSON object; exit code 1 on failure.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/partition.hpp"
#include "graph/stats.hpp"
#include "observe/profiler.hpp"
#include "perfmodel/machine.hpp"
#include "quality/modularity.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace {

using namespace nulpa;

// Why each workload exists is in README.md.
struct Workload {
  std::string_view name;
  std::string_view input;  // "social" or "road"
  std::string_view algo;   // registry name
  std::uint32_t shards;    // used by "sharded" only
  unsigned threads;        // simulator threads; 1 = serial backend
};

constexpr Workload kWorkloads[] = {
    {"social-nulpa", "social", "nulpa", 1, 1},
    {"road-shard4-t2", "road", "sharded", 4, 2},
};

// Ownership used by every shard plan here, and the shard count of the plan
// the traced run times on every input: those of `road-shard4-t2`.
constexpr ShardMode kShardMode = ShardMode::kHash;
constexpr std::uint32_t kPlanShards = 4;

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return w;
  }
  throw std::runtime_error("unknown --workload " + name);
}

Graph generate_input(const Workload& w, std::uint64_t seed) {
  if (w.input == "social") return generate_web(100000, 12, 0.85, seed, 48);
  return generate_road(1000, 1000, 0.0, seed);
}

RunOptions options_for(const Workload& w, const CliArgs& args) {
  const auto threads =
      static_cast<unsigned>(args.get_int("threads", w.threads));
  if (threads > std::max(1u, std::thread::hardware_concurrency())) {
    throw std::runtime_error("--threads exceeds the hardware threads");
  }
  simt::ExecPolicy exec = threads <= 1 ? simt::ExecPolicy::serial()
                                       : simt::ExecPolicy::parallel(threads);
  exec.track_memory = args.get_bool("track-memory", exec.track_memory);
  exec.scoreboard = args.get_bool("scoreboard", exec.scoreboard);

  RunOptions opts;
  opts.exec = exec;
  opts.nulpa.exec = exec;
  opts.sharded = opts.sharded.with_exec(exec)
                     .with_shards(static_cast<std::uint32_t>(
                         args.get_int("shards", w.shards)))
                     .with_shard_mode(kShardMode);
  return opts;
}

const simt::PipelineModel& pipeline_of(const Workload& w,
                                       const RunOptions& opts) {
  return w.algo == "sharded" ? opts.sharded.launch.pipeline
                             : opts.nulpa.launch.pipeline;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // from KiB
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void print_json(const std::map<std::string, double>& values,
                const std::map<std::string, double>& layers) {
  for (const auto* m : {&values, &layers}) {
    for (const auto& [key, value] : *m) {
      if (!std::isfinite(value)) throw std::runtime_error("non-finite " + key);
    }
  }
  const auto emit = [](const std::map<std::string, double>& m) {
    bool first = true;
    for (const auto& [key, value] : m) {
      std::printf("%s\"%s\":%.17g", first ? "" : ",", key.c_str(), value);
      first = false;
    }
  };
  std::printf("{\"ok\":true,");
  emit(values);
  std::printf(",\"layers\":{");
  emit(layers);
  std::printf("}}\n");
}

int cmd_gen(const CliArgs& args) {
  const Workload& w = find_workload(args.get("workload", ""));
  const std::string out = args.get("output", "");
  if (out.empty()) throw std::runtime_error("--output is required");
  const Graph g = generate_input(
      w, static_cast<std::uint64_t>(args.get_int("seed", 1)));
  write_matrix_market_file(out, g);
  std::printf("{\"vertices\":%u,\"arcs\":%llu,\"algo\":\"%s\","
              "\"threads\":%u}\n",
              g.num_vertices(), static_cast<unsigned long long>(g.num_edges()),
              std::string(w.algo).c_str(), w.threads);
  return 0;
}

struct SpanTotals {
  std::map<std::string, double> seconds;  // summed durations per name
  std::map<std::string, double> count;
};

SpanTotals drain_spans() {
  SpanTotals t;
  for (const observe::ProfSpanRecord& rec :
       observe::ProfilerRegistry::instance().drain()) {
    t.seconds[rec.name] += static_cast<double>(rec.dur_ns) * 1e-9;
    t.count[rec.name] += 1.0;
  }
  return t;
}

// Per-layer figures of one traced run. Ablation-derived figures (memory
// model and scoreboard host time, speedup, tracing overhead) are combined
// from several runs by run.py.
std::map<std::string, double> layer_figures(const Graph& g,
                                            const RunReport& r,
                                            const std::string& input,
                                            double load_s, double write_s) {
  SpanTotals totals = drain_spans();
  std::map<std::string, double>& spans = totals.seconds;
  const simt::PerfCounters& c = r.counters;
  const double arcs = static_cast<double>(g.num_edges());
  std::map<std::string, double> m;

  m["graph.load_s"] = load_s;
  m["graph.load_mb_per_s"] =
      ratio(static_cast<double>(std::filesystem::file_size(input)) / 1e6,
            load_s);
  m["graph.write_s"] = write_s;
  Timer plan_timer;
  const ShardPlan plan = make_shard_plan(g, kPlanShards, kShardMode);
  m["graph.plan_s"] = plan_timer.seconds();
  const PartitionStats ps = compute_partition_stats(g, plan);
  m["graph.cut_arcs"] = static_cast<double>(ps.cut_arcs);
  m["graph.replication"] = ps.replication_factor;

  m["core.iterations"] = r.iterations;
  m["core.edges_scanned"] = static_cast<double>(r.edges_scanned);
  m["core.frontier_vertices"] = static_cast<double>(c.frontier_vertices);
  // The sharded runner's kernel is its own thread-per-vertex kernel,
  // launched per shard ("shard.launch"); it has no block-per-vertex kernel.
  m["core.tpv_s"] = spans["tpv"] + spans["shard.launch"];
  m["core.bpv_s"] = spans["bpv"];

  m["simt.launch_s"] = spans["simt.launch"];
  // Host launches of the simulator (frontier windows included), not the
  // modeled kernel_launches counter.
  m["simt.launches"] = totals.count["simt.launch"];
  m["simt.fiberless_lanes"] = static_cast<double>(c.fiberless_lanes);
  m["simt.ns_per_lane"] =
      ratio(spans["simt.launch"] * 1e9, static_cast<double>(c.threads_run));
  m["simt.pass_s"] = spans["simt.pass"];
  m["simt.fiber_switches"] = static_cast<double>(c.fiber_switches);
  m["simt.promoted_lanes"] = static_cast<double>(c.promoted_lanes);

  m["simt.mem.tracked"] = static_cast<double>(c.tracked_accesses);
  m["simt.mem.txns"] = static_cast<double>(c.global_transactions);
  m["simt.mem.txn_per_arc"] =
      ratio(static_cast<double>(c.global_transactions), arcs);
  m["simt.mem.cache_hit_ratio"] =
      ratio(static_cast<double>(c.cache_hits),
            static_cast<double>(c.cache_hits + c.cache_misses));
  m["simt.mem.coalesced_ratio"] =
      ratio(static_cast<double>(c.coalesced_accesses),
            static_cast<double>(c.tracked_accesses));

  m["simt.sb.replay_s"] = spans["simt.replay"];
  m["simt.sb.modeled_cycles"] = static_cast<double>(c.modeled_cycles);
  m["simt.sb.stall_cycles"] = static_cast<double>(c.stall_cycles);
  m["simt.sb.hidden_ratio"] =
      ratio(static_cast<double>(c.hidden_latency_cycles),
            static_cast<double>(c.hidden_latency_cycles + c.stall_cycles));

  const HashStats& h = r.hash_stats;
  m["hash.probes_per_insert"] = ratio(static_cast<double>(h.probes),
                                      static_cast<double>(h.inserts));
  m["hash.fallbacks"] = static_cast<double>(h.fallbacks);

  m["comm.host_s"] = spans["exchange.barrier"];
  m["comm.exchanged_labels"] = static_cast<double>(c.exchanged_labels);
  m["comm.exchange_bytes"] = static_cast<double>(c.exchange_bytes);
  m["comm.mirror_updates"] = static_cast<double>(c.mirror_updates);
  m["parallel.pool_job_s"] = spans["pool.job"];

  const GpuCostBreakdown b = modeled_gpu_breakdown(a100(), c);
  m["perfmodel.launch_s"] = b.launch_s;
  m["perfmodel.stream_s"] = b.stream_s;
  m["perfmodel.atomic_s"] = b.atomic_s;
  m["perfmodel.pipeline_s"] = b.pipeline_s;
  return m;
}

// Untimed checks of one repetition's output; "" when all pass.
std::string check_output(const Graph& g, const RunReport& r,
                         const simt::PipelineModel& pipeline,
                         const std::string& labels_path, double q) {
  std::ifstream in(labels_path, std::ios::binary);
  if (!in) return "cannot reopen labels file " + labels_path;
  std::vector<Vertex> labels;
  if (std::string e = e2ebench::read_labels(in, g.num_vertices(), labels);
      !e.empty()) {
    return e;
  }
  if (labels != r.labels) return "labels file differs from the run's labels";
  const double q2 = e2ebench::recompute_modularity(g, labels);
  if (!(std::abs(q2 - q) <= 1e-9)) {
    char msg[96];
    std::snprintf(msg, sizeof msg, "modularity %.15g != recomputed %.15g", q,
                  q2);
    return msg;
  }
  if (!r.has_counters) return "run reported no simulator counters";
  if (std::string e = e2ebench::check_counter_identities(r.counters, pipeline);
      !e.empty()) {
    return e;
  }
  return e2ebench::check_cost_breakdown(
      r.modeled_seconds, modeled_gpu_breakdown(a100(), r.counters),
      r.counters, a100());
}

int cmd_rep(const CliArgs& args) {
  const Workload& w = find_workload(args.get("workload", ""));
  const std::string input = args.get("input", "");
  const std::string labels_path = args.get("labels", "");
  if (input.empty() || labels_path.empty()) {
    throw std::runtime_error("--input and --labels are required");
  }
  const bool profile = args.get_bool("profile", false);
  const RunOptions opts = options_for(w, args);
  const AlgorithmInfo* algo = find_algorithm(w.algo);
  if (algo == nullptr) throw std::runtime_error("algorithm not registered");
  apply_threads(opts.exec);

  if (profile) observe::ProfilerRegistry::instance().enable();
  Timer wall;
  const Graph g = read_matrix_market_file(input);
  const double load_s = wall.seconds();
  Timer run_timer;
  const RunReport r = algo->run(g, opts);
  const double run_s = run_timer.seconds();
  Timer write_timer;
  {
    std::ofstream os(labels_path);
    if (!os) throw std::runtime_error("cannot open for write: " + labels_path);
    for (std::size_t v = 0; v < r.labels.size(); ++v) {
      os << v << ' ' << r.labels[v] << '\n';
    }
    os.close();
    if (!os) throw std::runtime_error("failed writing " + labels_path);
  }
  const double write_s = write_timer.seconds();
  const double wall_s = wall.seconds();
  const double rss_mb = peak_rss_mb();
  if (profile) observe::ProfilerRegistry::instance().disable();

  const double q = modularity(g, r.labels);
  if (const std::string e =
          check_output(g, r, pipeline_of(w, opts), labels_path, q);
      !e.empty()) {
    throw std::runtime_error("check failed: " + e);
  }

  std::map<std::string, double> values{
      {"load_s", load_s},
      {"run_s", run_s},
      {"wall_s", wall_s},
      {"peak_rss_mb", rss_mb},
      {"modeled_s", r.modeled_seconds},
      {"modularity", q},
  };
  std::map<std::string, double> layers;
  if (profile) layers = layer_figures(g, r, input, load_s, write_s);
  print_json(values, layers);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: e2ebench_driver gen|rep ...\n");
    return 2;
  }
  const std::string command = argv[1];
  const CliArgs args(argc - 1, argv + 1);
  try {
    if (command == "gen") return cmd_gen(args);
    if (command == "rep") return cmd_rep(args);
    throw std::runtime_error("unknown command " + command);
  } catch (const std::exception& e) {
    std::printf("{\"ok\":false,\"error\":\"%s\"}\n",
                json_escape(e.what()).c_str());
    return 1;
  }
}
