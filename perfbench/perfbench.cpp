// The repo benchmark program: runs one named workload for a wall-clock
// budget and prints its end-to-end metrics (untraced mode) or its
// per-layer metrics and layer-budget table (traced mode), followed by one
// JSON result line. Closed loop: one simulation at a time on one thread.
//
//   perfbench --workload paper_k6 --seed 1 --seconds 10 --trace 0
//
// perfbench/run.py builds this binary and is the intended entry point; see
// perfbench/README.md.
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "dsrt/core/parallel_strategies.hpp"
#include "dsrt/core/serial_strategies.hpp"
#include "dsrt/obs/attribution.hpp"
#include "dsrt/obs/tee.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/system/simulation.hpp"
#include "dsrt/workload/service.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

using namespace dsrt;

// --- workloads -------------------------------------------------------------

struct Workload {
  const char* name;
  double horizon;       ///< simulated time of one run
  double tiny_horizon;  ///< --size tiny (self-test)
};

// Why each workload was chosen is recorded in BENCHMARK.json (run.py prints
// it with every result) and in README.md.
const Workload kWorkloads[] = {
    {"paper_k6", 1e6, 2e3},
    {"scale_k4096_pod", 240, 2},
    {"bursty_faults_k64", 4e4, 400},
};

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return w;
  std::string known;
  for (const Workload& w : kWorkloads) known += std::string(" ") + w.name;
  throw std::invalid_argument("unknown workload '" + name + "' (known:" +
                              known + ")");
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The workload's Config; its inputs are a pure function of `seed`.
system::Config make_config(const Workload& w, std::uint64_t seed, bool tiny) {
  system::Config cfg;
  const std::string name = w.name;
  if (name == "paper_k6") {
    cfg = system::baseline_ssp();
    cfg.ssp = core::make_eqf();
    cfg.load = 0.5;
  } else if (name == "scale_k4096_pod") {
    cfg = system::baseline_ssp();
    cfg.nodes = 4096;
    cfg.load = 0.5;
    cfg.placement = core::PlacementSpec::parse("pod:2");
    cfg.load_model = core::LoadModelSpec::parse("exact");
  } else {
    cfg = system::baseline_combined();
    cfg.nodes = 64;
    cfg.load = 0.6;
    cfg.ssp = core::make_eqf();
    cfg.psp = core::parallel_strategy_by_name("DIVA");
    cfg.arrivals = workload::ArrivalSpec::parse("mmpp:1.5,0.5");
    cfg.subtask_exec =
        workload::ServiceSpec::parse("h2:4").make(cfg.subtask_exec->mean());
    cfg.preemption = sched::PreemptionMode::Preemptive;
    cfg.faults = fault::FaultSpec::parse("crash:2000,20;retry:2;shed:1.2");
    cfg.placement = core::PlacementSpec::parse("jsq-pex");
    cfg.load_model = core::LoadModelSpec::parse("sampled:1");
  }
  cfg.horizon = tiny ? w.tiny_horizon : w.horizon;
  cfg.seed = splitmix64(seed);
  cfg.validate();
  return cfg;
}

// --- correctness: fingerprints and conservation ------------------------------

/// Counts the task lifecycle events of both classes, independently of the
/// metrics' own counters.
class Ledger final : public system::Observer {
 public:
  void on_local_submitted(core::NodeId, const sched::Job&,
                          sim::Time) override {
    ++local_submitted;
  }
  void on_global_arrival(core::TaskId, const core::TaskSpec&, sim::Time,
                         sim::Time) override {
    ++global_arrivals;
  }
  void on_job_disposed(const sched::Job& job, sim::Time,
                       sched::JobOutcome) override {
    if (job.cls == core::TaskClass::Local) ++local_disposed;
  }
  void on_global_finished(core::TaskId, sim::Time, bool) override {
    ++global_finished;
  }
  void on_global_aborted(core::TaskId, sim::Time) override { ++global_ended; }
  void on_global_failed(core::TaskId, sim::Time) override { ++global_ended; }
  void on_global_shed(core::TaskId, sim::Time) override { ++global_ended; }

  std::int64_t local_submitted = 0;
  std::int64_t local_disposed = 0;
  std::int64_t global_arrivals = 0;
  std::int64_t global_finished = 0;
  std::int64_t global_ended = 0;  ///< aborted + failed + shed
};

struct ClassCounts {
  std::int64_t generated = 0, completed = 0, aborted = 0, failed = 0,
               shed = 0, trials = 0;
  std::int64_t terminal() const { return completed + aborted + failed + shed; }
};

ClassCounts counts_of(const system::ClassMetrics& m) {
  ClassCounts c;
  c.generated = static_cast<std::int64_t>(m.generated);
  c.completed = static_cast<std::int64_t>(m.response.count());
  c.aborted = static_cast<std::int64_t>(m.aborted);
  c.failed = static_cast<std::int64_t>(m.failed);
  c.shed = static_cast<std::int64_t>(m.shed);
  c.trials = static_cast<std::int64_t>(m.missed.trials());
  return c;
}

/// Exact per-class conservation, generated = finished + aborted + failed +
/// shed + in-flight, with the in-flight count of each class taken from the
/// run's observer ledger.
std::vector<std::string> conservation_errors(const ClassCounts& local,
                                             const ClassCounts& global,
                                             const Ledger& ledger) {
  std::vector<std::string> errors;
  auto expect = [&errors](bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  };
  expect(local.trials == local.terminal(),
         "local: trials != completed+aborted+failed+shed");
  expect(global.trials == global.terminal(),
         "global: trials != completed+aborted+failed+shed");
  expect(local.generated == ledger.local_submitted + local.shed,
         "local: generated != submitted + shed");
  expect(local.generated - local.terminal() ==
             ledger.local_submitted - ledger.local_disposed,
         "local: generated != finished+aborted+failed+shed+in-flight");
  expect(global.generated == ledger.global_arrivals,
         "global: generated != arrivals");
  expect(global.completed == ledger.global_finished,
         "global: completed != finished events");
  expect(global.generated - global.terminal() ==
             ledger.global_arrivals - ledger.global_finished -
                 ledger.global_ended,
         "global: generated != finished+aborted+failed+shed+in-flight");
  return errors;
}

/// Bitwise fingerprint of a run's headline metrics (hexfloats round-trip).
std::string fingerprint(const system::RunMetrics& m) {
  char buf[640];
  std::snprintf(
      buf, sizeof buf,
      "md_local=%a md_global=%a resp_local=%a resp_global=%a wait_local=%a "
      "wait_sub=%a util=%a events=%" PRIu64 " local=%" PRIu64 "/%" PRIu64
      "/%" PRIu64 "/%" PRIu64 "/%" PRIu64 " global=%" PRIu64 "/%" PRIu64
      "/%" PRIu64 "/%" PRIu64 "/%" PRIu64,
      m.local.missed.value(), m.global.missed.value(),
      m.local.response.mean(), m.global.response.mean(), m.local_wait.mean(),
      m.subtask_wait.mean(), m.mean_utilization, m.events, m.local.generated,
      m.local.response.count(), m.local.aborted, m.local.failed, m.local.shed,
      m.global.generated, m.global.response.count(), m.global.aborted,
      m.global.failed, m.global.shed);
  return buf;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

// --- machine ---------------------------------------------------------------

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

// --- options ---------------------------------------------------------------

enum class Corrupt { None, Fingerprint, Conservation };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  Corrupt corrupt = Corrupt::None;
  std::string revision = "unknown";
  std::string out_dir = ".";
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
      if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (key == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (key == "--size") {
      if (value != "full" && value != "tiny")
        throw std::invalid_argument("--size takes full or tiny");
      o.tiny = value == "tiny";
    } else if (key == "--corrupt") {
      if (value == "none") o.corrupt = Corrupt::None;
      else if (value == "fingerprint") o.corrupt = Corrupt::Fingerprint;
      else if (value == "conservation") o.corrupt = Corrupt::Conservation;
      else throw std::invalid_argument("--corrupt takes none, fingerprint "
                                       "or conservation");
    } else if (key == "--revision") {
      o.revision = value;
    } else if (key == "--out") {
      o.out_dir = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  return o;
}

// --- reporting -------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

using MetricMap = std::map<std::string, Metric>;

struct RunCount {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

void print_header(const Options& o, const Workload& w,
                  const system::Config& cfg) {
  std::printf("perfbench workload=%s seed=%" PRIu64 " mode=%s size=%s\n",
              w.name, o.seed, o.trace ? "traced" : "untraced",
              o.tiny ? "tiny" : "full");
  std::printf("  config: %s\n", cfg.describe().c_str());
  std::printf("  machine: cpu=\"%s\" nproc=%ld compiler=\"%s\" build=%s "
              "lto=%s revision=%s\n",
              cpu_model().c_str(), sysconf(_SC_NPROCESSORS_ONLN),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              PERFBENCH_LTO ? "on" : "off", o.revision.c_str());
  std::printf("  load model: closed loop, one simulation at a time on one "
              "thread\n");
}

void print_result(bool correct, const RunCount& t, const MetricMap& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              correct ? "true" : "false", t.attempted, t.failed);
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

/// One timed run of run(); construction is not timed here.
struct Sample {
  double run_s = 0;
  double tasks = 0;
  std::string fingerprint;
};

Sample timed_run(const system::Config& cfg) {
  Sample s;
  system::SimulationRun run(cfg, 0);
  const auto t0 = Clock::now();
  const system::RunMetrics m = run.run();
  s.run_s = seconds_since(t0);
  s.tasks = static_cast<double>(m.local.generated + m.global.generated);
  s.fingerprint = fingerprint(m);
  return s;
}

/// One setup_s sample: back-to-back constructions timed together for at
/// least `kSetupBatchSeconds`, divided by their count. A k=6 construction
/// takes about a microsecond, so one timed alone is mostly timer and
/// first-touch noise.
constexpr double kSetupBatchSeconds = 0.05;

double setup_sample(const system::Config& cfg) {
  std::size_t built = 0;
  const auto t0 = Clock::now();
  double took = 0;
  do {
    system::SimulationRun probe(cfg, 0);
    ++built;
    took = seconds_since(t0);
  } while (took < kSetupBatchSeconds);
  return took / static_cast<double>(built);
}

void report_failure(RunCount& tally, const std::string& what,
                    const std::vector<std::string>& errors) {
  ++tally.failed;
  std::printf("  FAILED %s:", what.c_str());
  for (const auto& e : errors) std::printf(" [%s]", e.c_str());
  std::printf("\n");
}

void print_metric_row(const char* name, const char* unit,
                      const std::vector<double>& values) {
  const auto [q1, q3] = quartiles(values);
  std::printf("  %-18s %-9s median=%-12.6g q1=%-12.6g q3=%-12.6g n=%zu\n",
              name, unit, median(values), q1, q3, values.size());
}

// --- untraced mode: end-to-end metrics ---------------------------------------

/// tasks_per_s is the median over blocks of consecutive timed runs holding
/// at least this much run() time each. The host's speed swings between
/// fast and slow phases lasting seconds; a block averages over them, where
/// the median of single sub-second runs flips with whichever phase held
/// the majority of the budget.
constexpr double kBlockSeconds = 5;

int run_untraced(const Options& o, const Workload& w) {
  const auto start = Clock::now();
  const system::Config cfg = make_config(w, o.seed, o.tiny);
  print_header(o, w, cfg);
  RunCount tally;

  // Checked run (untimed): an observer ledger gives exact per-class
  // conservation, and its fingerprint is the reference every timed run must
  // reproduce bit for bit. The fingerprint pins every class count, so a
  // timed run that matches it has the counts the ledger verified.
  std::string reference;
  system::RunMetrics ref_metrics;
  {
    Ledger ledger;
    system::SimulationRun run(cfg, 0);
    run.set_observer(&ledger);
    ref_metrics = run.run();
    reference = fingerprint(ref_metrics);
    ++tally.attempted;
    ClassCounts local = counts_of(ref_metrics.local);
    if (o.corrupt == Corrupt::Conservation) ++local.generated;  // lost task
    const auto errors =
        conservation_errors(local, counts_of(ref_metrics.global), ledger);
    if (!errors.empty()) report_failure(tally, "checked run", errors);
  }

  // Timed runs until the budget is spent (at least five).
  std::vector<double> rates, setups;
  double block_tasks = 0, block_s = 0;
  std::size_t index = 0;
  while (index < 5 || seconds_since(start) < o.seconds) {
    Sample s = timed_run(cfg);
    ++tally.attempted;
    if (index == 1 && o.corrupt == Corrupt::Fingerprint) s.fingerprint[0] ^= 1;
    ++index;
    if (s.fingerprint != reference) {
      report_failure(tally, "timed run " + std::to_string(index),
                     {"fingerprint differs from the checked run"});
      continue;
    }
    block_tasks += s.tasks;
    block_s += s.run_s;
    if (block_s >= kBlockSeconds) {
      rates.push_back(block_tasks / block_s);
      block_tasks = block_s = 0;
    }
    // One set-up sample after every timed run, so they spread over the
    // whole budget like the timed runs do.
    setups.push_back(setup_sample(cfg));
  }

  if (block_s >= kBlockSeconds / 2 || (rates.empty() && block_s > 0))
    rates.push_back(block_tasks / block_s);

  const double md_local = 100 * ref_metrics.local.missed.value();
  const double md_global = 100 * ref_metrics.global.missed.value();
  std::printf("  fingerprint: %016" PRIx64 " (%s)\n", fnv1a(reference),
              reference.c_str());
  print_metric_row("tasks_per_s", "tasks/s", rates);
  print_metric_row("setup_s", "s", setups);
  const double rss = peak_rss_mb();
  std::printf("  %-18s %-9s %.6g\n", "peak_rss_mb", "MB", rss);
  std::printf("  %-18s %-9s %.6g\n", "md_local", "%", md_local);
  std::printf("  %-18s %-9s %.6g\n", "md_global", "%", md_global);
  std::printf("  %-18s %-9s %.6g (%" PRId64 " of %" PRId64 " runs)\n",
              "runs_failed_ratio", "fraction",
              static_cast<double>(tally.failed) /
                  static_cast<double>(tally.attempted),
              tally.failed, tally.attempted);

  MetricMap metrics;
  // A failed run is reported as a failure, never as a number: the metrics
  // come from the runs that passed every check.
  if (!rates.empty()) metrics["tasks_per_s"] = {median(rates), "tasks/s"};
  metrics["setup_s"] = {median(setups), "s"};
  metrics["peak_rss_mb"] = {rss, "MB"};
  metrics["md_local"] = {md_local, "%"};
  metrics["md_global"] = {md_global, "%"};
  print_result(tally.failed == 0, tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

// --- traced mode: per-layer metrics ------------------------------------------

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

int run_traced(const Options& o, const Workload& w) {
  const auto start = Clock::now();
  system::Config cfg = make_config(w, o.seed, o.tiny);
  print_header(o, w, cfg);
  RunCount tally;
  Spans spans;
  const int root = spans.open("traced_invocation", -1);

  // Untraced reference: wall time and fingerprint with nothing attached.
  const int untraced_span = spans.open("untraced_runs", root);
  std::vector<double> walls;
  std::string reference;
  double tasks = 0;
  while (tally.attempted < 3 || seconds_since(start) < 0.3 * o.seconds) {
    const Sample s = timed_run(cfg);
    ++tally.attempted;
    if (reference.empty()) reference = s.fingerprint;
    if (s.fingerprint != reference) {
      report_failure(tally, "untraced run",
                     {"fingerprint differs between untraced runs"});
      continue;
    }
    walls.push_back(s.run_s);
    tasks = s.tasks;
  }
  spans.close(untraced_span);
  const double untraced_wall = median(walls);

  // Traced run: probes, miss attribution and workload capture attached.
  std::filesystem::create_directories(o.out_dir);
  const std::string stem = o.out_dir + "/" + w.name + "_seed" +
                           std::to_string(o.seed);
  const std::string capture_path = stem + ".capture";
  cfg.probes = true;
  const int traced_span = spans.open("traced_run", root);
  obs::MissAttribution attribution(cfg.nodes);
  Ledger ledger;
  obs::ObserverTee observers;
  observers.attach(&ledger);
  observers.attach(&attribution);
  system::RunMetrics m;
  double traced_wall = 0;
  std::vector<double> ready_depths;
  {
    workload::TraceWriter writer(capture_path, cfg.nodes, cfg.link_nodes);
    system::SimulationRun run(cfg, 0);
    run.set_observer(&observers);
    run.set_trace_writer(&writer);
    const auto t0 = Clock::now();
    m = run.run();
    traced_wall = seconds_since(t0);
    writer.close();
    ++tally.attempted;
    auto errors =
        conservation_errors(counts_of(m.local), counts_of(m.global), ledger);
    if (fingerprint(m) != reference)
      errors.push_back("traced fingerprint differs from untraced");
    if (attribution.misses() != m.global.missed.hits())
      errors.push_back("miss attribution does not partition MD_global");
    if (!errors.empty()) report_failure(tally, "traced run", errors);
    for (std::size_t i = 0; i < cfg.nodes; ++i)
      ready_depths.push_back(run.nodes()[i]->mean_queue_length(cfg.horizon));
  }
  spans.close(traced_span);
  const obs::Snapshot& c = m.counters;
  auto count = [&c](const char* name) { return c.value_or(name, 0); };

  const int capture_span = spans.open("capture_read", root);
  // A prefix is enough, the replays cycle over it; 1000 global specs at
  // k=4096 already hold 64 MB of eligible-node ids.
  const Capture cap = read_capture(capture_path, 50000, 1000);
  std::filesystem::remove(capture_path);
  spans.close(capture_span);

  // Layer replays, fed from the capture and the traced counts; each gets
  // an equal share of what is left of the budget.
  const double left = std::max(0.5 * o.seconds, o.seconds -
                                                     seconds_since(start));
  const double share = std::max(0.05, left / 7);
  auto replay = [&](const char* name, int parent, auto&& fn) {
    const int id = spans.open(name, parent);
    auto result = fn();
    spans.close(id);
    return result;
  };
  const double depth = count("sim.queue.max_pending");
  const double queue_ns = replay("replay.sim.queue", root, [&] {
    return replay_queue(static_cast<std::size_t>(depth), share);
  });
  const std::size_t ready_depth =
      static_cast<std::size_t>(median(ready_depths) + 0.5);
  int sched_span = spans.open("replay.sched", root);
  const LayerCost sched = replay_sched(cfg, cap, ready_depth, share);
  const double sched_queue_ns = replay("replay.sim.queue.sched_depth",
                                       sched_span, [&] {
    return replay_queue(static_cast<std::size_t>(sched.queue_depth),
                        share / 4);
  });
  spans.close(sched_span);
  const TaskCost task = replay("replay.core.task", root, [&] {
    return replay_task(cfg, cap, share);
  });
  const double placement_ns = replay("replay.core.placement", root, [&] {
    return replay_placement(cfg, cap, cfg.seed, share);
  });
  int workload_span = spans.open("replay.workload", root);
  const LayerCost gen = replay_workload(cfg, share);
  const double gen_queue_ns = replay("replay.sim.queue.workload_depth",
                                     workload_span, [&] {
    return replay_queue(static_cast<std::size_t>(gen.queue_depth),
                        share / 4);
  });
  spans.close(workload_span);
  const double record_ns = replay("replay.system.metrics", root, [&] {
    return replay_metrics(cap, share);
  });
  spans.close(root);

  // Per-layer counts, per released task.
  const double globals = static_cast<double>(m.global.generated);
  const double jobs = count("node.submitted");
  const double decisions = count("placement.decisions");
  const double queue_ops = count("sim.queue.pushed") + count("sim.events");
  const double records =
      static_cast<double>(m.local.missed.trials() + m.global.missed.trials());
  const double arrival_draws = count("arrivals.local_events") +
                               count("arrivals.global_events") +
                               count("arrivals.thinning_rejects");

  // Self costs: the sched and workload replays run their own small event
  // queues, whose ops the sim layer already counts.
  const double sched_ns =
      std::max(0.0, sched.ns_per_op - sched.queue_ops_per_op * sched_queue_ns);
  const double gen_ns =
      std::max(0.0, gen.ns_per_op - gen.queue_ops_per_op * gen_queue_ns);
  const double e2e_ns = 1e9 * untraced_wall / tasks;
  struct Share {
    const char* layer;
    double ns_per_op;
    double ops_per_task;
  };
  const Share budget_rows[] = {
      {"sim (event queue)", queue_ns, queue_ops / tasks},
      {"sched (nodes)", sched_ns, jobs / tasks},
      {"workload (+spec fill)", gen_ns, 1.0},
      {"core.task (instance)", task.instance_ns, globals / tasks},
      {"core.placement", placement_ns, decisions / tasks},
      {"system.metrics", record_ns, records / tasks},
  };
  double layered = 0;
  for (const Share& s : budget_rows) layered += s.ns_per_op * s.ops_per_task;
  const double residual = e2e_ns - layered;

  std::printf("  fingerprint: %016" PRIx64 " (%s)\n", fnv1a(reference),
              reference.c_str());
  std::printf("  untraced %.6g ns/task (%.6g tasks/s), traced run %.6g s vs "
              "untraced %.6g s\n",
              e2e_ns, 1e9 / e2e_ns, traced_wall, untraced_wall);
  std::printf("  layer budget (ns per released task):\n");
  std::printf("    %-24s %12s %12s %12s %7s\n", "layer", "ns/op", "ops/task",
              "ns/task", "share");
  for (const Share& s : budget_rows)
    std::printf("    %-24s %12.4g %12.4g %12.4g %6.1f%%\n", s.layer,
                s.ns_per_op, s.ops_per_task, s.ns_per_op * s.ops_per_task,
                100 * s.ns_per_op * s.ops_per_task / e2e_ns);
  std::printf("    %-24s %12s %12s %12.4g %6.1f%%\n", "residual (glue, cache)",
              "", "", residual, 100 * residual / e2e_ns);
  std::printf("    %-24s %12s %12s %12.4g %6.1f%%\n", "end to end", "", "",
              e2e_ns, 100.0);

  MetricMap metrics;
  const double events = count("sim.events");
  metrics["sim.events_per_task"] = {events / tasks, "events/task"};
  metrics["sim.events_per_s"] = {events / untraced_wall, "events/s"};
  metrics["sim.queue.ns_per_op"] = {queue_ns, "ns/op"};
  metrics["sim.queue.max_pending"] = {depth, "count"};
  metrics["sim.queue.ladder_spills_per_push"] = {
      ratio(count("sim.queue.ladder_spills"), count("sim.queue.pushed")),
      "ratio"};
  metrics["sched.jobs_per_task"] = {jobs / tasks, "jobs/task"};
  metrics["sched.ns_per_job"] = {sched_ns, "ns/job"};
  metrics["sched.preemptions_per_job"] = {
      ratio(count("node.preemptions"), jobs), "ratio"};
  metrics["sched.max_ready_depth"] = {count("node.max_ready_depth"), "count"};
  metrics["sched.util_mean"] = {m.mean_utilization, "fraction"};
  metrics["core.task.ns_per_task"] = {task.fill_ns + task.instance_ns,
                                      "ns/task"};
  metrics["core.task.leaves_per_task"] = {task.leaves, "leaves/task"};
  metrics["core.task.pool_slots"] = {count("pool.slots"), "count"};
  metrics["core.placement.decisions_per_task"] = {decisions / tasks,
                                                  "count/task"};
  metrics["core.placement.ns_per_decision"] = {placement_ns, "ns/decision"};
  metrics["core.placement.exact_tie_ratio"] = {
      ratio(count("placement.exact_ties"), decisions), "ratio"};
  metrics["core.placement.restricted"] = {count("placement.restricted"),
                                          "count"};
  metrics["core.load_model.reads_per_decision"] = {
      ratio(count("load_model.reads"), decisions), "reads/decision"};
  metrics["core.load_model.refreshes"] = {count("load_model.refreshes"),
                                          "count"};
  metrics["workload.ns_per_task"] = {gen_ns, "ns/task"};
  metrics["workload.thinning_reject_ratio"] = {
      ratio(count("arrivals.thinning_rejects"), arrival_draws), "ratio"};
  metrics["workload.phase_changes"] = {count("arrivals.phase_changes"),
                                       "count"};
  metrics["system.metrics.ns_per_record"] = {record_ns, "ns/record"};
  metrics["system.residual_ns_per_task"] = {residual, "ns/task"};
  metrics["fault.crashes"] = {count("fault.crashes"), "count"};
  metrics["fault.orphans"] = {count("fault.orphans"), "count"};
  metrics["fault.retries"] = {count("fault.retries"), "count"};
  metrics["fault.retry_ratio"] = {
      ratio(count("fault.retries"), count("fault.orphans")), "ratio"};
  metrics["fault.sheds"] = {count("fault.sheds"), "count"};
  metrics["obs.trace_overhead"] = {traced_wall / untraced_wall - 1, "ratio"};
  metrics["obs.miss_queueing_share"] = {
      ratio(static_cast<double>(
                attribution.cause_count(obs::MissCause::Queueing)),
            static_cast<double>(attribution.misses())),
      "fraction"};

  std::printf("  per-layer metrics:\n");
  for (const auto& [name, metric] : metrics)
    std::printf("    %-36s %-14s %.6g\n", name.c_str(), metric.unit.c_str(),
                metric.value);
  const std::string spans_path = stem + ".spans.json";
  spans.write_json(spans_path);
  std::printf("  spans: %s\n", spans_path.c_str());
  print_result(tally.failed == 0, tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Options o = perfbench::parse_options(argc, argv);
    const perfbench::Workload& w = perfbench::find_workload(o.workload);
    return o.trace ? perfbench::run_traced(o, w) : perfbench::run_untraced(o, w);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
