// Layer replays of the traced benchmark run: each drives one layer's
// public API in isolation, fed from the workload's captured inputs, and
// times the calls. Every replay repeats its work in chunks until its
// budget is spent and reports the median chunk, so one descheduled chunk
// does not move the figure.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string_view>

#include "dsrt/core/assigner.hpp"
#include "dsrt/core/load_model.hpp"
#include "dsrt/core/placement.hpp"
#include "dsrt/sched/node.hpp"
#include "dsrt/sim/event_queue.hpp"
#include "dsrt/sim/rng.hpp"
#include "dsrt/sim/simulator.hpp"
#include "dsrt/system/metrics.hpp"
#include "dsrt/workload/generator.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

using namespace dsrt;

/// Runs `chunk()` (which does `ops` layer ops) until `budget_s` is spent,
/// at least `min_chunks` times; returns the median ns per op.
template <typename Fn>
double median_ns_per_op(Fn&& chunk, double ops, double budget_s,
                        int min_chunks = 5) {
  std::vector<double> samples;
  const auto start = Clock::now();
  while (static_cast<int>(samples.size()) < min_chunks ||
         seconds_since(start) < budget_s) {
    const auto t0 = Clock::now();
    chunk();
    samples.push_back(seconds_since(t0) * 1e9 / ops);
  }
  return median(std::move(samples));
}

double parse_double(std::string_view text) {
  const std::string s(text);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size())
    throw std::runtime_error("capture: bad number '" + s + "'");
  return v;
}

/// Splits `line` at the first `n` commas (the shape field may not contain
/// any, but keep the rest intact regardless).
std::vector<std::string_view> split_fields(std::string_view line,
                                           std::size_t n) {
  std::vector<std::string_view> out;
  while (out.size() < n) {
    const std::size_t comma = line.find(',');
    if (comma == std::string_view::npos) break;
    out.push_back(line.substr(0, comma));
    line.remove_prefix(comma + 1);
  }
  out.push_back(line);
  return out;
}

/// One TaskSpecBuilder call, recorded ahead of time so the timed refill
/// does no classification of its own.
struct FillOp {
  enum Kind : std::uint8_t { Serial, Parallel, End, Leaf, Range, List };
  Kind kind = Leaf;
  core::NodeId node = 0;
  core::NodeId first = 0;
  std::uint32_t count = 0;
  std::uint32_t vertex = 0;  ///< for List: leaf vertex in the source spec
  double exec = 0;
  double pex = 0;
};

void record_fill(const core::TaskSpec& spec, std::uint32_t v,
                 std::vector<FillOp>& ops) {
  const core::SpecVertex& vx = spec.vertex(v);
  if (vx.kind == core::SpecKind::Simple) {
    FillOp op;
    op.node = vx.node;
    op.exec = vx.exec;
    op.pex = vx.pex;
    op.vertex = v;
    const auto elig = spec.eligible_of(vx);
    if (!elig.empty()) {
      bool contiguous = true;
      for (std::size_t i = 0; i < elig.size() && contiguous; ++i)
        contiguous = elig[i] == elig[0] + i;
      op.kind = contiguous ? FillOp::Range : FillOp::List;
      op.first = elig[0];
      op.count = static_cast<std::uint32_t>(elig.size());
    }
    ops.push_back(op);
    return;
  }
  ops.push_back({vx.kind == core::SpecKind::Serial ? FillOp::Serial
                                                   : FillOp::Parallel});
  for (std::uint32_t child : spec.children_of(vx))
    record_fill(spec, child, ops);
  ops.push_back({FillOp::End});
}

void refill(const core::TaskSpec& src, const std::vector<FillOp>& ops,
            core::TaskSpecBuilder& builder, core::TaskSpec& out) {
  builder.reset(out);
  for (const FillOp& op : ops) {
    switch (op.kind) {
      case FillOp::Serial: builder.begin_serial(); break;
      case FillOp::Parallel: builder.begin_parallel(); break;
      case FillOp::End: builder.end(); break;
      case FillOp::Leaf: builder.leaf(op.node, op.exec, op.pex); break;
      case FillOp::Range:
        builder.leaf_among(op.node, op.first, op.count, op.exec, op.pex);
        break;
      case FillOp::List:
        builder.leaf_among(op.node, src.eligible_of(src.vertex(op.vertex)),
                           op.exec, op.pex);
        break;
    }
  }
  builder.finish();
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::pair<double, double> quartiles(std::vector<double> values) {
  if (values.size() < 2) {
    const double m = median(values);
    return {m, m};
  }
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  auto at = [&](double pos) {  // 1-based position, linear interpolation
    const double lo = std::floor(pos);
    const auto i = static_cast<std::size_t>(std::clamp(lo, 1.0, n));
    const auto j = static_cast<std::size_t>(std::clamp(lo + 1, 1.0, n));
    const double frac = pos - lo;
    return values[i - 1] + frac * (values[j - 1] - values[i - 1]);
  };
  return {at((n + 1) * 0.25), at((n + 1) * 0.75)};
}

int Spans::open(std::string name, int parent) {
  spans_.push_back({std::move(name), seconds_since(origin_), 0, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void Spans::close(int id) { spans_[id].end = seconds_since(origin_); }

void Spans::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[96];
    std::snprintf(buf, sizeof buf, "\"start_s\": %.9f, \"end_s\": %.9f",
                  s.start, s.end);
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name << "\", " << buf
        << ", \"parent\": " << s.parent << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  if (!out.flush()) throw std::runtime_error("cannot write spans to " + path);
}

Capture read_capture(const std::string& path, std::size_t max_locals,
                     std::size_t max_globals) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open capture " + path);
  Capture cap;
  core::TaskSpecBuilder builder;
  std::string line;
  while (std::getline(in, line) && (cap.locals.size() < max_locals ||
                                    cap.globals.size() < max_globals)) {
    if (line.empty() || line[0] == '#') continue;
    if (line[0] == 'L' && cap.locals.size() < max_locals) {
      const auto f = split_fields(line, 5);
      if (f.size() != 6) throw std::runtime_error("capture: bad L record");
      workload::TraceLocalRecord r;
      r.arrival = parse_double(f[1]);
      r.node = static_cast<core::NodeId>(parse_double(f[2]));
      r.exec = parse_double(f[3]);
      r.pex = parse_double(f[4]);
      r.deadline = parse_double(f[5]);
      cap.locals.push_back(r);
    } else if (line[0] == 'G' && cap.globals.size() < max_globals) {
      const auto f = split_fields(line, 3);
      if (f.size() != 4) throw std::runtime_error("capture: bad G record");
      workload::TraceGlobalRecord r;
      r.arrival = parse_double(f[1]);
      r.deadline = parse_double(f[2]);
      workload::parse_spec_into(f[3], builder, r.spec);
      cap.globals.push_back(std::move(r));
    }
  }
  if (cap.locals.empty() && cap.globals.empty())
    throw std::runtime_error("capture " + path + " holds no records");
  return cap;
}

double replay_queue(std::size_t depth, double budget_s) {
  depth = std::max<std::size_t>(depth, 1);
  sim::EventQueue queue;
  queue.reserve(depth + 64);
  sim::Rng rng(0x9e3779b97f4a7c15ULL, 7);
  std::uint64_t fired = 0;
  auto action = [&fired] { ++fired; };
  double now = 0;
  for (std::size_t i = 0; i < depth; ++i)
    queue.push(now + rng.exponential(1.0), action);
  const std::size_t holds = std::max<std::size_t>(4096, depth);
  auto chunk = [&] {
    for (std::size_t i = 0; i < holds; ++i) {
      now = queue.next_time();
      queue.pop()();
      queue.push(now + rng.exponential(1.0), action);
    }
  };
  chunk();  // warm: let the adaptive layout settle at this depth
  const double ns = median_ns_per_op(chunk, 2.0 * static_cast<double>(holds),
                                     budget_s);
  if (fired == 0) throw std::logic_error("queue replay fired nothing");
  return ns;
}

LayerCost replay_sched(const system::Config& cfg, const Capture& cap,
                       std::size_t ready_depth, double budget_s) {
  if (cap.locals.empty()) throw std::runtime_error("sched replay: no locals");
  sim::Simulator sim;
  sched::Node node(0, sim, cfg.policy, cfg.abort_policy, cfg.preemption);
  node.reserve_ready(ready_depth + 64);
  std::uint64_t disposed = 0;
  node.set_completion_delegate(
      [](void* ctx, const sched::Job&, sim::Time, sched::JobOutcome) {
        ++*static_cast<std::uint64_t*>(ctx);
      },
      &disposed);
  std::size_t next = 0;
  sched::JobId id = 1;
  auto submit = [&] {
    const workload::TraceLocalRecord& r = cap.locals[next];
    next = next + 1 == cap.locals.size() ? 0 : next + 1;
    sched::Job job;
    job.id = id++;
    job.cls = core::TaskClass::Local;
    job.deadline = sim.now() + (r.deadline - r.arrival);
    job.ultimate_deadline = job.deadline;
    job.exec = r.exec;
    job.pex = r.pex;
    node.submit(std::move(job));
  };
  // One in service plus `ready_depth` waiting; each cycle then submits one
  // job and runs the simulator until one job has been disposed, so the
  // ready queue stays at the observed depth.
  for (std::size_t i = 0; i <= ready_depth; ++i) submit();
  const std::size_t jobs = 4096;
  std::uint64_t events = 0, pushes = 0;
  auto chunk = [&] {
    const std::uint64_t e0 = sim.executed(), p0 = sim.queue().pushed();
    for (std::size_t i = 0; i < jobs; ++i) {
      const std::uint64_t target = disposed + 1;
      submit();
      while (disposed < target) {
        if (sim.pending() == 0)
          throw std::logic_error("sched replay: node went idle");
        sim.run(sim.queue().next_time());
      }
    }
    events += sim.executed() - e0;
    pushes += sim.queue().pushed() - p0;
  };
  chunk();
  events = pushes = 0;
  LayerCost cost;
  std::size_t chunks = 0;
  cost.ns_per_op = median_ns_per_op(
      [&] {
        chunk();
        ++chunks;
      },
      static_cast<double>(jobs), budget_s);
  cost.queue_ops_per_op = static_cast<double>(events + pushes) /
                          static_cast<double>(chunks * jobs);
  cost.queue_depth = static_cast<double>(sim.pending()) + 1;
  return cost;
}

namespace {

/// Drives one recycled TaskInstance through every captured global task the
/// way the process manager does: reset, start, then one on_leaf_complete
/// per submitted leaf in submission order (a completion may release the
/// next stage). With a load model and a policy wired, the instance places
/// its placeable leaves through its own placement path; without them it
/// keeps the generator's hint nodes. With a board, every submitted leaf is
/// charged to its node's backlog until it completes.
class TaskDriver {
 public:
  TaskDriver(const system::Config& cfg, const Capture& cap)
      : cap_(cap), ssp_(cfg.ssp), psp_(cfg.psp) {
    // Per-run strategy state (the adaptive DIV-x tuner) is cloned exactly
    // as SimulationRun does.
    if (auto c = ssp_->clone_for_run()) ssp_ = std::move(c);
    if (auto c = psp_->clone_for_run()) psp_ = std::move(c);
  }

  void run(core::LoadBoard* board = nullptr,
           const core::LoadModel* model = nullptr,
           const core::PlacementPolicy* policy = nullptr) {
    for (const workload::TraceGlobalRecord& r : cap_.globals) {
      inst_.reset(id_++, r.spec, r.arrival, r.deadline, ssp_, psp_, model,
                  policy);
      pending_.clear();
      inst_.start(r.arrival, pending_);
      charge(board, pending_.begin(), pending_.end());
      sim::Time now = r.arrival;
      for (std::size_t j = 0; j < pending_.size(); ++j) {
        const core::LeafSubmission done = pending_[j];
        now += done.exec;
        if (board) (*board)[done.node].remove_backlog(done.pex);
        out_.clear();
        if (inst_.on_leaf_complete(done.leaf, now, out_)) ++completed_;
        charge(board, out_.begin(), out_.end());
        pending_.insert(pending_.end(), out_.begin(), out_.end());
      }
    }
    if (completed_ == 0) throw std::logic_error("task replay finished no task");
  }

 private:
  template <typename It>
  static void charge(core::LoadBoard* board, It first, It last) {
    if (!board) return;
    for (; first != last; ++first) (*board)[first->node].add_backlog(first->pex);
  }

  const Capture& cap_;
  core::SerialStrategyPtr ssp_;
  core::ParallelStrategyPtr psp_;
  core::TaskInstance inst_;
  std::vector<core::LeafSubmission> pending_, out_;
  core::TaskId id_ = 1;
  std::uint64_t completed_ = 0;
};

}  // namespace

TaskCost replay_task(const system::Config& cfg, const Capture& cap,
                     double budget_s) {
  TaskCost cost;
  if (cap.globals.empty()) return cost;
  std::vector<std::vector<FillOp>> programs(cap.globals.size());
  double leaves = 0;
  for (std::size_t i = 0; i < cap.globals.size(); ++i) {
    record_fill(cap.globals[i].spec, 0, programs[i]);
    leaves += static_cast<double>(cap.globals[i].spec.leaf_count());
  }
  cost.leaves = leaves / static_cast<double>(cap.globals.size());

  core::TaskSpecBuilder builder;
  core::TaskSpec spec;
  const double n = static_cast<double>(cap.globals.size());
  cost.fill_ns = median_ns_per_op(
      [&] {
        for (std::size_t i = 0; i < cap.globals.size(); ++i)
          refill(cap.globals[i].spec, programs[i], builder, spec);
      },
      n, budget_s / 3);

  TaskDriver driver(cfg, cap);
  cost.instance_ns =
      median_ns_per_op([&] { driver.run(); }, n, budget_s * 2 / 3);
  return cost;
}

double replay_placement(const system::Config& cfg, const Capture& cap,
                        std::uint64_t seed, double budget_s) {
  if (cfg.placement.kind == core::PlacementKind::Static) return 0;
  const core::PlacementPolicyPtr policy = core::make_placement(cfg.placement,
                                                               seed);
  core::LoadBoard board(cfg.nodes);
  sim::Rng rng(seed, 11);
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    board[i].configure(cfg.load_model.ewma_tau, 0);
    board[i].add_backlog(rng.exponential(2.0));
  }
  std::unique_ptr<core::LoadModel> model;
  switch (cfg.load_model.kind) {
    case core::LoadModelKind::Exact:
      model = std::make_unique<core::ExactLoadModel>(board);
      break;
    case core::LoadModelKind::Sampled:
    case core::LoadModelKind::Stale: {
      auto snap = std::make_unique<core::SnapshotLoadModel>(
          board, cfg.load_model.period,
          cfg.load_model.kind == core::LoadModelKind::Sampled
              ? core::SnapshotLoadModel::Serve::Latest
              : core::SnapshotLoadModel::Serve::Previous);
      snap->refresh(0);
      model = std::move(snap);
      break;
    }
    case core::LoadModelKind::None:
      break;
  }
  TaskDriver driver(cfg, cap);
  driver.run(&board);  // warm both variants
  const std::uint64_t d0 = policy->counters().decisions;
  driver.run(&board, model.get(), policy.get());
  const double decisions =
      static_cast<double>(policy->counters().decisions - d0);
  if (decisions == 0) return 0;
  // Paired chunks over the same tasks, with placement and without: their
  // difference is the instance's own placement path (candidate set,
  // distinct-site exclusion, place()), and pairing them back to back
  // cancels host drift between chunks.
  std::vector<double> samples;
  const auto start = Clock::now();
  while (samples.size() < 5 || seconds_since(start) < budget_s) {
    auto t0 = Clock::now();
    driver.run(&board, model.get(), policy.get());
    const double placed = seconds_since(t0);
    t0 = Clock::now();
    driver.run(&board);
    const double hinted = seconds_since(t0);
    samples.push_back((placed - hinted) * 1e9 / decisions);
  }
  return median(std::move(samples));
}

LayerCost replay_workload(const system::Config& cfg, double budget_s) {
  // Same sources and parameters as SimulationRun builds them; the rng
  // streams differ, which leaves the cost per task unchanged.
  const std::uint64_t seed = cfg.seed;
  sim::Simulator sim;
  sim.configure_queue(cfg.event_queue, 2 * cfg.nodes + 64);
  std::uint64_t tasks = 0;
  auto local_sink = [&tasks](core::NodeId, double, double, sim::Time) {
    ++tasks;
  };
  auto global_sink = [&tasks](const core::TaskSpec&, sim::Time) { ++tasks; };
  std::vector<std::unique_ptr<workload::LocalTaskSource>> locals;
  const double rate = cfg.lambda_local_total() / cfg.arrivals.batch_mean();
  for (std::size_t i = 0; i < cfg.nodes; ++i)
    locals.push_back(std::make_unique<workload::LocalTaskSource>(
        sim, static_cast<core::NodeId>(i),
        workload::make_arrival_process(
            cfg.arrivals, rate * (1.0 / static_cast<double>(cfg.nodes))),
        cfg.local_exec, cfg.local_slack, cfg.pex_error, sim::Rng(seed, 100 + i),
        cfg.horizon, local_sink));
  workload::GlobalTaskParams params;
  params.shape = cfg.shape;
  params.nodes = cfg.nodes;
  params.subtasks = cfg.subtasks;
  params.subtask_count = cfg.subtask_count;
  params.sp_shape = cfg.sp_shape;
  params.exec = cfg.subtask_exec;
  params.slack = cfg.global_slack();
  params.pex_error = cfg.pex_error;
  params.link_nodes = cfg.link_nodes;
  params.comm_exec = cfg.comm_exec;
  params.periodic = cfg.periodic_globals;
  params.defer_placement = cfg.placement.kind != core::PlacementKind::Static;
  workload::GlobalTaskSource global(
      sim, std::move(params),
      workload::make_arrival_process(cfg.arrivals.for_globals(),
                                     cfg.lambda_global(),
                                     cfg.periodic_globals),
      sim::Rng(seed, 1), cfg.horizon, global_sink);
  for (auto& source : locals) source->start();
  global.start();

  // Advance simulated time in slices sized to ~1/40 of the budget each,
  // calibrated on a first slice, but at most 1/20 of the remaining horizon
  // so a short horizon still yields samples; stop at the budget or the
  // horizon.
  double slice = cfg.horizon / 1000;
  {
    const auto t0 = Clock::now();
    sim.run(slice);
    const double took = std::max(seconds_since(t0), 1e-6);
    slice = std::clamp(slice * (budget_s / 40) / took, slice,
                       (cfg.horizon - sim.now()) / 20);
  }
  std::vector<double> samples;
  const std::uint64_t e0 = sim.executed(), p0 = sim.queue().pushed();
  const std::uint64_t tasks0 = tasks;
  const auto start = Clock::now();
  while (sim.now() + slice <= cfg.horizon &&
         (samples.size() < 5 || seconds_since(start) < budget_s)) {
    const std::uint64_t before = tasks;
    const auto t0 = Clock::now();
    sim.run(sim.now() + slice);
    if (tasks > before)
      samples.push_back(seconds_since(t0) * 1e9 /
                        static_cast<double>(tasks - before));
  }
  if (samples.empty()) throw std::runtime_error("workload replay: no tasks");
  LayerCost cost;
  cost.ns_per_op = median(samples);
  cost.queue_ops_per_op =
      static_cast<double>((sim.executed() - e0) + (sim.queue().pushed() - p0)) /
      static_cast<double>(tasks - tasks0);
  cost.queue_depth = static_cast<double>(sim.pending());
  return cost;
}

double replay_metrics(const Capture& cap, double budget_s) {
  if (cap.locals.empty()) return 0;
  system::ClassMetrics metrics;
  auto chunk = [&] {
    for (const workload::TraceLocalRecord& r : cap.locals)
      metrics.record_completed(r.exec, r.arrival + r.exec - r.deadline);
  };
  return median_ns_per_op(chunk, static_cast<double>(cap.locals.size()),
                          budget_s);
}

}  // namespace perfbench
