// Built-in sweep manifests: every paper figure and ablation grid, declared
// once as a named definition that `sweep_cli table` prints and
// `sweep_cli run/check/reproduce` runs and checks against the committed
// expectation files.
//
// The committed manifests (those with an expectations/<name>.json) have
// deliberately CI-sized horizons, because CI re-checks them on every push:
// the figure grids (and abl_rel_flex) run at 5e4 time units and the scale
// grid at a constant-event-budget 2e4. `sweep_cli table --horizon=1e6`
// reproduces a figure at the paper's run length. Changing any committed
// definition changes its config hashes, so stale artifacts and
// expectations are rejected instead of silently mis-compared (re-run
// `sweep_cli bless` after an intentional change). The ablation manifests
// below them are printed only; each base carries the run length its
// ablation was designed at.
#include "dsrt/xp/manifest.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <initializer_list>
#include <sstream>

#include "dsrt/core/parallel_strategies.hpp"
#include "dsrt/core/serial_strategies.hpp"
#include "dsrt/engine/emit.hpp"
#include "dsrt/fault/spec.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/workload/arrival.hpp"
#include "dsrt/workload/pex_error.hpp"

namespace dsrt::xp {

namespace {

using engine::PointResult;
using engine::SweepAxis;
using engine::SweepGrid;
using engine::SweepResult;
using system::Config;
using Choice = std::pair<std::string, std::function<void(Config&)>>;

// --- render helpers ---------------------------------------------------------

/// A table of one miss-ratio estimate per point, "12.3 +- 0.4" in percent.
TableSpec percent_table(std::string title,
                        stats::Estimate system::ExperimentResult::*field) {
  return {std::move(title), [field](const PointResult& p) {
            return engine::percent_ci(p.result.*field);
          }};
}

TableSpec md_local_table() {
  return percent_table("MD_local (%)", &system::ExperimentResult::md_local);
}

TableSpec md_global_table() {
  return percent_table("MD_global (%)", &system::ExperimentResult::md_global);
}

std::string format(const char* fmt, ...) {
  char buffer[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof buffer, fmt, args);
  va_end(args);
  return buffer;
}

/// The point whose labels start with `first` and end with `last` (nullptr
/// when the grid has no such point).
const PointResult* find_point(const SweepResult& sweep,
                              const std::string& first,
                              const std::string& last) {
  for (const PointResult& p : sweep.points)
    if (p.point.labels.front() == first && p.point.labels.back() == last)
      return &p;
  return nullptr;
}

// --- config helpers ---------------------------------------------------------

/// The Table-1 serial baseline run for `horizon` time units.
Config serial_base(double horizon) {
  Config cfg = system::baseline_ssp();
  cfg.horizon = horizon;
  return cfg;
}

/// Switches `cfg` to the task shape of a section baseline (shape, slack laws
/// and stage structure), as the by_field "shape" axis does: the parallel
/// entries of a mixed strategy axis start from what --shape=parallel would.
void reshape(Config& cfg, const Config& section_baseline) {
  cfg.shape = section_baseline.shape;
  cfg.local_slack = section_baseline.local_slack;
  cfg.parallel_slack = section_baseline.parallel_slack;
  cfg.sp_shape = section_baseline.sp_shape;
}

/// Node count k at constant per-node load. Past the paper's largest figure
/// (k=24) the horizon shrinks by 24/k so the event budget per point stays
/// flat; it scales the base horizon, so --horizon composes.
SweepAxis node_count_axis(std::initializer_list<std::size_t> ks) {
  std::vector<Choice> choices;
  for (std::size_t k : ks)
    choices.push_back({std::to_string(k), [k](Config& cfg) {
                         cfg.nodes = k;
                         if (k > 24)
                           cfg.horizon =
                               cfg.horizon * 24.0 / static_cast<double>(k);
                       }});
  return SweepAxis::choices("k", std::move(choices));
}

/// Placement axis: each value routes by a placement over a load model,
/// labelled by the placement.
SweepAxis placement_axis(
    std::initializer_list<std::pair<const char*, const char*>> cases) {
  std::vector<Choice> choices;
  for (const auto& [placement, load_model] : cases)
    choices.push_back({placement, [placement = std::string(placement),
                                   load_model = std::string(load_model)](
                                      Config& cfg) {
                         cfg.placement = core::PlacementSpec::parse(placement);
                         cfg.load_model =
                             core::LoadModelSpec::parse(load_model);
                       }});
  return SweepAxis::choices("placement", std::move(choices));
}

/// "<ssp>/<placement>" choice routing over the named load model.
Choice ssp_placement(const std::string& ssp, const std::string& placement,
                     const std::string& load_model) {
  std::string label = ssp + "/" + placement;
  // Only the non-default freshness is worth a longer column header.
  if (load_model.rfind("stale", 0) == 0) label += "/" + load_model;
  return {std::move(label), [=](Config& cfg) {
            cfg.ssp = core::serial_strategy_by_name(ssp);
            cfg.placement = core::PlacementSpec::parse(placement);
            cfg.load_model = core::LoadModelSpec::parse(load_model);
          }};
}

/// A manifest over the standard metric set.
Manifest make_manifest(std::string name, std::string description,
                 std::function<Config()> base,
                 std::function<SweepGrid()> grid,
                 std::vector<TableSpec> tables) {
  Manifest m;
  m.name = std::move(name);
  m.description = std::move(description);
  m.base = std::move(base);
  m.grid = std::move(grid);
  m.metrics = default_metrics();
  m.tables = std::move(tables);
  return m;
}

// --- the figures and the manifests committed to expectations/ --------------

Manifest fig2_manifest() {
  return make_manifest(
      "fig2_ssp",
      "Fig. 2 grid: MD_local/MD_global vs load for SSP strategies "
      "UD, ED, EQS, EQF (Table-1 baseline)",
      [] { return serial_base(5e4); },
      [] {
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("load",
                                      {"0.1", "0.2", "0.3", "0.4", "0.5"}))
            .axis(SweepAxis::by_field("ssp", {"UD", "ED", "EQS", "EQF"}));
        return grid;
      },
      {percent_table("Fig. 2a — MD_local (%), by SSP strategy",
                     &system::ExperimentResult::md_local),
       percent_table("Fig. 2b — MD_global (%), by SSP strategy",
                     &system::ExperimentResult::md_global)});
}

Manifest fig3_manifest() {
  return make_manifest(
      "fig3_frac_local",
      "Fig. 3 grid: miss ratios vs frac_local for UD and EQF at load 0.5",
      [] { return serial_base(5e4); },
      [] {
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("frac_local", {"0.1", "0.25", "0.5",
                                                     "0.75", "0.9", "0.95"}))
            .axis(SweepAxis::by_field("ssp", {"UD", "EQF"}));
        return grid;
      },
      {percent_table("Fig. 3 — MD_local (%) vs fraction of local load",
                     &system::ExperimentResult::md_local),
       percent_table("Fig. 3 — MD_global (%) vs fraction of local load",
                     &system::ExperimentResult::md_global)});
}

Manifest fig4_manifest() {
  return make_manifest(
      "fig4_psp",
      "Fig. 4 grid: MD_local/MD_global vs load for PSP strategies "
      "UD, DIV-1, DIV-2, GF (parallel baseline)",
      [] {
        Config cfg = system::baseline_psp();
        cfg.horizon = 5e4;
        return cfg;
      },
      [] {
        SweepGrid grid;
        grid.axis(SweepAxis::by_field(
                "load", {"0.1", "0.2", "0.3", "0.4", "0.5", "0.6"}))
            .axis(SweepAxis::by_field("psp", {"UD", "DIV1", "DIV2", "GF"}));
        return grid;
      },
      {percent_table("Fig. 4 — MD_local (%), by PSP strategy",
                     &system::ExperimentResult::md_local),
       percent_table("Fig. 4 — MD_global (%), by PSP strategy",
                     &system::ExperimentResult::md_global)});
}

Manifest abl_rel_flex_manifest() {
  Manifest m = make_manifest(
      "abl_rel_flex",
      "Section 4.3 ablation grid: rel_flex x load x {UD, EQF} "
      "(EQF wins in the moderate slack/load band)",
      [] { return serial_base(5e4); },
      [] {
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("rel_flex", {"0.1", "0.25", "0.5",
                                                   "1.0", "2.0", "4.0",
                                                   "8.0"}))
            .axis(SweepAxis::by_field("load", {"0.3", "0.5", "0.7"}))
            .axis(SweepAxis::by_field("ssp", {"UD", "EQF"}));
        return grid;
      },
      {md_global_table()});
  // Reduce over the strategy axis: gap(flex, load) = UD - EQF, read off
  // each point's coordinates so the reduction is immune to grid order.
  m.verdict = [](const SweepResult& sweep) {
    const PointResult& last = sweep.points.back();
    std::vector<std::vector<double>> gap(
        last.point.indices[0] + 1,
        std::vector<double>(last.point.indices[1] + 1, 0.0));
    std::vector<std::string> flexes(gap.size());
    std::vector<std::string> headers = {"rel_flex"};
    headers.resize(gap.front().size() + 1);
    for (const PointResult& p : sweep.points) {
      const auto& ix = p.point.indices;  // (flex, load, strategy)
      gap[ix[0]][ix[1]] +=
          (ix[2] == 0 ? 1.0 : -1.0) * p.result.md_global.mean;
      flexes[ix[0]] = p.point.labels[0];
      headers[ix[1] + 1] = "gap@load=" + p.point.labels[1];
    }
    stats::Table table(headers);
    for (std::size_t f = 0; f < gap.size(); ++f) {
      std::vector<std::string> row = {flexes[f]};
      for (double g : gap[f]) row.push_back(stats::Table::percent(g, 1));
      table.add_row(std::move(row));
    }
    std::ostringstream os;
    os << "MD_global(UD) - MD_global(EQF) in percentage points; positive = "
          "EQF better\n";
    table.print(os);
    os << "\nexpect: small gaps at the extremes (slack too tight or too "
          "loose), the biggest gap in the middle band.\n";
    return os.str();
  };
  return m;
}

Manifest abl_scale_quick_manifest() {
  return make_manifest(
      "abl_scale_quick",
      "Scale ablation (quick grid): k x placement at constant per-node "
      "load; horizon shrinks 24/k past k=24 so the event budget per point "
      "stays flat (mirrors bench_abl_scale --quick)",
      [] { return serial_base(2e4); },
      [] {
        SweepGrid grid;
        grid.axis(node_count_axis({64, 256}))
            .axis(placement_axis({{"static", "none"},
                                  {"jsq-pex", "exact"},
                                  {"pod:2", "exact"}}));
        return grid;
      },
      {});
}

Manifest wl_mix_manifest() {
  return make_manifest(
      "wl_mix",
      "Workload-mix grid: arrival process x service law at the serial "
      "baseline (all points matched-mean/rate-normalized, so the offered "
      "load is constant and only burstiness/variability moves)",
      [] { return serial_base(5e4); },
      [] {
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("arrivals",
                                      {"poisson", "batch:1,8", "mmpp:4,0.25",
                                       "onoff:20,80", "diurnal:1000,0.8"}))
            .axis(SweepAxis::by_field("service",
                                      {"exp", "pareto:2.5", "lognormal:1"}));
        return grid;
      },
      {});
}

Manifest abl_stale_decay_manifest() {
  return make_manifest(
      "abl_stale_decay",
      "Staleness-decay grid: load-model freshness x placement for the "
      "load-aware serial strategy at load 0.85 (how fast the EQS-L / "
      "jsq advantage decays as the state view ages)",
      [] {
        Config cfg = serial_base(5e4);
        cfg.load = 0.85;
        cfg.ssp = core::serial_strategy_by_name("EQS-L");
        return cfg;
      },
      [] {
        SweepGrid grid;
        grid.axis(SweepAxis::by_field(
                "load_model", {"exact", "sampled:5", "stale:5", "stale:20"}))
            .axis(SweepAxis::by_field("placement", {"static", "jsq-pex"}));
        return grid;
      },
      {});
}

Manifest abl_faults_manifest() {
  return make_manifest(
      "abl_faults",
      "Fault-tolerance grid: fault intensity x placement for the serial "
      "EQF strategy at load 0.5 (crash/recovery renewal faults from RNG "
      "stream 3; MD must degrade smoothly as intensity rises, with jsq "
      "routing around marked-down nodes — past ~0.7 load the backlog "
      "relief from crashed queues masks the trend)",
      [] {
        Config cfg = serial_base(5e4);
        cfg.load = 0.5;
        cfg.ssp = core::serial_strategy_by_name("EQF");
        return cfg;
      },
      [] {
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("faults",
                                      {"none", "crash:500,25;retry:2",
                                       "crash:150,25;retry:2;shed:1.5"}))
            .axis(placement_axis({{"static", "none"}, {"jsq-pex", "exact"}}));
        return grid;
      },
      {});
}

// --- printed manifests: the ablation and analysis grids ---------------------

Manifest abl_abort_manifest() {
  return make_manifest(
      "abl_abort",
      "Section 4.3/7 relaxation: overload management by aborting tardy "
      "tasks, serial UD/EQF and parallel DIV1/GF at load 0.5 (AbortTardy "
      "discards on the virtual deadline, AbortUltimate on the end-to-end "
      "one; under firm deadlines GF's early virtual deadlines lose their "
      "edge)",
      [] { return serial_base(1e6); },
      [] {
        const auto psp = [](const char* name) {
          return Choice{name, [name](Config& cfg) {
                          reshape(cfg, system::baseline_psp());
                          cfg.psp = core::parallel_strategy_by_name(name);
                        }};
        };
        const auto ssp = [](const char* name) {
          return Choice{name, [name](Config& cfg) {
                          cfg.ssp = core::serial_strategy_by_name(name);
                        }};
        };
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("abort", {"NoAbort", "AbortTardy",
                                                "AbortUltimate",
                                                "AbortHopeless"}))
            .axis(SweepAxis::choices(
                "strategy", {ssp("UD"), ssp("EQF"), psp("DIV1"), psp("GF")}));
        return grid;
      },
      {md_local_table(), md_global_table(),
       {"aborted global tasks per 1000 generated",
        [](const PointResult& p) {
          double per_k = 0;
          for (const auto& run : p.result.runs)
            per_k += 1000.0 * static_cast<double>(run.global.aborted) /
                     static_cast<double>(
                         std::max<std::uint64_t>(1, run.global.generated));
          return stats::Table::cell(
              per_k / static_cast<double>(p.result.runs.size()), 1);
        }}});
}

Manifest abl_artificial_stages_manifest() {
  return make_manifest(
      "abl_artificial_stages",
      "Section 7 future-work option: EQF with artificial stages; EQF-AS(a) "
      "appends a phantom stages whose slack share flows back to the real "
      "ones, at loads 0.5 and 0.7",
      [] { return serial_base(1e6); },
      [] {
        std::vector<Choice> strategies = {
            {"UD", [](Config& cfg) { cfg.ssp = core::make_ud(); }},
            {"EQF", [](Config& cfg) { cfg.ssp = core::make_eqf(); }}};
        for (std::size_t a : {1u, 2u, 4u})
          strategies.push_back({"EQF-AS(" + std::to_string(a) + ")",
                                [a](Config& cfg) {
                                  cfg.ssp = core::make_eqf_reserve(a);
                                }});
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("load", {"0.5", "0.7"}))
            .axis(SweepAxis::choices("strategy", std::move(strategies)));
        return grid;
      },
      {md_local_table(), md_global_table()});
}

Manifest abl_burstiness_manifest() {
  return make_manifest(
      "abl_burstiness",
      "Section 4.2.1's transient overloads, manufactured: local arrivals in "
      "batches of U[1,B] tasks at constant load 0.5",
      [] { return serial_base(1e6); },
      [] {
        std::vector<Choice> batches = {{"none", [](Config&) {}}};
        for (const char* b : {"4", "8", "16"})
          batches.push_back(
              {std::string("U[1,") + b + "]",
               [spec = workload::ArrivalSpec::parse(std::string("batch:1,") +
                                                    b)](Config& cfg) {
                 cfg.arrivals = spec;
               }});
        SweepGrid grid;
        grid.axis(SweepAxis::choices("batch", std::move(batches)))
            .axis(SweepAxis::by_field("ssp", {"UD", "EQF"}));
        return grid;
      },
      {md_local_table(), md_global_table()});
}

Manifest abl_comm_overhead_manifest() {
  return make_manifest(
      "abl_comm_overhead",
      "Section 3.2: the network as processing nodes; a transmission "
      "subtask on one of 2 link nodes between consecutive stages, per-hop "
      "cost swept, serial and serial-parallel shapes at load 0.5",
      [] { return serial_base(1e6); },
      [] {
        SweepGrid grid;
        grid.axis(SweepAxis::choices(
                "shape", {{"serial", [](Config&) {}},
                          {"serial-parallel",
                           [](Config& cfg) {
                             reshape(cfg, system::baseline_combined());
                           }}}))
            .axis(SweepAxis::numeric("mean hop cost", {0.0, 0.1, 0.25, 0.5},
                                     [](Config& cfg, double hop) {
                                       if (hop <= 0) return;
                                       cfg.link_nodes = 2;
                                       cfg.comm_exec = sim::exponential(hop);
                                     }))
            .axis(SweepAxis::by_field("ssp", {"UD", "EQF"}));
        return grid;
      },
      {md_local_table(), md_global_table(),
       {"link utilization (%)", [](const PointResult& p) {
          double util = 0;
          for (const auto& run : p.result.runs)
            util += run.mean_link_utilization;
          return stats::Table::percent(
              util / static_cast<double>(p.result.runs.size()), 1);
        }}});
}

Manifest abl_divx_sweep_manifest() {
  return make_manifest(
      "abl_divx_sweep",
      "Section 5.3: choosing x for DIV-x, with UD and GF (the limit) as "
      "bounds; parallel baseline at loads 0.5 and 0.7",
      [] {
        Config cfg = system::baseline_psp();
        cfg.horizon = 1e6;
        return cfg;
      },
      [] {
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("load", {"0.5", "0.7"}))
            .axis(SweepAxis::by_field(
                "psp", {"UD", "DIV0.25", "DIV0.5", "DIV1", "DIV2", "DIV4",
                        "DIV8", "GF"}));
        return grid;
      },
      {md_local_table(), md_global_table()});
}

Manifest abl_faults_ladder_manifest() {
  Manifest m = make_manifest(
      "abl_faults_ladder",
      "Robustness: crash/recovery renewal faults (RNG stream 3, so `none` "
      "is bitwise the fault-free run) from rare (crash:2000,40) to heavy "
      "(crash:150,25 with shed:1.5), all with retry:2, x strategy/"
      "placement at load 0.5; MD must degrade smoothly, not fall off a "
      "cliff",
      [] {
        Config cfg = serial_base(2e5);
        cfg.load = 0.5;
        return cfg;
      },
      [] {
        const auto intensity = [](const char* label, const char* spec) {
          return Choice{label, [faults = fault::FaultSpec::parse(spec)](
                                   Config& cfg) { cfg.faults = faults; }};
        };
        SweepGrid grid;
        grid.axis(SweepAxis::choices(
                "faults",
                {intensity("none", "none"),
                 intensity("rare", "crash:2000,40;retry:2"),
                 intensity("moderate", "crash:500,25;retry:2"),
                 intensity("heavy", "crash:150,25;retry:2;shed:1.5")}))
            .axis(SweepAxis::choices(
                "strategy/placement",
                {ssp_placement("UD", "static", "none"),
                 ssp_placement("EQF", "static", "none"),
                 ssp_placement("EQF", "jsq-pex", "exact")}));
        return grid;
      },
      {percent_table("MD_overall (%), both task classes pooled",
                     &system::ExperimentResult::md_overall),
       percent_table("MD_global (%), global tasks only",
                     &system::ExperimentResult::md_global)});
  // Within each strategy column MD_overall must not fall as the fault
  // intensity rises; every step is printed so a cliff is visible.
  m.verdict = [](const SweepResult& sweep) {
    std::string out = "degradation verdict, MD_overall along the fault "
                      "ladder:\n";
    for (const char* label : {"UD/static", "EQF/static", "EQF/jsq-pex"}) {
      bool smooth = true;
      double prev = 0;
      out += format("  %-12s", label);
      for (const char* faults : {"none", "rare", "moderate", "heavy"}) {
        const PointResult* p = find_point(sweep, faults, label);
        const double cur = p ? p->result.md_overall.mean : -1;
        out += format(faults == std::string_view("none") ? " %6.2f%%"
                                                          : " -> %6.2f%%",
                      100 * cur);
        if (cur + 1e-12 < prev) smooth = false;
        prev = cur;
      }
      out += smooth ? "  DEGRADES SMOOTHLY\n" : "  NON-MONOTONE\n";
    }
    return out;
  };
  return m;
}

Manifest abl_heterogeneity_manifest() {
  return make_manifest(
      "abl_heterogeneity",
      "Section 4.3: non-uniform local loads across the k=6 nodes; arrival "
      "weights skewed with the total local load held at load 0.5, so any "
      "movement is a pure skew effect",
      [] { return serial_base(1e6); },
      [] {
        const auto skew = [](const char* label, std::vector<double> weights) {
          return Choice{label, [weights](Config& cfg) {
                          cfg.local_weights = weights;
                        }};
        };
        SweepGrid grid;
        grid.axis(SweepAxis::choices(
                "local load skew",
                {skew("uniform", {}), skew("mild (2:1)", {2, 2, 2, 1, 1, 1}),
                 skew("strong (4:1)", {4, 4, 1, 1, 1, 1}),
                 skew("one hot node", {10, 1, 1, 1, 1, 1})}))
            .axis(SweepAxis::by_field("ssp", {"UD", "EQF"}));
        return grid;
      },
      {md_local_table(), md_global_table()});
}

Manifest abl_load_aware_manifest() {
  Manifest m = make_manifest(
      "abl_load_aware",
      "Extension (Section 7's open question): load-aware deadline "
      "assignment toward saturation; serial EQS/EQF vs EQS-L/EQF-L over "
      "exact and stale:5 load models, parallel DIV1 vs the online-adaptive "
      "DIVA",
      [] { return serial_base(2e5); },
      [] {
        const auto serial = [](const char* ssp, const char* lm) {
          const std::string model = lm;
          return Choice{ssp + (model == "none" ? "" : "/" + model),
                        [ssp, lm](Config& cfg) {
                          cfg.ssp = core::serial_strategy_by_name(ssp);
                          cfg.load_model = core::LoadModelSpec::parse(lm);
                        }};
        };
        const auto parallel = [](const char* psp) {
          return Choice{psp, [psp](Config& cfg) {
                          reshape(cfg, system::baseline_psp());
                          cfg.psp = core::parallel_strategy_by_name(psp);
                        }};
        };
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("load", {"0.5", "0.7", "0.85"}))
            .axis(SweepAxis::choices(
                "strategy",
                {serial("EQS", "none"), serial("EQS-L", "exact"),
                 serial("EQS-L", "stale:5"), serial("EQF", "none"),
                 serial("EQF-L", "exact"), parallel("DIV1"),
                 parallel("DIVA")}));
        return grid;
      },
      {percent_table("MD_global (%), by strategy (serial family left, "
                     "parallel family right)",
                     &system::ExperimentResult::md_global),
       percent_table("MD_overall (%), both task classes pooled",
                     &system::ExperimentResult::md_overall)});
  // Each load-aware strategy vs its static twin at the highest load, on
  // the miss ratio its family targets.
  m.verdict = [](const SweepResult& sweep) {
    struct Pair {
      const char* aware;
      const char* baseline;
      bool overall;
    };
    std::string out = "saturation verdict (load 0.85):\n";
    for (const Pair& pair : {Pair{"EQS-L/exact", "EQS", true},
                             Pair{"EQS-L/stale:5", "EQS", true},
                             Pair{"EQF-L/exact", "EQF", true},
                             Pair{"DIVA", "DIV1", false}}) {
      const auto md = [&](const char* label) {
        const PointResult* p = find_point(sweep, "0.85", label);
        if (!p) return -1.0;
        return pair.overall ? p->result.md_overall.mean
                            : p->result.md_global.mean;
      };
      const double aware = md(pair.aware);
      const double stat = md(pair.baseline);
      out += format("  %-14s vs %-5s on %-10s %6.2f%% vs %6.2f%%  %s\n",
                    pair.aware, pair.baseline,
                    pair.overall ? "MD_overall" : "MD_global", 100 * aware,
                    100 * stat, aware < stat ? "IMPROVES" : "no gain");
    }
    return out;
  };
  return m;
}

Manifest abl_node_count_manifest() {
  return make_manifest(
      "abl_node_count",
      "Extension: number of nodes k at constant load 0.5, m=4 serial "
      "subtasks; past k=24 the horizon shrinks 24/k so the event budget "
      "per point stays flat",
      [] { return serial_base(1e6); },
      [] {
        SweepGrid grid;
        grid.axis(node_count_axis({2, 4, 6, 12, 24, 96, 384, 1536}))
            .axis(SweepAxis::by_field("ssp", {"UD", "EQF"}));
        return grid;
      },
      {md_local_table(), md_global_table()});
}

Manifest abl_pex_error_manifest() {
  return make_manifest(
      "abl_pex_error",
      "Section 4.3 relaxation: error in the execution-time predictions, "
      "pex = ex(1 + U[-e,e]) or drawn from Exp(1) independent of ex; UD "
      "ignores pex and is the control; load 0.5",
      [] { return serial_base(1e6); },
      [] {
        const auto predictor = [](std::string label,
                                  workload::PexErrorModelPtr model) {
          return Choice{std::move(label),
                        [model](Config& cfg) { cfg.pex_error = model; }};
        };
        std::vector<Choice> cases = {predictor(
            "perfect (e=0)", workload::make_perfect_prediction())};
        for (double e : {0.25, 0.5, 1.0})
          cases.push_back(
              predictor("uniform e=" + stats::Table::cell(e, 2),
                        workload::make_uniform_relative_error(e)));
        cases.push_back(predictor("distribution-only",
                                  workload::make_distribution_only(
                                      sim::exponential(1.0))));
        SweepGrid grid;
        grid.axis(SweepAxis::choices("prediction", std::move(cases)))
            .axis(SweepAxis::by_field("ssp", {"UD", "ED", "EQF"}));
        return grid;
      },
      {md_global_table(), md_local_table()});
}

Manifest abl_placement_manifest() {
  Manifest m = make_manifest(
      "abl_placement",
      "Extension: dispatch-time placement of global subtasks (jsq-pex, "
      "jsq-util over the exact board, jsq-pex over stale:5 snapshots) vs "
      "the paper's generation-time uniform draw, x {UD, EQF}, toward "
      "saturation",
      [] { return serial_base(2e5); },
      [] {
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("load", {"0.7", "0.85", "0.92"}))
            .axis(SweepAxis::choices(
                "strategy/placement",
                {ssp_placement("UD", "static", "none"),
                 ssp_placement("UD", "jsq-pex", "exact"),
                 ssp_placement("UD", "jsq-util", "exact"),
                 ssp_placement("UD", "jsq-pex", "stale:5"),
                 ssp_placement("EQF", "static", "none"),
                 ssp_placement("EQF", "jsq-pex", "exact"),
                 ssp_placement("EQF", "jsq-util", "exact")}));
        return grid;
      },
      {percent_table("MD_overall (%), both task classes pooled",
                     &system::ExperimentResult::md_overall),
       percent_table("MD_global (%), global tasks only",
                     &system::ExperimentResult::md_global)});
  // Every jsq variant vs its static twin, per load, on the pooled miss
  // ratio (the bar: jsq-pex improves on static at load >= 0.85).
  m.verdict = [](const SweepResult& sweep) {
    std::string out = "placement verdict, MD_overall vs the static twin:\n";
    for (const std::string ssp : {"UD", "EQF"}) {
      for (const char* load : {"0.7", "0.85", "0.92"}) {
        const PointResult* stat = find_point(sweep, load, ssp + "/static");
        for (const char* placement :
             {"jsq-pex", "jsq-util", "jsq-pex/stale:5"}) {
          const std::string label = ssp + "/" + placement;
          const PointResult* jsq = find_point(sweep, load, label);
          if (!jsq || !stat) continue;  // stale is UD-only
          const double a = jsq->result.md_overall.mean;
          const double b = stat->result.md_overall.mean;
          out += format("  load %-5s %-19s %6.2f%% vs %6.2f%%  %s\n", load,
                        label.c_str(), 100 * a, 100 * b,
                        a < b ? "IMPROVES" : "no gain");
        }
      }
    }
    return out;
  };
  return m;
}

Manifest abl_preemption_manifest() {
  return make_manifest(
      "abl_preemption",
      "Extension: non-preemptive (Table 1) vs preemptive-resume EDF at "
      "loads 0.5 and 0.7",
      [] { return serial_base(1e6); },
      [] {
        const auto server = [](const char* label, sched::PreemptionMode mode) {
          return Choice{label, [mode](Config& cfg) { cfg.preemption = mode; }};
        };
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("load", {"0.5", "0.7"}))
            .axis(SweepAxis::choices(
                "server",
                {server("non-preempt", sched::PreemptionMode::NonPreemptive),
                 server("preemptive", sched::PreemptionMode::Preemptive)}))
            .axis(SweepAxis::by_field("ssp", {"UD", "EQF"}));
        return grid;
      },
      {md_local_table(), md_global_table()});
}

Manifest abl_scheduler_manifest() {
  return make_manifest(
      "abl_scheduler",
      "Section 4.3 relaxation: the local scheduling algorithm, EDF vs MLF "
      "with FCFS and SJF as non-real-time references, at load 0.5",
      [] { return serial_base(1e6); },
      [] {
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("policy", {"EDF", "MLF", "FCFS", "SJF"}))
            .axis(SweepAxis::by_field("ssp", {"UD", "EQF"}));
        return grid;
      },
      {md_local_table(), md_global_table()});
}

Manifest abl_service_variability_manifest() {
  return make_manifest(
      "abl_service_variability",
      "Extension: subtask execution-time variability at matched mean and "
      "load 0.5: const (scv 0), erlang:4 (0.25), exp (1, Table 1), h2:4, "
      "h2:16, pareto:2.5, lognormal:1; local tasks stay Exp(1)",
      [] { return serial_base(1e6); },
      [] {
        SweepGrid grid;
        grid.axis(SweepAxis::by_field(
                "service", {"const", "erlang:4", "exp", "h2:4", "h2:16",
                            "pareto:2.5", "lognormal:1"}))
            .axis(SweepAxis::by_field("ssp", {"UD", "EQF"}));
        return grid;
      },
      {md_global_table(), md_local_table()});
}

Manifest abl_static_vs_dynamic_manifest() {
  return make_manifest(
      "abl_static_vs_dynamic",
      "Extension: what submission-time recomputation (slack inheritance) "
      "is worth; '-S' strategies freeze the schedule at task arrival",
      [] { return serial_base(1e6); },
      [] {
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("load", {"0.4", "0.5", "0.6", "0.7"}))
            .axis(SweepAxis::by_field("ssp",
                                      {"UD", "EQS", "EQS-S", "EQF", "EQF-S"}));
        return grid;
      },
      {md_global_table()});
}

Manifest abl_subtask_count_manifest() {
  return make_manifest(
      "abl_subtask_count",
      "Section 4.3: sensitivity to the number of serial subtasks m, fixed "
      "and drawn per task from U[2,6], at load 0.5",
      [] { return serial_base(1e6); },
      [] {
        const auto count = [](std::string label, std::size_t m,
                              sim::DistributionPtr dist) {
          return Choice{std::move(label), [m, dist](Config& cfg) {
                          cfg.subtasks = m;
                          cfg.subtask_count = dist;
                        }};
        };
        std::vector<Choice> ms;
        for (std::size_t m : {1u, 2u, 4u, 8u, 12u})
          ms.push_back(count(std::to_string(m), m, nullptr));
        ms.push_back(count("U[2,6]", 4, sim::uniform(2.0, 6.0)));
        SweepGrid grid;
        grid.axis(SweepAxis::choices("m", std::move(ms)))
            .axis(SweepAxis::by_field("ssp", {"UD", "EQF"}));
        return grid;
      },
      {md_global_table(), md_local_table()});
}

/// Response quantiles of one task class over every replication of a point:
/// "p50 / p90 / p99 | % above twice the class's mean execution time".
TableSpec response_tail_table(std::string title,
                              system::ClassMetrics system::RunMetrics::*cls,
                              double mean_ex) {
  return {std::move(title), [cls, mean_ex](const PointResult& p) {
            stats::Histogram hist = (p.result.runs.front().*cls).response_hist;
            for (std::size_t r = 1; r < p.result.runs.size(); ++r)
              hist.merge((p.result.runs[r].*cls).response_hist);
            return stats::Table::cell(hist.quantile(0.50), 2) + " / " +
                   stats::Table::cell(hist.quantile(0.90), 2) + " / " +
                   stats::Table::cell(hist.quantile(0.99), 2) + " | " +
                   stats::Table::percent(hist.fraction_above(2.0 * mean_ex),
                                         1);
          }};
}

Manifest analysis_response_tails_manifest() {
  return make_manifest(
      "analysis_response_tails",
      "Response-time tails per class under UD, ED and EQF at load 0.5 "
      "(Fig. 2 and the Section 2 discussion of [11]): under UD the global "
      "p99 balloons while medians barely move",
      [] { return serial_base(2e5); },
      [] {
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("ssp", {"UD", "ED", "EQF"}));
        return grid;
      },
      {response_tail_table("local tasks: response p50 / p90 / p99 | % above "
                           "2x mean ex (1.0), replications pooled",
                           &system::RunMetrics::local, 1.0),
       response_tail_table("global tasks: response p50 / p90 / p99 | % above "
                           "2x mean ex (4.0), replications pooled",
                           &system::RunMetrics::global, 4.0)});
}

Manifest tab_ssp_psp_combined_manifest() {
  return make_manifest(
      "tab_ssp_psp_combined",
      "Section 6: serial-parallel tasks (3 serial stages, each a parallel "
      "group of 3 with p=0.5) under UD-UD, UD-DIV1, EQF-UD, EQF-DIV1; the "
      "benefits of EQF and DIV1 add up",
      [] {
        Config cfg = system::baseline_combined();
        cfg.horizon = 1e6;
        return cfg;
      },
      [] {
        const auto combo = [](const char* ssp, const char* psp) {
          return Choice{std::string(ssp) + "-" + psp, [ssp, psp](Config& cfg) {
                          cfg.ssp = core::serial_strategy_by_name(ssp);
                          cfg.psp = core::parallel_strategy_by_name(psp);
                        }};
        };
        SweepGrid grid;
        grid.axis(SweepAxis::by_field("load", {"0.3", "0.5", "0.7"}))
            .axis(SweepAxis::choices(
                "strategy", {combo("UD", "UD"), combo("UD", "DIV1"),
                             combo("EQF", "UD"), combo("EQF", "DIV1")}));
        return grid;
      },
      {md_local_table(), md_global_table()});
}

}  // namespace

Registry& builtin_registry() {
  static Registry registry = [] {
    Registry r;
    r.add(fig2_manifest());
    r.add(fig3_manifest());
    r.add(fig4_manifest());
    r.add(abl_rel_flex_manifest());
    r.add(abl_scale_quick_manifest());
    r.add(wl_mix_manifest());
    r.add(abl_stale_decay_manifest());
    r.add(abl_faults_manifest());
    r.add(abl_abort_manifest());
    r.add(abl_artificial_stages_manifest());
    r.add(abl_burstiness_manifest());
    r.add(abl_comm_overhead_manifest());
    r.add(abl_divx_sweep_manifest());
    r.add(abl_faults_ladder_manifest());
    r.add(abl_heterogeneity_manifest());
    r.add(abl_load_aware_manifest());
    r.add(abl_node_count_manifest());
    r.add(abl_pex_error_manifest());
    r.add(abl_placement_manifest());
    r.add(abl_preemption_manifest());
    r.add(abl_scheduler_manifest());
    r.add(abl_service_variability_manifest());
    r.add(abl_static_vs_dynamic_manifest());
    r.add(abl_subtask_count_manifest());
    r.add(analysis_response_tails_manifest());
    r.add(tab_ssp_psp_combined_manifest());
    return r;
  }();
  return registry;
}

}  // namespace dsrt::xp
