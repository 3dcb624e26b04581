// A16 — extension: scale to thousands of nodes.
//
// The paper stops at k=24; this bench pushes the same serial baseline to
// k=4096 and measures the three levers that make that tractable:
//
//   * event-queue layout — at k nodes the kernel keeps ~2k+2 events
//     pending, so past the adaptive ladder threshold the pending set
//     switches from a d-ary heap (O(log n) per op over one big array) to
//     a bucketed ladder (amortized O(1) inserts, small sorted front).
//     Pop order is identical in every mode, so the trajectory — and every
//     metric — is layout-invariant; only events/second moves.
//   * placement — jsq-pex answers each decision from the exact board's
//     rank index (a min/tie-count tree over node ids, O(log k) per
//     decision plus O(log k) per backlog change); pod:d samples d nodes
//     (power-of-d-choices, O(d)) and takes the argmin. The sweep shows
//     what each costs per event as k grows, and how close pod stays to
//     jsq on MD.
//   * memory — resident set per cell, to catch accidental O(k^2) tables.
//
// Per-point cost stays roughly flat: scaled_node_config shrinks the
// horizon ∝ 1/k (constant event budget), so the full grid is CI-sized.
//
// Flags: the run control of bench_common.hpp, plus --kmax=<k> (largest k
// swept) and --quick (horizon 1e5: the CI-sized grid).
//
// Artifact: BENCH_scale.json with one events/second entry per
// (k, placement, queue) cell plus rss_kb/* gauges (items = resident KB).
// The deterministic slice of this sweep (k x placement, adaptive queue)
// is also registered as the `abl_scale_quick` manifest in dsrt::xp, where
// sweep_cli checks it against committed expectations.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dsrt/engine/emit.hpp"
#include "dsrt/system/experiment.hpp"

namespace {

/// Resident set in KB (VmRSS), 0 where /proc is unavailable.
double resident_kb() {
  double kb = 0;
#ifdef __linux__
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      status >> kb;
      break;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
#endif
  return kb;
}

struct PlacementCase {
  const char* placement;   ///< PlacementSpec token
  const char* load_model;  ///< LoadModelSpec token ("none" = unwired)
};

}  // namespace

int main(int argc, char** argv) {
  const dsrt::util::Flags flags(argc, argv);
  bench::RunControl rc = bench::parse_run_control(flags, {"kmax", "quick"});
  if (flags.has("quick")) rc.horizon = 1e5;  // the CI-sized grid
  const auto kmax =
      static_cast<std::size_t>(flags.get("kmax", 4096L));

  bench::banner("abl_scale",
                "extension: events/s + resident memory vs k (64..4096)",
                "serial baseline, constant per-node load; placement in "
                "{static, jsq-pex, pod:2}, event queue adaptive vs forced "
                "heap at the big configs");

  std::vector<std::size_t> ks;
  for (std::size_t k : {64u, 256u, 1024u, 4096u})
    if (k <= kmax) ks.push_back(k);
  const std::vector<PlacementCase> cases = {
      {"static", "none"}, {"jsq-pex", "exact"}, {"pod:2", "exact"}};

  dsrt::stats::Table table({"k", "placement", "queue", "Mev/s", "rss_MB",
                            "MD_local", "MD_global"});
  std::vector<dsrt::engine::BenchEntry> entries;
  for (std::size_t k : ks) {
    for (const PlacementCase& pc : cases) {
      // The layout A/B only becomes interesting once the pending set is
      // past the ladder threshold; smaller k stay heap-tier either way.
      std::vector<const char*> modes = {"adaptive"};
      if (k >= 1024) modes.push_back("heap");
      for (const char* mode : modes) {
        dsrt::system::Config cfg = bench::scaled_node_config(k, rc);
        cfg.placement = dsrt::core::PlacementSpec::parse(pc.placement);
        cfg.load_model = dsrt::core::LoadModelSpec::parse(pc.load_model);
        cfg.event_queue = dsrt::sim::parse_queue_mode(mode);

        const auto start = std::chrono::steady_clock::now();
        const auto result = dsrt::system::run_replications(cfg, rc.reps);
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        double events = 0;
        for (const auto& run : result.runs)
          events += static_cast<double>(run.events);
        const double rss = resident_kb();

        const std::string cell = "k" + std::to_string(k) + "/" +
                                 pc.placement + "/" + mode;
        entries.push_back({cell, "events", events, wall});
        // Gauge entries: items carries the value, rate() echoes it.
        entries.push_back({"rss_kb/" + cell, "kb", rss, 1.0});
        table.add_row({std::to_string(k), pc.placement, mode,
                       dsrt::stats::Table::cell(
                           wall > 0 ? events / wall / 1e6 : 0.0, 2),
                       dsrt::stats::Table::cell(rss / 1024.0, 1),
                       dsrt::engine::percent_ci(result.md_local),
                       dsrt::engine::percent_ci(result.md_global)});
      }
    }
  }
  bench::emit(table);
  try {
    const std::string path =
        dsrt::engine::write_microbench_artifact("scale", entries, rc.out_dir);
    std::printf("wrote %s\n", path.c_str());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "abl_scale: emit failed: %s\n", error.what());
    return 1;
  }
  return 0;
}
