#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "dsrt/system/baseline.hpp"

namespace bench {

RunControl parse_run_control(const dsrt::util::Flags& flags,
                             const std::vector<std::string>& extra) {
  RunControl rc;
  try {
    std::vector<std::string> accepted = {"horizon", "reps", "seed", "out"};
    accepted.insert(accepted.end(), extra.begin(), extra.end());
    flags.require_known(accepted);
    rc.horizon = flags.get("horizon", rc.horizon);
    const long reps = flags.get("reps", static_cast<long>(rc.reps));
    if (reps < 1) throw std::invalid_argument("--reps must be >= 1");
    rc.reps = static_cast<std::size_t>(reps);
    const long seed = flags.get("seed", static_cast<long>(rc.seed));
    if (seed < 0) throw std::invalid_argument("--seed must be >= 0");
    rc.seed = static_cast<std::uint64_t>(seed);
    rc.out_dir = flags.get("out", rc.out_dir);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bad flags: %s\n", error.what());
    std::exit(1);
  }
  return rc;
}

void apply(const RunControl& rc, dsrt::system::Config& cfg) {
  cfg.horizon = rc.horizon;
  cfg.seed = rc.seed;
}

dsrt::system::Config scaled_node_config(std::size_t k, const RunControl& rc) {
  dsrt::system::Config cfg = dsrt::system::baseline_ssp();
  apply(rc, cfg);
  cfg.nodes = k;
  if (k > 24) cfg.horizon = rc.horizon * 24.0 / static_cast<double>(k);
  return cfg;
}

void banner(const std::string& experiment, const std::string& paper_artifact,
            const std::string& notes) {
  std::printf("== %s ==\n", experiment.c_str());
  std::printf("reproduces: %s\n", paper_artifact.c_str());
  if (!notes.empty()) std::printf("%s\n", notes.c_str());
  std::printf("\n");
}

void emit(const dsrt::stats::Table& table) {
  table.print(std::cout);
  std::printf("\n");
}

}  // namespace bench
