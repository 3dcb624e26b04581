#pragma once

// Shared helpers for the bench programs that are not configuration grids:
// a Table-1 printout, the DIV-x autotuner, two observer-driven analyses and
// the wall-time/RSS scale A/B. Every grid experiment (the paper figures and
// the ablations) is a manifest printed by `sweep_cli table <manifest>`.
//
// Run-control flags understood by every bench here:
//   --horizon=<t>   simulated time units per replication (default 1e6,
//                   the paper's run length; some benches pick their own)
//   --reps=<n>      independent replications per data point (default 2,
//                   as in the paper)
//   --seed=<s>      base seed
//   --out=<dir>     where artifacts (BENCH_*.json) are written
// Any other flag is an error unless the bench names it as its own.

#include <cstdint>
#include <string>
#include <vector>

#include "dsrt/stats/report.hpp"
#include "dsrt/system/config.hpp"
#include "dsrt/util/flags.hpp"

namespace bench {

/// Run-control settings parsed from the common flags.
struct RunControl {
  double horizon = 1e6;
  std::size_t reps = 2;
  std::uint64_t seed = 20250612;
  std::string out_dir = ".";
};

/// Parses the common flags (see header comment), accepting `extra` flags
/// the bench reads itself. Reports a bad or unknown flag on stderr and
/// exits(1) rather than throwing through the bench mains.
RunControl parse_run_control(const dsrt::util::Flags& flags,
                             const std::vector<std::string>& extra = {});

/// Applies run control to a config.
void apply(const RunControl& rc, dsrt::system::Config& cfg);

/// Serial-baseline config scaled to k nodes at constant per-node load
/// (run control applied). Past the paper's largest figure (k=24) the
/// horizon shrinks proportionally to 1/k, so the total event budget — and
/// the wall time of a data point — stays roughly flat while the pending
/// event set grows with k (the abl_node_count manifest scales the same
/// way).
dsrt::system::Config scaled_node_config(std::size_t k, const RunControl& rc);

/// Prints the bench banner: experiment id, what the paper shows, and the
/// configuration being swept.
void banner(const std::string& experiment, const std::string& paper_artifact,
            const std::string& notes);

/// Prints the table followed by a blank line.
void emit(const dsrt::stats::Table& table);

}  // namespace bench
