// sweep_cli — the front door of the experiment registry and its result
// database (dsrt::xp): print any paper figure or ablation as tables, run a
// manifest's grid (sharded, resumable), check the merged artifacts against
// committed tolerance-banded expectations, bless new expectations, and
// replay any single point bitwise from its seed.
//
//   sweep_cli list
//   sweep_cli table <manifest> [--horizon=T] [--reps=N] [--seed=S]
//                 [--jobs=N] [--emit=json,csv] [--out=DIR]
//   sweep_cli run <manifest> [--shards=I/N] [--out=DIR] [--resume]
//                 [--jobs=N]
//   sweep_cli check <manifest>... [--out=DIR] [--expectations=DIR]
//   sweep_cli bless <manifest>... [--out=DIR] [--expectations=DIR]
//   sweep_cli reproduce <manifest> <index> [--out=DIR] [--jobs=N]
//                 [--metric=NAME]
//
// run writes <out>/<manifest>.shard-I-of-N.jsonl (one JSONL record per
// completed point, flushed per point; --resume skips completed indices
// after verifying the artifact). check merges every shard, writes
// <out>/<manifest>.merged.jsonl, and diffs against
// <expectations>/<manifest>.json — exact metrics bitwise, banded metrics
// within tolerance — exiting nonzero with a report naming each offending
// (manifest, index, metric). reproduce re-runs one grid point from the
// manifest definition and, when shard artifacts are present under --out,
// asserts the exact metrics match the recorded values bitwise. table runs
// the whole grid on the engine pool with the run control applied to the
// manifest's base, prints the manifest's tables and verdict on stdout
// (identical for every --jobs), the timing on stderr, and writes
// <out>/BENCH_<manifest>.json (plus <manifest>.json/.csv with --emit).
// Every subcommand rejects a flag it does not take.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "dsrt/engine/emit.hpp"
#include "dsrt/system/cli.hpp"
#include "dsrt/util/flags.hpp"
#include "dsrt/xp/artifact.hpp"
#include "dsrt/xp/checker.hpp"
#include "dsrt/xp/manifest.hpp"
#include "dsrt/xp/runner.hpp"

using namespace dsrt;

namespace {

const char* kUsage =
    "usage:\n"
    "  sweep_cli list\n"
    "  sweep_cli table <manifest> [--horizon=T] [--reps=N] [--seed=S] "
    "[--jobs=N]\n"
    "                 [--emit=json,csv] [--out=DIR]\n"
    "  sweep_cli run <manifest> [--shards=I/N] [--out=DIR] [--resume] "
    "[--jobs=N]\n"
    "  sweep_cli check <manifest>... [--out=DIR] [--expectations=DIR]\n"
    "  sweep_cli bless <manifest>... [--out=DIR] [--expectations=DIR]\n"
    "  sweep_cli reproduce <manifest> <index> [--out=DIR] [--jobs=N] "
    "[--metric=NAME]\n";

std::string labels_of(const xp::PointRecord& record) {
  std::string out;
  for (std::size_t i = 0; i < record.labels.size(); ++i)
    out += (i ? "," : "") + record.labels[i];
  return out;
}

int cmd_list() {
  const xp::Registry& registry = xp::builtin_registry();
  for (const xp::Manifest& manifest : registry.all())
    std::printf("%-24s %4zu points x %zu reps  %s\n", manifest.name.c_str(),
                manifest.points(), manifest.replications,
                manifest.description.c_str());
  return 0;
}

int cmd_table(const util::Flags& flags,
              const std::vector<std::string>& args) {
  if (args.size() != 1) {
    std::fprintf(stderr, "table expects exactly one manifest\n%s", kUsage);
    return 2;
  }
  const xp::Manifest& manifest = xp::find_manifest(args[0]);
  const system::RunOptions run = system::run_options_from_flags(flags);
  xp::TableOptions options;
  if (flags.has("horizon")) options.horizon = flags.get("horizon", 0.0);
  if (flags.has("reps")) options.reps = run.reps;
  if (flags.has("seed")) {
    const long seed = flags.get("seed", 0L);
    if (seed < 0) throw std::invalid_argument("--seed must be >= 0");
    options.seed = static_cast<std::uint64_t>(seed);
  }
  options.jobs = run.jobs;
  engine::ensure_writable_dir(run.out_dir);

  const engine::SweepResult sweep = xp::run_table(manifest, options);
  std::fputs(xp::render_tables(manifest, options, sweep).c_str(), stdout);
  std::fflush(stdout);
  std::fprintf(stderr,
               "[%s] %zu points x %zu reps on %zu job(s): %.2fs (%.2f "
               "runs/s)\n",
               manifest.name.c_str(), sweep.points.size(),
               sweep.replications, sweep.jobs, sweep.wall_seconds,
               sweep.runs_per_second());
  std::fprintf(stderr, "wrote %s\n",
               engine::write_bench_artifact(manifest.name, sweep, run.out_dir)
                   .c_str());
  for (const std::string& path : engine::write_sweep_files(
           manifest.name, sweep, run.emit_csv, run.emit_json, run.out_dir))
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

int cmd_run(const util::Flags& flags,
            const std::vector<std::string>& args) {
  if (args.size() != 1) {
    std::fprintf(stderr, "run expects exactly one manifest\n%s", kUsage);
    return 2;
  }
  const xp::Manifest& manifest = xp::find_manifest(args[0]);
  xp::RunManifestOptions options;
  options.shard = xp::ShardSpec::parse(flags.get("shards", std::string("0/1")));
  options.out_dir = flags.get("out", std::string("."));
  const long jobs = flags.get("jobs", 1L);
  if (jobs < 0)
    throw std::invalid_argument("--jobs must be >= 0");
  options.jobs = static_cast<std::size_t>(jobs);
  options.resume = flags.get("resume", false);
  engine::ensure_writable_dir(options.out_dir);

  std::printf("manifest %s: %zu points x %zu reps, shard %zu/%zu%s\n",
              manifest.name.c_str(), manifest.points(),
              manifest.replications, options.shard.index,
              options.shard.count, options.resume ? " (resume)" : "");
  options.on_point = [&](const xp::PointRecord& record, bool resumed) {
    if (resumed)
      std::printf("  point %zu (%s): resumed from artifact\n", record.index,
                  labels_of(record).c_str());
    else
      std::printf("  point %zu (%s): %.2fs\n", record.index,
                  labels_of(record).c_str(), record.wall_seconds);
    std::fflush(stdout);
  };
  const xp::RunSummary summary = xp::run_manifest(manifest, options);
  std::printf("%s: ran %zu point(s), resumed %zu, shard owns %zu of %zu -> "
              "%s\n",
              manifest.name.c_str(), summary.ran, summary.resumed,
              summary.shard_points, summary.grid_points,
              summary.path.c_str());
  return 0;
}

int cmd_check(const util::Flags& flags,
              const std::vector<std::string>& args, bool bless) {
  if (args.empty()) {
    std::fprintf(stderr, "%s expects at least one manifest\n%s",
                 bless ? "bless" : "check", kUsage);
    return 2;
  }
  const std::string out_dir = flags.get("out", std::string("."));
  const std::string expectations_dir =
      flags.get("expectations", std::string("expectations"));
  bool all_ok = true;
  for (const std::string& name : args) {
    const xp::Manifest& manifest = xp::find_manifest(name);
    const std::vector<xp::PointRecord> merged =
        xp::merge_artifacts(manifest, out_dir);
    const std::string merged_path =
        xp::write_merged_artifact(manifest, merged, out_dir);
    if (bless) {
      const std::string path = xp::write_expectations(
          xp::make_expectations(manifest, merged), expectations_dir);
      std::printf("%s: blessed %zu points -> %s\n", manifest.name.c_str(),
                  merged.size(), path.c_str());
      continue;
    }
    const xp::Expectations expectations = xp::load_expectations(
        xp::expectations_path(manifest.name, expectations_dir));
    const xp::CheckReport report =
        xp::check_records(manifest, merged, expectations);
    std::printf("%s", xp::format_report(report).c_str());
    std::printf("merged artifact: %s\n", merged_path.c_str());
    all_ok = all_ok && report.ok();
  }
  return all_ok ? 0 : 1;
}

int cmd_reproduce(const util::Flags& flags,
                  const std::vector<std::string>& args) {
  if (args.size() != 2) {
    std::fprintf(stderr, "reproduce expects <manifest> <index>\n%s", kUsage);
    return 2;
  }
  const xp::Manifest& manifest = xp::find_manifest(args[0]);
  std::size_t index = 0;
  try {
    std::size_t consumed = 0;
    index = std::stoul(args[1], &consumed);
    if (consumed != args[1].size()) throw std::invalid_argument(args[1]);
  } catch (const std::exception&) {
    throw std::invalid_argument("bad point index '" + args[1] + "'");
  }
  const long jobs = flags.get("jobs", 1L);
  if (jobs < 0)
    throw std::invalid_argument("--jobs must be >= 0");

  const xp::PointRecord record = xp::reproduce_point(
      manifest, index, static_cast<std::size_t>(jobs));

  const std::string one_metric = flags.get("metric", std::string());
  if (!one_metric.empty()) {
    const double* value = record.metric(one_metric);
    if (!value) {
      std::string known;
      for (const auto& [name, v] : record.metrics)
        known += " " + name;
      throw std::invalid_argument("unknown metric: " + one_metric +
                                  " (known:" + known + ")");
    }
    std::printf("%.17g\n", *value);
    return 0;
  }

  std::printf("%s point %zu (%s), seed %llu, %zu reps:\n",
              manifest.name.c_str(), record.index,
              labels_of(record).c_str(),
              static_cast<unsigned long long>(record.seed),
              record.replications);
  for (const auto& [name, value] : record.metrics)
    std::printf("  %-16s %-24s (%.17g)\n", name.c_str(),
                xp::hexfloat(value).c_str(), value);

  // When the run's artifacts are on disk, assert the replay is bitwise
  // identical to what the full-grid run recorded.
  const std::string out_dir = flags.get("out", std::string("."));
  std::vector<xp::PointRecord> merged;
  try {
    merged = xp::merge_artifacts(manifest, out_dir);
  } catch (const std::exception&) {
    std::printf("(no complete artifacts under %s — nothing to compare)\n",
                out_dir.c_str());
    return 0;
  }
  const xp::PointRecord& recorded = merged[index];
  bool ok = true;
  for (const auto& [name, value] : record.metrics) {
    const xp::MetricSpec* spec = manifest.metric(name);
    if (spec && spec->kind != xp::MetricSpec::Kind::Exact) continue;
    const double* want = recorded.metric(name);
    if (!want || xp::hexfloat(*want) != xp::hexfloat(value)) {
      std::printf("MISMATCH %s: recorded %s, reproduced %s\n", name.c_str(),
                  want ? xp::hexfloat(*want).c_str() : "(missing)",
                  xp::hexfloat(value).c_str());
      ok = false;
    }
  }
  std::printf(ok ? "reproduce OK: exact metrics bitwise-equal to the "
                   "recorded run\n"
                 : "reproduce FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  std::vector<std::string> args = flags.positional();
  if (flags.has("help") || args.empty()) {
    std::printf("%s\nmanifests:\n", kUsage);
    cmd_list();
    return args.empty() && !flags.has("help") ? 2 : 0;
  }
  const std::string command = args.front();
  args.erase(args.begin());
  try {
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        accepted = {
            {"list", {}},
            {"table", {"horizon", "reps", "seed", "jobs", "emit", "out"}},
            {"run", {"shards", "out", "resume", "jobs"}},
            {"check", {"out", "expectations"}},
            {"bless", {"out", "expectations"}},
            {"reproduce", {"out", "jobs", "metric"}},
        };
    for (const auto& [name, flag_names] : accepted)
      if (command == name) flags.require_known(flag_names);
    if (command == "list") return cmd_list();
    if (command == "table") return cmd_table(flags, args);
    if (command == "run") return cmd_run(flags, args);
    if (command == "check") return cmd_check(flags, args, /*bless=*/false);
    if (command == "bless") return cmd_check(flags, args, /*bless=*/true);
    if (command == "reproduce") return cmd_reproduce(flags, args);
    std::fprintf(stderr, "unknown command '%s'\n%s", command.c_str(),
                 kUsage);
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sweep_cli %s: %s\n", command.c_str(),
                 error.what());
    return 1;
  }
}
