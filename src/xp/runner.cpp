#include "dsrt/xp/runner.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "dsrt/engine/emit.hpp"
#include "dsrt/engine/runner.hpp"

namespace dsrt::xp {

namespace {

bool parse_size(std::string_view text, std::size_t& out) {
  if (text.empty()) return false;
  std::size_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  out = value;
  return true;
}

}  // namespace

ShardSpec ShardSpec::parse(std::string_view text) {
  const auto slash = text.find('/');
  ShardSpec spec;
  const bool shape_ok =
      slash != std::string_view::npos &&
      parse_size(text.substr(0, slash), spec.index) &&
      parse_size(text.substr(slash + 1), spec.count);
  if (!shape_ok)
    throw std::invalid_argument("bad shard spec '" + std::string(text) +
                                "' (expected I/N with decimal integers)");
  if (spec.count == 0)
    throw std::invalid_argument("bad shard spec '" + std::string(text) +
                                "': N must be >= 1");
  if (spec.index >= spec.count)
    throw std::invalid_argument("bad shard spec '" + std::string(text) +
                                "': I must satisfy 0 <= I < N");
  return spec;
}

PointRecord run_point(const Manifest& manifest,
                      const engine::SweepPoint& point, std::size_t jobs) {
  engine::RunnerOptions options;
  options.jobs = jobs;
  const engine::Runner runner(options);

  const auto start = std::chrono::steady_clock::now();
  const system::ExperimentResult result =
      runner.run_replications(point.config, manifest.replications);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  PointRecord record;
  record.index = point.ordinal;
  record.labels = point.labels;
  record.config_hash = point_config_hash(manifest, point);
  record.seed = point.config.seed;
  record.replications = manifest.replications;
  record.wall_seconds = wall;
  const PointRun run{result, wall};
  for (const MetricSpec& metric : manifest.metrics)
    record.metrics.emplace_back(metric.name, metric.select(run));
  return record;
}

RunSummary run_manifest(const Manifest& manifest,
                        const RunManifestOptions& options) {
  if (options.shard.count == 0 || options.shard.index >= options.shard.count)
    throw std::invalid_argument("run_manifest: bad shard " +
                                std::to_string(options.shard.index) + "/" +
                                std::to_string(options.shard.count));

  const std::vector<engine::SweepPoint> points = manifest.expand();
  const std::string path =
      options.out_dir + "/" +
      shard_file_name(manifest.name, options.shard.index,
                      options.shard.count);

  RunSummary summary;
  summary.path = path;
  summary.grid_points = points.size();

  // Which indices the artifact already holds. Resume verifies the whole
  // file up front — a truncated line or a record from an older grid
  // definition fails here, before anything is simulated or appended.
  std::vector<bool> completed(points.size(), false);
  if (options.resume && std::filesystem::exists(path)) {
    for (const PointRecord& record :
         load_artifact_file(manifest.name, path)) {
      if (record.index >= points.size() || record.total != points.size())
        throw std::runtime_error(
            path + ": record index " + std::to_string(record.index) + "/" +
            std::to_string(record.total) +
            " does not fit the current grid (" +
            std::to_string(points.size()) + " points) — stale artifact");
      if (!options.shard.owns(record.index))
        throw std::runtime_error(
            path + ": record index " + std::to_string(record.index) +
            " does not belong to shard " +
            std::to_string(options.shard.index) + "/" +
            std::to_string(options.shard.count));
      const std::string expected_hash =
          point_config_hash(manifest, points[record.index]);
      if (record.config_hash != expected_hash)
        throw std::runtime_error(
            path + ": config hash mismatch at index " +
            std::to_string(record.index) +
            " — the manifest definition changed; delete the artifact and "
            "re-run");
      if (completed[record.index])
        throw std::runtime_error(path + ": duplicate record for index " +
                                 std::to_string(record.index));
      completed[record.index] = true;
      ++summary.resumed;
      if (options.on_point) options.on_point(record, /*resumed=*/true);
    }
  } else {
    // Fresh run: start the artifact empty rather than appending to a
    // previous attempt's records.
    std::ofstream truncate(path, std::ios::trunc);
    if (!truncate)
      throw std::runtime_error("cannot open shard artifact " + path +
                               " for writing");
  }

  for (const engine::SweepPoint& point : points) {
    if (!options.shard.owns(point.ordinal)) continue;
    ++summary.shard_points;
    if (completed[point.ordinal]) continue;
    PointRecord record = run_point(manifest, point, options.jobs);
    record.total = points.size();
    append_artifact_records(manifest.name, path, {record});
    ++summary.ran;
    if (options.on_point) options.on_point(record, /*resumed=*/false);
  }
  return summary;
}

PointRecord reproduce_point(const Manifest& manifest, std::size_t index,
                            std::size_t jobs) {
  const std::vector<engine::SweepPoint> points = manifest.expand();
  if (index >= points.size())
    throw std::invalid_argument(
        "reproduce: index " + std::to_string(index) +
        " out of range (manifest '" + manifest.name + "' has " +
        std::to_string(points.size()) + " points)");
  PointRecord record = run_point(manifest, points[index], jobs);
  record.total = points.size();
  return record;
}

system::Config table_base(const Manifest& manifest,
                          const TableOptions& options) {
  system::Config base = manifest.base();
  if (options.horizon) base.horizon = *options.horizon;
  if (options.seed) base.seed = *options.seed;
  return base;
}

engine::SweepResult run_table(const Manifest& manifest,
                              const TableOptions& options) {
  engine::RunnerOptions runner_options;
  runner_options.jobs = options.jobs;
  return engine::Runner(runner_options)
      .run_sweep(manifest.grid(), table_base(manifest, options),
                 options.reps.value_or(manifest.replications));
}

std::string render_tables(const Manifest& manifest,
                          const TableOptions& options,
                          const engine::SweepResult& sweep) {
  const system::Config base = table_base(manifest, options);
  std::ostringstream os;
  os << "== " << manifest.name << " ==\n"
     << manifest.description << "\n"
     << "horizon " << base.horizon << ", " << sweep.replications
     << " reps, seed " << base.seed << "\n\n";
  if (manifest.tables.empty()) {
    engine::sweep_table(sweep).print(os);
    os << '\n';
  }
  for (const TableSpec& table : manifest.tables) {
    os << table.title << '\n';
    engine::pivot_table(sweep, table.cell).print(os);
    os << '\n';
  }
  if (manifest.verdict) os << manifest.verdict(sweep);
  return os.str();
}

}  // namespace dsrt::xp
