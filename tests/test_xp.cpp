// xp layer: the sweep harness. Shard-spec parsing, manifest registry
// errors, the N-axis table render and its run control, hexfloat
// round-trips, shard JSONL corruption handling,
// shard-union / resume / reproduce bitwise equivalence, and the
// tolerance-band checker naming the exact (manifest, index, metric) of
// every out-of-band point.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "dsrt/engine/emit.hpp"
#include "dsrt/engine/sweep.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/xp/artifact.hpp"
#include "dsrt/xp/checker.hpp"
#include "dsrt/xp/manifest.hpp"
#include "dsrt/xp/runner.hpp"

namespace {

using namespace dsrt;

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Fresh directory under the test temp dir, empty at the start of the
/// test that asks for it.
std::string scratch_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("xp_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// A CI-cheap manifest over the real baseline: 3 loads x 2 strategies at a
/// tiny horizon. Small enough that the shard/resume/checker properties run
/// the full grid several times per test.
xp::Manifest tiny_manifest(const std::string& name = "tiny") {
  xp::Manifest m;
  m.name = name;
  m.description = "test grid";
  m.replications = 2;
  m.base = [] {
    system::Config cfg = system::baseline_ssp();
    cfg.horizon = 1500;
    return cfg;
  };
  m.grid = [] {
    engine::SweepGrid grid;
    grid.axis(engine::SweepAxis::by_field("load", {"0.2", "0.4", "0.5"}))
        .axis(engine::SweepAxis::by_field("ssp", {"UD", "EQF"}));
    return grid;
  };
  m.metrics = xp::default_metrics();
  return m;
}

/// Metric order may differ between a fresh record (manifest order) and one
/// parsed back from JSONL (object-key order); identity is by name.
void expect_exact_metrics_equal(const xp::Manifest& manifest,
                                const xp::PointRecord& a,
                                const xp::PointRecord& b) {
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (const auto& [name, value] : a.metrics) {
    const xp::MetricSpec* spec = manifest.metric(name);
    ASSERT_NE(spec, nullptr) << name;
    const double* other = b.metric(name);
    ASSERT_NE(other, nullptr) << name;
    if (spec->kind != xp::MetricSpec::Kind::Exact) continue;
    EXPECT_TRUE(bits_equal(value, *other))
        << name << " at index " << a.index << ": " << xp::hexfloat(value)
        << " vs " << xp::hexfloat(*other);
  }
}

// --- ShardSpec ------------------------------------------------------------

TEST(ShardSpec, ParsesStrictIOverN) {
  const xp::ShardSpec s = xp::ShardSpec::parse("2/5");
  EXPECT_EQ(s.index, 2u);
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(xp::ShardSpec::parse("0/1").count, 1u);
}

TEST(ShardSpec, RejectsDegenerateAndMalformedSpecs) {
  for (const char* bad : {"0/0", "2/2", "3/2", "a/b", "1/", "/2", "1-2",
                          "", "1/2/3", "-1/2", "0x1/2", " 1/2", "1/2 "})
    EXPECT_THROW(xp::ShardSpec::parse(bad), std::invalid_argument) << bad;
}

TEST(ShardSpec, ShardsPartitionTheIndexSpace) {
  const std::size_t count = 3;
  for (std::size_t i = 0; i < 20; ++i) {
    std::size_t owners = 0;
    for (std::size_t s = 0; s < count; ++s)
      owners += xp::ShardSpec{s, count}.owns(i) ? 1 : 0;
    EXPECT_EQ(owners, 1u) << "index " << i;
  }
}

// --- Registry -------------------------------------------------------------

TEST(Registry, UnknownManifestErrorListsEveryRegisteredName) {
  xp::Registry registry;
  registry.add(tiny_manifest("alpha"));
  registry.add(tiny_manifest("beta"));
  try {
    registry.at("gamma");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("unknown manifest"), std::string::npos) << what;
    EXPECT_NE(what.find("alpha"), std::string::npos) << what;
    EXPECT_NE(what.find("beta"), std::string::npos) << what;
  }
}

TEST(Registry, RejectsDuplicateAndEmptyNames) {
  xp::Registry registry;
  registry.add(tiny_manifest("alpha"));
  EXPECT_THROW(registry.add(tiny_manifest("alpha")), std::invalid_argument);
  EXPECT_THROW(registry.add(tiny_manifest("")), std::invalid_argument);
}

TEST(Registry, BuiltinRegistryHoldsTheExperimentSurface) {
  const std::vector<std::string> expected = {
      // Committed: checked against expectations/*.json.
      "fig2_ssp", "fig3_frac_local", "fig4_psp", "abl_rel_flex",
      "abl_scale_quick", "wl_mix", "abl_stale_decay", "abl_faults",
      // Printed by `sweep_cli table`.
      "abl_abort", "abl_artificial_stages", "abl_burstiness",
      "abl_comm_overhead", "abl_divx_sweep", "abl_faults_ladder",
      "abl_heterogeneity", "abl_load_aware", "abl_node_count",
      "abl_pex_error", "abl_placement", "abl_preemption", "abl_scheduler",
      "abl_service_variability", "abl_static_vs_dynamic",
      "abl_subtask_count", "analysis_response_tails",
      "tab_ssp_psp_combined"};
  EXPECT_EQ(xp::builtin_registry().names(), expected);
  for (const std::string& name : expected) {
    const xp::Manifest& manifest = xp::find_manifest(name);
    EXPECT_EQ(manifest.name, name);
    EXPECT_GT(manifest.points(), 0u);
    EXPECT_FALSE(manifest.metrics.empty());
  }
  try {
    xp::find_manifest("nope");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("fig2_ssp"),
              std::string::npos);
  }
}

// --- table render ---------------------------------------------------------

/// A hand-built 2 x 2 x 3 sweep whose MD_global mean is the point ordinal,
/// so every cell names the point it came from.
engine::SweepResult synthetic_sweep() {
  engine::SweepResult sweep;
  sweep.axis_names = {"a", "b", "c"};
  sweep.replications = 1;
  for (std::size_t ordinal = 0; ordinal < 12; ++ordinal) {
    engine::PointResult p;
    p.point.ordinal = ordinal;
    p.point.indices = {ordinal / 6, ordinal / 3 % 2, ordinal % 3};
    p.point.labels = {"a" + std::to_string(p.point.indices[0]),
                      "b" + std::to_string(p.point.indices[1]),
                      "c" + std::to_string(p.point.indices[2])};
    p.result.md_global.mean = static_cast<double>(ordinal);
    sweep.points.push_back(std::move(p));
  }
  return sweep;
}

TEST(Table, PivotPutsTheLastAxisInColumnsAndTheRestInRowMajorRows) {
  const engine::SweepResult sweep = synthetic_sweep();
  const auto ordinal = [](const engine::PointResult& p) {
    return std::to_string(static_cast<int>(p.result.md_global.mean));
  };
  std::ostringstream csv;
  engine::pivot_table(sweep, ordinal).print_csv(csv);
  EXPECT_EQ(csv.str(),
            "a,b,c0,c1,c2\n"
            "a0,b0,0,1,2\n"
            "a0,b1,3,4,5\n"
            "a1,b0,6,7,8\n"
            "a1,b1,9,10,11\n");

  // The layout follows the coordinates, not the order points arrive in.
  engine::SweepResult shuffled = sweep;
  std::reverse(shuffled.points.begin(), shuffled.points.end());
  std::ostringstream reversed;
  engine::pivot_table(shuffled, ordinal).print_csv(reversed);
  EXPECT_EQ(reversed.str(), csv.str());

  // One axis: a single row of columns.
  engine::SweepResult one_axis;
  one_axis.axis_names = {"c"};
  for (std::size_t i = 0; i < 2; ++i) {
    engine::PointResult p;
    p.point.indices = {i};
    p.point.labels = {"c" + std::to_string(i)};
    p.result.md_global.mean = static_cast<double>(i);
    one_axis.points.push_back(std::move(p));
  }
  std::ostringstream single;
  engine::pivot_table(one_axis, ordinal).print_csv(single);
  EXPECT_EQ(single.str(), "c0,c1\n0,1\n");

  EXPECT_THROW(engine::pivot_table(engine::SweepResult{}, ordinal),
               std::invalid_argument);
}

TEST(Table, RenderPrintsHeaderThenTablesInOrderThenTheVerdict) {
  xp::Manifest manifest = tiny_manifest("synthetic");
  manifest.description = "three axes";
  manifest.tables = {
      {"first table", [](const engine::PointResult& p) {
         return std::to_string(static_cast<int>(p.result.md_global.mean));
       }},
      {"second table", [](const engine::PointResult& p) {
         return "x" + p.point.labels[2];
       }}};
  manifest.verdict = [](const engine::SweepResult& sweep) {
    return "VERDICT " + std::to_string(sweep.points.size()) + "\n";
  };
  xp::TableOptions options;
  options.horizon = 250;
  options.seed = 9;
  const std::string text =
      xp::render_tables(manifest, options, synthetic_sweep());
  EXPECT_EQ(text.rfind("== synthetic ==\nthree axes\n"
                       "horizon 250, 1 reps, seed 9\n\nfirst table\n",
                       0),
            0u)
      << text;
  const auto first = text.find("first table");
  const auto row = text.find("a1  b1  9");
  const auto second = text.find("second table");
  const auto cell = text.find("xc2");
  const auto verdict = text.find("VERDICT 12\n");
  ASSERT_NE(row, std::string::npos) << text;
  ASSERT_NE(cell, std::string::npos) << text;
  ASSERT_NE(verdict, std::string::npos) << text;
  EXPECT_LT(first, row);
  EXPECT_LT(row, second);
  EXPECT_LT(second, cell);
  EXPECT_LT(cell, verdict);
  EXPECT_EQ(verdict + std::string("VERDICT 12\n").size(), text.size());
}

TEST(Table, RunControlAppliesToTheBaseBeforeTheAxisMutators) {
  // abl_node_count shrinks the horizon by 24/k past k=24, relative to the
  // base: --horizon=4800 must give k=96 a horizon of 1200.
  const xp::Manifest& manifest = xp::find_manifest("abl_node_count");
  xp::TableOptions options;
  options.horizon = 4800;
  options.seed = 11;
  bool seen = false;
  for (const engine::SweepPoint& point :
       manifest.grid().expand(xp::table_base(manifest, options))) {
    EXPECT_EQ(point.config.seed, 11u);
    if (point.labels[0] == "96") {
      EXPECT_EQ(point.config.horizon, 1200.0);
      seen = true;
    }
    if (point.labels[0] == "24") EXPECT_EQ(point.config.horizon, 4800.0);
  }
  EXPECT_TRUE(seen);
  // Without overrides the base is the manifest's own.
  EXPECT_EQ(xp::table_base(manifest, {}).horizon, manifest.base().horizon);
}

TEST(Table, EveryRegisteredManifestExpandsValidatesAndRenders) {
  xp::TableOptions options;
  options.horizon = 300;
  options.reps = 2;
  options.jobs = 2;
  for (const xp::Manifest& manifest : xp::builtin_registry().all()) {
    SCOPED_TRACE(manifest.name);
    EXPECT_EQ(manifest.expand().size(), manifest.points());
    const engine::SweepResult sweep = xp::run_table(manifest, options);
    ASSERT_EQ(sweep.points.size(), manifest.points());
    EXPECT_EQ(sweep.replications, 2u);
    const std::string text = xp::render_tables(manifest, options, sweep);
    EXPECT_EQ(text.rfind("== " + manifest.name + " ==\n", 0), 0u);
    for (const xp::TableSpec& table : manifest.tables)
      EXPECT_NE(text.find(table.title + "\n"), std::string::npos)
          << table.title;
    const engine::SweepGrid grid = manifest.grid();
    for (const engine::SweepAxis& axis : grid.axes())
      for (const std::string& label : axis.labels)
        EXPECT_NE(text.find(label), std::string::npos) << label;
  }
}

TEST(Table, OutputIsByteIdenticalForAnyJobCount) {
  // Three axes plus a verdict reduction over the strategy axis.
  const xp::Manifest& manifest = xp::find_manifest("abl_rel_flex");
  xp::TableOptions options;
  options.horizon = 1000;
  options.jobs = 1;
  const std::string serial =
      xp::render_tables(manifest, options, xp::run_table(manifest, options));
  options.jobs = 4;
  const std::string parallel =
      xp::render_tables(manifest, options, xp::run_table(manifest, options));
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("gap@load=0.7"), std::string::npos);
}

TEST(Table, FaultLadderVerdictFlagsTheNonMonotoneColumnOnly) {
  // The registered verdict over a hand-built 4 x 3 ladder in which only
  // EQF/static gets better under heavier faults.
  const xp::Manifest& manifest = xp::find_manifest("abl_faults_ladder");
  ASSERT_TRUE(manifest.verdict);
  const std::vector<std::string> faults = {"none", "rare", "moderate",
                                           "heavy"};
  const std::vector<std::string> columns = {"UD/static", "EQF/static",
                                            "EQF/jsq-pex"};
  engine::SweepResult sweep;
  sweep.axis_names = {"faults", "strategy/placement"};
  for (std::size_t f = 0; f < faults.size(); ++f) {
    for (std::size_t c = 0; c < columns.size(); ++c) {
      engine::PointResult p;
      p.point.indices = {f, c};
      p.point.labels = {faults[f], columns[c]};
      p.result.md_overall.mean =
          c == 1 && f == 2 ? 0.05 : 0.1 * static_cast<double>(f + 1);
      sweep.points.push_back(std::move(p));
    }
  }
  EXPECT_EQ(manifest.verdict(sweep),
            "degradation verdict, MD_overall along the fault ladder:\n"
            "  UD/static     10.00% ->  20.00% ->  30.00% ->  40.00%  "
            "DEGRADES SMOOTHLY\n"
            "  EQF/static    10.00% ->  20.00% ->   5.00% ->  40.00%  "
            "NON-MONOTONE\n"
            "  EQF/jsq-pex   10.00% ->  20.00% ->  30.00% ->  40.00%  "
            "DEGRADES SMOOTHLY\n");
}

// --- hexfloat -------------------------------------------------------------

TEST(Hexfloat, RoundTripsBitwise) {
  std::mt19937_64 rng(7);
  std::vector<double> values = {0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0,
                                5e-324, 1.7976931348623157e308};
  for (int i = 0; i < 256; ++i) {
    const double v = std::bit_cast<double>(rng());
    if (v != v) continue;  // hexfloat stores finite metric values
    values.push_back(v);
  }
  for (double v : values)
    EXPECT_TRUE(bits_equal(v, xp::parse_hexfloat(xp::hexfloat(v))))
        << xp::hexfloat(v);
}

TEST(Hexfloat, ParseRejectsGarbageAndTrailingInput) {
  for (const char* bad : {"", "xyz", "0x1p1garbage", "1.5 ", "0x"})
    EXPECT_THROW(xp::parse_hexfloat(bad), std::runtime_error) << bad;
}

// --- manifest expansion vs the figure grids -------------------------------

/// The figure manifests must expand to exactly the published grids (this
/// pins their shape, so a manifest edit is a conscious, test-visible act).
TEST(Manifest, Fig2ExpansionMatchesTheBenchGridPointForPoint) {
  const xp::Manifest& manifest = xp::find_manifest("fig2_ssp");
  engine::SweepGrid bench_grid;
  bench_grid
      .axis(engine::SweepAxis::by_field("load",
                                        {"0.1", "0.2", "0.3", "0.4", "0.5"}))
      .axis(engine::SweepAxis::by_field("ssp", {"UD", "ED", "EQS", "EQF"}));

  const std::vector<engine::SweepPoint> expanded = manifest.expand();
  const std::vector<engine::SweepPoint> expected =
      bench_grid.expand(manifest.base());
  ASSERT_EQ(expanded.size(), expected.size());
  for (std::size_t i = 0; i < expanded.size(); ++i) {
    EXPECT_EQ(expanded[i].ordinal, i);
    EXPECT_EQ(expanded[i].labels, expected[i].labels);
    EXPECT_EQ(expanded[i].config.describe(), expected[i].config.describe());
  }
}

TEST(Manifest, Fig3AndFig4ExpansionsMatchTheBenchGrids) {
  {
    const xp::Manifest& manifest = xp::find_manifest("fig3_frac_local");
    engine::SweepGrid grid;
    grid.axis(engine::SweepAxis::by_field(
            "frac_local", {"0.1", "0.25", "0.5", "0.75", "0.9", "0.95"}))
        .axis(engine::SweepAxis::by_field("ssp", {"UD", "EQF"}));
    const auto expanded = manifest.expand();
    const auto expected = grid.expand(manifest.base());
    ASSERT_EQ(expanded.size(), expected.size());
    for (std::size_t i = 0; i < expanded.size(); ++i) {
      EXPECT_EQ(expanded[i].labels, expected[i].labels);
      EXPECT_EQ(expanded[i].config.describe(),
                expected[i].config.describe());
    }
  }
  {
    const xp::Manifest& manifest = xp::find_manifest("fig4_psp");
    engine::SweepGrid grid;
    grid.axis(engine::SweepAxis::by_field(
            "load", {"0.1", "0.2", "0.3", "0.4", "0.5", "0.6"}))
        .axis(engine::SweepAxis::by_field("psp",
                                          {"UD", "DIV1", "DIV2", "GF"}));
    const auto expanded = manifest.expand();
    const auto expected = grid.expand(manifest.base());
    ASSERT_EQ(expanded.size(), expected.size());
    for (std::size_t i = 0; i < expanded.size(); ++i) {
      EXPECT_EQ(expanded[i].labels, expected[i].labels);
      EXPECT_EQ(expanded[i].config.describe(),
                expected[i].config.describe());
    }
  }
}

// --- artifact corruption --------------------------------------------------

TEST(Artifact, TruncatedLineIsACleanErrorNamingFileAndLine) {
  const std::string dir = scratch_dir("truncated");
  const xp::Manifest manifest = tiny_manifest();
  const auto points = manifest.expand();
  xp::PointRecord good = xp::run_point(manifest, points[0], /*jobs=*/1);
  good.total = points.size();

  const std::string path = dir + "/" + xp::shard_file_name("tiny", 0, 1);
  {
    std::ofstream file(path);
    const std::string line = xp::artifact_line("tiny", good);
    file << line << '\n';
    // A torn final line: the writer died mid-record.
    file << line.substr(0, line.size() / 2);
  }
  try {
    xp::load_artifact_file("tiny", path);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path + ":2"), std::string::npos) << what;
    EXPECT_NE(what.find("corrupt shard record"), std::string::npos) << what;
  }

  // Resume refuses the same artifact before simulating anything.
  xp::RunManifestOptions options;
  options.out_dir = dir;
  options.resume = true;
  EXPECT_THROW(xp::run_manifest(manifest, options), std::runtime_error);
  // And merge never half-merges it.
  EXPECT_THROW(xp::merge_artifacts(manifest, dir), std::runtime_error);
}

TEST(Artifact, MergeRejectsStaleHashesConflictsAndGaps) {
  const std::string dir = scratch_dir("merge");
  const xp::Manifest manifest = tiny_manifest();
  const auto points = manifest.expand();

  xp::RunManifestOptions options;
  options.out_dir = dir;
  xp::run_manifest(manifest, options);

  // Complete single-shard run merges cleanly.
  EXPECT_EQ(xp::merge_artifacts(manifest, dir).size(), points.size());

  // A manifest whose definition drifted (different horizon -> different
  // config hashes) refuses the old artifacts.
  xp::Manifest drifted = tiny_manifest();
  drifted.base = [] {
    system::Config cfg = system::baseline_ssp();
    cfg.horizon = 1600;
    return cfg;
  };
  try {
    xp::merge_artifacts(drifted, dir);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("config hash mismatch"),
              std::string::npos)
        << error.what();
  }

  // An overlapping shard with identical exact metrics is fine; one that
  // disagrees is a conflict naming both files.
  std::vector<xp::PointRecord> merged = xp::merge_artifacts(manifest, dir);
  const std::string overlap = dir + "/" + xp::shard_file_name("tiny", 0, 3);
  xp::append_artifact_records("tiny", overlap, {merged[0]});
  EXPECT_EQ(xp::merge_artifacts(manifest, dir).size(), points.size());

  xp::PointRecord tampered = merged[0];
  tampered.metrics[0].second += 0.25;
  std::filesystem::remove(overlap);
  xp::append_artifact_records("tiny", overlap, {tampered});
  try {
    xp::merge_artifacts(manifest, dir);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("overlapping shards disagree"),
              std::string::npos)
        << error.what();
  }
  std::filesystem::remove(overlap);

  // A missing point is an incompleteness error listing the gap.
  const std::string shard0 = dir + "/" + xp::shard_file_name("tiny", 0, 1);
  std::vector<xp::PointRecord> partial(merged.begin(), merged.end() - 1);
  std::filesystem::remove(shard0);
  xp::append_artifact_records("tiny", shard0, partial);
  try {
    xp::merge_artifacts(manifest, dir);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("incomplete"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(points.size() - 1)),
              std::string::npos)
        << what;
  }
}

// --- shard union / resume / reproduce equivalences ------------------------

TEST(Runner, ShardUnionIsBitwiseIdenticalToTheUnshardedRun) {
  const xp::Manifest manifest = tiny_manifest();
  const std::string whole_dir = scratch_dir("whole");
  const std::string shard_dir = scratch_dir("shards");

  xp::RunManifestOptions whole;
  whole.out_dir = whole_dir;
  const xp::RunSummary whole_summary = xp::run_manifest(manifest, whole);
  EXPECT_EQ(whole_summary.ran, manifest.points());

  for (std::size_t shard = 0; shard < 2; ++shard) {
    xp::RunManifestOptions options;
    options.shard = {shard, 2};
    options.out_dir = shard_dir;
    options.jobs = shard == 0 ? 1 : 2;  // job count never changes results
    xp::run_manifest(manifest, options);
  }

  const std::vector<xp::PointRecord> unsharded =
      xp::merge_artifacts(manifest, whole_dir);
  const std::vector<xp::PointRecord> sharded =
      xp::merge_artifacts(manifest, shard_dir);
  ASSERT_EQ(unsharded.size(), sharded.size());
  for (std::size_t i = 0; i < unsharded.size(); ++i) {
    EXPECT_EQ(unsharded[i].index, i);
    EXPECT_EQ(unsharded[i].labels, sharded[i].labels);
    EXPECT_EQ(unsharded[i].config_hash, sharded[i].config_hash);
    EXPECT_EQ(unsharded[i].seed, sharded[i].seed);
    expect_exact_metrics_equal(manifest, unsharded[i], sharded[i]);
  }
}

TEST(Runner, ResumeAfterInterruptionMatchesAFreshRun) {
  const xp::Manifest manifest = tiny_manifest();
  const std::string fresh_dir = scratch_dir("fresh");
  const std::string resume_dir = scratch_dir("resume");

  xp::RunManifestOptions fresh;
  fresh.out_dir = fresh_dir;
  xp::run_manifest(manifest, fresh);

  xp::RunManifestOptions interrupted;
  interrupted.out_dir = resume_dir;
  xp::run_manifest(manifest, interrupted);

  // Interrupt at a line boundary: keep the first 3 completed points. (The
  // writer flushes per line, so a kill between points leaves exactly this.)
  const std::string path =
      resume_dir + "/" + xp::shard_file_name("tiny", 0, 1);
  std::vector<std::string> lines;
  {
    std::ifstream file(path);
    std::string line;
    while (std::getline(file, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), manifest.points());
  {
    std::ofstream file(path, std::ios::trunc);
    for (std::size_t i = 0; i < 3; ++i) file << lines[i] << '\n';
  }

  xp::RunManifestOptions resume;
  resume.out_dir = resume_dir;
  resume.resume = true;
  const xp::RunSummary summary = xp::run_manifest(manifest, resume);
  EXPECT_EQ(summary.resumed, 3u);
  EXPECT_EQ(summary.ran, manifest.points() - 3);

  const std::vector<xp::PointRecord> fresh_records =
      xp::merge_artifacts(manifest, fresh_dir);
  const std::vector<xp::PointRecord> resumed_records =
      xp::merge_artifacts(manifest, resume_dir);
  for (std::size_t i = 0; i < fresh_records.size(); ++i)
    expect_exact_metrics_equal(manifest, fresh_records[i],
                               resumed_records[i]);

  // A second resume finds everything done and simulates nothing.
  const xp::RunSummary idle = xp::run_manifest(manifest, resume);
  EXPECT_EQ(idle.resumed, manifest.points());
  EXPECT_EQ(idle.ran, 0u);
}

TEST(Runner, ReproduceReplaysRecordedPointsBitwiseAcrossManifests) {
  // Three differently-shaped manifests; for each, a full run followed by a
  // sampled single-point replay must agree bitwise on the exact metrics.
  std::vector<xp::Manifest> manifests;
  manifests.push_back(tiny_manifest("tiny_a"));

  xp::Manifest loads = tiny_manifest("tiny_loads");
  loads.grid = [] {
    engine::SweepGrid grid;
    grid.axis(engine::SweepAxis::by_field("load", {"0.3", "0.6"}))
        .axis(engine::SweepAxis::by_field("ssp", {"UD", "ED", "EQS"}));
    return grid;
  };
  manifests.push_back(std::move(loads));

  xp::Manifest psp = tiny_manifest("tiny_psp");
  psp.base = [] {
    system::Config cfg = system::baseline_psp();
    cfg.horizon = 1500;
    return cfg;
  };
  psp.grid = [] {
    engine::SweepGrid grid;
    grid.axis(engine::SweepAxis::by_field("psp", {"UD", "DIV1", "GF"}));
    return grid;
  };
  manifests.push_back(std::move(psp));

  for (const xp::Manifest& manifest : manifests) {
    const std::string dir = scratch_dir("reproduce_" + manifest.name);
    xp::RunManifestOptions options;
    options.out_dir = dir;
    xp::run_manifest(manifest, options);
    const std::vector<xp::PointRecord> merged =
        xp::merge_artifacts(manifest, dir);
    for (std::size_t index : {std::size_t{0}, manifest.points() - 1}) {
      const xp::PointRecord replay =
          xp::reproduce_point(manifest, index, /*jobs=*/2);
      EXPECT_EQ(replay.index, index);
      EXPECT_EQ(replay.config_hash, merged[index].config_hash);
      expect_exact_metrics_equal(manifest, merged[index], replay);
    }
  }

  EXPECT_THROW(xp::reproduce_point(manifests[0], manifests[0].points(), 1),
               std::invalid_argument);
}

// --- checker --------------------------------------------------------------

TEST(Checker, BlessCheckRoundTripPassesAndSurvivesTheJsonForm) {
  const xp::Manifest manifest = tiny_manifest();
  const std::string dir = scratch_dir("bless");
  xp::RunManifestOptions options;
  options.out_dir = dir;
  xp::run_manifest(manifest, options);
  const std::vector<xp::PointRecord> merged =
      xp::merge_artifacts(manifest, dir);

  const xp::Expectations blessed = xp::make_expectations(manifest, merged);
  const std::string path = xp::write_expectations(blessed, dir);
  EXPECT_EQ(path, xp::expectations_path("tiny", dir));
  const xp::Expectations loaded = xp::load_expectations(path);

  EXPECT_EQ(loaded.manifest, blessed.manifest);
  EXPECT_EQ(loaded.points, blessed.points);
  ASSERT_EQ(loaded.bands.size(), blessed.bands.size());
  for (std::size_t i = 0; i < loaded.bands.size(); ++i) {
    EXPECT_EQ(loaded.bands[i].name, blessed.bands[i].name);
    EXPECT_EQ(loaded.bands[i].kind, blessed.bands[i].kind);
    EXPECT_EQ(loaded.bands[i].rel_tol, blessed.bands[i].rel_tol);
  }
  ASSERT_EQ(loaded.values.size(), blessed.values.size());
  for (std::size_t i = 0; i < loaded.values.size(); ++i) {
    EXPECT_EQ(loaded.values[i].config_hash, blessed.values[i].config_hash);
    ASSERT_EQ(loaded.values[i].metrics.size(),
              blessed.values[i].metrics.size());
    for (const auto& [name, value] : blessed.values[i].metrics) {
      const double* reloaded = loaded.values[i].metric(name);
      ASSERT_NE(reloaded, nullptr) << name;
      EXPECT_TRUE(bits_equal(*reloaded, value)) << name;
    }
  }

  const xp::CheckReport report =
      xp::check_records(manifest, merged, loaded);
  EXPECT_TRUE(report.ok()) << xp::format_report(report);
  EXPECT_EQ(report.points_checked, manifest.points());
  EXPECT_NE(xp::format_report(report).find("OK"), std::string::npos);
}

TEST(Checker, PerturbedExactMetricFailsNamingTheExactPoint) {
  const xp::Manifest manifest = tiny_manifest();
  const std::string dir = scratch_dir("perturb");
  xp::RunManifestOptions options;
  options.out_dir = dir;
  xp::run_manifest(manifest, options);
  std::vector<xp::PointRecord> merged = xp::merge_artifacts(manifest, dir);
  const xp::Expectations expectations =
      xp::make_expectations(manifest, merged);

  // One ulp-scale nudge on one exact metric of one point must produce
  // exactly one failure carrying the full (manifest, index, metric)
  // coordinates. Grid order is last-axis-fastest: index 2 = (0.4, UD).
  for (auto& [name, value] : merged[2].metrics)
    if (name == "md_local") value += 1e-12;
  const xp::CheckReport report =
      xp::check_records(manifest, merged, expectations);
  ASSERT_EQ(report.failures.size(), 1u) << xp::format_report(report);
  EXPECT_EQ(report.manifest, "tiny");
  EXPECT_EQ(report.failures[0].index, 2u);
  EXPECT_EQ(report.failures[0].metric, "md_local");
  EXPECT_EQ(report.failures[0].point, "load=0.4, ssp=UD");
  EXPECT_NE(report.failures[0].detail.find("[exact]"), std::string::npos);
  const std::string rendered = xp::format_report(report);
  EXPECT_NE(rendered.find("tiny point 2 (load=0.4, ssp=UD) metric "
                          "md_local"),
            std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("FAIL"), std::string::npos);
}

TEST(Checker, RelativeBandAbsorbsNoiseButCatchesCollapse) {
  const xp::Manifest manifest = tiny_manifest();
  const std::string dir = scratch_dir("band");
  xp::RunManifestOptions options;
  options.out_dir = dir;
  xp::run_manifest(manifest, options);
  std::vector<xp::PointRecord> merged = xp::merge_artifacts(manifest, dir);
  const xp::Expectations expectations =
      xp::make_expectations(manifest, merged);

  // 3x slower throughput sits inside the default order-of-magnitude band.
  for (auto& [name, value] : merged[4].metrics)
    if (name == "events_per_sec") value /= 3;
  EXPECT_TRUE(xp::check_records(manifest, merged, expectations).ok());

  // A 100x collapse does not.
  for (auto& [name, value] : merged[4].metrics)
    if (name == "events_per_sec") value /= 100;
  const xp::CheckReport report =
      xp::check_records(manifest, merged, expectations);
  ASSERT_EQ(report.failures.size(), 1u) << xp::format_report(report);
  EXPECT_EQ(report.failures[0].index, 4u);
  EXPECT_EQ(report.failures[0].metric, "events_per_sec");
  EXPECT_NE(report.failures[0].detail.find("[relative]"),
            std::string::npos);
}

TEST(Checker, ConfigDriftAndStructuralMismatchesAreDistinct) {
  const xp::Manifest manifest = tiny_manifest();
  const std::string dir = scratch_dir("drift");
  xp::RunManifestOptions options;
  options.out_dir = dir;
  xp::run_manifest(manifest, options);
  const std::vector<xp::PointRecord> merged =
      xp::merge_artifacts(manifest, dir);

  // Expectation blessed from an older definition -> per-point (config)
  // failure, pointing at re-bless.
  xp::Expectations stale = xp::make_expectations(manifest, merged);
  stale.values[1].config_hash = "0000000000000000";
  const xp::CheckReport report =
      xp::check_records(manifest, merged, stale);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].index, 1u);
  EXPECT_EQ(report.failures[0].metric, "(config)");
  EXPECT_NE(report.failures[0].detail.find("re-bless"), std::string::npos);

  // Expectations for another manifest, or with a different point count,
  // are structurally unusable: throw, never a soft failure list.
  xp::Expectations wrong = xp::make_expectations(manifest, merged);
  wrong.manifest = "other";
  EXPECT_THROW(xp::check_records(manifest, merged, wrong),
               std::runtime_error);
  xp::Expectations shrunk = xp::make_expectations(manifest, merged);
  shrunk.values.pop_back();
  shrunk.points = shrunk.values.size();
  EXPECT_THROW(xp::check_records(manifest, merged, shrunk),
               std::runtime_error);
}

}  // namespace
