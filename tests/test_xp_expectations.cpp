// The committed expectation files (expectations/*.json) against the
// current built-in manifest definitions: every file parses, covers its
// manifest's full current grid with matching config hashes (cheap — no
// simulation), and sampled points reproduce bitwise from their seeds (the
// provenance chain the harness promises: manifest + index -> config +
// seed -> metrics).
//
// DSRT_REPO_DIR points at the source tree (set by CMake) so the test runs
// from any build directory.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "dsrt/xp/checker.hpp"
#include "dsrt/xp/manifest.hpp"
#include "dsrt/xp/runner.hpp"

namespace {

using namespace dsrt;

const char* kCommitted[] = {"fig2_ssp", "fig3_frac_local", "fig4_psp",
                            "abl_scale_quick", "wl_mix", "abl_stale_decay",
                            "abl_faults"};

std::string expectations_dir() {
  return std::string(DSRT_REPO_DIR) + "/expectations";
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(CommittedExpectations, CoverTheCurrentGridsWithMatchingHashes) {
  for (const char* name : kCommitted) {
    SCOPED_TRACE(name);
    const xp::Manifest& manifest = xp::find_manifest(name);
    const xp::Expectations expectations = xp::load_expectations(
        xp::expectations_path(name, expectations_dir()));
    EXPECT_EQ(expectations.manifest, manifest.name);
    ASSERT_EQ(expectations.values.size(), manifest.points());

    // Bands mirror the manifest's metric declarations, in order.
    ASSERT_EQ(expectations.bands.size(), manifest.metrics.size());
    for (std::size_t i = 0; i < expectations.bands.size(); ++i) {
      EXPECT_EQ(expectations.bands[i].name, manifest.metrics[i].name);
      EXPECT_EQ(expectations.bands[i].kind, manifest.metrics[i].kind);
      EXPECT_EQ(expectations.bands[i].rel_tol, manifest.metrics[i].rel_tol);
      EXPECT_EQ(expectations.bands[i].abs_tol, manifest.metrics[i].abs_tol);
    }

    // Every committed point still describes the manifest's current grid:
    // same coordinates, same expanded-config identity. A mismatch here
    // means the definition changed without a re-bless.
    const std::vector<engine::SweepPoint> points = manifest.expand();
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(expectations.values[i].index, i);
      EXPECT_EQ(expectations.values[i].labels, points[i].labels);
      EXPECT_EQ(expectations.values[i].config_hash,
                xp::point_config_hash(manifest, points[i]))
          << "point " << i << " — manifest changed; re-bless";
      for (const xp::MetricSpec& metric : manifest.metrics)
        EXPECT_NE(expectations.values[i].metric(metric.name), nullptr)
            << metric.name;
    }
  }
}

TEST(CommittedExpectations, SampledPointsReproduceBitwiseFromTheirSeeds) {
  // One mid-grid point per figure manifest, plus jsq-pex placement over a
  // sampled and a stale load view and under crash faults (kept small: this
  // simulates). The labels pin which point each index names, so a grid
  // reorder fails here instead of silently sampling another point.
  struct Sample {
    const char* manifest;
    std::size_t index;
    std::vector<std::string> labels;
  };
  const Sample samples[] = {
      {"fig2_ssp", 7, {"0.2", "EQF"}},
      {"fig3_frac_local", 5, {"0.5", "EQF"}},
      {"fig4_psp", 13, {"0.4", "DIV1"}},
      {"abl_stale_decay", 3, {"sampled:5", "jsq-pex"}},
      {"abl_stale_decay", 7, {"stale:20", "jsq-pex"}},
      {"abl_faults", 3, {"crash:500,25;retry:2", "jsq-pex"}},
  };
  for (const auto& [name, index, labels] : samples) {
    SCOPED_TRACE(std::string(name) + " index " + std::to_string(index));
    const xp::Manifest& manifest = xp::find_manifest(name);
    const xp::Expectations expectations = xp::load_expectations(
        xp::expectations_path(name, expectations_dir()));
    ASSERT_LT(index, expectations.values.size());
    ASSERT_EQ(expectations.values[index].labels, labels);
    ASSERT_EQ(manifest.expand()[index].labels, labels);

    const xp::PointRecord replay =
        xp::reproduce_point(manifest, index, /*jobs=*/2);
    EXPECT_EQ(replay.config_hash, expectations.values[index].config_hash);
    for (const auto& [metric_name, value] : replay.metrics) {
      const xp::MetricSpec* spec = manifest.metric(metric_name);
      ASSERT_NE(spec, nullptr);
      if (spec->kind != xp::MetricSpec::Kind::Exact) continue;
      const double* expected =
          expectations.values[index].metric(metric_name);
      ASSERT_NE(expected, nullptr) << metric_name;
      EXPECT_TRUE(bits_equal(*expected, value))
          << metric_name << ": committed " << xp::hexfloat(*expected)
          << ", reproduced " << xp::hexfloat(value);
    }
  }
}

}  // namespace
