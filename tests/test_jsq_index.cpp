// The indexed join-shortest-queue path against a reference scan. The
// MinIndex answers (range minimum, tie count, j-th tie in id order) are
// checked against brute force, and JsqPlacement over the exact, sampled and
// stale views (which answer range-form decisions from their rank index) is
// checked decision by decision against the argmin-plus-rotation scan kept
// below as the oracle: same node, same decision count, same exact-tie and
// distinct-site counters, same number of load reads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "dsrt/core/assigner.hpp"
#include "dsrt/core/load_model.hpp"
#include "dsrt/core/min_index.hpp"
#include "dsrt/core/parallel_strategies.hpp"
#include "dsrt/core/placement.hpp"
#include "dsrt/core/serial_strategies.hpp"
#include "dsrt/core/task_spec.hpp"
#include "dsrt/sim/rng.hpp"

namespace {

using namespace dsrt;
using namespace dsrt::core;
using dsrt::sim::Rng;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The oracle's key: a down node is infinitely loaded.
double oracle_key(const NodeLoad& load, LoadKey key) {
  if (load.down) return kInf;
  return key == LoadKey::QueuedPex ? load.queued_pex : load.utilization;
}

/// The oracle: read every candidate, take the minimum key, and rotate
/// through the tied candidates, in candidate order, with a per-policy
/// sequence counter.
class ReferenceJsq final : public PlacementPolicy {
 public:
  explicit ReferenceJsq(LoadKey key) : key_(key) {}

  NodeId place(const PlacementContext& ctx,
               CandidateView candidates) const override {
    ++counters_.decisions;
    std::vector<NodeId> nodes(candidates.begin(), candidates.end());
    std::vector<double> keys;
    for (const NodeId node : nodes) {
      keys.push_back(ctx.load ? oracle_key(ctx.load->load(node, ctx.now), key_)
                              : 0.0);
    }
    const double best = *std::min_element(keys.begin(), keys.end());
    std::vector<NodeId> tied;
    for (std::size_t i = 0; i < nodes.size(); ++i)
      if (keys[i] == best) tied.push_back(nodes[i]);
    if (tied.size() > 1) ++counters_.exact_ties;
    return tied[seq_++ % tied.size()];
  }
  std::string_view name() const override { return "reference-jsq"; }
  std::uint64_t decisions() const { return seq_; }

 private:
  LoadKey key_;
  mutable std::uint64_t seq_ = 0;
};

// --- MinIndex against brute force -----------------------------------------

TEST(MinIndex, EncodingKeepsTheDoubleOrderAndMergesSignedZeros) {
  const double ordered[] = {-kInf, -3.5, -1e-300, 0.0, 1e-300, 0.25, 7.0,
                            1e300, kInf};
  for (std::size_t i = 0; i + 1 < std::size(ordered); ++i)
    EXPECT_LT(MinIndex::encode(ordered[i]), MinIndex::encode(ordered[i + 1]))
        << ordered[i] << " vs " << ordered[i + 1];
  EXPECT_EQ(MinIndex::encode(-0.0), MinIndex::encode(0.0));
  EXPECT_LT(MinIndex::encode(kInf), MinIndex::kMasked);
}

/// Brute-force reference over raw keys: (min, ties) of the unmasked ids of
/// [lo, hi), and the j-th tie in id order.
struct BruteMin {
  double key = 0;
  std::vector<std::size_t> tied;
};

BruteMin brute_min(const std::vector<double>& keys,
                   const std::vector<bool>& masked, std::size_t lo,
                   std::size_t hi) {
  BruteMin out;
  bool any = false;
  for (std::size_t id = lo; id < hi; ++id) {
    if (masked[id]) continue;
    if (!any || keys[id] < out.key) {
      out.key = keys[id];
      out.tied.clear();
      any = true;
    }
    if (keys[id] == out.key) out.tied.push_back(id);
  }
  return out;
}

double coarse_key(Rng& rng) {
  // Few distinct values, so ties are common; both signed zeros and +inf.
  switch (rng.below(6)) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return kInf;
    default: return static_cast<double>(rng.below(4)) * 0.5;
  }
}

TEST(MinIndex, RangeMinimaTiesAndNthTieMatchBruteForce) {
  Rng rng(20261017);
  for (const std::size_t n : {1, 2, 3, 63, 64, 65, 1000}) {
    SCOPED_TRACE(n);
    std::vector<double> keys(n);
    for (double& key : keys) key = coarse_key(rng);
    std::vector<bool> masked(n, false);
    MinIndex index;
    index.rebuild(n, [&](std::size_t id) { return keys[id]; });
    ASSERT_EQ(index.size(), n);
    for (int step = 0; step < 400; ++step) {
      // Re-key, mask or unmask one id, then query a random range.
      const std::size_t id = rng.below(n);
      switch (rng.below(3)) {
        case 0:
          keys[id] = coarse_key(rng);
          index.set(id, keys[id]);
          if (masked[id]) index.mask(id);
          break;
        case 1:
          index.mask(id);
          masked[id] = true;
          break;
        default:
          index.unmask(id);
          masked[id] = false;
          break;
      }
      const std::size_t lo = rng.below(n);
      const std::size_t hi = lo + 1 + rng.below(n - lo);
      const BruteMin want = brute_min(keys, masked, lo, hi);
      const MinIndex::RangeMin got = index.min(lo, hi);
      ASSERT_EQ(got.ties, want.tied.size()) << "step " << step;
      if (want.tied.empty()) continue;
      ASSERT_EQ(got.key, MinIndex::encode(want.key)) << "step " << step;
      for (std::uint32_t j = 0; j < got.ties; ++j)
        ASSERT_EQ(index.nth_min(lo, hi, got.key, j), want.tied[j])
            << "step " << step << " j " << j;
    }
    // A rebuild at a smaller size reuses the storage and forgets masks.
    index.rebuild(n / 2 + 1, [&](std::size_t id) { return keys[id]; });
    std::fill(masked.begin(), masked.end(), false);
    const BruteMin want = brute_min(keys, masked, 0, n / 2 + 1);
    EXPECT_EQ(index.min(0, n / 2 + 1).ties, want.tied.size());
  }
}

// --- JsqPlacement over the views against the oracle -----------------------

enum class View { Exact, Sampled, Stale };

std::unique_ptr<LoadModel> make_view(View view, LoadBoard& board) {
  switch (view) {
    case View::Exact: return std::make_unique<ExactLoadModel>(board);
    case View::Sampled:
      return std::make_unique<SnapshotLoadModel>(
          board, 1.0, SnapshotLoadModel::Serve::Latest);
    case View::Stale:
      return std::make_unique<SnapshotLoadModel>(
          board, 1.0, SnapshotLoadModel::Serve::Previous);
  }
  return nullptr;
}

std::uint64_t reads_of(const LoadModel& model) {
  if (const auto* exact = dynamic_cast<const ExactLoadModel*>(&model))
    return exact->reads();
  return dynamic_cast<const SnapshotLoadModel&>(model).reads();
}

/// One randomized run: a board of `off + k + tail` accounts whose
/// candidate ranges lie in [off, off + k) (the shape of a link-node
/// range), an indexed JsqPlacement over one view of it and the oracle over
/// a twin view of the same board, with account writes, refreshes and
/// decisions interleaved. A third twin view, whose reads nobody counts,
/// lets the test find the current minimum to exclude it.
struct Differential {
  Differential(View view_kind, LoadKey key, std::size_t k, std::size_t off,
               std::size_t tail, std::uint64_t seed)
      : view_kind(view_kind),
        key(key),
        k(k),
        off(off),
        board(off + k + tail),
        indexed_view(make_view(view_kind, board)),
        reference_view(make_view(view_kind, board)),
        peek_view(make_view(view_kind, board)),
        indexed(key),
        reference(key),
        rng(seed) {
    for (std::size_t i = 0; i < board.size(); ++i) board[i].configure(2.0, 0);
  }

  void write() {
    const std::size_t node = off + rng.below(k);
    LoadAccount& acct = board[node];
    switch (rng.below(6)) {
      case 0:
      case 1: acct.add_backlog(static_cast<double>(1 + rng.below(3))); break;
      case 2: acct.remove_backlog(static_cast<double>(1 + rng.below(3))); break;
      case 3: acct.set_down(rng.uniform01() < 0.5); break;
      case 4: acct.set_busy(now, rng.uniform01() < 0.5); break;
      default: acct.set_queue_length(rng.below(5)); break;
    }
  }

  void refresh() {
    for (LoadModel* view :
         {indexed_view.get(), reference_view.get(), peek_view.get()})
      if (auto* snap = dynamic_cast<SnapshotLoadModel*>(view))
        snap->refresh(now);
  }

  /// A random range inside [off, off + k) and sorted exclusions: random
  /// ids, sometimes the range's first minimum (so a unique minimum is
  /// excluded), and sometimes ids outside the range. A decision whose
  /// exclusions empty the range is skipped.
  void decide() {
    const std::size_t len = rng.uniform01() < 0.5 ? k : 1 + rng.below(k);
    const std::size_t lo = off + rng.below(k - len + 1);
    const EligibleSet set = EligibleSet::range(
        static_cast<NodeId>(lo), static_cast<std::uint32_t>(len));
    std::vector<NodeId> excluded;
    const std::size_t drops = rng.below(std::min<std::size_t>(len, 5));
    for (std::size_t i = 0; i < drops; ++i)
      excluded.push_back(static_cast<NodeId>(lo + rng.below(len)));
    if (rng.uniform01() < 0.3) {
      // The first minimum of the range, as the views see it.
      const auto key_at = [&](std::size_t id) {
        return oracle_key(peek_view->load(static_cast<NodeId>(id), now), key);
      };
      std::size_t best = lo;
      for (std::size_t id = lo; id < lo + len; ++id)
        if (key_at(id) < key_at(best)) best = id;
      excluded.push_back(static_cast<NodeId>(best));
    }
    if (rng.uniform01() < 0.3) excluded.push_back(static_cast<NodeId>(
                                   rng.below(off + k + 3)));
    std::sort(excluded.begin(), excluded.end());
    excluded.erase(std::unique(excluded.begin(), excluded.end()),
                   excluded.end());
    const CandidateView candidates(set, excluded);
    if (candidates.empty()) return;

    const std::uint64_t indexed_reads = reads_of(*indexed_view);
    const std::uint64_t reference_reads = reads_of(*reference_view);
    PlacementContext ctx;
    ctx.now = now;
    ctx.load = indexed_view.get();
    const NodeId got = indexed.place(ctx, candidates);
    ctx.load = reference_view.get();
    const NodeId want = reference.place(ctx, candidates);
    ASSERT_EQ(got, want) << "decision " << decisions;
    ASSERT_EQ(reads_of(*indexed_view) - indexed_reads, candidates.size());
    ASSERT_EQ(reads_of(*reference_view) - reference_reads, candidates.size());
    ++decisions;
  }

  /// A parallel group of range-form leaves beside a bound sibling, placed
  /// through TaskInstance by each policy: the distinct-site restriction is
  /// counted by the assigner, the exclusions come from the siblings.
  void place_group() {
    const std::size_t width = 1 + rng.below(std::min<std::size_t>(k, 4));
    const auto bound = static_cast<NodeId>(off + rng.below(k));
    TaskSpec spec;
    TaskSpecBuilder builder;
    builder.reset(spec);
    builder.begin_parallel();
    if (width < k) builder.leaf(bound, 1.0, 1.0);
    for (std::size_t i = 0; i < width; ++i)
      builder.leaf_among(static_cast<NodeId>(off), static_cast<NodeId>(off),
                         static_cast<std::uint32_t>(k), 1.0, 1.0);
    builder.end();
    builder.finish();
    std::vector<LeafSubmission> got, want;
    TaskInstance a(1, spec, now, now + 50, make_ud(), make_parallel_ud(),
                   indexed_view.get(), &indexed);
    a.start(now, got);
    TaskInstance b(1, spec, now, now + 50, make_ud(), make_parallel_ud(),
                   reference_view.get(), &reference);
    b.start(now, want);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i].node, want[i].node) << "group leaf " << i;
    decisions += width;
  }

  void expect_same_counters() const {
    EXPECT_EQ(indexed.decisions(), reference.decisions());
    const PlacementCounters& a = indexed.counters();
    const PlacementCounters& b = reference.counters();
    EXPECT_EQ(a.decisions, b.decisions);
    EXPECT_EQ(a.exact_ties, b.exact_ties);
    EXPECT_EQ(a.restricted, b.restricted);
    EXPECT_EQ(reads_of(*indexed_view), reads_of(*reference_view));
    if (view_kind != View::Exact) {
      const auto& x = dynamic_cast<const SnapshotLoadModel&>(*indexed_view);
      const auto& y = dynamic_cast<const SnapshotLoadModel&>(*reference_view);
      EXPECT_NEAR(x.mean_read_age(), y.mean_read_age(),
                  1e-9 * (1 + y.mean_read_age()));
    }
  }

  View view_kind;
  LoadKey key;
  std::size_t k, off;
  LoadBoard board;
  std::unique_ptr<LoadModel> indexed_view, reference_view, peek_view;
  JsqPlacement indexed;
  ReferenceJsq reference;
  Rng rng;
  double now = 0;
  std::uint64_t decisions = 0;
};

TEST(JsqIndexDifferential, IndexedPlacementMatchesTheReferenceScan) {
  std::uint64_t seed = 1;
  for (const View view : {View::Exact, View::Sampled, View::Stale}) {
    for (const LoadKey key : {LoadKey::QueuedPex, LoadKey::Utilization}) {
      for (const std::size_t k : {1, 2, 3, 63, 64, 65, 1000}) {
        for (const std::size_t off : {0, 5}) {
          SCOPED_TRACE(::testing::Message()
                       << "view " << static_cast<int>(view) << " key "
                       << static_cast<int>(key) << " k " << k << " off "
                       << off);
          Differential d(view, key, k, off, /*tail=*/off == 0 ? 0 : 3,
                         seed++);
          // Cold start: an all-zero board, every candidate tied.
          for (int i = 0; i < 20; ++i) d.decide();
          const int steps = k >= 1000 ? 300 : 1500;
          for (int step = 0; step < steps; ++step) {
            d.now += d.rng.exponential(0.05);
            const double u = d.rng.uniform01();
            if (u < 0.45) {
              d.write();
            } else if (u < 0.55) {
              d.refresh();
            } else if (u < 0.62) {
              d.place_group();
            } else if (u < 0.64) {
              // Every candidate down: rotation among ties at infinity.
              for (std::size_t i = 0; i < k; ++i)
                d.board[d.off + i].set_down(true);
              d.refresh();
              d.decide();
              d.decide();
              for (std::size_t i = 0; i < k; ++i)
                d.board[d.off + i].set_down(d.rng.uniform01() < 0.1);
            } else {
              d.decide();
            }
            if (::testing::Test::HasFatalFailure()) return;
          }
          EXPECT_GT(d.decisions, 100u);
          d.expect_same_counters();
        }
      }
    }
  }
}

TEST(JsqIndexDifferential, ViewsFollowABoardThatGrowsAfterTheFirstDecision) {
  for (const View view : {View::Exact, View::Sampled, View::Stale}) {
    SCOPED_TRACE(static_cast<int>(view));
    Differential d(view, LoadKey::QueuedPex, 8, 0, 0, 99);
    d.board[3].add_backlog(2.0);
    d.refresh();
    d.decide();
    // Grow the board; the new nodes join later ranges.
    d.board.resize(140);  // past the first 64-account shard
    d.k = 140;
    for (std::size_t i = 8; i < 140; ++i) d.board[i].configure(2.0, d.now);
    for (int step = 0; step < 400; ++step) {
      d.now += 0.1;
      if (step % 3 == 0) d.write();
      if (step % 7 == 0) d.refresh();
      d.decide();
      if (::testing::Test::HasFatalFailure()) return;
    }
    d.expect_same_counters();
  }
}

TEST(JsqIndexDifferential, TwoExactViewsOfOneBoardBothStayExact) {
  // The board routes its writes to one watching view; a second exact view
  // of the same board ranks by reads instead, and both stay right.
  LoadBoard board(16);
  for (std::size_t i = 0; i < 16; ++i) board[i].configure(2.0, 0);
  ExactLoadModel first(board), second(board);
  const JsqPlacement a(LoadKey::QueuedPex), b(LoadKey::QueuedPex);
  ReferenceJsq oracle(LoadKey::QueuedPex);
  Rng rng(5);
  for (int step = 0; step < 500; ++step) {
    board[rng.below(16)].add_backlog(static_cast<double>(rng.below(3)));
    board[rng.below(16)].remove_backlog(1.0);
    PlacementContext ctx;
    ctx.load = &first;
    const NodeId x = a.place(ctx, EligibleSet::range(0, 16));
    ctx.load = &second;
    const NodeId y = b.place(ctx, EligibleSet::range(0, 16));
    const NodeId z = oracle.place(ctx, EligibleSet::range(0, 16));
    ASSERT_EQ(x, z) << step;
    ASSERT_EQ(y, z) << step;
  }
}

TEST(JsqIndexDifferential, ADestroyedExactViewStopsWatchingItsBoard) {
  LoadBoard board(4);
  {
    ExactLoadModel view(board);
    const JsqPlacement policy(LoadKey::QueuedPex);
    PlacementContext ctx;
    ctx.load = &view;
    board[2].add_backlog(1.0);
    EXPECT_EQ(policy.place(ctx, EligibleSet::range(0, 4)), 0u);
  }
  // Writes after the view is gone must not reach its change list (the
  // sanitizer build turns a dangling one into a failure).
  board[1].add_backlog(1.0);
  board[1].set_down(true);
  ExactLoadModel again(board);
  const JsqPlacement policy(LoadKey::QueuedPex);
  PlacementContext ctx;
  ctx.load = &again;
  EXPECT_EQ(policy.place(ctx, EligibleSet::range(0, 4)), 0u);
  board[0].add_backlog(5.0);
  EXPECT_EQ(policy.place(ctx, EligibleSet::range(0, 4)), 3u);
}

}  // namespace
