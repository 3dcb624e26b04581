// Load-aware deadline assignment: LoadAccount/LoadModel semantics, the
// differential properties that pin the new strategies to their static
// counterparts (zero load => bit-identical assignments), the online DIV-x
// autotuner's adaptation law, and engine determinism (--jobs invariance)
// for every new strategy/load-model combination.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dsrt/core/load_aware_strategies.hpp"
#include "dsrt/core/load_model.hpp"
#include "dsrt/core/parallel_strategies.hpp"
#include "dsrt/core/serial_strategies.hpp"
#include "dsrt/engine/runner.hpp"
#include "dsrt/sim/rng.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/system/simulation.hpp"

namespace {

using namespace dsrt;
using dsrt::sim::Rng;

// --- LoadAccount ----------------------------------------------------------

TEST(LoadAccount, BacklogTracksArrivalsAndDepartures) {
  core::LoadAccount acct;
  acct.configure(10.0, 0.0);
  acct.add_backlog(2.0);
  acct.add_backlog(1.5);
  acct.set_queue_length(1);
  core::NodeLoad load = acct.read(0.0);
  EXPECT_DOUBLE_EQ(load.queued_pex, 3.5);
  EXPECT_EQ(load.queue_length, 1u);
  acct.remove_backlog(2.0);
  EXPECT_DOUBLE_EQ(acct.read(0.0).queued_pex, 1.5);
  // Rounding drift must never yield negative work.
  acct.remove_backlog(99.0);
  EXPECT_DOUBLE_EQ(acct.read(0.0).queued_pex, 0.0);
}

TEST(LoadAccount, UtilizationEwmaDecaysInSimulatedTime) {
  core::LoadAccount acct;
  acct.configure(/*tau=*/10.0, 0.0);
  acct.set_busy(0.0, true);
  // Held busy for one time constant: ewma = 1 - e^-1.
  const double one_tau = acct.read(10.0).utilization;
  EXPECT_NEAR(one_tau, 1.0 - std::exp(-1.0), 1e-12);
  // Reads are pure: same question, same answer.
  EXPECT_DOUBLE_EQ(acct.read(10.0).utilization, one_tau);
  // Monotone toward the held state, bounded by it.
  EXPECT_GT(acct.read(20.0).utilization, one_tau);
  EXPECT_LT(acct.read(1000.0).utilization, 1.0 + 1e-12);
  // Going idle folds the busy interval in, then decays toward zero.
  acct.set_busy(10.0, false);
  const double after_idle = acct.read(30.0).utilization;
  EXPECT_LT(after_idle, one_tau);
  EXPECT_GT(after_idle, 0.0);
}

// --- LoadModels -----------------------------------------------------------

TEST(LoadBoard, ShardedSlotsKeepStableAddressesAcrossGrowth) {
  core::LoadBoard board(1);
  board[0].configure(5.0, 0.0);
  core::LoadAccount* first = &board[0];
  board[0].add_backlog(2.0);
  // Growing the board appends shards; existing accounts never move (the
  // nodes hold raw pointers into the board for the life of a run).
  board.resize(4096);
  EXPECT_EQ(&board[0], first);
  EXPECT_DOUBLE_EQ(board[0].read(0.0).queued_pex, 2.0);
  board[4095].configure(5.0, 0.0);
  board[4095].add_backlog(7.0);
  std::size_t seen = 0;
  double sum = 0.0;
  board.for_each([&](std::size_t i, const core::LoadAccount& acct) {
    ++seen;
    sum += acct.read(0.0).queued_pex;
    (void)i;
  });
  EXPECT_EQ(seen, 4096u);
  EXPECT_DOUBLE_EQ(sum, 9.0);
}

TEST(LoadModel, ExactReadsLiveAccounts) {
  core::LoadBoard board(2);
  for (std::size_t i = 0; i < 2; ++i) board[i].configure(5.0, 0.0);
  core::ExactLoadModel model(board);
  board[1].add_backlog(4.0);
  EXPECT_DOUBLE_EQ(model.load(1, 0.0).queued_pex, 4.0);
  EXPECT_DOUBLE_EQ(model.load(0, 0.0).queued_pex, 0.0);
  // Out-of-range nodes read as idle rather than faulting.
  EXPECT_DOUBLE_EQ(model.load(99, 0.0).queued_pex, 0.0);
}

TEST(LoadModel, SampledServesTheLastSnapshotNotLiveState) {
  core::LoadBoard board(1);
  board[0].configure(5.0, 0.0);
  core::SnapshotLoadModel model(board, /*period=*/2.0,
                                core::SnapshotLoadModel::Serve::Latest);
  board[0].add_backlog(3.0);
  // Cold start: nothing sampled yet.
  EXPECT_DOUBLE_EQ(model.load(0, 1.0).queued_pex, 0.0);
  model.refresh(2.0);
  EXPECT_DOUBLE_EQ(model.load(0, 2.5).queued_pex, 3.0);
  board[0].add_backlog(5.0);  // live change invisible until the next sample
  EXPECT_DOUBLE_EQ(model.load(0, 3.9).queued_pex, 3.0);
  model.refresh(4.0);
  EXPECT_DOUBLE_EQ(model.load(0, 4.1).queued_pex, 8.0);
}

TEST(LoadModel, StaleServesThePreviousSnapshot) {
  core::LoadBoard board(1);
  board[0].configure(5.0, 0.0);
  core::SnapshotLoadModel model(board, /*period=*/2.0,
                                core::SnapshotLoadModel::Serve::Previous);
  board[0].add_backlog(3.0);
  model.refresh(2.0);
  // One snapshot taken: the *previous* one is still the cold zero state.
  EXPECT_DOUBLE_EQ(model.load(0, 2.5).queued_pex, 0.0);
  model.refresh(4.0);
  EXPECT_DOUBLE_EQ(model.load(0, 4.5).queued_pex, 3.0);
}

TEST(LoadModel, SnapshotsFollowABoardThatGrowsBetweenRefreshes) {
  // The board may grow after a view is attached; each refresh captures
  // every account it has then (no write past the snapshot's end).
  for (const auto serve : {core::SnapshotLoadModel::Serve::Latest,
                           core::SnapshotLoadModel::Serve::Previous}) {
    core::LoadBoard board(2);
    core::SnapshotLoadModel model(board, /*period=*/1.0, serve);
    model.refresh(1.0);
    board.resize(130);  // three shards
    board[129].configure(5.0, 1.0);
    board[129].add_backlog(4.0);
    model.refresh(2.0);
    const bool latest = serve == core::SnapshotLoadModel::Serve::Latest;
    EXPECT_DOUBLE_EQ(model.load(129, 2.5).queued_pex, latest ? 4.0 : 0.0);
    model.refresh(3.0);
    EXPECT_DOUBLE_EQ(model.load(129, 3.5).queued_pex, 4.0);
    // Shrinking lowers the captured size; the dropped nodes read as idle.
    board.resize(64);
    model.refresh(4.0);
    model.refresh(5.0);
    EXPECT_DOUBLE_EQ(model.load(129, 5.5).queued_pex, 0.0);
  }
}

TEST(LoadModelSpec, ParseRoundTripsAndRejectsJunk) {
  EXPECT_EQ(core::LoadModelSpec::parse("none").kind,
            core::LoadModelKind::None);
  EXPECT_EQ(core::LoadModelSpec::parse("exact").kind,
            core::LoadModelKind::Exact);
  const auto sampled = core::LoadModelSpec::parse("sampled:2.5");
  EXPECT_EQ(sampled.kind, core::LoadModelKind::Sampled);
  EXPECT_DOUBLE_EQ(sampled.period, 2.5);
  EXPECT_EQ(sampled.describe(), "sampled:2.5");
  const auto stale = core::LoadModelSpec::parse("stale");
  EXPECT_EQ(stale.kind, core::LoadModelKind::Stale);
  EXPECT_THROW(core::LoadModelSpec::parse("psychic"), std::invalid_argument);
  EXPECT_THROW(core::LoadModelSpec::parse("exact:3"), std::invalid_argument);
  EXPECT_THROW(core::LoadModelSpec::parse("sampled:zero"),
               std::invalid_argument);
  EXPECT_THROW(core::LoadModelSpec::parse("sampled:-1"),
               std::invalid_argument);
}

// --- Differential properties ---------------------------------------------

/// Random serial context with a non-negative remaining window (the regime
/// in which the static strategies themselves respect the group deadline,
/// so the load-aware clamp is inert and equality can be bit-for-bit).
core::SerialContext random_serial_context(Rng& rng) {
  core::SerialContext ctx;
  ctx.count = 1 + rng.below(6);
  ctx.index = rng.below(ctx.count);
  ctx.group_arrival = rng.uniform(0, 50);
  ctx.now = ctx.group_arrival + rng.uniform(0, 10);
  const bool degenerate = rng.uniform01() < 0.1;
  ctx.pex_self = degenerate ? 0.0 : rng.exponential(1.0);
  double later = 0;
  for (std::size_t j = ctx.index + 1; j < ctx.count; ++j)
    later += degenerate ? 0.0 : rng.exponential(1.0);
  ctx.pex_remaining = ctx.pex_self + later;
  double earlier = 0;
  for (std::size_t j = 0; j < ctx.index; ++j)
    earlier += rng.exponential(1.0);
  ctx.pex_group_total = ctx.pex_remaining + earlier;
  ctx.group_deadline = ctx.now + ctx.pex_remaining + rng.uniform(0, 20);
  ctx.node = static_cast<core::NodeId>(rng.below(4));
  return ctx;
}

TEST(LoadAwareDifferential, IdleLoadReproducesStaticAssignmentsExactly) {
  const core::IdleLoadModel idle;
  const auto eqs = core::make_eqs();
  const auto eqs_l = core::make_eqs_load_aware();
  const auto eqf = core::make_eqf();
  const auto eqf_l = core::make_eqf_load_aware();
  Rng rng(20260730);
  int compared = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    core::SerialContext ctx = random_serial_context(rng);
    // The differential property is over contexts where the static strategy
    // itself stays inside the group window. (Outside it — which rounding
    // can enter by one ulp even with non-negative slack — the load-aware
    // clamp to dl(T) is the *intended* difference.)
    if (eqs->assign(ctx) > ctx.group_deadline ||
        eqf->assign(ctx) > ctx.group_deadline)
      continue;
    ++compared;
    // Both "no model wired" and "model reports an idle system" must reduce.
    ctx.load = (trial % 2 == 0) ? &idle : nullptr;
    EXPECT_EQ(eqs_l->assign(ctx), eqs->assign(ctx)) << "trial " << trial;
    EXPECT_EQ(eqf_l->assign(ctx), eqf->assign(ctx)) << "trial " << trial;
  }
  EXPECT_GT(compared, 1500);  // the corpus is not degenerate
}

TEST(LoadAwareDifferential, AdaptationDisabledDivaMatchesStaticDivX) {
  core::AdaptiveDivX::Options options;
  options.x0 = 2.0;
  options.adapt = false;
  const auto diva = core::make_adaptive_div_x(options);
  const auto divx = core::make_div_x(2.0);
  // Feedback with adaptation disabled must be a no-op.
  const auto* feedback =
      dynamic_cast<const core::SubtaskFeedback*>(diva.get());
  ASSERT_NE(feedback, nullptr);
  Rng rng(777);
  for (int trial = 0; trial < 2000; ++trial) {
    core::ParallelContext ctx;
    ctx.group_arrival = rng.uniform(0, 50);
    ctx.now = ctx.group_arrival;
    ctx.group_deadline = ctx.group_arrival + rng.uniform(0, 30);
    ctx.count = 1 + rng.below(6);
    ctx.index = rng.below(ctx.count);
    ctx.pex_self = rng.exponential(1.0);
    ctx.pex_max = ctx.pex_self + rng.exponential(1.0);
    const auto a = diva->assign(ctx);
    const auto b = divx->assign(ctx);
    EXPECT_EQ(a.deadline, b.deadline) << "trial " << trial;
    EXPECT_EQ(a.priority, b.priority);
    feedback->on_subtask_disposed(rng.uniform(-5, 5), trial % 3 != 0);
  }
}

TEST(LoadAwareDifferential, AdaptationDisabledDivaMatchesDivXEndToEnd) {
  // Whole-simulation differential: same seeds, same formula, same numbers.
  system::Config cfg = system::baseline_psp();
  cfg.horizon = 20000;
  cfg.psp = core::make_div_x(2.0);
  const system::RunMetrics a = system::simulate(cfg, 0);
  core::AdaptiveDivX::Options options;
  options.x0 = 2.0;
  options.adapt = false;
  cfg.psp = core::make_adaptive_div_x(options);
  const system::RunMetrics b = system::simulate(cfg, 0);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.global.missed.hits(), b.global.missed.hits());
  EXPECT_EQ(a.global.response.mean(), b.global.response.mean());
  EXPECT_EQ(a.local.response.mean(), b.local.response.mean());
  EXPECT_EQ(a.mean_utilization, b.mean_utilization);
}

// --- DIVA adaptation law --------------------------------------------------

TEST(AdaptiveDivX, PromotionRisesUnderMissesAndDecaysWhenOnTime) {
  core::AdaptiveDivX::Options options;
  options.batch = 8;
  options.gain = 0.5;
  options.x_max = 4.0;
  core::AdaptiveDivX diva(options);
  EXPECT_DOUBLE_EQ(diva.x(), 1.0);
  // One full batch of misses: x *= 1.5.
  for (int i = 0; i < 8; ++i) diva.on_subtask_disposed(1.0, true);
  EXPECT_DOUBLE_EQ(diva.x(), 1.5);
  // Aborts count as misses too.
  for (int i = 0; i < 8; ++i) diva.on_subtask_disposed(-1.0, false);
  EXPECT_DOUBLE_EQ(diva.x(), 2.25);
  // Saturates at x_max.
  for (int i = 0; i < 8 * 10; ++i) diva.on_subtask_disposed(2.0, true);
  EXPECT_DOUBLE_EQ(diva.x(), 4.0);
  // On-time batches decay back toward (and never below) 1.
  for (int i = 0; i < 8 * 100; ++i) diva.on_subtask_disposed(-0.5, true);
  EXPECT_DOUBLE_EQ(diva.x(), 1.0);
}

TEST(AdaptiveDivX, CloneForRunResetsAdaptationState) {
  core::AdaptiveDivX::Options options;
  options.batch = 4;
  const auto original = core::make_adaptive_div_x(options);
  const auto* feedback =
      dynamic_cast<const core::SubtaskFeedback*>(original.get());
  for (int i = 0; i < 4; ++i) feedback->on_subtask_disposed(1.0, true);
  const auto* adapted =
      dynamic_cast<const core::AdaptiveDivX*>(original.get());
  EXPECT_GT(adapted->x(), 1.0);
  const auto clone = original->clone_for_run();
  ASSERT_NE(clone, nullptr);
  const auto* fresh = dynamic_cast<const core::AdaptiveDivX*>(clone.get());
  ASSERT_NE(fresh, nullptr);
  EXPECT_DOUBLE_EQ(fresh->x(), options.x0);
  EXPECT_THROW(
      {
        core::AdaptiveDivX::Options bad;
        bad.x0 = 0.5;
        core::AdaptiveDivX probe(bad);
        (void)probe;
      },
      std::invalid_argument);
}

// --- Engine determinism for the new strategies ----------------------------

void expect_bit_identical(const std::vector<system::RunMetrics>& a,
                          const std::vector<system::RunMetrics>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    SCOPED_TRACE(r);
    EXPECT_EQ(a[r].events, b[r].events);
    EXPECT_EQ(a[r].global.missed.hits(), b[r].global.missed.hits());
    EXPECT_EQ(a[r].local.missed.hits(), b[r].local.missed.hits());
    EXPECT_EQ(a[r].global.response.mean(), b[r].global.response.mean());
    EXPECT_EQ(a[r].local.response.mean(), b[r].local.response.mean());
    EXPECT_EQ(a[r].mean_utilization, b[r].mean_utilization);
  }
}

TEST(LoadAwareDeterminism, JobsOneEqualsJobsEightForEveryNewCombination) {
  std::vector<system::Config> combos;
  for (const char* ssp : {"EQS-L", "EQF-L"}) {
    for (const char* lm : {"exact", "sampled:2", "stale:2"}) {
      system::Config cfg = system::baseline_ssp();
      cfg.horizon = 4000;
      cfg.load = 0.7;
      cfg.ssp = core::serial_strategy_by_name(ssp);
      cfg.load_model = core::LoadModelSpec::parse(lm);
      combos.push_back(cfg);
    }
  }
  {
    // The autotuner adapts per run; cloning must keep runs independent of
    // worker interleaving.
    system::Config cfg = system::baseline_psp();
    cfg.horizon = 4000;
    cfg.load = 0.7;
    cfg.psp = core::parallel_strategy_by_name("DIVA");
    cfg.load_model = core::LoadModelSpec::parse("exact");
    combos.push_back(cfg);
  }
  for (std::size_t i = 0; i < combos.size(); ++i) {
    SCOPED_TRACE(combos[i].describe());
    engine::RunnerOptions one, eight;
    one.jobs = 1;
    eight.jobs = 8;
    const auto serial = engine::Runner(one).run_replications(combos[i], 4);
    const auto parallel =
        engine::Runner(eight).run_replications(combos[i], 4);
    expect_bit_identical(serial.runs, parallel.runs);
  }
}

TEST(LoadAwareDeterminism, LoadAwareRunIsReproducible) {
  // Same (config, replication) => same metrics, with live load feedback on.
  system::Config cfg = system::baseline_ssp();
  cfg.horizon = 10000;
  cfg.load = 0.8;
  cfg.ssp = core::make_eqs_load_aware();
  cfg.load_model = core::LoadModelSpec::parse("exact");
  const auto a = system::simulate(cfg, 0);
  const auto b = system::simulate(cfg, 0);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.global.response.mean(), b.global.response.mean());
  // The load model visibly changes scheduling relative to static EQS.
  cfg.ssp = core::make_eqs();
  cfg.load_model = core::LoadModelSpec{};
  const auto c = system::simulate(cfg, 0);
  EXPECT_NE(a.global.response.mean(), c.global.response.mean());
}

}  // namespace
