#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dsrt/core/load_model.hpp"
#include "dsrt/core/node_set.hpp"
#include "dsrt/core/strategy.hpp"
#include "dsrt/core/task.hpp"
#include "dsrt/sim/rng.hpp"
#include "dsrt/sim/time.hpp"

namespace dsrt::core {

/// Everything a placement policy may consult when one simple subtask is
/// bound to an execution node at dispatch time. The candidate set itself is
/// passed separately, as a view that excludes the nodes already taken by
/// siblings of the same parallel group.
struct PlacementContext {
  sim::Time now = 0;
  /// System-state view (same board the load-aware deadline strategies
  /// read; freshness — exact/sampled/stale — applies to placement too).
  /// nullptr = no state information wired.
  const LoadModel* load = nullptr;
  /// The workload generator's seed-stream draw for this leaf. Static
  /// placement returns it verbatim, which is what keeps a `static` run
  /// bit-for-bit identical to a build without the placement subsystem.
  NodeId hint = kNoNode;
};

class PlacementPolicy;
using PlacementPolicyPtr = std::shared_ptr<const PlacementPolicy>;

/// Dispatch-time node selection for placeable subtasks (the join-shortest-
/// queue family of the load-sharing literature; the natural next consumer
/// of the paper's "system state information" extension after deadline
/// assignment). Policies are consulted once per placeable leaf, when the
/// stage holding it becomes ready.
/// Passive per-run decision accounting, harvested by the obs probes.
/// Incremented by the policies themselves (and by the assigner, for the
/// distinct-site restriction it applies before asking); plain integer
/// bumps, so the dispatch hot path never allocates for them.
struct PlacementCounters {
  std::uint64_t decisions = 0;       ///< place() calls answered
  std::uint64_t exact_ties = 0;      ///< decisions with >1 minimal-key node
  std::uint64_t hint_fallbacks = 0;  ///< static: hint absent from candidates
  /// Decisions whose candidate set was restricted by the distinct-site
  /// constraint (simple siblings of the same parallel group had already
  /// pinned nodes).
  std::uint64_t restricted = 0;
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// Picks one node from `candidates` (non-empty; the leaf's eligible set
  /// minus nodes already taken by simple siblings of the same parallel
  /// group, in eligible-set order). Must return an element of `candidates`.
  virtual NodeId place(const PlacementContext& ctx,
                       CandidateView candidates) const = 0;
  virtual std::string_view name() const = 0;

  const PlacementCounters& counters() const { return counters_; }

  /// The assigner marks a decision as distinct-site-restricted just before
  /// calling place(). Mutable-in-const like the jsq tie rotation: policies
  /// are per-run and a run is single-threaded.
  void record_restricted() const { ++counters_.restricted; }

 protected:
  mutable PlacementCounters counters_;
};

/// Seed-compatible placement: returns the generator's node draw (the
/// `hint`), so a run with `--placement=static` reproduces every golden bit
/// for bit. Falls back to the first candidate for hand-built specs whose
/// hint is absent from the candidate set.
class StaticPlacement final : public PlacementPolicy {
 public:
  NodeId place(const PlacementContext& ctx,
               CandidateView candidates) const override;
  std::string_view name() const override { return "static"; }
};

/// Join-shortest-queue placement: picks the candidate with the smallest
/// load key — queued predicted work (`jsq-pex`) or the utilization EWMA
/// (`jsq-util`) — as reported by the run's LoadModel, so snapshot/stale
/// freshness degrades placement exactly like it degrades deadline
/// assignment. Exact ties (ubiquitous on an idle board, where every key is
/// zero) rotate deterministically through a per-run sequence counter, so an
/// unloaded system degenerates to round-robin rather than piling onto node
/// 0. With no LoadModel wired every key is zero and the policy *is*
/// round-robin — a useful placement baseline in its own right.
///
/// Over a contiguous eligible range the decision is answered by the load
/// model's rank index (LoadModel::rank_index) in O((1 + #excluded) log k):
/// mask the excluded ids, take the range's minimum and tie count, pick the
/// (seq mod ties)-th tie in id order, unmask. A list-form eligible set, or
/// a model that keeps no index for the key (jsq-util over the exact board,
/// whose EWMA decays continuously), is ranked by one read per candidate
/// instead; both paths pick the same node and count the same reads.
///
/// The counter is mutable-in-const for the same reason as AdaptiveDivX's
/// adaptation state: policy handles are shared as pointers-to-const, but
/// every simulation run constructs its own instance from the declarative
/// `PlacementSpec`, and a run is single-threaded, so the mutation is
/// race-free and `--jobs`-invariant.
class JsqPlacement final : public PlacementPolicy {
 public:
  using Key = LoadKey;

  explicit JsqPlacement(Key key) : key_(key) {}

  NodeId place(const PlacementContext& ctx,
               CandidateView candidates) const override;
  std::string_view name() const override {
    return key_ == Key::QueuedPex ? "jsq-pex" : "jsq-util";
  }

  /// Placements decided so far (tie-rotation position); for tests.
  std::uint64_t decisions() const { return seq_; }

 private:
  /// The tie rotation's pick among `ties` minimal candidates.
  std::size_t next_tie(std::size_t ties) const {
    if (ties > 1) ++counters_.exact_ties;
    return static_cast<std::size_t>(seq_++ % ties);
  }
  NodeId place_by_reads(const PlacementContext& ctx,
                        CandidateView candidates) const;

  Key key_;
  mutable std::uint64_t seq_ = 0;
  /// Scratch for one decision's candidate keys (board reads are not free —
  /// each decays an EWMA); grows to its high-water mark once. Same
  /// mutable-in-const rationale as seq_.
  mutable std::vector<double> keys_;
};

/// Power-of-d-choices placement (Mitzenmacher's two-choices result, the
/// standard scalable stand-in for full JSQ): sample d candidates without
/// replacement from the eligible set and take the argmin queued-pex among
/// them. O(d) per decision over any eligible set, with no index to keep:
/// full jsq is O(log k) only over a range-form set and a model that keeps
/// a rank index, and O(k) otherwise.
///
/// Draw-order contract (pinned by tests, and what makes --jobs=1 equal
/// --jobs=N): a decision over n candidates performs *exactly* d calls to
/// `rng.below(n - j)` for j = 0..d-1 (a partial Fisher-Yates over the
/// candidate indices, replayed sparsely by `sim::PartialShuffle` and read
/// through the view's order statistic, so a decision costs O(d) however
/// large the eligible range), and performs *zero* draws when n <= d
/// (exhaustive argmin — narrow distinct-site leftovers never shift the
/// stream consumed by wide decisions). Ties keep the first minimum in draw
/// order: the sampling itself supplies the spread that jsq's tie rotation
/// provides.
///
/// The rng/scratch are mutable-in-const for the same reason as
/// JsqPlacement's tie rotation: every run builds a fresh instance from the
/// spec (seeded from the run's replication seed, stream
/// kPlacementRngStream), and a run is single-threaded.
class PodPlacement final : public PlacementPolicy {
 public:
  PodPlacement(std::uint32_t d, sim::Rng rng) : d_(d), rng_(rng) {}

  NodeId place(const PlacementContext& ctx,
               CandidateView candidates) const override;
  std::string_view name() const override { return "pod"; }

  std::uint32_t d() const { return d_; }
  /// Position of the sampling stream; for tests.
  const sim::Rng& rng() const { return rng_; }

 private:
  std::uint32_t d_;
  mutable sim::Rng rng_;
  mutable sim::PartialShuffle shuffle_;  ///< d-entry swap map, reused
};

/// Which placement policy a run should wire up.
enum class PlacementKind : std::uint8_t { Static, JsqPex, JsqUtil, PowerOfD };

/// Rng stream id reserved for placement sampling (the workload sources use
/// streams 1 and 100+; common-random-numbers discipline).
inline constexpr std::uint64_t kPlacementRngStream = 2;

/// Declarative description of a placement policy — `system::Config` carries
/// this (not a live policy) because the jsq/pod variants hold per-run
/// tie-break/rng state that must not be shared across concurrent engine
/// runs.
struct PlacementSpec {
  PlacementKind kind = PlacementKind::Static;
  /// Sample size of PowerOfD (ignored by the other kinds). "pod" alone
  /// defaults to the literature's two choices.
  std::uint32_t d = 2;

  /// Largest accepted d: beyond this a pod spec is certainly a typo (and
  /// full jsq is the right tool anyway).
  static constexpr std::uint32_t kMaxPodD = 1024;

  /// Parses "static" | "jsq-pex" | "jsq-util" | "pod[:d]". Only pod takes
  /// a parameter (an integer in [1, kMaxPodD]); a missing ("pod:"), zero,
  /// huge, or non-integral d — and any ":..." suffix on the other kinds
  /// (e.g. "jsq-pex:junk") — is rejected with the registry vocabulary in
  /// the message, never half-applied.
  static PlacementSpec parse(std::string_view text);

  /// Inverse of parse ("pod" canonicalizes to "pod:<d>").
  std::string describe() const;
};

/// Builds a fresh policy instance for one simulation run. `seed` feeds the
/// sampling rng of the PowerOfD kind (stream kPlacementRngStream);
/// SimulationRun passes its replication seed, so pod placement is
/// reproducible per replication and --jobs-invariant. The other kinds
/// ignore it.
PlacementPolicyPtr make_placement(const PlacementSpec& spec,
                                  std::uint64_t seed = 0);

/// Every name PlacementSpec::parse accepts, in registry order. The CLI
/// builds --help and error vocabulary from this, so a newly registered
/// policy can never drift out of the help text.
std::vector<std::string_view> placement_names();

}  // namespace dsrt::core
