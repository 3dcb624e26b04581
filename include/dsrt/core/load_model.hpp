#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dsrt/core/min_index.hpp"
#include "dsrt/core/task.hpp"
#include "dsrt/sim/time.hpp"

namespace dsrt::core {

/// Snapshot of one node's load as seen by a deadline-assignment strategy.
/// All quantities are in predicted-execution units / fractions, so a
/// strategy consuming them never touches real execution times (the paper's
/// information model: schedulers see pex, not ex).
struct NodeLoad {
  /// Predicted work currently at the node: sum of pex over the waiting
  /// queue plus the job in service. The natural estimate of the queueing
  /// delay a newly submitted subtask would face.
  double queued_pex = 0;
  /// Exponentially weighted busy fraction (simulated-time decay).
  double utilization = 0;
  /// Jobs waiting (not counting the one in service).
  std::uint32_t queue_length = 0;
  /// The node is crashed (fault injection). Load-aware placement treats a
  /// down node as infinitely loaded so it stops herding onto ghosts; the
  /// flag travels through snapshots, so sampled/stale views learn of a
  /// crash with the same delay as any other load change.
  bool down = false;
};

/// The load figure join-shortest-queue placement ranks nodes by.
enum class LoadKey : std::uint8_t { QueuedPex, Utilization };

/// A node's rank under `key`. A crashed node is infinitely loaded: it is
/// only chosen when every candidate the model knows of is down (fail-fast
/// and retry then deal with the loser), and snapshot views un-mark it with
/// the same delay as any other load change.
inline double rank_key(const NodeLoad& load, LoadKey key) {
  if (load.down) return std::numeric_limits<double>::infinity();
  return key == LoadKey::QueuedPex ? load.queued_pex : load.utilization;
}

/// The ids of board accounts whose queued-pex rank (backlog or down flag)
/// changed since the last drain, each listed once. An exact load view
/// attaches one to its board so it can re-key only those nodes before the
/// next placement decision. Sized once for the board; marking allocates
/// nothing.
class LoadChanges {
 public:
  /// Makes room for ids [0, n).
  void resize(std::size_t n) {
    pending_.resize(n, 0);
    ids_.reserve(n);
  }
  void mark(NodeId id) {
    if (pending_[id]) return;
    pending_[id] = 1;
    ids_.push_back(id);
  }
  /// Calls fn(id) for every marked id, then clears the marks.
  template <typename Fn>
  void drain(Fn&& fn) {
    for (const NodeId id : ids_) {
      pending_[id] = 0;
      fn(id);
    }
    ids_.clear();
  }

 private:
  std::vector<std::uint8_t> pending_;
  std::vector<NodeId> ids_;
};

/// Per-node load accounting slot, written by the owning `sched::Node` at
/// submit/dispatch/dispose instants and read through a `LoadModel`. Kept in
/// `core` so strategies can consume load without depending on `sched`.
///
/// The utilization EWMA decays in *simulated* time with constant `tau`:
/// between updates the estimate relaxes toward the held busy/idle state by
/// 1 - exp(-dt/tau). Reads are pure (decay is computed on the fly), so
/// sampling the account never perturbs determinism.
class LoadAccount {
 public:
  /// Sets the EWMA time constant and observation start. Call once before
  /// any update. `tau` must be > 0.
  void configure(double tau, sim::Time now);

  /// A job arrived at the node (enters queue or service).
  void add_backlog(double pex) {
    backlog_ += pex;
    changed();
  }
  /// A job left the node (completed or aborted).
  void remove_backlog(double pex) {
    backlog_ -= pex;
    if (backlog_ < 0) backlog_ = 0;  // guard pex rounding drift
    changed();
  }
  /// Mirrors the node's waiting-queue length.
  void set_queue_length(std::size_t n) {
    queue_length_ = static_cast<std::uint32_t>(n);
  }
  /// Folds the held busy state into the EWMA up to `now`, then holds
  /// `busy` from `now` on.
  void set_busy(sim::Time now, bool busy);
  /// Marks the node crashed / recovered (mirrors `sched::Node::fail` and
  /// `recover`).
  void set_down(bool down) {
    down_ = down;
    changed();
  }

  /// Current load with the EWMA decayed to `now`. Pure.
  NodeLoad read(sim::Time now) const;
  /// rank_key(read(now), LoadKey::QueuedPex), which does not depend on
  /// `now`.
  double pex_rank() const {
    NodeLoad load;
    load.queued_pex = backlog_;
    load.down = down_;
    return rank_key(load, LoadKey::QueuedPex);
  }

 private:
  friend class LoadBoard;

  double ewma_at(sim::Time now) const;
  void changed() {
    if (changes_) changes_->mark(id_);
  }

  double backlog_ = 0;
  LoadChanges* changes_ = nullptr;  ///< set while a view watches the board
  NodeId id_ = 0;                   ///< index on the board
  std::uint32_t queue_length_ = 0;
  bool down_ = false;
  bool busy_ = false;
  double tau_ = 1;
  double util_ewma_ = 0;
  sim::Time last_update_ = 0;
};

/// Sharded board of per-node LoadAccounts. Accounts live in cache-line-
/// aligned blocks of kShardSize that are allocated once and never move,
/// which buys two things at the k=4096 scale the flat `std::vector` board
/// could not: (a) the raw `LoadAccount*` pointers the nodes pin stay valid
/// even if the board grows after attachment, and (b) a snapshot refresh
/// walks independent fixed-size blocks instead of one multi-hundred-KB
/// array, so per-node account writes and the periodic refresh sweep stop
/// serializing through the same cache lines.
class LoadBoard {
 public:
  /// Accounts per shard; a shard is a few KB — comfortably cache-resident
  /// for the refresh inner loop.
  static constexpr std::size_t kShardSize = 64;

  LoadBoard() = default;
  explicit LoadBoard(std::size_t n) { resize(n); }

  LoadBoard(const LoadBoard&) = delete;
  LoadBoard& operator=(const LoadBoard&) = delete;

  /// Grows the board to `n` accounts (shards are added, never moved, so
  /// existing account addresses survive; shrinking only lowers the
  /// logical size).
  void resize(std::size_t n) {
    while (shards_.size() * kShardSize < n) {
      shards_.push_back(std::make_unique<Shard>());
      wire(*shards_.back(), shards_.size() - 1);
    }
    size_ = n;
  }

  /// Routes every rank-changing account write (backlog, down flag) to
  /// `changes`, for an exact view that keeps a placement index. One
  /// watcher at a time: returns false, changing nothing, if another is
  /// attached. The watcher must unwatch() before it goes away.
  bool watch(LoadChanges* changes) {
    if (changes_ && changes_ != changes) return false;
    changes_ = changes;
    for (std::size_t j = 0; j < shards_.size(); ++j) wire(*shards_[j], j);
    return true;
  }
  void unwatch() {
    changes_ = nullptr;
    for (std::size_t j = 0; j < shards_.size(); ++j) wire(*shards_[j], j);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  LoadAccount& operator[](std::size_t i) {
    return shards_[i / kShardSize]->slots[i % kShardSize];
  }
  const LoadAccount& operator[](std::size_t i) const {
    return shards_[i / kShardSize]->slots[i % kShardSize];
  }

  /// Invokes fn(index, account) for every account, shard block by shard
  /// block — the snapshot-refresh sweep, with the division/modulo of
  /// operator[] hoisted out of the inner loop.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::size_t i = 0;
    for (const auto& shard : shards_) {
      const std::size_t limit =
          size_ - i < kShardSize ? size_ - i : kShardSize;
      for (std::size_t s = 0; s < limit; ++s, ++i) fn(i, shard->slots[s]);
      if (i >= size_) break;
    }
  }

 private:
  struct alignas(64) Shard {
    LoadAccount slots[kShardSize];
  };

  /// Gives shard j's accounts their ids and the current watcher.
  void wire(Shard& shard, std::size_t j) {
    if (changes_) changes_->resize(shards_.size() * kShardSize);
    for (std::size_t s = 0; s < kShardSize; ++s) {
      shard.slots[s].id_ = static_cast<NodeId>(j * kShardSize + s);
      shard.slots[s].changes_ = changes_;
    }
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t size_ = 0;
  LoadChanges* changes_ = nullptr;
};

/// System-state view offered to SSP/PSP strategies (the paper's Section 7
/// "strategies that use system state information"). Implementations differ
/// in *freshness*: exact (oracle), sampled (periodic snapshots), stale
/// (snapshots served one period late — propagation delay). All freshness is
/// derived from simulated time, never wall clock, so runs stay
/// deterministic and `--jobs=1` equals `--jobs=N`.
class LoadModel {
 public:
  virtual ~LoadModel() = default;
  /// Load of `node` as this model sees it at simulated time `now`.
  virtual NodeLoad load(NodeId node, sim::Time now) const = 0;
  virtual std::string_view name() const = 0;

  /// Join-shortest-queue support: an index ranking every node the view
  /// knows of by rank_key(load(node, now), key), brought up to date for a
  /// decision at `now` over ids below `end`, with `reads` candidate reads
  /// charged exactly as that many load() calls would charge them. Returns
  /// nullptr, charging nothing, when the view keeps no index for `key` or
  /// its index does not reach `end`; the caller then reads load() per
  /// candidate. The caller may mask ids for one decision and must unmask
  /// them before the view is used again.
  virtual MinIndex* rank_index(LoadKey /*key*/, sim::Time /*now*/,
                               std::size_t /*end*/,
                               std::size_t /*reads*/) const {
    return nullptr;
  }
};

using LoadModelPtr = std::shared_ptr<const LoadModel>;

/// Zero-load oracle: every node always reports an empty queue. Load-aware
/// strategies driven by this model must reproduce their static counterparts
/// exactly (the differential tests pin this).
class IdleLoadModel final : public LoadModel {
 public:
  NodeLoad load(NodeId, sim::Time) const override { return {}; }
  std::string_view name() const override { return "idle"; }
};

/// Oracle freshness: reads the live accounts.
///
/// The queued-pex rank index is built on the first jsq-pex query: the
/// view then watches the board, and the account writes that change a
/// node's rank mark it, so each query re-keys only the nodes marked since
/// the last one. Views never queried that way attach nothing. The
/// utilization EWMA decays between writes, so jsq-util gets no index.
class ExactLoadModel final : public LoadModel {
 public:
  explicit ExactLoadModel(LoadBoard& accounts) : accounts_(accounts) {}
  ~ExactLoadModel() override {
    if (watching_) accounts_.unwatch();
  }
  ExactLoadModel(const ExactLoadModel&) = delete;
  ExactLoadModel& operator=(const ExactLoadModel&) = delete;

  NodeLoad load(NodeId node, sim::Time now) const override;
  std::string_view name() const override { return "exact"; }
  MinIndex* rank_index(LoadKey key, sim::Time now, std::size_t end,
                       std::size_t reads) const override;

  /// Board reads served so far (obs probe; an oracle read is always age 0).
  std::uint64_t reads() const { return reads_; }

 private:
  LoadBoard& accounts_;
  /// Passive read counter. Mutable-in-const for the same reason as
  /// JsqPlacement's tie rotation: the model is shared as a pointer-to-
  /// const, but each simulation run owns a fresh instance and a run is
  /// single-threaded. The index state below is mutable for the same
  /// reason.
  mutable std::uint64_t reads_ = 0;
  mutable bool watching_ = false;
  mutable LoadChanges changes_;
  mutable MinIndex index_;
};

/// Periodic-snapshot freshness. `refresh(now)` copies the live accounts
/// into the current snapshot (the simulation schedules it every `period`
/// simulated time units); reads serve either the current snapshot
/// (`Serve::Latest` — the "sampled" model) or the previous one
/// (`Serve::Previous` — the "stale"/propagation-delay model, in which a
/// read at time t sees state that is between one and two periods old).
/// Before the first refresh both snapshots are zero (cold start). The
/// snapshots follow the board's size at every refresh; a node the served
/// snapshot does not cover reads as zero.
///
/// A jsq query builds the rank index from the served snapshot the first
/// time it is asked after a refresh; between refreshes the index is only
/// read.
class SnapshotLoadModel final : public LoadModel {
 public:
  enum class Serve : std::uint8_t { Latest, Previous };

  SnapshotLoadModel(const LoadBoard& accounts, sim::Time period, Serve serve);

  /// Copies the live accounts into the served snapshots. Call at
  /// monotonically non-decreasing simulated times.
  void refresh(sim::Time now);

  sim::Time period() const { return period_; }
  NodeLoad load(NodeId node, sim::Time now) const override;
  std::string_view name() const override {
    return serve_ == Serve::Latest ? "sampled" : "stale";
  }
  MinIndex* rank_index(LoadKey key, sim::Time now, std::size_t end,
                       std::size_t reads) const override;

  /// Obs probes: refreshes and reads so far, and the mean age (read time
  /// minus the served snapshot's capture time) over all reads — the
  /// realized staleness the strategies actually acted on, as opposed to
  /// the nominal period. Reads before the first refresh see the zeroed
  /// cold-start snapshot, whose capture time is 0.
  std::uint64_t refreshes() const { return refreshes_; }
  std::uint64_t reads() const { return reads_; }
  double mean_read_age() const {
    return reads_ == 0 ? 0.0 : age_sum_ / static_cast<double>(reads_);
  }

 private:
  const LoadBoard& accounts_;
  sim::Time period_;
  Serve serve_;
  std::vector<NodeLoad> current_;
  std::vector<NodeLoad> previous_;
  sim::Time current_at_ = 0;   ///< capture time of current_
  sim::Time previous_at_ = 0;  ///< capture time of previous_
  std::uint64_t refreshes_ = 0;
  /// Passive read accounting and the rank index; mutable-in-const (see
  /// ExactLoadModel).
  mutable std::uint64_t reads_ = 0;
  mutable double age_sum_ = 0;
  mutable MinIndex index_;
  mutable LoadKey index_key_ = LoadKey::QueuedPex;
  /// refreshes_ when index_ was last built (none yet: all ones).
  mutable std::uint64_t indexed_at_ = ~std::uint64_t{0};
};

/// Which freshness a run should wire up.
enum class LoadModelKind : std::uint8_t { None, Exact, Sampled, Stale };

/// Declarative description of a load model — `system::Config` carries this
/// (not a live `LoadModel`) because the sampled/stale variants hold per-run
/// snapshot state that must not be shared across concurrent engine runs.
struct LoadModelSpec {
  LoadModelKind kind = LoadModelKind::None;
  /// Snapshot period (Sampled) / propagation delay (Stale), simulated time.
  double period = 5.0;
  /// Utilization EWMA time constant of the per-node accounts.
  double ewma_tau = 20.0;

  /// Parses "none" | "exact" | "sampled[:period]" | "stale[:delay]".
  /// Throws std::invalid_argument on unknown kinds or bad numbers.
  static LoadModelSpec parse(std::string_view text);

  /// Inverse of parse (e.g. "sampled:5").
  std::string describe() const;

  /// Throws std::invalid_argument unless ewma_tau is positive (checked for
  /// every kind, so a bad --lm_tau never lies dormant) and, for the
  /// snapshot kinds, period is positive.
  void validate() const;
};

}  // namespace dsrt::core
