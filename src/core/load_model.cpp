#include "dsrt/core/load_model.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "dsrt/util/flags.hpp"

namespace dsrt::core {

void LoadAccount::configure(double tau, sim::Time now) {
  if (tau <= 0) throw std::invalid_argument("LoadAccount: tau <= 0");
  tau_ = tau;
  last_update_ = now;
}

double LoadAccount::ewma_at(sim::Time now) const {
  const double dt = now - last_update_;
  if (dt <= 0) return util_ewma_;
  const double a = 1.0 - std::exp(-dt / tau_);
  return util_ewma_ + a * ((busy_ ? 1.0 : 0.0) - util_ewma_);
}

void LoadAccount::set_busy(sim::Time now, bool busy) {
  util_ewma_ = ewma_at(now);
  last_update_ = now;
  busy_ = busy;
}

NodeLoad LoadAccount::read(sim::Time now) const {
  NodeLoad load;
  load.queued_pex = backlog_;
  load.utilization = ewma_at(now);
  load.queue_length = queue_length_;
  load.down = down_;
  return load;
}

NodeLoad ExactLoadModel::load(NodeId node, sim::Time now) const {
  ++reads_;
  if (node >= accounts_.size()) return {};
  return accounts_[node].read(now);
}

MinIndex* ExactLoadModel::rank_index(LoadKey key, sim::Time /*now*/,
                                     std::size_t end,
                                     std::size_t reads) const {
  // The utilization EWMA moves between writes; only queued pex is indexed.
  if (key != LoadKey::QueuedPex) return nullptr;
  if (!watching_) {
    if (!accounts_.watch(&changes_)) return nullptr;  // another view's board
    watching_ = true;
  }
  if (index_.size() != accounts_.size()) {
    // First query, or the board grew: every node is re-ranked.
    changes_.drain([](NodeId) {});
    index_.rebuild(accounts_.size(), [&](std::size_t id) {
      return accounts_[id].pex_rank();
    });
  } else {
    changes_.drain([&](NodeId id) {
      if (id < index_.size()) index_.set(id, accounts_[id].pex_rank());
    });
  }
  if (end > index_.size()) return nullptr;
  reads_ += reads;
  return &index_;
}

SnapshotLoadModel::SnapshotLoadModel(const LoadBoard& accounts,
                                     sim::Time period, Serve serve)
    : accounts_(accounts),
      period_(period),
      serve_(serve),
      current_(accounts.size()),
      previous_(accounts.size()) {
  if (period <= 0)
    throw std::invalid_argument("SnapshotLoadModel: period <= 0");
}

void SnapshotLoadModel::refresh(sim::Time now) {
  previous_.swap(current_);
  previous_at_ = current_at_;
  current_at_ = now;
  ++refreshes_;
  // The board may have grown (or shrunk) since the last capture.
  current_.resize(accounts_.size());
  // Shard-wise sweep over the board: each block is cache-resident and
  // independent of the lines the nodes are writing concurrently-in-sim-
  // time, so the k=4096 refresh stays a tight streaming loop.
  accounts_.for_each(
      [&](std::size_t i, const LoadAccount& acct) {
        current_[i] = acct.read(now);
      });
}

NodeLoad SnapshotLoadModel::load(NodeId node, sim::Time now) const {
  ++reads_;
  age_sum_ += now - (serve_ == Serve::Latest ? current_at_ : previous_at_);
  const auto& served = serve_ == Serve::Latest ? current_ : previous_;
  if (node >= served.size()) return {};
  return served[node];
}

MinIndex* SnapshotLoadModel::rank_index(LoadKey key, sim::Time now,
                                        std::size_t end,
                                        std::size_t reads) const {
  const bool latest = serve_ == Serve::Latest;
  if (indexed_at_ != refreshes_ || index_key_ != key) {
    const auto& served = latest ? current_ : previous_;
    index_.rebuild(served.size(), [&](std::size_t id) {
      return rank_key(served[id], key);
    });
    indexed_at_ = refreshes_;
    index_key_ = key;
  }
  if (end > index_.size()) return nullptr;
  reads_ += reads;
  age_sum_ += static_cast<double>(reads) *
              (now - (latest ? current_at_ : previous_at_));
  return &index_;
}

LoadModelSpec LoadModelSpec::parse(std::string_view text) {
  LoadModelSpec spec;
  std::string_view kind = text;
  std::string_view param;
  bool has_param = false;
  if (const auto colon = text.find(':'); colon != std::string_view::npos) {
    kind = text.substr(0, colon);
    param = text.substr(colon + 1);
    has_param = true;
    // A trailing colon ("sampled:") is a malformed spec, not a request for
    // the default period — rejecting it keeps a typo from silently running
    // with different freshness than the caller intended.
    if (param.empty())
      throw std::invalid_argument("LoadModelSpec: empty parameter in '" +
                                  std::string(text) + "'");
  }
  if (kind == "none") {
    spec.kind = LoadModelKind::None;
  } else if (kind == "exact") {
    spec.kind = LoadModelKind::Exact;
  } else if (kind == "sampled") {
    spec.kind = LoadModelKind::Sampled;
  } else if (kind == "stale") {
    spec.kind = LoadModelKind::Stale;
  } else {
    throw std::invalid_argument("LoadModelSpec: unknown load model '" +
                                std::string(text) +
                                "' (want none|exact|sampled[:p]|stale[:d])");
  }
  if (has_param) {
    if (spec.kind == LoadModelKind::None || spec.kind == LoadModelKind::Exact)
      throw std::invalid_argument(
          "LoadModelSpec: '" + std::string(kind) + "' takes no parameter");
    const auto period = util::parse_double(param);
    if (!period)
      throw std::invalid_argument("LoadModelSpec: bad period '" +
                                  std::string(param) + "'");
    spec.period = *period;
  }
  spec.validate();
  return spec;
}

std::string LoadModelSpec::describe() const {
  std::ostringstream os;
  switch (kind) {
    case LoadModelKind::None: return "none";
    case LoadModelKind::Exact: return "exact";
    case LoadModelKind::Sampled: os << "sampled:" << period; break;
    case LoadModelKind::Stale: os << "stale:" << period; break;
  }
  return os.str();
}

void LoadModelSpec::validate() const {
  // tau is checked even with kind None so a bad --lm_tau fails fast
  // instead of lying dormant until a load model is switched on.
  if (!(ewma_tau > 0))
    throw std::invalid_argument("LoadModelSpec: ewma_tau <= 0");
  if (kind == LoadModelKind::None) return;
  if (!(period > 0))
    throw std::invalid_argument("LoadModelSpec: period <= 0");
}

}  // namespace dsrt::core
