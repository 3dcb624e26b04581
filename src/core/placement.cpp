#include "dsrt/core/placement.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "dsrt/core/load_model.hpp"
#include "dsrt/util/flags.hpp"

namespace dsrt::core {

NodeId StaticPlacement::place(const PlacementContext& ctx,
                              CandidateView candidates) const {
  if (candidates.empty())
    throw std::invalid_argument("StaticPlacement: empty candidate set");
  ++counters_.decisions;
  if (candidates.contains(ctx.hint)) return ctx.hint;
  ++counters_.hint_fallbacks;
  return candidates.front();
}

NodeId JsqPlacement::place(const PlacementContext& ctx,
                           CandidateView candidates) const {
  if (candidates.empty())
    throw std::invalid_argument("JsqPlacement: empty candidate set");
  ++counters_.decisions;
  // No state information: every key is zero and every candidate ties.
  if (!ctx.load) return candidates[next_tie(candidates.size())];
  const EligibleSet& set = candidates.set();
  if (!set.is_range()) return place_by_reads(ctx, candidates);
  const std::size_t lo = set.front();
  const std::size_t hi = lo + set.size();
  MinIndex* index =
      ctx.load->rank_index(key_, ctx.now, hi, candidates.size());
  if (!index) return place_by_reads(ctx, candidates);
  const auto excluded = candidates.excluded();
  const auto first = std::lower_bound(excluded.begin(), excluded.end(), lo);
  const auto last = std::lower_bound(first, excluded.end(), hi);
  for (auto it = first; it != last; ++it) index->mask(*it);
  const MinIndex::RangeMin best = index->min(lo, hi);
  const std::size_t node = index->nth_min(
      lo, hi, best.key, static_cast<std::uint32_t>(next_tie(best.ties)));
  for (auto it = first; it != last; ++it) index->unmask(*it);
  return static_cast<NodeId>(node);
}

NodeId JsqPlacement::place_by_reads(const PlacementContext& ctx,
                                    CandidateView candidates) const {
  // One model read per candidate (each read decays an EWMA with an exp());
  // the keys are kept in a high-water-reserved scratch so the tie-indexing
  // pass below never re-queries the board.
  keys_.clear();
  double best = 0;
  std::size_t ties = 0;
  for (const NodeId node : candidates) {
    const double key = rank_key(ctx.load->load(node, ctx.now), key_);
    keys_.push_back(key);
    if (ties == 0 || key < best) {
      best = key;
      ties = 1;
    } else if (key == best) {
      ++ties;
    }
  }
  // Exact ties rotate through the per-run sequence counter: deterministic,
  // and uniform over the tied set on an idle board.
  std::size_t skip = next_tie(ties);
  std::size_t i = 0;
  for (const NodeId node : candidates) {
    if (keys_[i++] == best) {
      if (skip == 0) return node;
      --skip;
    }
  }
  return candidates.front();  // unreachable
}

NodeId PodPlacement::place(const PlacementContext& ctx,
                           CandidateView candidates) const {
  if (candidates.empty())
    throw std::invalid_argument("PodPlacement: empty candidate set");
  ++counters_.decisions;
  const std::size_t n = candidates.size();
  const auto key_of = [&](NodeId node) {
    if (!ctx.load) return 0.0;
    return rank_key(ctx.load->load(node, ctx.now), LoadKey::QueuedPex);
  };
  if (n <= d_) {
    // Exhaustive fallback: a set this small is cheaper to scan than to
    // sample, and — per the documented draw-order contract — it consumes
    // NO rng draws, so narrow distinct-site leftovers never shift the
    // stream seen by the wide decisions around them.
    NodeId best_node = candidates.front();
    double best = 0;
    std::size_t ties = 0;
    for (const NodeId node : candidates) {
      const double key = key_of(node);
      if (ties == 0 || key < best) {
        best = key;
        best_node = node;
        ties = 1;
      } else if (key == best) {
        ++ties;
      }
    }
    if (ties > 1) ++counters_.exact_ties;
    return best_node;
  }
  // Partial Fisher-Yates over the candidate indices: exactly d_ draws of
  // rng.below(n - j), each picking one not-yet-sampled candidate uniformly
  // (sampling without replacement), replayed through a d-entry swap map.
  shuffle_.reset(n, d_);
  NodeId best_node = 0;
  double best = 0;
  std::size_t ties = 0;
  for (std::uint32_t j = 0; j < d_; ++j) {
    const NodeId node =
        candidates[static_cast<std::size_t>(shuffle_.next(rng_))];
    const double key = key_of(node);
    if (ties == 0 || key < best) {
      best = key;
      best_node = node;
      ties = 1;
    } else if (key == best) {
      // First minimum in draw order wins; the random sample itself
      // provides the idle-board spread jsq gets from tie rotation.
      ++ties;
    }
  }
  if (ties > 1) ++counters_.exact_ties;
  return best_node;
}

namespace {

/// Single source of truth for name-addressable placement policies: lookup,
/// error messages, and the CLI help vocabulary all read this table.
struct PlacementRegistryEntry {
  std::string_view name;
  PlacementKind kind;
};

constexpr PlacementRegistryEntry kPlacementRegistry[] = {
    {"static", PlacementKind::Static},
    {"jsq-pex", PlacementKind::JsqPex},
    {"jsq-util", PlacementKind::JsqUtil},
    {"pod", PlacementKind::PowerOfD},
};

std::string vocabulary() {
  std::string out;
  for (const auto& entry : kPlacementRegistry) {
    if (!out.empty()) out += '|';
    out += entry.name;
  }
  return out;
}

}  // namespace

PlacementSpec PlacementSpec::parse(std::string_view text) {
  std::string_view kind = text;
  if (const auto colon = text.find(':'); colon != std::string_view::npos) {
    kind = text.substr(0, colon);
    const std::string_view param = text.substr(colon + 1);
    if (kind == "pod") {
      // The only parameterized kind: pod:<d>, d an integer in
      // [1, kMaxPodD]. A trailing colon, zero, huge, or non-integral d is
      // a malformed spec, not a request for the default — rejecting keeps
      // a typo from silently sampling a different number of choices.
      if (param.empty())
        throw std::invalid_argument("PlacementSpec: empty parameter in '" +
                                    std::string(text) + "'");
      const auto value = util::parse_double(param);
      if (!value || *value != std::floor(*value))
        throw std::invalid_argument("PlacementSpec: bad pod sample size '" +
                                    std::string(param) +
                                    "' (want an integer)");
      if (*value < 1.0)
        throw std::invalid_argument(
            "PlacementSpec: pod sample size must be >= 1 (got '" +
            std::string(param) + "')");
      if (*value > static_cast<double>(PlacementSpec::kMaxPodD))
        throw std::invalid_argument(
            "PlacementSpec: pod sample size " + std::string(param) +
            " exceeds the maximum " + std::to_string(PlacementSpec::kMaxPodD));
      PlacementSpec spec;
      spec.kind = PlacementKind::PowerOfD;
      spec.d = static_cast<std::uint32_t>(*value);
      return spec;
    }
    // No other placement kind is parameterized; rejecting the whole token
    // (rather than silently ignoring the suffix) keeps "jsq-pex:junk" from
    // running as a half-parsed jsq-pex.
    for (const auto& entry : kPlacementRegistry) {
      if (kind == entry.name)
        throw std::invalid_argument("PlacementSpec: '" + std::string(kind) +
                                    "' takes no parameter (got '" +
                                    std::string(text) + "')");
    }
  }
  for (const auto& entry : kPlacementRegistry) {
    if (text == entry.name) {
      PlacementSpec spec;
      spec.kind = entry.kind;  // bare "pod" keeps the default d = 2
      return spec;
    }
  }
  throw std::invalid_argument("PlacementSpec: unknown placement '" +
                              std::string(text) + "' (want " + vocabulary() +
                              ")");
}

std::string PlacementSpec::describe() const {
  if (kind == PlacementKind::PowerOfD) return "pod:" + std::to_string(d);
  for (const auto& entry : kPlacementRegistry)
    if (entry.kind == kind) return std::string(entry.name);
  return "static";  // unreachable
}

PlacementPolicyPtr make_placement(const PlacementSpec& spec,
                                  std::uint64_t seed) {
  switch (spec.kind) {
    case PlacementKind::Static:
      return std::make_shared<StaticPlacement>();
    case PlacementKind::JsqPex:
      return std::make_shared<JsqPlacement>(JsqPlacement::Key::QueuedPex);
    case PlacementKind::JsqUtil:
      return std::make_shared<JsqPlacement>(JsqPlacement::Key::Utilization);
    case PlacementKind::PowerOfD:
      if (spec.d < 1 || spec.d > PlacementSpec::kMaxPodD)
        throw std::invalid_argument("make_placement: pod sample size " +
                                    std::to_string(spec.d) +
                                    " outside [1, " +
                                    std::to_string(PlacementSpec::kMaxPodD) +
                                    "]");
      return std::make_shared<PodPlacement>(
          spec.d, sim::Rng(seed, kPlacementRngStream));
  }
  throw std::logic_error("make_placement: bad kind");
}

std::vector<std::string_view> placement_names() {
  std::vector<std::string_view> names;
  for (const auto& entry : kPlacementRegistry) names.push_back(entry.name);
  return names;
}

}  // namespace dsrt::core
