#include "dsrt/core/task_spec.hpp"

#include <algorithm>
#include <stdexcept>

namespace dsrt::core {

namespace {

void spec_to_string(const TaskSpec& spec, std::size_t v, std::string& out) {
  const SpecVertex& vx = spec.vertex(v);
  if (vx.kind == SpecKind::Simple) {
    out += "T@";
    out += std::to_string(vx.node);
    if (vx.elig_count != 0) out += '*';  // binding deferred to dispatch time
    return;
  }
  const char* sep = vx.kind == SpecKind::Serial ? " " : " || ";
  out += '[';
  const auto ids = spec.children_of(vx);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i) out += sep;
    spec_to_string(spec, ids[i], out);
  }
  out += ']';
}

}  // namespace

// --- TaskSpec ---------------------------------------------------------------

const SpecVertex& TaskSpec::root_vertex() const {
  if (vertices_.empty())
    throw std::logic_error("TaskSpec: accessor on an empty spec");
  return vertices_[0];
}

double TaskSpec::predicted_duration() const {
  return root_vertex().pred_duration;
}

double TaskSpec::critical_path_exec() const {
  return root_vertex().crit_exec;
}

std::size_t TaskSpec::leaf_count() const {
  std::size_t n = 0;
  for (const SpecVertex& vx : vertices_)
    if (vx.kind == SpecKind::Simple) ++n;
  return n;
}

std::string TaskSpec::to_string() const {
  (void)root_vertex();  // empty-spec guard
  std::string out;
  spec_to_string(*this, 0, out);
  return out;
}

// --- TaskSpecBuilder --------------------------------------------------------

void TaskSpecBuilder::reset(TaskSpec& out) {
  out_ = &out;
  out.vertices_.clear();
  out.child_pool_.clear();
  out.elig_pool_.clear();
  open_groups_.clear();
}

std::uint32_t TaskSpecBuilder::add_vertex(SpecKind kind) {
  if (!out_) throw std::logic_error("TaskSpecBuilder: not bound (reset first)");
  if (open_groups_.empty() && !out_->vertices_.empty())
    throw std::logic_error("TaskSpecBuilder: spec already has a root");
  const auto v = static_cast<std::uint32_t>(out_->vertices_.size());
  SpecVertex vx;
  vx.kind = kind;
  if (!open_groups_.empty()) {
    const std::uint32_t g = open_groups_.back();
    vx.parent = static_cast<std::int32_t>(g);
    // child_count doubles as the running child counter while the group is
    // open; finish() turns the counts into child-pool spans.
    vx.index_in_parent = out_->vertices_[g].child_count++;
  }
  out_->vertices_.push_back(vx);
  return v;
}

void TaskSpecBuilder::begin_group(SpecKind kind) {
  open_groups_.push_back(add_vertex(kind));
}

void TaskSpecBuilder::end() {
  if (open_groups_.empty())
    throw std::logic_error("TaskSpecBuilder::end: no open group");
  const std::uint32_t g = open_groups_.back();
  if (out_->vertices_[g].child_count == 0)
    throw std::invalid_argument("TaskSpecBuilder::end: empty group");
  open_groups_.pop_back();
}

void TaskSpecBuilder::leaf(NodeId node, double exec, double pex) {
  if (exec < 0) throw std::invalid_argument("TaskSpec: negative exec");
  if (pex < 0) throw std::invalid_argument("TaskSpec: negative pex");
  const std::uint32_t v = add_vertex(SpecKind::Simple);
  SpecVertex& vx = out_->vertices_[v];
  vx.node = node;
  vx.exec = exec;
  vx.pex = pex;
}

void TaskSpecBuilder::leaf_among(NodeId hint, NodeId first,
                                 std::uint32_t count, double exec,
                                 double pex) {
  if (count == 0) throw std::invalid_argument("TaskSpec: empty eligible set");
  if (hint < first || hint - first >= count)
    throw std::invalid_argument("TaskSpec: hint outside the eligible set");
  leaf(hint, exec, pex);
  SpecVertex& vx = out_->vertices_.back();
  vx.elig_begin = first;
  vx.elig_count = count;
}

void TaskSpecBuilder::leaf_among(NodeId hint, EligibleSet eligible,
                                 double exec, double pex) {
  if (eligible.is_range()) {
    leaf_among(hint, eligible.front(),
               static_cast<std::uint32_t>(eligible.size()), exec, pex);
    return;
  }
  if (eligible.empty())
    throw std::invalid_argument("TaskSpec: empty eligible set");
  if (!eligible.contains(hint))
    throw std::invalid_argument("TaskSpec: hint outside the eligible set");
  leaf(hint, exec, pex);
  SpecVertex& vx = out_->vertices_.back();
  vx.elig_begin = static_cast<std::uint32_t>(out_->elig_pool_.size());
  vx.elig_count = static_cast<std::uint32_t>(eligible.size());
  vx.elig_listed = true;
  out_->elig_pool_.insert(out_->elig_pool_.end(), eligible.begin(),
                          eligible.end());
}

void TaskSpecBuilder::finish() {
  if (!out_) throw std::logic_error("TaskSpecBuilder: not bound (reset first)");
  if (!open_groups_.empty())
    throw std::logic_error("TaskSpecBuilder::finish: unclosed group");
  TaskSpec& spec = *out_;
  if (spec.vertices_.empty())
    throw std::logic_error("TaskSpecBuilder::finish: empty spec");

  // Materialize the child pool: child counts are known, so one prefix pass
  // assigns each group its contiguous span and a second pass scatters every
  // vertex into its parent's span at index_in_parent.
  spec.child_pool_.resize(spec.vertices_.size() - 1);
  std::uint32_t offset = 0;
  for (SpecVertex& vx : spec.vertices_) {
    vx.child_begin = offset;
    offset += vx.child_count;
  }
  for (std::size_t v = 1; v < spec.vertices_.size(); ++v) {
    const SpecVertex& vx = spec.vertices_[v];
    const SpecVertex& px =
        spec.vertices_[static_cast<std::size_t>(vx.parent)];
    spec.child_pool_[px.child_begin + vx.index_in_parent] =
        static_cast<std::uint32_t>(v);
  }

  // Aggregates, children before parents (reverse pre-order), accumulated
  // left to right over each child span — the exact association order of the
  // old recursive predicted_duration()/critical_path_exec(), so the sealed
  // values are bit-identical to the tree-of-vectors implementation.
  for (std::size_t i = spec.vertices_.size(); i-- > 0;) {
    SpecVertex& vx = spec.vertices_[i];
    switch (vx.kind) {
      case SpecKind::Simple:
        vx.pred_duration = vx.pex;
        vx.crit_exec = vx.exec;
        break;
      case SpecKind::Serial: {
        double pred = 0, crit = 0;
        for (const std::uint32_t c : spec.children_of(vx)) {
          pred += spec.vertices_[c].pred_duration;
          crit += spec.vertices_[c].crit_exec;
        }
        vx.pred_duration = pred;
        vx.crit_exec = crit;
        break;
      }
      case SpecKind::Parallel: {
        double pred = 0, crit = 0;
        for (const std::uint32_t c : spec.children_of(vx)) {
          pred = std::max(pred, spec.vertices_[c].pred_duration);
          crit = std::max(crit, spec.vertices_[c].crit_exec);
        }
        vx.pred_duration = pred;
        vx.crit_exec = crit;
        break;
      }
    }
  }
  out_ = nullptr;
}

}  // namespace dsrt::core
