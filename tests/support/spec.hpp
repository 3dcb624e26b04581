#pragma once

#include <string_view>

#include "dsrt/core/task_spec.hpp"
#include "dsrt/workload/trace_io.hpp"

namespace dsrt::testing {

/// A task spec written in the trace shape grammar: `S(...)` serial and
/// `P(...)` parallel groups, leaves `exec/pex@node` with an optional
/// eligible set `{lo..hi}` (range) or `{a|b|c}` (explicit list), e.g.
/// "S(1/1@0 P(2/2@1 3/3@2))". Read the result by pre-order vertex index
/// (0 = root).
inline core::TaskSpec spec_of(std::string_view shape) {
  core::TaskSpec spec;
  core::TaskSpecBuilder builder;
  workload::parse_spec_into(shape, builder, spec);
  return spec;
}

}  // namespace dsrt::testing
