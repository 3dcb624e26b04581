// A6b — extension: automatic selection of the DIV-x promotion factor.
//
// Section 5.3 leaves "how to set the value of x" to [7]; tune_div_x answers
// it operationally: bisection on the class gap MD_global - MD_local, which
// is monotone in x. This bench reports the fair x* per load and fan-out —
// showing how the right amount of promotion moves with system conditions.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "dsrt/system/baseline.hpp"
#include "dsrt/system/tuning.hpp"

int main(int argc, char** argv) {
  const dsrt::util::Flags flags(argc, argv);
  bench::RunControl rc = bench::parse_run_control(flags);
  if (!flags.has("horizon")) rc.horizon = 2e5;

  bench::banner("abl_divx_autotune",
                "Section 5.3 open question: choosing x (bisection on the "
                "class miss-rate gap)",
                "parallel baseline; x* equalizes MD_global and MD_local");

  dsrt::stats::Table table({"load", "fan-out m", "x*", "MD_local(%)",
                            "MD_global(%)", "residual gap(pp)", "probes"});
  for (double load : {0.4, 0.5, 0.6}) {
    for (std::size_t m : {2u, 4u}) {
      dsrt::system::Config cfg = dsrt::system::baseline_psp();
      bench::apply(rc, cfg);
      cfg.load = load;
      cfg.subtasks = m;
      const auto t = dsrt::system::tune_div_x(cfg, rc.reps);
      table.add_row({dsrt::stats::Table::cell(load, 1), std::to_string(m),
                     dsrt::stats::Table::cell(t.x, 3),
                     dsrt::stats::Table::percent(t.md_local, 1),
                     dsrt::stats::Table::percent(t.md_global, 1),
                     dsrt::stats::Table::percent(t.gap, 1),
                     std::to_string(t.evaluations)});
    }
  }
  bench::emit(table);
  return 0;
}
