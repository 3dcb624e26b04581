// Unit tests for the report table and the flag parser.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "dsrt/stats/report.hpp"
#include "dsrt/util/flags.hpp"

namespace {

using dsrt::stats::Table;
using dsrt::util::Flags;

TEST(Table, FormatsAlignedColumns) {
  Table t({"a", "value"});
  t.add_row({"x", "1.0"});
  t.add_row({"longer", "2.5"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvOutput) {
  Table t({"h1", "h2"});
  t.add_row({"a", "b"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "h1,h2\na,b\n");
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"only"});
  EXPECT_THROW(t.add_row({"a", "b"}), std::invalid_argument);
}

TEST(Table, RejectsEmptyHeaders) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(Table::cell(1.23456, 2), "1.23");
  EXPECT_EQ(Table::percent(0.403, 1), "40.3");
  EXPECT_EQ(Table::with_ci(0.5, 0.01, 2), "0.50 +- 0.01");
}

Flags make_flags(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, ParsesEqualsForm) {
  const auto f = make_flags({"--load=0.5", "--name=EQF"});
  EXPECT_DOUBLE_EQ(f.get("load", 0.0), 0.5);
  EXPECT_EQ(f.get("name", std::string("x")), "EQF");
}

TEST(Flags, ParsesSpaceForm) {
  const auto f = make_flags({"--reps", "4"});
  EXPECT_EQ(f.get("reps", 0L), 4L);
}

TEST(Flags, BareBooleanFlag) {
  const auto f = make_flags({"--quick"});
  EXPECT_TRUE(f.has("quick"));
  EXPECT_TRUE(f.get("quick", false));
  EXPECT_FALSE(f.get("absent", false));
}

TEST(Flags, BooleanSpellings) {
  EXPECT_TRUE(make_flags({"--x=true"}).get("x", false));
  EXPECT_TRUE(make_flags({"--x=1"}).get("x", false));
  EXPECT_FALSE(make_flags({"--x=off"}).get("x", true));
  EXPECT_FALSE(make_flags({"--x=no"}).get("x", true));
}

TEST(Flags, FallbacksWhenAbsent) {
  const auto f = make_flags({});
  EXPECT_DOUBLE_EQ(f.get("horizon", 1e6), 1e6);
  EXPECT_EQ(f.get("s", std::string("d")), "d");
}

TEST(Flags, PositionalArguments) {
  const auto f = make_flags({"pos1", "--k=1", "pos2"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "pos1");
  EXPECT_EQ(f.positional()[1], "pos2");
}

TEST(Flags, ThrowsOnUnparsableNumber) {
  const auto f = make_flags({"--load=abc"});
  EXPECT_THROW(f.get("load", 0.0), std::invalid_argument);
  EXPECT_THROW(f.get("load", 0L), std::invalid_argument);
  EXPECT_THROW(f.get("load", false), std::invalid_argument);
}

TEST(Flags, NumbersConsumeTheWholeValue) {
  const auto f = make_flags({"--k=4.7", "--m=2x", "--n=-3", "--x=2.5"});
  EXPECT_THROW(f.get("k", 0L), std::invalid_argument);
  EXPECT_THROW(f.get("m", 0L), std::invalid_argument);
  EXPECT_THROW(f.get("m", 0.0), std::invalid_argument);
  EXPECT_EQ(f.get("n", 0L), -3L);
  EXPECT_DOUBLE_EQ(f.get("x", 0.0), 2.5);
  EXPECT_EQ(dsrt::util::parse_long("42"), 42L);
  EXPECT_FALSE(dsrt::util::parse_long("4.7").has_value());
  EXPECT_FALSE(dsrt::util::parse_long("").has_value());
  EXPECT_FALSE(dsrt::util::parse_long("99999999999999999999999").has_value());
}

TEST(Flags, RequireKnownRejectsATypoAndListsTheAcceptedFlags) {
  const auto ok = make_flags({"run", "--jobs=4", "--out=x"});
  EXPECT_NO_THROW(ok.require_known({"jobs", "out", "shards"}));
  EXPECT_NO_THROW(make_flags({"pos"}).require_known({}));

  const auto typo = make_flags({"run", "--jbos=4", "--out=x"});
  try {
    typo.require_known({"jobs", "out"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("--jbos"), std::string::npos) << what;
    EXPECT_NE(what.find("--jobs"), std::string::npos) << what;
    EXPECT_NE(what.find("--out"), std::string::npos) << what;
  }
  // Bare booleans and the space form are flags too.
  EXPECT_THROW(make_flags({"--resume"}).require_known({"jobs"}),
               std::invalid_argument);
  EXPECT_THROW(make_flags({"--horizn", "1e6"}).require_known({"horizon"}),
               std::invalid_argument);
}

}  // namespace
