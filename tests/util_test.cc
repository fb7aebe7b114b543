#include <gtest/gtest.h>

#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>
#include <optional>
#include <set>
#include <string_view>

#include "util/csv_writer.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace fedcross::util {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad alpha");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad alpha");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad alpha");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(result.value_or(0), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result(Status::NotFound("missing"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.value_or(-1), -1);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> result(std::string("payload"));
  std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "payload");
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, ForkIndependentStreams) {
  Rng base(5);
  Rng fork1 = base.Fork(1);
  Rng fork2 = base.Fork(2);
  EXPECT_NE(fork1.NextUint64(), fork2.NextUint64());
}

TEST(RngTest, UniformIntInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformMoments) {
  Rng rng(13);
  double total = 0.0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) total += rng.Uniform();
  EXPECT_NEAR(total / kSamples, 0.5, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  double total = 0.0;
  double total_sq = 0.0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    double x = rng.Normal(2.0, 3.0);
    total += x;
    total_sq += x * x;
  }
  double mean = total / kSamples;
  double var = total_sq / kSamples - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(RngTest, GammaMean) {
  Rng rng(19);
  for (double shape : {0.5, 1.0, 3.0}) {
    double total = 0.0;
    constexpr int kSamples = 20000;
    for (int i = 0; i < kSamples; ++i) total += rng.Gamma(shape);
    EXPECT_NEAR(total / kSamples, shape, 0.1 * shape + 0.05) << shape;
  }
}

TEST(RngTest, DirichletSumsToOne) {
  Rng rng(23);
  for (double alpha : {0.1, 0.5, 1.0, 10.0}) {
    std::vector<double> sample = rng.Dirichlet(alpha, 10);
    double total = std::accumulate(sample.begin(), sample.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-9);
    for (double p : sample) EXPECT_GE(p, 0.0);
  }
}

TEST(RngTest, DirichletSmallAlphaIsSkewed) {
  Rng rng(29);
  // At alpha=0.05 the mass should concentrate: max component usually > 0.5.
  int concentrated = 0;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> sample = rng.Dirichlet(0.05, 10);
    double max_p = *std::max_element(sample.begin(), sample.end());
    if (max_p > 0.5) ++concentrated;
  }
  EXPECT_GT(concentrated, 35);
}

TEST(RngTest, DirichletLargeAlphaIsUniform) {
  Rng rng(31);
  std::vector<double> mean(10, 0.0);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> sample = rng.Dirichlet(100.0, 10);
    for (int i = 0; i < 10; ++i) mean[i] += sample[i];
  }
  for (double m : mean) EXPECT_NEAR(m / 200.0, 0.1, 0.01);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(37);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 4000; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(41);
  std::vector<int> values(100);
  std::iota(values.begin(), values.end(), 0);
  rng.Shuffle(values);
  std::set<int> seen(values.begin(), values.end());
  EXPECT_EQ(seen.size(), 100u);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(43);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int> sample = rng.SampleWithoutReplacement(50, 10);
    std::set<int> seen(sample.begin(), sample.end());
    EXPECT_EQ(seen.size(), 10u);
    for (int s : sample) {
      EXPECT_GE(s, 0);
      EXPECT_LT(s, 50);
    }
  }
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(47);
  std::vector<int> sample = rng.SampleWithoutReplacement(5, 5);
  std::set<int> seen(sample.begin(), sample.end());
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, SampleWithoutReplacementUniform) {
  Rng rng(53);
  std::vector<int> hits(10, 0);
  for (int trial = 0; trial < 5000; ++trial) {
    for (int s : rng.SampleWithoutReplacement(10, 3)) ++hits[s];
  }
  for (int h : hits) EXPECT_NEAR(h, 1500, 150);
}

// ----------------------------------------------------------------- Flags

TEST(FlagParserTest, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--rounds=40", "--alpha", "0.99", "--verbose"};
  FlagParser flags(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("rounds", 0), 40);
  EXPECT_DOUBLE_EQ(flags.GetDouble("alpha", 0.0), 0.99);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_TRUE(flags.ok());
}

TEST(FlagParserTest, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  FlagParser flags(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("rounds", 7), 7);
  EXPECT_EQ(flags.GetString("name", "x"), "x");
  EXPECT_FALSE(flags.GetBool("flag", false));
}

TEST(FlagParserTest, RejectsMalformedInt) {
  const char* argv[] = {"prog", "--rounds=abc"};
  FlagParser flags(2, const_cast<char**>(argv));
  flags.GetInt("rounds", 0);
  EXPECT_FALSE(flags.ok());
}

TEST(FlagParserTest, RejectsEmptyInt) {
  const char* argv[] = {"prog", "--rounds="};
  FlagParser flags(2, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("rounds", 7), 7);
  EXPECT_FALSE(flags.ok());
}

TEST(FlagParserTest, RejectsIntOutsideIntRange) {
  // 2^32 + 1 would narrow to 1; past long long, strtoll saturates.
  for (const char* arg :
       {"--k=4294967297", "--k=-2147483649", "--k=99999999999999999999"}) {
    const char* argv[] = {"prog", arg};
    FlagParser flags(2, const_cast<char**>(argv));
    EXPECT_EQ(flags.GetInt("k", 3), 3) << arg;
    EXPECT_FALSE(flags.ok()) << arg;
  }
  const char* argv[] = {"prog", "--lo=-2147483648", "--hi=2147483647"};
  FlagParser flags(3, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("lo", 0), std::numeric_limits<int>::min());
  EXPECT_EQ(flags.GetInt("hi", 0), std::numeric_limits<int>::max());
  EXPECT_TRUE(flags.ok());
}

TEST(FlagParserTest, RejectsEmptyDouble) {
  const char* argv[] = {"prog", "--alpha="};
  FlagParser flags(2, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.GetDouble("alpha", 0.5), 0.5);
  EXPECT_FALSE(flags.ok());
}

TEST(FlagParserTest, RejectsNonFiniteDouble) {
  for (const char* arg : {"--alpha=nan", "--alpha=inf", "--alpha=-inf",
                          "--alpha=1e999"}) {
    const char* argv[] = {"prog", arg};
    FlagParser flags(2, const_cast<char**>(argv));
    EXPECT_DOUBLE_EQ(flags.GetDouble("alpha", 0.5), 0.5) << arg;
    EXPECT_FALSE(flags.ok()) << arg;
    EXPECT_NE(flags.error().find("--alpha"), std::string::npos) << arg;
  }
  const char* argv[] = {"prog", "--alpha=1e308", "--beta=-0.25"};
  FlagParser flags(3, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.GetDouble("alpha", 0.0), 1e308);
  EXPECT_DOUBLE_EQ(flags.GetDouble("beta", 0.0), -0.25);
  EXPECT_TRUE(flags.ok());
}

TEST(FlagParserTest, RejectsPositional) {
  const char* argv[] = {"prog", "positional"};
  FlagParser flags(2, const_cast<char**>(argv));
  EXPECT_FALSE(flags.ok());
}

TEST(FlagParserTest, ReportsUnusedFlags) {
  const char* argv[] = {"prog", "--known=1", "--typo=2"};
  FlagParser flags(3, const_cast<char**>(argv));
  flags.GetInt("known", 0);
  std::vector<std::string> unused = flags.UnusedFlags();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
  EXPECT_FALSE(flags.ok());
  EXPECT_NE(flags.error().find("--typo"), std::string::npos) << flags.error();
}

TEST(FlagParserTest, ReportsEveryMalformedFlagInReadOrder) {
  const char* argv[] = {"prog", "--rounds", "abc", "--k", "xyz",
                        "--alpha", "nan", "--typo", "1"};
  FlagParser flags(9, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("rounds", 40), 40);
  EXPECT_EQ(flags.GetInt("k", 10), 10);
  EXPECT_EQ(flags.GetDouble("alpha", 0.99), 0.99);
  EXPECT_FALSE(flags.ok());
  EXPECT_EQ(flags.error(),
            "flag --rounds expects an integer, got 'abc'\n"
            "flag --k expects an integer, got 'xyz'\n"
            "flag --alpha expects a finite number, got 'nan'\n"
            "unknown flag --typo");
}

TEST(FlagParserTest, BoolVariants) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=yes"};
  FlagParser flags(4, const_cast<char**>(argv));
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_TRUE(flags.GetBool("c", false));
}

// Reference conversions for the flag fuzz, built on std::from_chars rather
// than the strtoll/strtod calls the parser uses. nullopt means the text is
// not a number the type can hold.
std::optional<int> ReferenceInt(std::string_view text) {
  if (text.size() > 1 && text[0] == '+' && text[1] != '+' && text[1] != '-') {
    text.remove_prefix(1);
  }
  int value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::optional<double> ReferenceDouble(std::string_view text) {
  bool negative = false;
  if (!text.empty() && (text[0] == '+' || text[0] == '-')) {
    negative = text[0] == '-';
    text.remove_prefix(1);
  }
  std::chars_format format = std::chars_format::general;
  if (text.size() >= 2 && text[0] == '0' &&
      (text[1] == 'x' || text[1] == 'X')) {
    text.remove_prefix(2);
    format = std::chars_format::hex;
  }
  if (text.empty() || text[0] == '+' || text[0] == '-') return std::nullopt;
  double value = 0.0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value, format);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return negative ? -value : value;
}

TEST(FlagFuzzTest, EveryUnrepresentableValueIsAnErrorNamingItsFlag) {
  // argv tokens are glued from these fragments: flag syntax, the names the
  // getters read (and one none reads), numbers at and past every range
  // edge, hex, very long digit strings and bytes that are not UTF-8.
  const std::string digits40(40, '7');
  const std::string digits400 = "1" + std::string(399, '0');
  const std::vector<std::string> fragments = {
      "--", "-", "=", "", "count", "rate", "label", "verbose", "typo",
      "nan", "inf", "-inf", "1e999", "-2147483649", "4294967297",
      "2147483647", "-2147483648", "0x", "0x1f", "0xffffffff", "3", "-7",
      "2.5", ".", "e5", "+", "true", "no", "yes", digits40, digits400,
      "\xff\xfe", "\xc0\xaf", "\x80"};
  const std::string names[] = {"count", "rate", "label", "verbose", "typo"};
  util::Rng rng(2024);
  auto fragment = [&] { return fragments[rng.UniformInt(fragments.size())]; };
  // error() holds one line per error; a getter's line names its flag first.
  auto names_flag = [](const FlagParser& parser, const std::string& name) {
    const std::string error = parser.error();
    const std::string prefix = "flag --" + name + " ";
    for (std::size_t line = 0; line < error.size();) {
      if (error.compare(line, prefix.size(), prefix) == 0) return true;
      const std::size_t end = error.find('\n', line);
      if (end == std::string::npos) break;
      line = end + 1;
    }
    return false;
  };

  for (int trial = 0; trial < 10000; ++trial) {
    std::vector<std::string> args = {"prog"};
    const int tokens = static_cast<int>(rng.UniformInt(7));
    for (int t = 0; t < tokens; ++t) {
      // Half the tokens lead with a real flag name so values reach the
      // getters; names repeat across tokens, and the last one wins.
      std::string token;
      if (rng.UniformInt(2) == 0) token = "--" + names[rng.UniformInt(5)];
      for (int f = 1 + static_cast<int>(rng.UniformInt(3)); f > 0; --f) {
        token += fragment();
      }
      args.push_back(token);
    }
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    FlagParser flags(static_cast<int>(argv.size()), argv.data());

    // Each typed getter either returns exactly the reference value of the
    // provided text or leaves an error naming its flag and returns the
    // default; an absent flag returns the default with no error.
    const std::string count_text = flags.GetString("count", "");
    const int count = flags.GetInt("count", 7);
    const bool count_error = names_flag(flags, "count");
    const std::optional<int> count_ref = ReferenceInt(count_text);
    if (flags.Has("count") && count_ref) {
      EXPECT_FALSE(count_error) << count_text;
      EXPECT_EQ(count, *count_ref) << count_text;
    } else {
      EXPECT_EQ(count_error, flags.Has("count")) << count_text;
      EXPECT_EQ(count, 7) << count_text;
    }

    const std::string rate_text = flags.GetString("rate", "");
    const double rate = flags.GetDouble("rate", 0.5);
    const bool rate_error = names_flag(flags, "rate");
    const std::optional<double> rate_ref = ReferenceDouble(rate_text);
    if (flags.Has("rate") && rate_ref) {
      EXPECT_FALSE(rate_error) << rate_text;
      EXPECT_EQ(std::memcmp(&rate, &*rate_ref, sizeof(double)), 0)
          << rate_text;
    } else {
      EXPECT_EQ(rate_error, flags.Has("rate")) << rate_text;
      EXPECT_EQ(rate, 0.5) << rate_text;
    }

    const std::string label = flags.GetString("label", "unset");
    EXPECT_TRUE(flags.Has("label") || label == "unset") << label;

    const std::string verbose_text = flags.GetString("verbose", "");
    const bool verbose = flags.GetBool("verbose", false);
    const bool verbose_error = names_flag(flags, "verbose");
    const bool truthy = verbose_text == "true" || verbose_text == "1" ||
                        verbose_text == "yes";
    const bool falsy = verbose_text == "false" || verbose_text == "0" ||
                       verbose_text == "no";
    EXPECT_EQ(verbose_error, flags.Has("verbose") && !truthy && !falsy)
        << verbose_text;
    EXPECT_EQ(verbose, flags.Has("verbose") && truthy) << verbose_text;

    // A provided flag no getter read is reported, whatever else failed.
    const bool failed = count_error || rate_error || verbose_error ||
                        !flags.UnusedFlags().empty();
    EXPECT_TRUE(!failed || !flags.ok());
    EXPECT_EQ(flags.ok(), flags.error().empty());
  }
}

// ------------------------------------------------------------------- CSV

TEST(CsvWriterTest, WritesAndQuotes) {
  std::string path = ::testing::TempDir() + "/csv_test.csv";
  {
    CsvWriter csv(path);
    ASSERT_TRUE(csv.ok());
    csv.WriteRow({"plain", "with,comma", "with\"quote"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "plain,\"with,comma\",\"with\"\"quote\"");
  std::remove(path.c_str());
}

TEST(CsvWriterTest, FieldFormatting) {
  EXPECT_EQ(CsvWriter::Field(42), "42");
  EXPECT_EQ(CsvWriter::Field(0.5), "0.5");
}

// --------------------------------------------------------- TablePrinter

TEST(TablePrinterTest, RendersAlignedTable) {
  TablePrinter table({"Method", "Acc"});
  table.AddRow({"FedAvg", "46.12"});
  table.AddRow({"FedCross", "55.70"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("| Method   | Acc   |"), std::string::npos);
  EXPECT_NE(out.find("| FedCross | 55.70 |"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2);
}

TEST(TablePrinterTest, MeanStdFormat) {
  EXPECT_EQ(TablePrinter::MeanStd(55.701, 0.736), "55.70 +- 0.74");
  EXPECT_EQ(TablePrinter::Fixed(3.14159, 3), "3.142");
}

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Schedule([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelFor(64, [&hits](int i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, DefaultsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

}  // namespace
}  // namespace fedcross::util
