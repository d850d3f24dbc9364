#include "bench_util.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace rebooting::bench {
namespace {

/// A Report whose artifact goes to a per-test file named by `--out`.
class ReportTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(out_.c_str()); }

  Report make() {
    args_ = {"/nowhere/bench", "--out", out_};
    argv_.clear();
    for (auto& a : args_) argv_.push_back(a.data());
    return Report("unit", "BENCH_unit.json", static_cast<int>(argv_.size()),
                  argv_.data());
  }

  core::JsonValue artifact() const {
    std::ifstream in(out_);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const auto doc = core::json_parse(text);
    if (!doc) throw std::runtime_error("artifact does not parse: " + text);
    return *doc;
  }

  /// The verdict of the artifact's only record.
  std::string only_verdict() const {
    const core::JsonValue doc = artifact();
    const auto& records = doc.at("records").array();
    if (records.size() != 1) throw std::runtime_error("want one record");
    return records[0].at("verdict").string();
  }

  std::ostringstream log_;
  std::string out_ = ::testing::TempDir() + "bench_report_" +
                     ::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name() +
                     ".json";

 private:
  std::vector<std::string> args_;
  std::vector<char*> argv_;
};

TEST_F(ReportTest, LowerIsBetterPassesStrictlyBelowTheGate) {
  Report below = make();
  below.gate("t", "ns", 1.5, Better::kLower, 2.0);
  EXPECT_EQ(below.finish(log_), 0);
  EXPECT_EQ(only_verdict(), "pass");

  Report above = make();
  above.gate("t", "ns", 2.5, Better::kLower, 2.0);
  EXPECT_EQ(above.finish(log_), 1);
  EXPECT_EQ(only_verdict(), "fail");

  Report at = make();
  at.gate("t", "ns", 2.0, Better::kLower, 2.0);
  EXPECT_EQ(at.finish(log_), 1);
  EXPECT_EQ(only_verdict(), "fail");
}

TEST_F(ReportTest, HigherIsBetterPassesAtOrAboveTheGate) {
  Report above = make();
  above.gate("s", "x", 6.0, Better::kHigher, 5.0);
  EXPECT_EQ(above.finish(log_), 0);
  EXPECT_EQ(only_verdict(), "pass");

  Report below = make();
  below.gate("s", "x", 4.0, Better::kHigher, 5.0);
  EXPECT_EQ(below.finish(log_), 1);
  EXPECT_EQ(only_verdict(), "fail");

  Report at = make();
  at.gate("s", "x", 5.0, Better::kHigher, 5.0);
  EXPECT_EQ(at.finish(log_), 0);
  EXPECT_EQ(only_verdict(), "pass");
}

TEST_F(ReportTest, NanFailsEitherGate) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const Better better : {Better::kLower, Better::kHigher}) {
    Report report = make();
    report.gate("n", "ns", nan, better, 1.0);
    EXPECT_EQ(report.finish(log_), 1);
    EXPECT_EQ(only_verdict(), "fail");
    EXPECT_TRUE(artifact().at("records").array()[0].at("value").is_null());
  }
}

TEST_F(ReportTest, AFailedCheckFailsTheRun) {
  Report report = make();
  report.check("reproducible", true);
  report.check("balanced", false);
  EXPECT_EQ(report.finish(log_), 1);
  const core::JsonValue doc = artifact();
  EXPECT_EQ(doc.at("verdict").string(), "fail");
  const auto& records = doc.at("records").array();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].at("unit").string(), "bool");
  EXPECT_EQ(records[0].at("value").number(), 1.0);
  EXPECT_EQ(records[0].at("gate").number(), 1.0);
  EXPECT_EQ(records[0].at("verdict").string(), "pass");
  EXPECT_EQ(records[1].at("value").number(), 0.0);
  EXPECT_EQ(records[1].at("verdict").string(), "fail");
}

TEST_F(ReportTest, SkipsAndUngatedRecordsDoNotFailTheRun) {
  Report report = make();
  report.skip("speedup", "x", 1.1, Better::kHigher, "only 2 core(s)");
  report.measure("serial", "s", 0.25, Better::kLower);
  EXPECT_EQ(report.finish(log_), 0);
  const core::JsonValue doc = artifact();
  EXPECT_EQ(doc.at("verdict").string(), "pass");
  const auto& records = doc.at("records").array();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].at("verdict").string(), "skipped: only 2 core(s)");
  EXPECT_TRUE(records[0].at("gate").is_null());
  EXPECT_EQ(records[1].at("verdict").string(), "report");
  EXPECT_TRUE(records[1].at("gate").is_null());
  EXPECT_NE(log_.str().find("skipped: only 2 core(s)"), std::string::npos);
}

TEST_F(ReportTest, ArtifactReadsBackEveryRecordAndParam) {
  Report report = make();
  report.param("passes", 25);
  report.param("checksum", 59104);
  report.measure("baseline", "ns", 0.5, Better::kLower);
  report.gate("enabled", "ns", 51.25, Better::kLower, 100.0);
  report.gate("throughput", "1/s", 87000.0, Better::kHigher, 2000.0);
  EXPECT_EQ(report.finish(log_), 0);

  const core::JsonValue doc = artifact();
  std::vector<std::string> keys;
  for (const auto& [key, value] : doc.object()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"bench", "context", "params",
                                            "records", "verdict"}));
  EXPECT_EQ(doc.at("bench").string(), "unit");
  EXPECT_EQ(doc.at("verdict").string(), "pass");
  const core::JsonValue& context = doc.at("context");
  EXPECT_EQ(context.at("build_type").string(), REBOOTING_BUILD_TYPE);
  EXPECT_EQ(context.at("compiler").string(), REBOOTING_COMPILER);
  EXPECT_EQ(context.at("cores").number(), cores());

  const auto& params = doc.at("params").object();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].first, "passes");
  EXPECT_EQ(params[0].second.number(), 25.0);
  EXPECT_EQ(params[1].first, "checksum");
  EXPECT_EQ(params[1].second.number(), 59104.0);

  struct Want {
    const char* metric;
    const char* unit;
    double value;
    const char* better;
    double gate;  // NaN: ungated
    const char* verdict;
  };
  const double none = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Want> want = {
      {"baseline", "ns", 0.5, "lower", none, "report"},
      {"enabled", "ns", 51.25, "lower", 100.0, "pass"},
      {"throughput", "1/s", 87000.0, "higher", 2000.0, "pass"}};
  const auto& records = doc.at("records").array();
  ASSERT_EQ(records.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(want[i].metric);
    const core::JsonValue& r = records[i];
    EXPECT_EQ(r.object().size(), 6u);
    EXPECT_EQ(r.at("metric").string(), want[i].metric);
    EXPECT_EQ(r.at("unit").string(), want[i].unit);
    EXPECT_EQ(r.at("value").number(), want[i].value);
    EXPECT_EQ(r.at("better").string(), want[i].better);
    if (std::isnan(want[i].gate))
      EXPECT_TRUE(r.at("gate").is_null());
    else
      EXPECT_EQ(r.at("gate").number(), want[i].gate);
    EXPECT_EQ(r.at("verdict").string(), want[i].verdict);
  }
  // The same records are printed as one table.
  for (const char* metric : {"baseline", "enabled", "throughput"})
    EXPECT_NE(log_.str().find(metric), std::string::npos);
  EXPECT_NE(log_.str().find("wrote " + out_), std::string::npos);
}

TEST(Report, DefaultArtifactSitsNextToTheBinary) {
  const std::string dir = ::testing::TempDir();
  std::string self = dir + "bench_binary";
  char* argv[] = {self.data()};
  Report report("unit", "BENCH_default_path.json", 1, argv);
  report.check("ok", true);
  std::ostringstream log;
  EXPECT_EQ(report.finish(log), 0);
  const std::string path = dir + "BENCH_default_path.json";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << log.str();
  std::remove(path.c_str());
}

TEST(Report, UnwritableArtifactFailsTheRun) {
  std::string self = "bench";
  std::string flag = "--out";
  std::string path = ::testing::TempDir() + "no/such/dir/BENCH_x.json";
  char* argv[] = {self.data(), flag.data(), path.data()};
  Report report("unit", "BENCH_x.json", 3, argv);
  report.check("ok", true);
  std::ostringstream log;
  EXPECT_EQ(report.finish(log), 1);
}

TEST(MinPassNs, CallsTheBodyPerPassAndReturnsTheFastestPass) {
  std::size_t calls = 0;
  std::size_t index_sum = 0;
  const double ns = min_pass_ns(3, 100, [&](std::size_t i) {
    ++calls;
    index_sum += i;
  });
  EXPECT_EQ(calls, 300u);
  EXPECT_EQ(index_sum, 3u * (99u * 100u / 2u));
  EXPECT_TRUE(std::isfinite(ns));
  EXPECT_GE(ns, 0.0);
}

}  // namespace
}  // namespace rebooting::bench
