#include "telemetry/telemetry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/accelerator.h"
#include "core/table.h"
#include "scheduler/scheduler.h"

namespace rebooting::telemetry {
namespace {

/// Every test starts from a clean, enabled telemetry state and leaves the
/// process-wide instance disabled and empty for the next suite.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Telemetry::instance().reset();
    Telemetry::set_enabled(true);
  }
  void TearDown() override {
    Telemetry::set_enabled(false);
    Telemetry::instance().reset();
  }
};

// --- Minimal structural JSON checker (writer-side repo: no parser to reuse).
// Validates brace/bracket balance outside strings and legal string escapes —
// enough to catch unbalanced emission and broken quoting.
bool json_well_formed(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (const char ch : s) {
    if (in_string) {
      if (escaped) escaped = false;
      else if (ch == '\\') escaped = true;
      else if (ch == '"') in_string = false;
      else if (static_cast<unsigned char>(ch) < 0x20) return false;
      continue;
    }
    switch (ch) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != ch) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

TEST_F(TelemetryTest, SpanNestingBuildsTree) {
  {
    TELEM_SPAN("outer");
    {
      TELEM_SPAN("inner");
    }
    {
      TELEM_SPAN("inner");
    }
  }
  const SpanNode& root = Telemetry::instance().root();
  const SpanNode* outer = root.find("outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->stats().count, 1u);
  const SpanNode* inner = outer->find("inner");
  ASSERT_NE(inner, nullptr);
  // Two same-named sibling spans aggregate into one node.
  EXPECT_EQ(inner->stats().count, 2u);
  EXPECT_EQ(outer->children().size(), 1u);
  // "inner" never appears at top level.
  EXPECT_EQ(root.find("inner"), nullptr);
}

TEST_F(TelemetryTest, SpanStatsAggregateMinMaxTotal) {
  for (int i = 0; i < 5; ++i) {
    TELEM_SPAN("work");
  }
  const SpanNode* node = Telemetry::instance().root().find("work");
  ASSERT_NE(node, nullptr);
  const SpanStats& s = node->stats();
  EXPECT_EQ(s.count, 5u);
  EXPECT_GE(s.total_seconds, 0.0);
  EXPECT_LE(s.min_seconds, s.max_seconds);
  EXPECT_GE(s.total_seconds, s.max_seconds);
  EXPECT_LE(s.total_seconds, 5.0 * s.max_seconds + 1e-12);
}

TEST_F(TelemetryTest, SiblingsKeepEntryOrder) {
  {
    TELEM_SPAN("first");
  }
  {
    TELEM_SPAN("second");
  }
  const auto& children = Telemetry::instance().root().children();
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(children[0]->name(), "first");
  EXPECT_EQ(children[1]->name(), "second");
}

TEST_F(TelemetryTest, DisabledModeRecordsNothing) {
  Telemetry::set_enabled(false);
  {
    TELEM_SPAN("ghost");
    TELEM_COUNT("ghost.counter");
    TELEM_GAUGE("ghost.gauge", 1.0);
    TELEM_RECORD("ghost.histogram", 1.0);
  }
  auto& telem = Telemetry::instance();
  EXPECT_TRUE(telem.root().children().empty());
  EXPECT_EQ(telem.metrics().counter("ghost.counter"), 0.0);
  EXPECT_FALSE(telem.metrics().gauge("ghost.gauge").has_value());
  EXPECT_EQ(telem.metrics().histogram("ghost.histogram").count, 0u);
}

TEST_F(TelemetryTest, EnableMidSpanDoesNotCorruptTree) {
  Telemetry::set_enabled(false);
  {
    TELEM_SPAN("started-disabled");  // no-op guard
    Telemetry::set_enabled(true);
    TELEM_SPAN("started-enabled");
  }
  const auto& root = Telemetry::instance().root();
  EXPECT_EQ(root.find("started-disabled"), nullptr);
  ASSERT_NE(root.find("started-enabled"), nullptr);
  EXPECT_EQ(root.find("started-enabled")->stats().count, 1u);
}

TEST_F(TelemetryTest, CountersAccumulate) {
  TELEM_COUNT("hits");
  TELEM_COUNT("hits", 2.5);
  TELEM_COUNT("other", 7.0);
  auto& metrics = Telemetry::instance().metrics();
  EXPECT_DOUBLE_EQ(metrics.counter("hits"), 3.5);
  EXPECT_DOUBLE_EQ(metrics.counter("other"), 7.0);
  EXPECT_DOUBLE_EQ(metrics.counter("never"), 0.0);
}

TEST_F(TelemetryTest, GaugesOverwrite) {
  TELEM_GAUGE("level", 1.0);
  TELEM_GAUGE("level", -4.0);
  const auto g = Telemetry::instance().metrics().gauge("level");
  ASSERT_TRUE(g.has_value());
  EXPECT_DOUBLE_EQ(*g, -4.0);
}

TEST_F(TelemetryTest, HistogramStatsAndBuckets) {
  auto& metrics = Telemetry::instance().metrics();
  const double values[] = {0.001, 0.002, 0.5, 3.0, 1000.0};
  for (const double v : values) metrics.record("lat", v);
  const HistogramSnapshot h = metrics.histogram("lat");
  EXPECT_EQ(h.count, 5u);
  EXPECT_DOUBLE_EQ(h.sum, 1003.503);
  EXPECT_DOUBLE_EQ(h.min, 0.001);
  EXPECT_DOUBLE_EQ(h.max, 1000.0);
  EXPECT_NEAR(h.mean(), 1003.503 / 5.0, 1e-12);

  std::size_t bucket_total = 0;
  Real prev_bound = -1.0;
  for (const auto& [bound, count] : h.buckets) {
    EXPECT_GT(bound, prev_bound);  // bounds strictly increasing
    prev_bound = bound;
    bucket_total += count;
  }
  EXPECT_EQ(bucket_total, 5u);

  // Quantiles stay inside the recorded range and are monotone in q.
  const Real p50 = h.quantile(0.5);
  const Real p99 = h.quantile(0.99);
  EXPECT_GE(p50, h.min);
  EXPECT_LE(p99, h.max);
  EXPECT_LE(p50, p99);
}

TEST_F(TelemetryTest, QuantileZeroReturnsExactMin) {
  auto& metrics = Telemetry::instance().metrics();
  // Values span several buckets so q = 0 cannot be satisfied by bucket
  // bounds alone — it must return the recorded minimum exactly.
  for (const double v : {0.003, 0.07, 1.5, 900.0}) metrics.record("lat", v);
  const HistogramSnapshot h = metrics.histogram("lat");
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.003);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 900.0);
}

TEST_F(TelemetryTest, QuantileSingleBucketInterpolatesExactly) {
  auto& metrics = Telemetry::instance().metrics();
  // 1.1 and 1.9 share the (1, 2] log2 bucket: a bound-based estimate would
  // answer 2.0 (the bound, clamped to max -> 1.9) for every q. The
  // single-bucket path interpolates [min, max] instead.
  metrics.record("lat", 1.1);
  metrics.record("lat", 1.9);
  const HistogramSnapshot h = metrics.histogram("lat");
  ASSERT_EQ(h.buckets.size(), 1u);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.1);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.9);

  // Degenerate single-value histogram: every quantile is that value.
  metrics.record("point", 2.0);
  const HistogramSnapshot p = metrics.histogram("point");
  EXPECT_DOUBLE_EQ(p.quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.99), 2.0);
}

TEST_F(TelemetryTest, HistogramBucketIndexEdges) {
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(-5.0), 0u);
  // A value equal to a power of two lands in the bucket it bounds.
  const std::size_t i1 = Histogram::bucket_index(1.0);
  EXPECT_DOUBLE_EQ(Histogram::bucket_bound(i1), 1.0);
  // Values beyond the covered range clamp into the edge buckets.
  EXPECT_EQ(Histogram::bucket_index(1e-300), 1u);
  EXPECT_EQ(Histogram::bucket_index(1e300), Histogram::kBuckets - 1);
}

TEST_F(TelemetryTest, JsonExportRoundTrip) {
  {
    TELEM_SPAN("engine.phase\"quoted\"");  // exercises string escaping
    TELEM_COUNT("engine.ops", 12.0);
    TELEM_GAUGE("engine.level", 0.5);
    TELEM_RECORD("engine.lat", 2.0);
  }
  const std::string json = Telemetry::instance().to_json();
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"engine.phase\\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"engine.ops\":12"), std::string::npos);
  EXPECT_NE(json.find("\"engine.level\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  // Quantile columns: p50/p90/p99 all present per histogram.
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p90\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);

  // File round-trip: write_json produces the same document on disk.
  const std::string path =
      ::testing::TempDir() + "rebooting_telemetry_test.json";
  ASSERT_TRUE(Telemetry::instance().write_json(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string from_disk = buf.str();
  if (!from_disk.empty() && from_disk.back() == '\n') from_disk.pop_back();
  EXPECT_EQ(from_disk, json);
  std::remove(path.c_str());
}

TEST_F(TelemetryTest, ReportRendersSpansAndMetrics) {
  {
    TELEM_SPAN("alpha");
    TELEM_SPAN("beta");
    TELEM_COUNT("alpha.ops", 3.0);
    TELEM_RECORD("alpha.lat", 1.5);
  }
  const std::string report = Telemetry::instance().report();
  EXPECT_NE(report.find("alpha"), std::string::npos);
  EXPECT_NE(report.find("  beta"), std::string::npos);  // indented child
  EXPECT_NE(report.find("alpha.ops"), std::string::npos);
  EXPECT_NE(report.find("Histograms"), std::string::npos);
  EXPECT_NE(report.find("p90"), std::string::npos);  // quantile column
}

TEST_F(TelemetryTest, ResetClearsEverything) {
  {
    TELEM_SPAN("transient");
    TELEM_COUNT("transient.ops");
  }
  auto& telem = Telemetry::instance();
  ASSERT_FALSE(telem.root().children().empty());
  telem.reset();
  EXPECT_TRUE(telem.root().children().empty());
  EXPECT_EQ(telem.metrics().counter("transient.ops"), 0.0);
}

TEST_F(TelemetryTest, ThreadsBuildIndependentBranches) {
  constexpr int kThreads = 4;
  constexpr int kIters = 100;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kIters; ++i) {
        TELEM_SPAN("worker");
        TELEM_SPAN("task");
        TELEM_COUNT("work.items");
      }
    });
  }
  for (auto& w : workers) w.join();
  const SpanNode* worker = Telemetry::instance().root().find("worker");
  ASSERT_NE(worker, nullptr);
  EXPECT_EQ(worker->stats().count,
            static_cast<std::size_t>(kThreads * kIters));
  const SpanNode* task = worker->find("task");
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(task->stats().count, static_cast<std::size_t>(kThreads * kIters));
  EXPECT_DOUBLE_EQ(Telemetry::instance().metrics().counter("work.items"),
                   static_cast<Real>(kThreads * kIters));
}

TEST_F(TelemetryTest, SchedulerMergesJobMetrics) {
  {
    sched::Scheduler scheduler;
    scheduler.add_pool(core::AcceleratorKind::kClassicalCpu, 1,
                       core::CpuAccelerator::factory());
    for (int i = 1; i <= 2; ++i) {
      core::Job job;
      job.name = "job-" + std::to_string(i);
      job.kind = core::AcceleratorKind::kClassicalCpu;
      job.payload = [i] {
        core::JobResult r;
        r.ok = true;
        r.metrics["compile.gates"] = 10.0 * i;
        TELEM_SPAN("engine.inner");
        return r;
      };
      EXPECT_TRUE(scheduler.submit(std::move(job)).get().ok);
    }
  }  // joins the worker: the span tree is quiescent from here on

  auto& telem = Telemetry::instance();
  // Job metrics merged as counters, summed across jobs.
  EXPECT_DOUBLE_EQ(telem.metrics().counter("compile.gates"), 30.0);
  EXPECT_DOUBLE_EQ(telem.metrics().counter("sched.jobs"), 2.0);

  // The payload's span nests under the scheduler's per-kind span.
  const SpanNode* kind_span = telem.root().find("sched.classical-cpu");
  ASSERT_NE(kind_span, nullptr);
  EXPECT_EQ(kind_span->stats().count, 2u);
  EXPECT_NE(kind_span->find("engine.inner"), nullptr);
}

TEST_F(TelemetryTest, TableToJsonRows) {
  core::Table table({"name", "count", "value"}, 3);
  table.add_row({std::string("a,b\"c"), std::int64_t{42}, 1.5});
  table.add_row({std::string("plain"), std::int64_t{-1}, 0.25});
  const std::string json = table.to_json();
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_EQ(json.find("["), 0u);
  EXPECT_NE(json.find("\"name\":\"a,b\\\"c\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":42"), std::string::npos);
  EXPECT_NE(json.find("\"value\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"count\":-1"), std::string::npos);
}

}  // namespace
}  // namespace rebooting::telemetry
