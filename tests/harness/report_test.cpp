#include "harness/report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace caesar::harness {
namespace {

TEST(ReportTest, FormatsMilliseconds) {
  EXPECT_EQ(Table::ms(1500.0), "1.5");
  EXPECT_EQ(Table::ms(0.0), "0.0");
  EXPECT_EQ(Table::ms(123456.0), "123.5");
}

TEST(ReportTest, FormatsPercent) {
  EXPECT_EQ(Table::pct(0.5), "50.0%");
  EXPECT_EQ(Table::pct(0.123), "12.3%");
  EXPECT_EQ(Table::pct(0.0), "0.0%");
}

TEST(ReportTest, FormatsNumbersWithPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(42.0, 0), "42");
}

TEST(ReportTest, TableAlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer-name", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  // Header, rule, two rows.
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  // Column 2 entries align: find positions of "value" and "22".
  const std::size_t header_line_end = out.find('\n');
  const std::size_t col = out.find("value");
  ASSERT_LT(col, header_line_end);
  // The "22" in the last row appears at the same column offset.
  const std::size_t last_row = out.rfind("22");
  const std::size_t last_line_start = out.rfind('\n', last_row);
  EXPECT_EQ(last_row - (last_line_start + 1), col - 0);
}

TEST(ReportTest, TableHandlesShortRows) {
  Table t({"a", "b", "c"});
  t.add_row({"only-one"});
  std::ostringstream os;
  t.print(os);  // must not crash; missing cells print empty
  EXPECT_NE(os.str().find("only-one"), std::string::npos);
}

// ---------------------------------------------------------------------------
// JSON emitters
// ---------------------------------------------------------------------------

/// A fully hand-built report with easily-checkable values for the golden
/// test: two sites, one window, two samples (1ms and 3ms).
RunReport golden_report() {
  RunReport r;
  r.provenance.scenario = "golden";
  r.provenance.protocol = "Caesar";
  r.provenance.sites = {"A", "B"};
  r.provenance.seed = 7;
  r.provenance.duration = 2 * kSec;
  r.provenance.warmup = 1 * kSec;
  r.provenance.build = "test-build";

  r.completed = 2;
  r.submitted = 3;
  r.throughput_tps = 2.0;
  r.messages = 10;
  r.bytes = 1000;
  r.consistent = true;
  r.total_latency.record(1000);
  r.total_latency.record(3000);
  r.proto.fast_decisions = 2;
  r.proto.wait_time.record(500);
  r.proto.wait_time.record(1500);
  r.proto.propose_phase.record(2000);

  r.sites.push_back(SiteMetrics{"A", {}});
  r.sites[0].latency.record(1000);
  r.sites.push_back(SiteMetrics{"B", {}});
  r.sites[1].latency.record(3000);

  stats::MetricsWindow w;
  w.label = "run";
  w.begin = 1 * kSec;
  w.end = 2 * kSec;
  w.phase = -1;
  w.latency.record(1000);
  w.latency.record(3000);
  w.submitted = 3;
  w.messages = 10;
  w.bytes = 1000;
  w.proto.fast_decisions = 2;
  r.windows.push_back(w);

  r.timeline = stats::TimeSeries(1 * kSec);
  r.timeline.record(1500 * kMs);
  return r;
}

TEST(JsonReportTest, GoldenDocumentIsStable) {
  // Byte-exact golden: guards the schema. Any change here is a schema
  // change and must be deliberate.
  const char* expected =
      "{\"schema\":\"caesar-run-report/1\","
      "\"provenance\":{\"scenario\":\"golden\",\"protocol\":\"Caesar\","
      "\"seed\":7,\"duration_us\":2000000,\"warmup_us\":1000000,"
      "\"build\":\"test-build\",\"sites\":[\"A\",\"B\"]},"
      "\"totals\":{\"completed\":2,\"submitted\":3,\"throughput_tps\":2,"
      "\"messages\":10,\"bytes\":1000,\"consistent\":true,"
      "\"latency_us\":{\"count\":2,\"mean\":2000,\"min\":1000,\"max\":3000,"
      "\"p50\":1000,\"p90\":1000,\"p99\":1000},"
      "\"protocol\":{\"fast_decisions\":2,\"slow_decisions\":0,\"retries\":0,"
      "\"slow_proposals\":0,\"recoveries\":0,\"waits\":0,"
      "\"catchup_requests\":0,\"catchup_chunks\":0,"
      "\"catchup_commands\":0,\"revocations\":0,"
      "\"wal_appends\":0,\"fsyncs\":0,\"snapshots\":0,"
      "\"truncated_segments\":0,"
      "\"fast_path_fraction\":1},"
      "\"phase_latency_us\":{"
      "\"wait\":{\"count\":2,\"mean\":1000,\"min\":500,\"max\":1500,"
      "\"p50\":500,\"p90\":500,\"p95\":500,\"p99\":500,\"p999\":500},"
      "\"propose\":{\"count\":1,\"mean\":2000,\"min\":2000,\"max\":2000,"
      "\"p50\":2000,\"p90\":2000,\"p95\":2000,\"p99\":2000,\"p999\":2000},"
      "\"retry\":{\"count\":0,\"mean\":0,\"min\":0,\"max\":0,"
      "\"p50\":0,\"p90\":0,\"p95\":0,\"p99\":0,\"p999\":0},"
      "\"deliver\":{\"count\":0,\"mean\":0,\"min\":0,\"max\":0,"
      "\"p50\":0,\"p90\":0,\"p95\":0,\"p99\":0,\"p999\":0}}},"
      "\"windows\":[{\"label\":\"run\",\"begin_us\":1000000,"
      "\"end_us\":2000000,\"phase\":-1,\"completed\":2,\"submitted\":3,"
      "\"throughput_tps\":2,\"messages\":10,\"bytes\":1000,"
      "\"latency_us\":{\"count\":2,\"mean\":2000,\"min\":1000,\"max\":3000,"
      "\"p50\":1000,\"p90\":1000,\"p99\":1000},"
      "\"protocol\":{\"fast_decisions\":2,\"slow_decisions\":0,\"retries\":0,"
      "\"slow_proposals\":0,\"recoveries\":0,\"waits\":0,"
      "\"catchup_requests\":0,\"catchup_chunks\":0,"
      "\"catchup_commands\":0,\"revocations\":0,"
      "\"wal_appends\":0,\"fsyncs\":0,\"snapshots\":0,"
      "\"truncated_segments\":0,"
      "\"fast_path_fraction\":1},"
      "\"phase_latency_us\":{"
      "\"wait\":{\"count\":0,\"mean\":0,\"min\":0,\"max\":0,"
      "\"p50\":0,\"p90\":0,\"p95\":0,\"p99\":0,\"p999\":0},"
      "\"propose\":{\"count\":0,\"mean\":0,\"min\":0,\"max\":0,"
      "\"p50\":0,\"p90\":0,\"p95\":0,\"p99\":0,\"p999\":0},"
      "\"retry\":{\"count\":0,\"mean\":0,\"min\":0,\"max\":0,"
      "\"p50\":0,\"p90\":0,\"p95\":0,\"p99\":0,\"p999\":0},"
      "\"deliver\":{\"count\":0,\"mean\":0,\"min\":0,\"max\":0,"
      "\"p50\":0,\"p90\":0,\"p95\":0,\"p99\":0,\"p999\":0}}}],"
      "\"sites\":[{\"name\":\"A\",\"latency_us\":{\"count\":1,\"mean\":1000,"
      "\"min\":1000,\"max\":1000,\"p50\":1000,\"p90\":1000,\"p99\":1000}},"
      "{\"name\":\"B\",\"latency_us\":{\"count\":1,\"mean\":3000,"
      "\"min\":3000,\"max\":3000,\"p50\":3000,\"p90\":3000,\"p99\":3000}}],"
      "\"timeline\":{\"bucket_us\":1000000,\"rates_tps\":[0,1]},"
      "\"fd\":{\"suspicions\":0,\"retractions\":0}}";
  EXPECT_EQ(to_json(golden_report()), expected);
}

TEST(JsonReportTest, DiffSerializesNullRatioWhenUndefined) {
  RunReportDiff d;
  d.label_a = "A";
  d.label_b = "B";
  d.metrics.push_back(MetricRatio{"zero_base", 0.0, 5.0});
  d.metrics.push_back(MetricRatio{"halved", 4.0, 2.0});
  EXPECT_EQ(to_json(d),
            "{\"a\":\"A\",\"b\":\"B\",\"metrics\":["
            "{\"metric\":\"zero_base\",\"a\":0,\"b\":5,\"ratio\":null},"
            "{\"metric\":\"halved\",\"a\":4,\"b\":2,\"ratio\":0.5}]}");
}

TEST(JsonReportTest, EscapesStrings) {
  RunReport r = golden_report();
  r.provenance.scenario = "quo\"te\\back\nline";
  const std::string out = to_json(r);
  EXPECT_NE(out.find("quo\\\"te\\\\back\\nline"), std::string::npos);
}

TEST(JsonReportFileTest, ParsesJsonFlagFromArgvAndWritesDocument) {
  const std::string path =
      ::testing::TempDir() + "/caesar_report_file_test.json";
  const std::string flag = "--json=" + path;
  const char* argv_c[] = {"bench", flag.c_str()};
  JsonReportFile file("unit-bench", 2, const_cast<char**>(argv_c));
  ASSERT_TRUE(file.enabled());
  EXPECT_EQ(file.path(), path);

  file.add("r1", golden_report());
  file.add(diff(golden_report(), golden_report()));
  ASSERT_TRUE(file.write());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  EXPECT_NE(doc.find("\"schema\":\"caesar-run-report/1\""), std::string::npos);
  EXPECT_NE(doc.find("\"bench\":\"unit-bench\""), std::string::npos);
  EXPECT_NE(doc.find("\"label\":\"r1\""), std::string::npos);
  EXPECT_NE(doc.find("\"diffs\":[{"), std::string::npos);
  std::remove(path.c_str());
}

TEST(JsonReportFileTest, InertWithoutFlag) {
  const char* argv_c[] = {"bench", "--verbose"};
  JsonReportFile file("unit-bench", 2, const_cast<char**>(argv_c));
  EXPECT_FALSE(file.enabled());
  file.add("r1", golden_report());
  EXPECT_TRUE(file.write());  // no-op success, writes nothing
}

TEST(PrintReportTest, RendersSitesWindowsAndTotals) {
  RunReport r = golden_report();
  stats::MetricsWindow second = r.windows[0];
  second.label = "run2";
  r.windows.push_back(second);  // >1 window -> windows table is printed
  std::ostringstream os;
  print_report(r, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("site"), std::string::npos);
  EXPECT_NE(out.find("run2"), std::string::npos);
  EXPECT_NE(out.find("throughput: 2"), std::string::npos);
  EXPECT_NE(out.find("consistent: yes"), std::string::npos);
}

// The totals list every nonzero protocol counter under its JSON name —
// including ones a hand-picked subset used to leave out — and no zero one.
TEST(PrintReportTest, ListsEveryNonzeroCounterByJsonName) {
  RunReport r = golden_report();
  r.proto.waits = 5;
  r.proto.slow_proposals = 3;
  r.proto.revocations = 0;
  std::ostringstream os;
  print_report(r, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("fast_decisions: 2"), std::string::npos);
  EXPECT_NE(out.find("waits: 5"), std::string::npos);
  EXPECT_NE(out.find("slow_proposals: 3"), std::string::npos);
  EXPECT_EQ(out.find("revocations"), std::string::npos);
  EXPECT_EQ(out.find("slow_decisions"), std::string::npos);
}

// A run with consistency checking off has no verdict: it must not read as
// a pass in either emitter, top level or per shard.
TEST(PrintReportTest, UncheckedRunReportsNoVerdict) {
  RunReport r = golden_report();
  r.consistency_checked = false;
  r.shards.push_back(ShardMetrics{});
  r.shards[0].consistency_checked = false;
  std::ostringstream os;
  print_report(r, os);
  EXPECT_NE(os.str().find("consistent: unchecked"), std::string::npos);
  EXPECT_EQ(os.str().find("consistent: yes"), std::string::npos);
  const std::string json = to_json(r);
  EXPECT_EQ(json.find("\"consistent\":true"), std::string::npos);
  std::size_t nulls = 0;
  for (std::size_t at = json.find("\"consistent\":null");
       at != std::string::npos;
       at = json.find("\"consistent\":null", at + 1)) {
    ++nulls;
  }
  EXPECT_EQ(nulls, 2u);  // totals and the one shard
}

TEST(PrintDiffTest, RendersRatiosAndDashesForUndefined) {
  RunReportDiff d;
  d.label_a = "left";
  d.label_b = "right";
  d.metrics.push_back(MetricRatio{"m1", 2.0, 4.0});
  d.metrics.push_back(MetricRatio{"m2", 0.0, 4.0});
  std::ostringstream os;
  print_diff(d, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("left"), std::string::npos);
  EXPECT_NE(out.find("2.000x"), std::string::npos);
  EXPECT_NE(out.find("-"), std::string::npos);
}

}  // namespace
}  // namespace caesar::harness
