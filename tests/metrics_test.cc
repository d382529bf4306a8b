/**
 * @file
 * Metrics subsystem tests: registry-of-views semantics, histogram
 * bucketing, interval-sampler boundary behaviour, JSONL/trace
 * serialization, and the end-to-end invariants the observability layer
 * promises — per-PB series and the read-latency histogram consistent
 * with the run aggregates, and metrics-on runs byte-identical (modulo
 * the metrics block) to metrics-off runs, including against the
 * committed golden snapshots.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "sim/result_json.hh"
#include "sim/runner.hh"

using namespace nuat;

namespace {

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/** Value of `"key":<number>` inside a JSON-ish line; asserts presence. */
double
extractNumber(const std::string &json, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t pos = json.find(needle);
    EXPECT_NE(pos, std::string::npos) << "key " << key << " not found";
    if (pos == std::string::npos)
        return 0.0;
    return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

/** Sum of every `"<prefix>...":<number>` pair in @p json. */
double
sumMatching(const std::string &json, const std::string &prefix)
{
    double sum = 0.0;
    const std::string needle = "\"" + prefix;
    std::size_t pos = 0;
    while ((pos = json.find(needle, pos)) != std::string::npos) {
        const std::size_t close = json.find('"', pos + 1);
        EXPECT_NE(close, std::string::npos);
        EXPECT_EQ(json[close + 1], ':');
        sum += std::strtod(json.c_str() + close + 2, nullptr);
        pos = close;
    }
    return sum;
}

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

/** A histogram object of a JSONL record, as serialized. */
struct SeriesHistogram
{
    double lo = 0.0;
    double width = 0.0;
    std::vector<double> buckets;
    double underflow = 0.0;
    double count = 0.0;
    double sum = 0.0;

    /** Histogram::percentile's bucket interpolation over the
     *  serialized counts; NaN when @p fraction lands in the overflow,
     *  which the series cannot place. */
    double
    percentile(double fraction) const
    {
        const double target = fraction * count;
        double seen = underflow;
        if (target <= seen)
            return lo;
        for (std::size_t i = 0; i < buckets.size(); ++i) {
            const double next = seen + buckets[i];
            if (target <= next && buckets[i] > 0.0) {
                const double within = (target - seen) / buckets[i];
                return lo + (static_cast<double>(i) + within) * width;
            }
            seen = next;
        }
        return std::nan("");
    }
};

/** Parse histogram @p name out of JSONL record @p json. */
SeriesHistogram
parseHistogram(const std::string &json, const std::string &name)
{
    const std::size_t at = json.find("\"" + name + "\":{");
    EXPECT_NE(at, std::string::npos) << "histogram " << name;
    if (at == std::string::npos)
        return {};
    const std::string obj = json.substr(at, json.find('}', at) - at);
    SeriesHistogram h;
    h.lo = extractNumber(obj, "lo");
    h.width = extractNumber(obj, "width");
    h.underflow = extractNumber(obj, "underflow");
    h.count = extractNumber(obj, "count");
    h.sum = extractNumber(obj, "sum");
    const std::size_t open = obj.find('[');
    std::istringstream in(obj.substr(open + 1, obj.find(']') - open - 1));
    for (std::string v; std::getline(in, v, ',');)
        h.buckets.push_back(std::strtod(v.c_str(), nullptr));
    return h;
}

} // namespace

TEST(MetricRegistryTest, ViewsAreReadAtEveryRecord)
{
    MetricRegistry reg;
    std::uint64_t reads = 0;
    int depth_reads = 0;
    Histogram lat(0.0, 8.0, 4);
    reg.counter("reads", [&] { return reads; }, "reads issued");
    reg.gauge("depth", [&] {
        ++depth_reads;
        return static_cast<double>(depth_reads) * 2.0;
    });
    reg.histogram("lat", lat);

    ASSERT_EQ(reg.entries().size(), 3u);
    EXPECT_EQ(reg.entries()[0].name, "reads");
    EXPECT_EQ(reg.entries()[0].description, "reads issued");
    EXPECT_EQ(reg.entries()[1].name, "depth");
    EXPECT_EQ(reg.entries()[2].name, "lat");
    EXPECT_EQ(depth_reads, 0); // registering reads nothing

    // A name registers once: no get-or-create sharing.
    setPanicThrows(true);
    EXPECT_THROW(reg.counter("reads", [] { return std::uint64_t{0}; }),
                 std::logic_error);
    setPanicThrows(false);
    EXPECT_EQ(reg.entries().size(), 3u);

    std::ostringstream out;
    IntervalSampler sampler(reg, 10, &out);
    reads = 3;
    lat.sample(1.0);
    sampler.advanceTo(20);
    EXPECT_EQ(depth_reads, 2);
    // A fast-forward jump emits one record per boundary (30, 40, 50),
    // each reading every view afresh.
    reads = 7;
    lat.sample(9.0);
    sampler.advanceTo(55);
    EXPECT_EQ(depth_reads, 5);

    const auto lines = [&] {
        std::vector<std::string> v;
        std::istringstream in(out.str());
        for (std::string l; std::getline(in, l);)
            v.push_back(l);
        return v;
    }();
    ASSERT_EQ(lines.size(), 5u);
    const double want_reads[] = {3, 3, 7, 7, 7};
    const double want_count[] = {1, 1, 2, 2, 2};
    for (std::size_t i = 0; i < lines.size(); ++i) {
        EXPECT_EQ(extractNumber(lines[i], "reads"), want_reads[i]) << i;
        EXPECT_EQ(extractNumber(lines[i], "depth"),
                  2.0 * static_cast<double>(i + 1))
            << i;
        EXPECT_EQ(extractNumber(lines[i], "count"), want_count[i]) << i;
    }
}

TEST(MetricRegistryTest, HistogramBucketing)
{
    Histogram h(0.0, 10.0, 4);
    h.sample(-0.5);  // underflow
    h.sample(0.0);   // bucket 0
    h.sample(9.99);  // bucket 0
    h.sample(10.0);  // bucket 1
    h.sample(35.0);  // bucket 3
    h.sample(40.0);  // overflow (first value past the last bucket)
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 0u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.summary().count(), 6u);
}

TEST(MetricRegistryTest, SampleNMatchesRepeatedSample)
{
    Histogram a(0.0, 4.0, 8);
    Histogram b(0.0, 4.0, 8);
    for (int i = 0; i < 1000; ++i)
        a.sample(6.5);
    a.sample(-1.0);
    a.sample(100.0);
    b.sampleN(6.5, 1000);
    b.sampleN(-1.0, 1);
    b.sampleN(100.0, 1);
    b.sampleN(3.0, 0); // must be a no-op
    for (unsigned i = 0; i < a.buckets(); ++i)
        EXPECT_EQ(a.bucketCount(i), b.bucketCount(i)) << i;
    EXPECT_EQ(a.underflow(), b.underflow());
    EXPECT_EQ(a.overflow(), b.overflow());
    EXPECT_EQ(a.summary().count(), b.summary().count());
    EXPECT_DOUBLE_EQ(a.summary().sum(), b.summary().sum());
    EXPECT_DOUBLE_EQ(a.summary().min(), b.summary().min());
    EXPECT_DOUBLE_EQ(a.summary().max(), b.summary().max());
}

TEST(IntervalSamplerTest, EmitsOneRecordPerBoundary)
{
    MetricRegistry reg;
    std::uint64_t ticks = 0;
    reg.counter("ticks", [&] { return ticks; });
    std::ostringstream out;
    IntervalSampler sampler(reg, 100, &out);

    sampler.advanceTo(99);
    EXPECT_EQ(sampler.samples(), 0u);

    ++ticks;
    sampler.advanceTo(100); // boundary exactly reached
    EXPECT_EQ(sampler.samples(), 1u);

    sampler.advanceTo(250); // crosses 200 only
    EXPECT_EQ(sampler.samples(), 2u);

    // A fast-forward style jump crosses several boundaries at once:
    // one record per boundary, all stamped with the boundary cycle.
    sampler.advanceTo(650);
    EXPECT_EQ(sampler.samples(), 6u);

    sampler.finish(650); // between boundaries: trailing partial record
    EXPECT_EQ(sampler.samples(), 7u);
    sampler.finish(650); // idempotent
    EXPECT_EQ(sampler.samples(), 7u);

    std::istringstream lines(out.str());
    std::string line;
    const std::uint64_t want_t[] = {100, 200, 300, 400, 500, 600, 650};
    for (std::size_t i = 0; i < 7; ++i) {
        ASSERT_TRUE(std::getline(lines, line)) << i;
        EXPECT_EQ(extractNumber(line, "t"),
                  static_cast<double>(want_t[i]));
        EXPECT_EQ(extractNumber(line, "sample"),
                  static_cast<double>(i + 1));
        EXPECT_EQ(extractNumber(line, "ticks"), 1.0);
    }
    EXPECT_FALSE(std::getline(lines, line));
}

TEST(IntervalSamplerTest, FinishOnBoundaryAddsNoExtraRecord)
{
    MetricRegistry reg;
    reg.counter("c", [] { return std::uint64_t{0}; });
    std::ostringstream out;
    IntervalSampler sampler(reg, 100, &out);
    sampler.finish(300);
    EXPECT_EQ(sampler.samples(), 3u); // 100, 200, 300 — no trailing
}

TEST(IntervalSamplerTest, RunShorterThanOneIntervalStillReports)
{
    MetricRegistry reg;
    reg.counter("c", [] { return std::uint64_t{0}; });
    std::ostringstream out;
    IntervalSampler sampler(reg, 1000, &out);
    sampler.advanceTo(50);
    EXPECT_EQ(sampler.samples(), 0u);
    sampler.finish(50);
    EXPECT_EQ(sampler.samples(), 1u);
    EXPECT_EQ(extractNumber(out.str(), "t"), 50.0);
}

TEST(IntervalSamplerTest, JsonlRecordRoundTrips)
{
    MetricRegistry reg;
    reg.counter("ops", [] { return std::uint64_t{42}; });
    reg.gauge("ratio", [] { return 0.375; }); // exact, %.17g safe
    Histogram h(0.0, 2.0, 3);
    reg.histogram("lat", h);
    h.sample(1.0);
    h.sample(3.0);
    h.sample(99.0);

    std::ostringstream out;
    IntervalSampler sampler(reg, 10, &out);
    sampler.advanceTo(10);

    const std::string line = out.str();
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.substr(line.size() - 2), "}\n");
    EXPECT_NE(line.find("\"counters\":{"), std::string::npos);
    EXPECT_NE(line.find("\"gauges\":{"), std::string::npos);
    EXPECT_NE(line.find("\"histograms\":{"), std::string::npos);
    EXPECT_EQ(extractNumber(line, "ops"), 42.0);
    EXPECT_DOUBLE_EQ(extractNumber(line, "ratio"), 0.375);
    EXPECT_NE(line.find("\"lat\":{\"lo\":0,\"width\":2,"
                        "\"buckets\":[1,1,0],\"underflow\":0,"
                        "\"overflow\":1,\"count\":3,\"sum\":103}"),
              std::string::npos)
        << line;
}

TEST(TraceEventSinkTest, EmitsCounterEventArray)
{
    std::ostringstream out;
    TraceEventSink sink(out);
    sink.counterEvent("ops", 100, 5.0);
    sink.counterEvent("ops", 200, 9.0);
    sink.finish();
    sink.finish(); // idempotent
    const std::string s = out.str();
    EXPECT_EQ(s.substr(0, 2), "[\n");
    EXPECT_EQ(s.substr(s.size() - 4), "}\n]\n") << s;
    EXPECT_NE(
        s.find("{\"name\":\"ops\",\"ph\":\"C\",\"ts\":100,\"pid\":0,"
               "\"tid\":0,\"args\":{\"v\":5}}"),
        std::string::npos)
        << s;
}

namespace {

ExperimentConfig
smallNuatConfig()
{
    ExperimentConfig cfg;
    cfg.workloads = {"ferret"};
    cfg.memOpsPerCore = 4000;
    cfg.seed = 11;
    cfg.scheduler = SchedulerKind::kNuat;
    return cfg;
}

} // namespace

TEST(MetricsEndToEndTest, SeriesIsConsistentWithRunAggregates)
{
    ExperimentConfig cfg = smallNuatConfig();
    cfg.metricsOutPath = tmpPath("metrics_e2e.jsonl");
    cfg.metricsInterval = 5000;
    const RunResult r = runExperiment(cfg);

    EXPECT_TRUE(r.metricsEnabled);
    EXPECT_EQ(r.metricsIntervalCycles, 5000u);
    const auto lines = readLines(cfg.metricsOutPath);
    ASSERT_GT(lines.size(), 2u);
    EXPECT_EQ(r.metricsSamples, lines.size());

    // Cumulative records: the final one must agree with the aggregate
    // RunResult, per metric family.
    const std::string &last = lines.back();
    EXPECT_EQ(extractNumber(last, "t"),
              static_cast<double>(r.memCycles));
    EXPECT_EQ(sumMatching(last, "sched0.act_pb"),
              static_cast<double>(r.dev.acts));
    EXPECT_EQ(sumMatching(last, "sched0.col_pb"),
              static_cast<double>(r.dev.reads + r.dev.writes));
    EXPECT_EQ(extractNumber(last, "ctrl0.reads_completed"),
              static_cast<double>(r.ctrl.readsCompleted));
    EXPECT_EQ(extractNumber(last, "ctrl0.cmd_ref"),
              static_cast<double>(r.dev.refreshes));
    EXPECT_EQ(extractNumber(last, "sched0.ppm_open") +
                  extractNumber(last, "sched0.ppm_close"),
              static_cast<double>(r.ppmOpen + r.ppmClose));

    // The per-PB hit-rate gauges recompute eq. (3) per PB; the
    // col/act-weighted aggregate must reproduce the run's hitRateEq3.
    const double cols = sumMatching(last, "sched0.col_pb");
    const double acts = sumMatching(last, "sched0.act_pb");
    ASSERT_GT(cols, 0.0);
    EXPECT_NEAR((cols - acts) / cols, r.hitRateEq3, 1e-12);
    for (unsigned pb = 0; pb < cfg.numPb; ++pb) {
        const double hr = extractNumber(
            last, "sched0.hit_rate_pb" + std::to_string(pb));
        EXPECT_GE(hr, 0.0) << pb;
        EXPECT_LE(hr, 1.0) << pb;
    }

    const double bus = extractNumber(last, "sys.bus_utilization");
    EXPECT_GT(bus, 0.0);
    EXPECT_LT(bus, 1.0);

    // Counters are monotonic across the series.
    double prev = -1.0;
    for (const auto &line : lines) {
        const double v = extractNumber(line, "ctrl0.cmd_act");
        EXPECT_GE(v, prev);
        prev = v;
    }
}

TEST(MetricsEndToEndTest, SeriesHistogramMatchesRunLatency)
{
    // Eight cores on one channel: deep queues push the tail well past
    // 512 cycles, so a histogram that stops short of the ledger's
    // range would drop the p95/p99 into its overflow.
    ExperimentConfig cfg;
    cfg.workloads = {"libq", "stream", "MT-fluid", "ferret",
                     "face", "comm3",  "fluid",    "leslie"};
    cfg.memOpsPerCore = 1500;
    cfg.seed = 5;
    cfg.metricsOutPath = tmpPath("metrics_latency.jsonl");
    cfg.metricsInterval = 10000;
    const RunResult r = runExperiment(cfg);
    ASSERT_GT(r.readLatencyPercentile(0.95), 512.0);

    const auto lines = readLines(cfg.metricsOutPath);
    ASSERT_FALSE(lines.empty());
    const SeriesHistogram h =
        parseHistogram(lines.back(), "ctrl0.read_latency");
    EXPECT_EQ(h.count, static_cast<double>(r.ctrl.readsCompleted));
    EXPECT_EQ(h.sum, r.ctrl.readLatencySum);
    EXPECT_DOUBLE_EQ(h.percentile(0.95), r.readLatencyPercentile(0.95));
    EXPECT_DOUBLE_EQ(h.percentile(0.99), r.readLatencyPercentile(0.99));
}

TEST(MetricsEndToEndTest, MetricsDoNotPerturbTheSimulation)
{
    const ExperimentConfig cfg_off = smallNuatConfig();
    const RunResult off = runExperiment(cfg_off);

    ExperimentConfig cfg_on = smallNuatConfig();
    cfg_on.metricsOutPath = tmpPath("metrics_identity.jsonl");
    cfg_on.traceEventsPath = tmpPath("metrics_identity_trace.json");
    RunResult on = runExperiment(cfg_on);
    EXPECT_TRUE(on.metricsEnabled);

    // Clearing the three metrics-bookkeeping fields must make the
    // records byte-identical: instrumentation is observation-only.
    on.metricsEnabled = false;
    on.metricsSamples = 0;
    on.metricsIntervalCycles = 0;
    EXPECT_EQ(runResultToJson(on), runResultToJson(off));
}

TEST(MetricsEndToEndTest, MetricsOnRunMatchesCommittedGoldenSnapshot)
{
    // The ferret/NUAT golden cell, re-run with metrics attached: after
    // clearing the metrics block the JSON must equal the committed
    // snapshot byte for byte — metrics can never shift a golden run.
    ExperimentConfig cfg;
    cfg.workloads = {"ferret"};
    cfg.memOpsPerCore = 2500;
    cfg.seed = 11;
    cfg.audit = true;
    cfg.scheduler = SchedulerKind::kNuat;
    cfg.metricsOutPath = tmpPath("metrics_golden.jsonl");
    RunResult r = runExperiment(cfg);
    EXPECT_TRUE(r.metricsEnabled);
    r.metricsEnabled = false;
    r.metricsSamples = 0;
    r.metricsIntervalCycles = 0;

    std::ifstream in(std::string(NUAT_GOLDEN_DIR) +
                     "/ferret_nuat.json");
    ASSERT_TRUE(in) << "missing golden snapshot";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(runResultToJson(r), expected.str());
}
