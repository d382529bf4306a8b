/**
 * @file
 * Golden-stats regression suite.
 *
 * Runs a small fixed workload set under every scheduler and compares
 * the full RunResult — serialized through the canonical JSON encoder —
 * byte-for-byte against snapshots in tests/golden/.  A second grid
 * pins deterministic, audited serve runs (ServeResult, `serve_*`
 * snapshots) across the chaos profiles and admission policies.  Any behavioural
 * change to the simulator (scheduling order, timing, stats accounting)
 * shows up as a diff here, so intentional changes must regenerate the
 * snapshots (tools/regen_golden.sh) and review the diff in the PR.
 * A third grid re-runs a few cells with the metrics sampler attached
 * and pins the interval series (`metrics_*.jsonl`, plus one
 * chrome://tracing file) the same way.
 *
 * Set NUAT_REGEN_GOLDEN=1 to rewrite the snapshots instead of
 * comparing (that is all regen_golden.sh does).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.hh"
#include "sim/result_json.hh"
#include "sim/runner.hh"
#include "sim/serve_runtime.hh"

using namespace nuat;

namespace {

struct GoldenCase
{
    std::string name; //!< snapshot file stem
    ExperimentConfig cfg;
};

const char *
schedulerKey(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::kFcfs:
        return "fcfs";
      case SchedulerKind::kFrFcfsOpen:
        return "frfcfs_open";
      case SchedulerKind::kFrFcfsClose:
        return "frfcfs_close";
      case SchedulerKind::kFrFcfsAdaptive:
        return "frfcfs_adaptive";
      case SchedulerKind::kNuat:
        return "nuat";
    }
    return "?";
}

/** The fixed grid: three small workload setups x all five schedulers. */
std::vector<GoldenCase>
goldenCases()
{
    const SchedulerKind kinds[] = {
        SchedulerKind::kFcfs, SchedulerKind::kFrFcfsOpen,
        SchedulerKind::kFrFcfsClose, SchedulerKind::kFrFcfsAdaptive,
        SchedulerKind::kNuat};

    std::vector<GoldenCase> cases;
    for (const SchedulerKind kind : kinds) {
        {
            ExperimentConfig cfg;
            cfg.workloads = {"libq"};
            cfg.memOpsPerCore = 2500;
            cfg.seed = 7;
            cfg.audit = true;
            cfg.scheduler = kind;
            cases.push_back(
                {std::string("libq_") + schedulerKey(kind), cfg});
        }
        {
            ExperimentConfig cfg;
            cfg.workloads = {"ferret"};
            cfg.memOpsPerCore = 2500;
            cfg.seed = 11;
            cfg.audit = true;
            cfg.scheduler = kind;
            cases.push_back(
                {std::string("ferret_") + schedulerKey(kind), cfg});
        }
        {
            ExperimentConfig cfg;
            cfg.workloads = {"comm1", "stream"};
            cfg.memOpsPerCore = 2000;
            cfg.seed = 3;
            cfg.audit = true;
            cfg.scheduler = kind;
            cases.push_back(
                {std::string("comm1_stream_") + schedulerKey(kind),
                 cfg});
        }
    }

    // Faulted cells (suffix `_fault`): pin the deterministic fault
    // schedule, the guardband ladder counters, and the "faults" JSON
    // section.  Degradation stays on, so these snapshots also encode
    // the zero-violation guarantee.  Fault-off cells above must remain
    // byte-identical no matter what happens here.
    {
        ExperimentConfig cfg;
        cfg.workloads = {"libq"};
        cfg.memOpsPerCore = 2500;
        cfg.seed = 7;
        cfg.audit = true;
        cfg.scheduler = SchedulerKind::kNuat;
        cfg.faultProfile = "stress";
        cases.push_back({"libq_nuat_stress_fault", cfg});
    }
    {
        ExperimentConfig cfg;
        cfg.workloads = {"comm1", "stream"};
        cfg.memOpsPerCore = 2000;
        cfg.seed = 3;
        cfg.audit = true;
        cfg.scheduler = SchedulerKind::kNuat;
        cfg.faultProfile = "refresh-storm";
        cases.push_back({"comm1_stream_nuat_refresh_storm_fault", cfg});
    }

    // Generation cells (suffix `_ddr4` / `_ddr5_perbank`): pin the
    // preset tables end to end — bank-group timing, the DDR5 per-bank
    // refresh schedule, and the faster clocks' stat accounting.  The
    // DDR3 cells above use the default config and must stay
    // byte-identical whatever happens to the presets.
    {
        ExperimentConfig cfg;
        cfg.applyDramGen(DramGen::kDdr4_2400);
        cfg.workloads = {"libq"};
        cfg.memOpsPerCore = 2500;
        cfg.seed = 7;
        cfg.audit = true;
        cfg.scheduler = SchedulerKind::kNuat;
        cases.push_back({"libq_nuat_ddr4", cfg});
    }
    {
        ExperimentConfig cfg;
        cfg.applyDramGen(DramGen::kDdr4_2400);
        cfg.workloads = {"ferret"};
        cfg.memOpsPerCore = 2500;
        cfg.seed = 11;
        cfg.audit = true;
        cfg.scheduler = SchedulerKind::kFrFcfsOpen;
        cases.push_back({"ferret_frfcfs_open_ddr4", cfg});
    }
    {
        ExperimentConfig cfg;
        cfg.applyDramGen(DramGen::kDdr5_4800); // per-bank by default
        cfg.workloads = {"libq"};
        cfg.memOpsPerCore = 2500;
        cfg.seed = 7;
        cfg.audit = true;
        cfg.scheduler = SchedulerKind::kNuat;
        cases.push_back({"libq_nuat_ddr5_perbank", cfg});
    }
    {
        ExperimentConfig cfg;
        cfg.applyDramGen(DramGen::kDdr5_4800);
        cfg.workloads = {"comm1", "stream"};
        cfg.memOpsPerCore = 2000;
        cfg.seed = 3;
        cfg.audit = true;
        cfg.scheduler = SchedulerKind::kNuat;
        cases.push_back({"comm1_stream_nuat_ddr5_perbank", cfg});
    }

    // Refresh-policy cells (suffix `_darp`): pin the out-of-order
    // per-bank refresh behaviour (pull-ins on idle banks, deferral
    // under demand, the PPM close-under-deferral hint) on both
    // per-bank generations.  The inorder cells above must stay
    // byte-identical — the policy layer is dormant by default.
    {
        ExperimentConfig cfg;
        cfg.applyDramGen(DramGen::kDdr4_2400, RefreshMode::kPerBank);
        cfg.workloads = {"libq"};
        cfg.memOpsPerCore = 2500;
        cfg.seed = 7;
        cfg.audit = true;
        cfg.scheduler = SchedulerKind::kNuat;
        cfg.controller.refreshPolicy = RefreshPolicy::kDarp;
        cases.push_back({"libq_nuat_ddr4_perbank_darp", cfg});
    }
    {
        ExperimentConfig cfg;
        cfg.applyDramGen(DramGen::kDdr5_4800, RefreshMode::kPerBank);
        cfg.workloads = {"libq"};
        cfg.memOpsPerCore = 2500;
        cfg.seed = 7;
        cfg.audit = true;
        cfg.scheduler = SchedulerKind::kNuat;
        cfg.controller.refreshPolicy = RefreshPolicy::kDarp;
        cases.push_back({"libq_nuat_ddr5_perbank_darp", cfg});
    }
    return cases;
}

/**
 * Metrics companions: cells re-run with the interval sampler writing
 * JSONL every 10000 cycles.  They cover a NUAT and a baseline
 * scheduler (no sched* series), multi-core, DDR5 per-bank refresh
 * (cmd_refsb), the guardband gauges of a faulted run, and a 2-channel
 * machine (ctrl1.*, sched1.*, dram1.*).  The 2-channel cell has no
 * RunResult snapshot of its own.
 */
std::vector<GoldenCase>
metricsGoldenCases()
{
    const char *const pinned[] = {"ferret_nuat", "comm1_stream_nuat",
                                  "ferret_frfcfs_open",
                                  "libq_nuat_ddr5_perbank",
                                  "libq_nuat_stress_fault"};
    std::vector<GoldenCase> cases;
    for (const GoldenCase &c : goldenCases()) {
        for (const char *name : pinned) {
            if (c.name == name)
                cases.push_back(c);
        }
    }
    ExperimentConfig two;
    two.workloads = {"comm1", "stream"};
    two.memOpsPerCore = 2000;
    two.seed = 3;
    two.audit = true;
    two.scheduler = SchedulerKind::kNuat;
    two.geometry.channels = 2;
    cases.push_back({"comm1_stream_nuat_2ch", two});
    return cases;
}

std::string
goldenPath(const std::string &file)
{
    return std::string(NUAT_GOLDEN_DIR) + "/" + file;
}

/**
 * Regeneration target: NUAT_GOLDEN_OUT_DIR when set (drift checking —
 * regen_golden.sh --check diffs it against tests/golden/), else the
 * committed snapshot directory.
 */
std::string
goldenOutPath(const std::string &file)
{
    const char *dir = std::getenv("NUAT_GOLDEN_OUT_DIR");
    if (dir && dir[0])
        return std::string(dir) + "/" + file;
    return goldenPath(file);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Serve cells: the nuat_serve chaos-lane shape (2 shards x 2
 *  producers, deterministic, audited), one cell per mechanism. */
std::vector<std::pair<std::string, ServeConfig>>
serveGoldenCases()
{
    auto cell = [](const char *chaos, AdmissionPolicy admission) {
        ServeConfig cfg;
        cfg.experiment.workloads = {"ferret"};
        cfg.experiment.audit = true;
        cfg.shards = 2;
        cfg.producers = 2;
        cfg.requestsPerProducer = 5000;
        cfg.queueCapacity = 256;
        cfg.deterministic = true;
        cfg.admission = admission;
        if (chaos)
            cfg.chaos = *findChaosProfile(chaos);
        return cfg;
    };
    std::vector<std::pair<std::string, ServeConfig>> cases;
    cases.emplace_back("serve_chaos_off_block",
                       cell(nullptr, AdmissionPolicy::kBlock));
    cases.emplace_back("serve_poison_bounded",
                       cell("poison", AdmissionPolicy::kBoundedRetry));
    cases.emplace_back("serve_shard_stall_block",
                       cell("shard-stall", AdmissionPolicy::kBlock));
    ServeConfig storm = cell("storm-stall", AdmissionPolicy::kShed);
    storm.deadlineCycles = {{0, 2000, 300}};
    cases.emplace_back("serve_storm_stall_shed", storm);
    // The bench gate's serve.shed_ratio_under_storm cell, exactly as
    // tools/bench_gate.py runs it (unaudited, 20000 requests per
    // producer): its shed_total / produced is that ratio.
    ServeConfig shed = cell("burst-storm", AdmissionPolicy::kShed);
    shed.experiment.audit = false;
    shed.requestsPerProducer = 20000;
    cases.emplace_back("serve_burst_storm_shed", shed);
    return cases;
}

/** Compare @p text with snapshot file @p file, or rewrite it when
 *  NUAT_REGEN_GOLDEN is set. */
void
checkSnapshot(const std::string &file, const std::string &text)
{
    if (std::getenv("NUAT_REGEN_GOLDEN") != nullptr) {
        const std::string out_path = goldenOutPath(file);
        std::ofstream out(out_path);
        ASSERT_TRUE(out) << "cannot write " << out_path;
        out << text;
        return;
    }

    const std::string path = goldenPath(file);
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing snapshot " << path
                    << " — run tools/regen_golden.sh";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(text, expected.str())
        << file
        << ": output diverged from the snapshot; if the change is "
           "intentional, run tools/regen_golden.sh and commit the diff";
}

} // namespace

TEST(GoldenTest, StatsMatchSnapshots)
{
    for (const GoldenCase &c : goldenCases()) {
        const RunResult result = runExperiment(c.cfg);
        EXPECT_EQ(result.auditViolations, 0u) << c.name;
        checkSnapshot(c.name + ".json", runResultToJson(result));
    }
}

TEST(GoldenTest, MetricsStreamsMatchSnapshots)
{
    for (GoldenCase c : metricsGoldenCases()) {
        const std::string stem = "metrics_" + c.name;
        c.cfg.metricsOutPath = ::testing::TempDir() + stem + ".jsonl";
        c.cfg.metricsInterval = 10000;
        if (c.name == "ferret_nuat") {
            c.cfg.traceEventsPath =
                ::testing::TempDir() + stem + ".trace.json";
        }
        RunResult result = runExperiment(c.cfg);
        EXPECT_EQ(result.auditViolations, 0u) << c.name;
        checkSnapshot(stem + ".jsonl", readFile(c.cfg.metricsOutPath));
        if (!c.cfg.traceEventsPath.empty()) {
            checkSnapshot(stem + ".trace.json",
                          readFile(c.cfg.traceEventsPath));
        }

        // Observation-only: without its metrics block the record is
        // the cell's own snapshot.
        if (std::getenv("NUAT_REGEN_GOLDEN") == nullptr &&
            c.cfg.geometry.channels == 1) {
            result.metricsEnabled = false;
            result.metricsSamples = 0;
            result.metricsIntervalCycles = 0;
            EXPECT_EQ(runResultToJson(result),
                      readFile(goldenPath(c.name + ".json")))
                << c.name;
        }
    }
}

TEST(GoldenTest, ServeMatchesSnapshots)
{
    for (const auto &[name, cfg] : serveGoldenCases()) {
        const ServeResult result = runServe(cfg);
        EXPECT_FALSE(result.failed) << name;
        EXPECT_TRUE(result.conserves()) << name;
        EXPECT_EQ(result.auditViolations, 0u) << name;
        checkSnapshot(name + ".json", serveResultToJson(result) + "\n");
        if (name == "serve_storm_stall_shed") {
            // The nuat_serve --metrics-out record: one sample stamped
            // with the longest shard clock.
            MetricRegistry registry;
            publishServeMetrics(result, registry);
            std::ostringstream out;
            IntervalSampler sampler(registry, result.maxShardCycles, &out);
            sampler.finish(result.maxShardCycles);
            checkSnapshot("metrics_" + name + ".jsonl", out.str());
        }
    }
}
