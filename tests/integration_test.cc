/**
 * @file
 * Full-system integration tests: end-to-end runs across schedulers,
 * PB configurations, channel counts — plus the headline claims the
 * reproduction must uphold (NUAT wins; charge safety holds end to end).
 */

#include <gtest/gtest.h>

#include "sim/channel_stack.hh"
#include "sim/report.hh"
#include "sim/runner.hh"
#include "sim/system.hh"

namespace nuat {
namespace {

ExperimentConfig
smallConfig(const std::string &workload, std::uint64_t ops = 15000)
{
    ExperimentConfig cfg;
    cfg.workloads = {workload};
    cfg.memOpsPerCore = ops;
    return cfg;
}

TEST(Integration, RunDrainsAndAccountsAllReads)
{
    auto result = runExperiment(smallConfig("comm1"));
    EXPECT_FALSE(result.hitCycleCap);
    EXPECT_GT(result.ctrl.readsCompleted, 0u);
    // Every accepted read completes exactly once.
    EXPECT_EQ(result.ctrl.readsCompleted,
              result.ctrl.readsAccepted - result.ctrl.readsMerged);
    EXPECT_GT(result.dev.refreshes, 0u);
    EXPECT_GT(result.executionTime(), 0u);
}

TEST(Integration, DeterministicAcrossRuns)
{
    const auto a = runExperiment(smallConfig("ferret"));
    const auto b = runExperiment(smallConfig("ferret"));
    EXPECT_EQ(a.memCycles, b.memCycles);
    EXPECT_EQ(a.ctrl.readLatencySum, b.ctrl.readLatencySum);
    EXPECT_EQ(a.dev.acts, b.dev.acts);
    EXPECT_EQ(a.executionTime(), b.executionTime());
}

TEST(Integration, SeedChangesTheRun)
{
    auto cfg = smallConfig("ferret");
    const auto a = runExperiment(cfg);
    cfg.seed = 999;
    const auto b = runExperiment(cfg);
    EXPECT_NE(a.dev.acts, b.dev.acts);
}

class SchedulerRunTest
    : public ::testing::TestWithParam<SchedulerKind>
{
};

TEST_P(SchedulerRunTest, CompletesWithoutChargeViolation)
{
    // The device panics on any charge or timing violation, so merely
    // draining the run proves the controller never cheats physics.
    auto cfg = smallConfig("mummer");
    cfg.scheduler = GetParam();
    const auto result = runExperiment(cfg);
    EXPECT_FALSE(result.hitCycleCap);
    EXPECT_GT(result.ctrl.readsCompleted, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, SchedulerRunTest,
    ::testing::Values(SchedulerKind::kFcfs, SchedulerKind::kFrFcfsOpen,
                      SchedulerKind::kFrFcfsClose,
                      SchedulerKind::kFrFcfsAdaptive,
                      SchedulerKind::kNuat));

class PbCountRunTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PbCountRunTest, NuatSafeAtEveryPbCount)
{
    auto cfg = smallConfig("MT-canneal");
    cfg.scheduler = SchedulerKind::kNuat;
    cfg.numPb = GetParam();
    const auto result = runExperiment(cfg);
    EXPECT_FALSE(result.hitCycleCap);
    // With more than one PB some ACTs must actually run derated.
    if (GetParam() > 1) {
        std::uint64_t derated = 0;
        for (int i = 1; i < 16; ++i)
            derated += result.dev.actsByTrcdReduction[i];
        EXPECT_GT(derated, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(PbCounts, PbCountRunTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(Integration, NuatBeatsFrFcfsOpenOnLowLocalityWorkload)
{
    // The paper's headline: charge-aware scheduling cuts read latency
    // on memory-intensive, low-locality workloads (Fig. 18).
    auto cfg = smallConfig("mummer", 40000);
    const auto rs = runSchedulerSweep(
        cfg, {SchedulerKind::kFrFcfsOpen, SchedulerKind::kNuat});
    EXPECT_LT(rs[1].avgReadLatency(), rs[0].avgReadLatency() * 0.95);
}

TEST(Integration, NuatActsSpreadAcrossPbs)
{
    auto cfg = smallConfig("mummer", 40000);
    cfg.scheduler = SchedulerKind::kNuat;
    const auto r = runExperiment(cfg);
    // Random rows land in every PB; the distribution should roughly
    // track the slice widths 3/5/6/8/10 (more ACTs in wider PBs).
    for (std::size_t pb = 0; pb < 5; ++pb)
        EXPECT_GT(r.actsPerPb[pb], 0u) << "PB" << pb;
    EXPECT_GT(r.actsPerPb[4], r.actsPerPb[0]);
}

TEST(Integration, DeviceCountersMatchNuatView)
{
    auto cfg = smallConfig("tigr", 30000);
    cfg.scheduler = SchedulerKind::kNuat;
    const auto r = runExperiment(cfg);
    std::uint64_t nuat_acts = 0;
    for (const auto n : r.actsPerPb)
        nuat_acts += n;
    EXPECT_EQ(nuat_acts, r.dev.acts);
    // PB0 ACTs run with 4 cycles of tRCD reduction.
    EXPECT_EQ(r.actsPerPb[0], r.dev.actsByTrcdReduction[4]);
    EXPECT_EQ(r.actsPerPb[4], r.dev.actsByTrcdReduction[0]);
}

TEST(Integration, OpenBeatsCloseOnHighLocality)
{
    // leslie's high row locality favours the open-page baseline
    // (paper Sec. 9.1: leslie hit rate 0.65 open vs 0.28 close).
    auto cfg = smallConfig("leslie", 40000);
    const auto rs = runSchedulerSweep(
        cfg,
        {SchedulerKind::kFrFcfsOpen, SchedulerKind::kFrFcfsClose});
    EXPECT_LT(rs[0].avgReadLatency(), rs[1].avgReadLatency());
    EXPECT_GT(rs[0].hitRateEq3, rs[1].hitRateEq3);
}

TEST(Integration, CloseBeatsOpenOnLowLocality)
{
    auto cfg = smallConfig("MT-canneal", 40000);
    const auto rs = runSchedulerSweep(
        cfg,
        {SchedulerKind::kFrFcfsOpen, SchedulerKind::kFrFcfsClose});
    EXPECT_LT(rs[1].avgReadLatency(), rs[0].avgReadLatency());
}

TEST(Integration, MultiChannelRunBalancesTraffic)
{
    ExperimentConfig cfg;
    cfg.workloads = {"comm1", "comm2"};
    cfg.geometry.channels = 2;
    cfg.memOpsPerCore = 15000;
    System system(cfg);
    auto result = system.run();
    EXPECT_FALSE(result.hitCycleCap);
    const auto &c0 = system.channel(0).device->counters();
    const auto &c1 = system.channel(1).device->counters();
    EXPECT_GT(c0.reads, 0u);
    EXPECT_GT(c1.reads, 0u);
    const double ratio =
        static_cast<double>(c0.reads) / static_cast<double>(c1.reads);
    EXPECT_GT(ratio, 0.7);
    EXPECT_LT(ratio, 1.4);
}

TEST(Integration, MultiRankRunDrains)
{
    ExperimentConfig cfg;
    cfg.workloads = {"comm2"};
    cfg.geometry.ranks = 2;
    cfg.memOpsPerCore = 15000;
    cfg.scheduler = SchedulerKind::kNuat;
    const auto r = runExperiment(cfg);
    EXPECT_FALSE(r.hitCycleCap);
    EXPECT_GT(r.ctrl.readsCompleted, 5000u);
    EXPECT_GE(r.dev.refreshes, 2u); // both ranks refresh
}

TEST(Integration, XorBankMappingRunDrains)
{
    ExperimentConfig cfg;
    cfg.workloads = {"mummer"};
    cfg.controller.mapping = MappingScheme::kOpenPageXorBank;
    cfg.memOpsPerCore = 15000;
    cfg.scheduler = SchedulerKind::kNuat;
    const auto r = runExperiment(cfg);
    EXPECT_FALSE(r.hitCycleCap);
    EXPECT_GT(r.ctrl.readsCompleted, 5000u);
}

TEST(Integration, MultiCoreRunDrains)
{
    ExperimentConfig cfg;
    cfg.workloads = {"libq", "mummer", "comm1", "stream"};
    cfg.memOpsPerCore = 8000;
    cfg.scheduler = SchedulerKind::kNuat;
    const auto r = runExperiment(cfg);
    EXPECT_FALSE(r.hitCycleCap);
    ASSERT_EQ(r.coreFinish.size(), 4u);
    for (const auto f : r.coreFinish)
        EXPECT_GT(f, 0u);
}

TEST(Integration, AblationTogglesChangeBehaviour)
{
    auto cfg = smallConfig("mummer", 25000);
    cfg.scheduler = SchedulerKind::kNuat;
    const auto full = runExperiment(cfg);
    cfg.pbElementEnabled = false;
    cfg.boundaryElementEnabled = false;
    const auto stripped = runExperiment(cfg);
    EXPECT_NE(full.ctrl.readLatencySum, stripped.ctrl.readLatencySum);
}

TEST(Integration, GapScaleIncreasesPressure)
{
    auto cfg = smallConfig("comm3", 20000);
    const auto normal = runExperiment(cfg);
    cfg.gapScale = 0.25;
    const auto intense = runExperiment(cfg);
    EXPECT_GT(intense.ctrl.avgReadQOccupancy(),
              normal.ctrl.avgReadQOccupancy());
}

TEST(Integration, ReportsRender)
{
    auto cfg = smallConfig("comm1", 5000);
    const auto rs = runSchedulerSweep(
        cfg, {SchedulerKind::kFrFcfsOpen, SchedulerKind::kNuat});
    EXPECT_NE(compareRuns(rs).find("NUAT"), std::string::npos);
    EXPECT_NE(summarizeRun(rs[0]).find("comm1"), std::string::npos);
    EXPECT_NE(describeConfig(cfg).find("DDR3"), std::string::npos);
    EXPECT_EQ(workloadLabel({"a", "b"}), "a+b");
}

TEST(Integration, ChannelStackRunsAtTheMemoryClock)
{
    // Every part of a channel stack must share the preset's bus clock:
    // a default-clocked derate on a faster preset mis-converts the
    // charge model's nanoseconds into cycles.
    for (unsigned g = 0; g < kNumDramGens; ++g) {
        ExperimentConfig cfg;
        cfg.applyDramGen(static_cast<DramGen>(g));
        cfg.audit = true;
        cfg.geometry.channels = 2;
        for (unsigned ch = 0; ch < cfg.geometry.channels; ++ch) {
            const ChannelStack stack = makeChannelStack(cfg, ch);
            EXPECT_EQ(stack.derate->clock().freqMhz(), cfg.busMhz) << g;
            EXPECT_EQ(stack.device->geometry().channels, 1u);
            ASSERT_NE(stack.auditor, nullptr);
            EXPECT_EQ(stack.faults, nullptr);
        }
    }
}

} // namespace
} // namespace nuat
