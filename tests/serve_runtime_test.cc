/**
 * @file
 * Tests for the sharded serve runtime: request conservation (every
 * produced request retires exactly once), clean shadow audits on
 * every shard, shard accounting consistency, and config validation.
 * Cycle counts and latencies are interleaving-dependent and are only
 * sanity-checked, never compared exactly.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>

#include "common/logging.hh"
#include "sim/serve_runtime.hh"

namespace nuat {
namespace {

ServeConfig
smallConfig()
{
    ServeConfig cfg;
    cfg.experiment.workloads = {"ferret", "libq"};
    cfg.experiment.scheduler = SchedulerKind::kNuat;
    cfg.shards = 2;
    cfg.producers = 2;
    cfg.requestsPerProducer = 3000;
    cfg.queueCapacity = 256;
    return cfg;
}

TEST(ServeRuntime, ConservesRequestsAcrossShards)
{
    ServeConfig cfg = smallConfig();
    const ServeResult res = runServe(cfg);

    const std::uint64_t produced =
        std::uint64_t{cfg.producers} * cfg.requestsPerProducer;
    EXPECT_EQ(res.requestsIngested, produced);
    EXPECT_EQ(res.requestsRetired, produced);
    EXPECT_EQ(res.readsRetired + res.writesRetired,
              res.requestsRetired);
    EXPECT_FALSE(res.hitCycleCap);

    // Per-shard counts must sum to the total: retirement is counted
    // shard-locally and merged after join, nothing lost or doubled.
    ASSERT_EQ(res.shardRetired.size(), cfg.shards);
    const std::uint64_t summed =
        std::accumulate(res.shardRetired.begin(),
                        res.shardRetired.end(), std::uint64_t{0});
    EXPECT_EQ(summed, res.requestsRetired);

    EXPECT_GT(res.maxShardCycles, 0u);
    EXPECT_GE(res.totalShardCycles, res.maxShardCycles);
    EXPECT_GT(res.avgReadLatency, 0.0);
}

TEST(ServeRuntime, AuditedShardsStayViolationFree)
{
    ServeConfig cfg = smallConfig();
    cfg.experiment.audit = true;
    const ServeResult res = runServe(cfg);

    EXPECT_TRUE(res.audited);
    EXPECT_GT(res.auditCommandsChecked, 0u);
    EXPECT_EQ(res.auditViolations, 0u) << "shard auditors flagged "
                                       << res.auditViolations
                                       << " protocol violations";
    EXPECT_EQ(res.requestsRetired, res.requestsIngested);
}

TEST(ServeRuntime, FourShardsBalanceAcrossChannels)
{
    ServeConfig cfg = smallConfig();
    cfg.shards = 4;
    cfg.producers = 4;
    cfg.requestsPerProducer = 2000;
    const ServeResult res = runServe(cfg);

    EXPECT_EQ(res.requestsRetired,
              std::uint64_t{cfg.producers} * cfg.requestsPerProducer);
    ASSERT_EQ(res.shardRetired.size(), 4u);
    // The address mapping routes by channel bits; with stream
    // workloads every shard must see real traffic (not all requests
    // collapsing onto one channel).
    for (const std::uint64_t count : res.shardRetired)
        EXPECT_GT(count, 0u);
}

TEST(ServeRuntime, SingleShardSingleProducerRuns)
{
    ServeConfig cfg = smallConfig();
    cfg.shards = 1;
    cfg.producers = 1;
    cfg.requestsPerProducer = 2000;
    const ServeResult res = runServe(cfg);
    EXPECT_EQ(res.requestsRetired, cfg.requestsPerProducer);
    ASSERT_EQ(res.shardRetired.size(), 1u);
    EXPECT_EQ(res.shardRetired[0], cfg.requestsPerProducer);
}

TEST(ServeRuntime, Ddr5SarpShardsRunAtThePresetClock)
{
    // DDR5-4800 per-bank refresh under SARP: every shard stack must run
    // at the preset's 2400 MHz bus clock.  A shard built at the default
    // clock feeds the sense amp a non-positive dV and aborts.
    ServeConfig cfg = smallConfig();
    cfg.experiment.applyDramGen(DramGen::kDdr5_4800,
                                RefreshMode::kPerBank);
    cfg.experiment.controller.refreshPolicy = RefreshPolicy::kSarp;
    cfg.experiment.audit = true;
    cfg.deterministic = true;
    const ServeResult res = runServe(cfg);

    EXPECT_FALSE(res.failed);
    EXPECT_FALSE(res.hitCycleCap);
    EXPECT_TRUE(res.conserves());
    EXPECT_EQ(res.requestsRetired,
              std::uint64_t{cfg.producers} * cfg.requestsPerProducer);
    EXPECT_TRUE(res.audited);
    EXPECT_GT(res.auditCommandsChecked, 0u);
    EXPECT_EQ(res.auditViolations, 0u);
}

TEST(ServeRuntime, ValidateRejectsBadConfigs)
{
    setPanicThrows(true);

    ServeConfig cfg = smallConfig();
    cfg.shards = 3; // not a power of two: no address-mapping channel
    EXPECT_THROW(cfg.validate(), std::logic_error);

    cfg = smallConfig();
    cfg.shards = 0;
    EXPECT_THROW(cfg.validate(), std::logic_error);

    // Shards and producers are threads: their counts are bounded.
    cfg = smallConfig();
    cfg.shards = kMaxServeShards * 2;
    EXPECT_THROW(cfg.validate(), std::logic_error);
    cfg.shards = kMaxServeShards;
    EXPECT_NO_THROW(cfg.validate());

    cfg = smallConfig();
    cfg.producers = 0;
    EXPECT_THROW(cfg.validate(), std::logic_error);
    cfg.producers = kMaxServeProducers + 1;
    EXPECT_THROW(cfg.validate(), std::logic_error);
    cfg.producers = kMaxServeProducers;
    EXPECT_NO_THROW(cfg.validate());

    cfg = smallConfig();
    cfg.requestsPerProducer = 0;
    EXPECT_THROW(cfg.validate(), std::logic_error);

    cfg = smallConfig();
    cfg.experiment.workloads.clear();
    EXPECT_THROW(cfg.validate(), std::logic_error);

    cfg = smallConfig();
    cfg.admitCapacity = 0;
    EXPECT_THROW(cfg.validate(), std::logic_error);

    cfg = smallConfig();
    cfg.watchdogStallPolls = 0;
    EXPECT_THROW(cfg.validate(), std::logic_error);

    cfg = smallConfig();
    cfg.queueCapacity = 0;
    EXPECT_THROW(cfg.validate(), std::logic_error);

    cfg = smallConfig();
    cfg.queueCapacity = kMaxServeQueueCapacity + 1;
    EXPECT_THROW(cfg.validate(), std::logic_error);
    cfg.queueCapacity = kMaxServeQueueCapacity;
    EXPECT_NO_THROW(cfg.validate());

    cfg = smallConfig();
    cfg.chaos.stalls = {{9, 100, 100}}; // shard 9 does not exist
    EXPECT_THROW(cfg.validate(), std::logic_error);

    // The experiment itself is validated too (as the serve view, with
    // one channel per shard): NUAT supports 1..8 PBs.
    cfg = smallConfig();
    cfg.experiment.numPb = 0;
    EXPECT_THROW(cfg.validate(), std::logic_error);

    cfg = smallConfig();
    cfg.experiment.numPb = 9;
    EXPECT_THROW(cfg.validate(), std::logic_error);

    setPanicThrows(false);
}

TEST(ServeRuntime, ChaosOffMatchesLegacyBehavior)
{
    // With no chaos and the default block admission, the resilience
    // layer must be invisible: nothing shed, every produced request
    // ingested and retired.
    ServeConfig cfg = smallConfig();
    const ServeResult res = runServe(cfg);

    EXPECT_FALSE(res.failed);
    EXPECT_EQ(res.shedTotal(), 0u);
    EXPECT_EQ(res.poisonedInjected, 0u);
    EXPECT_EQ(res.requestsProduced, res.requestsIngested);
    EXPECT_EQ(res.requestsProduced, res.requestsRetired);
    EXPECT_TRUE(res.conserves());

    // Every request carries a hash-drawn class; all three must see
    // real traffic under the 1/8-5/8-2/8 split.
    for (const ServeClassStats &c : res.classes)
        EXPECT_GT(c.produced, 0u);
}

TEST(ServeRuntime, BoundedRetryShedsUnderPressure)
{
    // A tiny ring, one slow shard, a short retry budget: bounded
    // admission must shed rather than block, and every shed must be
    // accounted per class.
    ServeConfig cfg = smallConfig();
    cfg.deterministic = true;
    cfg.admission = AdmissionPolicy::kBoundedRetry;
    cfg.queueCapacity = 4;
    cfg.retryPushRounds = 2;
    cfg.chaos = *findChaosProfile("burst-storm");
    const ServeResult res = runServe(cfg);

    EXPECT_FALSE(res.failed);
    EXPECT_GT(res.shedAdmission, 0u);
    EXPECT_TRUE(res.conserves());
}

TEST(ServeRuntime, ShedPolicyProtectsClassZero)
{
    // Under kShed, best-effort classes drop on the first full-ring
    // hit while class 0 keeps its bounded-retry budget — so class 0's
    // shed *rate* must not exceed the others' under the same storm.
    ServeConfig cfg = smallConfig();
    cfg.deterministic = true;
    cfg.admission = AdmissionPolicy::kShed;
    cfg.queueCapacity = 4;
    cfg.chaos = *findChaosProfile("burst-storm");
    const ServeResult res = runServe(cfg);

    EXPECT_FALSE(res.failed);
    EXPECT_TRUE(res.conserves());
    EXPECT_GT(res.shedAdmission, 0u);
    const ServeClassStats &hi = res.classes[0];
    const ServeClassStats &lo = res.classes[2];
    ASSERT_GT(hi.produced, 0u);
    ASSERT_GT(lo.produced, 0u);
    const double hiRate = static_cast<double>(hi.shedAdmission) /
                          static_cast<double>(hi.produced);
    const double loRate = static_cast<double>(lo.shedAdmission) /
                          static_cast<double>(lo.produced);
    EXPECT_LE(hiRate, loRate);
}

TEST(ServeRuntime, FullRingTerminatesWithError)
{
    // The old runtime would spin forever pushing at a permanently
    // wedged shard.  Now the block policy declares the ring wedged
    // after blockPushRounds failed attempts and fails the run with a
    // clear error instead of hanging.
    ServeConfig cfg = smallConfig();
    cfg.deterministic = true;
    cfg.admission = AdmissionPolicy::kBlock;
    cfg.queueCapacity = 4;
    cfg.blockPushRounds = 500; // fires long before the watchdog
    cfg.chaos.name = "wedge";
    cfg.chaos.stalls = {{0, 0, std::uint64_t{1} << 30}};
    const ServeResult res = runServe(cfg);

    EXPECT_TRUE(res.failed);
    ASSERT_FALSE(res.errors.empty());
    EXPECT_NE(res.errors.front().find("wedged"), std::string::npos);
}

TEST(ServeRuntime, DeadlineShedsExpired)
{
    // A 1-cycle deadline on the lowest class with a deep admitted
    // stage: under storm pressure some class-2 requests must expire
    // before dispatch, and only class 2 pays.
    ServeConfig cfg = smallConfig();
    cfg.deterministic = true;
    cfg.queueCapacity = 64;
    cfg.deadlineCycles = {{0, 0, 1}};
    cfg.chaos = *findChaosProfile("burst-storm");
    const ServeResult res = runServe(cfg);

    EXPECT_FALSE(res.failed);
    EXPECT_TRUE(res.conserves());
    EXPECT_GT(res.shedTimeout, 0u);
    EXPECT_EQ(res.classes[0].shedTimeout, 0u);
    EXPECT_EQ(res.classes[1].shedTimeout, 0u);
    EXPECT_GT(res.classes[2].shedTimeout, 0u);
}

TEST(ServeRuntime, PoisonedRequestsAreShedAndCounted)
{
    ServeConfig cfg = smallConfig();
    cfg.deterministic = true;
    cfg.chaos = *findChaosProfile("poison");
    const ServeResult res = runServe(cfg);

    EXPECT_FALSE(res.failed);
    EXPECT_TRUE(res.conserves());
    EXPECT_GT(res.poisonedInjected, 0u);
    // Every poisoned request that reached a ring is shed by the
    // integrity check; none may retire.
    EXPECT_EQ(res.shedPoison, res.poisonedInjected);
    EXPECT_EQ(res.requestsRetired,
              res.requestsProduced - res.shedTotal());
}

TEST(ServeRuntime, StallRunsItsCourse)
{
    // A 4096-step stall of shard 0 fills its ring, so the producers
    // feel it as backpressure, but it is far shorter than the
    // watchdog's window: the stall runs its course and every request
    // still retires, in both execution modes.
    for (const bool deterministic : {true, false}) {
        ServeConfig cfg = smallConfig();
        cfg.deterministic = deterministic;
        cfg.experiment.audit = true;
        const ServeResult calm = runServe(cfg);
        cfg.chaos.name = "stall";
        cfg.chaos.stalls = {{0, 1000, 4096}};
        const ServeResult res = runServe(cfg);

        EXPECT_FALSE(res.failed)
            << (res.errors.empty() ? "" : res.errors.front());
        EXPECT_TRUE(res.conserves());
        EXPECT_EQ(res.requestsRetired, res.requestsProduced);
        EXPECT_EQ(res.auditViolations, 0u);
        if (deterministic) {
            EXPECT_GT(res.backpressureYields, calm.backpressureYields);
        }
    }
}

TEST(ServeRuntime, WatchdogFailsFrozenShard)
{
    // A stall that never ends freezes shard 0's heartbeat.  The
    // watchdog must fail the run with one clear line instead of
    // letting it hang, in both execution modes.
    for (const bool deterministic : {true, false}) {
        ServeConfig cfg = smallConfig();
        cfg.deterministic = deterministic;
        cfg.chaos.name = "frozen";
        cfg.chaos.stalls = {{0, 100, std::uint64_t{1} << 30}};
        const ServeResult res = runServe(cfg);

        EXPECT_TRUE(res.failed);
        ASSERT_EQ(res.errors.size(), 1u);
        EXPECT_EQ(res.errors.front(),
                  "watchdog: shard 0 made no progress for " +
                      std::to_string(cfg.watchdogStallPolls) + " polls");
    }
}

TEST(ServeRuntime, DeterministicRunsAreByteIdentical)
{
    // Same (config, profile, seed) => every counter identical,
    // including the per-class latency histograms bucket by bucket.
    ServeConfig cfg = smallConfig();
    cfg.deterministic = true;
    cfg.admission = AdmissionPolicy::kShed;
    cfg.queueCapacity = 64;
    cfg.deadlineCycles = {{0, 4000, 2000}};
    cfg.chaos = *findChaosProfile("storm-stall");
    const ServeResult a = runServe(cfg);
    const ServeResult b = runServe(cfg);

    EXPECT_FALSE(a.failed);
    EXPECT_EQ(a.requestsProduced, b.requestsProduced);
    EXPECT_EQ(a.requestsIngested, b.requestsIngested);
    EXPECT_EQ(a.requestsRetired, b.requestsRetired);
    EXPECT_EQ(a.shedAdmission, b.shedAdmission);
    EXPECT_EQ(a.shedTimeout, b.shedTimeout);
    EXPECT_EQ(a.shedPoison, b.shedPoison);
    EXPECT_EQ(a.backpressureYields, b.backpressureYields);
    EXPECT_EQ(a.maxShardCycles, b.maxShardCycles);
    EXPECT_EQ(a.totalShardCycles, b.totalShardCycles);
    EXPECT_EQ(a.shardRetired, b.shardRetired);
    for (unsigned k = 0; k < kServeClasses; ++k) {
        const ServeClassStats &ca = a.classes[k];
        const ServeClassStats &cb = b.classes[k];
        EXPECT_EQ(ca.produced, cb.produced);
        EXPECT_EQ(ca.retired, cb.retired);
        EXPECT_EQ(ca.shedAdmission, cb.shedAdmission);
        EXPECT_EQ(ca.shedTimeout, cb.shedTimeout);
        EXPECT_EQ(ca.shedPoison, cb.shedPoison);
        ASSERT_EQ(ca.readLatency.buckets(), cb.readLatency.buckets());
        for (unsigned i = 0; i < ca.readLatency.buckets(); ++i)
            EXPECT_EQ(ca.readLatency.bucketCount(i),
                      cb.readLatency.bucketCount(i));
        EXPECT_EQ(ca.readLatency.underflow(),
                  cb.readLatency.underflow());
        EXPECT_EQ(ca.readLatency.overflow(),
                  cb.readLatency.overflow());
    }
}

TEST(ServeRuntime, DrainOnStopConservesInFlight)
{
    // Threaded graceful-shutdown stress (also the TSan chaos case):
    // a burst storm plus a scheduled stall while the watchdog polls
    // real threads.  On stop every in-flight request must have
    // drained — produced == retired + shed, per class.
    ServeConfig cfg = smallConfig();
    cfg.admission = AdmissionPolicy::kBoundedRetry;
    cfg.retryPushRounds = 64;
    cfg.chaos = *findChaosProfile("storm-stall");
    const ServeResult res = runServe(cfg);

    EXPECT_FALSE(res.failed);
    EXPECT_TRUE(res.conserves());
    EXPECT_EQ(res.requestsRetired + res.shedTotal(),
              res.requestsProduced);
}

} // namespace
} // namespace nuat
