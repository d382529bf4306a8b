/**
 * @file
 * Differential verification harness.
 *
 * Sweeps randomized experiment configurations across all scheduler
 * families with the shadow protocol auditor attached and asserts, for
 * every run:
 *   - the auditor (an independent re-implementation of the DDR3 rules
 *     and the NUAT charge-safety invariant) saw zero violations,
 *   - no request was lost or double-counted (conservation identities
 *     between controller stats and device counters),
 *   - the run drained (no cycle-cap hit, every core finished).
 *
 * A second pass re-runs a subset with idle fast-forward disabled and
 * requires byte-identical statistics and issued-command streams,
 * pinning down the optimization's "results are identical either way"
 * contract.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "sim/parallel_runner.hh"
#include "sim/result_json.hh"
#include "sim/runner.hh"

using namespace nuat;

namespace {

const char *const kWorkloadPool[] = {"libq",  "ferret", "stream",
                                     "comm1", "black",  "mummer",
                                     "leslie", "fluid"};

/** Deterministically randomized config #i (small enough to run fast). */
ExperimentConfig
randomConfig(unsigned i)
{
    Rng rng(0xd1ff0000 + i);
    ExperimentConfig cfg;

    const unsigned cores = 1 + static_cast<unsigned>(rng.below(3));
    cfg.workloads.clear();
    for (unsigned c = 0; c < cores; ++c) {
        cfg.workloads.push_back(
            kWorkloadPool[rng.below(std::size(kWorkloadPool))]);
    }

    // Rotate through the scheduler families; both FR-FCFS page
    // policies take turns in their slot.
    switch (i % 4) {
      case 0:
        cfg.scheduler = SchedulerKind::kFcfs;
        break;
      case 1:
        cfg.scheduler = (i / 4) % 2 ? SchedulerKind::kFrFcfsClose
                                    : SchedulerKind::kFrFcfsOpen;
        break;
      case 2:
        cfg.scheduler = SchedulerKind::kFrFcfsAdaptive;
        break;
      default:
        cfg.scheduler = SchedulerKind::kNuat;
        break;
    }

    cfg.numPb = 1 + static_cast<unsigned>(rng.below(5));
    cfg.ppmEnabled = rng.below(2) != 0;
    cfg.closeGrace = rng.below(2) != 0;
    cfg.nuatStarvationLimit = rng.below(2) ? 200 : 0;
    cfg.geometry.channels = rng.below(4) ? 1 : 2;
    cfg.gapScale = 0.5 + 0.1 * static_cast<double>(rng.below(10));
    cfg.memOpsPerCore = 1500 + rng.below(1500);
    cfg.seed = 1 + rng.below(1000000);
    cfg.audit = true;
    return cfg;
}

/** Lost/duplicated requests show up as a broken identity here. */
void
checkConservation(const RunResult &r, const std::string &label)
{
    EXPECT_EQ(r.ctrl.readsCompleted,
              r.ctrl.readsAccepted - r.ctrl.readsMerged)
        << label;
    EXPECT_EQ(r.dev.reads, r.ctrl.readsAccepted - r.ctrl.readsMerged -
                               r.ctrl.readsForwarded)
        << label;
    EXPECT_EQ(r.dev.writes,
              r.ctrl.writesAccepted - r.ctrl.writesCoalesced)
        << label;
}

std::string
describe(const RunResult &r, unsigned i)
{
    std::string s = "config #" + std::to_string(i) + " [" +
                    r.schedulerName + "]";
    for (const auto &w : r.workloads)
        s += " " + w;
    for (const auto &msg : r.auditMessages)
        s += "\n  " + msg;
    return s;
}

/** Lines of the file at @p path (none when it cannot be read). */
std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

/**
 * Run config #@p i, @p cfg, with idle fast-forward on and off,
 * capturing both issued-command streams.  Everything but
 * idleCyclesSkipped must match, and so must the streams line by line:
 * a skipped tick that would have issued a command fails at its exact
 * cycle, even when the aggregate statistics happen to agree.
 * @p detail is appended to the failure label.
 */
void
expectFastForwardIdentical(ExperimentConfig cfg, unsigned i,
                           const std::string &detail = "")
{
    // The pid keeps concurrent runs of this binary (sanitizer lanes
    // side by side) off each other's files.
    const std::string stem = testing::TempDir() + "differential_ff_" +
                             std::to_string(::getpid());
    const std::string fast_path = stem + "_on.trace";
    const std::string slow_path = stem + "_off.trace";

    cfg.idleFastForward = true;
    cfg.dumpTracePath = fast_path;
    RunResult fast = runExperiment(cfg);
    cfg.idleFastForward = false;
    cfg.dumpTracePath = slow_path;
    RunResult slow = runExperiment(cfg);

    const std::string label = describe(fast, i) + detail;
    EXPECT_EQ(slow.idleCyclesSkipped, 0u) << label;
    fast.idleCyclesSkipped = 0;
    slow.idleCyclesSkipped = 0;
    EXPECT_EQ(runResultToJson(fast), runResultToJson(slow)) << label;
    EXPECT_EQ(fast.auditViolations, 0u) << label;

    const std::vector<std::string> fast_cmds = readLines(fast_path);
    const std::vector<std::string> slow_cmds = readLines(slow_path);
    EXPECT_GT(fast_cmds.size(), 8u) << label << ": no command stream";
    const std::size_t n = std::min(fast_cmds.size(), slow_cmds.size());
    std::size_t line = 0;
    while (line < n && fast_cmds[line] == slow_cmds[line])
        ++line;
    if (line < n) {
        ADD_FAILURE() << label << ": command streams part at line "
                      << line + 1 << "\n  fast-forward on:  "
                      << fast_cmds[line] << "\n  fast-forward off: "
                      << slow_cmds[line];
    } else {
        EXPECT_EQ(fast_cmds.size(), slow_cmds.size())
            << label << ": one command stream is a prefix of the other";
    }
    std::remove(fast_path.c_str());
    std::remove(slow_path.c_str());
}

} // namespace

TEST(DifferentialTest, RandomizedSweepIsViolationFree)
{
    constexpr unsigned kConfigs = 24; // >= 6 per scheduler family
    std::vector<ExperimentConfig> configs;
    for (unsigned i = 0; i < kConfigs; ++i)
        configs.push_back(randomConfig(i));

    const std::vector<RunResult> results =
        runExperimentsParallel(configs, 0);
    ASSERT_EQ(results.size(), configs.size());

    for (unsigned i = 0; i < results.size(); ++i) {
        const RunResult &r = results[i];
        const std::string label = describe(r, i);
        EXPECT_FALSE(r.hitCycleCap) << label;
        ASSERT_TRUE(r.audited) << label;
        EXPECT_GT(r.auditCommandsChecked, 0u) << label;
        EXPECT_EQ(r.auditViolations, 0u) << label;
        checkConservation(r, label);
        ASSERT_EQ(r.coreFinish.size(), configs[i].workloads.size());
        for (const CpuCycle finish : r.coreFinish)
            EXPECT_GT(finish, 0u) << label;
    }
}

TEST(DifferentialTest, GenerationSweepIsViolationFree)
{
    // Every generation preset x refresh flavour, randomized over the
    // scheduler families: the auditor independently re-derives each
    // generation's legality rules (bank-group gaps, REFsb schedule),
    // so a violation-free audited run here means device and auditor
    // agree on what, say, DDR5 per-bank refresh is allowed to do.
    std::vector<ExperimentConfig> configs;
    unsigned idx = 0;
    for (unsigned g = 0; g < kNumDramGens; ++g) {
        for (const RefreshMode mode :
             {RefreshMode::kAllBank, RefreshMode::kPerBank}) {
            for (unsigned i = 0; i < 4; ++i) {
                ExperimentConfig cfg = randomConfig(idx++);
                const unsigned channels = cfg.geometry.channels;
                cfg.applyDramGen(static_cast<DramGen>(g), mode);
                cfg.geometry.channels = channels;
                cfg.memOpsPerCore = 2000;
                configs.push_back(cfg);
            }
        }
    }

    const std::vector<RunResult> results =
        runExperimentsParallel(configs, 0);
    ASSERT_EQ(results.size(), configs.size());
    for (unsigned i = 0; i < results.size(); ++i) {
        const RunResult &r = results[i];
        const std::string label =
            describe(r, i) + " gen=" +
            dramGenName(configs[i].dramGen) +
            (configs[i].timing.refreshMode == RefreshMode::kPerBank
                 ? " per-bank"
                 : " all-bank");
        ASSERT_TRUE(r.error.empty()) << label << ": " << r.error;
        EXPECT_FALSE(r.hitCycleCap) << label;
        ASSERT_TRUE(r.audited) << label;
        EXPECT_GT(r.auditCommandsChecked, 0u) << label;
        EXPECT_EQ(r.auditViolations, 0u) << label;
        checkConservation(r, label);
        ASSERT_EQ(r.coreFinish.size(), configs[i].workloads.size());
        for (const CpuCycle finish : r.coreFinish)
            EXPECT_GT(finish, 0u) << label;
    }
}

TEST(DifferentialTest, GenerationFastForwardIsStatIdentical)
{
    // The idle fast-forward's "byte-identical either way" contract
    // must survive per-bank refresh (32 staggered deadlines instead
    // of one) and the non-DDR3 clocks.
    for (unsigned g = 0; g < kNumDramGens; ++g) {
        const unsigned idx = 40 + g;
        ExperimentConfig cfg = randomConfig(idx);
        cfg.applyDramGen(static_cast<DramGen>(g),
                         RefreshMode::kPerBank);
        cfg.memOpsPerCore = 1200;
        expectFastForwardIdentical(
            cfg, idx, std::string(" gen=") + dramGenName(cfg.dramGen));
    }
}

TEST(DifferentialTest, RefreshPolicySweepIsViolationFree)
{
    // DARP/SARP reorder per-bank refreshes inside the JEDEC pull-in/
    // postponement window.  The auditor re-derives that window (the
    // ref-deadline rule) independently of the engine's bookkeeping,
    // so a violation-free audited band here means the out-of-order
    // policies never leave the envelope on either per-bank
    // generation — and conservation says no request was lost while
    // refreshes moved around.
    std::vector<ExperimentConfig> configs;
    unsigned idx = 60;
    for (const DramGen gen :
         {DramGen::kDdr4_2400, DramGen::kDdr5_4800}) {
        for (const RefreshPolicy policy :
             {RefreshPolicy::kInOrder, RefreshPolicy::kDarp,
              RefreshPolicy::kSarp}) {
            for (unsigned i = 0; i < 4; ++i) {
                ExperimentConfig cfg = randomConfig(idx++);
                const unsigned channels = cfg.geometry.channels;
                cfg.applyDramGen(gen, RefreshMode::kPerBank);
                cfg.geometry.channels = channels;
                cfg.controller.refreshPolicy = policy;
                cfg.memOpsPerCore = 2000;
                configs.push_back(cfg);
            }
        }
    }

    const std::vector<RunResult> results =
        runExperimentsParallel(configs, 0);
    ASSERT_EQ(results.size(), configs.size());
    for (unsigned i = 0; i < results.size(); ++i) {
        const RunResult &r = results[i];
        const std::string label =
            describe(r, i) + " gen=" +
            dramGenName(configs[i].dramGen) + " policy=" +
            refreshPolicyName(configs[i].controller.refreshPolicy);
        ASSERT_TRUE(r.error.empty()) << label << ": " << r.error;
        EXPECT_FALSE(r.hitCycleCap) << label;
        ASSERT_TRUE(r.audited) << label;
        EXPECT_GT(r.auditCommandsChecked, 0u) << label;
        EXPECT_EQ(r.auditViolations, 0u) << label;
        checkConservation(r, label);
        ASSERT_EQ(r.coreFinish.size(), configs[i].workloads.size());
        for (const CpuCycle finish : r.coreFinish)
            EXPECT_GT(finish, 0u) << label;
    }
}

TEST(DifferentialTest, RefreshPolicyFastForwardIsStatIdentical)
{
    // Pull-ins only happen while requests are queued, so a provably
    // idle span unfolds identically under DARP/SARP and the
    // fast-forward contract must keep holding per policy.
    unsigned idx = 90;
    for (const DramGen gen :
         {DramGen::kDdr4_2400, DramGen::kDdr5_4800}) {
        for (const RefreshPolicy policy :
             {RefreshPolicy::kDarp, RefreshPolicy::kSarp}) {
            ExperimentConfig cfg = randomConfig(idx);
            cfg.applyDramGen(gen, RefreshMode::kPerBank);
            cfg.controller.refreshPolicy = policy;
            cfg.memOpsPerCore = 1200;
            expectFastForwardIdentical(
                cfg, idx,
                std::string(" gen=") + dramGenName(cfg.dramGen) +
                    " policy=" + refreshPolicyName(policy));
            ++idx;
        }
    }
}

TEST(DifferentialTest, FaultedSweepWithDegradationIsViolationFree)
{
    // Every scheduler family under two fault profiles, audited with
    // the charge_margin rule armed and the degradation ladder on: the
    // guarantee is zero violations of ANY rule, including the
    // fault-world one, plus intact conservation identities.
    std::vector<ExperimentConfig> configs;
    unsigned idx = 0;
    for (const char *profile : {"stress", "refresh-storm"}) {
        for (unsigned i = 0; i < 8; ++i) {
            ExperimentConfig cfg = randomConfig(idx++);
            cfg.faultProfile = profile;
            cfg.memOpsPerCore = 2000;
            configs.push_back(cfg);
        }
    }

    const std::vector<RunResult> results =
        runExperimentsParallel(configs, 0);
    ASSERT_EQ(results.size(), configs.size());
    for (unsigned i = 0; i < results.size(); ++i) {
        const RunResult &r = results[i];
        const std::string label =
            describe(r, i) + " profile=" + r.faultProfileName;
        ASSERT_TRUE(r.error.empty()) << label << ": " << r.error;
        ASSERT_TRUE(r.faultsEnabled) << label;
        // Only NUAT derates timing, so only NUAT carries a guardband;
        // the other families run nominal timing and are inherently
        // safe under any leakage.
        EXPECT_EQ(r.degradeEnabled,
                  configs[i].scheduler == SchedulerKind::kNuat)
            << label;
        ASSERT_TRUE(r.audited) << label;
        EXPECT_EQ(r.auditViolations, 0u) << label;
        EXPECT_FALSE(r.hitCycleCap) << label;
        checkConservation(r, label);
    }
}

TEST(DifferentialTest, ChargeMarginFiresWithDegradationDisabled)
{
    // The negative control for the whole robustness story: the same
    // faulted NUAT run with the degradation ladder switched off MUST
    // trip the auditor's charge-margin rule — otherwise the rule (or
    // the injection) is vacuous and the sweep above proves nothing.
    ExperimentConfig cfg;
    cfg.workloads = {"libq"};
    cfg.scheduler = SchedulerKind::kNuat;
    cfg.memOpsPerCore = 20000;
    cfg.audit = true;
    cfg.faultProfile = "stress";
    cfg.faultDegrade = false;
    const RunResult r = runExperiment(cfg);

    ASSERT_TRUE(r.faultsEnabled);
    EXPECT_FALSE(r.degradeEnabled);
    ASSERT_TRUE(r.audited);
    EXPECT_GT(r.auditViolations, 0u);
    bool saw_margin = false;
    for (const auto &msg : r.auditMessages)
        saw_margin = saw_margin ||
                     msg.find("charge-margin") != std::string::npos;
    EXPECT_TRUE(saw_margin)
        << "violations fired but none from the charge-margin rule";
}

TEST(DifferentialTest, GuardbandRecoversAfterFaultWindowPasses)
{
    // Hysteretic re-promotion, end to end: a thermal spike quarantines
    // rows while it lasts; once it passes and clean windows accumulate,
    // every quarantined row must return to its natural PB (fast timing
    // is reacquired, not permanently lost).
    ExperimentConfig cfg;
    cfg.workloads = {"libq"};
    cfg.scheduler = SchedulerKind::kNuat;
    cfg.memOpsPerCore = 150000; // runs well past the 300k-cycle spike
    cfg.audit = true;
    cfg.faultProfile = "thermal-spike";
    const RunResult r = runExperiment(cfg);

    ASSERT_TRUE(r.faultsEnabled);
    EXPECT_EQ(r.auditViolations, 0u);
    EXPECT_GT(r.guardQuarantines, 0u) << "spike never bit";
    EXPECT_GT(r.guardReleases, 0u) << "no row was ever re-promoted";
    EXPECT_EQ(r.guardQuarantinedAtEnd, 0u)
        << "degradation did not recover after the fault window";
}

TEST(DifferentialTest, FastForwardOnOffIsStatIdentical)
{
    // One config per scheduler family, audited, both fast-forward
    // settings.  The switch covers both skips: System's jump over
    // all-idle spans and each controller's quiet ticks.
    for (const unsigned i : {0u, 1u, 2u, 3u, 5u}) {
        ExperimentConfig cfg = randomConfig(i);
        cfg.memOpsPerCore = 1200; // two full runs each, keep it quick
        expectFastForwardIdentical(cfg, i);
    }
    // Two ranks reach what the single-rank configs never do: the
    // cross-rank tRTRS gap and one REF drain per rank.
    ExperimentConfig cfg = randomConfig(7);
    cfg.geometry.ranks = 2;
    cfg.memOpsPerCore = 1200;
    expectFastForwardIdentical(cfg, 7, " ranks=2");
}
