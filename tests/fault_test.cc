/**
 * @file
 * Unit tests of the fault-injection subsystem and the guardband
 * degradation ladder.
 *
 * The fault framework's whole value rests on two properties: the
 * injected world is a *deterministic* function of (profile, seed) —
 * byte-identical schedules across instances — and the fault-off model
 * is indistinguishable from the refresh engine's ground truth.  Both
 * are pinned here, together with the semantics of every fault kind
 * (weak cells, temperature steps, VRT, dropped/delayed REFs), the
 * profile file parser's diagnostics, and the quarantine / widen /
 * conservative / hysteretic-release ladder of GuardbandManager.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/units.hh"
#include "core/guardband.hh"
#include "dram/refresh_engine.hh"
#include "dram/timing_params.hh"
#include "fault/fault_model.hh"
#include "fault/fault_profile.hh"
#include "sim/runner.hh"

using namespace nuat;

namespace {

constexpr std::uint32_t kRows = 8192;
constexpr RowTiming kNominal{12, 30, 42};
constexpr RowTiming kFastest{8, 22, 34};

FaultModel
makeModel(const FaultProfile &profile, std::uint64_t seed = 1)
{
    const RefreshEngine re(kRows, TimingParams{});
    return FaultModel(profile, seed, 1, kRows, re.rowsPerRef(),
                      re.interval(), kMemClock);
}

FaultProfile
weakProfile(double frac = 0.1, double lo = 2.0, double hi = 4.0)
{
    FaultProfile p;
    p.name = "test-weak";
    p.weakFraction = frac;
    p.weakMultMin = lo;
    p.weakMultMax = hi;
    return p;
}

GuardbandConfig
guardCfg()
{
    GuardbandConfig c;
    c.enabled = true;
    return c;
}

} // namespace

TEST(FaultModelTest, ScheduleIsDeterministicAcrossInstances)
{
    const FaultProfile p = *findFaultProfile("stress");
    const FaultModel a = makeModel(p, 42);
    const FaultModel b = makeModel(p, 42);
    EXPECT_EQ(a.scheduleFingerprint(256), b.scheduleFingerprint(256));
    EXPECT_EQ(a.stats().weakRows, b.stats().weakRows);
    EXPECT_EQ(a.stats().vrtRows, b.stats().vrtRows);
}

TEST(FaultModelTest, ScheduleChangesWithSeed)
{
    const FaultProfile p = *findFaultProfile("stress");
    const FaultModel a = makeModel(p, 42);
    const FaultModel b = makeModel(p, 43);
    EXPECT_NE(a.scheduleFingerprint(256), b.scheduleFingerprint(256));
}

TEST(FaultModelTest, FaultFreeModelMatchesRefreshEngineGroundTruth)
{
    // With nothing injected, the fault world's elapsed time must equal
    // the refresh engine's ground truth exactly — this is the root of
    // the fault-off byte-identity guarantee.
    const RefreshEngine re(kRows, TimingParams{});
    FaultModel m = makeModel(FaultProfile{});
    for (std::uint32_t row = 0; row < kRows; row += 1021) {
        EXPECT_DOUBLE_EQ(
            m.trueElapsed(RankId{0u}, RowId{row}, 1000).value(),
            re.elapsedSinceRefresh(RowId{row}, 1000, kMemClock).value());
    }
}

TEST(FaultModelTest, WeakPopulationTracksFraction)
{
    const FaultModel m = makeModel(weakProfile(0.1));
    // Binomial(8192, 0.1): mean 819, sigma ~27.  A generous window
    // still catches a broken hash (all-weak or none-weak).
    EXPECT_GT(m.stats().weakRows, 700u);
    EXPECT_LT(m.stats().weakRows, 950u);

    std::uint64_t counted = 0;
    for (std::uint32_t row = 0; row < kRows; ++row)
        counted += m.isWeak(RankId{0u}, RowId{row}) ? 1u : 0u;
    EXPECT_EQ(counted, m.stats().weakRows);
}

TEST(FaultModelTest, WeakMultiplierStaysInConfiguredRange)
{
    const FaultModel m = makeModel(weakProfile(0.1, 2.0, 4.0));
    for (std::uint32_t row = 0; row < kRows; ++row) {
        const double mult =
            m.leakMultiplier(RankId{0u}, RowId{row}, 0);
        if (m.isWeak(RankId{0u}, RowId{row})) {
            EXPECT_GE(mult, 2.0);
            EXPECT_LE(mult, 4.0);
        } else {
            EXPECT_DOUBLE_EQ(mult, 1.0);
        }
    }
}

TEST(FaultModelTest, TemperatureStepsApplyInOrder)
{
    FaultProfile p;
    p.name = "temp";
    p.tempSteps = {{1000, 2.5}, {2000, 1.0}};
    const FaultModel m = makeModel(p);
    EXPECT_DOUBLE_EQ(m.temperatureScale(0), 1.0);
    EXPECT_DOUBLE_EQ(m.temperatureScale(999), 1.0);
    EXPECT_DOUBLE_EQ(m.temperatureScale(1000), 2.5);
    EXPECT_DOUBLE_EQ(m.temperatureScale(1999), 2.5);
    EXPECT_DOUBLE_EQ(m.temperatureScale(2000), 1.0);
    EXPECT_DOUBLE_EQ(m.temperatureScale(1u << 30), 1.0);
}

TEST(FaultModelTest, VrtRowsToggleBetweenNominalAndLeaky)
{
    FaultProfile p;
    p.name = "vrt";
    p.vrtFraction = 1.0;
    p.vrtMult = 3.0;
    p.vrtPeriod = 1000;
    const FaultModel m = makeModel(p);
    ASSERT_EQ(m.stats().vrtRows, kRows);

    std::set<double> seen;
    for (Cycle now = 0; now < 4000; now += 100)
        seen.insert(m.leakMultiplier(RankId{0u}, RowId{7}, now));
    EXPECT_EQ(seen.size(), 2u);
    EXPECT_TRUE(seen.count(1.0));
    EXPECT_TRUE(seen.count(3.0));
}

TEST(FaultModelTest, RefreshDisturbBurstIsBounded)
{
    FaultProfile p;
    p.name = "storm";
    p.refDropProb = 1.0; // every raw draw wants to drop
    p.refBurstMax = 2;
    FaultModel m = makeModel(p);

    // With the burst bound at 2, the forced pattern is D, D, clean.
    using RD = FaultModel::RefDisturb;
    std::vector<RD> got;
    for (unsigned i = 0; i < 6; ++i)
        got.push_back(m.onRefresh(RankId{0u}, RowId{8 * i}, 100 + i));
    const std::vector<RD> want = {RD::kDropped, RD::kDropped, RD::kNone,
                                  RD::kDropped, RD::kDropped, RD::kNone};
    EXPECT_EQ(got, want);
    EXPECT_EQ(m.stats().refsDropped, 4u);
}

TEST(FaultModelTest, DroppedRefLeavesRowsAging)
{
    FaultProfile p;
    p.name = "drop";
    p.refDropProb = 1.0;
    p.refBurstMax = 1;
    FaultModel m = makeModel(p);

    const RefreshEngine re(kRows, TimingParams{});
    const Cycle now = re.interval(); // first REF, covering row 0
    ASSERT_EQ(m.onRefresh(RankId{0u}, RowId{0}, now),
              FaultModel::RefDisturb::kDropped);
    // The restore never happened: row 0 stays nearly retention-old.
    EXPECT_GT(m.trueElapsed(RankId{0u}, RowId{0}, now + 10).value(),
              50e6);
}

TEST(FaultModelTest, CleanRefreshRestoresRows)
{
    FaultModel m = makeModel(FaultProfile{});
    const RefreshEngine re(kRows, TimingParams{});
    const Cycle now = re.interval();
    ASSERT_EQ(m.onRefresh(RankId{0u}, RowId{0}, now),
              FaultModel::RefDisturb::kNone);
    EXPECT_DOUBLE_EQ(
        m.trueElapsed(RankId{0u}, RowId{0}, now + 10).value(),
        kMemClock.toNs(10).value());
}

TEST(FaultModelTest, DelayedRefSettlesAtItsApplyTime)
{
    FaultProfile p;
    p.name = "delay";
    p.refDelayProb = 1.0;
    p.refDelayMax = 100;
    FaultModel m = makeModel(p);

    const Cycle now = 1000;
    ASSERT_EQ(m.onRefresh(RankId{0u}, RowId{0}, now),
              FaultModel::RefDisturb::kDelayed);
    // During the delay window the row still carries its old (nearly
    // retention-old) stamp — exactly the hazard the model exists for.
    EXPECT_GT(m.trueElapsed(RankId{0u}, RowId{0}, now + 1).value(),
              50e6);
    // Past the maximum delay the restore has settled and the row is
    // at most refDelayMax + 1 cycles old.
    EXPECT_LT(m.trueElapsed(RankId{0u}, RowId{0}, now + 101).value(),
              kMemClock.toNs(102).value());
}

TEST(FaultProfileTest, BuiltinProfilesAreValidAndResolvable)
{
    const std::vector<std::string> names = faultProfileNames();
    ASSERT_FALSE(names.empty());
    for (const std::string &name : names) {
        const FaultProfile *p = findFaultProfile(name);
        ASSERT_NE(p, nullptr) << name;
        EXPECT_EQ(p->name, name);
        EXPECT_TRUE(p->any()) << name;
        p->validate();
        EXPECT_EQ(resolveFaultProfile(name).name, name);
    }
    EXPECT_EQ(findFaultProfile("no-such-profile"), nullptr);
    EXPECT_FALSE(FaultProfile{}.any());
}

TEST(FaultProfileTest, FileRoundTrip)
{
    const std::string path = testing::TempDir() + "fault_profile.conf";
    {
        std::ofstream out(path);
        out << "# hand-written hazard profile\n"
            << "name = custom\n"
            << "\n"
            << "weak_fraction = 0.25\n"
            << "weak_mult_min = 1.5\n"
            << "weak_mult_max = 2.5\n"
            << "vrt_fraction = 0.01\n"
            << "vrt_mult = 3.5\n"
            << "vrt_period_cycles = 12345\n"
            << "temp_step = 1000 2.0\n"
            << "temp_step = 5000 1.0\n"
            << "ref_drop_prob = 0.125\n"
            << "ref_delay_prob = 0.25\n"
            << "ref_delay_max_cycles = 777\n"
            << "ref_burst_max = 3\n";
    }
    const FaultProfile p = loadFaultProfileFile(path);
    EXPECT_EQ(p.name, "custom");
    EXPECT_DOUBLE_EQ(p.weakFraction, 0.25);
    EXPECT_DOUBLE_EQ(p.weakMultMin, 1.5);
    EXPECT_DOUBLE_EQ(p.weakMultMax, 2.5);
    EXPECT_DOUBLE_EQ(p.vrtFraction, 0.01);
    EXPECT_DOUBLE_EQ(p.vrtMult, 3.5);
    EXPECT_EQ(p.vrtPeriod, 12345u);
    ASSERT_EQ(p.tempSteps.size(), 2u);
    EXPECT_EQ(p.tempSteps[0].atCycle, 1000u);
    EXPECT_DOUBLE_EQ(p.tempSteps[0].scale, 2.0);
    EXPECT_DOUBLE_EQ(p.refDropProb, 0.125);
    EXPECT_DOUBLE_EQ(p.refDelayProb, 0.25);
    EXPECT_EQ(p.refDelayMax, 777u);
    EXPECT_EQ(p.refBurstMax, 3u);
    p.validate();

    // resolveFaultProfile falls back to the file path for non-builtin
    // names.
    EXPECT_EQ(resolveFaultProfile(path).name, "custom");
    std::remove(path.c_str());
}

TEST(FaultProfileTest, MalformedLineIsOneDiagnosticWithFileAndLine)
{
    // Numbers follow the command-line rules: digits only, no wrap, the
    // value fits its field, and reals are finite and non-negative.
    const std::string path = testing::TempDir() + "fault_broken.conf";
    setPanicThrows(true);
    for (const char *bad :
         {"weak_mult_min = banana", "vrt_period_cycles = -1",
          "temp_step = -5 2.0", "temp_step = 5 2.0 7",
          "ref_burst_max = 4294967296", "weak_fraction = inf",
          "ref_delay_max_cycles = 12abc"}) {
        {
            std::ofstream out(path);
            out << "name = broken\n"
                << "weak_fraction = 0.1\n"
                << bad << "\n";
        }
        try {
            loadFaultProfileFile(path);
            ADD_FAILURE() << "accepted: " << bad;
        } catch (const std::runtime_error &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find(path + ":3:"), std::string::npos) << msg;
        }
    }
    setPanicThrows(false);
    std::remove(path.c_str());
}

TEST(FaultProfileTest, UnknownNameAndMissingFileIsFatal)
{
    setPanicThrows(true);
    EXPECT_THROW(resolveFaultProfile("/nonexistent/zzz.conf"),
                 std::runtime_error);
    setPanicThrows(false);
}

TEST(GuardbandTest, HazardousProbeQuarantinesRowToSlowestPb)
{
    GuardbandManager g(guardCfg(), 1, 8, kRows, PbIdx{4});
    const RankId rk{0u};
    const BankId bk{0u};
    EXPECT_EQ(g.clampPb(rk, bk, RowId{5}, PbIdx{0}, 10).value(), 0u);

    // Requested fastest timing, but the fault world demanded nominal.
    g.onActProbe(rk, bk, RowId{5}, kFastest, kNominal, kFastest, 10);
    EXPECT_EQ(g.stats().probeViolations, 1u);
    EXPECT_EQ(g.stats().quarantines, 1u);
    EXPECT_EQ(g.quarantinedCount(), 1u);
    EXPECT_EQ(g.clampPb(rk, bk, RowId{5}, PbIdx{0}, 11).value(), 4u);
    // Other rows keep their natural group.
    EXPECT_EQ(g.clampPb(rk, bk, RowId{6}, PbIdx{2}, 11).value(), 2u);
}

TEST(GuardbandTest, ReleaseIsHystereticAndResetsOnBadEvidence)
{
    GuardbandConfig cfg = guardCfg(); // releaseCleanProbes = 4
    GuardbandManager g(cfg, 1, 8, kRows, PbIdx{4});
    const RankId rk{0u};
    const BankId bk{0u};
    const RowId row{5};
    g.onActProbe(rk, bk, row, kFastest, kNominal, kFastest, 10);
    ASSERT_EQ(g.quarantinedCount(), 1u);

    // Three clean probes (natural rating safe again) are not enough.
    for (Cycle t = 20; t <= 40; t += 10)
        g.onActProbe(rk, bk, row, kNominal, kFastest, kFastest, t);
    EXPECT_EQ(g.quarantinedCount(), 1u);

    // A probe showing the natural rating still unsafe resets the
    // streak (the activation itself was safe — no new violation).
    g.onActProbe(rk, bk, row, kNominal, kNominal, kFastest, 50);
    EXPECT_EQ(g.stats().probeViolations, 1u);

    for (Cycle t = 60; t <= 80; t += 10)
        g.onActProbe(rk, bk, row, kNominal, kFastest, kFastest, t);
    EXPECT_EQ(g.quarantinedCount(), 1u); // 3 of 4 again
    g.onActProbe(rk, bk, row, kNominal, kFastest, kFastest, 90);
    EXPECT_EQ(g.quarantinedCount(), 0u);
    EXPECT_EQ(g.stats().releases, 1u);
    EXPECT_EQ(g.clampPb(rk, bk, row, PbIdx{1}, 95).value(), 1u);
}

TEST(GuardbandTest, RepeatedQuarantinesWidenTheBank)
{
    GuardbandConfig cfg = guardCfg(); // widenPerBankRows = 8
    GuardbandManager g(cfg, 1, 8, kRows, PbIdx{4});
    const RankId rk{0u};
    const BankId bk{0u};
    for (std::uint32_t r = 0; r < 8; ++r)
        g.onActProbe(rk, bk, RowId{r}, kFastest, kNominal, kFastest,
                     10 + r);
    EXPECT_EQ(g.widenLevel(rk, bk), 1u);
    EXPECT_EQ(g.stats().widenSteps, 1u);
    // Non-quarantined rows in the widened bank run one group slower;
    // other banks are untouched; the clamp saturates at the slowest PB.
    EXPECT_EQ(g.clampPb(rk, bk, RowId{100}, PbIdx{2}, 20).value(), 3u);
    EXPECT_EQ(g.clampPb(rk, bk, RowId{100}, PbIdx{4}, 20).value(), 4u);
    EXPECT_EQ(g.clampPb(rk, BankId{1u}, RowId{100}, PbIdx{2}, 20).value(),
              2u);

    // An evidence-free clean window eases the widen level back down.
    g.maybeEase(18 + cfg.cleanWindow);
    EXPECT_EQ(g.widenLevel(rk, bk), 0u);
    EXPECT_EQ(g.stats().easeSteps, 1u);
}

TEST(GuardbandTest, ConservativeFallbackEntersAndEases)
{
    GuardbandConfig cfg = guardCfg();
    cfg.conservativeRows = 4;
    GuardbandManager g(cfg, 1, 8, kRows, PbIdx{4});
    const RankId rk{0u};
    for (std::uint32_t r = 0; r < 4; ++r)
        g.onActProbe(rk, BankId{r % 8}, RowId{r}, kFastest, kNominal,
                     kFastest, 10 + r);
    EXPECT_TRUE(g.conservative());
    EXPECT_EQ(g.stats().conservativeEntries, 1u);
    // Every ACT — even on a clean row — now runs at nominal timing.
    EXPECT_EQ(g.clampPb(rk, BankId{5u}, RowId{4000}, PbIdx{0}, 20).value(),
              4u);

    // One clean window later the channel-wide rung eases first; the
    // per-row quarantines stay (they release per-row, on probes).
    g.maybeEase(13 + cfg.cleanWindow);
    EXPECT_FALSE(g.conservative());
    EXPECT_EQ(g.quarantinedCount(), 4u);
    EXPECT_GE(g.stats().easeSteps, 1u);
}

TEST(GuardbandTest, ConfigValidationRejectsNonsense)
{
    setPanicThrows(true);
    GuardbandConfig cfg = guardCfg();
    cfg.cleanWindow = 0;
    EXPECT_THROW(GuardbandManager(cfg, 1, 8, kRows, PbIdx{4}),
                 std::logic_error);
    setPanicThrows(false);
}

TEST(FaultIntegrationTest, GuardbandLadderIsObservableInMetricStream)
{
    ExperimentConfig cfg;
    cfg.workloads = {"libq"};
    cfg.memOpsPerCore = 8000;
    cfg.faultProfile = "stress";
    cfg.metricsOutPath = testing::TempDir() + "fault_metrics.jsonl";
    const RunResult r = runExperiment(cfg);
    EXPECT_TRUE(r.faultsEnabled);
    EXPECT_TRUE(r.degradeEnabled);
    EXPECT_GT(r.guardQuarantines, 0u);

    std::ifstream in(cfg.metricsOutPath);
    ASSERT_TRUE(in.good());
    std::string all((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    EXPECT_NE(all.find("guard_quarantined_rows"), std::string::npos);
    EXPECT_NE(all.find("guard_quarantines"), std::string::npos);
    std::remove(cfg.metricsOutPath.c_str());
}
