/**
 * @file
 * NUAT Table tests: every element's Table 1 semantics, the Fig. 13
 * hysteresis interaction, the Fig. 16 read/write-hit tie, and the
 * Sec. 7.3 weight-priority invariants.
 */

#include <gtest/gtest.h>

#include "charge/timing_derate.hh"
#include "common/logging.hh"
#include "core/nuat_table.hh"

namespace nuat {
namespace {

class NuatTableTest : public ::testing::Test
{
  protected:
    NuatTableTest()
        : cell_(), sa_(cell_), derate_(sa_),
          cfg_(NuatConfig::fromDerate(derate_, 5)), table_(cfg_)
    {
    }

    ScoreInputs
    inputs(CmdType cmd, bool write = false, bool hit = false,
           bool draining = false) const
    {
        ScoreInputs in;
        in.cmd = cmd;
        in.isWrite = write;
        in.isRowHit = hit;
        in.draining = draining;
        in.numPb = 5;
        return in;
    }

    CellModel cell_;
    SenseAmpModel sa_;
    TimingDerate derate_;
    NuatConfig cfg_;
    NuatTable table_;
};

TEST_F(NuatTableTest, Es1FillingPathPrefersReads)
{
    EXPECT_DOUBLE_EQ(table_.es1(inputs(CmdType::kRead)), 60.0);
    EXPECT_DOUBLE_EQ(table_.es1(inputs(CmdType::kWrite, true)), 0.0);
}

TEST_F(NuatTableTest, Es1DrainingPathPrefersWrites)
{
    EXPECT_DOUBLE_EQ(
        table_.es1(inputs(CmdType::kRead, false, false, true)), 0.0);
    EXPECT_DOUBLE_EQ(
        table_.es1(inputs(CmdType::kWrite, true, false, true)), 60.0);
}

TEST_F(NuatTableTest, Es2GrowsWithAgeAndCapsAtFour)
{
    ScoreInputs in = inputs(CmdType::kAct);
    in.waitCycles = 100;
    EXPECT_DOUBLE_EQ(table_.es2(in), 0.01);
    in.waitCycles = 30000;
    EXPECT_DOUBLE_EQ(table_.es2(in), 3.0);
    in.waitCycles = 1000000;
    EXPECT_DOUBLE_EQ(table_.es2(in), 4.0); // Fig. 15 scope bound
}

TEST_F(NuatTableTest, Es2ZeroForPrecharge)
{
    ScoreInputs in = inputs(CmdType::kPre);
    in.waitCycles = 1000000;
    EXPECT_DOUBLE_EQ(table_.es2(in), 0.0);
}

TEST_F(NuatTableTest, Es3ReadHitTwiceWriteHit)
{
    EXPECT_DOUBLE_EQ(table_.es3(inputs(CmdType::kRead, false, true)),
                     120.0);
    EXPECT_DOUBLE_EQ(table_.es3(inputs(CmdType::kWrite, true, true)),
                     60.0);
    EXPECT_DOUBLE_EQ(table_.es3(inputs(CmdType::kAct)), 0.0);
    EXPECT_DOUBLE_EQ(table_.es3(inputs(CmdType::kRead)), 0.0);
}

TEST_F(NuatTableTest, Fig16ReadHitTiesWriteHitOnDrainPath)
{
    // On the draining path a read hit (ES1 0 + ES3 120) must equal a
    // write hit (ES1 60 + ES3 60), so hits to a row activated for a
    // write are exploited regardless of direction.
    const ScoreInputs read_hit =
        inputs(CmdType::kRead, false, true, true);
    const ScoreInputs write_hit =
        inputs(CmdType::kWrite, true, true, true);
    EXPECT_DOUBLE_EQ(table_.es1(read_hit) + table_.es3(read_hit),
                     table_.es1(write_hit) + table_.es3(write_hit));
}

TEST_F(NuatTableTest, Es4ScoresFasterPbHigher)
{
    ScoreInputs in = inputs(CmdType::kAct);
    in.pb = PbIdx{0};
    EXPECT_DOUBLE_EQ(table_.es4(in), 50.0); // (5 - 0) * 10
    in.pb = PbIdx{4};
    EXPECT_DOUBLE_EQ(table_.es4(in), 10.0);
}

TEST_F(NuatTableTest, Es4OnlyForActivations)
{
    ScoreInputs in = inputs(CmdType::kRead, false, true);
    in.pb = PbIdx{0};
    EXPECT_DOUBLE_EQ(table_.es4(in), 0.0);
}

TEST_F(NuatTableTest, Es5ZonesScorePlusMinusW5)
{
    ScoreInputs in = inputs(CmdType::kAct);
    in.zone = BoundaryZone::kWarning;
    EXPECT_DOUBLE_EQ(table_.es5(in), 5.0);
    in.zone = BoundaryZone::kPromising;
    EXPECT_DOUBLE_EQ(table_.es5(in), -5.0);
    in.zone = BoundaryZone::kNone;
    EXPECT_DOUBLE_EQ(table_.es5(in), 0.0);
}

TEST_F(NuatTableTest, Es5OnlyForActivations)
{
    ScoreInputs in = inputs(CmdType::kRead, false, true);
    in.zone = BoundaryZone::kWarning;
    EXPECT_DOUBLE_EQ(table_.es5(in), 0.0);
}

TEST_F(NuatTableTest, ScoreIsSumOfElements)
{
    ScoreInputs in = inputs(CmdType::kAct);
    in.pb = PbIdx{1};
    in.zone = BoundaryZone::kWarning;
    in.waitCycles = 20000;
    EXPECT_DOUBLE_EQ(table_.score(in),
                     table_.es1(in) + table_.es2(in) + table_.es3(in) +
                         table_.es4(in) + table_.es5(in));
}

TEST_F(NuatTableTest, Sec73PriorityInvariants)
{
    // HIT can never be outweighed by PB: max ES4 (50) < w3 (60).
    EXPECT_LT(cfg_.weights.w4 * cfg_.numPb(), cfg_.weights.w3);
    // PB steps (10) dominate BOUNDARY (max |ES5| = 5).
    EXPECT_LT(cfg_.weights.w5, cfg_.weights.w4);
    // BOUNDARY dominates WAIT (ES2 capped at 4).
    EXPECT_LT(cfg_.es2Cap, cfg_.weights.w5);
    // OPERATION-TYPE >= HIT weight (Fig. 16 requirement).
    EXPECT_GE(cfg_.weights.w1, cfg_.weights.w3);
}

TEST_F(NuatTableTest, BoundaryCannotReorderPbLevels)
{
    // Adjacent PBs differ by w4 = 10 while |ES5| = 5, so the zone can
    // at most *equalize* neighbouring PB levels (promising PB0 vs
    // warning PB1), never invert them — exactly the paper's
    // "PB (w4) > BOUNDARY (w5)" rule.
    ScoreInputs pb0 = inputs(CmdType::kAct);
    pb0.pb = PbIdx{0};
    pb0.zone = BoundaryZone::kPromising;
    ScoreInputs pb1 = inputs(CmdType::kAct);
    pb1.pb = PbIdx{1};
    pb1.zone = BoundaryZone::kWarning;
    EXPECT_GE(table_.score(pb0), table_.score(pb1));
    // Without zones the PB step is strict.
    pb0.zone = BoundaryZone::kNone;
    pb1.zone = BoundaryZone::kNone;
    EXPECT_GT(table_.score(pb0), table_.score(pb1));
}

TEST_F(NuatTableTest, DisabledElementsScoreZero)
{
    NuatConfig cfg = cfg_;
    cfg.pbElementEnabled = false;
    cfg.boundaryElementEnabled = false;
    NuatTable t(cfg);
    ScoreInputs in = inputs(CmdType::kAct);
    in.pb = PbIdx{0};
    in.zone = BoundaryZone::kWarning;
    EXPECT_DOUBLE_EQ(t.es4(in), 0.0);
    EXPECT_DOUBLE_EQ(t.es5(in), 0.0);
}

TEST_F(NuatTableTest, DegenerateWeightsRecoverFrFcfsOrdering)
{
    // Paper Sec. 7.2: with w4 = w5 = 0 the ordering is FR-FCFS —
    // hits beat non-hits, then age decides.
    NuatConfig cfg = cfg_;
    cfg.weights.w4 = 0.0;
    cfg.weights.w5 = 0.0;
    NuatTable t(cfg);
    ScoreInputs hit = inputs(CmdType::kRead, false, true);
    hit.waitCycles = 1;
    ScoreInputs act = inputs(CmdType::kAct);
    act.waitCycles = 1000000;
    act.pb = PbIdx{0};
    act.zone = BoundaryZone::kWarning;
    EXPECT_GT(t.score(hit), t.score(act));
}

TEST_F(NuatTableTest, ConfigValidationWarnsOnBadOrdering)
{
    NuatConfig cfg = cfg_;
    cfg.weights.w4 = 100.0; // ES4 would outweigh HIT
    LogCapture::begin();
    cfg.validate();
    const std::string out = LogCapture::end();
    EXPECT_NE(out.find("priority ordering"), std::string::npos);
}

} // namespace
} // namespace nuat
