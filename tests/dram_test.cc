/**
 * @file
 * DRAM device tests: bank state machine, rank constraints (tRRD/tFAW),
 * data-bus interleaving, refresh legality, the exact earliest-issue
 * cycles the controller's quiet ticks rely on, and the
 * charge-violation ground-truth check.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include <memory>

#include "charge/timing_derate.hh"
#include "common/logging.hh"
#include "dram/dram_device.hh"
#include "dram/dram_spec.hh"

namespace nuat {
namespace {

class DramTest : public ::testing::Test
{
  protected:
    DramTest()
        : cell_(), sa_(cell_), derate_(sa_),
          dev_(std::make_unique<DramDevice>(DramGeometry{}, TimingParams{},
                                            derate_))
    {
        setPanicThrows(true);
    }

    ~DramTest() override { setPanicThrows(false); }

    Command
    act(unsigned bank, std::uint32_t row,
        RowTiming t = RowTiming{12, 30, 42}) const
    {
        Command c;
        c.type = CmdType::kAct;
        c.bank = BankId{bank};
        c.row = RowId{row};
        c.actTiming = t;
        return c;
    }

    Command
    col(CmdType type, unsigned bank, std::uint32_t column = 0) const
    {
        Command c;
        c.type = type;
        c.bank = BankId{bank};
        c.col = column;
        return c;
    }

    Command
    pre(unsigned bank) const
    {
        Command c;
        c.type = CmdType::kPre;
        c.bank = BankId{bank};
        return c;
    }

    Command
    ref() const
    {
        Command c;
        c.type = CmdType::kRef;
        return c;
    }

    /** First cycle >= from at which cmd becomes legal (bounded scan). */
    Cycle
    earliest(const Command &cmd, Cycle from) const
    {
        for (Cycle t = from; t < from + 100000; ++t) {
            if (dev_->canIssue(cmd, t))
                return t;
        }
        return kNeverCycle;
    }

    CellModel cell_;
    SenseAmpModel sa_;
    TimingDerate derate_;
    std::unique_ptr<DramDevice> dev_;
    const TimingParams tp_;
};

// earliestIssueAt must return the exact first legal cycle, not just
// one that is legal: the controller sleeps until the smallest one, so
// a value one cycle late would skip a cycle a command could have used.

TEST_F(DramTest, ActThenReadRespectsTrcd)
{
    ASSERT_TRUE(dev_->canIssue(act(0, 100), 10));
    dev_->issue(act(0, 100), 10);
    const Command rd = col(CmdType::kRead, 0);
    EXPECT_FALSE(dev_->canIssue(rd, 10 + tp_.tRCD - 1));
    EXPECT_EQ(earliest(rd, 11), 10 + tp_.tRCD);
    for (const CmdType type : {CmdType::kRead, CmdType::kReadAp,
                               CmdType::kWrite, CmdType::kWriteAp})
        EXPECT_EQ(dev_->earliestIssueAt(col(type, 0)), 10 + tp_.tRCD);
}

TEST_F(DramTest, ReadReturnsDataAfterClPlusBurst)
{
    dev_->issue(act(0, 100), 0);
    const Cycle t = earliest(col(CmdType::kRead, 0), 1);
    const IssueResult r = dev_->issue(col(CmdType::kRead, 0), t);
    EXPECT_EQ(r.dataAt, t + tp_.tCL + tp_.tBL);
}

TEST_F(DramTest, ActThenPreRespectsTras)
{
    dev_->issue(act(0, 100), 0);
    EXPECT_FALSE(dev_->canIssue(pre(0), tp_.tRAS - 1));
    EXPECT_EQ(earliest(pre(0), 1), tp_.tRAS);
    EXPECT_EQ(dev_->earliestIssueAt(pre(0)), tp_.tRAS);
}

TEST_F(DramTest, ActToActSameBankRespectsTrc)
{
    dev_->issue(act(0, 100), 0);
    const Cycle t_pre = earliest(pre(0), 1);
    dev_->issue(pre(0), t_pre);
    // tRC = 42 dominates tRAS + tRP = 30 + 12 here (equal), so the
    // next ACT is legal exactly at tRC.
    EXPECT_EQ(earliest(act(0, 101), t_pre), tp_.tRC);
}

TEST_F(DramTest, WriteRecoveryGatesPrecharge)
{
    dev_->issue(act(0, 100), 0);
    const Cycle t = earliest(col(CmdType::kWrite, 0), 1);
    dev_->issue(col(CmdType::kWrite, 0), t);
    EXPECT_EQ(earliest(pre(0), t),
              t + tp_.tCWL + tp_.tBL + tp_.tWR);
}

TEST_F(DramTest, ReadToPreRespectsTrtp)
{
    dev_->issue(act(0, 100), 0);
    const Cycle t = earliest(col(CmdType::kRead, 0), 1);
    dev_->issue(col(CmdType::kRead, 0), t);
    // tRAS (30 from ACT at 0) still dominates tRTP here.
    const Cycle expected =
        std::max(tp_.tRAS, t + tp_.tRTP);
    EXPECT_EQ(earliest(pre(0), t), expected);
}

TEST_F(DramTest, AutoPrechargeClosesRowAndAppliesTiming)
{
    dev_->issue(act(0, 100), 0);
    const Cycle t = earliest(col(CmdType::kReadAp, 0), 1);
    dev_->issue(col(CmdType::kReadAp, 0), t);
    EXPECT_TRUE(dev_->bank(RankId{0}, BankId{0}).isClosed());
    // Internal PRE at max(t + tRTP, tRAS), then tRP.
    const Cycle pre_at = std::max(t + tp_.tRTP, tp_.tRAS);
    EXPECT_EQ(earliest(act(0, 101), t + 1), pre_at + tp_.tRP);
}

TEST_F(DramTest, RowHitReadAfterReadRespectsTccd)
{
    dev_->issue(act(0, 100), 0);
    const Cycle t = earliest(col(CmdType::kRead, 0), 1);
    dev_->issue(col(CmdType::kRead, 0), t);
    EXPECT_EQ(earliest(col(CmdType::kRead, 0, 1), t + 1), t + tp_.tCCD);
}

TEST_F(DramTest, WriteToReadTurnaround)
{
    dev_->issue(act(0, 100), 0);
    const Cycle t = earliest(col(CmdType::kWrite, 0), 1);
    dev_->issue(col(CmdType::kWrite, 0), t);
    EXPECT_EQ(earliest(col(CmdType::kRead, 0, 1), t + 1),
              t + tp_.tCWL + tp_.tBL + tp_.tWTR);
}

TEST_F(DramTest, ReadToWriteTurnaround)
{
    dev_->issue(act(0, 100), 0);
    const Cycle t = earliest(col(CmdType::kRead, 0), 1);
    dev_->issue(col(CmdType::kRead, 0), t);
    EXPECT_EQ(earliest(col(CmdType::kWrite, 0, 1), t + 1),
              t + tp_.tCL + tp_.tBL + tp_.tRTW - tp_.tCWL);
}

TEST_F(DramTest, ActToActDifferentBanksRespectsTrrd)
{
    dev_->issue(act(0, 100), 0);
    EXPECT_FALSE(dev_->canIssue(act(1, 50), tp_.tRRD - 1));
    EXPECT_EQ(earliest(act(1, 50), 1), tp_.tRRD);
    EXPECT_EQ(dev_->earliestIssueAt(act(1, 50)), tp_.tRRD);
}

TEST_F(DramTest, FourActivateWindowBlocksFifthAct)
{
    // Issue four ACTs as fast as tRRD allows, then the fifth must wait
    // for the first to leave the tFAW window.
    Cycle t = 0;
    for (unsigned b = 0; b < 4; ++b) {
        t = earliest(act(b, 10), t);
        dev_->issue(act(b, 10), t);
    }
    const Cycle fifth = earliest(act(4, 10), t + 1);
    EXPECT_EQ(fifth, tp_.tFAW); // first ACT was at 0
    EXPECT_GT(tp_.tFAW, t + tp_.tRRD); // tFAW, not tRRD, gates it
    EXPECT_EQ(dev_->earliestIssueAt(act(4, 10)), tp_.tFAW);
}

TEST_F(DramTest, CommandBusOneCommandPerCycle)
{
    dev_->issue(act(0, 100), 5);
    EXPECT_FALSE(dev_->canIssue(act(1, 50), 5));
    // tRRD would allow at 11.
    EXPECT_EQ(earliest(act(1, 50), 6), 5 + tp_.tRRD);
}

TEST_F(DramTest, IllegalIssuePanics)
{
    EXPECT_THROW(dev_->issue(col(CmdType::kRead, 0), 0),
                 std::logic_error); // no row open
    dev_->issue(act(0, 100), 0);
    EXPECT_THROW(dev_->issue(col(CmdType::kRead, 0), 1),
                 std::logic_error); // tRCD not satisfied
    EXPECT_THROW(dev_->issue(act(0, 101), 50),
                 std::logic_error); // row already open
}

TEST_F(DramTest, RefRequiresAllBanksPrecharged)
{
    dev_->issue(act(0, 100), 0);
    const Cycle due = dev_->refresh(RankId{0}).nextDueAt();
    EXPECT_FALSE(dev_->canIssue(ref(), due));
    const Cycle t_pre = earliest(pre(0), 1);
    dev_->issue(pre(0), t_pre);
    const Cycle t_ref = earliest(ref(), t_pre + 1);
    EXPECT_EQ(t_ref, t_pre + tp_.tRP);
    dev_->issue(ref(), t_ref);
    EXPECT_EQ(dev_->counters().refreshes, 1u);
    // All banks blocked for tRFC.
    EXPECT_FALSE(dev_->canIssue(act(3, 5), t_ref + tp_.tRFC - 1));
    EXPECT_TRUE(dev_->canIssue(act(3, 5), t_ref + tp_.tRFC));
}

TEST_F(DramTest, ChargeViolationPanics)
{
    // Row 0 is the oldest at cycle 0 (steady-state init); claiming
    // PB0 timing for it must trip the ground-truth check.
    Command c = act(0, 0, RowTiming{8, 22, 34});
    ASSERT_TRUE(dev_->canIssue(c, 0));
    EXPECT_THROW(dev_->issue(c, 0), std::logic_error);
}

TEST_F(DramTest, FreshRowAcceptsDeratedTiming)
{
    // The most recently refreshed rows sit just below the refresh
    // counter; they are young enough for full PB0 derating.
    const RowId young = dev_->refresh(RankId{0}).lrra();
    const RowTiming min =
        dev_->trueRowTiming(RankId{0}, BankId{0}, young, 0);
    EXPECT_EQ(min.trcd, 8u);
    dev_->issue(act(0, young.value(), RowTiming{8, 22, 34}), 0);
    EXPECT_EQ(dev_->counters().actsByTrcdReduction[4], 1u);
}

TEST_F(DramTest, TrueRowTimingMatchesDerateModel)
{
    const RowId row{1234};
    const Cycle now = 777;
    const Nanoseconds elapsed =
        dev_->refresh(RankId{0}).elapsedSinceRefresh(row, now,
                                                     kMemClock);
    const RowTiming expect = derate_.effective(elapsed);
    const RowTiming got =
        dev_->trueRowTiming(RankId{0}, BankId{0}, row, now);
    EXPECT_EQ(got.trcd, expect.trcd);
    EXPECT_EQ(got.tras, expect.tras);
    EXPECT_EQ(got.trc, expect.trc);
}

TEST_F(DramTest, LateRefreshPanics)
{
    const Cycle due = dev_->refresh(RankId{0}).nextDueAt();
    const Cycle late = due + tp_.maxRefreshSlack + 1;
    ASSERT_TRUE(dev_->canIssue(ref(), late));
    EXPECT_THROW(dev_->issue(ref(), late), std::logic_error);
}

TEST_F(DramTest, EarlyRefreshBeyondPullInBudgetPanics)
{
    // With the default budget the pull-in window spans a whole
    // interval, so the first REF can never be too early; a zero
    // budget makes any pulled-in REF overstep the JEDEC window —
    // a controller bug, same as lateness past the slack guard.
    TimingParams tp;
    tp.refPullInMax = 0;
    DramDevice dev(DramGeometry{}, tp, derate_);
    const Cycle due = dev.refresh(RankId{0}).nextDueAt();
    ASSERT_TRUE(dev.canIssue(ref(), due - 1));
    EXPECT_THROW(dev.issue(ref(), due - 1), std::logic_error);

    // On the nominal slot the same command is accepted.
    DramDevice on_time(DramGeometry{}, tp, derate_);
    on_time.issue(ref(), due);
    EXPECT_EQ(on_time.counters().refreshes, 1u);
}

TEST_F(DramTest, BankStateAccessors)
{
    EXPECT_TRUE(dev_->bank(RankId{0}, BankId{0}).isClosed());
    dev_->issue(act(2, 42), 0);
    EXPECT_EQ(dev_->bank(RankId{0}, BankId{2}).openRow().value(), 42u);
    EXPECT_FALSE(dev_->bank(RankId{0}, BankId{2}).isClosed());
    EXPECT_EQ(dev_->bank(RankId{0}, BankId{2}).lastActAt(), 0u);
    EXPECT_EQ(dev_->bank(RankId{0}, BankId{2}).actTiming().trcd, 12u);
}

TEST_F(DramTest, CountersTrackCommands)
{
    dev_->issue(act(0, 100), 0);
    Cycle t = earliest(col(CmdType::kRead, 0), 1);
    dev_->issue(col(CmdType::kRead, 0), t);
    t = earliest(col(CmdType::kWriteAp, 0), t + 1);
    dev_->issue(col(CmdType::kWriteAp, 0), t);
    EXPECT_EQ(dev_->counters().acts, 1u);
    EXPECT_EQ(dev_->counters().reads, 1u);
    EXPECT_EQ(dev_->counters().writes, 1u);
    EXPECT_EQ(dev_->counters().autoPres, 1u);
    EXPECT_EQ(dev_->counters().pres, 0u);
}

TEST_F(DramTest, EarliestIssueAtForbidsWhatBankStateRules)
{
    // Bank 0 closed: nothing but an ACT can reach it.
    for (const CmdType type :
         {CmdType::kPre, CmdType::kRead, CmdType::kReadAp,
          CmdType::kWrite, CmdType::kWriteAp}) {
        Command c = col(type, 0);
        EXPECT_EQ(dev_->earliestIssueAt(c), kNeverCycle)
            << c.name() << " to a closed bank";
    }
    // REFsb on an all-bank device.
    Command refsb;
    refsb.type = CmdType::kRefsb;
    EXPECT_EQ(dev_->earliestIssueAt(refsb), kNeverCycle);

    dev_->issue(act(0, 100), 0);
    EXPECT_EQ(dev_->earliestIssueAt(act(0, 101)), kNeverCycle)
        << "ACT to an open bank";
    EXPECT_EQ(dev_->earliestIssueAt(ref()), kNeverCycle)
        << "REF with a bank open";
}

/** A device on a generation preset, with a charge model on the
 *  preset's own nominal timing and clock. */
struct PresetDevice
{
    explicit PresetDevice(DramGen gen)
        : spec(DramSpec::preset(gen)), sa(cell),
          derate(sa,
                 NominalTiming{spec.timing.tRCD, spec.timing.tRAS,
                               spec.timing.tRP},
                 spec.clock()),
          dev(spec.geometry, spec.timing, derate, spec.clock())
    {
    }

    /** Nominal-timing ACT to @p bank. */
    Command
    act(unsigned bank) const
    {
        Command c;
        c.type = CmdType::kAct;
        c.bank = BankId{bank};
        c.row = RowId{100};
        c.actTiming = RowTiming{spec.timing.tRCD, spec.timing.tRAS,
                                spec.timing.tRC};
        return c;
    }

    Command
    refsb(unsigned bank) const
    {
        Command c;
        c.type = CmdType::kRefsb;
        c.bank = BankId{bank};
        return c;
    }

    const DramSpec &spec;
    CellModel cell;
    SenseAmpModel sa;
    TimingDerate derate;
    DramDevice dev;
};

TEST(DramEarliestIssue, SameGroupActWaitsTrrdL)
{
    PresetDevice d(DramGen::kDdr4_2400);
    const TimingParams &tp = d.spec.timing;
    const unsigned groups = d.spec.geometry.bankGroups;
    ASSERT_GT(groups, 1u);
    ASSERT_GT(tp.tRRD_L, tp.tRRD);
    const Cycle t = 10;
    d.dev.issue(d.act(0), t);
    EXPECT_EQ(d.dev.earliestIssueAt(d.act(groups)), t + tp.tRRD_L)
        << "same bank group";
    EXPECT_EQ(d.dev.earliestIssueAt(d.act(1)), t + tp.tRRD)
        << "other bank group";
}

TEST(DramEarliestIssue, RefsbSpacingAndWindow)
{
    PresetDevice d(DramGen::kDdr5_4800);
    const TimingParams &tp = d.spec.timing;
    ASSERT_EQ(tp.refreshMode, RefreshMode::kPerBank);
    ASSERT_GT(tp.tREFSBRD, 0u);
    ASSERT_GT(tp.tRFCpb, tp.tREFSBRD);

    const Cycle t = d.dev.refreshFor(RankId{0}, BankId{0}).nextDueAt();
    EXPECT_EQ(d.dev.earliestIssueAt(d.refsb(0)), 0u);
    d.dev.issue(d.refsb(0), t);
    // Another bank waits out the same-rank spacing, the refreshed one
    // its tRFCpb window; other banks keep taking ACTs.
    EXPECT_EQ(d.dev.earliestIssueAt(d.refsb(1)), t + tp.tREFSBRD);
    EXPECT_EQ(d.dev.earliestIssueAt(d.refsb(0)), t + tp.tRFCpb);
    EXPECT_EQ(d.dev.earliestIssueAt(d.act(0)), t + tp.tRFCpb);
    EXPECT_EQ(d.dev.earliestIssueAt(d.act(1)), t + 1);
}

TEST(DramEarliestIssue, PerBankDeviceForbidsRefAndRefsbToOpenBank)
{
    PresetDevice d(DramGen::kDdr5_4800);
    Command ref;
    ref.type = CmdType::kRef;
    EXPECT_EQ(d.dev.earliestIssueAt(ref), kNeverCycle)
        << "REF on a per-bank device";
    d.dev.issue(d.act(3), 0);
    EXPECT_EQ(d.dev.earliestIssueAt(d.refsb(3)), kNeverCycle)
        << "REFsb to an open bank";
}

TEST(DramMultiRank, RankToRankSwitchPenalty)
{
    setPanicThrows(true);
    CellModel cell;
    SenseAmpModel sa(cell);
    TimingDerate derate(sa);
    DramGeometry geom;
    geom.ranks = 2;
    DramDevice dev(geom, TimingParams{}, derate);
    const TimingParams tp;

    Command act0;
    act0.type = CmdType::kAct;
    act0.rank = RankId{0};
    act0.row = RowId{100};
    act0.actTiming = RowTiming{12, 30, 42};
    dev.issue(act0, 0);
    Command act1 = act0;
    act1.rank = RankId{1};
    dev.issue(act1, tp.tRRD);

    Command rd0;
    rd0.type = CmdType::kRead;
    rd0.rank = RankId{0};
    Cycle t = tp.tRCD;
    while (!dev.canIssue(rd0, t))
        ++t;
    dev.issue(rd0, t);

    // A same-rank read is gated only by tCCD; a cross-rank read must
    // additionally leave the tRTRS bus-ownership gap.
    Command rd1 = rd0;
    rd1.rank = RankId{1};
    Cycle t_same = t + 1, t_cross = t + 1;
    while (!dev.canIssue(rd0, t_same))
        ++t_same;
    while (!dev.canIssue(rd1, t_cross))
        ++t_cross;
    EXPECT_EQ(t_same, t + tp.tCCD);
    EXPECT_EQ(t_cross, t + tp.tBL + tp.tRTRS);
    EXPECT_EQ(dev.earliestIssueAt(rd0), t + tp.tCCD);
    EXPECT_EQ(dev.earliestIssueAt(rd1), t + tp.tBL + tp.tRTRS);
    setPanicThrows(false);
}

TEST(DramMultiRank, IndependentRefreshEngines)
{
    CellModel cell;
    SenseAmpModel sa(cell);
    TimingDerate derate(sa);
    DramGeometry geom;
    geom.ranks = 2;
    DramDevice dev(geom, TimingParams{}, derate);
    const Cycle due = dev.refresh(RankId{0}).nextDueAt();
    Command ref0;
    ref0.type = CmdType::kRef;
    ref0.rank = RankId{0};
    dev.issue(ref0, due);
    EXPECT_EQ(dev.refresh(RankId{0}).refreshesDone(), 1u);
    EXPECT_EQ(dev.refresh(RankId{1}).refreshesDone(), 0u);
    // Rank 1's banks are unaffected by rank 0's tRFC window.
    Command act1;
    act1.type = CmdType::kAct;
    act1.rank = RankId{1};
    act1.row = RowId{5};
    act1.actTiming = RowTiming{12, 30, 42};
    EXPECT_TRUE(dev.canIssue(act1, due + 1));
}

TEST(DramValidate, TimingConsistency)
{
    setPanicThrows(true);
    TimingParams tp;
    tp.tRC = 41; // != tRAS + tRP
    EXPECT_THROW(tp.validate(), std::logic_error);
    setPanicThrows(false);
}

TEST(DramValidate, GeometryPowersOfTwo)
{
    setPanicThrows(true);
    DramGeometry g;
    g.rows = 8000;
    EXPECT_THROW(g.validate(), std::logic_error);
    setPanicThrows(false);
}

} // namespace
} // namespace nuat
