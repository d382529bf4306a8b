/**
 * @file
 * Mutation self-test of the shadow protocol auditor.
 *
 * A verification tool is only trustworthy if it demonstrably catches
 * the bugs it exists for, so every DDR3 rule the auditor implements is
 * exercised twice here: once with a legal command sequence (expecting
 * silence) and once with a deliberately corrupted sequence — a timing
 * shaved by one cycle, a skipped PRE, a late REF — expecting exactly
 * that rule to fire.  Also covers trace capture -> replay round trips.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "charge/cell_model.hh"
#include "charge/sense_amp_model.hh"
#include "charge/timing_derate.hh"
#include "dram/dram_spec.hh"
#include "dram/refresh_engine.hh"
#include "fault/fault_model.hh"
#include "fault/fault_profile.hh"
#include "verify/protocol_auditor.hh"
#include "verify/trace_capture.hh"

using namespace nuat;

namespace {

// Default DDR3-1600 numbers the sequences below are hand-computed for
// (tRCD 12, tRAS 30, tRP 12, tRC 42, tCL 11, tCWL 8, tBL 4, tCCD 4,
// tRRD 6, tFAW 32, tWTR 6, tRTW 2, tRTP 6, tWR 12).
constexpr RowTiming kNominal{12, 30, 42};

Command
act(unsigned bank, std::uint32_t row, RowTiming timing = kNominal)
{
    Command cmd;
    cmd.type = CmdType::kAct;
    cmd.bank = BankId{bank};
    cmd.row = RowId{row};
    cmd.actTiming = timing;
    return cmd;
}

Command
col(CmdType type, unsigned bank)
{
    Command cmd;
    cmd.type = type;
    cmd.bank = BankId{bank};
    return cmd;
}

Command
pre(unsigned bank)
{
    Command cmd;
    cmd.type = CmdType::kPre;
    cmd.bank = BankId{bank};
    return cmd;
}

Command
ref()
{
    Command cmd;
    cmd.type = CmdType::kRef;
    return cmd;
}

ProtocolAuditor
makeAuditor()
{
    return ProtocolAuditor{AuditorConfig{}};
}

/** Auditor for a generation preset, optionally overriding the
 *  refresh flavour (mirrors ExperimentConfig::applyDramGen). */
ProtocolAuditor
makeAuditorFor(DramGen gen, RefreshMode mode)
{
    const DramSpec &spec = DramSpec::preset(gen);
    AuditorConfig cfg;
    cfg.geometry = spec.geometry;
    cfg.timing = spec.timing;
    cfg.timing.refreshMode = mode;
    return ProtocolAuditor{cfg};
}

Command
refsb(unsigned bank)
{
    Command cmd;
    cmd.type = CmdType::kRefsb;
    cmd.bank = BankId{bank};
    return cmd;
}

} // namespace

TEST(AuditorTest, LegalSequenceIsSilent)
{
    ProtocolAuditor auditor = makeAuditor();
    auditor.observe(act(0, 5), 10);
    auditor.observe(col(CmdType::kRead, 0), 22);  // tRCD met exactly
    auditor.observe(col(CmdType::kRead, 0), 26);  // tCCD met exactly
    auditor.observe(pre(0), 40);                  // tRAS / tRTP met
    auditor.observe(act(0, 6), 52);               // tRP / tRC met
    auditor.observe(col(CmdType::kReadAp, 0), 64);
    EXPECT_EQ(auditor.violationCount(), 0u);
    EXPECT_EQ(auditor.commandsChecked(), 6u);
}

TEST(AuditorTest, CatchesTrcdShavedByOneCycle)
{
    ProtocolAuditor auditor = makeAuditor();
    auditor.observe(act(0, 5), 10);
    auditor.observe(col(CmdType::kRead, 0), 21); // one cycle early
    EXPECT_EQ(auditor.violationCount(AuditRule::kTrcd), 1u);
    EXPECT_EQ(auditor.violationCount(), 1u);
}

TEST(AuditorTest, CatchesTrpViolation)
{
    ProtocolAuditor auditor = makeAuditor();
    auditor.observe(act(0, 5), 0);
    auditor.observe(pre(0), 35);
    auditor.observe(act(0, 6), 46); // precharge completes at 47
    EXPECT_EQ(auditor.violationCount(AuditRule::kTrp), 1u);
    EXPECT_EQ(auditor.violationCount(), 1u);
}

TEST(AuditorTest, CatchesTrasViolation)
{
    ProtocolAuditor auditor = makeAuditor();
    auditor.observe(act(0, 5), 0);
    auditor.observe(pre(0), 29); // one cycle before ACT + tRAS
    EXPECT_EQ(auditor.violationCount(AuditRule::kTras), 1u);
    EXPECT_EQ(auditor.violationCount(), 1u);
}

TEST(AuditorTest, CatchesTrcViolation)
{
    // With the default parameters tRC == tRAS + tRP, so the PRE path
    // always subsumes tRC; a slow custom tRC makes it bind alone.
    ProtocolAuditor auditor = makeAuditor();
    auditor.observe(act(0, 5, RowTiming{12, 30, 50}), 0);
    auditor.observe(pre(0), 30);
    auditor.observe(act(0, 6), 45); // tRP fine (42), tRC 50 not
    EXPECT_EQ(auditor.violationCount(AuditRule::kTrc), 1u);
    EXPECT_EQ(auditor.violationCount(), 1u);
}

TEST(AuditorTest, CatchesTrrdViolation)
{
    // DDR3 has one bank group with tRRD_L == tRRD, so shaving tRRD
    // necessarily trips the group rule too: both must fire.
    ProtocolAuditor auditor = makeAuditor();
    auditor.observe(act(0, 5), 0);
    auditor.observe(act(1, 5), 5); // one cycle inside tRRD
    EXPECT_EQ(auditor.violationCount(AuditRule::kTrrd), 1u);
    EXPECT_EQ(auditor.violationCount(AuditRule::kTrrdL), 1u);
    EXPECT_EQ(auditor.violationCount(), 2u);
}

TEST(AuditorTest, CatchesTfawViolation)
{
    ProtocolAuditor auditor = makeAuditor();
    auditor.observe(act(0, 5), 0);
    auditor.observe(act(1, 5), 6);
    auditor.observe(act(2, 5), 12);
    auditor.observe(act(3, 5), 18);
    auditor.observe(act(4, 5), 24); // tRRD fine, 4-ACT window is not
    EXPECT_EQ(auditor.violationCount(AuditRule::kTfaw), 1u);
    EXPECT_EQ(auditor.violationCount(), 1u);
}

TEST(AuditorTest, CatchesTccdViolation)
{
    // As with tRRD above: at DDR3, tCCD_L degenerates to tCCD, so the
    // group rule fires alongside the channel rule.
    ProtocolAuditor auditor = makeAuditor();
    auditor.observe(act(0, 5), 0);
    auditor.observe(col(CmdType::kRead, 0), 12);
    auditor.observe(col(CmdType::kRead, 0), 15); // one inside tCCD
    EXPECT_EQ(auditor.violationCount(AuditRule::kTccd), 1u);
    EXPECT_EQ(auditor.violationCount(AuditRule::kTccdL), 1u);
    EXPECT_EQ(auditor.violationCount(), 2u);
}

TEST(AuditorTest, CatchesTrrdLWithinOneBankGroup)
{
    // DDR4-2400: tRRD_S 4, tRRD_L 6, 4 bank groups (group = bank % 4).
    // Banks 0 and 4 share group 0, so a 5-cycle gap passes the rank
    // rule but violates the group rule — tRRD_L must fire alone.
    ProtocolAuditor auditor =
        makeAuditorFor(DramGen::kDdr4_2400, RefreshMode::kAllBank);
    const RowTiming nom{17, 39, 56};
    auditor.observe(act(0, 5, nom), 0);
    auditor.observe(act(4, 5, nom), 5);
    EXPECT_EQ(auditor.violationCount(AuditRule::kTrrdL), 1u);
    EXPECT_EQ(auditor.violationCount(AuditRule::kTrrd), 0u);
    EXPECT_EQ(auditor.violationCount(), 1u);

    // Same spacing across two groups is fully legal.
    ProtocolAuditor across =
        makeAuditorFor(DramGen::kDdr4_2400, RefreshMode::kAllBank);
    across.observe(act(0, 5, nom), 0);
    across.observe(act(1, 5, nom), 5);
    EXPECT_EQ(across.violationCount(), 0u);
}

TEST(AuditorTest, CatchesTccdLWithinOneBankGroup)
{
    // DDR4-2400: tCCD_S 4, tCCD_L 6.  Back-to-back reads 4 cycles
    // apart are legal across groups, illegal inside one.
    ProtocolAuditor auditor =
        makeAuditorFor(DramGen::kDdr4_2400, RefreshMode::kAllBank);
    const RowTiming nom{17, 39, 56};
    auditor.observe(act(0, 5, nom), 0);
    auditor.observe(col(CmdType::kRead, 0), 17);
    auditor.observe(col(CmdType::kRead, 0), 21); // inside tCCD_L
    EXPECT_EQ(auditor.violationCount(AuditRule::kTccdL), 1u);
    EXPECT_EQ(auditor.violationCount(AuditRule::kTccd), 0u);
    EXPECT_EQ(auditor.violationCount(), 1u);

    ProtocolAuditor across =
        makeAuditorFor(DramGen::kDdr4_2400, RefreshMode::kAllBank);
    across.observe(act(0, 5, nom), 0);
    across.observe(act(1, 5, nom), 6);
    across.observe(col(CmdType::kRead, 0), 23);
    across.observe(col(CmdType::kRead, 1), 27); // other group: legal
    EXPECT_EQ(across.violationCount(), 0u);
}

// DDR5-4800 per-bank refresh numbers the REFsb sequences below are
// hand-computed for: refInterval = tREFI(9360) x rowsPerRef(8) =
// 74880, step = 74880 / 32 banks = 2340, so bank b is first due at
// 74880 - (31 - b) * 2340 — bank 0 at 2340, bank 1 at 4680.  tRFCpb
// 312, tREFSBRD 72, maxRefreshSlack 1200000.

TEST(AuditorTest, CatchesRefsbUnderAllBankMode)
{
    // The per-bank command is illegal for a device configured for
    // all-bank REF, whatever its generation.
    ProtocolAuditor auditor = makeAuditor();
    auditor.observe(refsb(0), 100);
    EXPECT_EQ(auditor.violationCount(AuditRule::kRefsb), 1u);
    EXPECT_EQ(auditor.violationCount(), 1u);
}

TEST(AuditorTest, CatchesAllBankRefUnderPerBankMode)
{
    ProtocolAuditor auditor =
        makeAuditorFor(DramGen::kDdr5_4800, RefreshMode::kPerBank);
    auditor.observe(ref(), 2340);
    EXPECT_EQ(auditor.violationCount(AuditRule::kRefsb), 1u);
    EXPECT_EQ(auditor.violationCount(), 1u);
}

TEST(AuditorTest, LegalPerBankRefreshIsSilent)
{
    ProtocolAuditor auditor =
        makeAuditorFor(DramGen::kDdr5_4800, RefreshMode::kPerBank);
    auditor.observe(refsb(0), 2340); // exactly on its staggered slot
    auditor.observe(refsb(1), 4680);
    EXPECT_EQ(auditor.violationCount(), 0u);
    EXPECT_EQ(auditor.commandsChecked(), 2u);
}

TEST(AuditorTest, CatchesRefsbSpacingViolation)
{
    // Second REFSB to the same rank one cycle inside tREFSBRD.
    ProtocolAuditor auditor =
        makeAuditorFor(DramGen::kDdr5_4800, RefreshMode::kPerBank);
    auditor.observe(refsb(0), 2340);
    auditor.observe(refsb(1), 2411); // 71 < tREFSBRD 72
    EXPECT_EQ(auditor.violationCount(AuditRule::kRefsb), 1u);
    EXPECT_EQ(auditor.violationCount(), 1u);
}

TEST(AuditorTest, CatchesRefsbInsideTrfcPb)
{
    // Re-refreshing a bank that is still busy with its previous REFSB.
    ProtocolAuditor auditor =
        makeAuditorFor(DramGen::kDdr5_4800, RefreshMode::kPerBank);
    auditor.observe(refsb(0), 2340); // busy until 2340 + 312 = 2652
    auditor.observe(refsb(0), 2651); // one cycle early
    EXPECT_EQ(auditor.violationCount(AuditRule::kTrfc), 1u);
    EXPECT_EQ(auditor.violationCount(), 1u);
}

TEST(AuditorTest, CatchesLateRefsb)
{
    ProtocolAuditor auditor =
        makeAuditorFor(DramGen::kDdr5_4800, RefreshMode::kPerBank);
    // Bank 0 due at 2340; one cycle past due + maxRefreshSlack.  That
    // far out the JEDEC postponement budget (8 x tREFI = 74880) is
    // blown too, so the deadline rule fires alongside the slack guard.
    auditor.observe(refsb(0), 2340 + 1200000 + 1);
    EXPECT_EQ(auditor.violationCount(AuditRule::kRefLate), 1u);
    EXPECT_EQ(auditor.violationCount(AuditRule::kRefDeadline), 1u);
    EXPECT_EQ(auditor.violationCount(), 2u);
}

TEST(AuditorTest, CatchesRefsbPostponedPastDeadline)
{
    // Bank 0 due at 2340; the postponement budget ends at due +
    // 8 x tREFI = 2340 + 74880 = 77220.  One cycle later is a
    // deadline violation — long before the coarse slack guard.
    ProtocolAuditor auditor =
        makeAuditorFor(DramGen::kDdr5_4800, RefreshMode::kPerBank);
    auditor.observe(refsb(0), 77221);
    EXPECT_EQ(auditor.violationCount(AuditRule::kRefDeadline), 1u);
    EXPECT_EQ(auditor.violationCount(AuditRule::kRefLate), 0u);
    EXPECT_EQ(auditor.violationCount(), 1u);

    // Exactly on the deadline is still legal.
    ProtocolAuditor on_time =
        makeAuditorFor(DramGen::kDdr5_4800, RefreshMode::kPerBank);
    on_time.observe(refsb(0), 77220);
    EXPECT_EQ(on_time.violationCount(), 0u);
}

TEST(AuditorTest, CatchesRefsbPulledInBeyondBudget)
{
    // A first REFsb at 1000 is a legal pull-in (bank 0 due at 2340,
    // pull-in budget 8 x tREFI = 74880).  It advances the bank's due
    // time to 77220, so a second REFsb at 2000 is 75220 cycles early —
    // beyond the budget by 340.
    ProtocolAuditor auditor =
        makeAuditorFor(DramGen::kDdr5_4800, RefreshMode::kPerBank);
    auditor.observe(refsb(0), 1000);
    auditor.observe(refsb(0), 2000);
    EXPECT_EQ(auditor.violationCount(AuditRule::kRefDeadline), 1u);
    EXPECT_EQ(auditor.violationCount(), 1u);

    // The same second REFsb at 2340 sits exactly on the pull-in
    // boundary (77220 - 74880) and is legal.
    ProtocolAuditor legal =
        makeAuditorFor(DramGen::kDdr5_4800, RefreshMode::kPerBank);
    legal.observe(refsb(0), 1000);
    legal.observe(refsb(0), 2340);
    EXPECT_EQ(legal.violationCount(), 0u);
}

TEST(AuditorTest, CatchesActDuringRefsbWindow)
{
    // Only the refreshing bank is off-limits; its neighbours keep
    // serving — the whole point of per-bank refresh.
    const RowTiming nom{40, 77, 117};
    ProtocolAuditor auditor =
        makeAuditorFor(DramGen::kDdr5_4800, RefreshMode::kPerBank);
    auditor.observe(refsb(0), 2340); // busy until 2652
    auditor.observe(act(0, 5, nom), 2500);
    EXPECT_EQ(auditor.violationCount(AuditRule::kTrfc), 1u);
    EXPECT_EQ(auditor.violationCount(), 1u);

    ProtocolAuditor other =
        makeAuditorFor(DramGen::kDdr5_4800, RefreshMode::kPerBank);
    other.observe(refsb(0), 2340);
    other.observe(act(1, 5, nom), 2500); // different bank: legal
    EXPECT_EQ(other.violationCount(), 0u);
}

TEST(AuditorTest, CatchesTwtrViolation)
{
    ProtocolAuditor auditor = makeAuditor();
    auditor.observe(act(0, 5), 0);
    auditor.observe(col(CmdType::kWrite, 0), 12);
    // Write data ends 12 + tCWL + tBL = 24; read legal from 30.
    auditor.observe(col(CmdType::kRead, 0), 29);
    EXPECT_EQ(auditor.violationCount(AuditRule::kTwtr), 1u);
    EXPECT_EQ(auditor.violationCount(), 1u);
}

TEST(AuditorTest, CatchesReadToWriteTurnaround)
{
    ProtocolAuditor auditor = makeAuditor();
    auditor.observe(act(0, 5), 0);
    auditor.observe(col(CmdType::kRead, 0), 12);
    // Write legal from 12 + tCL + tBL + tRTW - tCWL = 21.
    auditor.observe(col(CmdType::kWrite, 0), 20);
    EXPECT_EQ(auditor.violationCount(AuditRule::kTrtw), 1u);
    EXPECT_EQ(auditor.violationCount(), 1u);
}

TEST(AuditorTest, CatchesTrtpViolation)
{
    ProtocolAuditor auditor = makeAuditor();
    auditor.observe(act(0, 5), 0);
    auditor.observe(col(CmdType::kRead, 0), 26);
    auditor.observe(pre(0), 31); // tRAS fine (30), read + tRTP = 32
    EXPECT_EQ(auditor.violationCount(AuditRule::kTrtp), 1u);
    EXPECT_EQ(auditor.violationCount(), 1u);
}

TEST(AuditorTest, CatchesTwrViolation)
{
    ProtocolAuditor auditor = makeAuditor();
    auditor.observe(act(0, 5), 0);
    auditor.observe(col(CmdType::kWrite, 0), 12);
    // Recovery completes 12 + tCWL + tBL + tWR = 36.
    auditor.observe(pre(0), 35);
    EXPECT_EQ(auditor.violationCount(AuditRule::kTwr), 1u);
    EXPECT_EQ(auditor.violationCount(), 1u);
}

TEST(AuditorTest, CatchesSkippedPrecharge)
{
    ProtocolAuditor auditor = makeAuditor();
    auditor.observe(act(0, 1), 0);
    auditor.observe(act(0, 2), 50); // row 1 still open
    EXPECT_EQ(auditor.violationCount(AuditRule::kBankState), 1u);
}

TEST(AuditorTest, CatchesPreToClosedBank)
{
    ProtocolAuditor auditor = makeAuditor();
    auditor.observe(pre(0), 10);
    EXPECT_EQ(auditor.violationCount(AuditRule::kBankState), 1u);
    EXPECT_EQ(auditor.violationCount(), 1u);
}

TEST(AuditorTest, CatchesColumnToClosedBank)
{
    ProtocolAuditor auditor = makeAuditor();
    auditor.observe(col(CmdType::kRead, 3), 10);
    EXPECT_EQ(auditor.violationCount(AuditRule::kBankState), 1u);
    EXPECT_EQ(auditor.violationCount(), 1u);
}

TEST(AuditorTest, CatchesCommandBusConflict)
{
    ProtocolAuditor auditor = makeAuditor();
    auditor.observe(act(0, 5), 10);
    auditor.observe(act(1, 5), 10); // same bus cycle
    EXPECT_EQ(auditor.violationCount(AuditRule::kBusConflict), 1u);
}

TEST(AuditorTest, CatchesMalformedActTiming)
{
    ProtocolAuditor auditor = makeAuditor();
    auditor.observe(act(0, 5, RowTiming{12, 11, 42}), 0); // tras < trcd
    EXPECT_EQ(auditor.violationCount(AuditRule::kActTiming), 1u);
}

TEST(AuditorTest, CatchesRefWithOpenBank)
{
    ProtocolAuditor auditor = makeAuditor();
    auditor.observe(act(0, 5), 0);
    auditor.observe(ref(), 40);
    EXPECT_EQ(auditor.violationCount(AuditRule::kRefPrecharge), 1u);
    EXPECT_EQ(auditor.violationCount(), 1u);
}

TEST(AuditorTest, CatchesActInsideTrfc)
{
    ProtocolAuditor auditor = makeAuditor();
    auditor.observe(ref(), 0);
    auditor.observe(act(0, 5), 100); // tRFC = 128
    EXPECT_EQ(auditor.violationCount(AuditRule::kTrfc), 1u);
    EXPECT_EQ(auditor.violationCount(), 1u);
}

TEST(AuditorTest, CatchesLateRefresh)
{
    // First REF is due at refInterval() = 49920; the slack guard
    // allows 400000 cycles of slip, so 449921 is one cycle too late.
    // The JEDEC deadline (due + 8 x tREFI = 99840) was blown much
    // earlier, so the finer rule fires alongside it.
    ProtocolAuditor auditor = makeAuditor();
    auditor.observe(ref(), 449921);
    EXPECT_EQ(auditor.violationCount(AuditRule::kRefLate), 1u);
    EXPECT_EQ(auditor.violationCount(AuditRule::kRefDeadline), 1u);
    EXPECT_EQ(auditor.violationCount(), 2u);

    // One cycle inside the slack guard still trips the deadline rule —
    // the guard tolerates more slip than JEDEC's postponement budget.
    ProtocolAuditor in_slack = makeAuditor();
    in_slack.observe(ref(), 449920);
    EXPECT_EQ(in_slack.violationCount(AuditRule::kRefLate), 0u);
    EXPECT_EQ(in_slack.violationCount(AuditRule::kRefDeadline), 1u);
    EXPECT_EQ(in_slack.violationCount(), 1u);

    // Exactly on the JEDEC deadline is fully silent.
    ProtocolAuditor on_time = makeAuditor();
    on_time.observe(ref(), 99840);
    EXPECT_EQ(on_time.violationCount(), 0u);
}

TEST(AuditorTest, CatchesAllBankRefPulledInBeyondBudget)
{
    // A REF at cycle 0 is the maximal legal pull-in (due 49920, budget
    // 8 x tREFI = 49920) and moves the due time to 99840.  A second
    // REF right after its tRFC window (128) is then 99712 early —
    // beyond the budget.
    ProtocolAuditor auditor = makeAuditor();
    auditor.observe(ref(), 0);
    auditor.observe(ref(), 128);
    EXPECT_EQ(auditor.violationCount(AuditRule::kRefDeadline), 1u);
    EXPECT_EQ(auditor.violationCount(), 1u);

    // The same second REF at 49920 sits exactly on the pull-in
    // boundary and is legal.
    ProtocolAuditor legal = makeAuditor();
    legal.observe(ref(), 0);
    legal.observe(ref(), 49920);
    EXPECT_EQ(legal.violationCount(), 0u);
}

TEST(AuditorTest, CatchesChargeSafetyViolation)
{
    const CellModel cell{ChargeParams{}};
    const SenseAmpModel sense_amp{cell};
    const TimingDerate derate{sense_amp};

    AuditorConfig cfg;
    cfg.derate = &derate;
    ProtocolAuditor auditor{cfg};

    // The steady-state preload leaves row 0 one interval short of the
    // full retention period (the PB with the *least* charge) and the
    // last refresh group fresh at cycle 0.  The fastest rated timing
    // (full-charge reductions: tRCD -4, tRAS -8) is therefore safe on
    // row 8191 but a data-corrupting lie on row 0.
    const RowTiming fastest{8, 22, 34};
    auditor.observe(act(0, 8191, fastest), 10);
    EXPECT_EQ(auditor.violationCount(), 0u);
    auditor.observe(act(1, 0, fastest), 20);
    EXPECT_EQ(auditor.violationCount(AuditRule::kChargeSafety), 1u);
    EXPECT_EQ(auditor.violationCount(), 1u);

    // Nominal timing is safe on any row inside the retention period.
    auditor.observe(act(2, 0), 30);
    EXPECT_EQ(auditor.violationCount(), 1u);
}

TEST(AuditorTest, ChargeMarginFiresOnConsecutiveHazardousActsOnly)
{
    const CellModel cell{ChargeParams{}};
    const SenseAmpModel sense_amp{cell};
    const TimingDerate derate{sense_amp};

    // Every row leaks 4x nominal: in the fault world each row's charge
    // looks (clamped to retention) fully drained, so the faulted
    // minimum timing is nominal for every row.
    FaultProfile profile;
    profile.name = "all-weak";
    profile.weakFraction = 1.0;
    profile.weakMultMin = 4.0;
    profile.weakMultMax = 4.0;
    const RefreshEngine re(8192, TimingParams{});
    const FaultModel faults(profile, 1, 1, 8192, re.rowsPerRef(),
                            re.interval(), kMemClock);

    AuditorConfig cfg;
    cfg.derate = &derate;
    cfg.faults = &faults;
    ProtocolAuditor auditor{cfg};

    // Row 4096 sits mid-way through its refresh interval, so its
    // ground-truth rating is tighter than nominal — legal to issue
    // (kChargeSafety silent) yet under the faulted minimum.  Taking
    // the rating at cycle 100 (the latest ACT below) keeps it safe at
    // every earlier cycle too, since ratings only slow with age.
    const RowTiming rated = derate.effective(
        re.elapsedSinceRefresh(RowId{4096}, 100, kMemClock));
    const RowTiming fault_min = derate.effective(derate.retention());
    ASSERT_TRUE(rated.trcd < fault_min.trcd ||
                rated.tras < fault_min.tras || rated.trc < fault_min.trc)
        << "test premise: the natural rating must under-shoot the "
           "faulted requirement";

    // First hazardous ACT: unavoidable discovery, not a violation.
    auditor.observe(act(0, 4096, rated), 10);
    EXPECT_EQ(auditor.violationCount(), 0u);
    // Second consecutive hazardous ACT to the same row: the
    // degradation ladder failed to react — exactly one violation.
    auditor.observe(act(1, 4096, rated), 30);
    EXPECT_EQ(auditor.violationCount(AuditRule::kChargeMargin), 1u);
    EXPECT_EQ(auditor.violationCount(), 1u);
    EXPECT_NE(auditor.report().messages[0].find("charge-margin"),
              std::string::npos);
}

TEST(AuditorTest, ChargeMarginClearedByQuarantinedStyleNominalAct)
{
    const CellModel cell{ChargeParams{}};
    const SenseAmpModel sense_amp{cell};
    const TimingDerate derate{sense_amp};
    FaultProfile profile;
    profile.name = "all-weak";
    profile.weakFraction = 1.0;
    profile.weakMultMin = 4.0;
    profile.weakMultMax = 4.0;
    const RefreshEngine re(8192, TimingParams{});
    const FaultModel faults(profile, 1, 1, 8192, re.rowsPerRef(),
                            re.interval(), kMemClock);

    AuditorConfig cfg;
    cfg.derate = &derate;
    cfg.faults = &faults;
    ProtocolAuditor auditor{cfg};

    const RowTiming rated = derate.effective(
        re.elapsedSinceRefresh(RowId{4096}, 100, kMemClock));

    // Hazard, then a nominal-timing ACT (what a quarantined row
    // issues), then hazard again: never two consecutive hazards, so
    // the rule must stay silent — this models a working guardband.
    auditor.observe(act(0, 4096, rated), 10);
    auditor.observe(act(1, 4096), 30);
    auditor.observe(act(2, 4096, rated), 50);
    auditor.observe(act(3, 4096), 70);
    EXPECT_EQ(auditor.violationCount(AuditRule::kChargeMargin), 0u);
    EXPECT_EQ(auditor.violationCount(), 0u);

    // Without a fault model attached, the same sequence is silent too
    // (the rule does not exist outside fault runs).
    AuditorConfig plain;
    plain.derate = &derate;
    ProtocolAuditor no_faults{plain};
    no_faults.observe(act(0, 4096, rated), 10);
    no_faults.observe(act(1, 4096, rated), 30);
    EXPECT_EQ(no_faults.violationCount(), 0u);
}

TEST(AuditorTest, ViolationMessagesAreCappedButCountsExact)
{
    AuditorConfig cfg;
    cfg.maxMessages = 2;
    ProtocolAuditor auditor{cfg};
    for (Cycle i = 0; i < 5; ++i)
        auditor.observe(pre(0), 10 + 2 * i); // closed bank every time
    EXPECT_EQ(auditor.violationCount(), 5u);
    EXPECT_EQ(auditor.report().messages.size(), 2u);
    EXPECT_NE(auditor.report().messages[0].find("bank-state"),
              std::string::npos);
}

TEST(AuditorTest, ReportMergeAddsCountsAndRules)
{
    ProtocolAuditor a = makeAuditor();
    a.observe(pre(0), 10);
    ProtocolAuditor b = makeAuditor();
    b.observe(act(0, 5), 10);
    b.observe(col(CmdType::kRead, 0), 21); // one cycle inside tRCD

    AuditReport merged;
    merged.merge(a.report(), 8);
    merged.merge(b.report(), 8);
    EXPECT_EQ(merged.commandsChecked, 3u);
    EXPECT_EQ(merged.violations, 2u);
    EXPECT_EQ(merged.violationsByRule[static_cast<std::size_t>(
                  AuditRule::kBankState)],
              1u);
    EXPECT_EQ(merged.violationsByRule[static_cast<std::size_t>(
                  AuditRule::kTrcd)],
              1u);
}

TEST(AuditorTest, TraceRoundTripPreservesVerdict)
{
    const std::string path =
        testing::TempDir() + "auditor_roundtrip.trace";
    {
        CommandTraceWriter writer(path, 1, DramGeometry{},
                                  TimingParams{}, ChargeParams{});
        CommandObserver *tap = writer.channelTap(0);
        tap->onCommand(act(0, 8191), 10);
        tap->onCommand(col(CmdType::kRead, 0), 22);
        tap->onCommand(pre(0), 40);
        ASSERT_TRUE(writer.finish());
        EXPECT_EQ(writer.commandsWritten(), 3u);
    }
    const TraceReplayResult clean = replayCommandTrace(path);
    ASSERT_TRUE(clean.parsed) << clean.error;
    EXPECT_EQ(clean.channels, 1u);
    EXPECT_EQ(clean.report.commandsChecked, 3u);
    EXPECT_EQ(clean.report.violations, 0u);

    // Corrupt the captured read by one cycle: replay must flag tRCD.
    {
        CommandTraceWriter writer(path, 1, DramGeometry{},
                                  TimingParams{}, ChargeParams{});
        CommandObserver *tap = writer.channelTap(0);
        tap->onCommand(act(0, 8191), 10);
        tap->onCommand(col(CmdType::kRead, 0), 21);
        tap->onCommand(pre(0), 40);
        ASSERT_TRUE(writer.finish());
    }
    const TraceReplayResult bad = replayCommandTrace(path);
    ASSERT_TRUE(bad.parsed) << bad.error;
    EXPECT_EQ(bad.report.violations, 1u);
    EXPECT_EQ(bad.report.violationsByRule[static_cast<std::size_t>(
                  AuditRule::kTrcd)],
              1u);
    std::remove(path.c_str());
}

TEST(AuditorTest, ReplayRejectsChannelCountsNoRunProduces)
{
    // A run's channel count is a power of two within kMaxChannels; any
    // other header value is refused before an auditor is built.
    const std::string path = testing::TempDir() + "auditor_channels.trace";
    for (const char *channels : {"3", "4000000000"}) {
        {
            std::ofstream out(path);
            out << "nuat-cmd-trace v1\nchannels " << channels
                << "\nend-header\n";
        }
        const TraceReplayResult res = replayCommandTrace(path);
        EXPECT_FALSE(res.parsed) << channels;
        EXPECT_NE(res.error.find("power of two"), std::string::npos)
            << res.error;
    }
    std::remove(path.c_str());
}

TEST(AuditorTest, ReplayRejectsGarbage)
{
    const std::string path = testing::TempDir() + "auditor_garbage.trace";
    {
        std::ofstream out(path);
        out << "not a trace\n";
    }
    const TraceReplayResult res = replayCommandTrace(path);
    EXPECT_FALSE(res.parsed);
    EXPECT_FALSE(res.error.empty());
    std::remove(path.c_str());
}
