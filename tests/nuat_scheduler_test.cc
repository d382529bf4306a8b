/**
 * @file
 * NUAT scheduler tests: command decoration (rated ACT timing, PPM
 * auto-precharge), degenerate-weight equivalences with the classic
 * baselines, the starvation escape, and pick() against a reference
 * argmax on random full-weight candidate mixes.
 */

#include <gtest/gtest.h>

#include <memory>

#include "charge/timing_derate.hh"
#include "common/random.hh"
#include "core/nuat_scheduler.hh"
#include "sched/fcfs_scheduler.hh"
#include "sched/frfcfs_scheduler.hh"

namespace nuat {
namespace {

class NuatSchedulerTest : public ::testing::Test
{
  protected:
    NuatSchedulerTest() : cell_(), sa_(cell_), derate_(sa_)
    {
        dev_ = std::make_unique<DramDevice>(DramGeometry{},
                                            TimingParams{}, derate_);
        cfg_ = NuatConfig::fromDerate(derate_, 5);
    }

    SchedContext
    ctx(Cycle now = 1000, std::size_t wq = 0) const
    {
        SchedContext c;
        c.now = now;
        c.dev = dev_.get();
        c.readQLen = 4;
        c.writeQLen = wq;
        c.wqHighWatermark = 40;
        c.wqLowWatermark = 20;
        return c;
    }

    Candidate
    actCand(std::uint32_t row, Request *req, Cycle arrival,
            bool write = false) const
    {
        Candidate c;
        c.cmd.type = CmdType::kAct;
        c.cmd.row = RowId{row};
        c.cmd.actTiming = RowTiming{12, 30, 42};
        c.req = req;
        c.isWrite = write;
        req->arrivalAt = arrival;
        req->isWrite = write;
        return c;
    }

    Candidate
    colCand(CmdType type, Request *req, Cycle arrival,
            bool more_pending = false) const
    {
        Candidate c;
        c.cmd.type = type;
        c.cmd.bank = BankId{0};
        c.req = req;
        c.isWrite = (type == CmdType::kWrite);
        c.isRowHit = true;
        c.morePendingToRow = more_pending;
        req->arrivalAt = arrival;
        req->isWrite = c.isWrite;
        return c;
    }

    /** Row that currently sits in @p pb (by construction from ages). */
    std::uint32_t
    rowInPb(unsigned pb) const
    {
        // Group start slices: 0, 3, 8, 14, 22; use the group middle.
        static const unsigned start[5] = {0, 3, 8, 14, 22};
        const std::uint32_t age = (start[pb] * 256) + 128;
        const auto &refresh = dev_->refresh(RankId{0});
        return (refresh.lrra().value() + refresh.rows() - age) %
               refresh.rows();
    }

    CellModel cell_;
    SenseAmpModel sa_;
    TimingDerate derate_;
    std::unique_ptr<DramDevice> dev_;
    NuatConfig cfg_;
};

TEST_F(NuatSchedulerTest, DecoratesActWithRatedPbTiming)
{
    NuatScheduler sched(cfg_);
    Request r;
    std::vector<Candidate> cands = {actCand(rowInPb(0), &r, 990)};
    ASSERT_EQ(sched.pick(cands, ctx()), 0);
    EXPECT_EQ(cands[0].cmd.actTiming.trcd, 8u);
    EXPECT_EQ(cands[0].cmd.actTiming.tras, 22u);
    EXPECT_EQ(cands[0].cmd.actTiming.trc, 34u);
    EXPECT_EQ(sched.actsPerPb()[0], 1u);
}

TEST_F(NuatSchedulerTest, SlowPbGetsNominalTiming)
{
    NuatScheduler sched(cfg_);
    Request r;
    std::vector<Candidate> cands = {actCand(rowInPb(4), &r, 990)};
    ASSERT_EQ(sched.pick(cands, ctx()), 0);
    EXPECT_EQ(cands[0].cmd.actTiming.trcd, 12u);
    EXPECT_EQ(cands[0].cmd.actTiming.trc, 42u);
}

TEST_F(NuatSchedulerTest, FasterPbWinsAmongActs)
{
    NuatScheduler sched(cfg_);
    Request r0, r4;
    // Ages stay under the starvation limit so the pure Table 1
    // ordering applies.
    std::vector<Candidate> cands = {
        actCand(rowInPb(4), &r4, 900), // older but slow
        actCand(rowInPb(0), &r0, 990),
    };
    EXPECT_EQ(sched.pick(cands, ctx()), 1);
}

TEST_F(NuatSchedulerTest, RowHitBeatsFastPbAct)
{
    NuatScheduler sched(cfg_);
    Request rh, ra;
    std::vector<Candidate> cands = {
        actCand(rowInPb(0), &ra, 900),
        colCand(CmdType::kRead, &rh, 990),
    };
    EXPECT_EQ(sched.pick(cands, ctx()), 1);
}

TEST_F(NuatSchedulerTest, PpmConvertsToAutoPrechargeOnLowHitRate)
{
    // PHRC starts optimistic (1.0) -> open; after many activation-only
    // sub-windows the estimate collapses and PPM switches to close.
    NuatScheduler sched(cfg_);
    // Open a row so PPM has an open row to classify.
    dev_->issue(Command{CmdType::kAct, RankId{0}, BankId{0},
                        dev_->refresh(RankId{0}).lrra(), 0,
                        RowTiming{12, 30, 42}},
                0);
    Request r;
    {
        std::vector<Candidate> cands = {colCand(CmdType::kRead, &r, 0)};
        sched.pick(cands, ctx(1));
        EXPECT_EQ(cands[0].cmd.type, CmdType::kRead) << "optimistic";
    }
    // Feed PHRC a miss-heavy history.
    SchedContext c = ctx(2);
    for (int i = 0; i < 300000; ++i) {
        if (i % 3 == 0) {
            Command act;
            act.type = CmdType::kAct;
            sched.onIssue(act, c);
            Command rd;
            rd.type = CmdType::kRead;
            sched.onIssue(rd, c);
        }
        sched.tick(c);
    }
    EXPECT_LT(sched.phrc().hitRate(), 0.3);
    {
        std::vector<Candidate> cands = {colCand(CmdType::kRead, &r, 0)};
        sched.pick(cands, ctx(3));
        EXPECT_EQ(cands[0].cmd.type, CmdType::kReadAp);
        EXPECT_GT(sched.ppmCloseDecisions(), 0u);
    }
}

TEST_F(NuatSchedulerTest, PpmDisabledNeverConverts)
{
    NuatConfig cfg = cfg_;
    cfg.ppmEnabled = false;
    NuatScheduler sched(cfg);
    dev_->issue(Command{CmdType::kAct, RankId{0}, BankId{0},
                        dev_->refresh(RankId{0}).lrra(), 0,
                        RowTiming{12, 30, 42}},
                0);
    Request r;
    std::vector<Candidate> cands = {colCand(CmdType::kRead, &r, 0)};
    sched.pick(cands, ctx(1));
    EXPECT_EQ(cands[0].cmd.type, CmdType::kRead);
    EXPECT_EQ(sched.ppmOpenDecisions() + sched.ppmCloseDecisions(), 0u);
}

TEST_F(NuatSchedulerTest, StarvationEscapeLiftsOldRequests)
{
    NuatScheduler sched(cfg_); // default limit 200
    Request old_slow, young_fast;
    std::vector<Candidate> cands = {
        actCand(rowInPb(4), &old_slow, 500),
        actCand(rowInPb(0), &young_fast, 990),
    };
    // Age 500 at now = 1000 exceeds the 200-cycle limit: the slow
    // request escapes above the PB ordering.
    EXPECT_EQ(sched.pick(cands, ctx(1000)), 0);
}

TEST_F(NuatSchedulerTest, PaperPureModeAllowsStarvation)
{
    NuatConfig cfg = cfg_;
    cfg.starvationLimit = 0; // paper-pure
    NuatScheduler sched(cfg);
    Request old_slow, young_fast;
    std::vector<Candidate> cands = {
        actCand(rowInPb(4), &old_slow, 0),
        actCand(rowInPb(0), &young_fast, 990),
    };
    EXPECT_EQ(sched.pick(cands, ctx(1000)), 1);
}

TEST_F(NuatSchedulerTest, DegenerateW1W2MatchesFcfs)
{
    // Paper Sec. 7.2: only w1/w2 active == FCFS.  Compare picks on
    // random candidate sets.
    NuatConfig cfg = cfg_;
    cfg.weights.w3 = 0.0;
    cfg.weights.w4 = 0.0;
    cfg.weights.w5 = 0.0;
    cfg.ppmEnabled = false;
    cfg.starvationLimit = 0;
    NuatScheduler nuat(cfg);
    FcfsScheduler fcfs;

    Rng rng(31);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<Request> reqs(4);
        std::vector<Candidate> a, b;
        for (std::size_t i = 0; i < 4; ++i) {
            const bool write = rng.chance(0.4);
            Candidate c =
                write ? colCand(rng.chance(0.5) ? CmdType::kWrite
                                                : CmdType::kRead,
                                &reqs[i], rng.below(900))
                      : actCand(rowInPb(static_cast<unsigned>(
                                    rng.below(5))),
                                &reqs[i], rng.below(900));
            c.isWrite = write;
            reqs[i].isWrite = write;
            a.push_back(c);
            b.push_back(c);
        }
        const SchedContext c = ctx(1000, rng.below(60));
        EXPECT_EQ(nuat.pick(a, c), fcfs.pick(b, c))
            << "trial " << trial;
    }
}

TEST_F(NuatSchedulerTest, DegenerateW1W2W3MatchesFrFcfsOnReadSets)
{
    // With w4 = w5 = 0 and only reads in flight, the scoring order is
    // exactly FR-FCFS: hits first, then oldest.
    NuatConfig cfg = cfg_;
    cfg.weights.w4 = 0.0;
    cfg.weights.w5 = 0.0;
    cfg.ppmEnabled = false;
    cfg.starvationLimit = 0;
    NuatScheduler nuat(cfg);
    FrFcfsScheduler frfcfs(PagePolicy::kOpen);

    Rng rng(77);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<Request> reqs(5);
        std::vector<Candidate> a, b;
        for (std::size_t i = 0; i < 5; ++i) {
            Candidate c =
                rng.chance(0.5)
                    ? colCand(CmdType::kRead, &reqs[i],
                              rng.below(900))
                    : actCand(rowInPb(static_cast<unsigned>(
                                  rng.below(5))),
                              &reqs[i], rng.below(900));
            a.push_back(c);
            b.push_back(c);
        }
        const SchedContext c = ctx(1000, 0);
        EXPECT_EQ(nuat.pick(a, c), frfcfs.pick(b, c))
            << "trial " << trial;
    }
}

TEST_F(NuatSchedulerTest, PickMatchesReferenceArgmaxOnRandomMixes)
{
    // Full Table 1 weights with the starvation escape on: pick() must
    // return the candidate a reference argmax chooses, scoring with
    // es1..es5 plus the boost and breaking ties by oldest arrival.
    const PbrAcquisition pbr(cfg_, dev_->geometry().rows);
    const RefreshEngine &refresh = dev_->refreshFor(RankId{0}, BankId{0});
    // Rows in a transition region, so Element 5 is exercised too.
    std::vector<std::uint32_t> zoned;
    for (std::uint32_t row = 0; row < refresh.rows(); ++row)
        if (pbr.zoneOfRow(refresh, RowId{row}) != BoundaryZone::kNone)
            zoned.push_back(row);
    ASSERT_FALSE(zoned.empty());
    ASSERT_GT(cfg_.starvationLimit, 0u);

    auto reference = [&](const NuatTable &t,
                         const std::vector<Candidate> &cands, Cycle now,
                         bool draining, unsigned *boosted,
                         unsigned *tie_breaks) {
        const double boost = 10.0 * (t.weights().w1 + 2.0 * t.weights().w3);
        int best = -1;
        double best_score = 0.0;
        Cycle best_arrival = kNeverCycle;
        for (std::size_t i = 0; i < cands.size(); ++i) {
            const Candidate &c = cands[i];
            ScoreInputs in;
            in.cmd = c.cmd.type;
            in.isWrite = c.isWrite;
            in.isRowHit = c.isRowHit;
            in.waitCycles = c.req ? now - c.req->arrivalAt : Cycle{0};
            in.draining = draining;
            in.numPb = cfg_.numPb();
            if (c.cmd.type == CmdType::kAct) {
                in.pb = pbr.pbOfRow(refresh, c.cmd.row);
                in.zone = pbr.zoneOfRow(refresh, c.cmd.row);
            }
            double s = t.es1(in) + t.es2(in) + t.es3(in) + t.es4(in) +
                       t.es5(in);
            if (in.waitCycles > cfg_.starvationLimit) {
                s += boost;
                ++*boosted;
            }
            const Cycle arrival = c.req ? c.req->arrivalAt : kNeverCycle;
            if (best >= 0 && s == best_score && arrival < best_arrival)
                ++*tie_breaks;
            if (best < 0 || s > best_score ||
                (s == best_score && arrival < best_arrival)) {
                best = static_cast<int>(i);
                best_score = s;
                best_arrival = arrival;
            }
        }
        return best;
    };

    Rng rng(0x9a1c7u);
    unsigned boosted = 0;
    unsigned tie_breaks = 0;
    for (int round = 0; round < 100; ++round) {
        NuatConfig cfg = cfg_;
        cfg.pbElementEnabled = rng.chance(0.5);
        cfg.boundaryElementEnabled = rng.chance(0.5);
        NuatScheduler sched(cfg);
        const NuatTable table(cfg);
        // Several picks per scheduler, so the write-drain hysteresis
        // carries state between them.
        for (int trial = 0; trial < 10; ++trial) {
            const Cycle now = 1000 + static_cast<Cycle>(trial);
            const std::size_t n = 1 + rng.below(12);
            std::vector<Request> reqs(n);
            std::vector<Candidate> cands;
            for (std::size_t i = 0; i < n; ++i) {
                // Waits straddle the 200-cycle starvation limit.
                const Cycle arrival = now - rng.below(400);
                const bool write = rng.chance(0.4);
                const std::uint64_t kind = rng.below(4);
                if (kind == 0) {
                    auto row =
                        static_cast<std::uint32_t>(rng.below(refresh.rows()));
                    if (rng.chance(0.5))
                        row = zoned[rng.below(zoned.size())];
                    cands.push_back(actCand(row, &reqs[i], arrival, write));
                } else if (kind == 1) {
                    cands.push_back(
                        colCand(CmdType::kRead, &reqs[i], arrival));
                } else if (kind == 2) {
                    cands.push_back(
                        colCand(CmdType::kWrite, &reqs[i], arrival));
                } else {
                    Candidate c = actCand(0, &reqs[i], arrival, write);
                    c.cmd.type = CmdType::kPre;
                    if (rng.chance(0.25))
                        c.req = nullptr; // no driving request
                    cands.push_back(c);
                }
            }
            const std::vector<Candidate> before = cands;
            const int got = sched.pick(cands, ctx(now, rng.below(60)));
            EXPECT_EQ(got, reference(table, before, now, sched.draining(),
                                     &boosted, &tie_breaks))
                << "round " << round << " trial " << trial;
        }
    }
    // The mixes reached the boost and the arrival tie-break.
    EXPECT_GT(boosted, 0u);
    EXPECT_GT(tie_breaks, 0u);
}

} // namespace
} // namespace nuat
