/**
 * @file
 * Memory-controller tests: end-to-end request timing, merging,
 * forwarding, coalescing, refresh forcing, statistics, and quiet ticks
 * that issue exactly what full ticks would.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "charge/timing_derate.hh"
#include "common/random.hh"
#include "dram/dram_spec.hh"
#include "mem/memory_controller.hh"
#include "sched/frfcfs_scheduler.hh"

namespace nuat {
namespace {

struct Completion
{
    Waiter waiter;
    Addr addr;
    Cycle dataAt;
};

class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest() : cell_(), sa_(cell_), derate_(sa_)
    {
        dev_ = std::make_unique<DramDevice>(DramGeometry{},
                                            TimingParams{}, derate_);
        mc_ = std::make_unique<MemoryController>(
            *dev_, std::make_unique<FrFcfsScheduler>(PagePolicy::kOpen));
        mc_->setReadCallback(
            [this](const Waiter &w, Addr a, Cycle at) {
                completions_.push_back(Completion{w, a, at});
            });
    }

    /** Tick until @p cycle (exclusive upper bound on issued work). */
    void
    runTo(Cycle cycle)
    {
        while (now_ < cycle)
            mc_->tick(now_++);
    }

    /** Tick until the controller drains (bounded). */
    void
    drain()
    {
        while (!mc_->idle() && now_ < 1000000)
            mc_->tick(now_++);
        ASSERT_TRUE(mc_->idle());
    }

    Waiter
    waiter(std::uint64_t token) const
    {
        Waiter w;
        w.coreId = 0;
        w.token = token;
        return w;
    }

    CellModel cell_;
    SenseAmpModel sa_;
    TimingDerate derate_;
    std::unique_ptr<DramDevice> dev_;
    std::unique_ptr<MemoryController> mc_;
    std::vector<Completion> completions_;
    Cycle now_ = 0;
    const TimingParams tp_;
};

TEST_F(ControllerTest, ColdReadLatencyIsActPlusClPlusBurst)
{
    mc_->enqueueRead(0x10000, waiter(1), 0);
    drain();
    ASSERT_EQ(completions_.size(), 1u);
    // tick(0) issues the ACT (same-cycle arrival is schedulable),
    // column read at +tRCD, data tCL + tBL later.
    EXPECT_EQ(completions_[0].dataAt, tp_.tRCD + tp_.tCL + tp_.tBL);
    EXPECT_EQ(mc_->stats().readsCompleted, 1u);
}

TEST_F(ControllerTest, RowHitReadSkipsActivation)
{
    mc_->enqueueRead(0x10000, waiter(1), 0);
    mc_->enqueueRead(0x10040, waiter(2), 0); // same row, next line
    drain();
    ASSERT_EQ(completions_.size(), 2u);
    EXPECT_EQ(completions_[1].dataAt - completions_[0].dataAt,
              tp_.tCCD);
    EXPECT_EQ(mc_->stats().rowHitReads, 1u);
    EXPECT_EQ(dev_->counters().acts, 1u);
}

TEST_F(ControllerTest, SameLineReadsMerge)
{
    mc_->enqueueRead(0x10000, waiter(1), 0);
    mc_->enqueueRead(0x10008, waiter(2), 0); // same cache line
    drain();
    ASSERT_EQ(completions_.size(), 2u); // both waiters notified
    EXPECT_EQ(completions_[0].dataAt, completions_[1].dataAt);
    EXPECT_EQ(mc_->stats().readsMerged, 1u);
    EXPECT_EQ(dev_->counters().reads, 1u); // one DRAM access
}

TEST_F(ControllerTest, ReadForwardedFromWriteQueue)
{
    mc_->enqueueWrite(0x20000, 0);
    mc_->enqueueRead(0x20000, waiter(9), 0);
    drain();
    ASSERT_GE(completions_.size(), 1u);
    EXPECT_EQ(completions_[0].dataAt, 0 + ControllerConfig{}.forwardLatency);
    EXPECT_EQ(mc_->stats().readsForwarded, 1u);
}

TEST_F(ControllerTest, WritesCoalesce)
{
    mc_->enqueueWrite(0x30000, 0);
    mc_->enqueueWrite(0x30008, 0); // same line
    drain();
    EXPECT_EQ(mc_->stats().writesCoalesced, 1u);
    EXPECT_EQ(dev_->counters().writes, 1u);
}

TEST_F(ControllerTest, RowConflictPrechargesAndReactivates)
{
    // Two reads to different rows of the same bank.
    const Addr row_a = 0x10000;
    const Addr row_b = 0x10000 + 0x2000ull * 8; // next row, same bank
    mc_->enqueueRead(row_a, waiter(1), 0);
    drain();
    completions_.clear();
    const Cycle start = now_;
    mc_->enqueueRead(row_b, waiter(2), now_);
    drain();
    ASSERT_EQ(completions_.size(), 1u);
    // PRE (tRP) + ACT (tRCD) + CL + BL, give or take issue alignment.
    EXPECT_GE(completions_[0].dataAt - start,
              tp_.tRP + tp_.tRCD + tp_.tCL + tp_.tBL);
    EXPECT_EQ(dev_->counters().pres, 1u);
}

TEST_F(ControllerTest, BackpressureReportsNoRoom)
{
    // Fill the read queue with reads to distinct lines in distinct
    // rows so nothing merges.
    std::size_t accepted = 0;
    for (std::uint64_t i = 0; i < 100; ++i) {
        const Addr a = i * 0x2000ull * 8; // distinct banks/rows
        if (!mc_->canAcceptRead(a))
            break;
        mc_->enqueueRead(a, waiter(i), 0);
        ++accepted;
    }
    EXPECT_EQ(accepted, ControllerConfig{}.readQueueCapacity);
    drain();
    EXPECT_EQ(completions_.size(), accepted);
}

TEST_F(ControllerTest, RefreshForcedOnSchedule)
{
    // Run long enough to cross two REF deadlines with an open row.
    mc_->enqueueRead(0x10000, waiter(1), 0);
    runTo(2 * tp_.refInterval() + 1000);
    EXPECT_GE(dev_->counters().refreshes, 2u);
}

TEST_F(ControllerTest, RefreshDrainsOpenBanksFirst)
{
    // Keep a row open right up to the refresh deadline; the controller
    // must precharge it and still refresh within the slack window.
    const Cycle due = dev_->refresh(RankId{0}).nextDueAt();
    runTo(due - 5);
    mc_->enqueueRead(0x10000, waiter(1), now_);
    runTo(due + tp_.tRAS + tp_.tRP + tp_.tRFC + 50);
    EXPECT_EQ(dev_->counters().refreshes, 1u);
}

TEST_F(ControllerTest, HitRateEq3MatchesCounters)
{
    mc_->enqueueRead(0x10000, waiter(1), 0);
    mc_->enqueueRead(0x10040, waiter(2), 0);
    mc_->enqueueRead(0x10080, waiter(3), 0);
    drain();
    // The counters behind the paper's eq. (3) hit rate, (3 - 1) / 3,
    // which System::run computes from the merged DeviceCounters.
    EXPECT_EQ(dev_->counters().acts, 1u);
    EXPECT_EQ(dev_->counters().reads, 3u);
}

TEST_F(ControllerTest, LatencyStatsAccumulate)
{
    mc_->enqueueRead(0x10000, waiter(1), 0);
    drain();
    const double lat = mc_->stats().avgReadLatency();
    EXPECT_DOUBLE_EQ(lat,
                     static_cast<double>(tp_.tRCD + tp_.tCL + tp_.tBL));
}

TEST_F(ControllerTest, IdleWhenDrained)
{
    EXPECT_TRUE(mc_->idle());
    mc_->enqueueWrite(0x40, 0);
    EXPECT_FALSE(mc_->idle());
    drain();
    EXPECT_TRUE(mc_->idle());
}

/** Every issued command as one "cycle name rank bank row" line. */
class CommandLog : public CommandObserver
{
  public:
    void
    onCommand(const Command &cmd, Cycle now) override
    {
        lines.push_back(std::to_string(now) + " " + cmd.name() + " " +
                        std::to_string(cmd.rank.value()) + " " +
                        std::to_string(cmd.bank.value()) + " " +
                        std::to_string(cmd.row.value()));
    }

    std::vector<std::string> lines;
};

/** A device on @p spec's clock and charge model, its controller, and
 *  a log of what the device issued. */
struct LoggedChannel
{
    LoggedChannel(const DramSpec &spec, const DramGeometry &geom,
                  const TimingParams &tp, const ControllerConfig &cfg)
        : sa(cell),
          derate(sa, NominalTiming{tp.tRCD, tp.tRAS, tp.tRP},
                 spec.clock()),
          dev(geom, tp, derate, spec.clock()),
          mc(dev, std::make_unique<FrFcfsScheduler>(PagePolicy::kOpen),
             cfg)
    {
        dev.addObserver(&log);
    }

    CellModel cell;
    SenseAmpModel sa;
    TimingDerate derate;
    DramDevice dev;
    MemoryController mc;
    CommandLog log;
};

/**
 * Drive a channel with quiet ticks and one without through the same
 * seeded request stream (arrival chance @p load per cycle, onto
 * @p hot_banks banks of every rank and 4 rows each) for @p cycles, and
 * require the same command on the same cycle throughout.
 */
void
expectQuietTicksIssueAlike(const DramSpec &spec, DramGeometry geom,
                           const TimingParams &tp, RefreshPolicy policy,
                           double load, unsigned hot_banks, Cycle cycles)
{
    ControllerConfig cfg;
    cfg.refreshPolicy = policy;
    cfg.idleFastForward = true;
    LoggedChannel quiet(spec, geom, tp, cfg);
    cfg.idleFastForward = false;
    LoggedChannel full(spec, geom, tp, cfg);

    Rng rng(0x9e1e7);
    for (Cycle now = 0; now < cycles; ++now) {
        if (rng.chance(load)) {
            DramCoord c;
            c.rank = RankId{static_cast<unsigned>(rng.below(geom.ranks))};
            c.bank = BankId{static_cast<unsigned>(rng.below(hot_banks))};
            c.row = RowId{static_cast<std::uint32_t>(rng.below(4))};
            c.col = static_cast<std::uint32_t>(rng.below(16));
            const Addr addr = quiet.mc.mapping().compose(c);
            const bool write = rng.chance(0.3);
            const Waiter w{0, now};
            for (LoggedChannel *ch : {&quiet, &full}) {
                if (write ? !ch->mc.canAcceptWrite(addr)
                          : !ch->mc.canAcceptRead(addr))
                    continue;
                if (write)
                    ch->mc.enqueueWrite(addr, now);
                else
                    ch->mc.enqueueRead(addr, w, now);
            }
        }
        quiet.mc.tick(now);
        full.mc.tick(now);
    }

    const std::vector<std::string> &a = quiet.log.lines;
    const std::vector<std::string> &b = full.log.lines;
    ASSERT_GT(b.size(), 100u);
    EXPECT_GT(quiet.dev.counters().refreshes, 0u);
    std::size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i])
        ++i;
    if (i < a.size() || i < b.size()) {
        ADD_FAILURE() << "command " << i << " differs: quiet ticks '"
                      << (i < a.size() ? a[i] : "(none)")
                      << "', full ticks '"
                      << (i < b.size() ? b[i] : "(none)") << "'";
    }
    EXPECT_EQ(quiet.mc.stats().idleCycles, full.mc.stats().idleCycles);
}

// A quiet tick skips the refresh scan too, so each test below puts
// refresh decisions inside blocked spans: short refresh intervals and
// queues that stay busy.

TEST(ControllerQuietTicks, AllBankRefreshOnTwoRanks)
{
    const DramSpec &spec = DramSpec::preset(DramGen::kDdr3_1600);
    DramGeometry geom = spec.geometry;
    geom.ranks = 2;
    TimingParams tp = spec.timing;
    tp.tREFI = 1000; // a REF per rank every 8000 cycles
    expectQuietTicksIssueAlike(spec, geom, tp, RefreshPolicy::kInOrder,
                               0.08, 8, 60000);
}

TEST(ControllerQuietTicks, PerBankRefreshInOrder)
{
    const DramSpec &spec = DramSpec::preset(DramGen::kDdr4_2400);
    TimingParams tp = spec.timing;
    tp.refreshMode = RefreshMode::kPerBank;
    tp.tREFI = 1000;
    expectQuietTicksIssueAlike(spec, spec.geometry, tp,
                               RefreshPolicy::kInOrder, 0.08, 16, 60000);
}

TEST(ControllerQuietTicks, DarpAndSarpDeferToTheForcedDeadline)
{
    // Saturating load on four banks keeps their demand up until the
    // postponement deadline forces each refresh; the idle banks pull
    // theirs in.  A one-tREFI window reaches both within the run.
    const DramSpec &spec = DramSpec::preset(DramGen::kDdr5_4800);
    TimingParams tp = spec.timing;
    tp.refPostponeMax = 1;
    tp.refPullInMax = 1;
    for (const RefreshPolicy policy :
         {RefreshPolicy::kDarp, RefreshPolicy::kSarp}) {
        SCOPED_TRACE(refreshPolicyName(policy));
        expectQuietTicksIssueAlike(spec, spec.geometry, tp, policy, 0.5,
                                   4, 80000);
    }
}

} // namespace
} // namespace nuat
