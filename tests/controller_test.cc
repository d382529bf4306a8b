/**
 * @file
 * Memory-controller tests: end-to-end request timing, merging,
 * forwarding, coalescing, refresh forcing, statistics, quiet ticks
 * that issue exactly what full ticks would, and candidate lists that
 * match a request-major reference enumeration.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "charge/timing_derate.hh"
#include "common/random.hh"
#include "core/nuat_config.hh"
#include "core/nuat_scheduler.hh"
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

/**
 * The candidates at @p now by the request-major rule: walk the read
 * queue, then the write queue, in order, skipping banks that owe an
 * in-order refresh.  A row hit gives a column candidate if it is legal;
 * a request to a closed bank gives an ACT unless the bank's last ACT
 * candidate has the same row; a conflict gives one PRE per bank unless
 * the open row has queued hits.  Demand counts are brute force.
 */
std::vector<Candidate>
referenceCandidates(const MemoryController &mc, Cycle now)
{
    const DramDevice &dev = mc.device();
    const unsigned banks = dev.geometry().banks;
    const std::size_t flat_banks =
        static_cast<std::size_t>(dev.geometry().ranks) * banks;
    std::vector<RowId> last_act(flat_banks, kNoRow);
    std::vector<bool> pre_seen(flat_banks, false);
    const std::vector<const RequestQueue *> queues{&mc.readQueue(),
                                                   &mc.writeQueue()};
    auto demand = [&](const Request &req, RowId row) {
        unsigned count = 0;
        for (const RequestQueue *q : queues) {
            for (const auto &r : *q) {
                if (r->rank == req.rank && r->bank == req.bank &&
                    r->row == row)
                    ++count;
            }
        }
        return count;
    };
    const RowTiming nominal{dev.timing().tRCD, dev.timing().tRAS,
                            dev.timing().tRC};

    std::vector<Candidate> out;
    for (const RequestQueue *q : queues) {
        for (const auto &owned : *q) {
            Request *req = owned.get();
            if (dev.refreshFor(req->rank, req->bank).due(now))
                continue;
            const std::size_t flat =
                req->rank.value() * banks + req->bank.value();
            const BankState &b = dev.bank(req->rank, req->bank);
            Candidate cand;
            cand.req = req;
            cand.isWrite = req->isWrite;
            cand.cmd.rank = req->rank;
            cand.cmd.bank = req->bank;
            if (b.openRow() == req->row) {
                cand.cmd.type =
                    req->isWrite ? CmdType::kWrite : CmdType::kRead;
                cand.cmd.row = req->row;
                cand.cmd.col = req->col;
                cand.isRowHit = true;
                cand.morePendingToRow = demand(*req, req->row) > 1;
            } else if (b.isClosed()) {
                if (last_act[flat] == req->row)
                    continue;
                cand.cmd.type = CmdType::kAct;
                cand.cmd.row = req->row;
                cand.cmd.actTiming = nominal;
            } else {
                if (pre_seen[flat] || demand(*req, b.openRow()) > 0)
                    continue;
                cand.cmd.type = CmdType::kPre;
            }
            if (!dev.canIssue(cand.cmd, now))
                continue;
            if (cand.cmd.type == CmdType::kAct)
                last_act[flat] = req->row;
            if (cand.cmd.type == CmdType::kPre)
                pre_seen[flat] = true;
            out.push_back(cand);
        }
    }
    return out;
}

/** One candidate as "req type row col hit more", for failure output. */
std::string
describe(const Candidate &c)
{
    std::ostringstream os;
    os << "req " << c.req->id << (c.isWrite ? " (W) " : " (R) ")
       << c.cmd.name() << " rank " << c.cmd.rank.value() << " bank "
       << c.cmd.bank.value() << " row " << c.cmd.row.value() << " col "
       << c.cmd.col << " hit " << c.isRowHit << " more "
       << c.morePendingToRow;
    return os.str();
}

/**
 * Wraps a scheduler and checks the controller's candidate list against
 * referenceCandidates on every tick: element by element at a pick, and
 * empty at a tick that issued nothing.  It also counts the situations
 * in which a wrong order, dedupe or PRE carrier would show.
 */
class ReferenceCheck : public Scheduler
{
  public:
    explicit ReferenceCheck(std::unique_ptr<Scheduler> inner)
        : inner_(std::move(inner))
    {
    }

    /** The controller whose queues the reference walks. */
    void watch(const MemoryController *mc) { mc_ = mc; }

    int
    pick(std::vector<Candidate> &candidates,
         const SchedContext &ctx) override
    {
        picked_ = true;
        ++picks;
        compare(candidates, ctx.now);
        countCoverage(candidates);
        return inner_->pick(candidates, ctx);
    }

    void
    onIssue(const Command &cmd, const SchedContext &ctx) override
    {
        issued_ = true;
        inner_->onIssue(cmd, ctx);
    }

    void
    tick(const SchedContext &ctx) override
    {
        finishTick();
        inner_->tick(ctx);
        // Nothing moves the queues or the device between this call and
        // the controller's enumerate, unless a refresh command issues.
        expected_ = referenceCandidates(*mc_, ctx.now);
        expectedAt_ = ctx.now;
        picked_ = false;
        issued_ = false;
    }

    /** Check the last tick (call once after the final tick). */
    void
    finishTick()
    {
        if (expectedAt_ != kNeverCycle && !picked_ && !issued_)
            compare({}, expectedAt_);
        expectedAt_ = kNeverCycle;
    }

    const char *name() const override { return inner_->name(); }

    std::uint64_t picks = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t mixedPicks = 0;   //!< reads and writes both offered
    std::uint64_t repeatedActs = 0; //!< one bank offered ACT X twice
    std::uint64_t sharedPres = 0;   //!< a PRE whose bank has R and W

  private:
    void
    compare(const std::vector<Candidate> &got, Cycle now)
    {
        const std::vector<Candidate> &want = expected_;
        std::size_t i = 0;
        auto same = [](const Candidate &a, const Candidate &b) {
            return a.req == b.req && a.cmd.type == b.cmd.type &&
                   a.cmd.row == b.cmd.row && a.cmd.col == b.cmd.col &&
                   a.isRowHit == b.isRowHit &&
                   a.morePendingToRow == b.morePendingToRow;
        };
        while (i < got.size() && i < want.size() && same(got[i], want[i]))
            ++i;
        if (i == got.size() && i == want.size())
            return;
        if (mismatches++ == 0) {
            ADD_FAILURE()
                << "cycle " << now << ", candidate " << i << " of "
                << got.size() << " (reference " << want.size()
                << "): controller '"
                << (i < got.size() ? describe(got[i]) : "(none)")
                << "', reference '"
                << (i < want.size() ? describe(want[i]) : "(none)")
                << "'";
        }
    }

    void
    countCoverage(const std::vector<Candidate> &candidates)
    {
        bool reads = false;
        bool writes = false;
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            const Candidate &c = candidates[i];
            (c.isWrite ? writes : reads) = true;
            if (c.cmd.type == CmdType::kPre) {
                unsigned dirs = 0;
                for (const RequestQueue *q :
                     {&mc_->readQueue(), &mc_->writeQueue()}) {
                    for (const auto &r : *q) {
                        if (r->rank == c.cmd.rank && r->bank == c.cmd.bank) {
                            ++dirs;
                            break;
                        }
                    }
                }
                sharedPres += dirs == 2;
            }
            for (std::size_t j = 0; j < i; ++j) {
                const Candidate &d = candidates[j];
                repeatedActs += c.cmd.type == CmdType::kAct &&
                                d.cmd.type == CmdType::kAct &&
                                c.cmd.rank == d.cmd.rank &&
                                c.cmd.bank == d.cmd.bank &&
                                c.cmd.row == d.cmd.row;
            }
        }
        mixedPicks += reads && writes;
    }

    std::unique_ptr<Scheduler> inner_;
    const MemoryController *mc_ = nullptr;
    std::vector<Candidate> expected_;
    Cycle expectedAt_ = kNeverCycle;
    bool picked_ = false;
    bool issued_ = false;
};

enum class CheckedPolicy
{
    kFrFcfsOpen,
    kNuat,
};

/** A device on @p spec's clock and charge model, driven by a controller
 *  whose scheduler checks every candidate list. */
struct CheckedChannel
{
    CheckedChannel(const DramSpec &spec, const DramGeometry &geom,
                   const TimingParams &tp, CheckedPolicy policy)
        : sa(cell),
          derate(sa, NominalTiming{tp.tRCD, tp.tRAS, tp.tRP},
                 spec.clock()),
          dev(geom, tp, derate, spec.clock())
    {
        std::unique_ptr<Scheduler> inner;
        if (policy == CheckedPolicy::kNuat)
            inner = std::make_unique<NuatScheduler>(
                NuatConfig::fromDerate(derate));
        else
            inner = std::make_unique<FrFcfsScheduler>(PagePolicy::kOpen);
        auto owned = std::make_unique<ReferenceCheck>(std::move(inner));
        check = owned.get();
        mc = std::make_unique<MemoryController>(dev, std::move(owned));
        check->watch(mc.get());
    }

    CellModel cell;
    SenseAmpModel sa;
    TimingDerate derate;
    DramDevice dev;
    ReferenceCheck *check = nullptr;
    std::unique_ptr<MemoryController> mc;
};

/**
 * Drive @p geom under FR-FCFS open and under NUAT through one seeded
 * stream (bursts of up to three requests a cycle, 35% writes, onto
 * @p hot_banks banks of every rank and 4 rows each) for @p cycles, and
 * require every candidate list to match the reference.
 */
void
expectReferenceCandidates(const DramSpec &spec, const DramGeometry &geom,
                          const TimingParams &tp, unsigned hot_banks,
                          Cycle cycles)
{
    for (const CheckedPolicy policy :
         {CheckedPolicy::kFrFcfsOpen, CheckedPolicy::kNuat}) {
        CheckedChannel ch(spec, geom, tp, policy);
        SCOPED_TRACE(ch.check->name());
        Rng rng(0x5eed5);
        std::uint64_t mixed_arrivals = 0;
        for (Cycle now = 0; now < cycles; ++now) {
            const unsigned burst =
                rng.chance(0.12) ? 1 + static_cast<unsigned>(rng.below(3))
                                 : 0;
            bool read = false;
            bool write = false;
            for (unsigned k = 0; k < burst; ++k) {
                DramCoord c;
                c.rank =
                    RankId{static_cast<unsigned>(rng.below(geom.ranks))};
                c.bank = BankId{static_cast<unsigned>(rng.below(hot_banks))};
                c.row = RowId{static_cast<std::uint32_t>(rng.below(4))};
                c.col = static_cast<std::uint32_t>(rng.below(16));
                const Addr addr = ch.mc->mapping().compose(c);
                if (rng.chance(0.35)) {
                    if (!ch.mc->canAcceptWrite(addr))
                        continue;
                    ch.mc->enqueueWrite(addr, now);
                    write = true;
                } else {
                    if (!ch.mc->canAcceptRead(addr))
                        continue;
                    ch.mc->enqueueRead(addr, Waiter{0, now}, now);
                    read = true;
                }
            }
            mixed_arrivals += read && write;
            ch.mc->tick(now);
        }
        ch.check->finishTick();

        EXPECT_EQ(ch.check->mismatches, 0u);
        EXPECT_GT(ch.check->picks, 1000u);
        EXPECT_GT(ch.dev.counters().refreshes, 0u);
        // The cases a wrong sort, ACT dedupe or PRE carrier would
        // change must all occur.
        EXPECT_GT(mixed_arrivals, 0u);
        EXPECT_GT(ch.check->mixedPicks, 0u);
        EXPECT_GT(ch.check->repeatedActs, 0u);
        EXPECT_GT(ch.check->sharedPres, 0u);
    }
}

TEST(ControllerCandidates, MatchReferenceOnDdr3AllBank)
{
    const DramSpec &spec = DramSpec::preset(DramGen::kDdr3_1600);
    TimingParams tp = spec.timing;
    tp.tREFI = 1000;
    expectReferenceCandidates(spec, spec.geometry, tp, 8, 15000);
}

TEST(ControllerCandidates, MatchReferenceOnTwoRanks)
{
    // Reads from both ranks meet the tRTRS bus-switch gap.
    const DramSpec &spec = DramSpec::preset(DramGen::kDdr3_1600);
    DramGeometry geom = spec.geometry;
    geom.ranks = 2;
    TimingParams tp = spec.timing;
    tp.tREFI = 1000;
    expectReferenceCandidates(spec, geom, tp, 8, 15000);
}

TEST(ControllerCandidates, MatchReferenceOnDdr5PerBank)
{
    // 32 banks in bank groups, each bank owing its own REFsb.
    const DramSpec &spec = DramSpec::preset(DramGen::kDdr5_4800);
    TimingParams tp = spec.timing;
    tp.tREFI = 1000;
    expectReferenceCandidates(spec, spec.geometry, tp, 32, 15000);
}

} // namespace
} // namespace nuat
