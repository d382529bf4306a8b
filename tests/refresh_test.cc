/**
 * @file
 * Tests for the refresh engine (counter arithmetic, schedule, and
 * ground-truth history) and for the per-bank refresh verdict with its
 * change cycle.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "dram/dram_spec.hh"
#include "dram/refresh_engine.hh"
#include "mem/refresh_policy.hh"

namespace nuat {
namespace {

TimingParams
smallTiming()
{
    TimingParams tp;
    tp.tREFI = 100;
    tp.rowsPerRef = 8;
    return tp;
}

TEST(RefreshEngine, InitialSteadyState)
{
    const TimingParams tp = smallTiming();
    RefreshEngine eng(64, tp);
    EXPECT_EQ(eng.nextRow().value(), 0u);
    EXPECT_EQ(eng.lrra().value(), 63u);
    EXPECT_EQ(eng.nextDueAt(), tp.refInterval());
    EXPECT_FALSE(eng.due(0));
    EXPECT_TRUE(eng.due(tp.refInterval()));
    // Row 0 is the oldest (refreshed a full period minus one interval
    // ago); the last group was refreshed at cycle 0.
    EXPECT_EQ(eng.lastRefreshAt(RowId{63}), 0);
    EXPECT_EQ(eng.lastRefreshAt(RowId{0}),
              -static_cast<std::int64_t>((64 / 8 - 1) *
                                         tp.refInterval()));
}

TEST(RefreshEngine, RelativeAgeOrdersRowsByStaleness)
{
    RefreshEngine eng(64, smallTiming());
    // LRRA = 63: row 63 just refreshed, row 0 oldest.
    EXPECT_EQ(eng.relativeAge(RowId{63}), 0u);
    EXPECT_EQ(eng.relativeAge(RowId{62}), 1u);
    EXPECT_EQ(eng.relativeAge(RowId{0}), 63u);
}

TEST(RefreshEngine, PerformRefreshAdvancesCounterAndDeadline)
{
    const TimingParams tp = smallTiming();
    RefreshEngine eng(64, tp);
    eng.performRefresh(tp.refInterval());
    EXPECT_EQ(eng.nextRow().value(), 8u);
    EXPECT_EQ(eng.lrra().value(), 7u);
    EXPECT_EQ(eng.nextDueAt(), 2 * tp.refInterval());
    EXPECT_EQ(eng.refreshesDone(), 1u);
    for (std::uint32_t r = 0; r < 8; ++r) {
        EXPECT_EQ(eng.lastRefreshAt(RowId{r}),
                  static_cast<std::int64_t>(tp.refInterval()));
    }
    // Rows 8.. untouched.
    EXPECT_LT(eng.lastRefreshAt(RowId{8}), 0);
}

TEST(RefreshEngine, CounterWrapsAroundRowSpace)
{
    const TimingParams tp = smallTiming();
    RefreshEngine eng(64, tp);
    for (Cycle i = 0; i < 8; ++i)
        eng.performRefresh((i + 1) * tp.refInterval());
    EXPECT_EQ(eng.nextRow().value(), 0u); // full pass
    EXPECT_EQ(eng.lrra().value(), 63u);
    EXPECT_EQ(eng.refreshesDone(), 8u);
}

TEST(RefreshEngine, JedecWindowBoundsTrackTheSchedule)
{
    // tREFI 100 with custom budgets: pull-in window 200, postponement
    // window 300 around the nominal deadline of 800.
    TimingParams tp = smallTiming();
    tp.refPullInMax = 2;
    tp.refPostponeMax = 3;
    RefreshEngine eng(64, tp);
    EXPECT_EQ(eng.nextDueAt(), 800u);
    EXPECT_EQ(eng.deadlineAt(), 1100u);
    EXPECT_EQ(eng.earliestIssueAt(), 600u);
    EXPECT_FALSE(eng.canPullIn(599));
    EXPECT_TRUE(eng.canPullIn(600));

    // The window slides with the schedule after a (pulled-in) REF.
    eng.performRefresh(700);
    EXPECT_EQ(eng.nextDueAt(), 1600u);
    EXPECT_EQ(eng.deadlineAt(), 1900u);
    EXPECT_EQ(eng.earliestIssueAt(), 1400u);
}

TEST(RefreshEngine, EarliestIssueClampsAtCycleZero)
{
    // A staggered engine whose phase is shorter than the pull-in
    // window must not underflow: the earliest legal issue is cycle 0.
    const TimingParams tp = smallTiming(); // pull-in window 800
    RefreshEngine eng(64, tp, 100);
    EXPECT_EQ(eng.earliestIssueAt(), 0u);
    EXPECT_TRUE(eng.canPullIn(0));
}

TEST(RefreshEngine, CountsPullInsAndPostponements)
{
    const TimingParams tp = smallTiming();
    RefreshEngine eng(64, tp);
    eng.performRefresh(tp.refInterval()); // exactly on time: neither
    EXPECT_EQ(eng.pulledIn(), 0u);
    EXPECT_EQ(eng.postponed(), 0u);
    eng.performRefresh(2 * tp.refInterval() - 50); // 50 cycles early
    EXPECT_EQ(eng.pulledIn(), 1u);
    EXPECT_EQ(eng.postponed(), 0u);
    eng.performRefresh(3 * tp.refInterval() + 50); // 50 cycles late
    EXPECT_EQ(eng.pulledIn(), 1u);
    EXPECT_EQ(eng.postponed(), 1u);
}

TEST(RefreshEngine, AbsoluteScheduleDoesNotDrift)
{
    const TimingParams tp = smallTiming();
    RefreshEngine eng(64, tp);
    // Issue the first REF 50 cycles late; the second deadline is still
    // 2 * interval, not late + interval.
    eng.performRefresh(tp.refInterval() + 50);
    EXPECT_EQ(eng.nextDueAt(), 2 * tp.refInterval());
}

TEST(RefreshEngine, ElapsedSinceRefreshUsesGroundTruth)
{
    const TimingParams tp = smallTiming();
    RefreshEngine eng(64, tp);
    eng.performRefresh(tp.refInterval());
    EXPECT_DOUBLE_EQ(eng.elapsedSinceRefresh(RowId{0},
                                             tp.refInterval() + 100,
                                             kMemClock)
                         .value(),
                     100 * kMemClock.period().value());
}

TEST(RefreshEngine, FullRotationRestoresAges)
{
    const TimingParams tp = smallTiming();
    RefreshEngine eng(128, tp);
    const std::uint32_t age_before = eng.relativeAge(RowId{37});
    for (Cycle i = 0; i < 128 / 8; ++i)
        eng.performRefresh((i + 1) * tp.refInterval());
    EXPECT_EQ(eng.relativeAge(RowId{37}), age_before);
}

TEST(RefreshEngine, ScheduleViewMatchesGroundTruthAcrossWrap)
{
    // With every REF issued exactly on schedule, the schedule-derived
    // view (relativeAge, what PBR classifies on) and the ground truth
    // (lastRefreshAt, what the charge model decays on) must stay in
    // lock-step — including after the counter wraps around the row
    // space, where the subtraction in relativeAge() goes modular and
    // the preloaded negative history has been fully overwritten.  A
    // divergence here is exactly the bug class that would let PBR rate
    // a stale row as fresh.
    const TimingParams tp = smallTiming();
    const std::uint32_t rows = 64;
    RefreshEngine eng(rows, tp);
    const auto interval = static_cast<std::int64_t>(tp.refInterval());

    const unsigned per_pass = rows / tp.rowsPerRef; // 8 REFs per pass
    for (unsigned k = 1; k <= 3 * per_pass + 5; ++k) {
        eng.performRefresh(k * tp.refInterval());
        const std::int64_t now = static_cast<std::int64_t>(k) * interval;
        for (std::uint32_t row = 0; row < rows; ++row) {
            const std::int64_t slices =
                eng.relativeAge(RowId{row}) / tp.rowsPerRef;
            ASSERT_EQ(eng.lastRefreshAt(RowId{row}),
                      now - slices * interval)
                << "row " << row << " after REF #" << k;
        }
    }
}

TEST(RefreshEngine, RowsMustDivideByRowsPerRef)
{
    setPanicThrows(true);
    TimingParams tp = smallTiming();
    tp.rowsPerRef = 7;
    EXPECT_THROW(RefreshEngine(64, tp), std::logic_error);
    setPanicThrows(false);
}

TEST(RefreshEngine, PaperScaleConsistency)
{
    // One full refresh pass of the row space must take one 64 ms
    // retention period (paper Sec. 4) — for every generation preset,
    // at that preset's own clock, not just the paper's DDR3 device.
    for (unsigned i = 0; i < kNumDramGens; ++i) {
        const DramSpec &spec = DramSpec::allPresets()[i];
        SCOPED_TRACE(spec.name);
        const TimingParams &tp = spec.timing;
        RefreshEngine eng(spec.geometry.rows, tp);
        const double pass_ns =
            static_cast<double>(spec.geometry.rows / tp.rowsPerRef) *
            static_cast<double>(tp.refInterval()) *
            spec.clock().period().value();
        EXPECT_NEAR(pass_ns, 64e6, 64e6 * 0.02);
    }
}

TEST(RefreshEngine, PerBankStaggerSpansOneInterval)
{
    // Per-bank refresh gives every bank its own engine, first due at
    // interval - (banks - 1 - b) * step with step = interval / banks:
    // deadlines evenly staggered, the last one exactly at one full
    // interval (where the single all-bank engine would fire).
    for (unsigned i = 0; i < kNumDramGens; ++i) {
        const DramSpec &spec = DramSpec::allPresets()[i];
        SCOPED_TRACE(spec.name);
        const TimingParams &tp = spec.timing;
        const unsigned banks = spec.geometry.banks;
        const Cycle interval = tp.refInterval();
        const Cycle step = interval / banks;
        for (unsigned b = 0; b < banks; ++b) {
            const Cycle first_due =
                interval - (banks - 1 - b) * step;
            RefreshEngine eng(spec.geometry.rows, tp, first_due);
            EXPECT_EQ(eng.nextDueAt(), first_due);
            EXPECT_FALSE(eng.due(first_due - 1));
            EXPECT_TRUE(eng.due(first_due));
            // The preloaded history must stay strictly pre-sim so row
            // ages are well-ordered from cycle 0.
            EXPECT_LT(eng.lastRefreshAt(RowId{0}), 0);
            EXPECT_LE(eng.lastRefreshAt(
                          RowId{spec.geometry.rows - 1}),
                      0);
        }
    }
}

TEST(RefreshVerdict, HoldsUntilItsChangeCycleAndChangesThere)
{
    // Random engine phases and histories, random inputs and margins,
    // all three policies.  The verdict must hold on [now, changeAt) and
    // differ at changeAt; a verdict that claims never to change must
    // still hold at the engine's deadlines and long after them.
    Rng rng(0x5eedc7c1e);
    unsigned owed_retimed = 0; // DARP/SARP owed verdicts with a cycle
    unsigned never = 0;
    unsigned finite = 0;
    for (int trial = 0; trial < 3000; ++trial) {
        TimingParams tp = smallTiming();
        tp.refPullInMax = static_cast<unsigned>(rng.between(1, 8));
        tp.refPostponeMax = static_cast<unsigned>(rng.between(1, 8));
        const Cycle interval = tp.refInterval();
        RefreshEngine eng(64, tp, rng.between(1, interval));
        // A few refreshes anywhere inside their JEDEC windows.
        for (auto k = rng.below(4); k > 0; --k)
            eng.performRefresh(
                rng.between(eng.earliestIssueAt(), eng.deadlineAt()));

        const auto policy = static_cast<RefreshPolicy>(rng.below(3));
        const Cycle margin = rng.below(tp.refPostponeWindow());
        const bool demand = rng.chance(0.5);
        const bool busy = demand || rng.chance(0.5);
        const Cycle lo = eng.earliestIssueAt() > interval
                             ? eng.earliestIssueAt() - interval
                             : 0;
        const Cycle now = rng.between(lo, eng.deadlineAt() + interval);
        auto at = [&](Cycle t) {
            return refreshVerdict(policy, eng, margin, demand, busy, t)
                .verdict;
        };
        const BankRefreshVerdict v =
            refreshVerdict(policy, eng, margin, demand, busy, now);
        SCOPED_TRACE(::testing::Message()
                     << "trial " << trial << " policy "
                     << refreshPolicyName(policy) << " now " << now
                     << " changeAt " << v.changeAt);
        ASSERT_GT(v.changeAt, now);

        // The cycles at which any input of the decision turns over.
        const Cycle forced_at = eng.deadlineAt() - margin;
        std::vector<Cycle> probes = {now,
                                     eng.earliestIssueAt(),
                                     eng.nextDueAt(),
                                     forced_at,
                                     eng.deadlineAt(),
                                     eng.deadlineAt() + 10 * interval};
        for (const Cycle edge : {eng.earliestIssueAt(), eng.nextDueAt(),
                                 forced_at}) {
            if (edge > 0)
                probes.push_back(edge - 1);
        }
        for (int k = 0; k < 8; ++k)
            probes.push_back(now + rng.below(3 * interval));

        if (v.changeAt == kNeverCycle) {
            ++never;
        } else {
            ++finite;
            owed_retimed += policy != RefreshPolicy::kInOrder &&
                            v.verdict == RefreshVerdict::kOwed;
            EXPECT_NE(at(v.changeAt), v.verdict);
            probes.push_back(v.changeAt - 1);
        }
        for (const Cycle t : probes) {
            if (t >= now && t < v.changeAt) {
                EXPECT_EQ(at(t), v.verdict) << "at " << t;
            }
        }
    }
    // Every kind of answer occurred, the re-timed owed bank included.
    EXPECT_GT(owed_retimed, 100u);
    EXPECT_GT(never, 100u);
    EXPECT_GT(finite, 100u);
}

} // namespace
} // namespace nuat
