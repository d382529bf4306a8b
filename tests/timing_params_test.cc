/**
 * @file
 * TimingParams::validate() coverage: one panic test per
 * internal-consistency rule, plus checks that the nanosecond values
 * documented next to the Cycle defaults actually equal those defaults
 * under the DDR3-1600 clock (the comment/number drift the strong-type
 * refactor is meant to end).
 */

#include <stdexcept>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/units.hh"
#include "dram/timing_params.hh"

namespace nuat {
namespace {

class TimingParamsValidate : public ::testing::Test
{
  protected:
    void SetUp() override { setPanicThrows(true); }
    void TearDown() override { setPanicThrows(false); }

    TimingParams tp_;
};

TEST_F(TimingParamsValidate, DefaultsAreConsistent)
{
    EXPECT_NO_THROW(tp_.validate());
}

TEST_F(TimingParamsValidate, TrcMustEqualTrasPlusTrp)
{
    tp_.tRC = tp_.tRAS + tp_.tRP + 1;
    EXPECT_THROW(tp_.validate(), std::logic_error);
    tp_.tRC = tp_.tRAS + tp_.tRP - 1;
    EXPECT_THROW(tp_.validate(), std::logic_error);
}

TEST_F(TimingParamsValidate, TrcdPositiveAndCoveredByTras)
{
    tp_.tRCD = 0;
    EXPECT_THROW(tp_.validate(), std::logic_error);

    tp_ = TimingParams{};
    // tRAS < tRCD would let a PRE land before the row is even usable.
    tp_.tRCD = tp_.tRAS + 1;
    EXPECT_THROW(tp_.validate(), std::logic_error);
}

TEST_F(TimingParamsValidate, BurstMustFitInColumnSpacing)
{
    tp_.tBL = 0;
    EXPECT_THROW(tp_.validate(), std::logic_error);

    tp_ = TimingParams{};
    // tCCD < tBL would overlap consecutive bursts on the data bus.
    tp_.tCCD = tp_.tBL - 1;
    EXPECT_THROW(tp_.validate(), std::logic_error);
}

TEST_F(TimingParamsValidate, CasLatenciesMustBePositive)
{
    tp_.tCL = 0;
    EXPECT_THROW(tp_.validate(), std::logic_error);

    tp_ = TimingParams{};
    tp_.tCWL = 0;
    EXPECT_THROW(tp_.validate(), std::logic_error);
}

TEST_F(TimingParamsValidate, FawMustCoverOneRrd)
{
    tp_.tFAW = tp_.tRRD - 1;
    EXPECT_THROW(tp_.validate(), std::logic_error);
}

TEST_F(TimingParamsValidate, RowsPerRefMustBePositive)
{
    tp_.rowsPerRef = 0;
    EXPECT_THROW(tp_.validate(), std::logic_error);
}

TEST_F(TimingParamsValidate, RefreshMustNotSaturateTheDevice)
{
    tp_.tRFC = 0;
    EXPECT_THROW(tp_.validate(), std::logic_error);

    tp_ = TimingParams{};
    // tREFI <= tRFC: the device would spend its whole life refreshing.
    tp_.tREFI = tp_.tRFC;
    EXPECT_THROW(tp_.validate(), std::logic_error);
}

TEST_F(TimingParamsValidate, GeometryChannelsAreBounded)
{
    // Every channel is a full controller and device stack, so the
    // count that sizes a run's memory has a ceiling.
    DramGeometry geom;
    geom.channels = kMaxChannels;
    EXPECT_NO_THROW(geom.validate());
    geom.channels = kMaxChannels * 2;
    EXPECT_THROW(geom.validate(), std::logic_error);
}

// --- documented ns <-> default cycle agreement --------------------------

// Each activation-path default carries a datasheet comment in
// nanoseconds; assert the comment and the Cycle value agree under the
// 800 MHz bus clock, via the Nanoseconds domain-crossing API (there is
// no other way to write this test — that is the point).
TEST(TimingParamsDocs, ActivationDefaultsMatchDatasheetNs)
{
    const TimingParams tp;
    EXPECT_EQ(kMemClock.toCyclesCeil(Nanoseconds{15.0}), tp.tRCD);
    EXPECT_EQ(kMemClock.toCyclesCeil(Nanoseconds{37.5}), tp.tRAS);
    EXPECT_EQ(kMemClock.toCyclesCeil(Nanoseconds{15.0}), tp.tRP);
    EXPECT_EQ(kMemClock.toCyclesCeil(Nanoseconds{52.5}), tp.tRC);
}

TEST(TimingParamsDocs, BankAndRefreshDefaultsMatchDatasheetNs)
{
    const TimingParams tp;
    EXPECT_EQ(kMemClock.toCyclesCeil(Nanoseconds{7.5}), tp.tRRD);
    EXPECT_EQ(kMemClock.toCyclesCeil(Nanoseconds{40.0}), tp.tFAW);
    EXPECT_EQ(kMemClock.toCyclesCeil(Nanoseconds{7.5}), tp.tWTR);
    EXPECT_EQ(kMemClock.toCyclesCeil(Nanoseconds{7.5}), tp.tRTP);
    EXPECT_EQ(kMemClock.toCyclesCeil(Nanoseconds{15.0}), tp.tWR);
    EXPECT_EQ(kMemClock.toCyclesCeil(Nanoseconds{160.0}), tp.tRFC);
    EXPECT_EQ(kMemClock.toCyclesCeil(usToNs(7.8)), tp.tREFI);
    // 0.5 ms of tolerated refresh slack (doc comment on the field).
    EXPECT_EQ(kMemClock.toCyclesCeil(msToNs(0.5)), tp.maxRefreshSlack);
}

// The round trip back to nanoseconds reproduces the datasheet numbers
// exactly (they are all multiples of tCK = 1.25 ns).
TEST(TimingParamsDocs, CycleDefaultsRoundTripToNs)
{
    const TimingParams tp;
    EXPECT_DOUBLE_EQ(kMemClock.toNs(tp.tRCD).value(), 15.0);
    EXPECT_DOUBLE_EQ(kMemClock.toNs(tp.tRAS).value(), 37.5);
    EXPECT_DOUBLE_EQ(kMemClock.toNs(tp.tRC).value(), 52.5);
    EXPECT_DOUBLE_EQ(kMemClock.toNs(tp.tRFC).value(), 160.0);
    EXPECT_DOUBLE_EQ(kMemClock.toNs(tp.tREFI).value(), 7800.0);
    EXPECT_DOUBLE_EQ(kMemClock.toNs(tp.refInterval()).value(),
                     8 * 7800.0);
}

} // namespace
} // namespace nuat
