/**
 * @file
 * Cycle-level DDR3 device model.
 *
 * The device accepts one command per bus cycle, enforces the full DDR3
 * constraint graph (bank timing via BankState, rank-level tRRD / tFAW /
 * tRFC, channel-level column/data-bus interleaving) and — uniquely to
 * this reproduction — carries the charge-model *ground truth*: every
 * activation's requested timing is checked against the true minimum
 * timing the row's remaining cell charge allows.  A controller bug that
 * would corrupt data on real silicon is therefore a panic here, which is
 * how the test suite proves PBR's estimates are always safe.
 */

#ifndef NUAT_DRAM_DRAM_DEVICE_HH
#define NUAT_DRAM_DRAM_DEVICE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "bank_state.hh"
#include "charge/timing_derate.hh"
#include "command.hh"
#include "command_observer.hh"
#include "common/thread_annotations.hh"
#include "common/types.hh"
#include "common/units.hh"
#include "refresh_engine.hh"
#include "timing_params.hh"

namespace nuat {

class FaultModel;

/** Per-rank state beyond the individual banks. */
class RankState
{
  public:
    /**
     * @param rows rows per bank
     * @param tp   timing parameters (incl. refreshMode)
     * @param geom geometry (banks and bank groups)
     */
    RankState(std::uint32_t rows, const TimingParams &tp,
              const DramGeometry &geom);

    /** Per-bank state, indexed by bank id. */
    std::vector<BankState> banks;

    /**
     * Refresh counter / schedule / ground truth.  One rank-wide engine
     * in all-bank mode; one engine per bank under per-bank refresh,
     * phase-staggered so the REFsb deadlines spread over the interval.
     */
    std::vector<RefreshEngine> engines;

    /** The engine that owns @p bank's rows. */
    const RefreshEngine &engineFor(BankId bank) const
    {
        return engines[engines.size() == 1 ? 0 : bank.value()];
    }
    RefreshEngine &engineFor(BankId bank)
    {
        return engines[engines.size() == 1 ? 0 : bank.value()];
    }

    /** Earliest cycle the next ACT may issue (tRRD). */
    Cycle actAllowedAt = 0;

    /** End of the in-flight REF's tRFC window. */
    Cycle refBusyUntil = 0;

    /** End of the in-flight REFsb's tRFCpb window, per bank. */
    std::vector<Cycle> refsbBusyUntil;

    /** Issue time of the last REFsb to this rank (tREFSBRD spacing). */
    Cycle lastRefsbAt = kNeverCycle;

    /** Earliest next ACT per bank group (tRRD_L). */
    std::vector<Cycle> groupActAllowedAt;

    /** Earliest next read / write per bank group (tCCD_L). */
    std::vector<Cycle> groupRdIssueOkAt;
    std::vector<Cycle> groupWrIssueOkAt;

    /** Issue times of recent ACTs, for the four-activate window. */
    std::deque<Cycle> actWindow;

    /** Earliest cycle a further ACT keeps within tFAW. */
    Cycle fawOpensAt(const TimingParams &tp) const;

    /** Record an ACT at @p now for tRRD / tFAW accounting. */
    void recordAct(Cycle now, const TimingParams &tp);
};

/** Command counters kept by the device. */
struct DeviceCounters
{
    std::uint64_t acts = 0;
    std::uint64_t pres = 0;         //!< explicit PREs only
    std::uint64_t reads = 0;        //!< including RDA
    std::uint64_t writes = 0;       //!< including WRA
    std::uint64_t autoPres = 0;     //!< RDA + WRA
    std::uint64_t readAutoPres = 0; //!< RDA only (WRA = the rest)
    std::uint64_t refreshes = 0;
    /** ACTs binned by whole-cycle tRCD reduction actually used. */
    std::uint64_t actsByTrcdReduction[16] = {};
    /**
     * ACTs whose requested timing beat the *fault-world* requirement
     * (silent-corruption events).  Only counted when a FaultModel is
     * attached; the nominal-charge panic above stays a panic because
     * it can only mean a controller bug.
     */
    std::uint64_t marginViolations = 0;

    /** Add @p other's counts (merging channels into one record). */
    void merge(const DeviceCounters &other);
};

/** One DDR3 channel: ranks x banks plus the shared command/data bus. */
class DramDevice
{
  public:
    /**
     * @param geometry channel geometry
     * @param tp       timing parameters
     * @param derate   charge model providing ground-truth row timing
     * @param clock    bus clock (for cycle <-> ns conversion)
     */
    DramDevice(const DramGeometry &geometry, const TimingParams &tp,
               const TimingDerate &derate, const Clock &clock = kMemClock);

    /**
     * The first cycle at which @p cmd is legal if nothing else issues
     * first: the latest of the stored allowed-at cycles it depends on
     * (bank, rank, bank group, data bus, command bus, tFAW, tRTRS,
     * refresh windows).  kNeverCycle when the bank state forbids the
     * command outright: PRE or a column command to a closed bank, ACT
     * to an open one, REF with a bank open or on a per-bank device,
     * REFsb to an open bank or on an all-bank device.  The device's
     * one legality definition; only issue() moves its inputs.
     */
    Cycle earliestIssueAt(const Command &cmd) const;

    /** True when @p cmd may legally issue at @p now. */
    bool canIssue(const Command &cmd, Cycle now) const
    {
        return earliestIssueAt(cmd) <= now;
    }

    /**
     * Issue @p cmd at @p now.  Panics if illegal (the controller must
     * check canIssue first) or if an ACT's requested timing is faster
     * than the row's remaining charge allows.
     */
    IssueResult issue(const Command &cmd, Cycle now);

    /** Bank state accessor. */
    const BankState &bank(RankId rank, BankId bank_idx) const;

    /** Rank state accessor. */
    const RankState &rank(RankId rank_idx) const;

    /**
     * Refresh engine of @p rank_idx (PBR reads this).  In all-bank
     * mode this is *the* rank engine; under per-bank refresh it is
     * bank 0's engine — bank-sensitive callers use refreshFor().
     */
    const RefreshEngine &refresh(RankId rank_idx = RankId{0}) const;

    /** The refresh engine owning (@p rank_idx, @p bank_idx)'s rows. */
    const RefreshEngine &refreshFor(RankId rank_idx,
                                    BankId bank_idx) const;

    /** Earliest next refresh deadline across @p rank_idx's engines. */
    Cycle nextRefreshDueAt(RankId rank_idx) const;

    /** True when any bank's REFsb tRFCpb window covers @p now (the
     *  refresh shadow SARP drains writes into). */
    bool refsbInFlight(Cycle now) const { return now < refsbEndsAt_; }

    /**
     * The row's true minimum activation timing at @p now, from the
     * charge model.  Exposed for tests and the pb_explorer example.
     */
    RowTiming trueRowTiming(RankId rank, BankId bank, RowId row,
                            Cycle now) const;

    /**
     * Like trueRowTiming, but through the attached FaultModel's view
     * of the world (weak cells, temperature, VRT, disturbed REFs).
     * Falls back to trueRowTiming when no model is attached.
     */
    RowTiming faultedRowTiming(RankId rank, BankId bank, RowId row,
                               Cycle now) const;

    /**
     * Attach the fault world (not owned; must outlive the device).
     * From now on REF restores are routed through the model and every
     * ACT is additionally margin-checked against the faulted truth.
     */
    void attachFaultModel(FaultModel *faults);

    /** The attached fault world, or nullptr. */
    const FaultModel *faultModel() const { return faults_; }

    /** Geometry in use. */
    const DramGeometry &geometry() const { return geom_; }

    /** Timing parameters in use. */
    const TimingParams &timing() const { return tp_; }

    /** The charge derating model in use. */
    const TimingDerate &derate() const { return derate_; }

    /** Command counters. */
    const DeviceCounters &counters() const { return counters_; }

    /**
     * Attach @p obs to the issued-command stream (not owned; must
     * outlive the device).  Observers are notified in attach order for
     * every command that passes the legality gate, before the device
     * applies it — so an auditing observer sees even a command the
     * device itself would reject (e.g. a charge violation) and can
     * record it independently.
     */
    void addObserver(CommandObserver *obs);

  private:
    BankState &bankRef(RankId rank, BankId bank_idx);

    DramGeometry geom_;
    TimingParams tp_;
    TimingDerate derate_;
    Clock clock_;
    std::vector<RankState> ranks_;

    Cycle lastCmdAt_ = kNeverCycle; //!< command bus: one cmd per cycle
    Cycle rdIssueOkAt_ = 0;         //!< channel data-bus gate for reads
    Cycle wrIssueOkAt_ = 0;         //!< channel data-bus gate for writes
    RankId lastDataRank_{0};        //!< owner of the last data burst
    Cycle lastDataEndAt_ = 0;       //!< end of the last data burst

    /**
     * End of the latest REFsb's tRFCpb window, on any rank.  REFsbs
     * issue in time order with one tRFCpb, so it is the latest
     * RankState::refsbBusyUntil, which legality still reads.
     */
    Cycle refsbEndsAt_ = 0;

    DeviceCounters counters_;
    std::vector<CommandObserver *> observers_;
    FaultModel *faults_ = nullptr; //!< optional fault world (not owned)

    /**
     * Shard confinement (debug-asserted): a device belongs to exactly
     * one thread — the worker running its System, or the serve shard
     * that adopted it after launch.  issue() asserts the owner, so a
     * device reached from two threads panics in debug builds instead
     * of corrupting bank state silently.
     */
    ThreadConfined confined_;
};

} // namespace nuat

#endif // NUAT_DRAM_DRAM_DEVICE_HH
