/**
 * @file
 * DRAM timing parameters and device geometry.
 *
 * All timing values are in memory-bus clock cycles.  The *defaults*
 * are the paper's DDR3-1600 device (800 MHz, tCK = 1.25 ns): the
 * activation-related numbers (tRCD 15 ns, tRAS 37.5 ns, tRC 52.5 ns)
 * follow Table 3 (SK Hynix DDR3 datasheet), the rest are standard
 * DDR3-1600 values.  Other generations come from the preset tables in
 * dram_spec.hh; the DDR4/DDR5-only fields below (bank-group timings,
 * per-bank refresh) default to values that make them degenerate on
 * DDR3 — one bank group, tCCD_L == tCCD, all-bank refresh — so a
 * default-constructed TimingParams still *is* the paper's device.
 */

#ifndef NUAT_DRAM_TIMING_PARAMS_HH
#define NUAT_DRAM_TIMING_PARAMS_HH

#include "common/types.hh"

namespace nuat {

/**
 * How the device retires its refresh obligation (DDR5 sec. 4.10):
 * one all-bank REF covering every bank of the rank, or per-bank REFsb
 * commands that refresh a single bank while the others keep serving.
 */
enum class RefreshMode : std::uint8_t
{
    kAllBank, //!< classic REF: rank-wide, tRFC blackout
    kPerBank, //!< REFsb: one bank at a time, tRFCpb each
};

/** DRAM timing constraint set [memory-bus cycles]. */
struct TimingParams
{
    Cycle tRCD = 12; //!< ACT to column command (15 ns)
    Cycle tRAS = 30; //!< ACT to PRE (37.5 ns)
    Cycle tRP = 12;  //!< PRE to ACT (15 ns)
    Cycle tRC = 42;  //!< ACT to ACT, same bank (52.5 ns)

    Cycle tCL = 11;  //!< read column command to first data
    Cycle tCWL = 8;  //!< write column command to first data
    Cycle tBL = 4;   //!< burst length on the bus (BL8, DDR)

    Cycle tCCD = 4;  //!< column command to column command
    Cycle tRRD = 6;  //!< ACT to ACT, different banks (7.5 ns)
    Cycle tFAW = 32; //!< four-activate window (40 ns)

    /**
     * Bank-group-local variants (DDR4/DDR5): a column command or ACT
     * targeting the *same bank group* as its predecessor pays the long
     * gap; cross-group traffic pays only tCCD / tRRD.  DDR3 has no
     * bank groups, so the defaults equal the short timings and the
     * group gate collapses to the global one.
     */
    Cycle tCCD_L = 4; //!< column to column, same bank group
    Cycle tRRD_L = 6; //!< ACT to ACT, same bank group

    Cycle tWTR = 6;  //!< write data end to read command (7.5 ns)
    Cycle tRTW = 2;  //!< read-to-write data-bus turnaround gap
    Cycle tRTP = 6;  //!< read command to PRE (7.5 ns)
    Cycle tWR = 12;  //!< write recovery: data end to PRE (15 ns)

    Cycle tRTRS = 2; //!< rank-to-rank data-bus switch penalty

    Cycle tRFC = 128;  //!< refresh cycle time (160 ns, 2 Gb device)
    Cycle tREFI = 6240; //!< per-row refresh interval (7.8 us)

    /**
     * Per-bank refresh (REFsb) parameters.  tRFCpb is the single-bank
     * refresh cycle time (strictly shorter than the all-bank tRFC);
     * tREFSBRD is the minimum spacing between two REFsb commands to
     * the *same rank* (different banks).  Both are inert in
     * RefreshMode::kAllBank — the DDR3 defaults just keep validate()
     * happy.
     */
    Cycle tRFCpb = 128;  //!< refresh cycle time, one bank (REFsb)
    Cycle tREFSBRD = 0;  //!< REFsb to REFsb, same rank

    /** Refresh command style the device runs in. */
    RefreshMode refreshMode = RefreshMode::kAllBank;

    /** Rows refreshed by one REF command (paper Sec. 4: 8 is common). */
    unsigned rowsPerRef = 8;

    /** Interval between REF commands: rowsPerRef * tREFI. */
    Cycle refInterval() const { return tREFI * rowsPerRef; }

    /**
     * JEDEC refresh flexibility budget, in tREFI units: a refresh
     * command may be postponed up to refPostponeMax x tREFI past its
     * nominal deadline (the "9 x tREFI" bound: the command lands
     * before the ninth tREFI tick after the previous one) and pulled
     * in up to refPullInMax x tREFI before it.  Both sides default to
     * the spec's 8.  Out-of-order refresh policies (RefreshPolicy,
     * mem/refresh_policy.hh) move refreshes only inside this window;
     * in-order operation never consults it.
     */
    unsigned refPostponeMax = 8;
    unsigned refPullInMax = 8;

    /** Latest legal refresh: its deadline plus this [cycles]. */
    Cycle refPostponeWindow() const { return tREFI * refPostponeMax; }

    /** Earliest legal refresh: its deadline minus this [cycles]. */
    Cycle refPullInWindow() const { return tREFI * refPullInMax; }

    /**
     * Maximum tolerated lateness of a REF command [cycles].  The PBR
     * rated timings include a refresh-slack guard (TimingDerate's
     * slack_ns, default 1 ms); a controller that lets refresh slip
     * further than this voids that guarantee, so the device panics.
     * 0.5 ms at 1.25 ns/cycle.
     */
    Cycle maxRefreshSlack = 400000;

    /** Sanity-check internal consistency; panics on violation. */
    void validate() const;
};

/** Largest DramGeometry::channels: each channel is a full controller
 *  and device stack, so the count sizes the run's memory. */
inline constexpr unsigned kMaxChannels = 1u << 16;

/** Device geometry (paper Table 3: 1 ch / 1 rank / 8 banks / 8K x 1K). */
struct DramGeometry
{
    unsigned channels = 1;      //!< independent channels, <= kMaxChannels
    unsigned ranks = 1;         //!< ranks per channel
    unsigned banks = 8;         //!< banks per rank
    std::uint32_t rows = 8192;  //!< rows per bank
    std::uint32_t columns = 1024; //!< device columns per row
    unsigned lineBytes = 64;    //!< cache-line size
    unsigned columnBytes = 8;   //!< bytes per device column (x64 bus)

    /**
     * Bank groups per rank (DDR4: 4, DDR5: 8).  DDR3 has none, which
     * the model expresses as a single group spanning every bank.
     */
    unsigned bankGroups = 1;

    /**
     * The bank group @p bank belongs to.  Low bank bits select the
     * group, so mappings that stripe consecutive lines across banks
     * automatically alternate bank groups — the layout JEDEC chose for
     * exactly that reason.
     */
    BankGroupId bankGroupOf(BankId bank) const
    {
        return BankGroupId{bank.value() % bankGroups};
    }

    /** Cache lines per row (the column granularity we schedule at). */
    std::uint32_t linesPerRow() const
    {
        return columns * columnBytes / lineBytes;
    }

    /** Total capacity of one channel in bytes. */
    std::uint64_t channelBytes() const
    {
        return static_cast<std::uint64_t>(ranks) * banks * rows *
               columns * columnBytes;
    }

    /** Sanity-check internal consistency; panics on violation. */
    void validate() const;
};

} // namespace nuat

#endif // NUAT_DRAM_TIMING_PARAMS_HH
