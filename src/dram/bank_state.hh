/**
 * @file
 * Per-bank DRAM state machine.
 *
 * The bank tracks its open row and, for every command class, the
 * earliest cycle at which that command may legally issue.  Timestamps
 * are updated according to the DDR3 constraint graph:
 *
 *   ACT   -> RD/WR after tRCD; PRE after tRAS; next ACT after tRC
 *   RD    -> PRE after tRTP
 *   WR    -> PRE after tCWL + tBL + tWR (write recovery)
 *   PRE   -> ACT after tRP
 *   RDA/WRA fold the PRE in at its earliest legal point.
 *
 * tRCD / tRAS / tRC are *per activation*: the effective values are the
 * ones carried by the ACT command (charge-derated for NUAT, nominal for
 * baselines).
 */

#ifndef NUAT_DRAM_BANK_STATE_HH
#define NUAT_DRAM_BANK_STATE_HH

#include "charge/timing_derate.hh"
#include "common/types.hh"
#include "timing_params.hh"

namespace nuat {

/** Timing state of one DRAM bank. */
class BankState
{
  public:
    /** Row currently open, or kNoRow when (being) precharged. */
    RowId openRow() const { return openRow_; }

    /** True when no row is open (precharged or precharging). */
    bool isClosed() const { return openRow_ == kNoRow; }

    /** Cycle the last precharge completes; a closed bank takes a
     *  refresh from then on. */
    Cycle prechargedAt() const { return prechargedAt_; }

    /** Earliest cycle an ACT may issue. */
    Cycle actAllowedAt() const { return actAllowedAt_; }

    /** Earliest cycle a column read may issue (bank-local only). */
    Cycle rdAllowedAt() const { return rdAllowedAt_; }

    /** Earliest cycle a column write may issue (bank-local only). */
    Cycle wrAllowedAt() const { return wrAllowedAt_; }

    /** Earliest cycle a PRE may issue. */
    Cycle preAllowedAt() const { return preAllowedAt_; }

    /** Cycle of the activation that opened the current row. */
    Cycle lastActAt() const { return lastActAt_; }

    /** Effective timing of the current activation. */
    const RowTiming &actTiming() const { return actTiming_; }

    /** Apply an ACT at @p now with effective timing @p timing. */
    void onAct(Cycle now, RowId row, const RowTiming &timing);

    /** Apply a column read (no auto-precharge) at @p now. */
    void onRead(Cycle now, const TimingParams &tp);

    /** Apply a column write (no auto-precharge) at @p now. */
    void onWrite(Cycle now, const TimingParams &tp);

    /** Apply an explicit PRE at @p now. */
    void onPre(Cycle now, const TimingParams &tp);

    /** Apply a column read with auto-precharge at @p now. */
    void onReadAp(Cycle now, const TimingParams &tp);

    /** Apply a column write with auto-precharge at @p now. */
    void onWriteAp(Cycle now, const TimingParams &tp);

    /** Apply a refresh that completes at @p done_at. */
    void onRefresh(Cycle done_at);

  private:
    RowId openRow_ = kNoRow;
    Cycle actAllowedAt_ = 0;
    Cycle rdAllowedAt_ = 0;
    Cycle wrAllowedAt_ = 0;
    Cycle preAllowedAt_ = 0;
    Cycle prechargedAt_ = 0; //!< when the last precharge completes
    Cycle lastActAt_ = 0;
    RowTiming actTiming_{0, 0, 0};
};

} // namespace nuat

#endif // NUAT_DRAM_BANK_STATE_HH
