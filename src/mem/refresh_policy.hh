/**
 * @file
 * Refresh scheduling policies layered on per-bank refresh.
 *
 * RefreshMode (timing_params.hh) says what refresh *commands* the
 * device accepts — all-bank REF or per-bank REFsb.  RefreshPolicy says
 * *when the controller issues them* within the JEDEC flexibility
 * window (a REFsb may be pulled in up to refPullInMax x tREFI before
 * its nominal deadline and postponed up to refPostponeMax x tREFI
 * past it):
 *
 *  - kInOrder: issue each bank's REFsb at its nominal staggered
 *    deadline, in rotation order.  Behaviourally identical to the
 *    pre-policy controller; the default, and the only legal policy
 *    under RefreshMode::kAllBank.
 *  - kDarp (Chang et al., DSARP): out-of-order per-bank refresh —
 *    pull a bank's REFsb forward while its queue is idle, defer it
 *    under demand, never past the postponement deadline.
 *  - kSarp: kDarp plus write-drain shadowing — while any bank's
 *    tRFCpb window is in flight, the scheduler prefers write
 *    candidates, hiding the drain inside the refresh shadow.
 */

#ifndef NUAT_MEM_REFRESH_POLICY_HH
#define NUAT_MEM_REFRESH_POLICY_HH

#include <cstdint>
#include <string_view>

#include "common/types.hh"

namespace nuat {

class RefreshEngine;

/** When the controller retires refresh within the JEDEC window. */
enum class RefreshPolicy : std::uint8_t
{
    kInOrder, //!< nominal staggered schedule (default)
    kDarp,    //!< out-of-order: pull in when idle, defer under demand
    kSarp,    //!< kDarp + write drain into refreshing banks' shadow
};

/** Short display name: "inorder" | "darp" | "sarp". */
const char *refreshPolicyName(RefreshPolicy policy);

/**
 * Parse a policy name ("inorder" | "darp" | "sarp") into @p out.
 * Returns false (leaving @p out untouched) on anything else.
 */
bool parseRefreshPolicy(std::string_view name, RefreshPolicy &out);

/** What a bank's refresh policy asks for at one cycle. */
enum class RefreshVerdict : std::uint8_t
{
    kNone,   //!< the bank keeps serving requests
    kOwed,   //!< the policy wants the bank refreshed now
    kForced, //!< DARP/SARP: the deadline allows no deferral
};

/**
 * A bank's verdict at one cycle, with the first cycle at which time
 * alone changes it: the verdict holds on [now, changeAt) and differs
 * at changeAt.  kNeverCycle when only a change of the inputs (the
 * bank's demand, the controller's busyness, a REFsb to the bank) can
 * change it.
 */
struct BankRefreshVerdict
{
    Cycle changeAt = 0;
    RefreshVerdict verdict = RefreshVerdict::kNone;
};

/**
 * The per-bank refresh decision of @p policy for the bank whose rows
 * @p eng refreshes, at @p now.
 *
 *  - kInOrder owes the refresh from the nominal deadline
 *    (RefreshEngine::due) on.
 *  - DARP/SARP force it once the postponement deadline is within
 *    @p force_margin, which must be below the postponement window.
 *    Before that they defer it while the bank @p has_demand, and owe
 *    it when the bank has none and either the nominal deadline has come
 *    or the controller is @p busy elsewhere and the pull-in window has
 *    opened.  An idle controller never pulls in, so the idle
 *    fast-forward, which skips spans where nothing happens, changes no
 *    result.
 *
 * changeAt is the cycle a kNone turns on (the nominal deadline, the
 * pull-in window's start or the forced cycle) and, for a DARP/SARP
 * kOwed, the forced cycle.  A forced or an in-order owed verdict
 * holds until the bank's REFsb.
 */
BankRefreshVerdict refreshVerdict(RefreshPolicy policy,
                                  const RefreshEngine &eng,
                                  Cycle force_margin, bool has_demand,
                                  bool busy, Cycle now);

} // namespace nuat

#endif // NUAT_MEM_REFRESH_POLICY_HH
