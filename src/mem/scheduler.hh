/**
 * @file
 * The scheduling interface between the memory controller and its
 * command-selection policy.
 *
 * Every memory cycle that can have one, the controller enumerates all
 * *issuable-now* candidate commands (the next required command of each
 * queued request) and asks the scheduler to pick one.  The scheduler
 * may also decorate the chosen command: convert a column access to its
 * auto-precharge flavour (page-mode policy) or tighten an ACT's timing
 * (NUAT's charge-aware derating).
 *
 * Order contract: the candidates arrive in queue order, reads before
 * writes and each direction by Request::id (arrival order), with at
 * most one candidate per request.  Every scheduler gives a full tie to
 * the earlier candidate, so this order is part of every schedule.
 */

#ifndef NUAT_MEM_SCHEDULER_HH
#define NUAT_MEM_SCHEDULER_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "dram/command.hh"
#include "dram/dram_device.hh"
#include "refresh_policy.hh"
#include "request.hh"

namespace nuat {

struct RunResult;
class MetricRegistry;

/**
 * One issuable command together with its driving request.  A candidate
 * list holds at most one per request, in queue order: reads before
 * writes, each by Request::id (see the file comment).
 */
struct Candidate
{
    Command cmd;          //!< fully specified, legal at the current cycle
    Request *req;         //!< the queued request this command advances
    bool isWrite = false; //!< request direction (for op-type scoring)
    bool isRowHit = false; //!< column command to an already open row

    /**
     * For column candidates: other queued requests also target this
     * row.  Close-page policies keep the row open (no auto-precharge)
     * exactly while this is true, following USIMM's baseline.
     */
    bool morePendingToRow = false;
};

/** Read-only controller state exposed to schedulers. */
struct SchedContext
{
    Cycle now = 0;
    const DramDevice *dev = nullptr;
    std::size_t readQLen = 0;
    std::size_t writeQLen = 0;
    unsigned wqHighWatermark = 0;
    unsigned wqLowWatermark = 0;

    /** Effective refresh policy (kInOrder unless per-bank refresh with
     *  DARP/SARP configured).  Lets page-mode logic anticipate a
     *  deferred refresh parked behind a bank's queued demand. */
    RefreshPolicy refreshPolicy = RefreshPolicy::kInOrder;
};

/**
 * Write-queue drain hysteresis shared by all schedulers (paper Fig. 13):
 * start draining when the write queue passes the high watermark, stop
 * when it falls below the low watermark, keep the previous state in
 * between.
 */
class WriteDrainState
{
  public:
    /** Update from the current write-queue length. */
    void
    update(const SchedContext &ctx)
    {
        if (ctx.writeQLen > ctx.wqHighWatermark)
            draining_ = true;
        else if (ctx.writeQLen < ctx.wqLowWatermark)
            draining_ = false;
    }

    /** True on the draining path (writes preferred). */
    bool draining() const { return draining_; }

  private:
    bool draining_ = false;
};

/** Page-mode policy for the baseline schedulers. */
enum class PagePolicy
{
    kOpen,  //!< rows stay open until a conflict forces a precharge
    kClose, //!< auto-precharge when no pending request hits the row
};

/**
 * Apply @p policy to a picked column candidate: converts to the
 * auto-precharge flavour when the policy says the row should close.
 *
 * @param grace with close-page, keep the row open while other queued
 *              requests still hit it (USIMM's baseline behaviour);
 *              false gives textbook close-page (always auto-precharge)
 */
void applyPagePolicy(Candidate &cand, PagePolicy policy,
                     bool grace = true);

/** Command-selection policy. */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /**
     * Pick one of @p candidates (all legal at ctx.now) and optionally
     * decorate it (auto-precharge flavour, ACT timing).
     *
     * @return index into @p candidates, or -1 to idle this cycle.
     */
    virtual int pick(std::vector<Candidate> &candidates,
                     const SchedContext &ctx) = 0;

    /**
     * Observe every command actually issued, including controller-
     * forced PREs and REFs that never went through pick().
     */
    virtual void onIssue(const Command &cmd, const SchedContext &ctx)
    {
        (void)cmd;
        (void)ctx;
    }

    /** Called once per memory cycle before candidate enumeration. */
    virtual void tick(const SchedContext &ctx) { (void)ctx; }

    /**
     * Advance internal per-cycle state across an idle span, exactly as
     * if tick() had been called @p cycles times with @p ctx (empty
     * queues, no commands issued).  Overrides must leave the scheduler
     * in the byte-identical state the tick-by-tick path would reach —
     * this is what lets the system fast-forward provably idle cycles
     * without changing any result.
     */
    virtual void fastForward(Cycle cycles, const SchedContext &ctx)
    {
        (void)cycles;
        (void)ctx;
    }

    /**
     * Merge scheduler-specific statistics (e.g. NUAT's per-PB ACT
     * distribution) into @p result.  Replaces RTTI probing in the
     * system's result-merge loop; the default contributes nothing.
     */
    virtual void reportExtra(RunResult &result) const { (void)result; }

    /**
     * Register this scheduler's metrics under @p prefix (e.g.
     * "sched0.") as views of its own counters (see metrics.hh).
     * Called at most once, before the first tick; the scheduler must
     * outlive @p registry's last sample.  Attaching never changes
     * scheduling decisions — the instrumentation is observation-only.
     * The default exports nothing.
     */
    virtual void attachMetrics(MetricRegistry &registry,
                               const std::string &prefix)
    {
        (void)registry;
        (void)prefix;
    }

    /** Human-readable policy name for reports. */
    virtual const char *name() const = 0;
};

} // namespace nuat

#endif // NUAT_MEM_SCHEDULER_HH
