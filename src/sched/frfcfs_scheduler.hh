/**
 * @file
 * FR-FCFS (first-ready, first-come-first-served) scheduler — the
 * paper's baseline (Rixner et al., ISCA'00), in both open- and
 * close-page flavours.
 *
 * Priority order within the preferred direction (reads while filling,
 * writes while draining):
 *   1. column commands to already-open rows (row hits), oldest first;
 *   2. ACT / PRE commands, oldest first.
 * If the preferred direction has no candidate, the other direction is
 * scheduled by the same rule, so the bus never idles while work exists.
 */

#ifndef NUAT_SCHED_FRFCFS_SCHEDULER_HH
#define NUAT_SCHED_FRFCFS_SCHEDULER_HH

#include "mem/scheduler.hh"

namespace nuat {

/**
 * The FR-FCFS ranking every FR-FCFS flavour shares: the index of the
 * best of the non-empty @p candidates by (preferred direction, row
 * hit, queue key), the queue key putting the oldest arrival first.
 * Each scheduler then applies its own page policy to the winner.
 */
int frFcfsRank(const std::vector<Candidate> &candidates, bool prefer_writes);

/** First-ready FCFS with write-drain hysteresis and a page policy. */
class FrFcfsScheduler : public Scheduler
{
  public:
    /**
     * @param policy open- or close-page operation
     * @param grace_close with close-page, keep rows open while queued
     *                    requests still hit them (USIMM baseline)
     */
    explicit FrFcfsScheduler(PagePolicy policy = PagePolicy::kOpen,
                             bool grace_close = true)
        : policy_(policy), graceClose_(grace_close)
    {
    }

    int pick(std::vector<Candidate> &candidates,
             const SchedContext &ctx) override;

    const char *
    name() const override
    {
        return policy_ == PagePolicy::kOpen ? "FR-FCFS(open)"
                                            : "FR-FCFS(close)";
    }

    /** The page policy in use. */
    PagePolicy policy() const { return policy_; }

    /** Current drain state (exposed for tests). */
    bool draining() const { return drain_.draining(); }

  private:
    PagePolicy policy_;
    bool graceClose_;
    WriteDrainState drain_;
};

} // namespace nuat

#endif // NUAT_SCHED_FRFCFS_SCHEDULER_HH
