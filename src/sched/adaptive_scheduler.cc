#include "adaptive_scheduler.hh"

#include "frfcfs_scheduler.hh"

namespace nuat {

AdaptiveFrFcfsScheduler::AdaptiveFrFcfsScheduler(Cycle sub_window,
                                                 unsigned window_ratio,
                                                 bool grace_close)
    : phrc_(sub_window, window_ratio), graceClose_(grace_close)
{
}

void
AdaptiveFrFcfsScheduler::tick(const SchedContext &ctx)
{
    drain_.update(ctx);
    phrc_.tick();
    (void)ctx;
}

void
AdaptiveFrFcfsScheduler::fastForward(Cycle cycles,
                                     const SchedContext &ctx)
{
    drain_.update(ctx);
    phrc_.tickN(cycles);
}

void
AdaptiveFrFcfsScheduler::onIssue(const Command &cmd,
                                 const SchedContext &ctx)
{
    (void)ctx;
    if (cmd.type == CmdType::kAct)
        phrc_.onActivation();
    else if (isColumnCmd(cmd.type))
        phrc_.onColumnAccess();
}

double
AdaptiveFrFcfsScheduler::threshold(const SchedContext &ctx) const
{
    const double trp = static_cast<double>(ctx.dev->timing().tRP);
    const double trcd = static_cast<double>(ctx.dev->timing().tRCD);
    return trp / (trcd + trp);
}

int
AdaptiveFrFcfsScheduler::pick(std::vector<Candidate> &candidates,
                              const SchedContext &ctx)
{
    if (candidates.empty())
        return -1;
    drain_.update(ctx);
    const int best = frFcfsRank(candidates, drain_.draining());
    const PagePolicy mode = phrc_.hitRate() > threshold(ctx)
                                ? PagePolicy::kOpen
                                : PagePolicy::kClose;
    applyPagePolicy(candidates[static_cast<std::size_t>(best)], mode,
                    graceClose_);
    return best;
}

} // namespace nuat
