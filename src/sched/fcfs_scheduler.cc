#include "fcfs_scheduler.hh"

namespace nuat {

int
FcfsScheduler::pick(std::vector<Candidate> &candidates,
                    const SchedContext &ctx)
{
    if (candidates.empty())
        return -1;
    drain_.update(ctx);
    const bool prefer_writes = drain_.draining();

    int best = -1;
    bool best_preferred = false;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const Candidate &c = candidates[i];
        const bool preferred = c.isWrite == prefer_writes;
        const bool better =
            best < 0 || (preferred && !best_preferred) ||
            (preferred == best_preferred &&
             queuedBefore(c, candidates[static_cast<std::size_t>(best)]));
        if (better) {
            best = static_cast<int>(i);
            best_preferred = preferred;
        }
    }
    applyPagePolicy(candidates[static_cast<std::size_t>(best)],
                    policy_);
    return best;
}

} // namespace nuat
