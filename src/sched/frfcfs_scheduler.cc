#include "frfcfs_scheduler.hh"

namespace nuat {

int
frFcfsRank(const std::vector<Candidate> &candidates, bool prefer_writes)
{
    // Larger is better: preferred direction, then row hit, then age.
    auto better = [&](const Candidate &a, const Candidate &b) {
        const bool ap = a.isWrite == prefer_writes;
        const bool bp = b.isWrite == prefer_writes;
        if (ap != bp)
            return ap;
        if (a.isRowHit != b.isRowHit)
            return a.isRowHit;
        const Cycle aa = a.req ? a.req->arrivalAt : kNeverCycle;
        const Cycle ba = b.req ? b.req->arrivalAt : kNeverCycle;
        return aa < ba;
    };

    int best = 0;
    for (std::size_t i = 1; i < candidates.size(); ++i) {
        if (better(candidates[i],
                   candidates[static_cast<std::size_t>(best)]))
            best = static_cast<int>(i);
    }
    return best;
}

int
FrFcfsScheduler::pick(std::vector<Candidate> &candidates,
                      const SchedContext &ctx)
{
    if (candidates.empty())
        return -1;
    drain_.update(ctx);
    const int best = frFcfsRank(candidates, drain_.draining());
    applyPagePolicy(candidates[static_cast<std::size_t>(best)],
                    policy_, graceClose_);
    return best;
}

} // namespace nuat
