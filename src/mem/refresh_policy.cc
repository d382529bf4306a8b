#include "refresh_policy.hh"

#include "dram/refresh_engine.hh"

namespace nuat {

const char *
refreshPolicyName(RefreshPolicy policy)
{
    switch (policy) {
      case RefreshPolicy::kInOrder:
        return "inorder";
      case RefreshPolicy::kDarp:
        return "darp";
      case RefreshPolicy::kSarp:
        return "sarp";
    }
    return "?";
}

bool
parseRefreshPolicy(std::string_view name, RefreshPolicy &out)
{
    if (name == "inorder") {
        out = RefreshPolicy::kInOrder;
    } else if (name == "darp") {
        out = RefreshPolicy::kDarp;
    } else if (name == "sarp") {
        out = RefreshPolicy::kSarp;
    } else {
        return false;
    }
    return true;
}

BankRefreshVerdict
refreshVerdict(RefreshPolicy policy, const RefreshEngine &eng,
               Cycle force_margin, bool has_demand, bool busy, Cycle now)
{
    using V = RefreshVerdict;
    if (policy == RefreshPolicy::kInOrder) {
        if (eng.due(now))
            return {kNeverCycle, V::kOwed};
        return {eng.nextDueAt(), V::kNone};
    }

    // Once the postponement deadline is within the margin, it
    // overrides everything.
    const Cycle deadline = eng.deadlineAt();
    const Cycle forced_at =
        deadline > force_margin ? deadline - force_margin : 0;
    if (now >= forced_at)
        return {kNeverCycle, V::kForced};
    // Defer: the bank has queued demand and window to spare.
    if (has_demand)
        return {forced_at, V::kNone};
    // No demand: refresh at the nominal deadline, or earlier while the
    // controller is busy elsewhere.  Both bounds lie before forced_at.
    if (eng.due(now) || (busy && eng.canPullIn(now)))
        return {forced_at, V::kOwed};
    return {busy ? eng.earliestIssueAt() : eng.nextDueAt(), V::kNone};
}

} // namespace nuat
