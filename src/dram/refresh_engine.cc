#include "refresh_engine.hh"

#include "common/logging.hh"

namespace nuat {

RefreshEngine::RefreshEngine(std::uint32_t rows, const TimingParams &tp)
    : RefreshEngine(rows, tp, tp.refInterval())
{
}

RefreshEngine::RefreshEngine(std::uint32_t rows, const TimingParams &tp,
                             Cycle first_due_at)
    : rows_(rows), rowsPerRef_(tp.rowsPerRef),
      interval_(tp.refInterval()), pullInWindow_(tp.refPullInWindow()),
      postponeWindow_(tp.refPostponeWindow()), firstDueAt_(first_due_at)
{
    nuat_assert(rows_ > 0 && rowsPerRef_ > 0);
    nuat_assert(rows_ % rowsPerRef_ == 0,
                "(rows %u not divisible by rowsPerRef %u)", rows_,
                rowsPerRef_);
    nuat_assert(first_due_at > 0 && first_due_at <= interval_,
                "(refresh phase outside (0, interval])");

    // The steady-state history before cycle 0 is a formula (see
    // lastRefreshAt), so nothing is stamped until the first REF.
    groupRefreshAt_.reserve(rows_ / rowsPerRef_);
    nextRow_ = 0;
    nextDueAt_ = first_due_at;
}

void
RefreshEngine::performRefresh(Cycle now)
{
    // The counter walks the groups in order, so the first lap appends.
    const std::uint32_t group = nextRow_ / rowsPerRef_;
    if (group < groupRefreshAt_.size()) {
        groupRefreshAt_[group] = static_cast<std::int64_t>(now);
    } else {
        nuat_assert(group == groupRefreshAt_.size());
        groupRefreshAt_.push_back(static_cast<std::int64_t>(now));
    }
    if (now < nextDueAt_)
        ++pulledIn_;
    else if (now > nextDueAt_)
        ++postponed_;
    nextRow_ = (nextRow_ + rowsPerRef_) % rows_;
    nextDueAt_ += interval_; // absolute schedule: lateness never accrues
    ++refreshesDone_;
}

std::int64_t
RefreshEngine::lastRefreshAt(RowId row) const
{
    nuat_assert(row.value() < rows_);
    const std::uint32_t group = row.value() / rowsPerRef_;
    if (group < groupRefreshAt_.size())
        return groupRefreshAt_[group];
    // Steady-state history: with the first REF due at phase d, group g
    // of G was last refreshed at d - (G - g) intervals — strictly
    // before cycle 0, evenly spaced, with group G-1 the freshest.  At
    // d == interval this is the classic schedule (last group refreshed
    // exactly at cycle 0).
    const std::uint32_t groups = rows_ / rowsPerRef_;
    return static_cast<std::int64_t>(firstDueAt_) -
           static_cast<std::int64_t>(groups - group) *
               static_cast<std::int64_t>(interval_);
}

Nanoseconds
RefreshEngine::elapsedSinceRefresh(RowId row, Cycle now,
                                   const Clock &clock) const
{
    const std::int64_t delta =
        static_cast<std::int64_t>(now) - lastRefreshAt(row);
    nuat_assert(delta >= 0, "(row %u refreshed in the future?)",
                row.value());
    return static_cast<double>(delta) * clock.period();
}

} // namespace nuat
