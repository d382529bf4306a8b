#include "dram_device.hh"

#include <algorithm>

#include "common/logging.hh"
#include "fault/fault_model.hh"

namespace nuat {

void
DeviceCounters::merge(const DeviceCounters &other)
{
    acts += other.acts;
    pres += other.pres;
    reads += other.reads;
    writes += other.writes;
    autoPres += other.autoPres;
    readAutoPres += other.readAutoPres;
    refreshes += other.refreshes;
    marginViolations += other.marginViolations;
    for (std::size_t i = 0; i < 16; ++i)
        actsByTrcdReduction[i] += other.actsByTrcdReduction[i];
}

RankState::RankState(std::uint32_t rows, const TimingParams &tp,
                     const DramGeometry &geom)
{
    banks.resize(geom.banks);
    refsbBusyUntil.assign(geom.banks, 0);
    groupActAllowedAt.assign(geom.bankGroups, 0);
    groupRdIssueOkAt.assign(geom.bankGroups, 0);
    groupWrIssueOkAt.assign(geom.bankGroups, 0);

    if (tp.refreshMode == RefreshMode::kPerBank) {
        // One engine per bank, phase-staggered across the interval so
        // the per-bank deadlines spread out instead of all landing on
        // the same cycle: bank 0 is due first, bank B-1 a full
        // interval in (the all-bank phase).
        const Cycle interval = tp.refInterval();
        const Cycle step = interval / geom.banks;
        engines.reserve(geom.banks);
        for (unsigned b = 0; b < geom.banks; ++b) {
            const Cycle phase =
                interval - static_cast<Cycle>(geom.banks - 1 - b) * step;
            engines.emplace_back(rows, tp, phase);
        }
    } else {
        engines.emplace_back(rows, tp);
    }
}

Cycle
RankState::fawOpensAt(const TimingParams &tp) const
{
    // actWindow holds the last 4 ACT times (oldest first): a fifth ACT
    // must wait until the oldest leaves the tFAW window.
    return actWindow.size() < 4 ? 0 : actWindow.front() + tp.tFAW;
}

void
RankState::recordAct(Cycle now, const TimingParams &tp)
{
    actAllowedAt = now + tp.tRRD;
    actWindow.push_back(now);
    if (actWindow.size() > 4)
        actWindow.pop_front();
}

DramDevice::DramDevice(const DramGeometry &geometry, const TimingParams &tp,
                       const TimingDerate &derate, const Clock &clock)
    : geom_(geometry), tp_(tp), derate_(derate), clock_(clock)
{
    geom_.validate();
    tp_.validate();
    nuat_assert(geom_.channels == 1,
                "(DramDevice models one channel; instantiate one per "
                "channel)");
    // The derating model must be based on the same nominal activation
    // timing this device enforces, or ground truth and rated PB timing
    // would disagree about what "nominal" means.
    nuat_assert(derate_.nominal().trcd == tp_.tRCD &&
                    derate_.nominal().tras == tp_.tRAS &&
                    derate_.nominal().trp == tp_.tRP,
                "(charge model nominal timing != device timing)");
    ranks_.reserve(geom_.ranks);
    for (unsigned r = 0; r < geom_.ranks; ++r)
        ranks_.emplace_back(geom_.rows, tp_, geom_);
}

const BankState &
DramDevice::bank(RankId rank, BankId bank_idx) const
{
    nuat_assert(rank.value() < ranks_.size() &&
                bank_idx.value() < geom_.banks);
    return ranks_[rank.value()].banks[bank_idx.value()];
}

BankState &
DramDevice::bankRef(RankId rank, BankId bank_idx)
{
    nuat_assert(rank.value() < ranks_.size() &&
                bank_idx.value() < geom_.banks);
    return ranks_[rank.value()].banks[bank_idx.value()];
}

const RankState &
DramDevice::rank(RankId rank_idx) const
{
    nuat_assert(rank_idx.value() < ranks_.size());
    return ranks_[rank_idx.value()];
}

const RefreshEngine &
DramDevice::refresh(RankId rank_idx) const
{
    nuat_assert(rank_idx.value() < ranks_.size());
    return ranks_[rank_idx.value()].engines.front();
}

const RefreshEngine &
DramDevice::refreshFor(RankId rank_idx, BankId bank_idx) const
{
    nuat_assert(rank_idx.value() < ranks_.size() &&
                bank_idx.value() < geom_.banks);
    return ranks_[rank_idx.value()].engineFor(bank_idx);
}

Cycle
DramDevice::nextRefreshDueAt(RankId rank_idx) const
{
    nuat_assert(rank_idx.value() < ranks_.size());
    Cycle due = kNeverCycle;
    for (const auto &eng : ranks_[rank_idx.value()].engines)
        due = std::min(due, eng.nextDueAt());
    return due;
}

RowTiming
DramDevice::trueRowTiming(RankId rank_idx, BankId bank_idx, RowId row,
                          Cycle now) const
{
    const auto &eng = refreshFor(rank_idx, bank_idx);
    return derate_.effective(eng.elapsedSinceRefresh(row, now, clock_));
}

RowTiming
DramDevice::faultedRowTiming(RankId rank_idx, BankId bank_idx, RowId row,
                             Cycle now) const
{
    if (!faults_)
        return trueRowTiming(rank_idx, bank_idx, row, now);
    // Past the retention period the charge model can promise nothing
    // better than nominal timing, and the sense-amp response is only
    // calibrated up to retention; clamp so heavy leakage multipliers
    // cannot drive it out of domain.  (Whether the data survived that
    // long is a separate question — marginViolations tracks it.)
    Nanoseconds elapsed = faults_->trueElapsed(rank_idx, row, now);
    if (elapsed > derate_.retention())
        elapsed = derate_.retention();
    return derate_.effective(elapsed);
}

void
DramDevice::attachFaultModel(FaultModel *faults)
{
    nuat_assert(faults != nullptr);
    nuat_assert(!faults_, "(attachFaultModel called twice)");
    // The fault world keys its ground truth on (rank, row); per-bank
    // refresh would give the same row id a different refresh time per
    // bank, which that keying cannot express.  ExperimentConfig
    // rejects the combination up front; this is the backstop.
    nuat_assert(tp_.refreshMode == RefreshMode::kAllBank,
                "(fault injection requires all-bank refresh)");
    faults_ = faults;
}

Cycle
DramDevice::earliestIssueAt(const Command &cmd) const
{
    nuat_assert(cmd.rank.value() < ranks_.size());
    nuat_assert(cmd.type == CmdType::kRef ||
                cmd.bank.value() < geom_.banks);
    const RankState &r = ranks_[cmd.rank.value()];

    // Command bus: one command per cycle.
    const Cycle bus = lastCmdAt_ == kNeverCycle ? 0 : lastCmdAt_ + 1;

    if (cmd.type == CmdType::kRef) {
        if (tp_.refreshMode != RefreshMode::kAllBank)
            return kNeverCycle; // per-bank devices retire refresh via REFsb
        Cycle at = std::max(bus, r.refBusyUntil);
        for (const BankState &b : r.banks) {
            if (!b.isClosed())
                return kNeverCycle;
            at = std::max(at, b.prechargedAt());
        }
        return at;
    }

    const BankState &b = r.banks[cmd.bank.value()];
    const std::size_t g = geom_.bankGroupOf(cmd.bank).value();
    // A burst from another rank must leave the tRTRS bus-ownership gap
    // after the last one; its data starts @p latency after the command.
    auto rankSwitchAt = [&](Cycle latency) -> Cycle {
        if (cmd.rank == lastDataRank_)
            return 0;
        const Cycle free_at = lastDataEndAt_ + tp_.tRTRS;
        return free_at > latency ? free_at - latency : 0;
    };

    switch (cmd.type) {
      case CmdType::kAct:
        if (!b.isClosed())
            return kNeverCycle;
        return std::max({bus, b.actAllowedAt(), r.actAllowedAt,
                         r.groupActAllowedAt[g], r.refBusyUntil,
                         r.refsbBusyUntil[cmd.bank.value()],
                         r.fawOpensAt(tp_)});
      case CmdType::kPre:
        if (b.isClosed())
            return kNeverCycle;
        return std::max(bus, b.preAllowedAt());
      case CmdType::kRead:
      case CmdType::kReadAp:
        if (b.isClosed())
            return kNeverCycle;
        return std::max({bus, b.rdAllowedAt(), rdIssueOkAt_,
                         r.groupRdIssueOkAt[g], rankSwitchAt(tp_.tCL)});
      case CmdType::kWrite:
      case CmdType::kWriteAp:
        if (b.isClosed())
            return kNeverCycle;
        return std::max({bus, b.wrAllowedAt(), wrIssueOkAt_,
                         r.groupWrIssueOkAt[g], rankSwitchAt(tp_.tCWL)});
      case CmdType::kRefsb: {
        if (tp_.refreshMode != RefreshMode::kPerBank || !b.isClosed())
            return kNeverCycle;
        const Cycle at = std::max({bus, b.prechargedAt(),
                                   r.refsbBusyUntil[cmd.bank.value()]});
        // Same-rank spacing between consecutive REFsb commands.
        return r.lastRefsbAt == kNeverCycle
                   ? at
                   : std::max(at, r.lastRefsbAt + tp_.tREFSBRD);
      }
      case CmdType::kRef:
        break; // handled above
    }
    return kNeverCycle;
}

void
DramDevice::addObserver(CommandObserver *obs)
{
    nuat_assert(obs != nullptr);
    observers_.push_back(obs);
}

IssueResult
DramDevice::issue(const Command &cmd, Cycle now)
{
    confined_.assertOwned("DramDevice");
    if (!canIssue(cmd, now)) {
        nuat_panic("illegal %s to rank %u bank %u at cycle %llu",
                   cmd.name(), cmd.rank.value(), cmd.bank.value(),
                   static_cast<unsigned long long>(now));
    }
    for (CommandObserver *obs : observers_)
        obs->onCommand(cmd, now);
    lastCmdAt_ = now;

    RankState &r = ranks_[cmd.rank.value()];
    IssueResult result;

    switch (cmd.type) {
      case CmdType::kAct: {
        // Ground truth: the requested timing may not be faster than
        // what the row's remaining charge physically supports.
        const RowTiming min =
            trueRowTiming(cmd.rank, cmd.bank, cmd.row, now);
        if (cmd.actTiming.trcd < min.trcd ||
            cmd.actTiming.tras < min.tras ||
            cmd.actTiming.trc < min.trc) {
            nuat_panic("charge violation: ACT row %u requested "
                       "tRCD/tRAS/tRC %llu/%llu/%llu but charge allows "
                       "only %llu/%llu/%llu",
                       cmd.row.value(),
                       static_cast<unsigned long long>(cmd.actTiming.trcd),
                       static_cast<unsigned long long>(cmd.actTiming.tras),
                       static_cast<unsigned long long>(cmd.actTiming.trc),
                       static_cast<unsigned long long>(min.trcd),
                       static_cast<unsigned long long>(min.tras),
                       static_cast<unsigned long long>(min.trc));
        }
        // Fault world: a request faster than what the *faulted* cell
        // supports is not a controller bug (the controller cannot see
        // injected faults), so it is counted as a silent-corruption
        // event rather than a panic.  The guardband/auditor layers are
        // responsible for driving this count back to rare.
        if (faults_) {
            const RowTiming fmin =
                faultedRowTiming(cmd.rank, cmd.bank, cmd.row, now);
            if (cmd.actTiming.trcd < fmin.trcd ||
                cmd.actTiming.tras < fmin.tras ||
                cmd.actTiming.trc < fmin.trc)
                ++counters_.marginViolations;
        }
        r.banks[cmd.bank.value()].onAct(now, cmd.row, cmd.actTiming);
        r.recordAct(now, tp_);
        r.groupActAllowedAt[geom_.bankGroupOf(cmd.bank).value()] =
            now + tp_.tRRD_L;
        ++counters_.acts;
        const Cycle red = tp_.tRCD - cmd.actTiming.trcd;
        ++counters_.actsByTrcdReduction[red < 16 ? red : 15];
        break;
      }
      case CmdType::kPre:
        r.banks[cmd.bank.value()].onPre(now, tp_);
        ++counters_.pres;
        break;
      case CmdType::kRead:
      case CmdType::kReadAp:
        if (cmd.type == CmdType::kRead) {
            r.banks[cmd.bank.value()].onRead(now, tp_);
        } else {
            r.banks[cmd.bank.value()].onReadAp(now, tp_);
            ++counters_.autoPres;
            ++counters_.readAutoPres;
        }
        ++counters_.reads;
        // Data-bus interleaving: back-to-back reads gap by tCCD
        // (tCCD_L when the next one hits the same bank group); a
        // write after a read must leave the bus turnaround gap.
        rdIssueOkAt_ = std::max(rdIssueOkAt_, now + tp_.tCCD);
        {
            Cycle &gate = r.groupRdIssueOkAt[geom_.bankGroupOf(cmd.bank)
                                                 .value()];
            gate = std::max(gate, now + tp_.tCCD_L);
        }
        wrIssueOkAt_ = std::max(
            wrIssueOkAt_, now + tp_.tCL + tp_.tBL + tp_.tRTW - tp_.tCWL);
        result.dataAt = now + tp_.tCL + tp_.tBL;
        lastDataRank_ = cmd.rank;
        lastDataEndAt_ = result.dataAt;
        break;
      case CmdType::kWrite:
      case CmdType::kWriteAp:
        if (cmd.type == CmdType::kWrite) {
            r.banks[cmd.bank.value()].onWrite(now, tp_);
        } else {
            r.banks[cmd.bank.value()].onWriteAp(now, tp_);
            ++counters_.autoPres;
        }
        ++counters_.writes;
        wrIssueOkAt_ = std::max(wrIssueOkAt_, now + tp_.tCCD);
        {
            Cycle &gate = r.groupWrIssueOkAt[geom_.bankGroupOf(cmd.bank)
                                                 .value()];
            gate = std::max(gate, now + tp_.tCCD_L);
        }
        // A read after a write waits for write data plus tWTR.
        rdIssueOkAt_ = std::max(rdIssueOkAt_,
                                now + tp_.tCWL + tp_.tBL + tp_.tWTR);
        lastDataRank_ = cmd.rank;
        lastDataEndAt_ = now + tp_.tCWL + tp_.tBL;
        break;
      case CmdType::kRef: {
        RefreshEngine &eng = r.engines.front();
        const Cycle due = eng.nextDueAt();
        if (now > due + tp_.maxRefreshSlack) {
            nuat_panic("REF %llu cycles late: PBR rated timing is only "
                       "guaranteed within the refresh-slack guard",
                       static_cast<unsigned long long>(now - due));
        }
        if (now + tp_.refPullInWindow() < due) {
            nuat_panic("REF %llu cycles early: pulled in beyond the "
                       "JEDEC pull-in budget",
                       static_cast<unsigned long long>(due - now));
        }
        if (faults_)
            faults_->onRefresh(cmd.rank, eng.nextRow(), now);
        eng.performRefresh(now);
        r.refBusyUntil = now + tp_.tRFC;
        for (auto &b : r.banks)
            b.onRefresh(r.refBusyUntil);
        ++counters_.refreshes;
        break;
      }
      case CmdType::kRefsb: {
        RefreshEngine &eng = r.engineFor(cmd.bank);
        const Cycle due = eng.nextDueAt();
        if (now > due + tp_.maxRefreshSlack) {
            nuat_panic("REFSB bank %u %llu cycles late: PBR rated "
                       "timing is only guaranteed within the "
                       "refresh-slack guard",
                       cmd.bank.value(),
                       static_cast<unsigned long long>(now - due));
        }
        if (now + tp_.refPullInWindow() < due) {
            nuat_panic("REFSB bank %u %llu cycles early: pulled in "
                       "beyond the JEDEC pull-in budget",
                       cmd.bank.value(),
                       static_cast<unsigned long long>(due - now));
        }
        eng.performRefresh(now);
        r.refsbBusyUntil[cmd.bank.value()] = now + tp_.tRFCpb;
        refsbEndsAt_ = now + tp_.tRFCpb;
        r.lastRefsbAt = now;
        r.banks[cmd.bank.value()].onRefresh(
            r.refsbBusyUntil[cmd.bank.value()]);
        ++counters_.refreshes;
        break;
      }
    }
    return result;
}

} // namespace nuat
