#include "memory_controller.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "common/metrics.hh"

namespace nuat {

void
ControllerStats::merge(const ControllerStats &other)
{
    readsAccepted += other.readsAccepted;
    writesAccepted += other.writesAccepted;
    readsMerged += other.readsMerged;
    readsForwarded += other.readsForwarded;
    writesCoalesced += other.writesCoalesced;
    forcedPres += other.forcedPres;
    readsCompleted += other.readsCompleted;
    readLatencySum += other.readLatencySum;
    rowHitReads += other.rowHitReads;
    rowHitWrites += other.rowHitWrites;
    idleCycles += other.idleCycles;
    tickCycles += other.tickCycles;
    readLatencyHist.merge(other.readLatencyHist);
    readQOccupancySum += other.readQOccupancySum;
    writeQOccupancySum += other.writeQOccupancySum;
}

void
MemoryController::attachMetrics(MetricRegistry &registry,
                                unsigned channel)
{
    nuat_assert(!occupancy_, "(attachMetrics called twice)");
    occupancy_ = std::make_unique<Occupancy>();
    const std::string p = "ctrl" + std::to_string(channel) + ".";
    const DeviceCounters *d = &dev_.counters();
    const ControllerStats *s = &stats_;
    // The device counts RDA+WRA together and REF+REFsb together; the
    // refresh mode decides which of REF / REFsb this channel issues.
    const bool per_bank = dev_.timing().refreshMode == RefreshMode::kPerBank;
    registry.counter(p + "cmd_act", [d] { return d->acts; },
                     "ACT commands issued");
    registry.counter(p + "cmd_pre", [d] { return d->pres; },
                     "explicit PRE commands issued");
    registry.counter(p + "cmd_read",
                     [d] { return d->reads - d->readAutoPres; },
                     "READ commands issued");
    registry.counter(p + "cmd_read_ap", [d] { return d->readAutoPres; },
                     "READ+auto-precharge commands");
    registry.counter(
        p + "cmd_write",
        [d] { return d->writes - (d->autoPres - d->readAutoPres); },
        "WRITE commands issued");
    registry.counter(p + "cmd_write_ap",
                     [d] { return d->autoPres - d->readAutoPres; },
                     "WRITE+auto-precharge commands");
    registry.counter(
        p + "cmd_ref",
        [d, per_bank] { return per_bank ? 0 : d->refreshes; },
        "REF commands issued");
    registry.counter(
        p + "cmd_refsb",
        [d, per_bank] { return per_bank ? d->refreshes : 0; },
        "REFSB (per-bank refresh) commands");
    registry.counter(p + "forced_pre", [s] { return s->forcedPres; },
                     "PREs forced while draining for refresh");
    registry.counter(p + "reads_forwarded",
                     [s] { return s->readsForwarded; },
                     "reads served from the write queue");
    registry.counter(p + "reads_merged", [s] { return s->readsMerged; },
                     "reads merged onto a pending access");
    registry.counter(p + "writes_coalesced",
                     [s] { return s->writesCoalesced; },
                     "writes coalesced in the write queue");
    registry.counter(p + "reads_completed",
                     [s] { return s->readsCompleted; },
                     "reads completed");
    registry.histogram(
        p + "read_latency", stats_.readLatencyHist,
        "read latency enqueue->data [cycles], 8-cycle buckets");
    registry.histogram(p + "readq_occupancy", occupancy_->readq,
                       "read-queue length sampled every tick");
    registry.histogram(p + "writeq_occupancy", occupancy_->writeq,
                       "write-queue length sampled every tick");
    registry.gauge(
        p + "readq_len",
        [this] { return static_cast<double>(readQ_.size()); },
        "read-queue length now");
    registry.gauge(
        p + "writeq_len",
        [this] { return static_cast<double>(writeQ_.size()); },
        "write-queue length now");
    scheduler_->attachMetrics(registry,
                              "sched" + std::to_string(channel) + ".");
}

MemoryController::MemoryController(DramDevice &dev,
                                   std::unique_ptr<Scheduler> scheduler,
                                   const ControllerConfig &config)
    : dev_(dev), scheduler_(std::move(scheduler)), cfg_(config),
      mapping_(config.mapping,
               [&] {
                   DramGeometry g = dev.geometry();
                   g.channels = config.channels;
                   return g;
               }()),
      readQ_(config.readQueueCapacity), writeQ_(config.writeQueueCapacity)
{
    nuat_assert(scheduler_ != nullptr);
    nuat_assert(cfg_.writeQueueLowWatermark < cfg_.writeQueueHighWatermark);
    nuat_assert(cfg_.writeQueueHighWatermark < cfg_.writeQueueCapacity);

    const unsigned ranks = dev_.geometry().ranks;
    const unsigned banks = dev_.geometry().banks;
    index_.reset(ranks, banks);
    readQ_.attachBankIndex(&index_);
    writeQ_.attachBankIndex(&index_);
    verdict_.assign(static_cast<std::size_t>(ranks) * banks, {});

    // Out-of-order refresh policies only exist on the REFsb substrate;
    // under all-bank REF the config knob degenerates to in-order.
    const TimingParams &tp = dev_.timing();
    if (tp.refreshMode == RefreshMode::kPerBank)
        policy_ = cfg_.refreshPolicy;
    if (policy_ != RefreshPolicy::kInOrder) {
        // Worst case between "refresh forced" and "REFsb lands": the
        // open row finishes its access (tRAS-class recovery + write
        // recovery), a forced PRE closes it, and the REFsb waits out
        // the rank's same-rank spacing behind every other bank, plus a
        // same-cycle-scan slack term.
        forceMargin_ = tp.tRAS + tp.tCWL + tp.tBL + tp.tWR + tp.tRP +
                       static_cast<Cycle>(banks) * tp.tREFSBRD +
                       tp.tRFCpb + 64;
        nuat_assert(forceMargin_ < tp.refPostponeWindow(),
                    "(postponement window too small to defer refresh)");
    }
}

Addr
MemoryController::lineAddr(Addr addr) const
{
    return addr & ~static_cast<Addr>(dev_.geometry().lineBytes - 1);
}

SchedContext
MemoryController::makeContext(Cycle now) const
{
    SchedContext ctx;
    ctx.now = now;
    ctx.dev = &dev_;
    ctx.readQLen = readQ_.size();
    ctx.writeQLen = writeQ_.size();
    ctx.wqHighWatermark = cfg_.writeQueueHighWatermark;
    ctx.wqLowWatermark = cfg_.writeQueueLowWatermark;
    ctx.refreshPolicy = policy_;
    return ctx;
}

Request
MemoryController::makeRequest(bool is_write, Addr line, Cycle now)
{
    Request req;
    req.id = nextRequestId_++;
    req.isWrite = is_write;
    req.addr = line;
    const DramCoord c = mapping_.decompose(line);
    req.rank = c.rank;
    req.bank = c.bank;
    req.row = c.row;
    req.col = c.col;
    req.arrivalAt = now;
    return req;
}

MemoryController::PendingCompletion &
MemoryController::addInFlight(Cycle data_at, Addr line)
{
    if (liveInFlight_ == inFlight_.size())
        inFlight_.emplace_back();
    PendingCompletion &f = inFlight_[liveInFlight_++];
    f.dataAt = data_at;
    f.addr = line;
    f.waiters.clear();
    return f;
}

bool
MemoryController::canAcceptRead(Addr addr) const
{
    const Addr line = lineAddr(addr);
    if (writeQ_.findLine(line) || readQ_.findLine(line))
        return true; // forwarded or merged; no new queue slot needed
    // A linear scan: few reads are in flight, and of several entries
    // for one line (forwarded reads) a merge takes the first.
    for (std::size_t i = 0; i < liveInFlight_; ++i) {
        if (inFlight_[i].addr == line)
            return true; // merges onto the in-flight access
    }
    return readQ_.hasRoom();
}

bool
MemoryController::canAcceptWrite(Addr addr) const
{
    const Addr line = lineAddr(addr);
    return writeQ_.findLine(line) != nullptr || writeQ_.hasRoom();
}

void
MemoryController::enqueueRead(Addr addr, const Waiter &waiter, Cycle now)
{
    confined_.assertOwned("MemoryController");
    const Addr line = lineAddr(addr);
    ++stats_.readsAccepted;

    // Forward from a pending write: the controller already holds the
    // line's data, no DRAM access needed.
    if (writeQ_.findLine(line)) {
        ++stats_.readsForwarded;
        ++stats_.readsCompleted;
        stats_.readLatencySum += static_cast<double>(cfg_.forwardLatency);
        stats_.readLatencyHist.sample(
            static_cast<double>(cfg_.forwardLatency));
        addInFlight(now + cfg_.forwardLatency, line).waiters.push_back(waiter);
        return;
    }

    // Merge onto a pending read to the same line.
    if (Request *pending = readQ_.findLine(line)) {
        ++stats_.readsMerged;
        pending->waiters.push_back(waiter);
        return;
    }
    for (std::size_t i = 0; i < liveInFlight_; ++i) {
        if (inFlight_[i].addr == line) {
            ++stats_.readsMerged;
            inFlight_[i].waiters.push_back(waiter);
            return;
        }
    }

    nuat_assert(readQ_.hasRoom(), "(enqueueRead without canAcceptRead)");
    Request &req = readQ_.push(makeRequest(false, line, now));
    req.waiters.push_back(waiter);
    queuesChanged(req.rank, req.bank, true);
    quietUntil_ = 0; // a new request may be issuable at once
}

void
MemoryController::enqueueWrite(Addr addr, Cycle now)
{
    confined_.assertOwned("MemoryController");
    const Addr line = lineAddr(addr);
    ++stats_.writesAccepted;

    if (writeQ_.findLine(line)) {
        ++stats_.writesCoalesced; // last-writer-wins, one DRAM write
        return;
    }

    nuat_assert(writeQ_.hasRoom(), "(enqueueWrite without canAcceptWrite)");
    const Request &req = writeQ_.push(makeRequest(true, line, now));
    queuesChanged(req.rank, req.bank, true);
    quietUntil_ = 0; // a new request may be issuable at once
}

void
MemoryController::queuesChanged(RankId rank, BankId bank, bool pushed)
{
    if (policy_ == RefreshPolicy::kInOrder)
        return;
    // After a push, one request marks the start of demand; after a
    // removal, none marks its end.
    const std::size_t edge = pushed ? 1 : 0;
    if (readQ_.size() + writeQ_.size() == edge) {
        for (BankRefreshVerdict &v : verdict_)
            v.changeAt = 0;
        verdictsChangeAt_ = 0;
        return;
    }
    const std::size_t flat = index_.flatBank(rank, bank);
    if (index_.bankDemand(flat) == edge)
        staleVerdict(flat);
}

void
MemoryController::processCompletions(Cycle now)
{
    for (std::size_t i = 0; i < liveInFlight_;) {
        PendingCompletion &f = inFlight_[i];
        if (f.dataAt <= now) {
            if (readCallback_) {
                for (const Waiter &w : f.waiters)
                    readCallback_(w, f.addr, f.dataAt);
            }
            // Swap-remove with the last live entry; the finished one
            // stays behind the live ones for reuse.
            if (i != --liveInFlight_)
                std::swap(f, inFlight_[liveInFlight_]);
        } else {
            ++i;
        }
    }
}

bool
MemoryController::tryIssue(const Command &cmd, Cycle now, Cycle &wake)
{
    const Cycle at = dev_.earliestIssueAt(cmd);
    if (at > now) {
        wake = std::min(wake, at);
        return false;
    }
    dev_.issue(cmd, now);
    scheduler_->onIssue(cmd, makeContext(now));
    return true;
}

bool
MemoryController::handleRefresh(Cycle now, Cycle &wake)
{
    if (dev_.timing().refreshMode == RefreshMode::kPerBank)
        return handlePerBankRefresh(now, wake);

    const unsigned banks = dev_.geometry().banks;
    for (unsigned r = 0; r < dev_.geometry().ranks; ++r) {
        const RankId rank{r};
        const RefreshEngine &eng = dev_.refresh(rank);
        // An all-bank REF owes every bank of the rank at once.
        const bool due = eng.due(now);
        for (unsigned b = 0; b < banks; ++b) {
            verdict_[r * banks + b].verdict =
                due ? RefreshVerdict::kOwed : RefreshVerdict::kNone;
        }
        if (!due) {
            wake = std::min(wake, eng.nextDueAt());
            continue;
        }

        Command ref;
        ref.type = CmdType::kRef;
        ref.rank = rank;
        if (tryIssue(ref, now, wake))
            return true;

        // Drain open banks with forced precharges so REF can proceed.
        for (unsigned b = 0; b < banks; ++b) {
            const BankId bank{b};
            if (dev_.bank(rank, bank).isClosed())
                continue;
            Command pre;
            pre.type = CmdType::kPre;
            pre.rank = rank;
            pre.bank = bank;
            if (tryIssue(pre, now, wake)) {
                ++stats_.forcedPres;
                return true;
            }
        }
        // Nothing issuable yet (tRAS / tRTP / tWR still running); the
        // rank's candidates are suppressed in enumerate, so progress is
        // guaranteed.  Other ranks may still be scheduled.
    }
    return false;
}

bool
MemoryController::tryRefreshBank(RankId rank, BankId bank, Cycle now,
                                 Cycle &wake)
{
    // A closed bank takes its REFsb; an open one is drained first.
    Command cmd;
    cmd.type = dev_.bank(rank, bank).isClosed() ? CmdType::kRefsb
                                                : CmdType::kPre;
    cmd.rank = rank;
    cmd.bank = bank;
    // Target bank still busy (tRP / tRAS / tRTP / tWR / tREFSBRD): its
    // candidates are suppressed in enumerate, so it quiesces.
    if (!tryIssue(cmd, now, wake))
        return false;
    if (cmd.type == CmdType::kPre)
        ++stats_.forcedPres;
    else
        staleVerdict(index_.flatBank(rank, bank)); // a new deadline
    return true;
}

bool
MemoryController::handlePerBankRefresh(Cycle now, Cycle &wake)
{
    // Per-bank refresh only drains the *owing* bank: the rest of the
    // rank keeps servicing requests during the REFsb's tRFCpb window —
    // the property the DDR5 sweep exists to measure.
    const unsigned banks = dev_.geometry().banks;
    auto rankOf = [&](std::size_t i) {
        return RankId{static_cast<unsigned>(i / banks)};
    };
    auto bankOf = [&](std::size_t i) {
        return BankId{static_cast<unsigned>(i % banks)};
    };
    // Without quiet ticks every bank is re-evaluated on every tick:
    // the reference the fast-forward differential tests compare with.
    const bool every = !cfg_.idleFastForward;
    if (every || now >= verdictsChangeAt_) {
        const bool busy = !readQ_.empty() || !writeQ_.empty();
        Cycle next = kNeverCycle;
        bool wanted = false;
        for (std::size_t i = 0; i < verdict_.size(); ++i) {
            BankRefreshVerdict &v = verdict_[i];
            if (every || now >= v.changeAt) {
                v = refreshVerdict(policy_,
                                   dev_.refreshFor(rankOf(i), bankOf(i)),
                                   forceMargin_, index_.bankDemand(i) > 0,
                                   busy, now);
            }
            next = std::min(next, v.changeAt);
            wanted = wanted || v.verdict != RefreshVerdict::kNone;
        }
        verdictsChangeAt_ = next;
        refreshWanted_ = wanted;
    }
    wake = std::min(wake, verdictsChangeAt_);
    if (!refreshWanted_)
        return false;

    // Deadline-critical banks first — they can no longer be deferred,
    // so they must not lose the slot to an opportunistic pull-in
    // elsewhere.  Then everything else the policy approves (due
    // banks, pull-ins).  kInOrder never forces.
    for (const RefreshVerdict pass :
         {RefreshVerdict::kForced, RefreshVerdict::kOwed}) {
        for (std::size_t i = 0; i < verdict_.size(); ++i) {
            if (verdict_[i].verdict == pass &&
                tryRefreshBank(rankOf(i), bankOf(i), now, wake))
                return true;
        }
    }
    return false;
}

void
MemoryController::enumerate(Cycle now, std::vector<Candidate> &out,
                            Cycle &wake)
{
    out.clear();

    const unsigned banks = dev_.geometry().banks;
    const RowTiming nominal{dev_.timing().tRCD, dev_.timing().tRAS,
                            dev_.timing().tRC};

    // The device's answer depends only on the rank, the bank and the
    // command kind, so one check covers every request of the bank that
    // needs this command.  A rejected check notes when it turns legal.
    auto legal = [&](const Command &cmd) {
        const Cycle at = dev_.earliestIssueAt(cmd);
        if (at > now) {
            wake = std::min(wake, at);
            return false;
        }
        return true;
    };

    for (const std::size_t flat : index_.activeBanks()) {
        if (verdict_[flat].verdict != RefreshVerdict::kNone)
            continue; // rank (or this bank) is draining for refresh
        const BankIndex::List &reads = index_.reads(flat);
        const BankIndex::List &writes = index_.writes(flat);
        Command cmd;
        cmd.rank = RankId{static_cast<unsigned>(flat / banks)};
        cmd.bank = BankId{static_cast<unsigned>(flat % banks)};
        const BankState &b = dev_.bank(cmd.rank, cmd.bank);

        if (b.isClosed()) {
            // One ACT per request, reads then writes in arrival order,
            // except that a request whose row equals the previous ACT
            // candidate's adds none.  So rows X, Y, X offer ACT X twice.
            cmd.type = CmdType::kAct;
            cmd.actTiming = nominal;
            if (!legal(cmd))
                continue;
            RowId last = kNoRow;
            for (const auto *list : {&reads, &writes}) {
                for (Request *req : *list) {
                    if (req->row == last)
                        continue;
                    last = req->row;
                    cmd.row = req->row;
                    out.push_back(
                        Candidate{cmd, req, req->isWrite, false, false});
                }
            }
            continue;
        }

        const RowId open = b.openRow();
        const BankIndex::RowDemand hits = index_.demandFor(flat, open);
        if (hits.total() == 0) {
            // Row conflict with no pending hit: one PRE for the bank,
            // carried by its first read, else its first write.
            cmd.type = CmdType::kPre;
            if (legal(cmd)) {
                Request *req = reads.empty() ? writes.front() : reads.front();
                out.push_back(Candidate{cmd, req, req->isWrite, false, false});
            }
            continue;
        }
        // Open row with pending hits: only they get candidates (FR-FCFS
        // semantics; NUAT's HIT element agrees), and the conflicting
        // requests wait behind their column commands.
        cmd.row = open;
        const bool more = hits.total() > 1;
        auto columns = [&](const BankIndex::List &list, unsigned count,
                           CmdType type) {
            cmd.type = type;
            if (count == 0 || !legal(cmd))
                return;
            for (Request *req : list) {
                if (req->row != open)
                    continue;
                cmd.col = req->col;
                out.push_back(Candidate{cmd, req, req->isWrite, true, more});
            }
        };
        columns(reads, hits.reads, CmdType::kRead);
        columns(writes, hits.writes, CmdType::kWrite);
    }

    // SARP write-drain shadowing: while some bank sits in its tRFCpb
    // window, steer the slot toward the write queue — the drain hides
    // inside the refresh shadow instead of stealing read bandwidth
    // later.  Only filters when both kinds are present, so it never
    // idles a slot the open-bank candidates could have used.
    if (policy_ == RefreshPolicy::kSarp && !out.empty() &&
        dev_.refsbInFlight(now)) {
        bool any_write = false;
        bool any_read = false;
        for (const Candidate &c : out)
            (c.isWrite ? any_write : any_read) = true;
        if (any_write && any_read) {
            out.erase(std::remove_if(out.begin(), out.end(),
                                     [](const Candidate &c) {
                                         return !c.isWrite;
                                     }),
                      out.end());
        }
    }
}

void
MemoryController::issueCandidate(Candidate &cand, Cycle now)
{
    const IssueResult result = dev_.issue(cand.cmd, now);
    scheduler_->onIssue(cand.cmd, makeContext(now));

    switch (cand.cmd.type) {
      case CmdType::kAct:
        cand.req->hadOwnAct = true;
        break;
      case CmdType::kPre:
        break;
      case CmdType::kRead:
      case CmdType::kReadAp: {
        Request &req = *cand.req;
        ++stats_.readsCompleted;
        stats_.readLatencySum +=
            static_cast<double>(result.dataAt - req.arrivalAt);
        stats_.readLatencyHist.sample(
            static_cast<double>(result.dataAt - req.arrivalAt));
        if (!req.hadOwnAct)
            ++stats_.rowHitReads;
        // The waiters move by a buffer swap; the slot keeps the entry's
        // old buffer for its next request.
        addInFlight(result.dataAt, req.addr).waiters.swap(req.waiters);
        readQ_.remove(&req);
        queuesChanged(cand.cmd.rank, cand.cmd.bank, false);
        break;
      }
      case CmdType::kWrite:
      case CmdType::kWriteAp:
        if (!cand.req->hadOwnAct)
            ++stats_.rowHitWrites;
        writeQ_.remove(cand.req);
        queuesChanged(cand.cmd.rank, cand.cmd.bank, false);
        break;
      case CmdType::kRef:
      case CmdType::kRefsb:
        nuat_panic("refresh must not come from the scheduler");
    }
}

void
MemoryController::tick(Cycle now)
{
    confined_.assertOwned("MemoryController");
    ++stats_.tickCycles;
    stats_.readQOccupancySum += static_cast<double>(readQ_.size());
    stats_.writeQOccupancySum += static_cast<double>(writeQ_.size());
    if (occupancy_) {
        occupancy_->readq.sample(static_cast<double>(readQ_.size()));
        occupancy_->writeq.sample(static_cast<double>(writeQ_.size()));
    }

    processCompletions(now);
    scheduler_->tick(makeContext(now));

    if (now < quietUntil_) { // provably nothing to issue yet
        ++stats_.idleCycles;
        return;
    }

    Cycle wake = kNeverCycle;
    if (handleRefresh(now, wake))
        return;

    enumerate(now, scratch_, wake);
    if (scratch_.empty()) {
        if (cfg_.idleFastForward)
            quietUntil_ = wake;
        ++stats_.idleCycles;
        return;
    }

    const int idx = scheduler_->pick(scratch_, makeContext(now));
    if (idx < 0) {
        ++stats_.idleCycles;
        return;
    }
    nuat_assert(static_cast<std::size_t>(idx) < scratch_.size());
    issueCandidate(scratch_[static_cast<std::size_t>(idx)], now);
}

void
MemoryController::skipIdle(Cycle now, Cycle cycles)
{
    confined_.assertOwned("MemoryController");
    nuat_assert(readQ_.empty() && writeQ_.empty(),
                "(skipIdle with queued requests)");
    nuat_assert(nextCompletionAt() >= now + cycles,
                "(skipIdle across an in-flight completion)");
    // Each skipped cycle would have ticked with empty queues: count it,
    // enumerate nothing, idle.  Occupancy sums gain zero.
    stats_.tickCycles += cycles;
    stats_.idleCycles += cycles;
    if (occupancy_) {
        occupancy_->readq.sampleN(0.0, cycles);
        occupancy_->writeq.sampleN(0.0, cycles);
    }
    scheduler_->fastForward(cycles, makeContext(now));
}

Cycle
MemoryController::nextCompletionAt() const
{
    Cycle earliest = kNeverCycle;
    for (std::size_t i = 0; i < liveInFlight_; ++i)
        earliest = std::min(earliest, inFlight_[i].dataAt);
    return earliest;
}

bool
MemoryController::idle() const
{
    return readQ_.empty() && writeQ_.empty() && liveInFlight_ == 0;
}

} // namespace nuat
