#include "memory_controller.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/metrics.hh"

namespace nuat {

/** Raw metric handles, resolved once at attach time (see metrics.hh:
 *  all hot-path updates are plain increments through these). */
struct MemoryController::CtrlMetrics
{
    Counter *cmdAct;
    Counter *cmdPre;
    Counter *cmdRead;
    Counter *cmdReadAp;
    Counter *cmdWrite;
    Counter *cmdWriteAp;
    Counter *cmdRef;
    Counter *cmdRefsb;
    Counter *forcedPre; //!< PREs forced by refresh draining
    Counter *readsForwarded;
    Counter *readsMerged;
    Counter *writesCoalesced;
    Counter *readsCompleted;
    Histogram *readLatency;
    Histogram *readqOccupancy;
    Histogram *writeqOccupancy;
    Gauge *readqLen;
    Gauge *writeqLen;
};

void
ControllerStats::merge(const ControllerStats &other)
{
    readsAccepted += other.readsAccepted;
    writesAccepted += other.writesAccepted;
    readsMerged += other.readsMerged;
    readsForwarded += other.readsForwarded;
    writesCoalesced += other.writesCoalesced;
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

MemoryController::~MemoryController() = default;

void
MemoryController::attachMetrics(MetricRegistry &registry,
                                unsigned channel)
{
    nuat_assert(!metrics_, "(attachMetrics called twice)");
    const std::string p = "ctrl" + std::to_string(channel) + ".";
    metrics_ = std::make_unique<CtrlMetrics>();
    CtrlMetrics &m = *metrics_;
    m.cmdAct = &registry.counter(p + "cmd_act", "ACT commands issued");
    m.cmdPre =
        &registry.counter(p + "cmd_pre", "explicit PRE commands issued");
    m.cmdRead = &registry.counter(p + "cmd_read", "READ commands issued");
    m.cmdReadAp = &registry.counter(p + "cmd_read_ap",
                                    "READ+auto-precharge commands");
    m.cmdWrite =
        &registry.counter(p + "cmd_write", "WRITE commands issued");
    m.cmdWriteAp = &registry.counter(p + "cmd_write_ap",
                                     "WRITE+auto-precharge commands");
    m.cmdRef = &registry.counter(p + "cmd_ref", "REF commands issued");
    m.cmdRefsb = &registry.counter(p + "cmd_refsb",
                                   "REFSB (per-bank refresh) commands");
    m.forcedPre = &registry.counter(
        p + "forced_pre", "PREs forced while draining for refresh");
    m.readsForwarded = &registry.counter(
        p + "reads_forwarded", "reads served from the write queue");
    m.readsMerged = &registry.counter(
        p + "reads_merged", "reads merged onto a pending access");
    m.writesCoalesced = &registry.counter(
        p + "writes_coalesced", "writes coalesced in the write queue");
    m.readsCompleted =
        &registry.counter(p + "reads_completed", "reads completed");
    m.readLatency = &registry.histogram(
        p + "read_latency", 0.0, 8.0, 64,
        "read latency enqueue->data [cycles], 8-cycle buckets");
    m.readqOccupancy = &registry.histogram(
        p + "readq_occupancy", 0.0, 1.0, 64,
        "read-queue length sampled every tick");
    m.writeqOccupancy = &registry.histogram(
        p + "writeq_occupancy", 0.0, 1.0, 64,
        "write-queue length sampled every tick");
    m.readqLen =
        &registry.gauge(p + "readq_len", "read-queue length now");
    m.writeqLen =
        &registry.gauge(p + "writeq_len", "write-queue length now");
    registry.addSampleHook([this] {
        metrics_->readqLen->set(static_cast<double>(readQ_.size()));
        metrics_->writeqLen->set(static_cast<double>(writeQ_.size()));
    });
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
    demand_.reset(ranks, banks);
    readQ_.attachDemandTracker(&demand_);
    writeQ_.attachDemandTracker(&demand_);
    actSeenEpoch_.assign(static_cast<std::size_t>(ranks) * banks, 0);
    actSeenRow_.assign(static_cast<std::size_t>(ranks) * banks, kNoRow);
    preSeenEpoch_.assign(static_cast<std::size_t>(ranks) * banks, 0);

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

bool
MemoryController::canAcceptRead(Addr addr) const
{
    const Addr line = lineAddr(addr);
    if (writeQ_.findLine(line) || readQ_.findLine(line))
        return true; // forwarded or merged; no new queue slot needed
    for (const auto &f : inFlight_) {
        if (f.addr == line)
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
        NUAT_METRIC(if (metrics_) {
            metrics_->readsForwarded->inc();
            metrics_->readsCompleted->inc();
            metrics_->readLatency->sample(
                static_cast<double>(cfg_.forwardLatency));
        });
        stats_.readLatencySum += static_cast<double>(cfg_.forwardLatency);
        stats_.readLatencyHist.sample(
            static_cast<double>(cfg_.forwardLatency));
        inFlight_.push_back(
            PendingCompletion{now + cfg_.forwardLatency, line, {waiter}});
        return;
    }

    // Merge onto a pending read to the same line.
    if (Request *pending = readQ_.findLine(line)) {
        ++stats_.readsMerged;
        NUAT_METRIC(if (metrics_) metrics_->readsMerged->inc());
        pending->waiters.push_back(waiter);
        return;
    }
    for (auto &f : inFlight_) {
        if (f.addr == line) {
            ++stats_.readsMerged;
            NUAT_METRIC(if (metrics_) metrics_->readsMerged->inc());
            f.waiters.push_back(waiter);
            return;
        }
    }

    nuat_assert(readQ_.hasRoom(), "(enqueueRead without canAcceptRead)");
    auto req = std::make_unique<Request>();
    req->id = nextRequestId_++;
    req->isWrite = false;
    req->addr = line;
    const DramCoord c = mapping_.decompose(line);
    req->rank = c.rank;
    req->bank = c.bank;
    req->row = c.row;
    req->col = c.col;
    req->arrivalAt = now;
    req->waiters.push_back(waiter);
    readQ_.push(std::move(req));
}

void
MemoryController::enqueueWrite(Addr addr, Cycle now)
{
    confined_.assertOwned("MemoryController");
    const Addr line = lineAddr(addr);
    ++stats_.writesAccepted;

    if (writeQ_.findLine(line)) {
        ++stats_.writesCoalesced; // last-writer-wins, one DRAM write
        NUAT_METRIC(if (metrics_) metrics_->writesCoalesced->inc());
        return;
    }

    nuat_assert(writeQ_.hasRoom(), "(enqueueWrite without canAcceptWrite)");
    auto req = std::make_unique<Request>();
    req->id = nextRequestId_++;
    req->isWrite = true;
    req->addr = line;
    const DramCoord c = mapping_.decompose(line);
    req->rank = c.rank;
    req->bank = c.bank;
    req->row = c.row;
    req->col = c.col;
    req->arrivalAt = now;
    writeQ_.push(std::move(req));
}

void
MemoryController::processCompletions(Cycle now)
{
    for (std::size_t i = 0; i < inFlight_.size();) {
        if (inFlight_[i].dataAt <= now) {
            if (readCallback_) {
                for (const Waiter &w : inFlight_[i].waiters)
                    readCallback_(w, inFlight_[i].addr,
                                  inFlight_[i].dataAt);
            }
            inFlight_[i] = std::move(inFlight_.back());
            inFlight_.pop_back();
        } else {
            ++i;
        }
    }
}

bool
MemoryController::handleRefresh(Cycle now)
{
    if (dev_.timing().refreshMode == RefreshMode::kPerBank)
        return handlePerBankRefresh(now);

    for (unsigned r = 0; r < dev_.geometry().ranks; ++r) {
        const RankId rank{r};
        if (!dev_.refresh(rank).due(now))
            continue;

        Command ref;
        ref.type = CmdType::kRef;
        ref.rank = rank;
        if (dev_.canIssue(ref, now)) {
            dev_.issue(ref, now);
            NUAT_METRIC(if (metrics_) metrics_->cmdRef->inc());
            scheduler_->onIssue(ref, makeContext(now));
            return true;
        }

        // Drain open banks with forced precharges so REF can proceed.
        for (unsigned b = 0; b < dev_.geometry().banks; ++b) {
            const BankId bank{b};
            if (dev_.bank(rank, bank).isClosed())
                continue;
            Command pre;
            pre.type = CmdType::kPre;
            pre.rank = rank;
            pre.bank = bank;
            if (dev_.canIssue(pre, now)) {
                dev_.issue(pre, now);
                NUAT_METRIC(if (metrics_) {
                    metrics_->cmdPre->inc();
                    metrics_->forcedPre->inc();
                });
                scheduler_->onIssue(pre, makeContext(now));
                return true;
            }
        }
        // Nothing issuable yet (tRAS / tRTP / tWR still running); the
        // rank's candidates are suppressed below, so progress is
        // guaranteed.  Other ranks may still be scheduled.
    }
    return false;
}

bool
MemoryController::tryRefreshBank(RankId rank, BankId bank, Cycle now)
{
    Command refsb;
    refsb.type = CmdType::kRefsb;
    refsb.rank = rank;
    refsb.bank = bank;
    if (dev_.canIssue(refsb, now)) {
        dev_.issue(refsb, now);
        NUAT_METRIC(if (metrics_) metrics_->cmdRefsb->inc());
        scheduler_->onIssue(refsb, makeContext(now));
        return true;
    }

    if (!dev_.bank(rank, bank).isClosed()) {
        Command pre;
        pre.type = CmdType::kPre;
        pre.rank = rank;
        pre.bank = bank;
        if (dev_.canIssue(pre, now)) {
            dev_.issue(pre, now);
            NUAT_METRIC(if (metrics_) {
                metrics_->cmdPre->inc();
                metrics_->forcedPre->inc();
            });
            scheduler_->onIssue(pre, makeContext(now));
            return true;
        }
    }
    // Target bank still busy (tRAS / tRTP / tWR / tREFSBRD); its
    // candidates are suppressed in enumerate, so it quiesces.
    return false;
}

bool
MemoryController::refreshForced(RankId rank, BankId bank,
                                Cycle now) const
{
    return now + forceMargin_ >=
           dev_.refreshFor(rank, bank).deadlineAt();
}

bool
MemoryController::wantRefresh(RankId rank, BankId bank, Cycle now) const
{
    const RefreshEngine &eng = dev_.refreshFor(rank, bank);
    if (policy_ == RefreshPolicy::kInOrder)
        return eng.due(now);

    // DARP/SARP: the postponement deadline overrides everything.
    if (refreshForced(rank, bank, now))
        return true;
    // Defer: the bank has queued demand and window to spare.
    if (demand_.bankDemand(rank, bank) > 0)
        return false;
    // No demand for this bank.  At the nominal deadline, refresh — a
    // fully idle system must keep the in-order cadence (the idle
    // fast-forward jumps to exactly these deadlines).
    if (eng.due(now))
        return true;
    // Pull in: only while the controller is busy elsewhere.  An idle
    // controller must not refresh early — the fast-forward skips spans
    // where provably nothing happens, and results must be identical
    // with the optimization off.
    return eng.canPullIn(now) && readQ_.size() + writeQ_.size() != 0;
}

bool
MemoryController::handlePerBankRefresh(Cycle now)
{
    // Per-bank refresh only drains the *target* bank: the rest of the
    // rank keeps servicing requests during the REFsb's tRFCpb window —
    // the property the DDR5 sweep exists to measure.
    const unsigned ranks = dev_.geometry().ranks;
    const unsigned banks = dev_.geometry().banks;

    if (policy_ == RefreshPolicy::kInOrder) {
        for (unsigned r = 0; r < ranks; ++r) {
            const RankId rank{r};
            for (unsigned b = 0; b < banks; ++b) {
                const BankId bank{b};
                if (!dev_.refreshFor(rank, bank).due(now))
                    continue;
                if (tryRefreshBank(rank, bank, now))
                    return true;
                // Keep scanning: another bank may be issuable now.
            }
        }
        return false;
    }

    // Out-of-order (DARP/SARP): deadline-critical banks first — they
    // can no longer be deferred, so they must not lose the slot to an
    // opportunistic pull-in elsewhere.  Then everything else the
    // policy approves (due idle banks, pull-ins).
    for (int pass = 0; pass < 2; ++pass) {
        for (unsigned r = 0; r < ranks; ++r) {
            const RankId rank{r};
            for (unsigned b = 0; b < banks; ++b) {
                const BankId bank{b};
                const bool forced = refreshForced(rank, bank, now);
                if (pass == 0 ? !forced
                              : (forced || !wantRefresh(rank, bank, now)))
                    continue;
                if (tryRefreshBank(rank, bank, now))
                    return true;
            }
        }
    }
    return false;
}

void
MemoryController::enumerate(Cycle now, std::vector<Candidate> &out)
{
    out.clear();

    const unsigned banks = dev_.geometry().banks;

    // Per-(bank,row) demand counts come from the incrementally
    // maintained tracker (updated on queue push/remove).  Used both to
    // suppress precharges of rows with pending hits (FR-FCFS
    // semantics; NUAT's HIT element agrees) and to tell close-page
    // policies whether a column access is the row's last pending one.
    auto demandFor = [&](RankId rank, BankId bank, RowId row) -> unsigned {
        return demand_.demandFor(rank, bank, row);
    };

    // Dedup masks: one ACT candidate per (bank,row), one PRE per bank.
    // The persistent flat arrays are epoch-tagged, so advancing the
    // epoch invalidates every slot without touching memory.
    ++enumEpoch_;
    const std::uint64_t epoch = enumEpoch_;

    const RowTiming nominal{dev_.timing().tRCD, dev_.timing().tRAS,
                            dev_.timing().tRC};

    auto addForRequest = [&](Request *req) {
        if (wantRefresh(req->rank, req->bank, now))
            return; // rank (or this bank) is draining for refresh
        const BankState &b = dev_.bank(req->rank, req->bank);
        const std::size_t flat =
            req->rank.value() * banks + req->bank.value();
        Candidate cand;
        cand.req = req;
        cand.isWrite = req->isWrite;
        cand.cmd.rank = req->rank;
        cand.cmd.bank = req->bank;

        if (b.openRow() == req->row) {
            cand.cmd.type =
                req->isWrite ? CmdType::kWrite : CmdType::kRead;
            cand.cmd.col = req->col;
            cand.cmd.row = req->row;
            cand.isRowHit = true;
            cand.morePendingToRow =
                demandFor(req->rank, req->bank, req->row) > 1;
            if (dev_.canIssue(cand.cmd, now))
                out.push_back(cand);
        } else if (b.isClosed()) {
            if (actSeenEpoch_[flat] == epoch &&
                actSeenRow_[flat] == req->row)
                return;
            cand.cmd.type = CmdType::kAct;
            cand.cmd.row = req->row;
            cand.cmd.actTiming = nominal;
            if (dev_.canIssue(cand.cmd, now)) {
                actSeenEpoch_[flat] = epoch;
                actSeenRow_[flat] = req->row;
                out.push_back(cand);
            }
        } else {
            // Row conflict: precharge, unless the open row still has
            // pending hits or a PRE candidate already exists.
            if (preSeenEpoch_[flat] == epoch ||
                demandFor(req->rank, req->bank, b.openRow()) > 0)
                return;
            cand.cmd.type = CmdType::kPre;
            if (dev_.canIssue(cand.cmd, now)) {
                preSeenEpoch_[flat] = epoch;
                out.push_back(cand);
            }
        }
    };

    for (const auto &req : readQ_)
        addForRequest(req.get());
    for (const auto &req : writeQ_)
        addForRequest(req.get());

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
        NUAT_METRIC(if (metrics_) metrics_->cmdAct->inc());
        break;
      case CmdType::kPre:
        NUAT_METRIC(if (metrics_) metrics_->cmdPre->inc());
        break;
      case CmdType::kRead:
      case CmdType::kReadAp: {
        std::unique_ptr<Request> req = readQ_.remove(cand.req);
        ++stats_.readsCompleted;
        stats_.readLatencySum +=
            static_cast<double>(result.dataAt - req->arrivalAt);
        stats_.readLatencyHist.sample(
            static_cast<double>(result.dataAt - req->arrivalAt));
        NUAT_METRIC(if (metrics_) {
            (cand.cmd.type == CmdType::kReadAp ? metrics_->cmdReadAp
                                               : metrics_->cmdRead)
                ->inc();
            metrics_->readsCompleted->inc();
            metrics_->readLatency->sample(
                static_cast<double>(result.dataAt - req->arrivalAt));
        });
        if (!req->hadOwnAct)
            ++stats_.rowHitReads;
        inFlight_.push_back(PendingCompletion{result.dataAt, req->addr,
                                              std::move(req->waiters)});
        break;
      }
      case CmdType::kWrite:
      case CmdType::kWriteAp: {
        std::unique_ptr<Request> req = writeQ_.remove(cand.req);
        NUAT_METRIC(if (metrics_) {
            (cand.cmd.type == CmdType::kWriteAp ? metrics_->cmdWriteAp
                                                : metrics_->cmdWrite)
                ->inc();
        });
        if (!req->hadOwnAct)
            ++stats_.rowHitWrites;
        break;
      }
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
    NUAT_METRIC(if (metrics_) {
        metrics_->readqOccupancy->sample(
            static_cast<double>(readQ_.size()));
        metrics_->writeqOccupancy->sample(
            static_cast<double>(writeQ_.size()));
    });

    processCompletions(now);
    scheduler_->tick(makeContext(now));

    if (handleRefresh(now))
        return;

    enumerate(now, scratch_);
    if (scratch_.empty()) {
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
    NUAT_METRIC(if (metrics_) {
        metrics_->readqOccupancy->sampleN(0.0, cycles);
        metrics_->writeqOccupancy->sampleN(0.0, cycles);
    });
    scheduler_->fastForward(cycles, makeContext(now));
}

Cycle
MemoryController::nextCompletionAt() const
{
    Cycle earliest = kNeverCycle;
    for (const auto &f : inFlight_) {
        if (f.dataAt < earliest)
            earliest = f.dataAt;
    }
    return earliest;
}

bool
MemoryController::idle() const
{
    return readQ_.empty() && writeQ_.empty() && inFlight_.empty();
}

double
MemoryController::hitRateEq3() const
{
    const auto &c = dev_.counters();
    const double cols = static_cast<double>(c.reads + c.writes);
    if (cols <= 0.0)
        return 0.0;
    const double hits = cols - static_cast<double>(c.acts);
    return hits > 0.0 ? hits / cols : 0.0;
}

} // namespace nuat
