/**
 * @file
 * The memory controller: queues, refresh forcing, candidate
 * enumeration, and command issue.
 *
 * The controller is policy-free: all prioritization lives in the
 * attached Scheduler.  The controller is responsible for
 *  - accepting reads/writes (with line merging, write coalescing, and
 *    read-from-write-queue forwarding),
 *  - enumerating the legal candidate commands, on every cycle at
 *    which one can exist (a tick that finds none records when the
 *    next could appear and skips the scan until then),
 *  - forcing refresh when a rank's REF deadline arrives (draining open
 *    banks with priority PREs, then issuing REF),
 *  - issuing the scheduler's choice and retiring requests,
 *  - latency / hit-rate accounting.
 */

#ifndef NUAT_MEM_MEMORY_CONTROLLER_HH
#define NUAT_MEM_MEMORY_CONTROLLER_HH

#include <functional>
#include <memory>
#include <vector>

#include "address_mapping.hh"
#include "common/stats.hh"
#include "common/thread_annotations.hh"
#include "common/types.hh"
#include "dram/dram_device.hh"
#include "memory_port.hh"
#include "refresh_policy.hh"
#include "request.hh"
#include "request_queues.hh"
#include "scheduler.hh"

namespace nuat {

class MetricRegistry;

/** Controller configuration (paper Table 3 defaults). */
struct ControllerConfig
{
    std::size_t readQueueCapacity = 64;
    std::size_t writeQueueCapacity = 64;
    unsigned writeQueueHighWatermark = 40;
    unsigned writeQueueLowWatermark = 20;
    MappingScheme mapping = MappingScheme::kOpenPageBaseline;

    /**
     * Total channels in the system (for address decoding).  The
     * controller still drives exactly one channel; this only tells its
     * mapping how many channel-select bits sit in the address.
     */
    unsigned channels = 1;

    /**
     * Cycles to return data for a read forwarded from the write queue
     * (an SRAM lookup inside the controller, not a DRAM access).
     */
    Cycle forwardLatency = 2;

    /**
     * When the controller retires per-bank refresh within the JEDEC
     * pull-in/postponement window (see refresh_policy.hh).  Ignored —
     * effectively kInOrder — under RefreshMode::kAllBank.
     */
    RefreshPolicy refreshPolicy = RefreshPolicy::kInOrder;

    /**
     * Skip the refresh scan and candidate enumeration on ticks that
     * provably issue nothing (see MemoryController::quietUntil_), and
     * under per-bank refresh re-evaluate a bank's refresh verdict only
     * when it can have changed.  Results are byte-identical either
     * way; makeChannelStack copies ExperimentConfig::idleFastForward
     * here, and off is the reference path the fast-forward
     * differential tests compare against.
     */
    bool idleFastForward = true;
};

/** Aggregate controller statistics. */
struct ControllerStats
{
    std::uint64_t readsAccepted = 0;
    std::uint64_t writesAccepted = 0;
    std::uint64_t readsMerged = 0;    //!< merged onto a pending read
    std::uint64_t readsForwarded = 0; //!< served from the write queue
    std::uint64_t writesCoalesced = 0;
    std::uint64_t forcedPres = 0; //!< PREs forced by refresh draining

    std::uint64_t readsCompleted = 0;
    double readLatencySum = 0.0; //!< enqueue -> last data beat [cycles]
    std::uint64_t rowHitReads = 0;
    std::uint64_t rowHitWrites = 0;

    /** Read-latency distribution [cycles]; 8-cycle buckets to 2048,
     *  then overflow.  Feeds the p95/p99 tail metrics. */
    Histogram readLatencyHist{0.0, 8.0, 256};

    /** Latency percentile helper (fraction in [0, 1]). */
    double
    readLatencyPercentile(double fraction) const
    {
        return readLatencyHist.percentile(fraction);
    }

    std::uint64_t idleCycles = 0; //!< cycles with no issuable choice
    std::uint64_t tickCycles = 0; //!< total controller ticks
    double readQOccupancySum = 0.0;  //!< sum of per-cycle RQ length
    double writeQOccupancySum = 0.0; //!< sum of per-cycle WQ length

    /** Mean read-queue occupancy over the run. */
    double avgReadQOccupancy() const
    {
        return tickCycles
                   ? readQOccupancySum / static_cast<double>(tickCycles)
                   : 0.0;
    }

    /** Mean write-queue occupancy over the run. */
    double avgWriteQOccupancy() const
    {
        return tickCycles
                   ? writeQOccupancySum /
                         static_cast<double>(tickCycles)
                   : 0.0;
    }

    /** Average read latency in memory cycles. */
    double avgReadLatency() const
    {
        return readsCompleted
                   ? readLatencySum /
                         static_cast<double>(readsCompleted)
                   : 0.0;
    }
    /** Add @p other's counts (merging channels into one record). */
    void merge(const ControllerStats &other);
};

/** One channel's controller, for every DRAM preset and refresh mode. */
class MemoryController : public MemoryPort
{
  public:
    /** Callback invoked for every waiter when read data returns. */
    using ReadCallback =
        std::function<void(const Waiter &, Addr addr, Cycle data_at)>;

    /**
     * @param dev       the channel's device model (not owned)
     * @param scheduler the command-selection policy (owned)
     * @param config    queue sizes, watermarks, mapping
     */
    MemoryController(DramDevice &dev,
                     std::unique_ptr<Scheduler> scheduler,
                     const ControllerConfig &config = ControllerConfig{});

    // Pinned in place: the queues and the metric views hold pointers
    // into it.
    MemoryController(const MemoryController &) = delete;
    MemoryController &operator=(const MemoryController &) = delete;

    /** Install the read-completion callback. */
    void setReadCallback(ReadCallback cb) { readCallback_ = std::move(cb); }

    /**
     * Register this controller's metrics (command counts, queue
     * occupancy, read-latency histogram) under "ctrl<channel>." and
     * forward to the scheduler as "sched<channel>.".  Every metric but
     * the two occupancy histograms is a view of stats() or of the
     * device's counters.  Observation-only: attaching changes no
     * scheduling decision or statistic.  Call at most once, before the
     * first tick; the controller must outlive @p registry's last
     * sample.
     */
    void attachMetrics(MetricRegistry &registry, unsigned channel);

    /** True when a read for @p addr can be accepted this cycle. */
    bool canAcceptRead(Addr addr) const override;

    /** True when a write for @p addr can be accepted this cycle. */
    bool canAcceptWrite(Addr addr) const override;

    /**
     * Enqueue a read of the line containing @p addr.
     * The caller must have checked canAcceptRead.
     * @param waiter identifies the consumer for the completion callback
     * @param now    current memory cycle
     */
    void enqueueRead(Addr addr, const Waiter &waiter,
                     Cycle now) override;

    /** Enqueue a write of the line containing @p addr. */
    void enqueueWrite(Addr addr, Cycle now) override;

    /** Advance one memory cycle: maybe issue one command. */
    void tick(Cycle now);

    /**
     * Account @p cycles ticks starting at @p now during which this
     * controller provably does nothing: both queues empty, no refresh
     * due and no in-flight completion before now + cycles (the caller
     * guarantees the latter two by capping the span).  Updates the
     * per-cycle counters and the scheduler's cycle-driven state exactly
     * as that many real ticks would.
     */
    void skipIdle(Cycle now, Cycle cycles);

    /** Earliest in-flight read completion, or kNeverCycle. */
    Cycle nextCompletionAt() const;

    /** True when no request (queued or in flight) remains. */
    bool idle() const;

    /** Queue occupancies. */
    std::size_t readQueueLen() const { return readQ_.size(); }
    std::size_t writeQueueLen() const { return writeQ_.size(); }

    /** The queued requests (read-only). */
    const RequestQueue &readQueue() const { return readQ_; }
    const RequestQueue &writeQueue() const { return writeQ_; }

    /** Aggregate statistics. */
    const ControllerStats &stats() const { return stats_; }

    /** The device this controller drives. */
    const DramDevice &device() const { return dev_; }

    /** The attached scheduler. */
    const Scheduler &scheduler() const { return *scheduler_; }

    /** The address mapping in use. */
    const AddressMapping &mapping() const { return mapping_; }

  private:
    /** A read whose data is still in flight from the device. */
    struct PendingCompletion
    {
        Cycle dataAt;
        Addr addr;
        std::vector<Waiter> waiters;
    };

    Addr lineAddr(Addr addr) const;
    SchedContext makeContext(Cycle now) const;

    /** A request for line @p line arriving at @p now, ready to push. */
    Request makeRequest(bool is_write, Addr line, Cycle now);

    /** Start an in-flight entry for @p line, due at @p data_at, with no
     *  waiters: a recycled entry if one is free. */
    PendingCompletion &addInFlight(Cycle data_at, Addr line);

    /** Deliver finished reads whose data has arrived by @p now. */
    void processCompletions(Cycle now);

    /**
     * The refresh scan: bring every bank's verdict in verdict_ up to
     * @p now and try to advance the refreshes it asks for.  True if it
     * issued a command.  Otherwise it has lowered @p wake to the first
     * cycle at which a verdict can change or a refresh-side command
     * becomes legal.
     */
    bool handleRefresh(Cycle now, Cycle &wake);

    /**
     * handleRefresh body for per-bank (REFsb) mode: drains and
     * refreshes only the owing bank, leaving the rest of the rank
     * schedulable.  It re-evaluates (refreshVerdict in
     * refresh_policy.hh) only the banks whose change cycle has come,
     * and none while verdictsChangeAt_ lies ahead; with
     * cfg_.idleFastForward off, every bank on every tick.
     */
    bool handlePerBankRefresh(Cycle now, Cycle &wake);

    /**
     * A push (@p pushed) or a removal of a request to (@p rank,
     * @p bank) changed the queues: mark stale the cached verdicts whose
     * inputs changed.  That is every bank's when the queues flipped
     * between empty and busy, else that bank's when it got its first
     * request or lost its last.  In-order verdicts read neither input.
     */
    void queuesChanged(RankId rank, BankId bank, bool pushed);

    /** Mark bank @p flat's cached verdict stale. */
    void staleVerdict(std::size_t flat)
    {
        verdict_[flat].changeAt = 0;
        verdictsChangeAt_ = 0;
    }

    /** Try to advance (rank, bank)'s refresh: REFsb on a closed bank,
     *  else a forced PRE on its open row.  True if a command was
     *  issued. */
    bool tryRefreshBank(RankId rank, BankId bank, Cycle now, Cycle &wake);

    /** Issue the refresh-side @p cmd if it is legal at @p now, else
     *  lower @p wake to the cycle it becomes legal.  True if issued. */
    bool tryIssue(const Command &cmd, Cycle now, Cycle &wake);

    /**
     * Enumerate every candidate legal at @p now into @p out, and lower
     * @p wake to the first cycle each rejected command becomes legal.
     * The list is in no fixed order: bank by bank, in activeBanks()
     * order, each bank's reads and then its writes in arrival order.
     * Schedulers break full ties by the queue key (queuedBefore in
     * scheduler.hh), so no pick depends on it.
     * It works bank by bank, skipping banks whose verdict_ is not
     * kNone: one legality check per command kind the bank needs
     * (ACT for a closed bank; PRE for an open one without pending hits;
     * else RD and/or WR for the hit directions), and the bank's requests
     * are visited only when that check passes.  A closed bank offers
     * one ACT per request, except that a request whose row equals the
     * previous ACT candidate's (reads, then writes, in arrival order)
     * adds none: rows X, Y, X offer ACT X twice.
     */
    void enumerate(Cycle now, std::vector<Candidate> &out, Cycle &wake);

    /** Issue the chosen candidate and retire its request if done. */
    void issueCandidate(Candidate &cand, Cycle now);

    DramDevice &dev_;
    std::unique_ptr<Scheduler> scheduler_;
    ControllerConfig cfg_;
    AddressMapping mapping_;

    /** Effective refresh policy: cfg_.refreshPolicy under per-bank
     *  refresh, kInOrder otherwise. */
    RefreshPolicy policy_ = RefreshPolicy::kInOrder;

    /**
     * Deadline guard for out-of-order policies [cycles]: once a bank's
     * postponement deadline is within this margin, its refresh is
     * forced regardless of demand.  Sized in the constructor to cover
     * a worst-case drain (open-row recovery + forced PRE) plus the
     * rank's REFsb serialization, so a deferred refresh always lands
     * inside the window.
     */
    Cycle forceMargin_ = 0;

    RequestQueue readQ_;
    RequestQueue writeQ_;

    /**
     * In-flight reads: the first liveInFlight_ entries, in the order a
     * completion's swap-remove leaves them.  The entries past them are
     * finished and kept for reuse with their waiter buffers.
     */
    std::vector<PendingCompletion> inFlight_;
    std::size_t liveInFlight_ = 0;
    ReadCallback readCallback_;

    std::uint64_t nextRequestId_ = 1;
    ControllerStats stats_;
    std::vector<Candidate> scratch_; //!< reused candidate buffer

    /**
     * Each bank's refresh verdict with the cycle at which time alone
     * changes it, indexed rank * banks + bank: the scan writes it,
     * enumerate reads it.  Under per-bank refresh an entry is
     * re-evaluated once now reaches its changeAt; queuesChanged and a
     * REFsb set changeAt to 0 when they change the entry's inputs.
     * The all-bank scan rewrites every verdict and leaves changeAt.
     */
    std::vector<BankRefreshVerdict> verdict_;

    /** The smallest changeAt in verdict_: the per-bank scan
     *  re-evaluates no bank before it. */
    Cycle verdictsChangeAt_ = 0;

    /** Some verdict in verdict_ is kOwed or kForced. */
    bool refreshWanted_ = false;

    /**
     * No command can issue before this cycle.  A tick whose refresh
     * scan and enumerate find nothing legal sets it to the earliest
     * cycle at which a refresh verdict can change or a rejected
     * command becomes legal; ticks before it skip both.  The skip is
     * exact: every legality input is an allowed-at cycle that only an
     * issue moves, queue contents and row demand change only on an
     * issue or a push, and with its inputs unchanged a verdict changes
     * only at its change cycle.
     * No issue happens while quiet, so a push is the one reset.
     */
    Cycle quietUntil_ = 0;

    /**
     * Shard confinement (debug-asserted): a controller is driven by
     * exactly one thread — the worker running its System, or the
     * serve shard that adopted it after launch (construction on the
     * launching thread is fine; the launch edge hands it over).
     * tick/enqueue/skipIdle assert the owner, so cross-thread use
     * panics in debug builds instead of racing the queues.
     */
    ThreadConfined confined_;

    /**
     * Per-tick queue-depth distributions: the controller's only
     * push-side metrics (no aggregate holds them).  attachMetrics
     * allocates them, so a null pointer is the one attach check and a
     * metrics-off controller builds nothing.
     */
    struct Occupancy
    {
        Histogram readq{0.0, 1.0, 64};
        Histogram writeq{0.0, 1.0, 64};
    };
    std::unique_ptr<Occupancy> occupancy_;

    /** Both queues' requests by bank, maintained on push/remove. */
    BankIndex index_;
};

} // namespace nuat

#endif // NUAT_MEM_MEMORY_CONTROLLER_HH
