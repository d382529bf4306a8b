#include "serve_runtime.hh"

#include <atomic>
#include <deque>
#include <memory>
#include <thread>

#include "channel_stack.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/mpsc_queue.hh"
#include "common/thread_annotations.hh"
#include "mem/address_mapping.hh"
#include "trace/workload_profile.hh"

namespace nuat {

const char *
admissionPolicyName(AdmissionPolicy policy)
{
    switch (policy) {
      case AdmissionPolicy::kBlock:
        return "block";
      case AdmissionPolicy::kBoundedRetry:
        return "bounded";
      case AdmissionPolicy::kShed:
        return "shed";
    }
    return "?";
}

bool
parseAdmissionPolicy(const std::string &name, AdmissionPolicy *out)
{
    if (name == "block")
        *out = AdmissionPolicy::kBlock;
    else if (name == "bounded")
        *out = AdmissionPolicy::kBoundedRetry;
    else if (name == "shed")
        *out = AdmissionPolicy::kShed;
    else
        return false;
    return true;
}

namespace {

/** The serve view of the experiment: shards are the channels. */
ExperimentConfig
serveExperiment(const ServeConfig &cfg)
{
    ExperimentConfig exp = cfg.experiment;
    exp.geometry.channels = cfg.shards;
    return exp;
}

} // namespace

void
ServeConfig::validate() const
{
    nuat_assert(shards >= 1, "(serve needs at least one shard)");
    nuat_assert((shards & (shards - 1)) == 0,
                "(shards are address-mapping channels and must be a "
                "power of two)");
    nuat_assert(producers >= 1, "(serve needs at least one producer)");
    nuat_assert(requestsPerProducer >= 1,
                "(each producer must push at least one request)");
    nuat_assert(ingestBatch >= 1, "(ingestBatch must be positive)");
    nuat_assert(admitCapacity >= 1,
                "(admitCapacity must be positive)");
    nuat_assert(blockPushRounds >= 1 && retryPushRounds >= 1,
                "(push-round budgets must be positive)");
    nuat_assert(watchdogPollRounds >= 1 && watchdogPollYields >= 1 &&
                    watchdogStallPolls >= 1 &&
                    watchdogMaxRecoveries >= 1 &&
                    watchdogCleanPolls >= 1,
                "(watchdog parameters must be positive)");
    nuat_assert(!experiment.faultsEnabled(),
                "(serve mode has no fault world; drop --fault-profile)");
    serveExperiment(*this).validate();
    chaos.validate();
    for (const ChaosStall &st : chaos.stalls)
        nuat_assert(st.shard < shards,
                    "(chaos stall targets shard %u but only %u shards "
                    "exist)",
                    st.shard, shards);
}

bool
ServeResult::conserves() const
{
    if (requestsProduced != requestsRetired + shedTotal())
        return false;
    for (const ServeClassStats &c : classes)
        if (c.produced != c.retired + c.shedTotal())
            return false;
    return true;
}

namespace {

static_assert(kServeClasses == 3,
              "per-class array initializers below assume 3 classes");

/** A request that left the ring, stamped with the shard clock so the
 *  dispatch deadline is measured in shard-local cycles (replayable,
 *  never wall time). */
struct AdmittedReq
{
    StreamRequest req{};
    Cycle admitAt = 0;
};

/**
 * One shard's full stack.  Built on the main thread, then owned
 * exclusively by its shard thread until join (the thread launch /
 * join pair provides the happens-before edges), so none of the
 * non-atomic state needs locks.  `confined` asserts exactly that in
 * debug builds: the shard thread adopts the state on its first loop
 * iteration, and any off-thread touch before the join panics.  Shared
 * pieces: `ring` (the MPSC hand-off point) and the three annotated
 * atomics the watchdog protocol rides on — everything else is
 * shard-confined.
 */
struct ShardState
{
    ChannelStack stack;
    std::unique_ptr<MpscQueue<StreamRequest>> ring; //!< shared ingest

    ThreadConfined confined; //!< adopted by the shard thread

    Cycle now = 0; //!< this shard's private clock
    std::uint64_t writes = 0;
    std::uint64_t readsDone = 0;
    bool hitCap = false;

    /** Popped from the ring, stamped, waiting for the controller
     *  (deadlines are enforced on this stage). */
    std::deque<AdmittedReq> admitted;

    /** Per-class accounting (index = priority class). */
    std::array<std::uint64_t, kServeClasses> retiredByClass{};
    std::array<std::uint64_t, kServeClasses> timeoutShed{};
    std::array<std::uint64_t, kServeClasses> poisonShed{};
    std::array<Histogram, kServeClasses> latencyHist{
        {Histogram{0.0, 8.0, 256}, Histogram{0.0, 8.0, 256},
         Histogram{0.0, 8.0, 256}}};

    /** Chaos stall schedule for this shard (filtered from profile). */
    std::vector<ChaosStall> stalls;
    std::size_t nextStall = 0;
    std::uint64_t stallRemaining = 0;

    std::uint64_t steps = 0;      //!< healthy step count
    std::uint64_t recoveries = 0; //!< watchdog recoveries honored

    std::atomic<std::uint64_t> heartbeat NUAT_LOCK_FREE(
        "progress gauge: relaxed-stored by the shard every healthy "
        "step, relaxed-loaded by the watchdog; freshness, not "
        "ordering, is what the poll needs"){0};
    std::atomic<bool> recoverReq NUAT_LOCK_FREE(
        "release-stored true by the watchdog, acquire-loaded by the "
        "shard; the shard relaxed-clears it (no data rides on the "
        "clear)"){false};
    std::atomic<bool> done NUAT_LOCK_FREE(
        "release-stored by the shard when its loop exits; the "
        "watchdog acquire-loads it to stop polling a finished "
        "shard"){false};
};

/** One producer's stream + locally accumulated counters; confined to
 *  its producer thread exactly like ShardState is to its shard. */
struct ProducerState
{
    std::unique_ptr<RequestStream> stream;
    ThreadConfined confined; //!< adopted by the producer thread
    unsigned producerIdx = 0;
    std::uint64_t pushed = 0;
    std::uint64_t yields = 0;
    std::uint64_t backoffRounds = 0;
    std::uint64_t poisonedInjected = 0;
    std::uint64_t reqIndex = 0;
    SpinBackoff backoff{};

    /** Per-class accounting (index = priority class). */
    std::array<std::uint64_t, kServeClasses> producedByClass{};
    std::array<std::uint64_t, kServeClasses> shedByClass{};

    /** Burst-storm pacing state. */
    std::uint64_t burstCount = 0;
    std::uint64_t gapRemaining = 0;

    /** The in-flight request and how many pushes of it have failed. */
    StreamRequest cur{};
    bool curValid = false;
    std::uint64_t curRounds = 0;
    bool finished = false;
};

/** What one shard step accomplished. */
enum class StepOutcome
{
    kDone,     //!< drained and producers finished (or cycle cap)
    kProgress, //!< moved requests or ticked the controller
    kIdle,     //!< nothing to do yet; waiting on producers
    kStalled,  //!< chaos stall in effect (no heartbeat)
};

/** What one producer step did with its in-flight request. */
enum class ProducerOutcome
{
    kFinished, //!< stream exhausted, or the ring wedged (run failed)
    kPushed,   //!< the request entered its shard's ring
    kShed,     //!< the admission policy dropped the request
    kRetry,    //!< ring full; the request waits for another attempt
    kGap,      //!< burst-storm gap: one paced step without pushing
};

/**
 * Watchdog bookkeeping: one rung ladder per shard, mirroring the
 * GuardbandManager hysteresis — a recovery doubles the shard's stall
 * threshold up to a cap, sustained clean polls ease it back one
 * halving at a time.  Owned by the monitor thread (threaded mode) or
 * the driver loop (deterministic mode); read by the merge code only
 * after the join.
 */
struct WatchdogMonitor
{
    struct PerShard
    {
        std::uint64_t last = 0; //!< heartbeat seen at the last poll
        unsigned frozen = 0;    //!< consecutive frozen polls
        unsigned threshold = 0; //!< current stall rung (hysteresis)
        unsigned clean = 0;     //!< consecutive healthy polls
        unsigned issued = 0;    //!< recovery requests posted
    };

    WatchdogMonitor(const ServeConfig &cfg, std::size_t n)
        : cfg_(cfg), perShard_(n)
    {
        for (PerShard &w : perShard_)
            w.threshold = cfg.watchdogStallPolls;
    }

    /**
     * One poll over every live shard.  Posts recovery requests for
     * frozen heartbeats; @return false (and sets `error`) when a
     * shard has exhausted its recovery budget and is still frozen.
     */
    bool
    poll(std::vector<ShardState> &shards)
    {
        const unsigned cap =
            cfg_.watchdogHysteresisCap > cfg_.watchdogStallPolls
                ? cfg_.watchdogHysteresisCap
                : cfg_.watchdogStallPolls;
        for (std::size_t i = 0; i < shards.size(); ++i) {
            ShardState &s = shards[i];
            PerShard &w = perShard_[i];
            // acquire: a finished shard's final counters
            // happen-before this observation.
            if (s.done.load(std::memory_order_acquire))
                continue;
            // relaxed: the heartbeat is a progress gauge; a stale
            // read only delays detection by one poll.
            const std::uint64_t hb =
                s.heartbeat.load(std::memory_order_relaxed);
            if (hb != w.last) {
                w.last = hb;
                w.frozen = 0;
                ++w.clean;
                if (w.clean >= cfg_.watchdogCleanPolls &&
                    w.threshold > cfg_.watchdogStallPolls) {
                    w.threshold = w.threshold / 2 >
                                          cfg_.watchdogStallPolls
                                      ? w.threshold / 2
                                      : cfg_.watchdogStallPolls;
                    ++easeSteps;
                    w.clean = 0;
                }
                continue;
            }
            w.clean = 0;
            ++w.frozen;
            if (w.frozen < w.threshold)
                continue;
            if (w.issued >= cfg_.watchdogMaxRecoveries) {
                error = "watchdog: shard " + std::to_string(i) +
                        " still frozen after " +
                        std::to_string(w.issued) +
                        " recoveries; giving up";
                return false;
            }
            // release: the recovery request must not be reordered
            // ahead of the poll state that justified it.
            s.recoverReq.store(true, std::memory_order_release);
            ++w.issued;
            w.frozen = 0;
            w.threshold = w.threshold * 2 > cap ? cap
                                                : w.threshold * 2;
        }
        return true;
    }

    const ServeConfig &cfg_;
    std::vector<PerShard> perShard_;
    std::uint64_t easeSteps = 0;
    std::string error;
};

/** Pushes a producer attempts per deterministic round outside bursts
 *  (inside a burst the whole remaining burst is the budget, so storms
 *  actually saturate the rings). */
constexpr std::uint64_t kDetPushesPerRound = 4;

/**
 * One serve run: build (the constructor), drive (threaded, or the
 * deterministic round-robin), merge.  Both drives share shardStep and
 * producerStep verbatim.
 */
class ServeRun
{
  public:
    explicit ServeRun(const ServeConfig &cfg);
    void driveDeterministic();
    void driveThreaded();
    ServeResult merge();

  private:
    ProducerOutcome producerStep(ProducerState &p);
    bool producerRound(ProducerState &p);
    void producerMain(ProducerState &p);
    StepOutcome shardStep(ShardState &s);
    void shardMain(ShardState &s);
    void monitorMain();

    /** Record @p msg and make every worker unwind. */
    void fail(std::string msg);

    const ServeConfig &cfg_;
    const ExperimentConfig exp_;
    /** ChannelMux's routing rule, shared read-only by every producer. */
    const AddressMapping mapping_;
    std::vector<ShardState> shards_;
    std::vector<ProducerState> producers_;
    WatchdogMonitor watch_;

    std::atomic<bool> producersDone_ NUAT_LOCK_FREE(
        "release-stored once every producer has finished (after the "
        "join in threaded mode); shards acquire-load it so the final "
        "ring re-check observes the last push"){false};
    std::atomic<bool> abortRun_ NUAT_LOCK_FREE(
        "release-stored by whichever worker fails the run (wedged "
        "ring, exhausted watchdog); every loop acquire-loads it to "
        "unwind promptly"){false};

    Mutex errorsMu_;
    std::vector<std::string> errors_ NUAT_GUARDED_BY(errorsMu_);
};

ServeRun::ServeRun(const ServeConfig &cfg)
    : cfg_(cfg), exp_(serveExperiment(cfg)),
      mapping_(exp_.controller.mapping, exp_.geometry),
      shards_(cfg.shards), producers_(cfg.producers),
      watch_(cfg, cfg.shards)
{
    // Build every shard stack on this thread; shard threads take over
    // after launch.
    for (unsigned i = 0; i < cfg.shards; ++i) {
        ShardState &s = shards_[i];
        s.stack = makeChannelStack(exp_, i);
        s.ring =
            std::make_unique<MpscQueue<StreamRequest>>(cfg.queueCapacity);
        s.stack.controller->setReadCallback(
            [sp = &s](const Waiter &w, Addr, Cycle data_at) {
                ++sp->readsDone;
                const std::size_t cls = static_cast<std::size_t>(
                    w.coreId < 0 ? 0 : w.coreId);
                ++sp->retiredByClass[cls];
                // token carries the admit stamp: this is the
                // end-to-end admitted-to-data latency.
                const Cycle lat =
                    data_at >= w.token ? data_at - w.token : 0;
                sp->latencyHist[cls].sample(static_cast<double>(lat));
            });
    }
    for (const ChaosStall &st : cfg.chaos.stalls)
        shards_[st.shard].stalls.push_back(st);

    // Producers: each owns a deterministic stream over the full
    // (sharded) address space, with the same per-stream seed salt and
    // disjoint row footprints as System gives its cores.
    const std::uint32_t stride =
        exp_.geometry.rows / cfg.producers > 0
            ? exp_.geometry.rows / cfg.producers
            : 1;
    for (unsigned i = 0; i < cfg.producers; ++i) {
        const WorkloadProfile profile = WorkloadProfile::byName(
            exp_.workloads[i % exp_.workloads.size()]);
        producers_[i].stream = std::make_unique<RequestStream>(
            profile, exp_.geometry, exp_.seed + i * 7919,
            cfg.requestsPerProducer,
            (i * stride) % exp_.geometry.rows);
        producers_[i].producerIdx = i;
        producers_[i].backoff = SpinBackoff(cfg.backoffInitialYields,
                                            cfg.backoffCapYields);
    }
}

void
ServeRun::fail(std::string msg)
{
    {
        MutexLock lock(errorsMu_);
        errors_.push_back(std::move(msg));
    }
    // release: the error record happens-before any worker observing
    // the abort.
    abortRun_.store(true, std::memory_order_release);
}

/**
 * One producer step: honor the burst gap, draw a request when none is
 * in flight, attempt one push, and on a full ring let the admission
 * policy decide what it costs.  This is the one copy of the
 * admission / shed / wedge decision; the in-flight request and its
 * failed attempts live in ProducerState, so each execution mode only
 * chooses what a retry waits for (a backoff pause, or the next round).
 */
ProducerOutcome
ServeRun::producerStep(ProducerState &p)
{
    if (p.finished)
        return ProducerOutcome::kFinished;
    // Adopt the producer state: off-thread touches panic (debug).
    p.confined.assertOwned("ProducerState");
    if (p.gapRemaining > 0) {
        --p.gapRemaining;
        return ProducerOutcome::kGap;
    }
    if (!p.curValid) {
        if (!p.stream->next(p.cur)) {
            p.finished = true;
            return ProducerOutcome::kFinished;
        }
        // The poison draw is a stateless hash of (seed, producer,
        // index): both execution modes inject identical poison.
        if (chaosPoisons(cfg_.chaos, exp_.seed, p.producerIdx,
                         p.reqIndex++)) {
            p.cur.poisoned = true;
            ++p.poisonedInjected;
        }
        ++p.producedByClass[p.cur.cls];
        p.curValid = true;
        p.curRounds = 0;
    }
    const unsigned shard = mapping_.decompose(p.cur.addr).channel;
    ProducerOutcome out = ProducerOutcome::kPushed;
    if (shards_[shard].ring->tryPush(p.cur)) {
        ++p.pushed;
    } else {
        ++p.yields;
        ++p.curRounds;
        // Shed best-effort classes at once under kShed, and anything
        // whose bounded retry budget is spent.
        const std::uint8_t cls = p.cur.cls;
        if ((cfg_.admission == AdmissionPolicy::kShed && cls != 0) ||
            (cfg_.admission != AdmissionPolicy::kBlock &&
             p.curRounds >= cfg_.retryPushRounds)) {
            ++p.shedByClass[cls];
            out = ProducerOutcome::kShed;
        } else if (cfg_.admission == AdmissionPolicy::kBlock &&
                   p.curRounds >= cfg_.blockPushRounds) {
            fail("producer " + std::to_string(p.producerIdx) +
                 ": shard " + std::to_string(shard) +
                 " ring still full after " +
                 std::to_string(p.curRounds) +
                 " push attempts; declaring it wedged");
            p.finished = true;
            return ProducerOutcome::kFinished;
        } else {
            return ProducerOutcome::kRetry;
        }
    }
    // The request left the producer: a finished burst arms the gap.
    p.curValid = false;
    if (cfg_.chaos.burstLen > 0 && ++p.burstCount >= cfg_.chaos.burstLen) {
        p.burstCount = 0;
        p.gapRemaining = cfg_.chaos.burstGap;
    }
    return out;
}

/**
 * One deterministic producer round: steps until the round's push
 * budget is spent (a whole burst inside a storm), a burst ends, or a
 * push fails.  A failed push costs the round, so `curRounds` counts
 * rounds — the deterministic stand-in for the threaded retry count.
 * @return true when the producer has nothing left to do.
 */
bool
ServeRun::producerRound(ProducerState &p)
{
    std::uint64_t budget = cfg_.chaos.burstLen > 0
                               ? cfg_.chaos.burstLen - p.burstCount
                               : kDetPushesPerRound;
    for (;;) {
        switch (producerStep(p)) {
          case ProducerOutcome::kFinished:
            return true;
          case ProducerOutcome::kRetry:
          case ProducerOutcome::kGap:
            return false;
          case ProducerOutcome::kPushed:
          case ProducerOutcome::kShed:
            // A finished burst starts its gap next round.
            if (--budget == 0 || p.gapRemaining > 0)
                return false;
            break;
        }
    }
}

/** Threaded producer: a retry pauses on the SpinBackoff schedule, a
 *  gap step yields once. */
void
ServeRun::producerMain(ProducerState &p)
{
    // acquire: observe the failing worker's error record.
    while (!abortRun_.load(std::memory_order_acquire)) {
        switch (producerStep(p)) {
          case ProducerOutcome::kFinished:
            return;
          case ProducerOutcome::kRetry:
            ++p.backoffRounds;
            p.yields += p.backoff.pause();
            break;
          case ProducerOutcome::kGap:
            std::this_thread::yield();
            break;
          case ProducerOutcome::kPushed:
          case ProducerOutcome::kShed:
            p.backoff.reset();
            break;
        }
    }
}

/**
 * One shard step: chaos stall bookkeeping, then ingest (ring →
 * admitted, shedding poison), dispatch (admitted → controller,
 * shedding expired deadlines), drain check, tick.
 */
StepOutcome
ServeRun::shardStep(ShardState &s)
{
    // Debug-asserted confinement: this thread (and after the join,
    // only the merge code) may touch the shard stack.
    s.confined.assertOwned("ShardState");
    MemoryController &ctrl = *s.stack.controller;

    if (s.stallRemaining == 0 && s.nextStall < s.stalls.size() &&
        s.steps >= s.stalls[s.nextStall].atStep) {
        s.stallRemaining = s.stalls[s.nextStall].forSteps;
        ++s.nextStall;
    }
    if (s.stallRemaining > 0) {
        // Stalled: no heartbeat, no work — the watchdog sees the
        // frozen counter.  Honoring a recovery request restarts the
        // step loop; the ring, admitted stage and controller are their
        // own checkpoint (nothing is lost), which is what makes
        // conservation provable across recoveries.
        if (s.recoverReq.load(std::memory_order_acquire)) {
            s.recoverReq.store(false, std::memory_order_relaxed);
            s.stallRemaining = 0;
            ++s.recoveries;
        } else {
            --s.stallRemaining;
            return StepOutcome::kStalled;
        }
    } else if (s.recoverReq.load(std::memory_order_relaxed)) {
        // Watchdog misfire on a healthy-but-descheduled shard: clear
        // the request without counting a recovery.
        s.recoverReq.store(false, std::memory_order_relaxed);
    }
    ++s.steps;
    // relaxed: freshness is all the watchdog needs (see decl).
    s.heartbeat.store(s.steps, std::memory_order_relaxed);

    // Ingest: ring → admitted stage.  Poisoned payloads fail the
    // integrity check here and are shed before ever reaching the
    // controller.
    unsigned moved = 0;
    while (moved < cfg_.ingestBatch &&
           s.admitted.size() < cfg_.admitCapacity) {
        StreamRequest r;
        if (!s.ring->tryPop(r))
            break;
        ++moved;
        if (r.poisoned) {
            ++s.poisonShed[r.cls];
            continue;
        }
        s.admitted.push_back(AdmittedReq{r, s.now});
    }

    // Dispatch: admitted → controller, expiring overdue heads.
    // Deadlines are shard-local cycles since the admit stamp.
    while (!s.admitted.empty()) {
        const AdmittedReq &a = s.admitted.front();
        const Cycle deadline = cfg_.deadlineCycles[a.req.cls];
        if (deadline != 0 && s.now - a.admitAt > deadline) {
            ++s.timeoutShed[a.req.cls];
            s.admitted.pop_front();
            continue;
        }
        if (a.req.isWrite) {
            if (!ctrl.canAcceptWrite(a.req.addr))
                break;
            ctrl.enqueueWrite(a.req.addr, s.now);
            ++s.writes;
            ++s.retiredByClass[a.req.cls];
        } else {
            if (!ctrl.canAcceptRead(a.req.addr))
                break;
            ctrl.enqueueRead(a.req.addr,
                             Waiter{static_cast<int>(a.req.cls),
                                    a.admitAt},
                             s.now);
        }
        s.admitted.pop_front();
    }

    if (ctrl.idle() && s.admitted.empty()) {
        // Drained.  Either the run is over or the producers are just
        // slower than this shard: re-check the ring *after* observing
        // the done flag, closing the race with a producer's final
        // push.  acquire: pairs with the release store once every
        // producer has finished.
        if (producersDone_.load(std::memory_order_acquire)) {
            StreamRequest r;
            if (s.ring->tryPop(r)) {
                if (r.poisoned)
                    ++s.poisonShed[r.cls];
                else
                    s.admitted.push_back(AdmittedReq{r, s.now});
                return StepOutcome::kProgress;
            }
            return StepOutcome::kDone;
        }
        return StepOutcome::kIdle;
    }

    if (s.now >= exp_.maxMemCycles) {
        s.hitCap = true;
        return StepOutcome::kDone;
    }
    ctrl.tick(s.now);
    ++s.now;
    return StepOutcome::kProgress;
}

void
ServeRun::shardMain(ShardState &s)
{
    for (;;) {
        // acquire: observe the failing worker's error record.
        if (abortRun_.load(std::memory_order_acquire))
            break;
        const StepOutcome o = shardStep(s);
        if (o == StepOutcome::kDone)
            break;
        if (o == StepOutcome::kIdle || o == StepOutcome::kStalled)
            std::this_thread::yield();
    }
    // release: final counters happen-before the watchdog (or the
    // merge) observing the exit.
    s.done.store(true, std::memory_order_release);
}

void
ServeRun::monitorMain()
{
    for (;;) {
        if (abortRun_.load(std::memory_order_acquire))
            return;
        bool allDone = true;
        for (const auto &s : shards_)
            allDone = allDone && s.done.load(std::memory_order_acquire);
        if (allDone)
            return;
        for (unsigned i = 0;
             i < cfg_.watchdogPollYields &&
             !abortRun_.load(std::memory_order_relaxed);
             ++i)
            std::this_thread::yield();
        if (!watch_.poll(shards_)) {
            fail(watch_.error);
            return;
        }
    }
}

void
ServeRun::driveDeterministic()
{
    // Each round: one producer round per producer, one step per shard,
    // a periodic inline watchdog poll.  The round cap is an
    // anti-livelock backstop only — shard clocks already stop at
    // exp_.maxMemCycles.
    const std::uint64_t roundCap = 2 * exp_.maxMemCycles + 10000;
    bool allProducersFinished = false;
    for (std::uint64_t round = 0;; ++round) {
        if (round >= roundCap) {
            fail("deterministic serve exceeded " +
                 std::to_string(roundCap) +
                 " rounds without draining; declaring livelock");
            break;
        }
        if (!allProducersFinished) {
            bool fin = true;
            for (auto &p : producers_)
                fin = producerRound(p) && fin;
            if (fin) {
                allProducersFinished = true;
                producersDone_.store(true, std::memory_order_release);
            }
        }
        bool allShardsDone = true;
        for (auto &s : shards_) {
            if (s.done.load(std::memory_order_relaxed))
                continue;
            if (shardStep(s) == StepOutcome::kDone)
                s.done.store(true, std::memory_order_relaxed);
            else
                allShardsDone = false;
        }
        if (abortRun_.load(std::memory_order_acquire))
            break;
        if (cfg_.watchdog && round > 0 &&
            round % cfg_.watchdogPollRounds == 0 && !watch_.poll(shards_)) {
            fail(watch_.error);
            break;
        }
        if (allProducersFinished && allShardsDone)
            break;
    }
}

void
ServeRun::driveThreaded()
{
    std::vector<std::thread> pool;
    pool.reserve(shards_.size());
    for (auto &s : shards_)
        pool.emplace_back([this, &s] { shardMain(s); });

    std::thread monitor;
    if (cfg_.watchdog)
        monitor = std::thread([this] { monitorMain(); });

    std::vector<std::thread> feeders;
    feeders.reserve(producers_.size());
    for (auto &p : producers_)
        feeders.emplace_back([this, &p] { producerMain(p); });
    for (auto &t : feeders)
        t.join();
    // release: everything the producers wrote (ring slots, counters)
    // happens-before a shard's acquire load of the done flag.
    producersDone_.store(true, std::memory_order_release);
    for (auto &t : pool)
        t.join();
    if (monitor.joinable())
        monitor.join();
}

ServeResult
ServeRun::merge()
{
    // Batched aggregation: every counter below was accumulated
    // worker-locally; this is the only merge point.
    ServeResult res;
    res.shards = cfg_.shards;
    res.producers = cfg_.producers;
    res.deterministic = cfg_.deterministic;
    res.admission = cfg_.admission;
    if (cfg_.chaosEnabled())
        res.chaos = cfg_.chaos.name;
    for (const auto &p : producers_) {
        res.requestsIngested += p.pushed;
        res.backpressureYields += p.yields;
        res.backoffRounds += p.backoffRounds;
        res.poisonedInjected += p.poisonedInjected;
        for (unsigned k = 0; k < kServeClasses; ++k) {
            res.classes[k].produced += p.producedByClass[k];
            res.classes[k].shedAdmission += p.shedByClass[k];
        }
    }
    ChannelTotals totals;
    for (const auto &s : shards_) {
        totals.add(s.stack, exp_.auditMaxMessages);
        res.readsRetired += s.readsDone;
        res.writesRetired += s.writes;
        res.shardRetired.push_back(s.readsDone + s.writes);
        res.shardRecoveries.push_back(s.recoveries);
        res.watchdogRecoveries += s.recoveries;
        if (s.now > res.maxShardCycles)
            res.maxShardCycles = s.now;
        res.totalShardCycles += s.now;
        res.hitCycleCap = res.hitCycleCap || s.hitCap;
        for (unsigned k = 0; k < kServeClasses; ++k) {
            res.classes[k].retired += s.retiredByClass[k];
            res.classes[k].shedTimeout += s.timeoutShed[k];
            res.classes[k].shedPoison += s.poisonShed[k];
            res.classes[k].readLatency.merge(s.latencyHist[k]);
        }
    }
    for (const ServeClassStats &c : res.classes) {
        res.requestsProduced += c.produced;
        res.shedAdmission += c.shedAdmission;
        res.shedTimeout += c.shedTimeout;
        res.shedPoison += c.shedPoison;
    }
    res.watchdogEaseSteps = watch_.easeSteps;
    res.requestsRetired = res.readsRetired + res.writesRetired;
    res.avgReadLatency = totals.ctrl.avgReadLatency();
    {
        MutexLock lock(errorsMu_);
        res.errors = errors_;
    }
    res.failed = !res.errors.empty();
    if (totals.audited) {
        res.audited = true;
        res.auditCommandsChecked = totals.audit.commandsChecked;
        res.auditViolations = totals.audit.violations;
        res.auditMessages = std::move(totals.audit.messages);
    }
    return res;
}

} // namespace

ServeResult
runServe(const ServeConfig &cfg)
{
    cfg.validate();
    ServeRun run(cfg);
    if (cfg.deterministic)
        run.driveDeterministic();
    else
        run.driveThreaded();
    return run.merge();
}

void
publishServeMetrics(const ServeResult &res, MetricRegistry &registry)
{
    struct Count
    {
        const char *name;
        const char *help;
        const std::uint64_t *value;
    };
    auto publish = [&](const std::string &prefix, const Count &c) {
        const std::uint64_t *value = c.value;
        registry.counter(prefix + c.name, [value] { return *value; },
                         c.help);
    };
    const Count totals[] = {
        {"produced", "requests drawn from the producer streams",
         &res.requestsProduced},
        {"ingested", "requests pushed into the shard ingest rings",
         &res.requestsIngested},
        {"retired", "requests completed by the controllers",
         &res.requestsRetired},
        {"reads_retired", "reads whose data returned", &res.readsRetired},
        {"writes_retired", "writes accepted (posted)", &res.writesRetired},
        {"shed_admission", "requests shed at a full ingest ring",
         &res.shedAdmission},
        {"shed_timeout", "requests shed past their dispatch deadline",
         &res.shedTimeout},
        {"shed_poison", "requests shed by the ingest integrity check",
         &res.shedPoison},
        {"poisoned_injected",
         "chaos-poisoned requests injected by producers",
         &res.poisonedInjected},
        {"backpressure_yields", "producer yields at a full ring",
         &res.backpressureYields},
        {"backoff_rounds", "producer SpinBackoff pauses",
         &res.backoffRounds},
        {"watchdog_recoveries",
         "shard recoveries honored after a watchdog request",
         &res.watchdogRecoveries},
        {"watchdog_ease_steps",
         "hysteresis easings after sustained clean polls",
         &res.watchdogEaseSteps},
    };
    for (const Count &c : totals)
        publish("serve.", c);
    for (unsigned k = 0; k < kServeClasses; ++k) {
        const std::string prefix = "serve.c" + std::to_string(k) + ".";
        const ServeClassStats &c = res.classes[k];
        const Count perClass[] = {
            {"produced", "requests of this priority class produced",
             &c.produced},
            {"retired", "requests of this priority class retired",
             &c.retired},
            {"shed_admission", "admission sheds of this priority class",
             &c.shedAdmission},
            {"shed_timeout", "deadline sheds of this priority class",
             &c.shedTimeout},
            {"shed_poison", "integrity sheds of this priority class",
             &c.shedPoison},
        };
        for (const Count &m : perClass)
            publish(prefix, m);
        registry.histogram(prefix + "read_latency", c.readLatency,
                           "admitted-to-data read latency [cycles]");
    }
}

} // namespace nuat
