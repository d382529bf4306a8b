/**
 * @file
 * Request-level parallel serve runtime (`nuat_serve`).
 *
 * Where parallel_runner parallelizes *across* independent experiments,
 * the serve runtime parallelizes *inside* one: the address space is
 * sharded across independently-clocked channel/controller instances,
 * each driven by a dedicated thread, and trace producer threads push
 * open-loop requests at them through bounded lock-free MPSC rings
 * (common/mpsc_queue.hh).
 *
 * Sharding rule: a request's shard is the channel its address decodes
 * to under the experiment's own AddressMapping with
 * geometry.channels = shards — exactly the route ChannelMux would
 * take, so serve mode is the multi-channel system with the channel
 * loop unrolled onto threads.
 *
 * Clock-domain rule: every shard owns one ChannelStack
 * (sim/channel_stack.hh) — the same builder System uses for its
 * channels, so a shard's derate, device and auditor run at the
 * experiment's memory clock exactly as a System channel does.  A shard
 * advances its own cycle counter only while it has work; shard clocks
 * are never compared or synchronized.  Nothing is shared
 * between shard threads but the ingest rings and a handful of
 * annotated atomics (producers-done flag, per-shard heartbeat /
 * recovery-request words), which keeps the runtime TSan-clean by
 * construction.  The confinement is enforced twice over: debug builds
 * assert the owner thread on every shard/producer loop entry
 * (ThreadConfined, common/thread_annotations.hh — the controller and
 * device assert their own confinement too), and the lock-discipline /
 * atomic-ordering lint rules keep the shared atomics' protocols
 * explicit.
 *
 * Overload resilience (PR 10) adds four cooperating mechanisms:
 *
 *  - Admission control: producers hitting a full ring follow a policy
 *    (`block` — retry forever with deterministic capped-exponential
 *    backoff, aborting with an error after `blockPushRounds` failed
 *    attempts on one request; `bounded` — retry `retryPushRounds`
 *    times then shed; `shed` — shed low-priority classes immediately,
 *    retry only class 0).  Every shed is accounted per priority class.
 *
 *  - Deadlines: a request is stamped with the shard's local clock when
 *    it leaves the ring; if it waits longer than its class's
 *    `deadlineCycles` before dispatch, the shard sheds it as timed out
 *    (shard-local cycles, never wall-clock, so timeouts replay).
 *
 *  - Watchdog: shards publish a heartbeat step counter; a monitor
 *    (thread in threaded mode, inline poll in deterministic mode)
 *    flags a shard whose heartbeat freezes for `watchdogStallPolls`
 *    consecutive polls and posts a recovery request.  A stalled shard
 *    honors it (drain-checkpoint-restart of the stall), the watchdog
 *    doubles that shard's stall threshold (hysteresis, mirroring the
 *    GuardbandManager ladder) and eases it back after
 *    `watchdogCleanPolls` clean polls.  Recoveries are capped at
 *    `watchdogMaxRecoveries` per shard; an exhausted shard fails the
 *    run rather than hang it.
 *
 *  - Chaos injection: a ChaosProfile (src/fault/chaos_profile.hh)
 *    schedules producer burst storms, poisoned requests (shed by the
 *    shard's ingest integrity check) and shard stalls.  All chaos
 *    decisions are stateless hashes or step-count schedules — the same
 *    (profile, seed) injects exactly the same chaos.
 *
 * Conservation invariant: every produced request is accounted exactly
 * once — requestsProduced == requestsRetired + sheds, in total and per
 * priority class (ServeResult::conserves()).  Tests and the chaos CI
 * lane pin it.
 *
 * Step machines: one shard step and one producer step (the only copy
 * of the admission / shed / wedge decision) are shared by both
 * execution modes.  Threaded mode loops each on its own thread — a
 * producer retry pauses on its SpinBackoff schedule, a burst-gap step
 * yields.  Deterministic mode round-robins them on the calling thread.
 *
 * Determinism: with `deterministic = true` the run executes on the
 * calling thread as a cooperative round-robin (each round: one round
 * of producer steps per producer — up to its push budget, ending at a
 * failed push — one step per shard, periodic inline watchdog poll), so
 * every counter — sheds, timeouts, recoveries, latencies — is
 * byte-identical across runs with the same (config, profile, seed).
 * Threaded mode keeps the conservation invariant but interleaving-
 * dependent counters (which class got shed, cycle counts) may vary.
 *
 * Statistics are accumulated shard-locally and merged once after the
 * threads join (batched retirement/stat aggregation): the hot loops
 * never touch a shared counter.
 *
 * This file is simulation-hosted infrastructure but spawns threads;
 * like parallel_runner it must not read wall-clock time (nuat-lint
 * `nondeterminism`, and `fault-determinism` covers this file's chaos
 * and recovery paths) — requests/sec is computed by the nuat_serve
 * tool.
 */

#ifndef NUAT_SIM_SERVE_RUNTIME_HH
#define NUAT_SIM_SERVE_RUNTIME_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "experiment_config.hh"
#include "fault/chaos_profile.hh"
#include "trace/request_stream.hh"

namespace nuat {

class MetricRegistry;

/** What a producer does when a shard's ingest ring is full. */
enum class AdmissionPolicy
{
    /** Retry forever with deterministic capped-exponential backoff;
     *  abort the run with an error after `blockPushRounds` failed
     *  attempts on a single request (a permanently wedged ring must
     *  terminate, not hang). */
    kBlock,

    /** Retry `retryPushRounds` times with backoff, then shed the
     *  request (admission shed, counted per class). */
    kBoundedRetry,

    /** Shed classes 1+ on the first failed push; class 0 (latency-
     *  critical) still gets the bounded-retry treatment. */
    kShed,
};

/** Canonical CLI name of @p policy ("block", "bounded", "shed"). */
const char *admissionPolicyName(AdmissionPolicy policy);

/** Parse a CLI admission-policy name; false when unknown. */
bool parseAdmissionPolicy(const std::string &name,
                          AdmissionPolicy *out);

/** Configuration of one serve run. */
struct ServeConfig
{
    /**
     * Base experiment: geometry, timing, charge model, scheduler
     * kind, workloads (one stream profile per producer, cycled), seed
     * and audit flag are honored.  Core/ROB, metrics and fault
     * options are ignored — serve mode has no CPU model and no fault
     * world.  geometry.channels is overridden with `shards`.
     */
    ExperimentConfig experiment;

    /** Independently-clocked channel/controller instances (threads). */
    unsigned shards = 2;

    /** Trace producer threads (profiles cycle through workloads). */
    unsigned producers = 2;

    /** Slots per shard ingest ring (rounded up to a power of 2). */
    std::size_t queueCapacity = 1024;

    /** Requests each producer pushes before finishing. */
    std::uint64_t requestsPerProducer = 20000;

    /** Max requests a shard moves from ring to controller per cycle. */
    unsigned ingestBatch = 64;

    /** Full-ring policy (see AdmissionPolicy). */
    AdmissionPolicy admission = AdmissionPolicy::kBlock;

    /** First / maximum pause of the producer SpinBackoff schedule. */
    unsigned backoffInitialYields = 1;
    unsigned backoffCapYields = 1024;

    /** kBlock: failed push attempts on one request before the
     *  producer declares the ring wedged and fails the run. */
    std::uint64_t blockPushRounds = std::uint64_t{1} << 16;

    /** kBoundedRetry (and class 0 under kShed): failed push attempts
     *  before shedding the request. */
    std::uint64_t retryPushRounds = 32;

    /** Per-class dispatch deadline in shard-local cycles measured
     *  from ring exit; 0 disables the deadline for that class. */
    std::array<Cycle, kServeClasses> deadlineCycles{{0, 0, 0}};

    /** Requests a shard holds admitted-but-not-dispatched (the stage
     *  deadlines are enforced on). */
    std::size_t admitCapacity = 256;

    /** Stall detection & recovery (see file comment). */
    bool watchdog = true;

    /** Deterministic mode: rounds between inline watchdog polls.
     *  Threaded mode: the monitor polls every `watchdogPollYields`
     *  yields instead. */
    std::uint64_t watchdogPollRounds = 256;
    unsigned watchdogPollYields = 4096;

    /** Consecutive frozen-heartbeat polls before a recovery request
     *  (the initial rung of the hysteresis ladder). */
    unsigned watchdogStallPolls = 4;

    /** Recoveries per shard before the watchdog gives up and fails
     *  the run. */
    unsigned watchdogMaxRecoveries = 3;

    /** Ceiling the stall threshold doubles to after a recovery, and
     *  clean polls required before it eases back one halving. */
    unsigned watchdogHysteresisCap = 32;
    unsigned watchdogCleanPolls = 16;

    /** Injected serving-layer chaos (default: none). */
    ChaosProfile chaos;

    /** Single-threaded cooperative execution (byte-identical runs). */
    bool deterministic = false;

    /** True when the chaos profile injects anything. */
    bool chaosEnabled() const { return chaos.any(); }

    /** Panics unless internally consistent, `experiment` included
     *  (validated with geometry.channels = shards). */
    void validate() const;
};

/** Per-priority-class accounting; conservation holds per class. */
struct ServeClassStats
{
    std::uint64_t produced = 0;      //!< drawn from a stream
    std::uint64_t retired = 0;       //!< completed by a controller
    std::uint64_t shedAdmission = 0; //!< dropped at a full ring
    std::uint64_t shedTimeout = 0;   //!< missed its dispatch deadline
    std::uint64_t shedPoison = 0;    //!< failed the integrity check

    /** All sheds of this class. */
    std::uint64_t
    shedTotal() const
    {
        return shedAdmission + shedTimeout + shedPoison;
    }

    /** Read completion latency of this class [memory cycles]. */
    Histogram readLatency{0.0, 8.0, 256};
};

/** Aggregated outcome of one serve run. */
struct ServeResult
{
    unsigned shards = 0;
    unsigned producers = 0;

    /** Requests drawn from the streams (admission sheds included). */
    std::uint64_t requestsProduced = 0;

    /** Requests pushed into the rings (produced − admission sheds). */
    std::uint64_t requestsIngested = 0;

    /** Reads whose data returned. */
    std::uint64_t readsRetired = 0;

    /** Writes accepted (posted; retired at acceptance). */
    std::uint64_t writesRetired = 0;

    /** readsRetired + writesRetired. */
    std::uint64_t requestsRetired = 0;

    /** Shed totals by cause (sums of the per-class fields). */
    std::uint64_t shedAdmission = 0;
    std::uint64_t shedTimeout = 0;
    std::uint64_t shedPoison = 0;

    /** All sheds. */
    std::uint64_t
    shedTotal() const
    {
        return shedAdmission + shedTimeout + shedPoison;
    }

    /** Chaos-poisoned requests injected by the producers. */
    std::uint64_t poisonedInjected = 0;

    /** Producer-side full-ring yields (backpressure pressure gauge). */
    std::uint64_t backpressureYields = 0;

    /** Producer backoff invocations (SpinBackoff pauses). */
    std::uint64_t backoffRounds = 0;

    /** Largest per-shard simulated clock at finish. */
    Cycle maxShardCycles = 0;

    /** Summed per-shard simulated clocks. */
    Cycle totalShardCycles = 0;

    /** Requests retired per shard (balance check). */
    std::vector<std::uint64_t> shardRetired;

    /** Watchdog recoveries honored per shard. */
    std::vector<std::uint64_t> shardRecoveries;

    /** Per-priority-class accounting (index = class). */
    std::array<ServeClassStats, kServeClasses> classes;

    /** Total honored watchdog recoveries / hysteresis easings. */
    std::uint64_t watchdogRecoveries = 0;
    std::uint64_t watchdogEaseSteps = 0;

    /** Mean read latency over all shards [memory cycles]. */
    double avgReadLatency = 0.0;

    /** True when any shard hit the experiment's cycle cap. */
    bool hitCycleCap = false;

    /** True when the run executed in deterministic mode. */
    bool deterministic = false;

    /** The run's admission policy and chaos profile name ("none" when
     *  no chaos was injected). */
    AdmissionPolicy admission = AdmissionPolicy::kBlock;
    std::string chaos = "none";

    /** True when the run terminated abnormally (wedged ring under
     *  kBlock, watchdog exhausted, deterministic round cap). */
    bool failed = false;

    /** One line per abnormal-termination cause. */
    std::vector<std::string> errors;

    /** Shadow-audit outcome (when experiment.audit). */
    bool audited = false;
    std::uint64_t auditCommandsChecked = 0;
    std::uint64_t auditViolations = 0;
    std::vector<std::string> auditMessages;

    /** Conservation: produced == retired + shed, in total and for
     *  every priority class. */
    bool conserves() const;
};

/**
 * Run one sharded serve session to completion: producers stream their
 * full request budget through the rings, shards drain until every
 * queue is empty and every controller idle.  Conservation counts are
 * deterministic (every produced request retires or is shed exactly
 * once); in threaded mode cycle counts and latencies depend on thread
 * interleaving and are reported, not golden-checked, while
 * deterministic mode makes every counter replayable.
 */
ServeResult runServe(const ServeConfig &cfg);

/**
 * Register views over @p res in @p registry: serve.* counters and
 * per-class serve.c<k>.* counters / read-latency histograms (see
 * OBSERVABILITY.md for the name table).  @p res must outlive every
 * sample of @p registry.
 */
void publishServeMetrics(const ServeResult &res,
                         MetricRegistry &registry);

} // namespace nuat

#endif // NUAT_SIM_SERVE_RUNTIME_HH
