/**
 * @file
 * One experiment's full configuration (paper Table 3 defaults) and its
 * result record.
 */

#ifndef NUAT_SIM_EXPERIMENT_CONFIG_HH
#define NUAT_SIM_EXPERIMENT_CONFIG_HH

#include <array>
#include <string>
#include <vector>

#include "charge/charge_params.hh"
#include "core/nuat_config.hh"
#include "cpu/rob.hh"
#include "dram/dram_device.hh"
#include "dram/dram_spec.hh"
#include "dram/power_model.hh"
#include "mem/memory_controller.hh"
#include "trace/workload_profile.hh"

namespace nuat {

/** Which scheduling policy drives the controller. */
enum class SchedulerKind
{
    kFcfs,
    kFrFcfsOpen,
    kFrFcfsClose,
    kFrFcfsAdaptive,
    kNuat,
};

/** Short display name of a SchedulerKind. */
const char *schedulerKindName(SchedulerKind kind);

/** CLI spelling of a SchedulerKind ("nuat", "frfcfs-open", ...);
 *  also file-name safe. */
const char *schedulerKindKey(SchedulerKind kind);

/** Parse a schedulerKindKey() spelling; false when unknown. */
bool parseSchedulerKind(const std::string &name, SchedulerKind *out);

/** Everything needed to run one simulation. */
struct ExperimentConfig
{
    /** One workload name per core (defines the core count). */
    std::vector<std::string> workloads{"libq"};

    /**
     * When non-empty, overrides the by-name lookup: one profile per
     * core (sizes must match `workloads`, whose names are still used
     * for labels).  Lets users run hand-built workloads.
     */
    std::vector<WorkloadProfile> customProfiles;

    /**
     * Global scale on compute gaps (avgGap and interBurstGap of every
     * profile).  < 1 makes every workload more memory-intensive;
     * useful for load sweeps.
     */
    double gapScale = 1.0;

    SchedulerKind scheduler = SchedulerKind::kNuat;

    /** Number of PBs for NUAT (paper's main configuration: 5). */
    unsigned numPb = 5;

    /** NUAT Table weights (Table 4 defaults). */
    NuatWeights weights;

    /** NUAT feature toggles (for ablations). */
    bool ppmEnabled = true;
    bool pbElementEnabled = true;
    bool boundaryElementEnabled = true;

    /** Close-page grace (applies to the FR-FCFS(close) baseline and to
     *  PPM's close mode alike). */
    bool closeGrace = true;

    /** NUAT starvation escape age bound [cycles]; 0 = paper-pure
     *  (see NuatConfig::starvationLimit). */
    Cycle nuatStarvationLimit = 200;

    /**
     * DRAM generation this run models.  geometry / timing / busMhz /
     * cpuPerMem below are *copies* of the preset (kept as plain fields
     * so individual knobs stay overridable after applyDramGen); the
     * enum is carried so reports can name the generation.
     */
    DramGen dramGen = DramGen::kDdr3_1600;

    /** Memory bus clock [MHz] (one cycle = one TimingParams cycle). */
    double busMhz = 800.0;

    /** CPU cycles per memory cycle (integer lockstep ratio). */
    unsigned cpuPerMem = 4;

    DramGeometry geometry;
    TimingParams timing;
    ControllerConfig controller;
    ChargeParams charge;
    RobParams rob;

    /**
     * Load @p gen's preset into dramGen / busMhz / cpuPerMem /
     * geometry / timing, optionally overriding the preset's refresh
     * mode (e.g. to run DDR5 with legacy all-bank REF).  Call before
     * tweaking individual fields.
     */
    void applyDramGen(DramGen gen);
    void applyDramGen(DramGen gen, RefreshMode refresh_mode);

    /** The memory bus clock as a Clock. */
    Clock memClock() const { return Clock{busMhz}; }

    /** The CPU clock implied by busMhz x cpuPerMem. */
    Clock cpuClock() const
    {
        return Clock{busMhz * static_cast<double>(cpuPerMem)};
    }

    /** Memory operations per core trace. */
    std::uint64_t memOpsPerCore = 150000;

    /** Hard cap on simulated memory cycles (runaway guard). */
    Cycle maxMemCycles = 60000000;

    /**
     * Skip provably idle work: memory cycles with every queue empty
     * and nothing due, in one jump instead of ticking through them,
     * and each controller's refresh scan and candidate enumeration on
     * ticks that provably issue nothing (makeChannelStack copies this
     * into ControllerConfig::idleFastForward).  Results are
     * byte-identical either way; the toggle exists for the regression
     * tests and for debugging.
     */
    bool idleFastForward = true;

    /** RNG seed for trace synthesis. */
    std::uint64_t seed = 1;

    /**
     * Attach a shadow protocol auditor (an independent re-check of the
     * DDR3 rules and the NUAT charge-safety invariant) to every
     * channel.  Violations are counted into the RunResult instead of
     * panicking, so sweeps can assert on the totals.
     */
    bool audit = false;

    /** Verbatim audit-violation messages kept per run. */
    std::size_t auditMaxMessages = 8;

    /**
     * Fault injection: a built-in profile name ("weak-cells",
     * "thermal-spike", "vrt", "refresh-storm", "stress") or the path
     * of a key=value profile file; empty = off.  When off, every run
     * is byte-identical to a build without the fault subsystem.  See
     * ROBUSTNESS.md.
     */
    std::string faultProfile;

    /**
     * Graceful degradation under fault injection: NUAT consults a
     * GuardbandManager (margin probes, quarantine/widen/conservative
     * ladder).  Ignored while faultProfile is empty; disable to
     * demonstrate the auditor's charge_margin rule firing.
     */
    bool faultDegrade = true;

    /** Guardband tuning used when degradation is active. */
    GuardbandConfig guardband;

    /** True when this run injects faults. */
    bool faultsEnabled() const { return !faultProfile.empty(); }

    /**
     * When non-empty, tee the issued-command stream of every channel
     * into this file for later replay (replayCommandTrace, or
     * `nuat_sim --replay-trace`).  A file that cannot be opened fails
     * the run (nuat_fatal).
     */
    std::string dumpTracePath;

    /**
     * When non-empty, stream cumulative metric samples to this file as
     * JSON Lines, one record per metricsInterval memory cycles (see
     * OBSERVABILITY.md for the schema).  A file that cannot be
     * opened fails the run (nuat_fatal).
     */
    std::string metricsOutPath;

    /**
     * When non-empty, also render every counter and gauge sample as
     * chrome://tracing counter events into this file (fatal when it
     * cannot be opened).
     */
    std::string traceEventsPath;

    /** Sampling interval [memory cycles] for the metric streams. */
    Cycle metricsInterval = 10000;

    /** True when any metric output stream is requested. */
    bool metricsEnabled() const
    {
        return !metricsOutPath.empty() || !traceEventsPath.empty();
    }

    /** Number of cores. */
    unsigned cores() const
    {
        return static_cast<unsigned>(workloads.size());
    }

    /** Panics unless internally consistent. */
    void validate() const;
};

/** Result of one simulation run. */
struct RunResult
{
    std::string schedulerName;
    std::vector<std::string> workloads;

    Cycle memCycles = 0; //!< memory cycles until the last core finished
    bool hitCycleCap = false;

    /** Memory bus clock of the run [MHz] (for ns display only). */
    double busMhz = 800.0;

    /** Memory cycles covered by the idle fast-forward (0 when off). */
    Cycle idleCyclesSkipped = 0;

    ControllerStats ctrl;
    DeviceCounters dev;

    /** Per-core finish times [CPU cycles]. */
    std::vector<CpuCycle> coreFinish;

    /** Per-core retired instructions. */
    std::vector<std::uint64_t> coreInstrs;

    double hitRateEq3 = 0.0;

    /** NUAT only: ACT distribution over PB# (zeros otherwise). */
    std::array<std::uint64_t, 8> actsPerPb{};

    /** NUAT only: PPM open/close decision counts. */
    std::uint64_t ppmOpen = 0;
    std::uint64_t ppmClose = 0;

    /** Channel energy decomposition (IDD model). */
    EnergyBreakdown energy;

    /** True when the run carried a shadow protocol auditor. */
    bool audited = false;

    /** Commands the auditor checked (all channels). */
    std::uint64_t auditCommandsChecked = 0;

    /** Protocol / charge-safety violations the auditor flagged. */
    std::uint64_t auditViolations = 0;

    /** First few violation messages, verbatim. */
    std::vector<std::string> auditMessages;

    /** True when the run streamed interval metrics. */
    bool metricsEnabled = false;

    /** Metric records emitted (including the trailing partial one). */
    std::uint64_t metricsSamples = 0;

    /** Metric sampling interval used [memory cycles] (0 when off). */
    Cycle metricsIntervalCycles = 0;

    /** True when the run injected faults (fault section is reported). */
    bool faultsEnabled = false;

    /** Resolved fault-profile name (empty when faults are off). */
    std::string faultProfileName;

    /** True when the guardband degradation ladder was active. */
    bool degradeEnabled = false;

    /** Injected-fault population / disturbance counts (all channels). */
    std::uint64_t faultWeakRows = 0;
    std::uint64_t faultVrtRows = 0;
    std::uint64_t faultRefsDropped = 0;
    std::uint64_t faultRefsDelayed = 0;

    /** Guardband ladder activity (all channels; see GuardbandStats). */
    std::uint64_t guardProbeViolations = 0;
    std::uint64_t guardProbeWarnings = 0;
    std::uint64_t guardQuarantines = 0;
    std::uint64_t guardReleases = 0;
    std::uint64_t guardWidenSteps = 0;
    std::uint64_t guardEaseSteps = 0;
    std::uint64_t guardConservativeEntries = 0;
    std::uint64_t guardMaxQuarantined = 0;
    std::uint64_t guardQuarantinedAtEnd = 0;

    /**
     * Worker failure in a sweep: empty on success; otherwise the
     * error text of the exception that killed this experiment (the
     * rest of the sweep still completes — see runExperimentsParallel).
     */
    std::string error;

    /** Average read latency [memory cycles]. */
    double avgReadLatency() const { return ctrl.avgReadLatency(); }

    /** Read-latency percentile [memory cycles] (fraction in [0,1]). */
    double
    readLatencyPercentile(double fraction) const
    {
        return ctrl.readLatencyPercentile(fraction);
    }

    /** Total execution time [CPU cycles] (max core finish). */
    CpuCycle executionTime() const;
};

} // namespace nuat

#endif // NUAT_SIM_EXPERIMENT_CONFIG_HH
