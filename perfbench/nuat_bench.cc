/**
 * @file
 * nuat_bench — the program behind perfbench/benchmark.py.
 *
 * Runs one named workload in this process, on one thread:
 *  1. an untimed, audited warm-up over every cell at 1/10 of its ops;
 *  2. kSetupRounds rounds of building every cell (setup_s);
 *  3. one untimed full-size reference pass;
 *  4. timed repetitions through the public System::run() / runServe()
 *     with tracing off, until --seconds have passed and at least
 *     --reps repetitions ran;
 *  5. with --trace 1, kTracedPasses traced and audited passes through
 *     the System mirror in mirror.hh; serve workloads, which have no
 *     mirror, run one audited runServe per cell instead.
 * Every run's counters must equal the reference pass's.  It prints
 * progress on stderr and one JSON object on stdout: every end-to-end
 * metric (value, q1, q3, n) and, with --trace 1, every per-layer
 * metric (median, q1, q3 over the traced passes).
 *
 * A cell fails when it throws or hits the cycle cap, when an audited
 * run reports a violation, when its counters differ between
 * repetitions, when its traced mirror differs from the real run, or
 * (serve) when conservation breaks or anything is shed.
 *
 * Exit: 0 all checks passed, 1 a check failed, 64 bad command line.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "ledger.hh"
#include "mirror.hh"
#include "sim/runner.hh"
#include "sim/serve_runtime.hh"
#include "sim/system.hh"
#include "trace/workload_profile.hh"

using namespace nuat;
using namespace nuat::perfbench;

namespace {

constexpr int kExitOk = 0;
constexpr int kExitCheck = 1;
constexpr int kExitUsage = 64;

/** Set-up rounds per run; a round takes milliseconds, and host noise
 *  at that scale needs many samples for a steady median. */
constexpr int kSetupRounds = 101;

/** Traced passes per --trace 1 run; per-layer times are their median,
 *  which keeps one disturbed pass from moving them. */
constexpr int kTracedPasses = 3;

/** Default size of one cell, chosen so one repetition of each
 *  workload takes about a second on a 4-core x86 host. */
struct WorkloadDef
{
    const char *name;
    std::uint64_t ops; //!< memory ops per core (serve: per producer)
};

constexpr WorkloadDef kWorkloads[] = {
    {"paper-grid", 6000},
    {"mc8-contended", 3000},
    {"ddr5-sarp", 6000},
    {"serve-det", 20000},
};

struct Metric
{
    const char *name;
    const char *unit;
    bool exact; //!< simulated: repeats exactly for a given seed
};

constexpr Metric kEndToEnd[] = {
    {"sim_mcycles_per_s", "Mcycles/s", false},
    {"requests_per_s", "req/s", false},
    {"setup_s", "s", false},
    {"peak_rss_mb", "MB", false},
    {"read_latency_cycles", "cycles", true},
    {"read_p99_cycles", "cycles", true},
    {"nuat_latency_gain_pct", "%", true},
    {"nuat_exec_gain_pct", "%", true},
};

constexpr Metric kPerLayer[] = {
    {"trace.calls", "count", true},
    {"trace.ns_per_call", "ns", false},
    {"trace.host_pct", "%", false},
    {"cpu.core_ticks", "count", true},
    {"cpu.fetch_stall_frac", "fraction", true},
    {"cpu.host_pct", "%", false},
    {"mem.accept_calls", "count", true},
    {"mem.accept_ns_per_call", "ns", false},
    {"mem.tick_self_ns_per_cycle", "ns", false},
    {"mem.read_q_occupancy", "count", true},
    {"mem.write_q_occupancy", "count", true},
    {"mem.idle_cycle_frac", "fraction", true},
    {"mem.forwarded_or_merged_frac", "fraction", true},
    {"mem.host_pct", "%", false},
    {"sched.picks", "count", true},
    {"sched.pick_ns", "ns", false},
    {"sched.candidates_per_pick", "count", true},
    {"sched.pick_idle_frac", "fraction", true},
    {"sched.tick_ns_per_cycle", "ns", false},
    {"sched.on_issue_ns", "ns", false},
    {"sched.host_pct", "%", false},
    {"dram.acts_per_kcycle", "1/kcycle", true},
    {"dram.cols_per_kcycle", "1/kcycle", true},
    {"dram.refreshes_per_kcycle", "1/kcycle", true},
    {"dram.row_hit_rate", "fraction", true},
    {"verify.cmds", "count", true},
    {"verify.ns_per_cmd", "ns", false},
    {"sim.mem_cycles", "count", true},
    {"sim.ff_skipped_frac", "fraction", true},
    {"sim.ff_host_pct", "%", false},
    {"sim.loop_self_ns_per_cycle", "ns", false},
    {"sim.host_pct", "%", false},
    {"sim.trace_overhead_pct", "%", false},
    {"sim.layer_sum_error_pct", "%", false},
    {"serve.backpressure_yields_per_req", "ratio", true},
    {"serve.shard_imbalance", "ratio", true},
};

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "nuat_bench: %s (see --help)\n", msg.c_str());
    std::exit(kExitUsage);
}

/** Strict unsigned parse: digits only, no sign, no overflow. */
std::uint64_t
parseCount(const char *flag, const char *v)
{
    bool digits = v[0] != '\0';
    for (const char *p = v; *p; ++p)
        digits = digits && *p >= '0' && *p <= '9';
    errno = 0;
    const unsigned long long u = digits ? std::strtoull(v, nullptr, 10) : 0;
    if (!digits || errno == ERANGE)
        usageError(std::string(flag) +
                   " needs an unsigned integer, got '" + v + "'");
    return u;
}

void
usage()
{
    std::printf(
        "nuat_bench — one benchmark workload, end to end and per layer\n"
        "  --workload NAME   paper-grid | mc8-contended | ddr5-sarp | "
        "serve-det\n"
        "  --seed N          trace / stream seed (default 1)\n"
        "  --seconds N       keep repeating until N s have passed "
        "(default 0)\n"
        "  --reps N          at least N timed repetitions (default 5)\n"
        "  --trace 0|1       1 adds the traced per-layer pass\n"
        "  --scale-pct N     cell size in percent of the default "
        "(default 100)\n"
        "  --trace-dir DIR   write sampled spans as Chrome trace JSON\n"
        "  --list            print workloads and metrics as JSON\n"
        "exit: 0 ok, 1 a correctness check failed, 64 bad command "
        "line\n");
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    std::uint64_t seconds = 0;
    std::uint64_t reps = 5;
    bool trace = false;
    std::uint64_t scalePct = 100;
    std::string traceDir;
};

/** One cell: a configuration and the mix it pairs with its twin in. */
struct Cell
{
    std::string mix;
    SchedulerKind kind = SchedulerKind::kNuat;
    ServeConfig cfg; //!< sim cells use cfg.experiment only
};

/** The paper's Fig. 18/20 grid: every profile x {open, close, NUAT}. */
std::vector<Cell>
paperGrid(std::uint64_t ops)
{
    std::vector<Cell> cells;
    for (const std::string &name : WorkloadProfile::allNames()) {
        for (const SchedulerKind kind :
             {SchedulerKind::kFrFcfsOpen, SchedulerKind::kFrFcfsClose,
              SchedulerKind::kNuat}) {
            Cell c;
            c.mix = name;
            c.kind = kind;
            c.cfg.experiment.workloads = {name};
            c.cfg.experiment.memOpsPerCore = ops;
            c.cfg.experiment.scheduler = kind;
            cells.push_back(c);
        }
    }
    return cells;
}

/** Each mix under FR-FCFS(open) and NUAT on @p base. */
std::vector<Cell>
mixCells(const ExperimentConfig &base,
         const std::vector<std::pair<std::string,
                                     std::vector<std::string>>> &mixes)
{
    std::vector<Cell> cells;
    for (const auto &[mix, names] : mixes) {
        for (const SchedulerKind kind :
             {SchedulerKind::kFrFcfsOpen, SchedulerKind::kNuat}) {
            Cell c;
            c.mix = mix;
            c.kind = kind;
            c.cfg.experiment = base;
            c.cfg.experiment.workloads = names;
            c.cfg.experiment.scheduler = kind;
            cells.push_back(c);
        }
    }
    return cells;
}

std::vector<Cell>
buildCells(const std::string &workload, std::uint64_t ops,
           std::uint64_t seed)
{
    std::vector<Cell> cells;
    ExperimentConfig base;
    base.memOpsPerCore = ops;
    if (workload == "paper-grid") {
        cells = paperGrid(ops);
    } else if (workload == "mc8-contended") {
        cells = mixCells(
            base, {{"read-heavy",
                    {"mummer", "tigr", "MT-canneal", "comm1", "comm2",
                     "black", "freq", "swapt"}},
                   {"streaming-write",
                    {"libq", "stream", "MT-fluid", "ferret", "face",
                     "comm3", "fluid", "leslie"}}});
    } else if (workload == "ddr5-sarp") {
        base.applyDramGen(DramGen::kDdr5_4800, RefreshMode::kPerBank);
        base.controller.refreshPolicy = RefreshPolicy::kSarp;
        cells = mixCells(
            base, {{"write-heavy", {"comm1", "face", "MT-fluid", "ferret"}},
                   {"read-heavy", {"mummer", "tigr", "libq", "stream"}}});
    } else if (workload == "serve-det") {
        ServeConfig serve;
        serve.experiment.workloads = {"ferret", "comm1"};
        serve.shards = 2;
        serve.producers = 2;
        serve.queueCapacity = 1024;
        serve.requestsPerProducer = ops;
        serve.admission = AdmissionPolicy::kBlock;
        serve.deterministic = true;
        for (const SchedulerKind kind :
             {SchedulerKind::kFrFcfsOpen, SchedulerKind::kNuat}) {
            Cell c;
            c.mix = "ferret+comm1";
            c.kind = kind;
            c.cfg = serve;
            c.cfg.experiment.scheduler = kind;
            cells.push_back(c);
        }
    }
    for (Cell &c : cells)
        c.cfg.experiment.seed = seed;
    return cells;
}

bool
isServe(const std::string &workload)
{
    return workload == "serve-det";
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** One execution of one cell. */
struct Outcome
{
    std::string error; //!< empty when every check passed
    RunResult run;
    ServeResult serve;
    double runS = 0.0;
};

/** The sim checks shared by timed and traced runs. */
std::string
checkRun(const RunResult &r)
{
    if (r.hitCycleCap)
        return "hit the cycle cap";
    if (r.audited && r.auditViolations != 0)
        return std::to_string(r.auditViolations) + " audit violations" +
               (r.auditMessages.empty() ? "" : ": " + r.auditMessages[0]);
    if (r.ctrl.readsAccepted != r.ctrl.readsCompleted + r.ctrl.readsMerged)
        return "reads not conserved";
    for (std::size_t i = 0; i < r.coreFinish.size(); ++i)
        if (r.coreFinish[i] == 0 || r.coreInstrs[i] == 0)
            return "core " + std::to_string(i) + " never finished";
    return "";
}

std::string
checkServe(const ServeResult &r, const ServeConfig &cfg)
{
    if (r.failed)
        return r.errors.empty() ? "serve failed" : r.errors[0];
    if (!r.conserves())
        return "serve conservation broken";
    if (r.shedTotal() != 0)
        return std::to_string(r.shedTotal()) + " requests shed";
    if (r.requestsProduced != cfg.producers * cfg.requestsPerProducer)
        return "produced " + std::to_string(r.requestsProduced) +
               " requests";
    if (r.hitCycleCap)
        return "hit the cycle cap";
    if (r.audited && r.auditViolations != 0)
        return std::to_string(r.auditViolations) + " audit violations";
    return "";
}

Outcome
runCell(const Cell &cell, bool serve)
{
    Outcome o;
    try {
        if (serve) {
            const auto t0 = std::chrono::steady_clock::now();
            o.serve = runServe(cell.cfg);
            o.runS = secondsSince(t0);
            o.error = checkServe(o.serve, cell.cfg);
        } else {
            System sys(cell.cfg.experiment);
            const auto t0 = std::chrono::steady_clock::now();
            o.run = sys.run();
            o.runS = secondsSince(t0);
            o.error = checkRun(o.run);
        }
    } catch (const std::exception &e) {
        o.error = std::string("threw: ") + e.what();
    }
    return o;
}

/**
 * Set-up time of every cell once: the System constructors, or for
 * serve a runServe of one request per producer (shard construction
 * with nothing to drain).
 */
double
setupRound(const std::vector<Cell> &cells, bool serve)
{
    double total = 0.0;
    for (const Cell &cell : cells) {
        const auto t0 = std::chrono::steady_clock::now();
        if (serve) {
            ServeConfig tiny = cell.cfg;
            tiny.requestsPerProducer = 1;
            (void)runServe(tiny);
            total += secondsSince(t0);
        } else {
            const auto sys = std::make_unique<System>(cell.cfg.experiment);
            total += secondsSince(t0);
        }
    }
    return total;
}

/** Failure bookkeeping shared by every phase. */
struct Verdict
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    record(const std::string &phase, const Cell &cell,
           const std::string &error)
    {
        ++attempted;
        if (error.empty())
            return;
        ++failed;
        if (errors.size() < 8)
            errors.push_back(phase + " " + cell.mix + "/" +
                             schedulerKindName(cell.kind) + ": " + error);
    }
};

struct Stat
{
    double value = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    std::size_t n = 0;
};

/** Median and quartiles, as Python's statistics.quantiles(n=4). */
Stat
summarize(std::vector<double> v)
{
    Stat s;
    s.n = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    s.value = n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    if (n < 2) {
        s.q1 = s.q3 = s.value;
        return s;
    }
    auto quartile = [&](std::size_t i) {
        const std::size_t m = n + 1;
        std::size_t j = i * m / 4;
        j = std::clamp<std::size_t>(j, 1, n - 1);
        const double delta = static_cast<double>(i * m) -
                             static_cast<double>(j * 4);
        return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    };
    s.q1 = quartile(1);
    s.q3 = quartile(3);
    return s;
}

Stat
constant(double v, std::size_t n)
{
    return Stat{v, v, v, n};
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Read latency a cell's users see: the controller's for System runs,
 *  admitted-to-data over every class for serve. */
Histogram
latencyHistogram(const Outcome &o, bool serve)
{
    if (!serve)
        return o.run.ctrl.readLatencyHist;
    Histogram h{0.0, 8.0, 256};
    for (const ServeClassStats &c : o.serve.classes)
        h.merge(c.readLatency);
    return h;
}

double
meanLatency(const Outcome &o, bool serve)
{
    return serve ? latencyHistogram(o, true).summary().mean()
                 : o.run.avgReadLatency();
}

/** Simulated execution time: slowest core, or slowest shard. */
double
execTime(const Outcome &o, bool serve)
{
    return serve ? static_cast<double>(o.serve.maxShardCycles)
                 : static_cast<double>(o.run.executionTime());
}

/** Simulated metrics of the reference repetition. */
void
simulatedMetrics(const std::vector<Cell> &cells,
                 const std::vector<Outcome> &ref, bool serve,
                 std::size_t reps, std::map<std::string, Stat> &out)
{
    Histogram merged{0.0, 8.0, 256};
    double latency_sum = 0.0;
    std::uint64_t reads = 0;
    std::map<std::string, std::pair<const Outcome *, const Outcome *>> mixes;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].kind == SchedulerKind::kNuat) {
            const Histogram h = latencyHistogram(ref[i], serve);
            merged.merge(h);
            latency_sum += h.summary().sum();
            reads += h.summary().count();
            mixes[cells[i].mix].second = &ref[i];
        } else if (cells[i].kind == SchedulerKind::kFrFcfsOpen) {
            mixes[cells[i].mix].first = &ref[i];
        }
    }
    double lat_gain = 0.0, exec_gain = 0.0;
    for (const auto &[mix, pair] : mixes) {
        lat_gain += percentReduction(meanLatency(*pair.first, serve),
                                     meanLatency(*pair.second, serve));
        exec_gain += percentReduction(execTime(*pair.first, serve),
                                      execTime(*pair.second, serve));
    }
    const double n_mix = static_cast<double>(mixes.size());
    out["read_latency_cycles"] =
        constant(ratio(latency_sum, static_cast<double>(reads)), reps);
    out["read_p99_cycles"] = constant(merged.percentile(0.99), reps);
    out["nuat_latency_gain_pct"] = constant(ratio(lat_gain, n_mix), reps);
    out["nuat_exec_gain_pct"] = constant(ratio(exec_gain, n_mix), reps);
}

/** Simulated work of one finished cell. */
double
cellCycles(const Outcome &o, bool serve)
{
    return serve ? static_cast<double>(o.serve.totalShardCycles)
                 : static_cast<double>(o.run.ctrl.tickCycles);
}

double
cellRequests(const Outcome &o, bool serve)
{
    return serve ? static_cast<double>(o.serve.requestsRetired)
                 : static_cast<double>(o.run.ctrl.readsAccepted +
                                       o.run.ctrl.writesAccepted);
}

/**
 * Peak resident set of this process [MB]: VmHWM, which starts afresh
 * at exec (getrusage's ru_maxrss carries the parent's peak across
 * fork + exec, so under benchmark.py it would report Python's).
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, f))
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kib = std::strtod(line + 6, nullptr);
    std::fclose(f);
    return kib / 1024.0;
}

/** Counts the traced pass sums over cells for the per-layer metrics. */
struct LayerTotals
{
    ControllerStats ctrl;
    DeviceCounters dev;
    std::uint64_t skipped = 0;
    std::uint64_t coreTicks = 0;
    std::uint64_t coreCycles = 0;
    std::uint64_t fetchStall = 0;
};

std::map<std::string, double>
layerMetrics(const Ledger &l, const SpanCost &cost, const SchedCounts &sc,
             const LayerTotals &t, double untraced_ns)
{
    auto self = [&](SpanKind k) { return l.correctedSelfNs(k, cost); };
    auto calls = [&](SpanKind k) {
        return static_cast<double>(l.stats(k).calls);
    };
    auto per_call = [&](SpanKind k) { return ratio(self(k), calls(k)); };

    double sum = 0.0; // corrected host time of every layer but verify
    for (std::size_t k = 0; k < kSpanKinds; ++k)
        if (static_cast<SpanKind>(k) != SpanKind::kVerify)
            sum += self(static_cast<SpanKind>(k));
    auto pct = [&](std::initializer_list<SpanKind> kinds) {
        double ns = 0.0;
        for (const SpanKind k : kinds)
            ns += self(k);
        return 100.0 * ratio(ns, sum);
    };

    const double cycles = static_cast<double>(t.ctrl.tickCycles);
    const double cols = static_cast<double>(t.dev.reads + t.dev.writes);
    const double picks = calls(SpanKind::kSchedPick);
    const double traced_ns =
        l.totalNs(SpanKind::kLoop) - l.totalNs(SpanKind::kVerify);

    std::map<std::string, double> m;
    auto put = [&](const char *name, double v) { m[name] = v; };
    put("trace.calls", calls(SpanKind::kTraceNext));
    put("trace.ns_per_call", per_call(SpanKind::kTraceNext));
    put("trace.host_pct", pct({SpanKind::kTraceNext}));
    put("cpu.core_ticks", static_cast<double>(t.coreTicks));
    put("cpu.fetch_stall_frac",
        ratio(static_cast<double>(t.fetchStall),
              static_cast<double>(t.coreCycles)));
    put("cpu.host_pct", pct({SpanKind::kCpuTick, SpanKind::kCpuComplete}));
    put("mem.accept_calls", calls(SpanKind::kMemPort));
    put("mem.accept_ns_per_call", per_call(SpanKind::kMemPort));
    put("mem.tick_self_ns_per_cycle", per_call(SpanKind::kMemTick));
    put("mem.read_q_occupancy", t.ctrl.avgReadQOccupancy());
    put("mem.write_q_occupancy", t.ctrl.avgWriteQOccupancy());
    put("mem.idle_cycle_frac",
        ratio(static_cast<double>(t.ctrl.idleCycles), cycles));
    put("mem.forwarded_or_merged_frac",
        ratio(static_cast<double>(t.ctrl.readsForwarded +
                                  t.ctrl.readsMerged),
              static_cast<double>(t.ctrl.readsAccepted)));
    put("mem.host_pct", pct({SpanKind::kMemTick, SpanKind::kMemPort}));
    put("sched.picks", picks);
    put("sched.pick_ns", per_call(SpanKind::kSchedPick));
    put("sched.candidates_per_pick",
        ratio(static_cast<double>(sc.candidates), picks));
    put("sched.pick_idle_frac",
        ratio(static_cast<double>(sc.idlePicks), picks));
    put("sched.tick_ns_per_cycle", per_call(SpanKind::kSchedTick));
    put("sched.on_issue_ns", per_call(SpanKind::kSchedIssue));
    put("sched.host_pct", pct({SpanKind::kSchedPick, SpanKind::kSchedTick,
                               SpanKind::kSchedIssue, SpanKind::kSchedFf}));
    put("dram.acts_per_kcycle",
        1000.0 * ratio(static_cast<double>(t.dev.acts), cycles));
    put("dram.cols_per_kcycle", 1000.0 * ratio(cols, cycles));
    put("dram.refreshes_per_kcycle",
        1000.0 * ratio(static_cast<double>(t.dev.refreshes), cycles));
    put("dram.row_hit_rate",
        ratio(std::max(0.0, cols - static_cast<double>(t.dev.acts)), cols));
    put("verify.cmds", calls(SpanKind::kVerify));
    put("verify.ns_per_cmd", per_call(SpanKind::kVerify));
    put("sim.mem_cycles", cycles);
    put("sim.ff_skipped_frac", ratio(static_cast<double>(t.skipped), cycles));
    put("sim.ff_host_pct", pct({SpanKind::kFastForward}));
    put("sim.loop_self_ns_per_cycle", ratio(self(SpanKind::kLoop), cycles));
    put("sim.host_pct", pct({SpanKind::kLoop, SpanKind::kFastForward}));
    put("sim.trace_overhead_pct",
        100.0 * ratio(traced_ns - untraced_ns, untraced_ns));
    put("sim.layer_sum_error_pct",
        100.0 * ratio(sum - untraced_ns, untraced_ns));
    put("serve.backpressure_yields_per_req", 0.0);
    put("serve.shard_imbalance", 0.0);
    return m;
}

/**
 * One traced, audited pass over every sim cell; returns the raw
 * per-layer metrics.  Each cell also runs untraced just before its
 * traced run, so the overhead and layer-sum metrics compare runs made
 * under the same host conditions.  The first pass also writes the
 * sampled spans.
 */
std::map<std::string, double>
tracedPass(const Options &opt, const std::vector<Cell> &cells,
           const std::vector<Outcome> &ref, const SpanCost &cost,
           bool first, Verdict &verdict)
{
    Ledger ledger;
    SchedCounts sc;
    LayerTotals t;
    double untraced_s = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &cell = cells[i];
        Outcome untraced = runCell(cell, false);
        if (untraced.error.empty() && ref[i].error.empty())
            untraced.error = diffRunResults(untraced.run, ref[i].run);
        verdict.record("untraced", cell, untraced.error);
        untraced_s += untraced.runS;
        std::string error;
        try {
            const TracedSystemRun tr = runTracedSystem(
                cell.cfg.experiment, ledger, sc, static_cast<std::uint32_t>(i));
            error = checkRun(tr.result);
            if (error.empty())
                error = diffRunResults(tr.result, ref[i].run);
            if (!error.empty())
                error = "mirror: " + error;
            mergeControllerStats(t.ctrl, tr.result.ctrl);
            mergeDeviceCounters(t.dev, tr.result.dev);
            t.skipped += tr.result.idleCyclesSkipped;
            t.coreTicks += tr.coreTicks;
            t.coreCycles += tr.coreCycles;
            t.fetchStall += tr.fetchStallCycles;
        } catch (const std::exception &e) {
            error = std::string("traced pass threw: ") + e.what();
        }
        verdict.record("traced", cell, error);
    }
    if (first && !opt.traceDir.empty()) {
        const std::string path = opt.traceDir + "/" + opt.workload +
                                 "-seed" + std::to_string(opt.seed) +
                                 ".trace.json";
        if (!ledger.writeChromeTrace(path))
            std::fprintf(stderr, "nuat_bench: cannot write %s\n",
                         path.c_str());
        else
            std::fprintf(stderr, "[trace] %zu sampled spans -> %s\n",
                         ledger.records(), path.c_str());
    }
    return layerMetrics(ledger, cost, sc, t, untraced_s * 1e9);
}

/**
 * Per-layer metrics of a serve workload.  runServe builds its shards
 * internally, so no layer can be timed from outside: the metrics are
 * the reference pass's ServeResult counts, every other one reads 0.
 * One audited runServe per cell must report zero violations and the
 * reference counters.
 */
std::map<std::string, Stat>
servePerLayer(const std::vector<Cell> &cells, const std::vector<Outcome> &ref,
              Verdict &verdict)
{
    double requests = 0.0, yields = 0.0, shard_cycles = 0.0, cmds = 0.0;
    double imbalance = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        Cell audited = cells[i];
        audited.cfg.experiment.audit = true;
        Outcome a = runCell(audited, true);
        if (a.error.empty() && ref[i].error.empty())
            a.error = diffServeResults(a.serve, ref[i].serve);
        verdict.record("audited", cells[i], a.error);
        cmds += static_cast<double>(a.serve.auditCommandsChecked);

        const ServeResult &r = ref[i].serve;
        requests += static_cast<double>(r.requestsRetired);
        yields += static_cast<double>(r.backpressureYields);
        shard_cycles += static_cast<double>(r.totalShardCycles);
        double max = 0.0, sum = 0.0;
        for (const std::uint64_t n : r.shardRetired) {
            max = std::max(max, static_cast<double>(n));
            sum += static_cast<double>(n);
        }
        imbalance += ratio(max, ratio(sum, static_cast<double>(
                                               r.shardRetired.size())));
    }
    std::map<std::string, Stat> out;
    for (const Metric &m : kPerLayer)
        out[m.name] = constant(0.0, 1);
    out["verify.cmds"] = constant(cmds, 1);
    out["sim.mem_cycles"] = constant(shard_cycles, 1);
    out["serve.backpressure_yields_per_req"] =
        constant(ratio(yields, requests), 1);
    out["serve.shard_imbalance"] =
        constant(ratio(imbalance, static_cast<double>(cells.size())), 1);
    return out;
}

/** Median and quartiles of each per-layer metric over the passes. */
std::map<std::string, Stat>
tracedPasses(const Options &opt, const std::vector<Cell> &cells,
             const std::vector<Outcome> &ref, Verdict &verdict)
{
    if (isServe(opt.workload))
        return servePerLayer(cells, ref, verdict);
    const SpanCost cost = measureSpanCost();
    std::map<std::string, std::vector<double>> values;
    for (int pass = 0; pass < kTracedPasses; ++pass) {
        for (const auto &[name, v] :
             tracedPass(opt, cells, ref, cost, pass == 0, verdict))
            values[name].push_back(v);
    }
    std::map<std::string, Stat> out;
    for (const auto &[name, v] : values)
        out[name] = summarize(v);
    return out;
}

void
printJsonString(const std::string &s)
{
    std::putchar('"');
    for (const char ch : s) {
        if (ch == '"' || ch == '\\')
            std::printf("\\%c", ch);
        else if (static_cast<unsigned char>(ch) < 0x20)
            std::printf("\\u%04x", ch);
        else
            std::putchar(ch);
    }
    std::putchar('"');
}

void
printNumber(double v)
{
    if (std::isfinite(v))
        std::printf("%.17g", v);
    else
        std::printf("null");
}

void
printMetrics(const char *key, const Metric *defs, std::size_t n,
             const std::map<std::string, Stat> &values)
{
    std::printf(",\"%s\":{", key);
    for (std::size_t i = 0; i < n; ++i) {
        const Stat &s = values.at(defs[i].name);
        std::printf("%s\"%s\":{\"value\":", i ? "," : "", defs[i].name);
        printNumber(s.value);
        std::printf(",\"unit\":\"%s\",\"exact\":%s,\"q1\":", defs[i].unit,
                    defs[i].exact ? "true" : "false");
        printNumber(s.q1);
        std::printf(",\"q3\":");
        printNumber(s.q3);
        std::printf(",\"n\":%zu}", s.n);
    }
    std::printf("}");
}

void
printList()
{
    auto names = [](const Metric *defs, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
            std::printf("%s{\"name\":\"%s\",\"unit\":\"%s\"}",
                        i ? "," : "", defs[i].name, defs[i].unit);
    };
    std::printf("{\"workloads\":[");
    for (std::size_t i = 0; i < std::size(kWorkloads); ++i)
        std::printf("%s\"%s\"", i ? "," : "", kWorkloads[i].name);
    std::printf("],\"end_to_end\":[");
    names(kEndToEnd, std::size(kEndToEnd));
    std::printf("],\"per_layer\":[");
    names(kPerLayer, std::size(kPerLayer));
    std::printf("]}\n");
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usageError(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(kExitOk);
        } else if (arg == "--list") {
            printList();
            std::exit(kExitOk);
        } else if (arg == "--workload") {
            opt.workload = value();
        } else if (arg == "--seed") {
            opt.seed = parseCount("--seed", value());
        } else if (arg == "--seconds") {
            opt.seconds = parseCount("--seconds", value());
        } else if (arg == "--reps") {
            opt.reps = parseCount("--reps", value());
        } else if (arg == "--trace") {
            const std::uint64_t t = parseCount("--trace", value());
            if (t > 1)
                usageError("--trace takes 0 or 1");
            opt.trace = t == 1;
        } else if (arg == "--scale-pct") {
            opt.scalePct = parseCount("--scale-pct", value());
        } else if (arg == "--trace-dir") {
            opt.traceDir = value();
        } else {
            usageError("unknown argument '" + arg + "'");
        }
    }
    bool known = false;
    for (const WorkloadDef &w : kWorkloads)
        known = known || opt.workload == w.name;
    if (!known)
        usageError("--workload must name one of paper-grid, "
                   "mc8-contended, ddr5-sarp, serve-det");
    if (opt.reps == 0 || opt.reps > 1000)
        usageError("--reps must be in 1..1000");
    if (opt.seconds > 3600)
        usageError("--seconds must be at most 3600");
    if (opt.scalePct == 0 || opt.scalePct > 1000)
        usageError("--scale-pct must be in 1..1000");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    // A panic inside a cell becomes that cell's failure, not an abort.
    setPanicThrows(true);

    const bool serve = isServe(opt.workload);
    std::uint64_t ops = 0;
    for (const WorkloadDef &w : kWorkloads)
        if (opt.workload == w.name)
            ops = std::max<std::uint64_t>(1, w.ops * opt.scalePct / 100);
    const std::vector<Cell> cells = buildCells(opt.workload, ops, opt.seed);
    Verdict verdict;

    // 1. Untimed, audited warm-up at 1/10 ops.
    for (Cell cell : cells) {
        cell.cfg.experiment.audit = true;
        cell.cfg.experiment.memOpsPerCore =
            std::max<std::uint64_t>(1, ops / 10);
        cell.cfg.requestsPerProducer = std::max<std::uint64_t>(1, ops / 10);
        verdict.record("warm-up", cell, runCell(cell, serve).error);
    }

    // 2. Set-up time: the median of many cheap rounds, so that work
    // moved into construction shows above the noise.
    std::vector<double> setup_s;
    try {
        for (int round = 0; round < kSetupRounds; ++round)
            setup_s.push_back(setupRound(cells, serve));
    } catch (const std::exception &e) {
        verdict.record("set-up", cells.front(),
                       std::string("threw: ") + e.what());
    }

    // 3. One untimed full-size pass: it lets the allocator and caches
    // fill (the first full-size pass runs measurably slower) and gives
    // the reference counters every later run must reproduce.
    std::vector<Outcome> ref;
    for (const Cell &cell : cells) {
        ref.push_back(runCell(cell, serve));
        verdict.record("reference", cell, ref.back().error);
    }

    // 4. Timed repetitions, tracing off.
    std::vector<std::vector<double>> cell_s(cells.size());
    std::size_t reps = 0;
    const auto start = std::chrono::steady_clock::now();
    while (reps < opt.reps ||
           secondsSince(start) < static_cast<double>(opt.seconds)) {
        double rep_s = 0.0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            Outcome o = runCell(cells[i], serve);
            if (o.error.empty() && ref[i].error.empty())
                o.error = serve ? diffServeResults(o.serve, ref[i].serve)
                                : diffRunResults(o.run, ref[i].run);
            verdict.record("rep " + std::to_string(reps), cells[i], o.error);
            cell_s[i].push_back(o.runS);
            rep_s += o.runS;
        }
        ++reps;
        std::fprintf(stderr, "[%s] rep %zu: %.3f s\n", opt.workload.c_str(),
                     reps, rep_s);
    }

    // Host rates: the simulated work over the sum of each cell's lower
    // quartile time.  On a shared host a disturbance only ever adds time
    // to a repetition, and in ten paired runs per workload the lower
    // quartile halved the run-to-run spread of the median (11.9 % ->
    // 4.8 % on ddr5-sarp).  The rate's quartiles come from the cells'
    // upper and lower quartile times, so the value is the upper one.
    double cycles = 0.0, requests = 0.0;
    double q1_s = 0.0, q3_s = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        cycles += cellCycles(ref[i], serve);
        requests += cellRequests(ref[i], serve);
        const Stat s = summarize(cell_s[i]);
        q1_s += s.q1;
        q3_s += s.q3;
    }
    auto rate = [&](double work) {
        return Stat{ratio(work, q1_s), ratio(work, q3_s), ratio(work, q1_s),
                    reps};
    };
    std::map<std::string, Stat> e2e;
    e2e["sim_mcycles_per_s"] = rate(cycles / 1e6);
    e2e["requests_per_s"] = rate(requests);
    e2e["setup_s"] = summarize(setup_s);
    simulatedMetrics(cells, ref, serve, reps, e2e);

    // Before the traced passes, whose span records would count.
    e2e["peak_rss_mb"] = constant(peakRssMb(), 1);

    // 5. The traced, audited passes.
    std::map<std::string, Stat> layers;
    if (opt.trace)
        layers = tracedPasses(opt, cells, ref, verdict);

    for (const std::string &e : verdict.errors)
        std::fprintf(stderr, "FAILED %s\n", e.c_str());
    const bool correct = verdict.failed == 0;
    std::printf("{\"workload\":");
    printJsonString(opt.workload);
    std::printf(",\"seed\":%llu,\"trace\":%d,\"reps\":%zu,\"correct\":%s,"
                "\"attempted\":%llu,\"failed\":%llu,\"errors\":[",
                static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
                reps, correct ? "true" : "false",
                static_cast<unsigned long long>(verdict.attempted),
                static_cast<unsigned long long>(verdict.failed));
    for (std::size_t i = 0; i < verdict.errors.size(); ++i) {
        if (i)
            std::putchar(',');
        printJsonString(verdict.errors[i]);
    }
    std::printf("]");
    printMetrics("end_to_end", kEndToEnd, std::size(kEndToEnd), e2e);
    if (opt.trace)
        printMetrics("per_layer", kPerLayer, std::size(kPerLayer), layers);
    std::printf("}\n");
    return correct ? kExitOk : kExitCheck;
}
