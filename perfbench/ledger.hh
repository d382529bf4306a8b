/**
 * @file
 * Host-time span ledger for the per-layer pass of nuat_bench.
 *
 * Spans are opened and closed by the benchmark's own wrappers around
 * each layer's public interface (Scheduler, MemoryPort, TraceSource,
 * CommandObserver) and by the driving loop that mirrors System;
 * nothing inside src/ is instrumented.  Every span adds its
 * duration to its name's total and its self time (duration minus the
 * part its child spans cover) to its name's self total.  Full records
 * — name, start, end, parent, (cell, memory cycle) — are kept only for
 * one in kSamplePeriod memory cycles and written at exit as Chrome
 * trace-event JSON.
 *
 * Timing uses the x86 time-stamp counter calibrated against
 * std::chrono::steady_clock (steady_clock itself elsewhere).  The cost
 * of an empty span is measured once per process (measureSpanCost) and
 * subtracted from the self times, so the corrected layer self times
 * add up to the untraced run's host time.
 */

#ifndef NUAT_PERFBENCH_LEDGER_HH
#define NUAT_PERFBENCH_LEDGER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "common/logging.hh"
#include "cpu/trace.hh"
#include "dram/command_observer.hh"
#include "mem/memory_port.hh"
#include "mem/scheduler.hh"

namespace nuat::perfbench {

/** Every span the benchmark records; the prefix names the layer. */
enum class SpanKind : std::uint8_t
{
    kLoop,         //!< sim.loop: System's driving loop
    kFastForward,  //!< sim.ff: idle fast-forward probe and skip
    kMemTick,      //!< mem.tick: MemoryController::tick
    kMemPort,      //!< mem.port: canAccept / enqueue calls
    kCpuTick,      //!< cpu.tick: every CoreModel::tick of one cycle
    kCpuComplete,  //!< cpu.complete: read callback -> onReadComplete
    kTraceNext,    //!< trace.next: TraceSource::next
    kSchedPick,    //!< sched.pick
    kSchedTick,    //!< sched.tick
    kSchedIssue,   //!< sched.on_issue
    kSchedFf,      //!< sched.ff: Scheduler::fastForward
    kVerify,       //!< verify.command: auditor onCommand
    kCount,
};

constexpr std::size_t kSpanKinds = static_cast<std::size_t>(SpanKind::kCount);

/** Dotted span name, e.g. "mem.tick". */
const char *spanName(SpanKind kind);

/** Layer of @p kind: the span name up to its dot. */
std::string spanLayer(SpanKind kind);

/** steady_clock in nanoseconds. */
std::uint64_t steadyNs();

/** Host clock ticks (TSC on x86, steady_clock ns elsewhere). */
inline std::uint64_t
hostTicks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return steadyNs();
#endif
}

/** Nanoseconds per hostTicks() tick, calibrated on first use. */
double hostNsPerTick();

/** Aggregate of every closed span of one kind. */
struct SpanStats
{
    std::uint64_t calls = 0;
    std::uint64_t totalTicks = 0;
    std::uint64_t selfTicks = 0;
    std::uint64_t childCalls = 0; //!< spans closed directly inside
};

/** One sampled span. */
struct SpanRecord
{
    std::uint32_t cell = 0;
    std::uint64_t cycle = 0;
    SpanKind kind = SpanKind::kLoop;
    std::int64_t parent = -1; //!< index into the record list, or -1
    std::uint64_t start = 0;
    std::uint64_t end = 0;
};

/** Measured cost of one empty span [ticks]. */
struct SpanCost
{
    double inside = 0.0; //!< the span's own measured duration
    double parent = 0.0; //!< what it adds to its parent's self time
};

/**
 * Span aggregates plus sampled records.  Single-threaded: the traced
 * pass runs on one thread.  Spans only count while armed, so set-up
 * code that calls a wrapped interface (CoreModel's constructor pulls
 * its first trace record) stays out of the ledger.
 */
class Ledger
{
  public:
    /** Full records are kept for one in this many memory cycles. */
    static constexpr std::uint64_t kSamplePeriod = 1024;

    /** Cap on kept records (memory bound for long passes). */
    static constexpr std::size_t kMaxRecords = 1u << 20;

    /** Start counting spans of @p cell.  Must not be inside a span. */
    void arm(std::uint32_t cell);

    /** Stop counting spans. */
    void disarm();

    /** The memory cycle subsequent spans belong to. */
    void
    setCycle(std::uint64_t cycle)
    {
        cycle_ = cycle;
        sampling_ = armed_ && cycle % kSamplePeriod == 0 &&
                    records_.size() < kMaxRecords;
    }

    void
    open(SpanKind kind)
    {
        if (!armed_)
            return;
        nuat_assert(depth_ < stack_.size(), "(span stack overflow)");
        Frame &f = stack_[depth_++];
        f.kind = kind;
        f.childTicks = 0;
        f.record = -1;
        if (sampling_) {
            f.record = static_cast<std::int64_t>(records_.size());
            SpanRecord r;
            r.cell = cell_;
            r.cycle = cycle_;
            r.kind = kind;
            r.parent = depth_ > 1 ? stack_[depth_ - 2].record : -1;
            records_.push_back(r);
        }
        f.start = hostTicks();
    }

    void
    close()
    {
        if (!armed_)
            return;
        const std::uint64_t end = hostTicks();
        nuat_assert(depth_ > 0, "(span closed twice)");
        const Frame &f = stack_[--depth_];
        const std::uint64_t dur = end - f.start;
        SpanStats &s = stats_[static_cast<std::size_t>(f.kind)];
        ++s.calls;
        s.totalTicks += dur;
        s.selfTicks += dur > f.childTicks ? dur - f.childTicks : 0;
        if (depth_ > 0) {
            Frame &p = stack_[depth_ - 1];
            p.childTicks += dur;
            ++stats_[static_cast<std::size_t>(p.kind)].childCalls;
        }
        if (f.record >= 0) {
            SpanRecord &r = records_[static_cast<std::size_t>(f.record)];
            r.start = f.start;
            r.end = end;
        }
    }

    const SpanStats &
    stats(SpanKind kind) const
    {
        return stats_[static_cast<std::size_t>(kind)];
    }

    /** Self time of @p kind minus the measured span overhead [ns]. */
    double correctedSelfNs(SpanKind kind, const SpanCost &cost) const;

    /** Total (inclusive) time of @p kind [ns], uncorrected. */
    double totalNs(SpanKind kind) const;

    /** Spans recorded in full so far. */
    std::size_t records() const { return records_.size(); }

    /**
     * Write the sampled spans as Chrome trace-event JSON (one
     * complete "X" event per span; pid = cell, args carry the memory
     * cycle and the parent record index).
     * @return false when @p path cannot be written
     */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Frame
    {
        SpanKind kind = SpanKind::kLoop;
        std::uint64_t start = 0;
        std::uint64_t childTicks = 0;
        std::int64_t record = -1;
    };

    bool armed_ = false;
    bool sampling_ = false;
    std::uint32_t cell_ = 0;
    std::uint64_t cycle_ = 0;
    std::array<Frame, 16> stack_{};
    std::size_t depth_ = 0;
    std::array<SpanStats, kSpanKinds> stats_{};
    std::vector<SpanRecord> records_;
};

/** RAII span. */
class Span
{
  public:
    Span(Ledger &ledger, SpanKind kind) : ledger_(ledger)
    {
        ledger_.open(kind);
    }
    ~Span() { ledger_.close(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Ledger &ledger_;
};

/**
 * Measure the cost of an empty span on this host: the median over a
 * few rounds of many empty spans nested in one parent.
 */
SpanCost measureSpanCost();

/** Scheduler counts the timing decorator gathers besides its spans. */
struct SchedCounts
{
    std::uint64_t candidates = 0; //!< summed over pick() calls
    std::uint64_t idlePicks = 0;  //!< pick() returned -1
};

/** Timing decorator: forwards every Scheduler call inside a span. */
class TimedScheduler : public Scheduler
{
  public:
    TimedScheduler(std::unique_ptr<Scheduler> inner, Ledger &ledger,
                   SchedCounts &counts)
        : inner_(std::move(inner)), ledger_(ledger), counts_(counts)
    {
    }

    int
    pick(std::vector<Candidate> &candidates,
         const SchedContext &ctx) override
    {
        Span s(ledger_, SpanKind::kSchedPick);
        counts_.candidates += candidates.size();
        const int idx = inner_->pick(candidates, ctx);
        if (idx < 0)
            ++counts_.idlePicks;
        return idx;
    }

    void
    onIssue(const Command &cmd, const SchedContext &ctx) override
    {
        Span s(ledger_, SpanKind::kSchedIssue);
        inner_->onIssue(cmd, ctx);
    }

    void
    tick(const SchedContext &ctx) override
    {
        Span s(ledger_, SpanKind::kSchedTick);
        inner_->tick(ctx);
    }

    void
    fastForward(Cycle cycles, const SchedContext &ctx) override
    {
        Span s(ledger_, SpanKind::kSchedFf);
        inner_->fastForward(cycles, ctx);
    }

    void
    reportExtra(RunResult &result) const override
    {
        inner_->reportExtra(result);
    }

    const char *name() const override { return inner_->name(); }

  private:
    std::unique_ptr<Scheduler> inner_;
    Ledger &ledger_;
    SchedCounts &counts_;
};

/** Timed MemoryPort in front of the channel mux. */
class TimedPort : public MemoryPort
{
  public:
    TimedPort(MemoryPort &inner, Ledger &ledger)
        : inner_(inner), ledger_(ledger)
    {
    }

    bool
    canAcceptRead(Addr addr) const override
    {
        Span s(ledger_, SpanKind::kMemPort);
        return inner_.canAcceptRead(addr);
    }

    bool
    canAcceptWrite(Addr addr) const override
    {
        Span s(ledger_, SpanKind::kMemPort);
        return inner_.canAcceptWrite(addr);
    }

    void
    enqueueRead(Addr addr, const Waiter &waiter, Cycle now) override
    {
        Span s(ledger_, SpanKind::kMemPort);
        inner_.enqueueRead(addr, waiter, now);
    }

    void
    enqueueWrite(Addr addr, Cycle now) override
    {
        Span s(ledger_, SpanKind::kMemPort);
        inner_.enqueueWrite(addr, now);
    }

  private:
    MemoryPort &inner_;
    Ledger &ledger_;
};

/** Timed TraceSource around a core's synthetic trace. */
class TimedTrace : public TraceSource
{
  public:
    TimedTrace(TraceSource &inner, Ledger &ledger)
        : inner_(inner), ledger_(ledger)
    {
    }

    bool
    next(TraceEntry &out) override
    {
        Span s(ledger_, SpanKind::kTraceNext);
        return inner_.next(out);
    }

    void reset() override { inner_.reset(); }
    const char *name() const override { return inner_.name(); }

  private:
    TraceSource &inner_;
    Ledger &ledger_;
};

/** Timed, passive command observer in front of the shadow auditor. */
class TimedObserver : public CommandObserver
{
  public:
    TimedObserver(CommandObserver &inner, Ledger &ledger)
        : inner_(inner), ledger_(ledger)
    {
    }

    void
    onCommand(const Command &cmd, Cycle now) override
    {
        Span s(ledger_, SpanKind::kVerify);
        inner_.onCommand(cmd, now);
    }

  private:
    CommandObserver &inner_;
    Ledger &ledger_;
};

} // namespace nuat::perfbench

#endif // NUAT_PERFBENCH_LEDGER_HH
