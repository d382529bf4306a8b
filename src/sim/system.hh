/**
 * @file
 * Full-system wiring: one ChannelStack per channel (charge model ->
 * DRAM device -> controller + scheduler) -> cores with synthetic
 * traces.
 *
 * Multi-channel operation follows the Memory Scheduling Championship
 * convention: channels interleave at cache-line granularity, each
 * channel has its own controller and scheduler instance, and cores
 * route requests through a ChannelMux.
 */

#ifndef NUAT_SIM_SYSTEM_HH
#define NUAT_SIM_SYSTEM_HH

#include <fstream>
#include <memory>
#include <vector>

#include "channel_stack.hh"
#include "common/metrics.hh"
#include "common/thread_annotations.hh"
#include "cpu/core_model.hh"
#include "experiment_config.hh"
#include "mem/memory_port.hh"
#include "trace/synthetic_trace.hh"
#include "verify/trace_capture.hh"

namespace nuat {

/** Routes core requests to the owning channel's controller. */
class ChannelMux : public MemoryPort
{
  public:
    /**
     * @param mapping full-system mapping (decodes channel bits)
     * @param channels one controller per channel (not owned)
     */
    ChannelMux(const AddressMapping &mapping,
               std::vector<MemoryController *> channels);

    bool canAcceptRead(Addr addr) const override;
    bool canAcceptWrite(Addr addr) const override;
    void enqueueRead(Addr addr, const Waiter &waiter,
                     Cycle now) override;
    void enqueueWrite(Addr addr, Cycle now) override;

  private:
    MemoryController &route(Addr addr) const;

    AddressMapping mapping_;
    std::vector<MemoryController *> channels_;
};

/** A fully wired simulated machine. */
class System
{
  public:
    /** Build everything from @p cfg (validated). */
    explicit System(const ExperimentConfig &cfg);

    // Pinned in place: read callbacks and metric views hold its
    // address.
    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Run until every core finishes (or the cycle cap is hit) and
     * collect the (channel-aggregated) result record.
     */
    RunResult run();

    /** The components of @p channel (for inspection). */
    const ChannelStack &channel(unsigned channel) const;

    /** Number of channels. */
    unsigned channels() const
    {
        return static_cast<unsigned>(channels_.size());
    }

    /** Advance the machine by one memory cycle. */
    void stepMemCycle();

    /**
     * Advance the machine: fast-forward across a provably idle span
     * when the config enables it and one exists (all controller queues
     * empty, nothing due), then step one real memory cycle.  Produces
     * byte-identical state and statistics to calling stepMemCycle()
     * in a loop.
     */
    void advance();

    /** True once every core and controller has drained. */
    bool done() const;

    /** Current memory cycle. */
    Cycle now() const { return now_; }

  private:
    /**
     * Fast-forward now_ to the next cycle at which any component can
     * act, when that cycle is provably in the future (no queued
     * requests anywhere, no completion / refresh / core event before
     * it).  No-op when something can happen this cycle.
     */
    void fastForwardIdle();

    /** Build the metric registry + sampler when the config asks. */
    void setupMetrics();

    ExperimentConfig cfg_;
    std::vector<ChannelStack> channels_;
    std::unique_ptr<ChannelMux> mux_;
    std::vector<std::unique_ptr<SyntheticTrace>> traces_;
    std::vector<std::unique_ptr<CoreModel>> cores_;
    std::unique_ptr<CommandTraceWriter> traceWriter_;
    // Declared after the components its views capture, so the
    // registry and its sampler are destroyed first.
    std::unique_ptr<MetricRegistry> metrics_;
    std::unique_ptr<std::ofstream> metricsOut_;
    std::unique_ptr<std::ofstream> traceOut_;
    std::unique_ptr<TraceEventSink> traceSink_;
    std::unique_ptr<IntervalSampler> sampler_;
    Cycle now_ = 0;
    Cycle idleCyclesSkipped_ = 0;

    /**
     * Worker confinement (debug-asserted): a System is built and run
     * by one thread (parallel_runner gives each worker its own), and
     * advance()/stepMemCycle() assert that — a System shared across
     * experiment workers panics in debug builds instead of racing
     * every component at once.
     */
    ThreadConfined confined_;
};

} // namespace nuat

#endif // NUAT_SIM_SYSTEM_HH
