/**
 * @file
 * Metrics & telemetry: a registry of named views over the simulator's
 * own statistics, plus an interval sampler that emits the registry as
 * a JSONL time series and (optionally) chrome://tracing counter
 * events.
 *
 * One ledger per signal: a registered metric holds no value of its
 * own.  A counter or gauge is a callable over its component's ledger
 * (ControllerStats, DeviceCounters, the NUAT scheduler's per-PB
 * counts, PHRC state, ...), read only when a record is written; a
 * histogram entry refers to a Histogram its component owns.  The
 * series therefore agrees with the run's aggregate statistics by
 * construction, and the simulation loop pays nothing between samples.
 * Push-side instrumentation exists only where no aggregate does (the
 * controller's per-tick queue-occupancy histograms and the NUAT
 * scheduler's per-pick score-element sums); those components fill it
 * only while a registry is attached.  Attaching never perturbs
 * simulation behaviour: metrics-on and metrics-off runs produce
 * byte-identical RunResults.
 *
 * Registration is cold (simulation setup) and each name registers
 * once.  A view captures its source, so a registry must not be sampled
 * after any component it views is destroyed.
 *
 * Sampling model: cumulative values.  Every JSONL record carries the
 * full current value of every metric, stamped with the memory cycle of
 * the interval boundary it covers; consumers difference adjacent
 * records for per-interval rates.  The final record of a run therefore
 * agrees with the run's aggregate statistics.  See OBSERVABILITY.md
 * for the schema and metric names.
 *
 * Thread safety: none, by design — a MetricRegistry is *thread
 * confined*.  Each System builds its own registry on the thread that
 * runs it (parallel_runner workers each own a full System; serve
 * shards run metrics-free), so views read plain non-atomic fields.
 * The confinement is asserted in debug builds: every registration/
 * sample entry point calls ThreadConfined::assertOwned, so a registry
 * leaking across threads panics instead of silently racing.
 */

#ifndef NUAT_COMMON_METRICS_HH
#define NUAT_COMMON_METRICS_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "stats.hh"
#include "thread_annotations.hh"
#include "types.hh"

namespace nuat {

/** Named, ordered collection of metric views. */
class MetricRegistry
{
  public:
    enum class Kind
    {
        kCounter,
        kGauge,
        kHistogram,
    };

    /** Reads a monotonic event count. */
    using CounterView = std::function<std::uint64_t()>;

    /** Reads a point-in-time value. */
    using GaugeView = std::function<double()>;

    /** One registered metric; the source matching `kind` is set. */
    struct Entry
    {
        std::string name;
        std::string description;
        Kind kind = Kind::kCounter;
        CounterView counter;
        GaugeView gauge;
        const Histogram *histogram = nullptr;
    };

    /** Register counter @p name, read through @p view per record. */
    void counter(const std::string &name, CounterView view,
                 const std::string &description = "");

    /** Register gauge @p name, read through @p view per record. */
    void gauge(const std::string &name, GaugeView view,
               const std::string &description = "");

    /**
     * Register histogram @p name over @p source (not owned; see
     * Histogram: bucket i covers [lo + i*width, lo + (i+1)*width),
     * plus under/overflow).
     */
    void histogram(const std::string &name, const Histogram &source,
                   const std::string &description = "");

    /** All metrics in registration order. */
    const std::vector<Entry> &entries() const { return entries_; }

    /**
     * Serialize the current values as the three JSON maps
     * `"counters":{...},"gauges":{...},"histograms":{...}` (no
     * surrounding braces; the sampler owns the record framing).
     */
    void writeValuesJson(std::ostream &out) const;

  private:
    /** Append a new entry; panics if @p name is already registered. */
    Entry &add(const std::string &name, const std::string &description,
               Kind kind);

    /** Owned by the thread that registers/samples (debug-asserted). */
    ThreadConfined confined_;
    std::vector<Entry> entries_;
};

/**
 * chrome://tracing sink: renders every counter and gauge as a counter
 * track ("ph":"C") in the Trace Event JSON array format.  Load the
 * output in chrome://tracing or Perfetto; ts is the memory cycle.
 */
class TraceEventSink
{
  public:
    /** Writes the opening of the event array to @p out (not owned). */
    explicit TraceEventSink(std::ostream &out);

    /** Emit one counter event. */
    void counterEvent(const std::string &name, Cycle t, double value);

    /** Close the event array (idempotent). */
    void finish();

  private:
    std::ostream &out_;
    bool first_ = true;
    bool finished_ = false;
};

/**
 * Emits one JSONL record per elapsed interval boundary.
 *
 * Boundaries sit at k*interval for k = 1, 2, ...; advanceTo(now)
 * emits every boundary in (last emitted, now] — an idle fast-forward
 * that jumps several boundaries yields one record per boundary, each
 * stamped with its boundary cycle (the values are those at the first
 * cycle the simulator reached at or after the boundary).  finish()
 * appends a trailing record for a run that ends between boundaries,
 * so the last record always reflects the complete run.
 */
class IntervalSampler
{
  public:
    /**
     * @param registry metrics to serialize (not owned)
     * @param interval cycles between samples (must be positive)
     * @param jsonl    JSONL destination, may be null (not owned)
     * @param trace    optional chrome://tracing sink (not owned)
     */
    IntervalSampler(MetricRegistry &registry, Cycle interval,
                    std::ostream *jsonl,
                    TraceEventSink *trace = nullptr);

    /** Emit a record for every boundary at or before @p now. */
    void advanceTo(Cycle now);

    /** Final partial record at @p now (no-op if already emitted). */
    void finish(Cycle now);

    /** Records emitted so far. */
    std::uint64_t samples() const { return samples_; }

    /** The sampling interval [cycles]. */
    Cycle interval() const { return interval_; }

  private:
    void emit(Cycle t);

    MetricRegistry &registry_;
    Cycle interval_;
    Cycle nextAt_;
    Cycle lastEmittedAt_ = 0;
    std::uint64_t samples_ = 0;
    std::ostream *jsonl_;
    TraceEventSink *trace_;
};

} // namespace nuat

#endif // NUAT_COMMON_METRICS_HH
