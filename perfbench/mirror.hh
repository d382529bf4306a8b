/**
 * @file
 * Traced mirror of System::run, and the counter comparisons the
 * benchmark checks every run with.
 *
 * The mirror rebuilds the run from the simulator's public parts
 * (TimingDerate, DramDevice, MemoryController, makeSchedulerFor,
 * ChannelMux, SyntheticTrace, CoreModel, ProtocolAuditor) with the
 * ledger's timing wrappers spliced in at every layer boundary, and
 * repeats System's driving loop step for step.  The benchmark compares
 * every counter of a mirror run with the real run of the same config;
 * a mismatch fails the benchmark, so the per-layer times always
 * describe the code path the end-to-end numbers time.
 *
 * runServe builds its shards internally and has no such public parts,
 * so serve runs have no mirror: their per-layer numbers are the
 * ServeResult counts.
 */

#ifndef NUAT_PERFBENCH_MIRROR_HH
#define NUAT_PERFBENCH_MIRROR_HH

#include <string>

#include "ledger.hh"
#include "sim/experiment_config.hh"
#include "sim/serve_runtime.hh"

namespace nuat::perfbench {

/** A traced System run: its RunResult plus core-side counts. */
struct TracedSystemRun
{
    RunResult result;
    std::uint64_t steppedCycles = 0;    //!< memory cycles ticked
    std::uint64_t coreTicks = 0;        //!< CoreModel::tick calls
    std::uint64_t coreCycles = 0;       //!< memCycles x cpuPerMem x cores
    std::uint64_t fetchStallCycles = 0; //!< summed over cores
};

/**
 * Run @p cfg (fault-free, metrics-free) through the traced mirror of
 * System, with a shadow auditor on every channel.  Spans count as
 * cell @p cell.
 */
TracedSystemRun runTracedSystem(const ExperimentConfig &cfg,
                                Ledger &ledger, SchedCounts &sched,
                                std::uint32_t cell);

/** Add @p from into @p into field by field. */
void mergeControllerStats(ControllerStats &into,
                          const ControllerStats &from);
void mergeDeviceCounters(DeviceCounters &into, const DeviceCounters &from);

/** First counter that differs between @p a and @p b; empty if none. */
std::string diffRunResults(const RunResult &a, const RunResult &b);
std::string diffServeResults(const ServeResult &a, const ServeResult &b);

} // namespace nuat::perfbench

#endif // NUAT_PERFBENCH_MIRROR_HH
