#include "experiment_config.hh"

#include <algorithm>

#include "common/logging.hh"

namespace nuat {

const char *
schedulerKindName(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::kFcfs:
        return "FCFS";
      case SchedulerKind::kFrFcfsOpen:
        return "FR-FCFS(open)";
      case SchedulerKind::kFrFcfsClose:
        return "FR-FCFS(close)";
      case SchedulerKind::kFrFcfsAdaptive:
        return "FR-FCFS(adaptive)";
      case SchedulerKind::kNuat:
        return "NUAT";
    }
    return "?";
}

const char *
schedulerKindKey(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::kFcfs:
        return "fcfs";
      case SchedulerKind::kFrFcfsOpen:
        return "frfcfs-open";
      case SchedulerKind::kFrFcfsClose:
        return "frfcfs-close";
      case SchedulerKind::kFrFcfsAdaptive:
        return "frfcfs-adaptive";
      case SchedulerKind::kNuat:
        return "nuat";
    }
    return "unknown";
}

bool
parseSchedulerKind(const std::string &name, SchedulerKind *out)
{
    for (const SchedulerKind kind :
         {SchedulerKind::kFcfs, SchedulerKind::kFrFcfsOpen,
          SchedulerKind::kFrFcfsClose, SchedulerKind::kFrFcfsAdaptive,
          SchedulerKind::kNuat}) {
        if (name == schedulerKindKey(kind)) {
            *out = kind;
            return true;
        }
    }
    return false;
}

void
ExperimentConfig::applyDramGen(DramGen gen)
{
    const DramSpec &spec = DramSpec::preset(gen);
    dramGen = gen;
    busMhz = spec.busMhz;
    cpuPerMem = spec.cpuPerMemCycle;
    geometry = spec.geometry;
    timing = spec.timing;
}

void
ExperimentConfig::applyDramGen(DramGen gen, RefreshMode refresh_mode)
{
    applyDramGen(gen);
    timing.refreshMode = refresh_mode;
}

void
ExperimentConfig::validate() const
{
    nuat_assert(!workloads.empty(), "(no workloads configured)");
    nuat_assert(numPb >= 1 && numPb <= 8, "(numPb %u outside 1..8)",
                numPb);
    nuat_assert(memOpsPerCore > 0);
    nuat_assert(maxMemCycles > 0);
    nuat_assert(busMhz > 0.0 && cpuPerMem >= 1);
    nuat_assert(metricsInterval > 0, "(metricsInterval must be positive)");
    // The fault world is keyed by (rank, row) rank-wide; per-bank
    // refresh would need per-bank restore routing it does not model.
    nuat_assert(!faultsEnabled() ||
                    timing.refreshMode == RefreshMode::kAllBank,
                "(fault injection requires all-bank refresh)");
    // DARP/SARP reorder individual banks' REFsb commands; under
    // all-bank refresh there is nothing to reorder.
    nuat_assert(controller.refreshPolicy == RefreshPolicy::kInOrder ||
                    timing.refreshMode == RefreshMode::kPerBank,
                "(darp/sarp refresh policies require per-bank refresh"
                " mode)");
    geometry.validate();
    timing.validate();
}

CpuCycle
RunResult::executionTime() const
{
    CpuCycle max = 0;
    for (const CpuCycle c : coreFinish)
        max = std::max(max, c);
    return max;
}

} // namespace nuat
