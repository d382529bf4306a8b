#include "runner.hh"

#include "parallel_runner.hh"
#include "system.hh"

namespace nuat {

RunResult
runExperiment(const ExperimentConfig &cfg)
{
    System system(cfg);
    return system.run();
}

std::vector<RunResult>
runSchedulerSweep(ExperimentConfig cfg,
                  const std::vector<SchedulerKind> &kinds,
                  unsigned threads)
{
    std::vector<ExperimentConfig> configs;
    configs.reserve(kinds.size());
    for (const SchedulerKind kind : kinds) {
        cfg.scheduler = kind;
        configs.push_back(cfg);
        if (kinds.size() > 1) {
            // Per-run output streams would clobber each other across
            // the sweep; suffix the paths with the scheduler key.
            ExperimentConfig &c = configs.back();
            const std::string suffix =
                std::string(".") + schedulerKindKey(kind);
            if (!c.metricsOutPath.empty())
                c.metricsOutPath += suffix;
            if (!c.traceEventsPath.empty())
                c.traceEventsPath += suffix;
            if (!c.dumpTracePath.empty())
                c.dumpTracePath += suffix;
        }
    }
    return runExperimentsParallel(configs, threads);
}

double
percentReduction(double baseline, double ours)
{
    if (baseline == 0.0)
        return 0.0;
    return (baseline - ours) / baseline * 100.0;
}

} // namespace nuat
