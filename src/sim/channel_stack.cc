#include "channel_stack.hh"

#include "charge/cell_model.hh"
#include "charge/sense_amp_model.hh"
#include "common/logging.hh"
#include "core/nuat_scheduler.hh"
#include "fault/fault_profile.hh"
#include "sched/adaptive_scheduler.hh"
#include "sched/fcfs_scheduler.hh"
#include "sched/frfcfs_scheduler.hh"

namespace nuat {

std::unique_ptr<Scheduler>
makeSchedulerFor(const ExperimentConfig &cfg,
                 const TimingDerate &derate)
{
    switch (cfg.scheduler) {
      case SchedulerKind::kFcfs:
        return std::make_unique<FcfsScheduler>(PagePolicy::kOpen);
      case SchedulerKind::kFrFcfsOpen:
        return std::make_unique<FrFcfsScheduler>(PagePolicy::kOpen);
      case SchedulerKind::kFrFcfsClose:
        return std::make_unique<FrFcfsScheduler>(PagePolicy::kClose,
                                                 cfg.closeGrace);
      case SchedulerKind::kFrFcfsAdaptive:
        return std::make_unique<AdaptiveFrFcfsScheduler>(
            1024, 256, cfg.closeGrace);
      case SchedulerKind::kNuat: {
        NuatConfig nc = NuatConfig::fromDerate(derate, cfg.numPb);
        nc.weights = cfg.weights;
        nc.ppmEnabled = cfg.ppmEnabled;
        nc.graceClose = cfg.closeGrace;
        nc.starvationLimit = cfg.nuatStarvationLimit;
        nc.pbElementEnabled = cfg.pbElementEnabled;
        nc.boundaryElementEnabled = cfg.boundaryElementEnabled;
        nc.guardband = cfg.guardband;
        nc.guardband.enabled =
            cfg.faultsEnabled() && cfg.faultDegrade;
        return std::make_unique<NuatScheduler>(nc);
      }
    }
    nuat_panic("unhandled scheduler kind");
}

ChannelStack
makeChannelStack(const ExperimentConfig &cfg, unsigned channel)
{
    nuat_assert(channel < cfg.geometry.channels);
    const Clock clock = cfg.memClock();
    DramGeometry chan_geom = cfg.geometry;
    chan_geom.channels = 1;
    ControllerConfig ctrl_cfg = cfg.controller;
    ctrl_cfg.channels = cfg.geometry.channels;
    ctrl_cfg.idleFastForward = cfg.idleFastForward;

    const CellModel cell(cfg.charge);
    NominalTiming nominal;
    nominal.trcd = cfg.timing.tRCD;
    nominal.tras = cfg.timing.tRAS;
    nominal.trp = cfg.timing.tRP;
    ChannelStack s;
    s.derate = std::make_unique<TimingDerate>(SenseAmpModel(cell),
                                              nominal, clock);
    s.device = std::make_unique<DramDevice>(chan_geom, cfg.timing,
                                            *s.derate, clock);
    if (cfg.faultsEnabled()) {
        // Channel-salted seed so multi-channel fault worlds differ but
        // stay a pure function of the experiment seed.
        const RefreshEngine &re = s.device->refresh(RankId{0});
        s.faults = std::make_unique<FaultModel>(
            resolveFaultProfile(cfg.faultProfile),
            cfg.seed + 0x9e3779b97f4a7c15ULL * (channel + 1),
            chan_geom.ranks, chan_geom.rows, re.rowsPerRef(),
            re.interval(), clock);
        s.device->attachFaultModel(s.faults.get());
    }
    s.controller = std::make_unique<MemoryController>(
        *s.device, makeSchedulerFor(cfg, *s.derate), ctrl_cfg);

    // The shadow auditor is a passive observer: it re-checks every
    // issued command against its own protocol model and never
    // perturbs the run.
    if (cfg.audit) {
        AuditorConfig acfg;
        acfg.geometry = chan_geom;
        acfg.timing = cfg.timing;
        acfg.clock = clock;
        acfg.derate = s.derate.get();
        acfg.faults = s.faults.get();
        acfg.maxMessages = cfg.auditMaxMessages;
        s.auditor = std::make_unique<ProtocolAuditor>(acfg);
        s.device->addObserver(s.auditor.get());
    }
    return s;
}

void
ChannelTotals::add(const ChannelStack &stack, std::size_t max_messages)
{
    ctrl.merge(stack.controller->stats());
    dev.merge(stack.device->counters());
    if (stack.auditor) {
        audited = true;
        audit.merge(stack.auditor->report(), max_messages);
    }
}

} // namespace nuat
