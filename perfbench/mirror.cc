#include "mirror.hh"

#include <memory>
#include <sstream>

#include "charge/cell_model.hh"
#include "charge/sense_amp_model.hh"
#include "charge/timing_derate.hh"
#include "cpu/core_model.hh"
#include "dram/dram_device.hh"
#include "mem/memory_controller.hh"
#include "sim/system.hh"
#include "trace/synthetic_trace.hh"
#include "trace/workload_profile.hh"
#include "verify/protocol_auditor.hh"

namespace nuat::perfbench {

namespace {

TimingDerate
makeDerate(const ExperimentConfig &cfg, const Clock &clock)
{
    const CellModel cell(cfg.charge);
    const SenseAmpModel sense_amp(cell);
    NominalTiming nominal;
    nominal.trcd = cfg.timing.tRCD;
    nominal.tras = cfg.timing.tRAS;
    nominal.trp = cfg.timing.tRP;
    return TimingDerate(sense_amp, nominal, clock);
}

AuditorConfig
auditorConfig(const DramGeometry &chan_geom, const ExperimentConfig &cfg,
              const TimingDerate &derate, const Clock &clock)
{
    AuditorConfig acfg;
    acfg.geometry = chan_geom;
    acfg.timing = cfg.timing;
    acfg.clock = clock;
    acfg.derate = &derate;
    acfg.maxMessages = cfg.auditMaxMessages;
    return acfg;
}

/** Collects "field: a != b" for the first mismatch only. */
class Differ
{
  public:
    template <typename T>
    void
    check(const char *field, const T &a, const T &b)
    {
        if (!first_.empty() || a == b)
            return;
        std::ostringstream os;
        os << field << ": " << a << " != " << b;
        first_ = os.str();
    }

    void
    histogram(const char *field, const Histogram &a, const Histogram &b)
    {
        check(field, a.buckets(), b.buckets());
        check(field, a.overflow(), b.overflow());
        check(field, a.underflow(), b.underflow());
        check(field, a.summary().count(), b.summary().count());
        check(field, a.summary().sum(), b.summary().sum());
        for (unsigned i = 0; i < a.buckets() && i < b.buckets(); ++i)
            check(field, a.bucketCount(i), b.bucketCount(i));
    }

    void
    controller(const ControllerStats &a, const ControllerStats &b)
    {
        check("ctrl.readsAccepted", a.readsAccepted, b.readsAccepted);
        check("ctrl.writesAccepted", a.writesAccepted, b.writesAccepted);
        check("ctrl.readsMerged", a.readsMerged, b.readsMerged);
        check("ctrl.readsForwarded", a.readsForwarded, b.readsForwarded);
        check("ctrl.writesCoalesced", a.writesCoalesced,
              b.writesCoalesced);
        check("ctrl.readsCompleted", a.readsCompleted, b.readsCompleted);
        check("ctrl.readLatencySum", a.readLatencySum, b.readLatencySum);
        check("ctrl.rowHitReads", a.rowHitReads, b.rowHitReads);
        check("ctrl.rowHitWrites", a.rowHitWrites, b.rowHitWrites);
        histogram("ctrl.readLatencyHist", a.readLatencyHist,
                  b.readLatencyHist);
        check("ctrl.idleCycles", a.idleCycles, b.idleCycles);
        check("ctrl.tickCycles", a.tickCycles, b.tickCycles);
        check("ctrl.readQOccupancySum", a.readQOccupancySum,
              b.readQOccupancySum);
        check("ctrl.writeQOccupancySum", a.writeQOccupancySum,
              b.writeQOccupancySum);
    }

    void
    device(const DeviceCounters &a, const DeviceCounters &b)
    {
        check("dev.acts", a.acts, b.acts);
        check("dev.pres", a.pres, b.pres);
        check("dev.reads", a.reads, b.reads);
        check("dev.writes", a.writes, b.writes);
        check("dev.autoPres", a.autoPres, b.autoPres);
        check("dev.refreshes", a.refreshes, b.refreshes);
        check("dev.marginViolations", a.marginViolations,
              b.marginViolations);
        for (std::size_t i = 0; i < 16; ++i)
            check("dev.actsByTrcdReduction", a.actsByTrcdReduction[i],
                  b.actsByTrcdReduction[i]);
    }

    const std::string &result() const { return first_; }

  private:
    std::string first_;
};

} // namespace

void
mergeControllerStats(ControllerStats &into, const ControllerStats &from)
{
    into.readsAccepted += from.readsAccepted;
    into.writesAccepted += from.writesAccepted;
    into.readsMerged += from.readsMerged;
    into.readsForwarded += from.readsForwarded;
    into.writesCoalesced += from.writesCoalesced;
    into.readsCompleted += from.readsCompleted;
    into.readLatencySum += from.readLatencySum;
    into.rowHitReads += from.rowHitReads;
    into.rowHitWrites += from.rowHitWrites;
    into.idleCycles += from.idleCycles;
    into.tickCycles += from.tickCycles;
    into.readLatencyHist.merge(from.readLatencyHist);
    into.readQOccupancySum += from.readQOccupancySum;
    into.writeQOccupancySum += from.writeQOccupancySum;
}

void
mergeDeviceCounters(DeviceCounters &into, const DeviceCounters &from)
{
    into.acts += from.acts;
    into.pres += from.pres;
    into.reads += from.reads;
    into.writes += from.writes;
    into.autoPres += from.autoPres;
    into.refreshes += from.refreshes;
    into.marginViolations += from.marginViolations;
    for (std::size_t i = 0; i < 16; ++i)
        into.actsByTrcdReduction[i] += from.actsByTrcdReduction[i];
}

std::string
diffRunResults(const RunResult &a, const RunResult &b)
{
    Differ d;
    d.check("memCycles", a.memCycles, b.memCycles);
    d.check("idleCyclesSkipped", a.idleCyclesSkipped, b.idleCyclesSkipped);
    d.check("hitCycleCap", a.hitCycleCap, b.hitCycleCap);
    d.controller(a.ctrl, b.ctrl);
    d.device(a.dev, b.dev);
    d.check("cores", a.coreFinish.size(), b.coreFinish.size());
    for (std::size_t i = 0;
         i < a.coreFinish.size() && i < b.coreFinish.size(); ++i) {
        d.check("coreFinish", a.coreFinish[i], b.coreFinish[i]);
        d.check("coreInstrs", a.coreInstrs[i], b.coreInstrs[i]);
    }
    for (std::size_t i = 0; i < a.actsPerPb.size(); ++i)
        d.check("actsPerPb", a.actsPerPb[i], b.actsPerPb[i]);
    d.check("ppmOpen", a.ppmOpen, b.ppmOpen);
    d.check("ppmClose", a.ppmClose, b.ppmClose);
    return d.result();
}

std::string
diffServeResults(const ServeResult &a, const ServeResult &b)
{
    Differ d;
    d.check("requestsProduced", a.requestsProduced, b.requestsProduced);
    d.check("requestsIngested", a.requestsIngested, b.requestsIngested);
    d.check("readsRetired", a.readsRetired, b.readsRetired);
    d.check("writesRetired", a.writesRetired, b.writesRetired);
    d.check("shedTotal", a.shedTotal(), b.shedTotal());
    d.check("backpressureYields", a.backpressureYields,
            b.backpressureYields);
    d.check("maxShardCycles", a.maxShardCycles, b.maxShardCycles);
    d.check("totalShardCycles", a.totalShardCycles, b.totalShardCycles);
    d.check("shardRetired", a.shardRetired.size(), b.shardRetired.size());
    for (std::size_t i = 0;
         i < a.shardRetired.size() && i < b.shardRetired.size(); ++i)
        d.check("shardRetired", a.shardRetired[i], b.shardRetired[i]);
    for (unsigned k = 0; k < kServeClasses; ++k) {
        d.check("class.produced", a.classes[k].produced,
                b.classes[k].produced);
        d.check("class.retired", a.classes[k].retired,
                b.classes[k].retired);
        d.histogram("class.readLatency", a.classes[k].readLatency,
                    b.classes[k].readLatency);
    }
    d.check("avgReadLatency", a.avgReadLatency, b.avgReadLatency);
    d.check("hitCycleCap", a.hitCycleCap, b.hitCycleCap);
    d.check("failed", a.failed, b.failed);
    return d.result();
}

TracedSystemRun
runTracedSystem(const ExperimentConfig &in, Ledger &ledger,
                SchedCounts &sched, std::uint32_t cell)
{
    ExperimentConfig cfg = in;
    cfg.validate();
    nuat_assert(!cfg.faultsEnabled() && !cfg.metricsEnabled() &&
                    cfg.dumpTracePath.empty() &&
                    cfg.customProfiles.empty(),
                "(the traced mirror covers plain System runs only)");

    // Construction order follows System's constructor.
    const TimingDerate derate = makeDerate(cfg, cfg.memClock());
    const unsigned channels = cfg.geometry.channels;
    DramGeometry chan_geom = cfg.geometry;
    chan_geom.channels = 1;
    ControllerConfig ctrl_cfg = cfg.controller;
    ctrl_cfg.channels = channels;

    std::vector<std::unique_ptr<DramDevice>> devices;
    std::vector<std::unique_ptr<ProtocolAuditor>> auditors;
    std::vector<std::unique_ptr<TimedObserver>> observers;
    std::vector<std::unique_ptr<MemoryController>> controllers;
    std::vector<MemoryController *> ports;
    for (unsigned ch = 0; ch < channels; ++ch) {
        devices.push_back(std::make_unique<DramDevice>(
            chan_geom, cfg.timing, derate, cfg.memClock()));
        controllers.push_back(std::make_unique<MemoryController>(
            *devices.back(),
            std::make_unique<TimedScheduler>(makeSchedulerFor(cfg, derate),
                                             ledger, sched),
            ctrl_cfg));
        ports.push_back(controllers.back().get());
    }
    ChannelMux mux(AddressMapping(cfg.controller.mapping, cfg.geometry),
                   ports);
    TimedPort port(mux, ledger);
    for (unsigned ch = 0; ch < channels; ++ch) {
        auditors.push_back(std::make_unique<ProtocolAuditor>(
            auditorConfig(chan_geom, cfg, derate, cfg.memClock())));
        observers.push_back(
            std::make_unique<TimedObserver>(*auditors.back(), ledger));
        devices[ch]->addObserver(observers.back().get());
    }

    const unsigned cores = cfg.cores();
    const std::uint32_t stride = cfg.geometry.rows / cores;
    std::vector<std::unique_ptr<SyntheticTrace>> traces;
    std::vector<std::unique_ptr<TimedTrace>> timed_traces;
    std::vector<std::unique_ptr<CoreModel>> core_models;
    for (unsigned i = 0; i < cores; ++i) {
        WorkloadProfile profile = WorkloadProfile::byName(cfg.workloads[i]);
        profile.avgGap *= cfg.gapScale;
        profile.interBurstGap *= cfg.gapScale;
        traces.push_back(std::make_unique<SyntheticTrace>(
            profile, cfg.geometry, cfg.seed + i * 7919, cfg.memOpsPerCore,
            (i * stride) % cfg.geometry.rows));
        timed_traces.push_back(
            std::make_unique<TimedTrace>(*traces.back(), ledger));
        core_models.push_back(std::make_unique<CoreModel>(
            static_cast<int>(i), *timed_traces.back(), port, cfg.rob,
            cfg.cpuPerMem));
    }
    for (auto &mc : controllers) {
        mc->setReadCallback([&](const Waiter &w, Addr, Cycle data_at) {
            Span s(ledger, SpanKind::kCpuComplete);
            core_models[static_cast<std::size_t>(w.coreId)]->onReadComplete(
                w.token, static_cast<CpuCycle>(data_at) * cfg.cpuPerMem);
        });
    }

    auto done = [&] {
        for (const auto &core : core_models)
            if (!core->done())
                return false;
        for (const auto &mc : controllers)
            if (!mc->idle())
                return false;
        return true;
    };

    // System::fastForwardIdle, verbatim.
    Cycle now = 0;
    Cycle skipped_total = 0;
    auto fast_forward_idle = [&] {
        for (const auto &mc : controllers)
            if (mc->readQueueLen() != 0 || mc->writeQueueLen() != 0)
                return;
        Cycle target = cfg.maxMemCycles;
        for (const auto &mc : controllers)
            target = std::min(target, mc->nextCompletionAt());
        for (const auto &dev : devices)
            for (unsigned r = 0; r < dev->geometry().ranks; ++r)
                target = std::min(target, dev->nextRefreshDueAt(RankId{r}));
        const CpuCycle cpu_now = static_cast<CpuCycle>(now) * cfg.cpuPerMem;
        for (const auto &core : core_models) {
            const CpuCycle busy = core->nextBusyAt(cpu_now);
            if (busy != kNeverCycle)
                target = std::min(target,
                                  static_cast<Cycle>(busy / cfg.cpuPerMem));
        }
        if (target <= now)
            return;
        const Cycle skipped = target - now;
        for (auto &mc : controllers)
            mc->skipIdle(now, skipped);
        for (auto &core : core_models)
            core->skipStalled(static_cast<CpuCycle>(skipped) *
                              cfg.cpuPerMem);
        skipped_total += skipped;
        now = target;
    };

    TracedSystemRun out;
    ledger.arm(cell);
    {
        Span loop(ledger, SpanKind::kLoop);
        while (!done() && now < cfg.maxMemCycles) {
            ledger.setCycle(now);
            if (cfg.idleFastForward) {
                Span ff(ledger, SpanKind::kFastForward);
                fast_forward_idle();
            }
            if (now >= cfg.maxMemCycles)
                continue;
            ledger.setCycle(now);
            for (auto &mc : controllers) {
                Span s(ledger, SpanKind::kMemTick);
                mc->tick(now);
            }
            {
                Span s(ledger, SpanKind::kCpuTick);
                const CpuCycle base =
                    static_cast<CpuCycle>(now) * cfg.cpuPerMem;
                for (unsigned k = 0; k < cfg.cpuPerMem; ++k)
                    for (auto &core : core_models)
                        core->tick(base + k);
            }
            ++now;
            ++out.steppedCycles;
        }
    }
    ledger.disarm();

    RunResult &r = out.result;
    r.schedulerName = schedulerKindName(cfg.scheduler);
    r.workloads = cfg.workloads;
    r.memCycles = now;
    r.hitCycleCap = !done();
    r.busMhz = cfg.busMhz;
    r.idleCyclesSkipped = skipped_total;
    AuditReport audit;
    for (unsigned ch = 0; ch < channels; ++ch) {
        mergeControllerStats(r.ctrl, controllers[ch]->stats());
        mergeDeviceCounters(r.dev, devices[ch]->counters());
        controllers[ch]->scheduler().reportExtra(r);
        audit.merge(auditors[ch]->report(), cfg.auditMaxMessages);
    }
    r.audited = true;
    r.auditCommandsChecked = audit.commandsChecked;
    r.auditViolations = audit.violations;
    r.auditMessages = audit.messages;
    for (const auto &core : core_models) {
        r.coreFinish.push_back(core->stats().finishedAt);
        r.coreInstrs.push_back(core->stats().instrsRetired);
        out.fetchStallCycles += core->stats().fetchStallCycles;
    }
    out.coreTicks = out.steppedCycles * cfg.cpuPerMem * cores;
    out.coreCycles = static_cast<std::uint64_t>(now) * cfg.cpuPerMem * cores;
    return out;
}

} // namespace nuat::perfbench
