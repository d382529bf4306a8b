#include "system.hh"

#include "common/logging.hh"
#include "trace/workload_profile.hh"

namespace nuat {

ChannelMux::ChannelMux(const AddressMapping &mapping,
                       std::vector<MemoryController *> channels)
    : mapping_(mapping), channels_(std::move(channels))
{
    nuat_assert(!channels_.empty());
}

MemoryController &
ChannelMux::route(Addr addr) const
{
    const unsigned ch = mapping_.decompose(addr).channel;
    nuat_assert(ch < channels_.size());
    return *channels_[ch];
}

bool
ChannelMux::canAcceptRead(Addr addr) const
{
    return route(addr).canAcceptRead(addr);
}

bool
ChannelMux::canAcceptWrite(Addr addr) const
{
    return route(addr).canAcceptWrite(addr);
}

void
ChannelMux::enqueueRead(Addr addr, const Waiter &waiter, Cycle now)
{
    route(addr).enqueueRead(addr, waiter, now);
}

void
ChannelMux::enqueueWrite(Addr addr, Cycle now)
{
    route(addr).enqueueWrite(addr, now);
}

System::System(const ExperimentConfig &cfg) : cfg_(cfg)
{
    cfg_.validate();

    const unsigned channels = cfg_.geometry.channels;
    channels_.reserve(channels);
    std::vector<MemoryController *> ports;
    for (unsigned ch = 0; ch < channels; ++ch) {
        channels_.push_back(makeChannelStack(cfg_, ch));
        ports.push_back(channels_.back().controller.get());
    }
    mux_ = std::make_unique<ChannelMux>(
        AddressMapping(cfg_.controller.mapping, cfg_.geometry), ports);

    // The trace writer tees every channel's command stream to disk; it
    // observes after the auditor and never perturbs the run.
    if (!cfg_.dumpTracePath.empty()) {
        traceWriter_ = std::make_unique<CommandTraceWriter>(
            cfg_.dumpTracePath, channels, channels_[0].device->geometry(),
            cfg_.timing, cfg_.charge, cfg_.memClock());
        for (unsigned ch = 0; ch < channels; ++ch)
            channels_[ch].device->addObserver(traceWriter_->channelTap(ch));
    }

    // Each core gets a disjoint base row so multi-core runs contend on
    // banks/bus but not on row footprints (USIMM's per-core offset).
    const unsigned cores = cfg_.cores();
    nuat_assert(cfg_.customProfiles.empty() ||
                    cfg_.customProfiles.size() == cores,
                "(customProfiles must match workloads per core)");
    const std::uint32_t stride = cfg_.geometry.rows / cores;
    for (unsigned i = 0; i < cores; ++i) {
        WorkloadProfile profile =
            cfg_.customProfiles.empty()
                ? WorkloadProfile::byName(cfg_.workloads[i])
                : cfg_.customProfiles[i];
        profile.avgGap *= cfg_.gapScale;
        profile.interBurstGap *= cfg_.gapScale;
        traces_.push_back(std::make_unique<SyntheticTrace>(
            profile, cfg_.geometry, cfg_.seed + i * 7919,
            cfg_.memOpsPerCore, (i * stride) % cfg_.geometry.rows));
        cores_.push_back(std::make_unique<CoreModel>(
            static_cast<int>(i), *traces_.back(), *mux_, cfg_.rob,
            cfg_.cpuPerMem));
    }

    for (ChannelStack &stack : channels_) {
        stack.controller->setReadCallback(
            [this](const Waiter &w, Addr, Cycle data_at) {
                nuat_assert(w.coreId >= 0 &&
                            static_cast<unsigned>(w.coreId) <
                                cores_.size());
                cores_[static_cast<std::size_t>(w.coreId)]
                    ->onReadComplete(
                    w.token,
                    static_cast<CpuCycle>(data_at) * cfg_.cpuPerMem);
            });
    }

    if (cfg_.metricsEnabled())
        setupMetrics();
}

void
System::setupMetrics()
{
    metrics_ = std::make_unique<MetricRegistry>();
    for (unsigned ch = 0; ch < channels(); ++ch)
        channels_[ch].controller->attachMetrics(*metrics_, ch);

    metrics_->gauge(
        "sys.bus_utilization",
        [this] {
            std::uint64_t xfers = 0;
            for (const ChannelStack &stack : channels_) {
                xfers += stack.device->counters().reads +
                         stack.device->counters().writes;
            }
            const double capacity = static_cast<double>(now_) *
                                    static_cast<double>(channels());
            return capacity > 0.0
                       ? static_cast<double>(xfers) *
                             static_cast<double>(cfg_.timing.tBL) /
                             capacity
                       : 0.0;
        },
        "data-bus busy fraction so far: (reads+writes)*tBL / "
        "(cycles*channels)");
    for (unsigned ch = 0; ch < channels(); ++ch) {
        const DramDevice *dev = channels_[ch].device.get();
        metrics_->gauge(
            "dram" + std::to_string(ch) + ".refresh_next_row",
            [dev] {
                return static_cast<double>(
                    dev->refresh(RankId{0}).nextRow().value());
            },
            "refresh pointer: next row the engine will refresh "
            "(rank 0)");
    }

    std::ostream *jsonl = nullptr;
    if (!cfg_.metricsOutPath.empty()) {
        metricsOut_ =
            std::make_unique<std::ofstream>(cfg_.metricsOutPath);
        if (!*metricsOut_) {
            nuat_fatal("cannot open metrics output '%s'",
                       cfg_.metricsOutPath.c_str());
        }
        jsonl = metricsOut_.get();
    }
    TraceEventSink *trace = nullptr;
    if (!cfg_.traceEventsPath.empty()) {
        traceOut_ =
            std::make_unique<std::ofstream>(cfg_.traceEventsPath);
        if (!*traceOut_) {
            nuat_fatal("cannot open trace-events output '%s'",
                       cfg_.traceEventsPath.c_str());
        }
        traceSink_ = std::make_unique<TraceEventSink>(*traceOut_);
        trace = traceSink_.get();
    }
    sampler_ = std::make_unique<IntervalSampler>(
        *metrics_, cfg_.metricsInterval, jsonl, trace);
}

const ChannelStack &
System::channel(unsigned channel) const
{
    nuat_assert(channel < channels_.size());
    return channels_[channel];
}

void
System::stepMemCycle()
{
    confined_.assertOwned("System");
    for (ChannelStack &stack : channels_)
        stack.controller->tick(now_);
    const CpuCycle base = static_cast<CpuCycle>(now_) * cfg_.cpuPerMem;
    for (unsigned k = 0; k < cfg_.cpuPerMem; ++k) {
        for (auto &core : cores_)
            core->tick(base + k);
    }
    ++now_;
}

void
System::fastForwardIdle()
{
    // A queued request could become issuable any cycle; only a system
    // with completely empty queues is predictable enough to skip.
    for (const ChannelStack &stack : channels_) {
        const MemoryController &mc = *stack.controller;
        if (mc.readQueueLen() != 0 || mc.writeQueueLen() != 0)
            return;
    }

    // Earliest cycle anything can happen: an in-flight read completes,
    // a refresh deadline arrives, or a core can retire / fetch / issue.
    Cycle target = cfg_.maxMemCycles;
    for (const ChannelStack &stack : channels_) {
        const Cycle c = stack.controller->nextCompletionAt();
        if (c < target)
            target = c;
        const DramDevice &dev = *stack.device;
        for (unsigned r = 0; r < dev.geometry().ranks; ++r) {
            const Cycle due = dev.nextRefreshDueAt(RankId{r});
            if (due < target)
                target = due;
        }
    }
    const CpuCycle cpu_now = static_cast<CpuCycle>(now_) * cfg_.cpuPerMem;
    for (const auto &core : cores_) {
        const CpuCycle busy = core->nextBusyAt(cpu_now);
        if (busy == kNeverCycle)
            continue;
        const Cycle busy_mem = static_cast<Cycle>(busy / cfg_.cpuPerMem);
        if (busy_mem < target)
            target = busy_mem;
    }
    if (target <= now_)
        return;

    const Cycle skipped = target - now_;
    for (ChannelStack &stack : channels_)
        stack.controller->skipIdle(now_, skipped);
    for (auto &core : cores_)
        core->skipStalled(static_cast<CpuCycle>(skipped) *
                          cfg_.cpuPerMem);
    idleCyclesSkipped_ += skipped;
    now_ = target;
}

void
System::advance()
{
    confined_.assertOwned("System");
    if (cfg_.idleFastForward)
        fastForwardIdle();
    if (now_ < cfg_.maxMemCycles)
        stepMemCycle();
}

bool
System::done() const
{
    for (const auto &core : cores_) {
        if (!core->done())
            return false;
    }
    for (const ChannelStack &stack : channels_) {
        if (!stack.controller->idle())
            return false;
    }
    return true;
}

RunResult
System::run()
{
    while (!done() && now_ < cfg_.maxMemCycles) {
        advance();
        if (sampler_)
            sampler_->advanceTo(now_);
    }
    if (sampler_) {
        sampler_->finish(now_);
        if (traceSink_)
            traceSink_->finish();
    }

    RunResult result;
    result.schedulerName = schedulerKindName(cfg_.scheduler);
    result.workloads = cfg_.workloads;
    result.memCycles = now_;
    result.hitCycleCap = !done();
    result.busMhz = cfg_.busMhz;
    result.idleCyclesSkipped = idleCyclesSkipped_;

    ChannelTotals totals;
    for (const ChannelStack &stack : channels_) {
        totals.add(stack, cfg_.auditMaxMessages);
        stack.controller->scheduler().reportExtra(result);
    }
    result.ctrl = std::move(totals.ctrl);
    result.dev = totals.dev;
    {
        const double cols =
            static_cast<double>(result.dev.reads + result.dev.writes);
        const double hits = cols - static_cast<double>(result.dev.acts);
        result.hitRateEq3 =
            cols > 0.0 && hits > 0.0 ? hits / cols : 0.0;
    }
    {
        const DramPowerModel power(cfg_.timing, cfg_.memClock());
        result.energy = power.estimate(result.dev, now_);
    }
    for (const auto &core : cores_) {
        result.coreFinish.push_back(core->stats().finishedAt);
        result.coreInstrs.push_back(core->stats().instrsRetired);
    }
    if (totals.audited) {
        result.audited = true;
        result.auditCommandsChecked = totals.audit.commandsChecked;
        result.auditViolations = totals.audit.violations;
        result.auditMessages = std::move(totals.audit.messages);
    }
    if (sampler_) {
        result.metricsEnabled = true;
        result.metricsSamples = sampler_->samples();
        result.metricsIntervalCycles = sampler_->interval();
    }
    if (cfg_.faultsEnabled()) {
        result.faultsEnabled = true;
        result.faultProfileName = channels_[0].faults->profile().name;
        for (const ChannelStack &stack : channels_) {
            const FaultStats &fs = stack.faults->stats();
            result.faultWeakRows += fs.weakRows;
            result.faultVrtRows += fs.vrtRows;
            result.faultRefsDropped += fs.refsDropped;
            result.faultRefsDelayed += fs.refsDelayed;
        }
    }
    if (traceWriter_ && !traceWriter_->finish()) {
        nuat_warn("command-trace write to '%s' failed",
                  cfg_.dumpTracePath.c_str());
    }
    if (result.hitCycleCap) {
        nuat_warn("run hit the %llu-cycle cap before draining",
                  static_cast<unsigned long long>(cfg_.maxMemCycles));
    }
    return result;
}

} // namespace nuat
