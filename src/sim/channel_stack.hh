/**
 * @file
 * One memory channel's components, and the one function that builds
 * them.  NUAT is a per-channel policy: every channel owns its derate
 * model, DRAM device, controller and scheduler (PB table, PHRC, PPM),
 * plus an optional fault world and shadow auditor.  System builds one
 * stack per channel, the serve runtime one per shard, so both run
 * every component at the experiment's memory clock.
 */

#ifndef NUAT_SIM_CHANNEL_STACK_HH
#define NUAT_SIM_CHANNEL_STACK_HH

#include <cstddef>
#include <memory>

#include "charge/timing_derate.hh"
#include "dram/dram_device.hh"
#include "experiment_config.hh"
#include "fault/fault_model.hh"
#include "mem/memory_controller.hh"
#include "verify/protocol_auditor.hh"

namespace nuat {

/**
 * Build the scheduler @p cfg requests, using @p derate as the charge
 * model behind NUAT's PB table.  Schedulers hold per-channel state and
 * are never shared between channels.
 */
std::unique_ptr<Scheduler>
makeSchedulerFor(const ExperimentConfig &cfg,
                 const TimingDerate &derate);

/**
 * One channel's components.  Pointees never move, so the pointers the
 * parts hold into each other survive moving the stack; each part
 * outlives the later-declared parts that point into it.
 */
struct ChannelStack
{
    std::unique_ptr<TimingDerate> derate;
    std::unique_ptr<FaultModel> faults; //!< null unless faults are on
    std::unique_ptr<DramDevice> device;
    std::unique_ptr<MemoryController> controller;
    std::unique_ptr<ProtocolAuditor> auditor; //!< null unless cfg.audit
};

/**
 * Build channel @p channel of the machine @p cfg describes: derate,
 * device and auditor at cfg.memClock(), the channel-salted fault world
 * when faults are on, a controller driven by makeSchedulerFor().
 */
ChannelStack makeChannelStack(const ExperimentConfig &cfg,
                              unsigned channel);

/** Per-channel statistics summed in channel order. */
struct ChannelTotals
{
    ControllerStats ctrl;
    DeviceCounters dev;
    bool audited = false;
    AuditReport audit;

    /** Add @p stack's statistics; keep at most @p max_messages audit
     *  messages. */
    void add(const ChannelStack &stack, std::size_t max_messages);
};

} // namespace nuat

#endif // NUAT_SIM_CHANNEL_STACK_HH
