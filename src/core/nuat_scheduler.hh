/**
 * @file
 * The NUAT scheduler (paper Sec. 4): PBR acquisition + PPM decision
 * maker + NUAT Table, packaged as a Scheduler the MemoryController can
 * drive.
 *
 * Each cycle it scores every issuable candidate with the NUAT Table and
 * issues the highest-scoring one (ties break by age).  Chosen ACTs are
 * decorated with the PB's rated (charge-derated) tRCD/tRAS/tRC; chosen
 * column commands are converted to auto-precharge when PPM selects
 * close-page mode for the open row's PB.
 */

#ifndef NUAT_CORE_NUAT_SCHEDULER_HH
#define NUAT_CORE_NUAT_SCHEDULER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "guardband.hh"
#include "mem/scheduler.hh"
#include "nuat_config.hh"
#include "nuat_table.hh"
#include "pbr.hh"
#include "phrc.hh"
#include "ppm.hh"

namespace nuat {

/** The charge-aware scoring scheduler. */
class NuatScheduler : public Scheduler
{
  public:
    explicit NuatScheduler(const NuatConfig &cfg);

    // Pinned in place: attached metric views hold its address.
    NuatScheduler(const NuatScheduler &) = delete;
    NuatScheduler &operator=(const NuatScheduler &) = delete;

    int pick(std::vector<Candidate> &candidates,
             const SchedContext &ctx) override;

    /**
     * Export per-PB ACT/column counts and hit rates, PPM decisions,
     * PHRC window state, the pick and starvation-escape counts, the
     * guardband ladder, and cumulative per-element score contributions
     * under @p prefix.  All but the score sums are views of the
     * scheduler's own counters.
     */
    void attachMetrics(MetricRegistry &registry,
                       const std::string &prefix) override;

    void onIssue(const Command &cmd, const SchedContext &ctx) override;

    void tick(const SchedContext &ctx) override;

    void fastForward(Cycle cycles, const SchedContext &ctx) override;

    void reportExtra(RunResult &result) const override;

    const char *name() const override { return "NUAT"; }

    /** The configuration in use. */
    const NuatConfig &config() const { return cfg_; }

    /** PHRC state (exposed for tests / examples). */
    const Phrc &phrc() const { return phrc_; }

    /** Current drain state. */
    bool draining() const { return drain_.draining(); }

    /** ACTs issued per PB# (for the paper's Sec. 9.1 analysis). */
    const std::array<std::uint64_t, 8> &actsPerPb() const
    {
        return actsPerPb_;
    }

    /** Column commands issued in close-page (auto-precharge) mode. */
    std::uint64_t ppmCloseDecisions() const { return ppmClose_; }

    /** Column commands issued in open-page mode. */
    std::uint64_t ppmOpenDecisions() const { return ppmOpen_; }

    /** The degradation ladder, or nullptr while disabled (or before
     *  the first pick initializes the scheduler). */
    const GuardbandManager *guardband() const { return guardband_.get(); }

  private:
    /** Lazily build PBR / PPM once the device geometry is known. */
    void ensureInit(const SchedContext &ctx);

    NuatConfig cfg_;
    NuatTable table_;
    Phrc phrc_;
    WriteDrainState drain_;
    std::unique_ptr<PbrAcquisition> pbr_;
    std::unique_ptr<PpmDecisionMaker> ppm_;
    std::unique_ptr<GuardbandManager> guardband_;

    /** Flat candidate batch + per-slot arrivals for the argmax
     *  tie-break, reused across picks so the hot path never
     *  allocates at steady state. */
    ScoreBatch batch_;
    std::vector<Cycle> arrivalScratch_;

    std::array<std::uint64_t, 8> actsPerPb_{};
    std::array<std::uint64_t, 8> colsPerPb_{}; //!< column cmds by PB#
    std::uint64_t ppmClose_ = 0;
    std::uint64_t ppmOpen_ = 0;
    std::uint64_t picks_ = 0;
    std::uint64_t starvationEscapes_ = 0;

    /**
     * Cumulative weighted es1..es5 of every chosen candidate: the
     * scheduler's only push-side metric (no aggregate holds it),
     * summed only while a registry is attached.
     */
    bool metricsAttached_ = false;
    std::array<double, 5> scoreEs_{};
};

} // namespace nuat

#endif // NUAT_CORE_NUAT_SCHEDULER_HH
