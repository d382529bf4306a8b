#include "nuat_scheduler.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "sim/experiment_config.hh"

namespace nuat {

NuatScheduler::NuatScheduler(const NuatConfig &cfg)
    : cfg_(cfg), table_(cfg), phrc_(cfg.subWindow, cfg.windowRatio)
{
    cfg_.validate();
}

void
NuatScheduler::attachMetrics(MetricRegistry &registry,
                             const std::string &prefix)
{
    nuat_assert(!metricsAttached_, "(attachMetrics called twice)");
    metricsAttached_ = true;
    for (unsigned pb = 0; pb < cfg_.numPb(); ++pb) {
        const std::string k = std::to_string(pb);
        registry.counter(prefix + "act_pb" + k,
                         [this, pb] { return actsPerPb_[pb]; },
                         "ACTs issued to PB" + k);
        registry.counter(prefix + "col_pb" + k,
                         [this, pb] { return colsPerPb_[pb]; },
                         "column accesses to open rows in PB" + k);
        registry.gauge(
            prefix + "hit_rate_pb" + k,
            [this, pb] {
                const double cols = static_cast<double>(colsPerPb_[pb]);
                const double acts = static_cast<double>(actsPerPb_[pb]);
                return cols > 0.0 && cols > acts ? (cols - acts) / cols
                                                 : 0.0;
            },
            "eq. (3) hit rate of PB" + k + " so far");
    }
    for (unsigned e = 0; e < scoreEs_.size(); ++e) {
        registry.gauge(prefix + "score_es" + std::to_string(e + 1),
                       [this, e] { return scoreEs_[e]; },
                       "cumulative weighted Element " +
                           std::to_string(e + 1) +
                           " contribution of chosen candidates");
    }
    registry.counter(prefix + "ppm_open", [this] { return ppmOpen_; },
                     "column commands kept open-page");
    registry.counter(prefix + "ppm_close", [this] { return ppmClose_; },
                     "column commands auto-precharged by PPM");
    registry.counter(prefix + "starvation_escapes",
                     [this] { return starvationEscapes_; },
                     "picks decided by the starvation escape boost");
    registry.counter(prefix + "picks", [this] { return picks_; },
                     "scheduler picks issued");
    registry.gauge(prefix + "phrc_hit_rate",
                   [this] { return phrc_.hitRate(); },
                   "PHRC pseudo hit-rate estimate, eq. (3)");
    registry.gauge(prefix + "phrc_window_cols",
                   [this] { return phrc_.windowColumnAccesses(); },
                   "PHRC estimated column accesses in the current window");
    registry.gauge(prefix + "phrc_window_acts",
                   [this] { return phrc_.windowActivations(); },
                   "PHRC estimated activations in the current window");
    registry.gauge(
        prefix + "phrc_rollovers",
        [this] { return static_cast<double>(phrc_.rollovers()); },
        "PHRC sub-window boundaries so far");
    if (!cfg_.guardband.enabled)
        return;

    // Guardband ladder series.  The manager is built on the first
    // tick, so each view reads 0 until then.
    auto guard = [&](const char *name, const char *help, auto read) {
        registry.gauge(
            prefix + name,
            [this, read] {
                return guardband_ ? static_cast<double>(read(*guardband_))
                                  : 0.0;
            },
            help);
    };
    using G = const GuardbandManager &;
    guard("guard_quarantined_rows",
          "rows currently quarantined to the slowest PB",
          [](G g) { return g.quarantinedCount(); });
    guard("guard_quarantines", "rows ever entered into quarantine",
          [](G g) { return g.stats().quarantines; });
    guard("guard_releases",
          "quarantined rows re-promoted after clean probes",
          [](G g) { return g.stats().releases; });
    guard("guard_probe_violations",
          "margin probes showing an under-margin activation",
          [](G g) { return g.stats().probeViolations; });
    guard("guard_probe_warnings",
          "margin probes within the guard slack of the requirement",
          [](G g) { return g.stats().probeWarnings; });
    guard("guard_ladder_steps",
          "degradation transitions (widen + ease + conservative)",
          [](G g) {
              const GuardbandStats &gs = g.stats();
              return gs.widenSteps + gs.easeSteps + gs.conservativeEntries;
          });
    guard("guard_conservative",
          "1 while the channel is in conservative fallback",
          [](G g) { return g.conservative(); });
}

void
NuatScheduler::ensureInit(const SchedContext &ctx)
{
    if (pbr_)
        return;
    nuat_assert(ctx.dev != nullptr);
    pbr_ = std::make_unique<PbrAcquisition>(cfg_,
                                            ctx.dev->geometry().rows);
    ppm_ = std::make_unique<PpmDecisionMaker>(cfg_,
                                              ctx.dev->timing().tRP);
    if (cfg_.guardband.enabled) {
        guardband_ = std::make_unique<GuardbandManager>(
            cfg_.guardband, ctx.dev->geometry().ranks,
            ctx.dev->geometry().banks, ctx.dev->geometry().rows,
            PbIdx{cfg_.numPb() - 1});
    }
}

void
NuatScheduler::tick(const SchedContext &ctx)
{
    ensureInit(ctx);
    drain_.update(ctx);
    phrc_.tick();
    if (guardband_)
        guardband_->maybeEase(ctx.now);
}

void
NuatScheduler::fastForward(Cycle cycles, const SchedContext &ctx)
{
    // Equivalent to `cycles` tick() calls with empty queues: the drain
    // state update is idempotent for a fixed queue length, and PHRC
    // advances its window clock in bulk.
    ensureInit(ctx);
    drain_.update(ctx);
    phrc_.tickN(cycles);
}

void
NuatScheduler::reportExtra(RunResult &result) const
{
    for (std::size_t i = 0; i < result.actsPerPb.size(); ++i)
        result.actsPerPb[i] += actsPerPb_[i];
    result.ppmOpen += ppmOpen_;
    result.ppmClose += ppmClose_;
    if (guardband_) {
        const GuardbandStats &gs = guardband_->stats();
        result.degradeEnabled = true;
        result.guardProbeViolations += gs.probeViolations;
        result.guardProbeWarnings += gs.probeWarnings;
        result.guardQuarantines += gs.quarantines;
        result.guardReleases += gs.releases;
        result.guardWidenSteps += gs.widenSteps;
        result.guardEaseSteps += gs.easeSteps;
        result.guardConservativeEntries += gs.conservativeEntries;
        result.guardMaxQuarantined += gs.maxQuarantined;
        result.guardQuarantinedAtEnd += guardband_->quarantinedCount();
    }
}

void
NuatScheduler::onIssue(const Command &cmd, const SchedContext &ctx)
{
    ensureInit(ctx);
    if (cmd.type == CmdType::kAct) {
        phrc_.onActivation();
        // Post-activation margin probe: what a real controller would
        // learn from ECC/parity feedback about the activation it just
        // ran.  Only meaningful when a fault world is attached.
        if (guardband_ && ctx.dev->faultModel() != nullptr) {
            const auto &refresh = ctx.dev->refreshFor(cmd.rank, cmd.bank);
            const PbIdx natural = pbr_->pbOfRow(refresh, cmd.row);
            guardband_->onActProbe(
                cmd.rank, cmd.bank, cmd.row, cmd.actTiming,
                ctx.dev->faultedRowTiming(cmd.rank, cmd.bank, cmd.row,
                                          ctx.now),
                pbr_->ratedTiming(natural), ctx.now);
        }
    } else if (isColumnCmd(cmd.type)) {
        phrc_.onColumnAccess();
    }
}

int
NuatScheduler::pick(std::vector<Candidate> &candidates,
                    const SchedContext &ctx)
{
    if (candidates.empty())
        return -1;
    ensureInit(ctx);
    drain_.update(ctx);

    // One pass: score each candidate, lift an over-age request above
    // every table score (starvation escape, see
    // NuatConfig::starvationLimit), and keep the argmax; equal scores
    // (two starving requests included) break oldest arrival first.
    const double boost =
        10.0 * (table_.weights().w1 + 2.0 * table_.weights().w3);
    const Cycle starve_limit = cfg_.starvationLimit;
    const bool draining = drain_.draining();
    int best = -1;
    double best_score = 0.0;
    Cycle best_arrival = kNeverCycle;
    ScoreInputs best_in;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const Candidate &c = candidates[i];

        ScoreInputs in;
        in.cmd = c.cmd.type;
        in.isWrite = c.isWrite;
        in.isRowHit = c.isRowHit;
        in.waitCycles = c.req ? ctx.now - c.req->arrivalAt : Cycle{0};
        in.draining = draining;
        in.numPb = cfg_.numPb();
        if (c.cmd.type == CmdType::kAct) {
            const auto &refresh = ctx.dev->refreshFor(c.cmd.rank, c.cmd.bank);
            in.pb = pbr_->pbOfRow(refresh, c.cmd.row);
            in.zone = pbr_->zoneOfRow(refresh, c.cmd.row);
        }

        double s = table_.score(in);
        if (starve_limit > 0 && in.waitCycles > starve_limit)
            s += boost;
        const Cycle arrival = c.req ? c.req->arrivalAt : kNeverCycle;
        if (best < 0 || s > best_score ||
            (s == best_score && arrival < best_arrival)) {
            best = static_cast<int>(i);
            best_score = s;
            best_arrival = arrival;
            best_in = in;
        }
    }

    Candidate &chosen = candidates[static_cast<std::size_t>(best)];
    ++picks_;
    if (starve_limit > 0 && best_in.waitCycles > starve_limit)
        ++starvationEscapes_;
    if (metricsAttached_) {
        scoreEs_[0] += table_.es1(best_in);
        scoreEs_[1] += table_.es2(best_in);
        scoreEs_[2] += table_.es3(best_in);
        scoreEs_[3] += table_.es4(best_in);
        scoreEs_[4] += table_.es5(best_in);
    }
    if (chosen.cmd.type == CmdType::kAct) {
        // Run the activation at the PB's rated (charge-safe) timing —
        // degraded by the guardband ladder when fault evidence has
        // accumulated (quarantined row / widened bank / conservative).
        PbIdx issue_pb = best_in.pb;
        if (guardband_) {
            issue_pb = guardband_->clampPb(chosen.cmd.rank,
                                           chosen.cmd.bank,
                                           chosen.cmd.row, best_in.pb,
                                           ctx.now);
        }
        chosen.cmd.actTiming = pbr_->ratedTiming(issue_pb);
        const std::size_t bp = issue_pb.value();
        ++actsPerPb_[bp < actsPerPb_.size() ? bp
                                            : actsPerPb_.size() - 1];
    } else if (isColumnCmd(chosen.cmd.type)) {
        const auto &refresh =
            ctx.dev->refreshFor(chosen.cmd.rank, chosen.cmd.bank);
        const RowId open_row =
            ctx.dev->bank(chosen.cmd.rank, chosen.cmd.bank).openRow();
        const PbIdx pb = pbr_->pbOfRow(refresh, open_row);
        const std::size_t cp = pb.value();
        ++colsPerPb_[cp < colsPerPb_.size() ? cp : colsPerPb_.size() - 1];
        if (cfg_.ppmEnabled) {
            // PPM: per-PB page-mode selection against the PHRC
            // estimate.
            PagePolicy mode = ppm_->modeFor(pb, phrc_.hitRate());
            // Under DARP/SARP a due refresh may be parked behind this
            // bank's queued demand; eagerly closing the row lets the
            // deferred REFsb slot in the moment the bank drains
            // (DSARP's close-on-pending-refresh hint).
            if (ctx.refreshPolicy != RefreshPolicy::kInOrder &&
                mode == PagePolicy::kOpen && refresh.due(ctx.now)) {
                mode = PagePolicy::kClose;
            }
            applyPagePolicy(chosen, mode, cfg_.graceClose);
            if (mode == PagePolicy::kClose)
                ++ppmClose_;
            else
                ++ppmOpen_;
        }
    }
    return best;
}

} // namespace nuat
