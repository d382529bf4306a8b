/**
 * @file
 * Google-benchmark microbenchmarks of the hot paths: PBR lookup, NUAT
 * Table scoring, device legality checks, synthetic trace generation,
 * and a full simulated memory cycle.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "charge/timing_derate.hh"
#include "core/nuat_scheduler.hh"
#include "core/nuat_table.hh"
#include "core/pbr.hh"
#include "mem/memory_controller.hh"
#include "sched/frfcfs_scheduler.hh"
#include "sim/system.hh"
#include "trace/synthetic_trace.hh"
#include "trace/workload_profile.hh"

namespace nuat {
namespace {

struct ChargeFixture
{
    ChargeFixture() : cell(), sa(cell), derate(sa) {}

    CellModel cell;
    SenseAmpModel sa;
    TimingDerate derate;
};

void
BM_PbrLookup(benchmark::State &state)
{
    ChargeFixture f;
    const NuatConfig cfg = NuatConfig::fromDerate(f.derate, 5);
    PbrAcquisition pbr(cfg, 8192);
    const TimingParams tp;
    RefreshEngine refresh(8192, tp);
    std::uint32_t row = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pbr.pbOfRow(refresh, RowId{row}));
        row = (row + 977) & 8191;
    }
}
BENCHMARK(BM_PbrLookup);

void
BM_ZoneLookup(benchmark::State &state)
{
    ChargeFixture f;
    const NuatConfig cfg = NuatConfig::fromDerate(f.derate, 5);
    PbrAcquisition pbr(cfg, 8192);
    const TimingParams tp;
    RefreshEngine refresh(8192, tp);
    std::uint32_t row = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pbr.zoneOfRow(refresh, RowId{row}));
        row = (row + 977) & 8191;
    }
}
BENCHMARK(BM_ZoneLookup);

void
BM_TableScore(benchmark::State &state)
{
    ChargeFixture f;
    const NuatConfig cfg = NuatConfig::fromDerate(f.derate, 5);
    const NuatTable table(cfg);
    ScoreInputs in;
    in.cmd = CmdType::kAct;
    in.numPb = 5;
    in.waitCycles = 123;
    for (auto _ : state) {
        in.pb = PbIdx{(in.pb.value() + 1) % 5};
        benchmark::DoNotOptimize(table.score(in));
    }
}
BENCHMARK(BM_TableScore);

/**
 * Scripted candidate mix for BM_SchedulerPick: a deterministic blend
 * of ACT / RD / WR / PRE candidates with varied wait ages, row hits,
 * PB levels and zone parities, shaped like a busy bank's ready list.
 */
std::vector<ScoreInputs>
scriptedCandidates(std::size_t depth)
{
    std::vector<ScoreInputs> out;
    out.reserve(depth);
    for (std::size_t i = 0; i < depth; ++i) {
        ScoreInputs in;
        switch (i % 4) {
        case 0:
            in.cmd = CmdType::kAct;
            break;
        case 1:
            in.cmd = CmdType::kRead;
            break;
        case 2:
            in.cmd = CmdType::kWrite;
            break;
        default:
            in.cmd = CmdType::kPre;
            break;
        }
        in.isWrite = (i % 4) == 2;
        in.isRowHit = (i % 3) == 0;
        in.waitCycles = Cycle{17 * (i + 1) % 4096};
        in.draining = (i % 7) == 0;
        in.pb = PbIdx{static_cast<std::uint8_t>(i % 5)};
        in.numPb = 5;
        in.zone = i % 3 == 0   ? BoundaryZone::kWarning
                  : i % 3 == 1 ? BoundaryZone::kPromising
                               : BoundaryZone::kNone;
        out.push_back(in);
    }
    return out;
}

/**
 * The scheduler's scoring core: the single pass NuatScheduler::pick
 * makes over its candidates (score each, keep the argmax), timed over
 * a prebuilt candidate array so the PBR lookups that fill ScoreInputs
 * (BM_PbrLookup, BM_ZoneLookup) stay out of it.
 */
void
BM_SchedulerPick(benchmark::State &state)
{
    ChargeFixture f;
    const NuatConfig cfg = NuatConfig::fromDerate(f.derate, 5);
    const NuatTable table(cfg);
    const auto cands =
        scriptedCandidates(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        int best = -1;
        double best_score = 0.0;
        for (std::size_t i = 0; i < cands.size(); ++i) {
            const double s = table.score(cands[i]);
            if (best < 0 || s > best_score) {
                best = static_cast<int>(i);
                best_score = s;
            }
        }
        benchmark::DoNotOptimize(best);
        benchmark::DoNotOptimize(best_score);
    }
}
BENCHMARK(BM_SchedulerPick)->ArgName("depth")->Arg(8)->Arg(32)->Arg(64);

void
BM_DeviceCanIssue(benchmark::State &state)
{
    ChargeFixture f;
    DramDevice dev(DramGeometry{}, TimingParams{}, f.derate);
    Command act;
    act.type = CmdType::kAct;
    act.row = RowId{100};
    act.actTiming = RowTiming{12, 30, 42};
    Cycle now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(dev.canIssue(act, now));
        ++now;
    }
}
BENCHMARK(BM_DeviceCanIssue);

void
BM_ChargeEffectiveTiming(benchmark::State &state)
{
    ChargeFixture f;
    Nanoseconds t{0.0};
    for (auto _ : state) {
        benchmark::DoNotOptimize(f.derate.effective(t));
        t += Nanoseconds{1e5};
        if (t > Nanoseconds{64e6})
            t = Nanoseconds{0.0};
    }
}
BENCHMARK(BM_ChargeEffectiveTiming);

void
BM_SyntheticTraceGen(benchmark::State &state)
{
    const auto &profile = WorkloadProfile::byName("comm1");
    SyntheticTrace trace(profile, DramGeometry{}, 1,
                         ~std::uint64_t(0));
    TraceEntry e;
    for (auto _ : state)
        benchmark::DoNotOptimize(trace.next(e));
}
BENCHMARK(BM_SyntheticTraceGen);

void
BM_SystemMemCycle(benchmark::State &state)
{
    ExperimentConfig cfg;
    cfg.workloads = {"ferret"};
    cfg.memOpsPerCore = ~std::uint64_t(0) >> 1;
    cfg.scheduler =
        state.range(0) ? SchedulerKind::kNuat : SchedulerKind::kFrFcfsOpen;
    System system(cfg);
    for (auto _ : state)
        system.stepMemCycle();
    // Simulated memory cycles per wall-clock second (one iteration
    // simulates exactly one memory cycle).
    state.counters["Mcycles/s"] = benchmark::Counter(
        1e-6, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SystemMemCycle)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"nuat"});

/**
 * End-to-end throughput through System::advance(), which includes the
 * idle fast-forward: iterations cover a variable number of simulated
 * cycles, so the Mcycles/s counter is the honest metric here.
 */
void
BM_SystemAdvance(benchmark::State &state)
{
    ExperimentConfig cfg;
    cfg.workloads = {"ferret"};
    cfg.memOpsPerCore = ~std::uint64_t(0) >> 1;
    cfg.maxMemCycles = ~Cycle(0) >> 1; // never stall the loop on the cap
    cfg.scheduler =
        state.range(0) ? SchedulerKind::kNuat : SchedulerKind::kFrFcfsOpen;
    System system(cfg);
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        const Cycle before = system.now();
        system.advance();
        cycles += system.now() - before;
    }
    state.counters["Mcycles/s"] = benchmark::Counter(
        static_cast<double>(cycles) * 1e-6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SystemAdvance)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"nuat"});

} // namespace
} // namespace nuat

BENCHMARK_MAIN();
