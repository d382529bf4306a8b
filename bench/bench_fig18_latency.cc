/**
 * @file
 * Reproduces Fig. 18: per-workload read access latency of NUAT (5PB)
 * against FR-FCFS open- and close-page, plus the paper's Sec. 9.1
 * per-workload analysis hooks (hit-rate gap for the leslie case, PB
 * access distribution for the comm1 case).
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/table_printer.hh"
#include "common/units.hh"
#include "sim/runner.hh"
#include "trace/workload_profile.hh"

using namespace nuat;

int
main(int argc, char **argv)
{
    bench::header("Fig. 18", "read access latency: NUAT vs FR-FCFS "
                             "open/close (single core, 5PB)");

    const std::uint64_t ops = bench::opsPerCore(40000, 150000);
    TablePrinter table({"workload", "open (cyc)", "close (cyc)",
                        "NUAT (cyc)", "vs open", "vs close", "hit open",
                        "hit close", "PB3+4 acc"});
    double sum_open = 0.0, sum_close = 0.0;
    double worst_open = 1e9, worst_close = 1e9;
    int n = 0;

    // Flatten the workload × scheduler grid into one batch so the
    // parallel runner can spread every run across the workers.
    const auto names = WorkloadProfile::allNames();
    const std::size_t kinds = std::size(bench::kPaperKinds);
    const std::vector<ExperimentConfig> grid =
        bench::paperGrid(ops, "fig18");
    // Resolve the thread request (0 = auto) against the actual batch
    // so the report shows the worker count the runner really uses.
    const unsigned threads = resolveRunnerThreads(
        bench::threadsFromArgs(argc, argv), grid.size());
    bench::ThroughputReport tput("fig18", threads);
    const auto all = runExperimentsParallel(grid, threads);
    tput.add(all);

    for (std::size_t w = 0; w < names.size(); ++w) {
        const auto &name = names[w];
        const RunResult *rs = &all[w * kinds];
        const double open = rs[0].avgReadLatency();
        const double close = rs[1].avgReadLatency();
        const double nuat = rs[2].avgReadLatency();
        const double vs_open = percentReduction(open, nuat);
        const double vs_close = percentReduction(close, nuat);
        sum_open += vs_open;
        sum_close += vs_close;
        worst_open = std::min(worst_open, vs_open);
        worst_close = std::min(worst_close, vs_close);
        ++n;

        // comm1 analysis hook: fraction of NUAT ACTs landing in the
        // two slowest PBs (paper: 80% for comm1, 59% average).
        std::uint64_t acts = 0, slow = 0;
        for (std::size_t pb = 0; pb < 5; ++pb)
            acts += rs[2].actsPerPb[pb];
        slow = rs[2].actsPerPb[3] + rs[2].actsPerPb[4];
        const double slow_frac =
            acts ? static_cast<double>(slow) /
                       static_cast<double>(acts)
                 : 0.0;

        table.addRow({name, TablePrinter::num(open, 1),
                      TablePrinter::num(close, 1),
                      TablePrinter::num(nuat, 1),
                      TablePrinter::pct(vs_open / 100.0),
                      TablePrinter::pct(vs_close / 100.0),
                      TablePrinter::num(rs[0].hitRateEq3, 2),
                      TablePrinter::num(rs[1].hitRateEq3, 2),
                      TablePrinter::pct(slow_frac, 0)});
    }
    std::printf("%s\n", table.render().c_str());

    std::printf("Average latency reduction — paper: 16.1%% vs open, "
                "13.8%% vs close; measured: %.1f%% / %.1f%%\n",
                sum_open / n, sum_close / n);
    std::printf("Worst per-workload result — paper: -4.1%% (leslie vs "
                "open), -0.07%% (comm1 vs close); measured: %.1f%% / "
                "%.1f%%\n",
                worst_open, worst_close);
    std::printf("(ops/core = %llu; set NUAT_BENCH_FULL=1 or "
                "NUAT_BENCH_OPS for longer runs)\n",
                static_cast<unsigned long long>(ops));
    tput.report();
    return bench::auditVerdict(all);
}
