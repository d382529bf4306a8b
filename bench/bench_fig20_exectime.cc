/**
 * @file
 * Reproduces Fig. 20: total execution time improvement of NUAT (5PB)
 * over FR-FCFS open- and close-page on the 18 single-core workloads.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/table_printer.hh"
#include "sim/runner.hh"
#include "trace/workload_profile.hh"

using namespace nuat;

int
main(int argc, char **argv)
{
    bench::header("Fig. 20", "total execution time: NUAT vs FR-FCFS "
                             "open/close (single core, 5PB)");

    const std::uint64_t ops = bench::opsPerCore(40000, 150000);
    TablePrinter table({"workload", "open (Mcyc)", "close (Mcyc)",
                        "NUAT (Mcyc)", "vs open", "vs close",
                        "lat vs open"});
    double sum_open = 0.0, sum_close = 0.0;
    double best_open = -1e9;
    int n = 0;

    const auto names = WorkloadProfile::allNames();
    const std::size_t kinds = std::size(bench::kPaperKinds);
    const std::vector<ExperimentConfig> grid =
        bench::paperGrid(ops, "fig20");
    // Resolve the thread request (0 = auto) against the actual batch
    // so the report shows the worker count the runner really uses.
    const unsigned threads = resolveRunnerThreads(
        bench::threadsFromArgs(argc, argv), grid.size());
    bench::ThroughputReport tput("fig20", threads);
    const auto all = runExperimentsParallel(grid, threads);
    tput.add(all);

    for (std::size_t w = 0; w < names.size(); ++w) {
        const auto &name = names[w];
        const RunResult *rs = &all[w * kinds];
        const double open = static_cast<double>(rs[0].executionTime());
        const double close = static_cast<double>(rs[1].executionTime());
        const double nuat = static_cast<double>(rs[2].executionTime());
        const double vs_open = percentReduction(open, nuat);
        const double vs_close = percentReduction(close, nuat);
        const double lat_open =
            percentReduction(rs[0].avgReadLatency(),
                             rs[2].avgReadLatency());
        sum_open += vs_open;
        sum_close += vs_close;
        best_open = std::max(best_open, vs_open);
        ++n;

        table.addRow({name, TablePrinter::num(open / 1e6, 2),
                      TablePrinter::num(close / 1e6, 2),
                      TablePrinter::num(nuat / 1e6, 2),
                      TablePrinter::pct(vs_open / 100.0),
                      TablePrinter::pct(vs_close / 100.0),
                      TablePrinter::pct(lat_open / 100.0)});
    }
    std::printf("%s\n", table.render().c_str());

    std::printf("Average execution-time reduction — paper: 8.1%% vs "
                "open, 7.3%% vs close; measured: %.1f%% / %.1f%%\n",
                sum_open / n, sum_close / n);
    std::printf("Best single workload — paper: 20.4%% (MT-fluid); "
                "measured best vs open: %.1f%%\n", best_open);
    std::printf("(the paper's note holds here too: execution-time "
                "gains trail latency gains when compute can hide "
                "memory latency)\n");
    tput.report();
    return bench::auditVerdict(all);
}
