#include "ledger.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace nuat::perfbench {

namespace {

constexpr std::array<const char *, kSpanKinds> kNames = {
    "sim.loop", "sim.ff", "mem.tick", "mem.port",
    "cpu.tick", "cpu.complete", "trace.next", "sched.pick",
    "sched.tick", "sched.on_issue", "sched.ff", "verify.command",
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace

const char *
spanName(SpanKind kind)
{
    return kNames[static_cast<std::size_t>(kind)];
}

std::string
spanLayer(SpanKind kind)
{
    const std::string name = spanName(kind);
    return name.substr(0, name.find('.'));
}

std::uint64_t
steadyNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
hostNsPerTick()
{
#if defined(__x86_64__) || defined(__i386__)
    // Spin 20 ms of steady_clock and count TSC ticks across it.
    static const double ns_per_tick = [] {
        const std::uint64_t ns0 = steadyNs();
        const std::uint64_t t0 = hostTicks();
        std::uint64_t ns1 = ns0;
        while (ns1 - ns0 < 20'000'000)
            ns1 = steadyNs();
        const std::uint64_t t1 = hostTicks();
        return static_cast<double>(ns1 - ns0) /
               static_cast<double>(t1 - t0);
    }();
    return ns_per_tick;
#else
    return 1.0;
#endif
}

void
Ledger::arm(std::uint32_t cell)
{
    nuat_assert(depth_ == 0, "(arm inside an open span)");
    armed_ = true;
    cell_ = cell;
    setCycle(0); // so the cell's root span is kept in full
}

void
Ledger::disarm()
{
    nuat_assert(depth_ == 0, "(disarm inside an open span)");
    armed_ = false;
    sampling_ = false;
}

double
Ledger::correctedSelfNs(SpanKind kind, const SpanCost &cost) const
{
    const SpanStats &s = stats(kind);
    const double ticks = static_cast<double>(s.selfTicks) -
                         static_cast<double>(s.calls) * cost.inside -
                         static_cast<double>(s.childCalls) * cost.parent;
    return ticks * hostNsPerTick();
}

double
Ledger::totalNs(SpanKind kind) const
{
    return static_cast<double>(stats(kind).totalTicks) * hostNsPerTick();
}

bool
Ledger::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::uint64_t base = ~std::uint64_t{0};
    for (const SpanRecord &r : records_)
        base = std::min(base, r.start);
    const double us_per_tick = hostNsPerTick() / 1000.0;
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const SpanRecord &r = records_[i];
        std::fprintf(
            f,
            "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
            "\"pid\":%u,\"tid\":0,\"ts\":%.4f,\"dur\":%.4f,"
            "\"args\":{\"id\":%zu,\"cycle\":%llu,\"parent\":%lld}}",
            i ? "," : "", spanName(r.kind), spanLayer(r.kind).c_str(),
            r.cell, static_cast<double>(r.start - base) * us_per_tick,
            static_cast<double>(r.end - r.start) * us_per_tick, i,
            static_cast<unsigned long long>(r.cycle),
            static_cast<long long>(r.parent));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

SpanCost
measureSpanCost()
{
    constexpr int kRounds = 7;
    constexpr int kSpans = 20000;
    std::vector<double> inside, parent;
    for (int round = 0; round < kRounds; ++round) {
        Ledger l;
        l.arm(0);
        // An unsampled cycle, as for all but one in kSamplePeriod spans
        // of a traced run: a sampled span also appends a record, which
        // more than doubled the measured parent cost.
        l.setCycle(1);
        l.open(SpanKind::kLoop);
        for (int i = 0; i < kSpans; ++i) {
            l.open(SpanKind::kTraceNext);
            l.close();
        }
        l.close();
        l.disarm();
        inside.push_back(
            static_cast<double>(l.stats(SpanKind::kTraceNext).totalTicks) /
            kSpans);
        parent.push_back(
            static_cast<double>(l.stats(SpanKind::kLoop).selfTicks) /
            kSpans);
    }
    return SpanCost{median(inside), median(parent)};
}

} // namespace nuat::perfbench
