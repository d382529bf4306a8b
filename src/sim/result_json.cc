#include "result_json.hh"

#include <cstdio>

namespace nuat {

namespace {

/** %.17g renders a double round-trip exactly and locale-free. */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
num(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Minimal escaping: the strings we emit are names and mnemonics. */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

std::string
flag(bool b)
{
    return b ? "true" : "false";
}

/**
 * One JSON object with a fixed key order, pretty (one key per line,
 * two spaces of indent per level) or compact (one line).  Values are
 * added already encoded; arrays always stay on one line.
 */
class JsonObject
{
  public:
    explicit JsonObject(bool pretty, unsigned depth = 0)
        : pretty_(pretty), depth_(depth)
    {
    }

    JsonObject &
    add(const char *key, const std::string &value)
    {
        if (!body_.empty())
            body_ += ",";
        if (pretty_)
            newline(body_, depth_ + 1);
        body_ += quoted(key) + (pretty_ ? ": " : ":") + value;
        return *this;
    }

    /** An empty object nested one level below this one. */
    JsonObject child() const { return JsonObject(pretty_, depth_ + 1); }

    /** @p items, each encoded by @p encode, as an array. */
    template <typename Items, typename Encode>
    std::string
    list(const Items &items, Encode encode) const
    {
        std::string s = "[";
        for (const auto &item : items) {
            if (s.size() > 1)
                s += pretty_ ? ", " : ",";
            s += encode(item);
        }
        return s + "]";
    }

    std::string
    str() const
    {
        std::string s = "{" + body_;
        if (pretty_)
            newline(s, depth_);
        return s + "}";
    }

  private:
    /** Append a newline and @p depth levels of indent.  Appended
     *  piecewise: GCC 12's -Wrestrict misfires on `"\n" +
     *  std::string(n, ' ')` in a -O2 -Werror build. */
    static void
    newline(std::string &s, unsigned depth)
    {
        s += '\n';
        s.append(2 * static_cast<std::size_t>(depth), ' ');
    }

    bool pretty_;
    unsigned depth_;
    std::string body_;
};

std::string
count(std::uint64_t v)
{
    return num(v);
}

} // namespace

std::string
runResultToJson(const RunResult &r)
{
    JsonObject o(true);
    o.add("schedulerName", quoted(r.schedulerName));
    o.add("workloads", o.list(r.workloads, quoted));
    o.add("memCycles", num(r.memCycles));
    o.add("hitCycleCap", flag(r.hitCycleCap));
    o.add("idleCyclesSkipped", num(r.idleCyclesSkipped));

    const ControllerStats &c = r.ctrl;
    o.add("ctrl", o.child()
                      .add("readsAccepted", num(c.readsAccepted))
                      .add("writesAccepted", num(c.writesAccepted))
                      .add("readsMerged", num(c.readsMerged))
                      .add("readsForwarded", num(c.readsForwarded))
                      .add("writesCoalesced", num(c.writesCoalesced))
                      .add("readsCompleted", num(c.readsCompleted))
                      .add("readLatencySum", num(c.readLatencySum))
                      .add("rowHitReads", num(c.rowHitReads))
                      .add("rowHitWrites", num(c.rowHitWrites))
                      .add("idleCycles", num(c.idleCycles))
                      .add("tickCycles", num(c.tickCycles))
                      .add("readQOccupancySum", num(c.readQOccupancySum))
                      .add("writeQOccupancySum", num(c.writeQOccupancySum))
                      .add("avgReadLatency", num(c.avgReadLatency()))
                      .add("readLatencyP50",
                           num(c.readLatencyPercentile(0.50)))
                      .add("readLatencyP95",
                           num(c.readLatencyPercentile(0.95)))
                      .add("readLatencyP99",
                           num(c.readLatencyPercentile(0.99)))
                      .str());

    const DeviceCounters &d = r.dev;
    o.add("dev", o.child()
                     .add("acts", num(d.acts))
                     .add("pres", num(d.pres))
                     .add("reads", num(d.reads))
                     .add("writes", num(d.writes))
                     .add("autoPres", num(d.autoPres))
                     .add("refreshes", num(d.refreshes))
                     .add("actsByTrcdReduction",
                          o.list(d.actsByTrcdReduction, count))
                     .str());

    o.add("coreFinish", o.list(r.coreFinish, count));
    o.add("coreInstrs", o.list(r.coreInstrs, count));
    o.add("hitRateEq3", num(r.hitRateEq3));
    o.add("actsPerPb", o.list(r.actsPerPb, count));
    o.add("ppmOpen", num(r.ppmOpen));
    o.add("ppmClose", num(r.ppmClose));

    const EnergyBreakdown &e = r.energy;
    o.add("energy", o.child()
                        .add("actPre", num(e.actPre))
                        .add("read", num(e.read))
                        .add("write", num(e.write))
                        .add("refresh", num(e.refresh))
                        .add("background", num(e.background))
                        .add("deratingSavings", num(e.deratingSavings))
                        .str());

    // Emitted only for metrics-carrying runs so that the default
    // (metrics-off) snapshots stay byte-identical across builds.
    if (r.metricsEnabled) {
        o.add("metrics",
              o.child()
                  .add("samples", num(r.metricsSamples))
                  .add("intervalCycles", num(r.metricsIntervalCycles))
                  .str());
    }

    // Emitted only for fault-injected runs so that fault-free snapshots
    // stay byte-identical to a build without the fault subsystem.
    if (r.faultsEnabled) {
        o.add("faults",
              o.child()
                  .add("profile", quoted(r.faultProfileName))
                  .add("degradeEnabled", flag(r.degradeEnabled))
                  .add("weakRows", num(r.faultWeakRows))
                  .add("vrtRows", num(r.faultVrtRows))
                  .add("refsDropped", num(r.faultRefsDropped))
                  .add("refsDelayed", num(r.faultRefsDelayed))
                  .add("marginViolations", num(d.marginViolations))
                  .add("guardProbeViolations",
                       num(r.guardProbeViolations))
                  .add("guardProbeWarnings", num(r.guardProbeWarnings))
                  .add("guardQuarantines", num(r.guardQuarantines))
                  .add("guardReleases", num(r.guardReleases))
                  .add("guardWidenSteps", num(r.guardWidenSteps))
                  .add("guardEaseSteps", num(r.guardEaseSteps))
                  .add("guardConservativeEntries",
                       num(r.guardConservativeEntries))
                  .add("guardMaxQuarantined", num(r.guardMaxQuarantined))
                  .add("guardQuarantinedAtEnd",
                       num(r.guardQuarantinedAtEnd))
                  .str());
    }

    if (!r.error.empty())
        o.add("error", quoted(r.error));

    o.add("audited", flag(r.audited));
    o.add("auditCommandsChecked", num(r.auditCommandsChecked));
    o.add("auditViolations", num(r.auditViolations));
    return o.str() + "\n";
}

std::string
serveResultToJson(const ServeResult &r)
{
    JsonObject o(false);
    o.add("serve", quoted("sharded"));
    o.add("shards", num(std::uint64_t{r.shards}));
    o.add("producers", num(std::uint64_t{r.producers}));
    o.add("deterministic", flag(r.deterministic));
    o.add("admission", quoted(admissionPolicyName(r.admission)));
    o.add("chaos", quoted(r.chaos));
    o.add("requests", num(r.requestsIngested));
    o.add("produced", num(r.requestsProduced));
    o.add("retired", num(r.requestsRetired));
    o.add("reads_retired", num(r.readsRetired));
    o.add("writes_retired", num(r.writesRetired));
    o.add("shed_admission", num(r.shedAdmission));
    o.add("shed_timeout", num(r.shedTimeout));
    o.add("shed_poison", num(r.shedPoison));
    o.add("shed_total", num(r.shedTotal()));
    o.add("poisoned_injected", num(r.poisonedInjected));
    o.add("backpressure_yields", num(r.backpressureYields));
    o.add("backoff_rounds", num(r.backoffRounds));
    o.add("max_shard_cycles", num(r.maxShardCycles));
    o.add("total_shard_cycles", num(r.totalShardCycles));
    o.add("avg_read_latency", num(r.avgReadLatency));
    o.add("shard_retired", o.list(r.shardRetired, count));
    o.add("classes", o.list(r.classes, [&o](const ServeClassStats &c) {
        const RunningStat &lat = c.readLatency.summary();
        return o.child()
            .add("produced", num(c.produced))
            .add("retired", num(c.retired))
            .add("shed", num(c.shedTotal()))
            .add("shed_admission", num(c.shedAdmission))
            .add("shed_timeout", num(c.shedTimeout))
            .add("shed_poison", num(c.shedPoison))
            .add("reads", num(lat.count()))
            .add("read_latency_sum", num(lat.sum()))
            .add("read_latency_p50", num(c.readLatency.percentile(0.50)))
            .add("read_latency_p99", num(c.readLatency.percentile(0.99)))
            .str();
    }));
    o.add("hit_cycle_cap", flag(r.hitCycleCap));
    o.add("failed", flag(r.failed));
    o.add("errors", o.list(r.errors, quoted));
    o.add("audited", flag(r.audited));
    o.add("audit_commands_checked", num(r.auditCommandsChecked));
    o.add("audit_violations", num(r.auditViolations));
    o.add("audit_messages", o.list(r.auditMessages, quoted));
    return o.str();
}

} // namespace nuat
