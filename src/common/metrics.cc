#include "metrics.hh"

#include <cstdio>

#include "logging.hh"

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

/** Metric names are [A-Za-z0-9._-]; escape defensively anyway. */
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

} // namespace

MetricRegistry::Entry &
MetricRegistry::add(const std::string &name,
                    const std::string &description, Kind kind)
{
    confined_.assertOwned("MetricRegistry");
    for (const Entry &e : entries_) {
        nuat_assert(e.name != name, "(metric '%s' registered twice)",
                    name.c_str());
    }
    Entry &e = entries_.emplace_back();
    e.name = name;
    e.description = description;
    e.kind = kind;
    return e;
}

void
MetricRegistry::counter(const std::string &name, CounterView view,
                        const std::string &description)
{
    add(name, description, Kind::kCounter).counter = std::move(view);
}

void
MetricRegistry::gauge(const std::string &name, GaugeView view,
                      const std::string &description)
{
    add(name, description, Kind::kGauge).gauge = std::move(view);
}

void
MetricRegistry::histogram(const std::string &name,
                          const Histogram &source,
                          const std::string &description)
{
    add(name, description, Kind::kHistogram).histogram = &source;
}

void
MetricRegistry::writeValuesJson(std::ostream &out) const
{
    confined_.assertOwned("MetricRegistry");
    bool first = true;
    out << "\"counters\":{";
    for (const Entry &e : entries_) {
        if (e.kind != Kind::kCounter)
            continue;
        out << (first ? "" : ",") << quoted(e.name) << ":"
            << num(e.counter());
        first = false;
    }
    out << "},\"gauges\":{";
    first = true;
    for (const Entry &e : entries_) {
        if (e.kind != Kind::kGauge)
            continue;
        out << (first ? "" : ",") << quoted(e.name) << ":"
            << num(e.gauge());
        first = false;
    }
    out << "},\"histograms\":{";
    first = true;
    for (const Entry &e : entries_) {
        if (e.kind != Kind::kHistogram)
            continue;
        const Histogram &h = *e.histogram;
        out << (first ? "" : ",") << quoted(e.name)
            << ":{\"lo\":" << num(h.lo())
            << ",\"width\":" << num(h.width()) << ",\"buckets\":[";
        for (unsigned i = 0; i < h.buckets(); ++i)
            out << (i ? "," : "") << num(h.bucketCount(i));
        out << "],\"underflow\":" << num(h.underflow())
            << ",\"overflow\":" << num(h.overflow())
            << ",\"count\":" << num(h.summary().count())
            << ",\"sum\":" << num(h.summary().sum()) << "}";
        first = false;
    }
    out << "}";
}

TraceEventSink::TraceEventSink(std::ostream &out) : out_(out)
{
    out_ << "[\n";
}

void
TraceEventSink::counterEvent(const std::string &name, Cycle t,
                             double value)
{
    nuat_assert(!finished_);
    out_ << (first_ ? "" : ",\n") << "{\"name\":" << quoted(name)
         << ",\"ph\":\"C\",\"ts\":" << num(static_cast<std::uint64_t>(t))
         << ",\"pid\":0,\"tid\":0,\"args\":{\"v\":" << num(value)
         << "}}";
    first_ = false;
}

void
TraceEventSink::finish()
{
    if (finished_)
        return;
    out_ << "\n]\n";
    finished_ = true;
}

IntervalSampler::IntervalSampler(MetricRegistry &registry,
                                 Cycle interval, std::ostream *jsonl,
                                 TraceEventSink *trace)
    : registry_(registry), interval_(interval), nextAt_(interval),
      jsonl_(jsonl), trace_(trace)
{
    nuat_assert(interval_ > 0, "(metrics interval must be positive)");
}

void
IntervalSampler::emit(Cycle t)
{
    if (jsonl_) {
        *jsonl_ << "{\"t\":" << num(static_cast<std::uint64_t>(t))
                << ",\"sample\":" << num(samples_ + 1) << ",";
        registry_.writeValuesJson(*jsonl_);
        *jsonl_ << "}\n";
    }
    if (trace_) {
        for (const MetricRegistry::Entry &e : registry_.entries()) {
            if (e.kind == MetricRegistry::Kind::kCounter) {
                trace_->counterEvent(e.name, t,
                                     static_cast<double>(e.counter()));
            } else if (e.kind == MetricRegistry::Kind::kGauge) {
                trace_->counterEvent(e.name, t, e.gauge());
            }
        }
    }
    lastEmittedAt_ = t;
    ++samples_;
}

void
IntervalSampler::advanceTo(Cycle now)
{
    while (nextAt_ <= now) {
        emit(nextAt_);
        nextAt_ += interval_;
    }
}

void
IntervalSampler::finish(Cycle now)
{
    advanceTo(now);
    if (samples_ == 0 || lastEmittedAt_ < now)
        emit(now);
}

} // namespace nuat
