#include "fault_profile.hh"

#include <cctype>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace nuat {

bool
FaultProfile::any() const
{
    return (weakFraction > 0.0 && weakMultMax > 1.0) ||
           (vrtFraction > 0.0 && vrtMult > 1.0) || !tempSteps.empty() ||
           refDropProb > 0.0 || refDelayProb > 0.0;
}

void
FaultProfile::validate() const
{
    nuat_assert(weakFraction >= 0.0 && weakFraction <= 1.0,
                "(weak_fraction %.3f out of [0,1])", weakFraction);
    nuat_assert(weakMultMin >= 1.0 && weakMultMax >= weakMultMin,
                "(weak multiplier range [%.3f, %.3f] invalid)",
                weakMultMin, weakMultMax);
    nuat_assert(vrtFraction >= 0.0 && vrtFraction <= 1.0,
                "(vrt_fraction %.3f out of [0,1])", vrtFraction);
    nuat_assert(vrtMult >= 1.0, "(vrt_mult %.3f < 1)", vrtMult);
    nuat_assert(vrtPeriod > 0, "(vrt_period_cycles must be positive)");
    nuat_assert(refDropProb >= 0.0 && refDelayProb >= 0.0 &&
                    refDropProb + refDelayProb <= 1.0,
                "(ref drop %.3f + delay %.3f probabilities exceed 1)",
                refDropProb, refDelayProb);
    nuat_assert(refDelayProb == 0.0 || refDelayMax > 0,
                "(ref_delay_prob needs ref_delay_max_cycles > 0)");
    nuat_assert(refBurstMax >= 1, "(ref_burst_max must be >= 1)");
    for (std::size_t i = 0; i < tempSteps.size(); ++i) {
        nuat_assert(tempSteps[i].scale > 0.0,
                    "(temp_step scale %.3f must be positive)",
                    tempSteps[i].scale);
        nuat_assert(i == 0 ||
                        tempSteps[i - 1].atCycle < tempSteps[i].atCycle,
                    "(temp_step cycles must be strictly ascending)");
    }
}

namespace {

std::vector<FaultProfile>
buildRegistry()
{
    std::vector<FaultProfile> all;

    {
        // Static weak-cell population: a slice of rows leaks 2-4x
        // faster than the nominal cell the PBR ratings assume.
        FaultProfile p;
        p.name = "weak-cells";
        p.weakFraction = 0.08;
        p.weakMultMin = 2.0;
        p.weakMultMax = 4.0;
        all.push_back(p);
    }
    {
        // Transient thermal event: leakage triples mid-run, then
        // returns to nominal — exercises quarantine *and* the
        // hysteretic re-promotion path once the window ends.
        FaultProfile p;
        p.name = "thermal-spike";
        p.tempSteps = {{150000, 3.0}, {300000, 1.0}};
        all.push_back(p);
    }
    {
        // Variable retention time: rows flip between nominal and
        // leaky retention states on a fixed half-period.
        FaultProfile p;
        p.name = "vrt";
        p.vrtFraction = 0.03;
        p.vrtMult = 3.0;
        p.vrtPeriod = 60000;
        all.push_back(p);
    }
    {
        // Refresh-side disturbances: REF restores dropped or late in
        // bounded bursts, so rows age far beyond the schedule the
        // controller derates against.
        FaultProfile p;
        p.name = "refresh-storm";
        p.refDropProb = 0.25;
        p.refDelayProb = 0.25;
        p.refDelayMax = 4000;
        p.refBurstMax = 2;
        all.push_back(p);
    }
    {
        // Everything at once, with a permanent temperature step —
        // the canonical adversarial profile used by the negative
        // tests and the fault golden snapshot.
        FaultProfile p;
        p.name = "stress";
        p.weakFraction = 0.10;
        p.weakMultMin = 2.0;
        p.weakMultMax = 4.0;
        p.vrtFraction = 0.02;
        p.vrtMult = 3.0;
        p.vrtPeriod = 60000;
        p.tempSteps = {{120000, 2.5}};
        p.refDropProb = 0.15;
        p.refDelayProb = 0.15;
        p.refDelayMax = 4000;
        p.refBurstMax = 2;
        all.push_back(p);
    }
    for (const FaultProfile &p : all)
        p.validate();
    return all;
}

const std::vector<FaultProfile> &
registry()
{
    static const std::vector<FaultProfile> all = buildRegistry();
    return all;
}

} // namespace

std::vector<std::string>
faultProfileNames()
{
    std::vector<std::string> names;
    for (const FaultProfile &p : registry())
        names.push_back(p.name);
    return names;
}

const FaultProfile *
findFaultProfile(const std::string &name)
{
    for (const FaultProfile &p : registry())
        if (p.name == name)
            return &p;
    return nullptr;
}

FaultProfile
loadFaultProfileFile(const std::string &path)
{
    FaultProfile p;
    p.name = path;
    readProfileFile(path, "fault profile", [&p](const ProfileEntry &e) {
        const std::string &v = e.value;
        if (e.key == "name") {
            p.name = v;
        } else if (e.key == "weak_fraction") {
            p.weakFraction = e.real(v);
        } else if (e.key == "weak_mult_min") {
            p.weakMultMin = e.real(v);
        } else if (e.key == "weak_mult_max") {
            p.weakMultMax = e.real(v);
        } else if (e.key == "vrt_fraction") {
            p.vrtFraction = e.real(v);
        } else if (e.key == "vrt_mult") {
            p.vrtMult = e.real(v);
        } else if (e.key == "vrt_period_cycles") {
            p.vrtPeriod = e.count<Cycle>(v);
        } else if (e.key == "temp_step") {
            const auto f = e.fields(2, "<atCycle> <scale>");
            p.tempSteps.push_back({e.count<Cycle>(f[0]), e.real(f[1])});
        } else if (e.key == "ref_drop_prob") {
            p.refDropProb = e.real(v);
        } else if (e.key == "ref_delay_prob") {
            p.refDelayProb = e.real(v);
        } else if (e.key == "ref_delay_max_cycles") {
            p.refDelayMax = e.count<Cycle>(v);
        } else if (e.key == "ref_burst_max") {
            p.refBurstMax = e.count<unsigned>(v);
        } else {
            e.fail("unknown fault-profile key '" + e.key + "'");
        }
    });
    p.validate();
    return p;
}

FaultProfile
resolveFaultProfile(const std::string &nameOrPath)
{
    if (const FaultProfile *p = findFaultProfile(nameOrPath))
        return *p;
    return loadFaultProfileFile(nameOrPath);
}

namespace {

/** @p s without leading and trailing whitespace. */
std::string
trimmed(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

} // namespace

std::vector<std::string>
ProfileEntry::fields(std::size_t n, const char *shape) const
{
    std::istringstream in(value);
    std::vector<std::string> out;
    for (std::string f; in >> f;)
        out.push_back(f);
    if (out.size() != n)
        fail(key + " wants '" + shape + "', got '" + value + "'");
    return out;
}

double
ProfileEntry::real(const std::string &text) const
{
    double d = 0.0;
    if (!parseStrictReal(text.c_str(), &d))
        fail("expected a non-negative number, got '" + text + "'");
    return d;
}

void
ProfileEntry::fail(const std::string &what) const
{
    nuat_fatal("%s:%d: %s", path.c_str(), line, what.c_str());
}

void
readProfileFile(const std::string &path, const char *kind,
                const std::function<void(const ProfileEntry &)> &apply)
{
    std::ifstream in(path);
    if (!in)
        nuat_fatal("cannot open %s '%s'", kind, path.c_str());
    std::string text;
    for (int lineNo = 1; std::getline(in, text); ++lineNo) {
        text = trimmed(text.substr(0, text.find('#')));
        if (text.empty())
            continue;
        ProfileEntry e{path, lineNo, {}, {}};
        const std::size_t eq = text.find('=');
        if (eq == std::string::npos)
            e.fail("expected 'key = value', got '" + text + "'");
        e.key = trimmed(text.substr(0, eq));
        e.value = trimmed(text.substr(eq + 1));
        if (e.key.empty() || e.value.empty())
            e.fail("empty key or value in '" + text + "'");
        apply(e);
    }
}

} // namespace nuat
