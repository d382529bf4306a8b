#include "chaos_profile.hh"

#include <cstdio>
#include <map>

#include "common/logging.hh"
#include "fault_profile.hh"

namespace nuat {

namespace {

/** SplitMix64 finalizer (same mixer as fault_model.cc's draws). */
std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

// Domain-separation salt: keeps the poison draw independent of the
// fault model's weak/VRT/REF draws under the same experiment seed.
constexpr std::uint64_t kSaltPoison = 101;

double
unitHash(std::uint64_t seed, std::uint64_t salt, std::uint64_t a,
         std::uint64_t b)
{
    std::uint64_t h = seed;
    h = mix64(h ^ (salt * 0x9e3779b97f4a7c15ull));
    h = mix64(h ^ a);
    h = mix64(h ^ b);
    return static_cast<double>(h >> 11) *
           (1.0 / 9007199254740992.0); // 2^-53
}

} // namespace

bool
ChaosProfile::any() const
{
    return burstLen > 0 || poisonFraction > 0.0 || !stalls.empty();
}

void
ChaosProfile::validate() const
{
    nuat_assert(poisonFraction >= 0.0 && poisonFraction <= 1.0,
                "(poison_fraction %.3f out of [0,1])", poisonFraction);
    nuat_assert((burstLen == 0) == (burstGap == 0),
                "(burst_len and burst_gap must be set together; a "
                "burst without a gap is open-loop pushing)");
    std::map<unsigned, std::uint64_t> lastAt;
    for (const ChaosStall &st : stalls) {
        nuat_assert(st.forSteps > 0,
                    "(stall for_steps must be positive)");
        const auto it = lastAt.find(st.shard);
        nuat_assert(it == lastAt.end() || it->second < st.atStep,
                    "(stalls for shard %u must be strictly ascending "
                    "by at_step)",
                    st.shard);
        lastAt[st.shard] = st.atStep;
    }
}

namespace {

std::vector<ChaosProfile>
buildRegistry()
{
    std::vector<ChaosProfile> all;

    {
        // Producer overload: every producer fires 512-request bursts
        // with long pauses, so the rings saturate and the admission
        // policy (not luck) decides what survives.
        ChaosProfile p;
        p.name = "burst-storm";
        p.burstLen = 512;
        p.burstGap = 4096;
        all.push_back(p);
    }
    {
        // Malformed payloads: 5% of requests fail the shard's
        // integrity check and must be shed before dispatch.
        ChaosProfile p;
        p.name = "poison";
        p.poisonFraction = 0.05;
        all.push_back(p);
    }
    {
        // One stall long enough to fill a 256-slot ring: shard 0
        // freezes at its 20000th step for 4096 steps, then resumes.
        ChaosProfile p;
        p.name = "shard-stall";
        p.stalls = {{0, 20000, 4096}};
        all.push_back(p);
    }
    {
        // The acceptance scenario: a burst storm, a trickle of
        // poison, and one stalled shard, all at once.
        ChaosProfile p;
        p.name = "storm-stall";
        p.burstLen = 512;
        p.burstGap = 4096;
        p.poisonFraction = 0.01;
        p.stalls = {{0, 20000, 4096}};
        all.push_back(p);
    }
    for (const ChaosProfile &p : all)
        p.validate();
    return all;
}

const std::vector<ChaosProfile> &
registry()
{
    static const std::vector<ChaosProfile> all = buildRegistry();
    return all;
}

} // namespace

std::vector<std::string>
chaosProfileNames()
{
    std::vector<std::string> names;
    for (const ChaosProfile &p : registry())
        names.push_back(p.name);
    return names;
}

const ChaosProfile *
findChaosProfile(const std::string &name)
{
    for (const ChaosProfile &p : registry())
        if (p.name == name)
            return &p;
    return nullptr;
}

ChaosProfile
loadChaosProfileFile(const std::string &path)
{
    ChaosProfile p;
    p.name = path;
    readProfileFile(path, "chaos profile", [&p](const ProfileEntry &e) {
        if (e.key == "burst_len") {
            p.burstLen = e.count(e.value);
        } else if (e.key == "burst_gap") {
            p.burstGap = e.count(e.value);
        } else if (e.key == "poison_fraction") {
            p.poisonFraction = e.real(e.value);
        } else if (e.key == "stall") {
            const auto f = e.fields(3, "<shard> <atStep> <forSteps>");
            p.stalls.push_back(
                {e.count<unsigned>(f[0]), e.count(f[1]), e.count(f[2])});
        } else {
            e.fail("unknown chaos profile key '" + e.key + "'");
        }
    });
    p.validate();
    return p;
}

ChaosProfile
resolveChaosProfile(const std::string &nameOrPath)
{
    if (const ChaosProfile *builtin = findChaosProfile(nameOrPath)) {
        ChaosProfile p = *builtin;
        p.validate();
        return p;
    }
    return loadChaosProfileFile(nameOrPath);
}

bool
chaosPoisons(const ChaosProfile &profile, std::uint64_t seed,
             unsigned producer, std::uint64_t reqIndex)
{
    if (profile.poisonFraction <= 0.0)
        return false;
    return unitHash(seed, kSaltPoison, producer, reqIndex) <
           profile.poisonFraction;
}

std::string
chaosScheduleFingerprint(const ChaosProfile &profile,
                         std::uint64_t seed, unsigned producers,
                         std::uint64_t reqs)
{
    std::string out = "chaos " + profile.name + "\n";
    char buf[128];
    std::snprintf(buf, sizeof(buf), "burst %llu/%llu\n",
                  static_cast<unsigned long long>(profile.burstLen),
                  static_cast<unsigned long long>(profile.burstGap));
    out += buf;
    for (const ChaosStall &st : profile.stalls) {
        std::snprintf(buf, sizeof(buf), "stall %u @%llu for %llu\n",
                      st.shard,
                      static_cast<unsigned long long>(st.atStep),
                      static_cast<unsigned long long>(st.forSteps));
        out += buf;
    }
    for (unsigned p = 0; p < producers; ++p) {
        out += "poison p" + std::to_string(p) + ":";
        for (std::uint64_t i = 0; i < reqs; ++i)
            out += chaosPoisons(profile, seed, p, i) ? '1' : '0';
        out += '\n';
    }
    return out;
}

} // namespace nuat
