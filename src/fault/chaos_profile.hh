/**
 * @file
 * Chaos-profile description: which serving-layer failure modes to
 * inject into a `nuat_serve` run.
 *
 * Where FaultProfile describes *device* hazards (weak cells, thermal
 * excursions, refresh disturbances), a ChaosProfile describes
 * *service* hazards one layer up: producer burst storms that overload
 * the ingest rings, poisoned (malformed) requests that must be shed
 * instead of dispatched, and scheduled shard stalls that back up a
 * shard's ingest ring while it makes no progress (a stall longer than
 * the watchdog's window fails the run).  Profiles come from a small
 * built-in library (resolveChaosProfile("storm-stall"), ...) or from
 * a key=value file (nuat_serve --chaos-profile=path/to/profile.conf).
 *
 * Like FaultProfile, the profile holds no randomness: the only drawn
 * decision (whether a request is poisoned) is a stateless hash of
 * (seed, producer, request index), so the same (profile, seed) always
 * injects the same chaos — the `fault-determinism` lint rule enforces
 * it statically.  Stalls and bursts are scheduled in shard-step /
 * producer-round counts, never wall-clock time.  See ROBUSTNESS.md.
 */

#ifndef NUAT_FAULT_CHAOS_PROFILE_HH
#define NUAT_FAULT_CHAOS_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace nuat {

/** One scheduled shard stall: from its @p atStep-th step on, shard
 *  @p shard stops making progress for @p forSteps wait iterations. */
struct ChaosStall
{
    unsigned shard = 0;
    std::uint64_t atStep = 0;
    std::uint64_t forSteps = 0;
};

/** Declarative description of the injected serving-layer chaos. */
struct ChaosProfile
{
    std::string name = "none";

    /**
     * Producer burst storm: each producer pushes @p burstLen requests
     * back to back, then pauses for @p burstGap producer rounds.
     * Both zero = open-loop pushing (no storm).
     */
    std::uint64_t burstLen = 0;
    std::uint64_t burstGap = 0;

    /** Fraction of requests whose payload is poisoned (drawn per
     *  request from a stateless hash; the shard's integrity check
     *  must shed them before dispatch). */
    double poisonFraction = 0.0;

    /** Scheduled stalls, ascending by atStep per shard. */
    std::vector<ChaosStall> stalls;

    /** True when the profile injects anything at all. */
    bool any() const;

    /** Panics on out-of-range parameters. */
    void validate() const;
};

/** Names of the built-in profiles, in registry order. */
std::vector<std::string> chaosProfileNames();

/** Built-in profile by name, or nullptr when unknown. */
const ChaosProfile *findChaosProfile(const std::string &name);

/**
 * Parse a key=value profile file ('#' comments, blank lines allowed;
 * `stall = <shard> <atStep> <forSteps>` may repeat).  Any malformed
 * line is a single fatal diagnostic carrying file:line.
 */
ChaosProfile loadChaosProfileFile(const std::string &path);

/**
 * Resolve a --chaos-profile argument: a built-in name first, else a
 * profile file path.  The result is validated.
 */
ChaosProfile resolveChaosProfile(const std::string &nameOrPath);

/**
 * Stateless poison draw: true when request @p reqIndex of producer
 * @p producer is poisoned under (@p profile, @p seed).  Pure function
 * of its arguments — two calls with the same coordinates always agree,
 * regardless of call order (fault-determinism).
 */
bool chaosPoisons(const ChaosProfile &profile, std::uint64_t seed,
                  unsigned producer, std::uint64_t reqIndex);

/**
 * Canonical text rendering of the injected schedule: the stall table,
 * the burst pacing, and the first @p reqs poison decisions of each of
 * @p producers producers.  Two renderings from the same
 * (profile, seed) are byte-identical; used by the determinism tests.
 */
std::string chaosScheduleFingerprint(const ChaosProfile &profile,
                                     std::uint64_t seed,
                                     unsigned producers,
                                     std::uint64_t reqs);

} // namespace nuat

#endif // NUAT_FAULT_CHAOS_PROFILE_HH
