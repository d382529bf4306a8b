/**
 * @file
 * Fault-profile description: which charge-margin hazards to inject.
 *
 * A FaultProfile is a pure description of the adversarial conditions a
 * run should simulate — weak-cell leakage multipliers, mid-run
 * temperature steps, variable-retention-time (VRT) rows, and
 * refresh-side disturbances.  Profiles come from a small built-in
 * library (resolveFaultProfile("weak-cells"), ...) or from a key=value
 * file (nuat_sim --fault-profile=path/to/profile.conf), read by
 * readProfileFile(), the strict reader chaos-profile files share.  The
 * profile itself holds no randomness: FaultModel expands it
 * deterministically from the experiment seed.  See ROBUSTNESS.md.
 */

#ifndef NUAT_FAULT_FAULT_PROFILE_HH
#define NUAT_FAULT_FAULT_PROFILE_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/parse_number.hh"
#include "common/types.hh"

namespace nuat {

/** One global temperature change: from @p atCycle on, leakage is
 *  scaled by @p scale (1.0 = nominal temperature). */
struct FaultTempStep
{
    Cycle atCycle = 0;
    double scale = 1.0;
};

/** Declarative description of the injected fault population. */
struct FaultProfile
{
    std::string name = "none";

    /** Fraction of rows that are weak (leak faster than nominal). */
    double weakFraction = 0.0;
    /** Leakage-rate multiplier range for weak rows, drawn uniformly. */
    double weakMultMin = 1.0;
    double weakMultMax = 1.0;

    /** Fraction of rows with variable retention time. */
    double vrtFraction = 0.0;
    /** Leakage multiplier while a VRT row is in its leaky state. */
    double vrtMult = 1.0;
    /** Half-period of the VRT state flip [cycles]. */
    Cycle vrtPeriod = 50000;

    /** Temperature schedule, ascending by atCycle (empty = constant). */
    std::vector<FaultTempStep> tempSteps;

    /** Probability that a REF command's restore is dropped entirely. */
    double refDropProb = 0.0;
    /** Probability that a REF command's restore completes late. */
    double refDelayProb = 0.0;
    /** Maximum restore delay for a delayed REF [cycles]. */
    Cycle refDelayMax = 0;
    /** Upper bound on consecutive disturbed (dropped/delayed) REFs. */
    unsigned refBurstMax = 1;

    /** True when the profile injects anything at all. */
    bool any() const;

    /** Panics on out-of-range parameters. */
    void validate() const;
};

/** Names of the built-in profiles, in registry order. */
std::vector<std::string> faultProfileNames();

/** Built-in profile by name, or nullptr when unknown. */
const FaultProfile *findFaultProfile(const std::string &name);

/**
 * Parse a key=value profile file ('#' comments, blank lines allowed;
 * `temp_step = <atCycle> <scale>` may repeat).  Any malformed line is
 * a single fatal diagnostic carrying file:line.
 */
FaultProfile loadFaultProfileFile(const std::string &path);

/**
 * Resolve a --fault-profile argument: a built-in name first, else a
 * profile file path.  The result is validated.
 */
FaultProfile resolveFaultProfile(const std::string &nameOrPath);

/** One `key = value` entry of a fault- or chaos-profile file and the
 *  parsers for its value.  Numbers follow the command-line rules
 *  (common/parse_number.hh); each parser is fatal on a bad value with
 *  a `path:line` diagnostic. */
struct ProfileEntry
{
    const std::string &path;
    int line = 0;
    std::string key;
    std::string value;

    /** The value as exactly @p n blank-separated fields; @p shape
     *  names them in the diagnostic ("<atCycle> <scale>"). */
    std::vector<std::string> fields(std::size_t n, const char *shape) const;

    /** @p text as a decimal count that fits T. */
    template <typename T = std::uint64_t>
    T
    count(const std::string &text) const
    {
        const std::uint64_t max = std::numeric_limits<T>::max();
        std::uint64_t u = 0;
        if (!parseStrictCount(text.c_str(), max, &u))
            fail("expected an unsigned integer in [0, " +
                 std::to_string(max) + "], got '" + text + "'");
        return static_cast<T>(u);
    }

    /** @p text as a finite, non-negative real. */
    double real(const std::string &text) const;

    /** Fatal "path:line: @p what". */
    [[noreturn]] void fail(const std::string &what) const;
};

/**
 * The one reader of fault- and chaos-profile files: '#' starts a
 * comment, blank lines are skipped, and every other line must be
 * `key = value`.  Hands each entry to @p apply in file order; @p kind
 * names the file if it cannot be opened.
 */
void readProfileFile(const std::string &path, const char *kind,
                     const std::function<void(const ProfileEntry &)> &apply);

} // namespace nuat

#endif // NUAT_FAULT_FAULT_PROFILE_HH
