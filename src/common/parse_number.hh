/**
 * @file
 * The strict number rules shared by command-line flags
 * (tools/cli_args.hh) and profile files (fault/fault_profile.hh).
 */

#ifndef NUAT_COMMON_PARSE_NUMBER_HH
#define NUAT_COMMON_PARSE_NUMBER_HH

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace nuat {

/** Parse @p text as a count no larger than @p max: decimal digits
 *  only, no wrap.  @return false on anything else. */
inline bool
parseStrictCount(const char *text, std::uint64_t max, std::uint64_t *out)
{
    char *end = nullptr;
    errno = 0;
    *out = std::strtoull(text, &end, 10);
    return *text >= '0' && *text <= '9' && *end == '\0' &&
           errno != ERANGE && *out <= max;
}

/** Parse @p text as a finite, non-negative real; false otherwise. */
inline bool
parseStrictReal(const char *text, double *out)
{
    char *end = nullptr;
    *out = std::strtod(text, &end);
    return end != text && *end == '\0' && std::isfinite(*out) &&
           *out >= 0.0;
}

} // namespace nuat

#endif // NUAT_COMMON_PARSE_NUMBER_HH
