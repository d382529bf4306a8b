/**
 * @file
 * Command-line parsing shared by the nuat_sim and nuat_serve tools.
 */

#ifndef NUAT_TOOLS_CLI_ARGS_HH
#define NUAT_TOOLS_CLI_ARGS_HH

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

namespace nuat::cli {

/** The parseSchedulerKind() names, for diagnostics. */
inline constexpr const char *kSchedulerNames =
    "nuat | fcfs | frfcfs-open | frfcfs-close | frfcfs-adaptive";

/** How a tool reports a malformed flag value: the name that prefixes
 *  the one-line diagnostic, and its bad-command-line exit code. */
struct Tool
{
    const char *name;
    int usageExit;
};

/** Print "<tool>: <flag> needs <what>, got '<v>'" and exit. */
[[noreturn]] inline void
badValue(const Tool &tool, const std::string &flag, const char *what,
         const char *v)
{
    std::fprintf(stderr, "%s: %s needs %s, got '%s'\n", tool.name,
                 flag.c_str(), what, v);
    std::exit(tool.usageExit);
}

/**
 * Strict unsigned parse of @p flag's value @p v: every character must
 * be a decimal digit and the number must fit in T.  Anything else is a
 * usage error.
 */
template <typename T = std::uint64_t>
T
parseCount(const Tool &tool, const std::string &flag, const char *v)
{
    static_assert(std::is_unsigned_v<T>);
    char *end = nullptr;
    errno = 0;
    const unsigned long long u = std::strtoull(v, &end, 10);
    if (*v < '0' || *v > '9' || *end != '\0' || errno == ERANGE ||
        u > std::numeric_limits<T>::max())
        badValue(tool, flag, "an unsigned integer", v);
    return static_cast<T>(u);
}

/** Strict parse of a finite, non-negative real value. */
inline double
parseReal(const Tool &tool, const std::string &flag, const char *v)
{
    char *end = nullptr;
    const double d = std::strtod(v, &end);
    if (end == v || *end != '\0' || !std::isfinite(d) || d < 0.0)
        badValue(tool, flag, "a non-negative number", v);
    return d;
}

/** "a,b,,c" -> {"a", "b", "c"}. */
inline std::vector<std::string>
splitCommas(const std::string &arg)
{
    std::vector<std::string> out;
    std::string cur;
    for (const char ch : arg + ",") {
        if (ch != ',') {
            cur += ch;
        } else if (!cur.empty()) {
            out.push_back(cur);
            cur.clear();
        }
    }
    return out;
}

} // namespace nuat::cli

#endif // NUAT_TOOLS_CLI_ARGS_HH
