/**
 * @file
 * Command-line parsing shared by the nuat_sim and nuat_serve tools.
 */

#ifndef NUAT_TOOLS_CLI_ARGS_HH
#define NUAT_TOOLS_CLI_ARGS_HH

#include <string>
#include <vector>

namespace nuat::cli {

/** The parseSchedulerKind() names, for diagnostics. */
inline constexpr const char *kSchedulerNames =
    "nuat | fcfs | frfcfs-open | frfcfs-close | frfcfs-adaptive";

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
