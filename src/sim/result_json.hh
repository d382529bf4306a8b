/**
 * @file
 * Canonical JSON serialization of a RunResult and a ServeResult.
 *
 * The encoding is deterministic — fixed key order, doubles printed with
 * %.17g (round-trip exact), no locale dependence — so two results are
 * equal iff their JSON strings are byte-identical.  The golden
 * regression suite relies on this: snapshots under tests/golden/ are
 * compared as strings, and tools/regen_golden.sh rewrites them.
 */

#ifndef NUAT_SIM_RESULT_JSON_HH
#define NUAT_SIM_RESULT_JSON_HH

#include <string>

#include "experiment_config.hh"
#include "serve_runtime.hh"

namespace nuat {

/** Serialize @p result as canonical, pretty-printed JSON. */
std::string runResultToJson(const RunResult &result);

/**
 * Serialize @p result as canonical JSON on one line (no trailing
 * newline), starting `{"serve":"sharded"`.  nuat_serve --json prints
 * it with its wall-clock fields appended.
 */
std::string serveResultToJson(const ServeResult &result);

} // namespace nuat

#endif // NUAT_SIM_RESULT_JSON_HH
