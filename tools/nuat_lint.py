#!/usr/bin/env python3
"""nuat-lint: project-specific invariant checks the compiler can't do.

The simulator's correctness rests on a handful of repo conventions that
are invisible to the type system even after the strong-type refactor
(types.hh).  This linter enforces them statically, before a simulation
ever runs:

  observer-purity    ``CommandObserver`` implementations stay passive:
                     ``onCommand`` takes ``const Command &``, no
                     ``const_cast``, no mutable pointer/reference to
                     the device or controller.
  raw-timing         no raw ``double``/``int``/``unsigned`` variables
                     named like nanosecond quantities (``*_ns``,
                     ``*Ns``) outside the unit-type headers — time
                     crosses module boundaries as ``Nanoseconds`` or
                     ``Cycle`` only.
  preset-literal     no DDR timing constants assigned from numeric
                     literals (``tRCD = 17``, ``tRFC = 420``, ...)
                     in ``src/`` outside the generation tables —
                     device timings live in the dram_spec.cc presets
                     (and the DDR3 defaults in timing_params.hh), so
                     a preset edited in one place can't silently
                     disagree with a stray copy elsewhere.
  nondeterminism     simulation code (``src/``) must be bit-exact run
                     to run: no ``rand``/``srand``/``time()``/
                     ``std::random_device``/``mt19937``, no wall-clock
                     ``std::chrono`` outside the host-side runner, and
                     no iteration over unordered containers (iteration
                     order would leak into stats).
  fault-determinism  the fault-injection subsystem (``src/fault/``)
                     and the serve runtime's chaos/recovery paths
                     (``src/sim/serve_runtime.*``) must be a *pure
                     function* of (profile, seed, coordinates): no
                     ``std::rand``/``srand``/libc RNG, no ``<random>``
                     engines or distributions, and no stateful ``Rng``
                     (common/random.hh) either — consuming a shared
                     RNG stream makes the schedule depend on call
                     order and breaks replay/resume.  Derive
                     per-row/per-REF draws from a stateless hash of
                     (seed, salt, coordinates) instead.  Wall-clock
                     sleeps (``sleep_for``/``sleep_until``) are banned
                     too: backoff and recovery cadence must be
                     iteration-count based.
  shared-mutable-static
                     no non-const ``static`` data in the simulation
                     core (``src/core|dram|mem|charge|sched``) — a
                     mutable static is cross-experiment shared state
                     that breaks run-to-run isolation the moment the
                     parallel runner executes two Systems at once.
  atomic-ordering    every ``std::atomic`` load/store/RMW in ``src/``
                     names an explicit ``memory_order`` (and no
                     operator sugar like ``a++`` / ``a = v``): the
                     seq_cst default hides the protocol, so
                     mpsc_queue.hh's acq/rel hand-off stays a
                     deliberate, reviewable decision at every site.
  lock-discipline    every ``std::mutex``/``std::atomic`` declaration
                     in ``src/`` carries an annotation partner —
                     ``NUAT_GUARDED_BY`` data for each mutex,
                     ``NUAT_LOCK_FREE("protocol")`` (or a guard) on
                     each atomic — so shared state without a written
                     synchronization contract cannot land.
  include-guard      every header carries the canonical
                     ``NUAT_<PATH>_HH`` guard with a matching
                     ``#endif // NUAT_<PATH>_HH``.
  header-hygiene     headers never use ``#pragma once``, file-scope
                     ``using namespace``, or ``"../"`` relative
                     includes.

Suppression: append ``// nuat-lint: allow(<rule>)`` to the flagged
line.  Suppressions are themselves counted and printed with ``-v`` so
they can be audited.

AST pass: when the ``clang.cindex`` python bindings are importable,
libclang parses the tree as well — it re-checks observer purity
against real inheritance/overload resolution and catches
``std::atomic`` operator sugar (implicit seq_cst ``++``/``=``/reads)
that the regex core cannot see.  Without the bindings the regex core
runs alone (same rule set, same exit codes) and a one-line warning is
printed; set ``NUAT_LINT_REQUIRE_AST=1`` (the CI static-analysis lane
does) to hard-fail instead of silently downgrading.

Usage:
  tools/nuat_lint.py                # lint the whole tree
  tools/nuat_lint.py src/core      # lint a subset
  tools/nuat_lint.py --selftest    # prove each rule catches its
                                   # seeded violation (run by ctest)
  tools/nuat_lint.py --list-rules

Exit status: 0 clean, 1 findings, 2 internal/usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Directories scanned relative to the root (build trees excluded).
SCAN_DIRS = ("src", "tests", "bench", "examples", "tools")

SUPPRESS_RE = re.compile(r"//\s*nuat-lint:\s*allow\(([\w-]+(?:\s*,\s*[\w-]+)*)\)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule, self.message)


def _strip_comments(text):
    """Blank out comments and string literals, preserving line structure.

    Keeps every newline so line numbers computed on the stripped text
    match the original file; replaces comment/string bodies with spaces
    so regexes cannot match inside them.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            body = text[i : j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in body))
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(quote + " " * (j - i - 1) + (quote if j < n else ""))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def _suppressed(raw_lines, lineno, rule):
    if 1 <= lineno <= len(raw_lines):
        m = SUPPRESS_RE.search(raw_lines[lineno - 1])
        if m:
            allowed = {r.strip() for r in m.group(1).split(",")}
            return rule in allowed
    return False


# ---------------------------------------------------------------------------
# Rule: observer-purity
# ---------------------------------------------------------------------------

OBSERVER_INHERIT_RE = re.compile(r":\s*(?:public\s+|private\s+)?CommandObserver\b")
ONCOMMAND_NONCONST_RE = re.compile(r"\bonCommand\s*\(\s*Command\s*&")
MUTABLE_DEVICE_RE = re.compile(r"\b(DramDevice|MemoryController|System)\s*[*&]\s*\w")


def check_observer_purity(relpath, text, stripped):
    if not OBSERVER_INHERIT_RE.search(stripped):
        return []
    findings = []
    for m in re.finditer(r"\bconst_cast\b", stripped):
        findings.append(
            Finding(
                relpath,
                _line_of(stripped, m.start()),
                "observer-purity",
                "const_cast in a CommandObserver implementation "
                "(observers must stay passive)",
            )
        )
    for m in ONCOMMAND_NONCONST_RE.finditer(stripped):
        findings.append(
            Finding(
                relpath,
                _line_of(stripped, m.start()),
                "observer-purity",
                "onCommand must take 'const Command &'",
            )
        )
    for m in MUTABLE_DEVICE_RE.finditer(stripped):
        line_start = stripped.rfind("\n", 0, m.start()) + 1
        prefix = stripped[line_start : m.start()]
        if "const" in prefix:
            continue
        findings.append(
            Finding(
                relpath,
                _line_of(stripped, m.start()),
                "observer-purity",
                "mutable %s pointer/reference in an observer file — "
                "observers may not reach back into the device" % m.group(1),
            )
        )
    return findings


# ---------------------------------------------------------------------------
# AST pass (libclang) — first-class, not best-effort
# ---------------------------------------------------------------------------

# Lazy one-shot probe for the clang.cindex bindings.  The result is
# cached so the downgrade warning / REQUIRE_AST hard-fail and the pass
# itself agree on availability.
_AST_STATE = {"checked": False, "index": None, "cindex": None, "reason": None}
_AST_WARNED = [False]


def _ast_backend():
    """Load clang.cindex once; (index, cindex) or (None, None)."""
    if not _AST_STATE["checked"]:
        _AST_STATE["checked"] = True
        try:
            from clang import cindex  # type: ignore

            _AST_STATE["index"] = cindex.Index.create()
            _AST_STATE["cindex"] = cindex
        except Exception as exc:  # ImportError, LibclangError, ...
            _AST_STATE["reason"] = "%s: %s" % (type(exc).__name__, exc)
    return _AST_STATE["index"], _AST_STATE["cindex"]


def ast_required():
    return os.environ.get("NUAT_LINT_REQUIRE_AST", "").strip() not in ("", "0")


def _warn_ast_skipped():
    """One-line downgrade notice instead of the old silent skip."""
    if not _AST_WARNED[0]:
        _AST_WARNED[0] = True
        print(
            "nuat-lint: warning: clang.cindex unavailable (%s) — AST "
            "pass skipped, regex rules only; set NUAT_LINT_REQUIRE_AST=1 "
            "to make this fatal" % _AST_STATE["reason"],
            file=sys.stderr,
        )


def _ast_atomic_sugar(cur, cindex, rel):
    """Flag ++/--/compound-assign/plain '=' whose LHS is std::atomic —
    the implicit-seq_cst spellings regexes cannot see through
    references, members, or typedefs."""
    try:
        children = list(cur.get_children())
        if not children:
            return []
        lhs = children[0]
        type_s = lhs.type.spelling
    except Exception:
        return []
    if "atomic" not in type_s:
        return []
    if cur.kind == cindex.CursorKind.BINARY_OPERATOR:
        # Only plain assignment is an implicit store; ==/<= never
        # compile against an atomic LHS without a .load() first.  The
        # operator is the first token past the LHS extent.
        try:
            lhs_end = lhs.extent.end.offset
            op = next(
                (
                    tok.spelling
                    for tok in cur.get_tokens()
                    if tok.extent.start.offset >= lhs_end
                ),
                None,
            )
        except Exception:
            return []
        if op != "=":
            return []
    return [
        Finding(
            rel,
            cur.location.line,
            "atomic-ordering",
            "implicit seq_cst operation on '%s' (libclang) — spell it "
            "as .load/.store/.fetch_* with an explicit memory_order"
            % type_s,
        )
    ]


def run_ast_pass(root, relpaths):
    """libclang pass over src/: re-checks observer purity against real
    overload resolution and catches std::atomic operator sugar.

    Returns [] when the bindings are unavailable; lint_tree prints the
    one-line downgrade warning and main() exits 2 under
    NUAT_LINT_REQUIRE_AST=1 (the CI static-analysis lane sets it, so a
    broken libclang install fails loudly there instead of silently
    shrinking the rule set).
    """
    index, cindex = _ast_backend()
    if index is None:
        return []
    findings = []
    sugar_kinds = {
        cindex.CursorKind.UNARY_OPERATOR,
        cindex.CursorKind.BINARY_OPERATOR,
        cindex.CursorKind.COMPOUND_ASSIGNMENT_OPERATOR,
    }
    for rel in relpaths:
        if not rel.startswith("src/"):
            continue
        path = os.path.join(root, rel)
        try:
            tu = index.parse(
                path, args=["-std=c++20", "-I" + os.path.join(root, "src")]
            )
        except Exception:
            continue  # unparsable TU: the regex core still covered it
        for cur in tu.cursor.walk_preorder():
            try:
                loc = cur.location
                if loc.file is None or loc.file.name != path:
                    continue  # report only against the TU's own file
                if (
                    cur.kind == cindex.CursorKind.CXX_METHOD
                    and cur.spelling == "onCommand"
                ):
                    for arg in cur.get_arguments():
                        t = arg.type.spelling
                        if "Command" in t and "const" not in t:
                            findings.append(
                                Finding(
                                    rel,
                                    loc.line,
                                    "observer-purity",
                                    "onCommand parameter '%s' is not "
                                    "const (libclang)" % t,
                                )
                            )
                elif cur.kind in sugar_kinds:
                    findings.extend(_ast_atomic_sugar(cur, cindex, rel))
            except Exception:
                continue  # defensive: one odd cursor must not kill the pass
    return findings


# ---------------------------------------------------------------------------
# Rule: raw-timing
# ---------------------------------------------------------------------------

RAW_TIMING_ALLOW = {
    "src/common/types.hh",
    "src/common/units.hh",
    "src/dram/timing_params.hh",
    "src/dram/timing_params.cc",
}
RAW_TIMING_RE = re.compile(
    r"\b(?:double|float|int|unsigned(?:\s+(?:int|long))?|long(?:\s+long)?"
    r"|(?:std::)?u?int\d+_t)\s+(\w*(?:_ns|Ns)|ns|ns_)\b"
)


def check_raw_timing(relpath, text, stripped):
    if not relpath.startswith("src/") or relpath in RAW_TIMING_ALLOW:
        return []
    findings = []
    for m in RAW_TIMING_RE.finditer(stripped):
        findings.append(
            Finding(
                relpath,
                _line_of(stripped, m.start()),
                "raw-timing",
                "raw arithmetic type for nanosecond quantity '%s' — "
                "use Nanoseconds (common/types.hh)" % m.group(1),
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Rule: preset-literal
# ---------------------------------------------------------------------------

# The only two places a DDR timing number may be spelled as a literal:
# the generation preset tables and the DDR3 defaults they are pinned to.
PRESET_LITERAL_ALLOW = {
    "src/dram/timing_params.hh",
    "src/dram/dram_spec.cc",
}
# Longest alternatives first so tRCD doesn't half-match as tRC etc.
PRESET_LITERAL_RE = re.compile(
    r"\bt(?:REFSBRD|RFCpb|CCD_L|RRD_L|REFI|RTRS|RCD|RAS|CWL|CCD|RRD"
    r"|FAW|WTR|RTW|RTP|RFC|RP|RC|CL|BL|WR)\s*=\s*\d"
)


def check_preset_literal(relpath, text, stripped):
    if not relpath.startswith("src/") or relpath in PRESET_LITERAL_ALLOW:
        return []
    findings = []
    for m in PRESET_LITERAL_RE.finditer(stripped):
        findings.append(
            Finding(
                relpath,
                _line_of(stripped, m.start()),
                "preset-literal",
                "raw DDR timing literal '%s...' — generation timings "
                "belong in the dram_spec.cc preset tables (DDR3 "
                "defaults: timing_params.hh)" % m.group(0).strip(),
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Rule: nondeterminism
# ---------------------------------------------------------------------------

# Host-side experiment drivers may read the wall clock / spawn threads;
# nothing inside the simulated machine may.
CHRONO_ALLOW = {
    "src/sim/runner.cc",
    "src/sim/runner.hh",
    "src/sim/parallel_runner.cc",
    "src/sim/parallel_runner.hh",
}
BANNED_RANDOM_RE = re.compile(
    r"(?<![\w:.])(?:rand|srand)\s*\(|std::random_device|std::mt19937"
)
BANNED_TIME_RE = re.compile(r"(?<![\w:.>])time\s*\(")
CHRONO_RE = re.compile(r"std::chrono|steady_clock|system_clock")
UNORDERED_DECL_RE = re.compile(r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s+(\w+)")


def check_nondeterminism(relpath, text, stripped):
    if not relpath.startswith("src/"):
        return []
    findings = []
    for m in BANNED_RANDOM_RE.finditer(stripped):
        findings.append(
            Finding(
                relpath,
                _line_of(stripped, m.start()),
                "nondeterminism",
                "banned randomness source '%s' — use common/random.hh "
                "(seeded, splittable)" % m.group(0).strip(),
            )
        )
    for m in BANNED_TIME_RE.finditer(stripped):
        findings.append(
            Finding(
                relpath,
                _line_of(stripped, m.start()),
                "nondeterminism",
                "wall-clock time() in simulation code",
            )
        )
    if relpath not in CHRONO_ALLOW:
        for m in CHRONO_RE.finditer(stripped):
            findings.append(
                Finding(
                    relpath,
                    _line_of(stripped, m.start()),
                    "nondeterminism",
                    "std::chrono in simulation code (wall-clock leaks "
                    "into results); only the host-side runner may",
                )
            )
    unordered_vars = {m.group(1) for m in UNORDERED_DECL_RE.finditer(stripped)}
    if unordered_vars:
        for m in re.finditer(r"for\s*\([^;)]*:\s*(\w+)\s*\)", stripped):
            if m.group(1) in unordered_vars:
                findings.append(
                    Finding(
                        relpath,
                        _line_of(stripped, m.start()),
                        "nondeterminism",
                        "iteration over unordered container '%s' — "
                        "ordering is implementation-defined and leaks "
                        "into any stats it feeds; use a sorted copy or "
                        "an ordered container" % m.group(1),
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# Rule: fault-determinism
# ---------------------------------------------------------------------------

# Stricter than `nondeterminism`: inside src/fault/ even the repo's own
# seeded Rng is banned.  A FaultModel draw must depend only on its
# coordinates (seed, salt, rank, row / refIndex), never on how many
# draws happened before it, or fingerprint replay and golden snapshots
# fall apart the first time someone reorders two calls.
#
# The serve runtime's chaos/recovery paths (src/sim/serve_runtime.*)
# carry the same contract: backoff schedules, watchdog decisions and
# chaos injection must be pure functions of iteration counts and the
# (profile, seed) hash — no RNG, and no wall-clock sleeps either
# (std::this_thread::yield is fine; sleep_for smuggles wall time into
# the recovery cadence).
FAULT_BANNED_CALL_RE = re.compile(
    r"(?<![\w.])(?:std::)?(?:rand|srand|rand_r|drand48|lrand48|random)\s*\("
    r"|std::random_device|std::mt19937\w*|std::default_random_engine"
    r"|std::minstd_rand\w*|std::uniform_(?:int|real)_distribution"
)
FAULT_RNG_INCLUDE_RE = re.compile(r'#include\s+"common/random\.hh"')
FAULT_RNG_STATE_RE = re.compile(r"\bRng\b")
FAULT_SLEEP_RE = re.compile(r"\bsleep_(?:for|until)\s*\(")
FAULT_DETERMINISM_PATHS = ("src/fault/", "src/sim/serve_runtime")


def check_fault_determinism(relpath, text, stripped):
    if not relpath.startswith(FAULT_DETERMINISM_PATHS):
        return []
    findings = []
    for m in FAULT_SLEEP_RE.finditer(stripped):
        findings.append(
            Finding(
                relpath,
                _line_of(stripped, m.start()),
                "fault-determinism",
                "wall-clock sleep in a determinism-critical path — "
                "backoff and recovery cadence must be iteration-count "
                "based (yield, not sleep_for/sleep_until)",
            )
        )
    for m in FAULT_BANNED_CALL_RE.finditer(stripped):
        findings.append(
            Finding(
                relpath,
                _line_of(stripped, m.start()),
                "fault-determinism",
                "RNG '%s' in the fault subsystem — fault schedules "
                "must be a stateless hash of (seed, coordinates)"
                % m.group(0).strip(),
            )
        )
    for m in FAULT_RNG_INCLUDE_RE.finditer(text):
        findings.append(
            Finding(
                relpath,
                _line_of(text, m.start()),
                "fault-determinism",
                "common/random.hh included in src/fault/ — even the "
                "seeded Rng is stateful (draw order changes the "
                "schedule); use a per-coordinate hash",
            )
        )
    for m in FAULT_RNG_STATE_RE.finditer(stripped):
        findings.append(
            Finding(
                relpath,
                _line_of(stripped, m.start()),
                "fault-determinism",
                "stateful Rng in the fault subsystem — draws must "
                "depend only on (seed, salt, coordinates)",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Rule: shared-mutable-static
# ---------------------------------------------------------------------------

# The simulation core: everything instantiated once per experiment.
# Host-side drivers (sim/, common/) may keep process-wide state behind
# annotated locks; the core may not have any at all — a mutable static
# is shared across every System the parallel runner drives at once.
SHARED_STATIC_DIRS = (
    "src/core/",
    "src/dram/",
    "src/mem/",
    "src/charge/",
    "src/sched/",
)
# `\bstatic[ \t]` cannot match static_cast / static_assert (the next
# character there is '_', not whitespace).
STATIC_KEYWORD_RE = re.compile(r"\bstatic[ \t]")
CONST_QUAL_RE = re.compile(r"\b(?:const|constexpr|consteval|constinit)\b")


def check_shared_mutable_static(relpath, text, stripped):
    if not relpath.startswith(SHARED_STATIC_DIRS):
        return []
    findings = []
    for m in STATIC_KEYWORD_RE.finditer(stripped):
        # The declaration runs to the first of ';' '=' '(' '{'.  A '('
        # first means a function; const/constexpr anywhere before that
        # means immutable — both are fine.
        rest = stripped[m.end() : m.end() + 400]
        cut, term = len(rest), ""
        for i, ch in enumerate(rest):
            if ch in ";=({":
                cut, term = i, ch
                break
        decl = rest[:cut]
        if term == "(" or CONST_QUAL_RE.search(decl):
            continue
        names = re.findall(r"\w+", decl)
        findings.append(
            Finding(
                relpath,
                _line_of(stripped, m.start()),
                "shared-mutable-static",
                "mutable static '%s' in the simulation core — statics "
                "outlive the experiment and are shared across every "
                "System the parallel runner drives; move it into the "
                "owning object" % (names[-1] if names else "<anonymous>"),
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Rule: atomic-ordering
# ---------------------------------------------------------------------------

ATOMIC_METHOD_RE = re.compile(
    r"\.\s*(load|store|exchange|fetch_(?:add|sub|and|or|xor)"
    r"|compare_exchange_(?:weak|strong)|test_and_set)\s*\("
)
ATOMIC_DECL_RE = re.compile(r"\bstd::atomic(?:_flag\b|\s*<[^;{}()]*>)\s+(\w+)")


def _balanced_args(stripped, open_paren):
    """The argument text of the call whose '(' sits at @p open_paren."""
    depth = 0
    for i in range(open_paren, len(stripped)):
        c = stripped[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return stripped[open_paren + 1 : i]
    return stripped[open_paren + 1 :]


def check_atomic_ordering(relpath, text, stripped):
    if not relpath.startswith("src/") or "std::atomic" not in stripped:
        return []
    findings = []
    for m in ATOMIC_METHOD_RE.finditer(stripped):
        if "memory_order" in _balanced_args(stripped, m.end() - 1):
            continue
        findings.append(
            Finding(
                relpath,
                _line_of(stripped, m.start()),
                "atomic-ordering",
                ".%s() without an explicit memory_order — the seq_cst "
                "default hides the synchronization protocol; name the "
                "ordering (and say why in a comment)" % m.group(1),
            )
        )
    # Operator sugar on declared atomics: ++/--/compound-assign and
    # plain '=' are implicit seq_cst operations in disguise.
    decl_lines = set()
    atomics = set()
    for m in ATOMIC_DECL_RE.finditer(stripped):
        atomics.add(m.group(1))
        decl_lines.add(_line_of(stripped, m.start()))
    for name in sorted(atomics):
        sugar = re.compile(
            r"(?:\+\+|--)\s*\b%s\b"
            r"|\b%s\s*(?:\+\+|--|(?:[-+|&^]|<<|>>)?=(?!=))"
            % (re.escape(name), re.escape(name))
        )
        for m in sugar.finditer(stripped):
            line = _line_of(stripped, m.start())
            if line in decl_lines:
                continue  # '= init' on the declaration itself
            # `Type name = ...` declares a (shadowing) local, not a
            # store: skip when a type token directly precedes the name.
            # `obj.name =` / `this->name =` are real implicit stores.
            prefix = stripped[stripped.rfind("\n", 0, m.start()) + 1 : m.start()]
            if not prefix.rstrip().endswith("->") and re.search(
                r"[\w>\]&*]\s*$", prefix
            ):
                continue
            findings.append(
                Finding(
                    relpath,
                    line,
                    "atomic-ordering",
                    "operator sugar on std::atomic '%s' (implicit "
                    "seq_cst) — spell it as .load/.store/.fetch_* with "
                    "an explicit memory_order" % name,
                )
            )
    return findings


# ---------------------------------------------------------------------------
# Rule: lock-discipline
# ---------------------------------------------------------------------------

# The annotation vocabulary itself lives here; the wrapped std::mutex
# and ThreadConfined's owner cell are the one place it cannot apply to.
LOCK_DISCIPLINE_ALLOW = {"src/common/thread_annotations.hh"}
MUTEX_DECL_RE = re.compile(
    r"\b(?:nuat::)?(?:Mutex|std::(?:recursive_|shared_|timed_)?mutex)"
    r"\s+(\w+)\s*[;{=]"
)
GUARD_TOKEN_RE = re.compile(r"\bNUAT_(?:PT_)?GUARDED_BY\s*\(|\bNUAT_REQUIRES\s*\(")


def check_lock_discipline(relpath, text, stripped):
    if not relpath.startswith("src/") or relpath in LOCK_DISCIPLINE_ALLOW:
        return []
    findings = []
    lines = stripped.splitlines()
    has_guard = GUARD_TOKEN_RE.search(stripped) is not None
    for m in MUTEX_DECL_RE.finditer(stripped):
        if has_guard:
            break  # the file names guarded data somewhere
        findings.append(
            Finding(
                relpath,
                _line_of(stripped, m.start()),
                "lock-discipline",
                "mutex '%s' but no NUAT_GUARDED_BY anywhere in the "
                "file — a lock must name the data it protects "
                "(common/thread_annotations.hh)" % m.group(1),
            )
        )
    for m in ATOMIC_DECL_RE.finditer(stripped):
        line = _line_of(stripped, m.start())
        # NUAT_LOCK_FREE may sit on the declaration line or wrap onto
        # a neighbour; check a one-line window either side.
        window = "\n".join(lines[max(0, line - 2) : line + 1])
        if "NUAT_LOCK_FREE" in window or "NUAT_GUARDED_BY" in window:
            continue
        findings.append(
            Finding(
                relpath,
                line,
                "lock-discipline",
                'std::atomic \'%s\' without NUAT_LOCK_FREE("protocol") '
                "or NUAT_GUARDED_BY — every atomic must document its "
                "ordering contract where it is declared" % m.group(1),
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Rules: include-guard + header-hygiene
# ---------------------------------------------------------------------------


def expected_guard(relpath):
    rel = relpath[4:] if relpath.startswith("src/") else relpath
    stem = rel[: -len(".hh")]
    return "NUAT_" + re.sub(r"[/.-]", "_", stem).upper() + "_HH"


def check_include_guard(relpath, text, stripped):
    if not relpath.endswith(".hh"):
        return []
    findings = []
    guard = expected_guard(relpath)
    ifndef = re.search(r"^#ifndef\s+(\w+)\s*$", text, re.M)
    if not ifndef or ifndef.group(1) != guard:
        findings.append(
            Finding(
                relpath,
                _line_of(text, ifndef.start()) if ifndef else 1,
                "include-guard",
                "expected include guard '#ifndef %s'%s"
                % (guard, " (found '%s')" % ifndef.group(1) if ifndef else ""),
            )
        )
        return findings
    if not re.search(r"^#define\s+%s\s*$" % guard, text, re.M):
        findings.append(
            Finding(
                relpath,
                _line_of(text, ifndef.start()),
                "include-guard",
                "missing '#define %s' after the guard" % guard,
            )
        )
    if not re.search(r"^#endif\s*//\s*%s\s*$" % guard, text, re.M):
        findings.append(
            Finding(
                relpath,
                text.count("\n"),
                "include-guard",
                "file must close with '#endif // %s'" % guard,
            )
        )
    return findings


def check_header_hygiene(relpath, text, stripped):
    if not relpath.endswith(".hh"):
        return []
    findings = []
    for m in re.finditer(r"^\s*#pragma\s+once", text, re.M):
        findings.append(
            Finding(
                relpath,
                _line_of(text, m.start()),
                "header-hygiene",
                "#pragma once — this tree uses NUAT_*_HH guards",
            )
        )
    for m in re.finditer(r"^\s*using\s+namespace\b", stripped, re.M):
        findings.append(
            Finding(
                relpath,
                _line_of(stripped, m.start()),
                "header-hygiene",
                "file-scope 'using namespace' in a header leaks into "
                "every includer",
            )
        )
    for m in re.finditer(r'#include\s+"\.\./', text):
        findings.append(
            Finding(
                relpath,
                _line_of(text, m.start()),
                "header-hygiene",
                'parent-relative #include "../..." — include from the '
                "source root instead",
            )
        )
    return findings


RULES = {
    "observer-purity": check_observer_purity,
    "raw-timing": check_raw_timing,
    "preset-literal": check_preset_literal,
    "nondeterminism": check_nondeterminism,
    "fault-determinism": check_fault_determinism,
    "shared-mutable-static": check_shared_mutable_static,
    "atomic-ordering": check_atomic_ordering,
    "lock-discipline": check_lock_discipline,
    "include-guard": check_include_guard,
    "header-hygiene": check_header_hygiene,
}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def collect_files(root, subset=None):
    files = []
    for d in SCAN_DIRS:
        top = os.path.join(root, d)
        if not os.path.isdir(top):
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = [n for n in dirnames if not n.startswith("build")]
            for name in sorted(filenames):
                if not name.endswith((".hh", ".cc")):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name), root)
                if subset and not any(
                    rel == s or rel.startswith(s.rstrip("/") + "/") for s in subset
                ):
                    continue
                files.append(rel)
    return files


def lint_tree(root, subset=None, verbose=False):
    findings, suppressed = [], []
    relpaths = collect_files(root, subset)
    raw_by_rel = {}
    for rel in relpaths:
        with open(os.path.join(root, rel), encoding="utf-8") as fh:
            text = fh.read()
        raw_lines = text.splitlines()
        raw_by_rel[rel] = raw_lines
        stripped = _strip_comments(text)
        for rule_fn in RULES.values():
            for f in rule_fn(rel, text, stripped):
                if _suppressed(raw_lines, f.line, f.rule):
                    suppressed.append(f)
                else:
                    findings.append(f)
    if _ast_backend()[0] is None:
        _warn_ast_skipped()
    else:
        seen = {(f.path, f.line, f.rule) for f in findings}
        for f in run_ast_pass(root, relpaths):
            if (f.path, f.line, f.rule) in seen:
                continue  # regex core already reported this site
            if _suppressed(raw_by_rel.get(f.path, []), f.line, f.rule):
                suppressed.append(f)
            else:
                findings.append(f)
    if verbose and suppressed:
        print("suppressed (%d):" % len(suppressed))
        for f in suppressed:
            print("  %s" % f)
    return findings


# ---------------------------------------------------------------------------
# Selftest: one deliberately broken fixture per rule (mirrors the
# auditor's mutation self-test: a rule that cannot catch its seeded
# violation fails the build).
# ---------------------------------------------------------------------------

FIXTURES = {
    "observer-purity": (
        "src/verify/broken_observer.hh",
        """
#ifndef NUAT_VERIFY_BROKEN_OBSERVER_HH
#define NUAT_VERIFY_BROKEN_OBSERVER_HH
class Spy : public CommandObserver
{
  public:
    void onCommand(Command &cmd, Cycle now) override;

  private:
    DramDevice *victim_;
};
#endif // NUAT_VERIFY_BROKEN_OBSERVER_HH
""",
    ),
    "raw-timing": (
        "src/charge/broken_timing.cc",
        """
double slack(double budget_ns)
{
    unsigned senseNs = 4;
    return budget_ns - senseNs;
}
""",
    ),
    "preset-literal": (
        "src/mem/broken_preset.cc",
        """
void tweak(TimingParams &tp)
{
    tp.tRFC = 420;
    tp.tCCD_L = 6;
}
""",
    ),
    "nondeterminism": (
        "src/core/broken_random.cc",
        """
#include <unordered_map>
int jitter() { return rand() % 7; }
double tally()
{
    std::unordered_map<int, double> perBank;
    double sum = 0.0;
    for (auto &kv : perBank)
        sum += kv.second;
    return sum;
}
""",
    ),
    "fault-determinism": (
        "src/fault/broken_fault_rng.cc",
        """
#include <cstdlib>
#include "common/random.hh"
double leakDraw()
{
    Rng rng(1234);
    return static_cast<double>(std::rand() % 100) / 100.0;
}
""",
    ),
    # The serve runtime's chaos/recovery paths carry the same
    # determinism contract as src/fault/ (see FAULT_DETERMINISM_PATHS):
    # no RNG in backoff/watchdog decisions, and no wall-clock sleeps.
    "fault-determinism#serve": (
        "src/sim/serve_runtime.cc",
        """
#include <chrono>
#include <thread>
#include "common/random.hh"
unsigned jitterBackoff()
{
    Rng rng(99);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return 1;
}
""",
    ),
    "shared-mutable-static": (
        "src/sched/broken_static.cc",
        """
namespace nuat {
static unsigned long issuedTotal = 0;
}
static double lastScore = 0.0;
void note(double score)
{
    lastScore = score;
}
""",
    ),
    "atomic-ordering": (
        "src/core/broken_atomic.cc",
        """
#include <atomic>
std::atomic<unsigned> ready NUAT_LOCK_FREE("fixture"){0};
void poke()
{
    ready.store(1);
    ready.fetch_add(2);
    ++ready;
}
unsigned peek() { return ready.load(); }
""",
    ),
    "lock-discipline": (
        "src/mem/broken_lock.hh",
        """
#ifndef NUAT_MEM_BROKEN_LOCK_HH
#define NUAT_MEM_BROKEN_LOCK_HH
#include <atomic>
#include <mutex>
struct Racy
{
    std::mutex m_;
    std::atomic<unsigned> inFlight_{0};
};
#endif // NUAT_MEM_BROKEN_LOCK_HH
""",
    ),
    "include-guard": (
        "src/mem/broken_guard.hh",
        """
#ifndef WRONG_GUARD_H
#define WRONG_GUARD_H
struct Nothing {};
#endif
""",
    ),
    "header-hygiene": (
        "src/dram/broken_hygiene.hh",
        """
#ifndef NUAT_DRAM_BROKEN_HYGIENE_HH
#define NUAT_DRAM_BROKEN_HYGIENE_HH
#include "../common/types.hh"
using namespace std;
struct Nothing {};
#endif // NUAT_DRAM_BROKEN_HYGIENE_HH
""",
    ),
}

CLEAN_FIXTURE = (
    "src/core/clean_example.hh",
    """
#ifndef NUAT_CORE_CLEAN_EXAMPLE_HH
#define NUAT_CORE_CLEAN_EXAMPLE_HH
#include "common/types.hh"
namespace nuat {
struct CleanExample
{
    Nanoseconds budget{};
};
} // namespace nuat
#endif // NUAT_CORE_CLEAN_EXAMPLE_HH
""",
)


def selftest():
    failures = 0
    with tempfile.TemporaryDirectory(prefix="nuat_lint_selftest.") as tmp:
        for rule, (rel, body) in sorted(FIXTURES.items()):
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(body.lstrip("\n"))
        rel, body = CLEAN_FIXTURE
        path = os.path.join(tmp, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(body.lstrip("\n"))

        findings = lint_tree(tmp)
        by_file = {}
        for f in findings:
            by_file.setdefault(f.path, set()).add(f.rule)

        for rule, (rel, _) in sorted(FIXTURES.items()):
            got = by_file.get(rel, set())
            # "rule#variant" keys are extra fixtures for one rule
            # (e.g. fault-determinism has a src/fault/ fixture and a
            # serve-runtime one); the rule name is the part before '#'.
            want = rule.split("#")[0]
            if want in got:
                print("PASS  %-16s caught by fixture %s" % (rule, rel))
            else:
                print(
                    "FAIL  %-16s fixture %s raised %s"
                    % (rule, rel, sorted(got) or "nothing")
                )
                failures += 1
        clean_hits = by_file.get(CLEAN_FIXTURE[0], set())
        if clean_hits:
            print("FAIL  clean fixture raised %s" % sorted(clean_hits))
            failures += 1
        else:
            print("PASS  clean fixture raises nothing")

        # Suppression escape hatch must work: append an allow() to every
        # flagged line of one fixture and expect silence for that rule.
        rel, _ = FIXTURES["raw-timing"]
        path = os.path.join(tmp, rel)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for f in findings:
            if f.path == rel and f.rule == "raw-timing":
                lines[f.line - 1] += "  // nuat-lint: allow(raw-timing)"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        residue = [
            f
            for f in lint_tree(tmp, subset=[rel])
            if f.rule == "raw-timing" and f.path == rel
        ]
        if residue:
            print("FAIL  allow(raw-timing) suppression did not silence %d" % len(residue))
            failures += 1
        else:
            print("PASS  allow(<rule>) suppression works")
    if failures:
        print("selftest: %d FAILURES" % failures)
        return 1
    rules = {rule.split("#")[0] for rule in FIXTURES}
    print("selftest: all %d rules verified" % len(rules))
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", help="restrict to these paths (repo-relative)")
    ap.add_argument("--root", default=REPO_ROOT, help="repository root")
    ap.add_argument("--selftest", action="store_true", help="verify every rule fires on its broken fixture")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("-v", "--verbose", action="store_true", help="also print suppressed findings")
    args = ap.parse_args(argv)

    if ast_required() and _ast_backend()[0] is None:
        print(
            "nuat-lint: error: NUAT_LINT_REQUIRE_AST=1 but clang.cindex "
            "is unavailable (%s) — install the libclang python bindings "
            "or unset the variable" % _AST_STATE["reason"],
            file=sys.stderr,
        )
        return 2

    if args.list_rules:
        for name in sorted(RULES):
            print(name)
        return 0
    if args.selftest:
        return selftest()

    findings = lint_tree(args.root, subset=args.paths or None, verbose=args.verbose)
    for f in findings:
        print(f)
    if findings:
        print("nuat-lint: %d finding(s)" % len(findings))
        return 1
    print("nuat-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
