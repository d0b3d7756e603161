#!/usr/bin/env python3
"""echolint: project-specific static checks for the EchoImage codebase.

Rules
-----
R1  no-unseeded-randomness
    std::random_device, rand()/srand(), and wall-clock time() seeds are
    banned everywhere (src, tests, bench, examples, tools). Every random
    stream in this project must come from an explicitly seeded generator,
    or reproducibility (and the golden-image regression) is gone.

R2  no-raw-threading-outside-runtime
    <thread>/<mutex>/<atomic>/<condition_variable>/<future> and their
    std:: types are confined to src/runtime. Library code asks the
    runtime layer (ThreadPool, resolve_workers) for parallelism so the
    deterministic-reduction contract stays in one place.

R3  no-bare-double-unit-parameters
    Function parameters named *_hz / *_m / speed_of_sound declared as
    bare `double` in public headers (outside src/units) must use the
    src/units quantity types instead. Existing raw-double boundaries are
    grandfathered in the suppression file; new ones fail the build.

R4  no-iostream-in-library
    <iostream>/<cstdio> and cout/cerr/printf are banned in library code
    under src/. Libraries return data; tools, benches, examples, and
    tests do the talking.

R5  no-unbounded-queues-or-deadline-free-waits
    std::queue / std::deque / std::priority_queue and blocking waits
    without a deadline (condition_variable::wait, as opposed to
    wait_for/wait_until) are banned in library code outside src/serve
    and src/runtime. Overload robustness is a global property: one
    unbounded buffer or one wait that can block forever anywhere on the
    serving path defeats the bounded-ingest design. The serving and
    runtime layers own the sanctioned bounded structures (BoundedRing,
    IngestQueue) and the deadline-aware waits.

R6  no-raw-file-writes-outside-store
    std::ofstream and fopen/freopen are banned in library code outside
    src/store. Crash consistency is only as strong as the weakest
    writer: a raw stream write is torn by a crash mid-buffer, so every
    durable byte must go through store::StorageEnv (atomic_write_file:
    tmp -> flush -> rename). Tools, benches, examples, and tests may
    write freely; reading (std::ifstream) is unrestricted.

R7  no-raw-sync-outside-sync-layer
    Raw std synchronization (std::mutex, std::shared_mutex,
    std::condition_variable, lock_guard/unique_lock/shared_lock/
    scoped_lock and the <mutex>/<shared_mutex>/<condition_variable>
    headers) is banned in library code everywhere except
    src/runtime/sync.hpp. That file wraps the primitives in Clang
    thread-safety capabilities (EI_CAPABILITY / EI_GUARDED_BY /
    EI_REQUIRES); a raw primitive anywhere else is invisible to the
    analysis, so -Werror=thread-safety proves nothing about it.
    Tighter than R2: R2 exempts all of src/runtime, R7 exempts only
    the capability layer itself.

R9  no-raw-intrinsics-outside-simd
    SIMD intrinsic headers (<immintrin.h>, <arm_neon.h>, ...) and raw
    intrinsic spellings (_mm*/__m128/__m256/__m512, NEON vector types
    and v*q_f64-style calls) are confined to src/simd. Everything else
    goes through simd::kernels(): the dispatch table is what makes the
    forced-lane tests, the scalar CI fallback, and the bit-transparency
    contract enforceable. Applies to every scanned root (tests and
    benches too — they must exercise lanes via simd::ScopedIsa, not by
    hand-rolling vector code).

R8  guard-mutable-fields-near-capabilities
    Heuristic: in a library file that declares a sync::Mutex /
    sync::SharedMutex / RegionLock capability, a `mutable` data member
    without an EI_GUARDED_BY / EI_PT_GUARDED_BY annotation (and not a
    std::atomic) is suspicious — `mutable` near a capability usually
    means "written under the lock from const methods", and an
    unannotated field silently escapes the thread-safety analysis.
    Annotate it, make it atomic, or suppress with a comment explaining
    the ownership discipline.

R10 no-test-only-public-functions
    A namespace-scope function declared in a src/ header whose only
    callers are tests is dead weight: it must be tested, documented and
    kept bit-exact, yet nothing the system runs reaches it. R10 flags
    such a function when, outside comments and strings, its name occurs
    at most twice in its header plus the same-stem .cpp (declaration
    and definition) and nowhere in any other file under src/, bench/,
    examples/, tools/ or perfbench/. perfbench/ is read for callers but
    never linted. Delete the function, or suppress it with the reason it
    stays.

Suppressions are a shrink-only ratchet: a suppression line that matches
no violation fails the run, so a fixed exception cannot linger.

Usage
-----
  echolint.py [--root DIR] [--compile-commands PATH]
              [--suppressions PATH] [--fix-hints] [--self-test]

Exit status: 0 clean, 1 violations found, 2 bad invocation / setup.

The checker is compile_commands.json-aware: when the database exists it
is used to enumerate first-party translation units (so generated or
out-of-tree sources are never scanned); headers are discovered by
walking the scanned roots. Without a database the checker falls back to
a plain directory walk and says so.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
from typing import Iterable, NamedTuple

SCAN_ROOTS = ("src", "tests", "bench", "examples", "tools")
# Where R10 looks for callers: every scanned root except tests, plus the
# benchmark driver, which is read but never linted.
CALLER_ROOTS = ("src", "bench", "examples", "tools", "perfbench")
LIBRARY_ROOT = "src"
RUNTIME_PREFIX = os.path.join("src", "runtime")
UNITS_PREFIX = os.path.join("src", "units")
SERVE_PREFIX = os.path.join("src", "serve")
STORE_PREFIX = os.path.join("src", "store")
CXX_EXTENSIONS = (".cpp", ".hpp", ".cc", ".hh", ".cxx", ".h")


class Violation(NamedTuple):
    rule: str
    path: str  # repo-relative, forward slashes
    line: int
    text: str  # offending excerpt


class Suppression(NamedTuple):
    rule: str
    path: str
    token: str  # "" matches any violation of (rule, path)


RULE_TITLES = {
    "R1": "no-unseeded-randomness",
    "R2": "no-raw-threading-outside-runtime",
    "R3": "no-bare-double-unit-parameters",
    "R4": "no-iostream-in-library",
    "R5": "no-unbounded-queues-or-deadline-free-waits",
    "R6": "no-raw-file-writes-outside-store",
    "R7": "no-raw-sync-outside-sync-layer",
    "R8": "guard-mutable-fields-near-capabilities",
    "R9": "no-raw-intrinsics-outside-simd",
    "R10": "no-test-only-public-functions",
}

FIX_HINTS = {
    "R1": "seed an explicit engine (sim::Rng / std::mt19937{seed}) instead; "
          "thread the seed through the config or test fixture",
    "R2": "use echoimage::runtime (ThreadPool, parallel_for, resolve_workers) "
          "or move the code into src/runtime",
    "R3": "take echoimage::units::{Meters,Hertz,MetersPerSecond,...} and "
          "unwrap with .value() at the numeric core",
    "R4": "return data (struct / string) and let the caller in tools/bench "
          "print it; std::ostringstream is fine for describe() helpers",
    "R5": "use runtime::BoundedRing / serve::IngestQueue (bounded by "
          "construction) instead of std::queue/deque, and wait_for/"
          "wait_until with an explicit budget instead of wait()",
    "R6": "write through store::StorageEnv (atomic_write_file is the only "
          "sanctioned durable write: tmp -> flush -> rename), or return "
          "the bytes and let a tool do the writing",
    "R7": "use runtime::sync::{Mutex,SharedMutex,CondVar,LockGuard,"
          "SharedLockGuard,UniqueLock} so the Clang thread-safety "
          "analysis sees the acquisition; raw std primitives belong "
          "only inside src/runtime/sync.hpp",
    "R8": "annotate the member with EI_GUARDED_BY(<capability>) (or "
          "EI_PT_GUARDED_BY for pointees), make it a std::atomic, or "
          "suppress with a comment explaining the ownership discipline",
    "R9": "call through simd::kernels() / simd::kernels_for(isa), or add "
          "the kernel to src/simd (one table entry per lane + a scalar "
          "reference + a tests/simd differential case)",
    "R10": "delete the function (and its tests), or add a suppression "
           "line naming it with the reason it stays",
}

R1_PATTERNS = [
    re.compile(r"std\s*::\s*random_device"),
    re.compile(r"(?<![\w:])s?rand\s*\("),
    re.compile(r"(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
]

R2_PATTERNS = [
    re.compile(r"#\s*include\s*<(?:thread|mutex|shared_mutex|atomic|"
               r"condition_variable|future)>"),
    re.compile(r"std\s*::\s*(?:jthread|thread|async|mutex|shared_mutex|"
               r"recursive_mutex|condition_variable(?:_any)?|atomic\b|"
               r"atomic_\w+|future|promise)"),
]

R3_PATTERN = re.compile(r"\bdouble\s+(\w*(?:_hz|_m|speed_of_sound))\b")

R4_PATTERNS = [
    re.compile(r"#\s*include\s*<(?:iostream|cstdio|stdio\.h)>"),
    re.compile(r"std\s*::\s*(?:cout|cerr|clog|printf|fprintf|puts)\b"),
    re.compile(r"(?<![\w:])f?printf\s*\("),
]

R5_PATTERNS = [
    re.compile(r"#\s*include\s*<(?:queue|deque)>"),
    re.compile(r"std\s*::\s*(?:queue|deque|priority_queue)\b"),
    # `.wait(` only: wait_for / wait_until carry their own deadline and
    # never match this spelling.
    re.compile(r"\.\s*wait\s*\("),
]

R6_PATTERNS = [
    # ofstream only: ifstream reads cannot tear anything.
    re.compile(r"std\s*::\s*ofstream"),
    re.compile(r"(?<![\w:])f(?:re)?open\s*\("),
]

SYNC_LAYER = "src/runtime/sync.hpp"

R7_PATTERNS = [
    re.compile(r"#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>"),
    re.compile(r"std\s*::\s*(?:mutex|shared_mutex|recursive_mutex|"
               r"timed_mutex|recursive_timed_mutex|shared_timed_mutex|"
               r"lock_guard|unique_lock|shared_lock|scoped_lock|"
               r"condition_variable(?:_any)?)\b"),
]

SIMD_PREFIX = os.path.join("src", "simd")

R9_PATTERNS = [
    re.compile(r"#\s*include\s*<(?:immintrin|x86intrin|emmintrin|"
               r"xmmintrin|pmmintrin|tmmintrin|smmintrin|nmmintrin|"
               r"wmmintrin|avxintrin|avx2intrin|arm_neon|arm_sve)\.h>"),
    re.compile(r"\b_mm(?:256|512)?_\w+"),
    re.compile(r"\b__m(?:128|256|512)[dih]?\b"),
    # NEON vector types (float64x2_t, int32x4x2_t, ...) and load/store/
    # arithmetic intrinsic spellings (vld2q_f64, vmulq_f32, ...).
    re.compile(r"\b(?:float|poly|u?int)(?:8|16|32|64)x\d+(?:x\d+)?_t\b"),
    re.compile(r"\bv(?:ld|st|mul|add|sub|mla|mls|fma|get|set|dup|rev|"
               r"ext|zip|uzp|trn)\w*q?_[fsupn]\d+\w*"),
]

# R8: a file "declares a capability" when it names one of the sync-layer
# types (or the runtime RegionLock alias) outside comments/strings.
R8_TRIGGER = re.compile(r"sync\s*::\s*(?:Mutex|SharedMutex|CondVar)\b|"
                        r"\bRegionLock\b")
R8_MUTABLE = re.compile(r"^\s*mutable\b")
# Lines that are themselves capability/primitive declarations are exempt:
# the capability cannot guard itself.
R8_EXEMPT = re.compile(r"sync\s*::\s*(?:Mutex|SharedMutex|CondVar)\b|"
                       r"\bRegionLock\b|"
                       r"std\s*::\s*(?:mutex|shared_mutex|"
                       r"condition_variable)\b")


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving newlines and
    column positions so line numbers and paren depth survive."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join("\n" if ch == "\n" else " "
                               for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i > 1 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def iter_pattern_hits(code: str, patterns: Iterable[re.Pattern]):
    for pat in patterns:
        for m in pat.finditer(code):
            yield m


def line_of(code: str, pos: int) -> int:
    return code.count("\n", 0, pos) + 1


def paren_depth_at(code: str, pos: int) -> int:
    return code.count("(", 0, pos) - code.count(")", 0, pos)


def check_file(rel_path: str, text: str) -> list[Violation]:
    code = strip_comments_and_strings(text)
    out: list[Violation] = []
    norm = rel_path.replace(os.sep, "/")
    in_library = norm.startswith(LIBRARY_ROOT + "/")
    in_runtime = norm.startswith(RUNTIME_PREFIX.replace(os.sep, "/") + "/")
    in_units = norm.startswith(UNITS_PREFIX.replace(os.sep, "/") + "/")
    in_serve = norm.startswith(SERVE_PREFIX.replace(os.sep, "/") + "/")
    in_store = norm.startswith(STORE_PREFIX.replace(os.sep, "/") + "/")
    is_header = norm.endswith((".hpp", ".hh", ".h"))

    for m in iter_pattern_hits(code, R1_PATTERNS):
        out.append(Violation("R1", norm, line_of(code, m.start()),
                             m.group(0).strip()))

    if in_library and not in_runtime:
        for m in iter_pattern_hits(code, R2_PATTERNS):
            out.append(Violation("R2", norm, line_of(code, m.start()),
                                 m.group(0).strip()))

    if in_library and not in_units and is_header:
        for m in R3_PATTERN.finditer(code):
            # Parameters live inside parentheses; struct members do not.
            if paren_depth_at(code, m.start()) > 0:
                out.append(Violation("R3", norm, line_of(code, m.start()),
                                     m.group(0).strip()))

    if in_library:
        for m in iter_pattern_hits(code, R4_PATTERNS):
            out.append(Violation("R4", norm, line_of(code, m.start()),
                                 m.group(0).strip()))

    if in_library and not in_runtime and not in_serve:
        for m in iter_pattern_hits(code, R5_PATTERNS):
            out.append(Violation("R5", norm, line_of(code, m.start()),
                                 m.group(0).strip()))

    if in_library and not in_store:
        for m in iter_pattern_hits(code, R6_PATTERNS):
            out.append(Violation("R6", norm, line_of(code, m.start()),
                                 m.group(0).strip()))

    if in_library and norm != SYNC_LAYER:
        for m in iter_pattern_hits(code, R7_PATTERNS):
            out.append(Violation("R7", norm, line_of(code, m.start()),
                                 m.group(0).strip()))

    in_simd = norm.startswith(SIMD_PREFIX.replace(os.sep, "/") + "/")
    if not in_simd:
        for m in iter_pattern_hits(code, R9_PATTERNS):
            out.append(Violation("R9", norm, line_of(code, m.start()),
                                 m.group(0).strip()))

    if in_library and norm != SYNC_LAYER and R8_TRIGGER.search(code):
        lines = code.split("\n")
        for idx, line in enumerate(lines):
            if not R8_MUTABLE.match(line):
                continue
            # A declaration may wrap: the annotation or the atomic may
            # sit on the continuation line.
            window = line + " " + (lines[idx + 1] if idx + 1 < len(lines)
                                   else "")
            if "atomic" in window or "EI_GUARDED_BY" in window \
                    or "EI_PT_GUARDED_BY" in window:
                continue
            if R8_EXEMPT.search(line):
                continue
            out.append(Violation("R8", norm, idx + 1, line.strip()))

    return out


# R10: identifiers that can precede `(` in a namespace-scope statement
# without naming the declared function.
R10_NOT_NAMES = {
    "alignas", "decltype", "noexcept", "static_assert", "requires",
    "__attribute__",
}
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def strip_preprocessor(code: str) -> str:
    """Blank preprocessor lines (with backslash continuations), keeping
    newlines so line numbers survive."""
    out = []
    continued = False
    for line in code.split("\n"):
        directive = continued or line.lstrip().startswith("#")
        continued = directive and line.rstrip().endswith("\\")
        out.append(" " * len(line) if directive else line)
    return "\n".join(out)


def namespace_scope_functions(code: str) -> list[tuple[str, int]]:
    """(name, line) of every function declared or defined at namespace
    scope in `code` (comments, strings and directives already blanked).
    Braces that open a namespace keep the scan at namespace scope; any
    other brace (class, enum, function body, initializer) is skipped."""
    found: list[tuple[str, int]] = []
    depth_other = 0  # nesting inside non-namespace braces
    ns_stack: list[bool] = []
    stmt_start = 0

    def analyse(start: int, end: int) -> None:
        stmt = code[start:end]
        if stmt.lstrip().startswith("typedef"):
            return
        paren = 0
        seen_type = False
        for m in re.finditer(r"[A-Za-z_]\w*|[()=]", stmt):
            tok = m.group(0)
            if tok == "(":
                paren += 1
            elif tok == ")":
                paren -= 1
            elif paren > 0:
                continue
            elif tok == "=":
                return  # an initializer or operator==, not a function
            elif IDENTIFIER.fullmatch(tok):
                rest = stmt[m.end():].lstrip()
                prev = stmt[:m.start()].rstrip()
                if rest.startswith("(") and tok not in R10_NOT_NAMES:
                    if seen_type and not prev.endswith(("::", "operator",
                                                        '""')):
                        found.append((tok, line_of(code, start + m.start())))
                    return
                if tok not in ("template", "typename", "class"):
                    seen_type = True

    i, n = 0, len(code)
    while i < n:
        c = code[i]
        if c == "{":
            opener = code[stmt_start:i]
            is_ns = depth_other == 0 and bool(
                re.match(r"\s*(?:inline\s+)?namespace\b|\s*extern\s*\"",
                         opener))
            if depth_other == 0 and not is_ns:
                analyse(stmt_start, i)
            ns_stack.append(is_ns)
            if not is_ns:
                depth_other += 1
            stmt_start = i + 1
        elif c == "}":
            if ns_stack and not ns_stack.pop():
                depth_other -= 1
            stmt_start = i + 1
        elif c == ";" and depth_other == 0:
            analyse(stmt_start, i)
            stmt_start = i + 1
        i += 1
    return found


def caller_files(root: str) -> list[str]:
    files = []
    for caller_root in CALLER_ROOTS:
        for dirpath, _dirnames, filenames in os.walk(
                os.path.join(root, caller_root)):
            for name in filenames:
                if name.endswith(CXX_EXTENSIONS):
                    files.append(os.path.relpath(os.path.join(dirpath, name),
                                                 root).replace(os.sep, "/"))
    return sorted(files)


def check_test_only_functions(root: str) -> list[Violation]:
    """R10 over the tree at `root` (see the module docstring)."""
    words: dict[str, dict[str, int]] = {}
    codes: dict[str, str] = {}
    for rel in caller_files(root):
        with open(os.path.join(root, rel), encoding="utf-8",
                  errors="replace") as fh:
            code = strip_preprocessor(strip_comments_and_strings(fh.read()))
        codes[rel] = code
        counts: dict[str, int] = {}
        for m in IDENTIFIER.finditer(code):
            counts[m.group(0)] = counts.get(m.group(0), 0) + 1
        words[rel] = counts
    out: list[Violation] = []
    for rel, code in codes.items():
        if not (rel.startswith(LIBRARY_ROOT + "/") and
                rel.endswith((".hpp", ".hh", ".h"))):
            continue
        own = {rel, os.path.splitext(rel)[0] + ".cpp"}
        for name, line in namespace_scope_functions(code):
            if sum(words.get(f, {}).get(name, 0) for f in own) > 2:
                continue
            if any(counts.get(name, 0) for f, counts in words.items()
                   if f not in own):
                continue
            out.append(Violation("R10", rel, line, name))
    return out


def load_suppressions(path: str) -> list[Suppression]:
    sup: list[Suppression] = []
    if not os.path.isfile(path):
        return sup
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) < 2 or parts[0] not in RULE_TITLES:
                print(f"echolint: bad suppression line: {raw.rstrip()}",
                      file=sys.stderr)
                sys.exit(2)
            sup.append(Suppression(parts[0], parts[1],
                                   parts[2] if len(parts) > 2 else ""))
    return sup


def suppresses(s: Suppression, v: Violation) -> bool:
    """The token, when present, must occur in the excerpt as a whole
    word (so `tdoa` does not cover `tdoas`)."""
    return s.rule == v.rule and s.path == v.path and (
        not s.token or re.search(rf"(?<!\w){re.escape(s.token)}(?!\w)",
                                 v.text) is not None)


def is_suppressed(v: Violation, sups: list[Suppression]) -> bool:
    return any(suppresses(s, v) for s in sups)


def stale_suppressions(violations: list[Violation],
                       sups: list[Suppression]) -> list[Suppression]:
    return [s for s in sups if not any(suppresses(s, v) for v in violations)]


def discover_files(root: str, compile_commands: str | None) -> list[str]:
    """First-party files to scan, repo-relative. Translation units come
    from compile_commands.json when available; headers from a walk."""
    files: set[str] = set()
    used_db = False
    if compile_commands and os.path.isfile(compile_commands):
        try:
            with open(compile_commands, encoding="utf-8") as fh:
                db = json.load(fh)
            for entry in db:
                src = os.path.normpath(
                    os.path.join(entry.get("directory", ""),
                                 entry["file"]))
                rel = os.path.relpath(src, root)
                if rel.startswith(".."):
                    continue
                if rel.split(os.sep)[0] in SCAN_ROOTS:
                    files.add(rel)
            used_db = True
        except (json.JSONDecodeError, KeyError, OSError) as err:
            print(f"echolint: ignoring unreadable compile database: {err}",
                  file=sys.stderr)
    if not used_db:
        print("echolint: no compile_commands.json; falling back to a "
              "directory walk", file=sys.stderr)
    for scan_root in SCAN_ROOTS:
        top = os.path.join(root, scan_root)
        for dirpath, _dirnames, filenames in os.walk(top):
            for name in filenames:
                if name.endswith(CXX_EXTENSIONS):
                    # Headers always come from the walk; sources only when
                    # the compile database was unusable.
                    if used_db and not name.endswith((".hpp", ".hh", ".h")):
                        continue
                    files.add(os.path.relpath(os.path.join(dirpath, name),
                                              root))
    return sorted(files)


def run_checks(root: str, compile_commands: str | None,
               suppressions_path: str, fix_hints: bool) -> int:
    sups = load_suppressions(suppressions_path)
    found: list[Violation] = []
    for rel in discover_files(root, compile_commands):
        try:
            with open(os.path.join(root, rel), encoding="utf-8",
                      errors="replace") as fh:
                text = fh.read()
        except OSError as err:
            print(f"echolint: cannot read {rel}: {err}", file=sys.stderr)
            return 2
        found.extend(check_file(rel, text))
    found.extend(check_test_only_functions(root))
    violations = [v for v in found if not is_suppressed(v, sups)]
    stale = stale_suppressions(found, sups)
    for s in stale:
        print(f"echolint: stale suppression `{s.rule} {s.path} {s.token}`"
              f" matches no violation; delete it")
    for v in violations:
        print(f"{v.path}:{v.line}: [{v.rule} {RULE_TITLES[v.rule]}] "
              f"`{v.text}`")
        if fix_hints:
            print(f"    hint: {FIX_HINTS[v.rule]}")
    if violations:
        print(f"echolint: {len(violations)} violation(s). Fix them or add a "
              f"justified line to {os.path.relpath(suppressions_path, root)}.")
    if violations or stale:
        return 1
    print("echolint: clean")
    return 0


# ---------------------------------------------------------------------------
# Self test: seed one violation per rule into a scratch tree and check that
# each fires, that clean code passes, and that suppressions suppress.

SELF_TEST_CASES = [
    ("src/core/bad_r1.cpp", "std::random_device rd;\n", "R1"),
    ("tests/core/bad_r1_test.cpp", "unsigned s = time(NULL);\n", "R1"),
    ("src/core/bad_r2.cpp", "#include <thread>\n", "R2"),
    ("src/core/bad_r2b.cpp", "std::mutex m;\n", "R2"),
    ("src/core/bad_r3.hpp", "void f(double range_m);\n", "R3"),
    ("src/core/bad_r3b.hpp", "void g(int n, double center_hz);\n", "R3"),
    ("src/core/bad_r4.cpp", "#include <iostream>\n", "R4"),
    ("src/core/bad_r5.cpp", "#include <queue>\n", "R5"),
    ("src/core/bad_r5b.hpp", "std::deque<int> backlog_;\n", "R5"),
    ("src/core/bad_r5c.cpp", "cv.wait(lock);\n", "R5"),
    ("src/core/bad_r6.cpp", "std::ofstream os(path);\n", "R6"),
    ("src/eval/bad_r6b.cpp", "FILE* f = fopen(path, \"wb\");\n", "R6"),
    ("src/dsp/bad_r6c.cpp", "freopen(path, \"w\", stderr);\n", "R6"),
    # R7 overlaps R2 outside src/runtime (the self-test only requires
    # membership) and uniquely bites *inside* src/runtime.
    ("src/core/bad_r7.cpp", "std::lock_guard<std::mutex> g(m);\n", "R7"),
    ("src/runtime/bad_r7b.hpp", "std::mutex m_;\n", "R7"),
    ("src/runtime/bad_r7c.cpp", "#include <condition_variable>\n", "R7"),
    ("src/runtime/bad_r8.hpp",
     "class C {\n  sync::Mutex m_;\n  mutable double v_;\n};\n", "R8"),
    ("src/obs/bad_r8b.hpp",
     "class R {\n  RegionLock lock_;\n  mutable std::size_t n_ = 0;\n};\n",
     "R8"),
    # R9 bites in library code outside src/simd AND in tests/benches.
    ("src/dsp/bad_r9.cpp", "#include <immintrin.h>\n", "R9"),
    ("src/core/bad_r9b.cpp", "__m256d x = _mm256_set1_pd(0.0);\n", "R9"),
    ("src/ml/bad_r9c.cpp", "float64x2_t v = vld1q_f64(p);\n", "R9"),
    ("tests/dsp/bad_r9d_test.cpp", "#include <arm_neon.h>\n", "R9"),
    ("bench/bad_r9e.cpp", "__m128d a = _mm_setzero_pd();\n", "R9"),
]

SELF_TEST_CLEAN = [
    # Members are not parameters: R3 must not fire on these.
    ("src/core/ok_member.hpp", "struct C { double spacing_m = 0.1; };\n"),
    # Runtime may thread; units headers may take raw doubles.
    ("src/runtime/ok_thread.cpp", "#include <thread>\n"),
    ("src/units/ok_units.hpp", "void q(double value_m);\n"),
    # Tools may print; tests may thread.
    ("tools/ok_print.cpp", "#include <iostream>\n"),
    ("tests/core/ok_thread_test.cpp", "#include <thread>\n"),
    # A comment or string mentioning rand() is not a call.
    ("src/core/ok_comment.cpp", "// rand() is banned\nconst char* s = "
                                "\"std::mutex\";\n"),
    # The serve/runtime layers own the sanctioned bounded structures; a
    # deadline-carrying wait is fine anywhere.
    ("src/serve/ok_bounded.cpp", "std::deque<int> staging_;\n"),
    ("src/runtime/ok_ring.cpp", "#include <deque>\n"),
    ("src/core/ok_deadline_wait.cpp", "cv.wait_for(lock, budget);\n"),
    # A heap on a vector is the sanctioned priority-queue replacement.
    ("src/eval/ok_heap.cpp", "std::push_heap(v.begin(), v.end(), later);\n"),
    # The store layer owns the sanctioned writer; reads are unrestricted;
    # tools and benches write their reports directly.
    ("src/store/ok_env_write.cpp", "std::ofstream os(tmp_path);\n"),
    ("src/core/ok_read.cpp", "std::ifstream is(path);\n"),
    ("bench/ok_report.cpp", "std::ofstream json(\"BENCH_x.json\");\n"),
    # The capability layer itself is the one sanctioned home for raw
    # primitives; tests may lock raw for harness scaffolding.
    ("src/runtime/sync.hpp", "mutable std::mutex m_;\n"),
    ("tests/runtime/ok_raw_mutex_test.cpp", "std::mutex m;\n"),
    # Guarded and atomic mutables are the two sanctioned shapes near a
    # capability; wrapped declarations get a one-line look-ahead.
    ("src/runtime/ok_guarded.hpp",
     "class C {\n  sync::Mutex m_;\n  mutable double v_ EI_GUARDED_BY(m_);"
     "\n};\n"),
    ("src/runtime/ok_atomic_near_lock.hpp",
     "class C {\n  sync::Mutex m_;\n  mutable std::atomic<int> n_{0};\n};\n"),
    ("src/runtime/ok_wrapped_guard.hpp",
     "class C {\n  sync::SharedMutex m_;\n  mutable std::vector<int> xs_\n"
     "      EI_GUARDED_BY(m_);\n};\n"),
    # `mutable` with no capability in the file is out of R8's scope
    # (lane-ownership disciplines live in src/obs).
    ("src/obs/ok_lanes.hpp", "class T { mutable std::vector<int> lanes_; };\n"),
    # src/simd is the one sanctioned home for raw intrinsics; mentioning
    # an intrinsic in a comment or string is not using one.
    ("src/simd/ok_kernels_avx2.cpp",
     "#include <immintrin.h>\n__m256d x = _mm256_setzero_pd();\n"),
    ("src/simd/ok_kernels_neon.cpp",
     "float64x2_t v = vld2q_f64(p).val[0];\n"),
    ("src/dsp/ok_simd_comment.cpp",
     "// _mm256_fmadd_pd would fuse; see src/simd\nconst char* s = "
     "\"__m128d\";\n"),
]


# R10 works across files, so its cases are one small tree: a function whose
# only callers are a test and a comment, and one called from bench/.
R10_TREE = {
    "src/core/lonely.hpp": "namespace e {\nint lonely_helper(int x);\n}\n",
    "src/core/lonely.cpp": "namespace e {\nint lonely_helper(int x) "
                           "{ return x; }\n}\n",
    "src/core/other.cpp": "// lonely_helper(1) is no caller.\n",
    "tests/core/lonely_test.cpp": "int t() { return e::lonely_helper(2); }\n",
    "src/core/used.hpp": "namespace e {\n[[nodiscard]] int bench_helper(int x);"
                         "\n}\n",
    "src/core/used.cpp": "namespace e {\nint bench_helper(int x) "
                         "{ return x; }\n}\n",
    "bench/bench_used.cpp": "int main() { return e::bench_helper(1); }\n",
}


def self_test() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="echolint_selftest_") as tmp:
        for rel, content in R10_TREE.items():
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(content)
        r10 = check_test_only_functions(tmp)
        if [(v.path, v.text) for v in r10] != [("src/core/lonely.hpp",
                                                "lonely_helper")]:
            failures.append("R10: expected exactly lonely_helper, got "
                            f"{[(v.path, v.text) for v in r10]}")
        stale = stale_suppressions(r10, [
            Suppression("R10", "src/core/lonely.hpp", "lonely_helper"),
            Suppression("R10", "src/core/used.hpp", "bench_helper")])
        if [s.token for s in stale] != ["bench_helper"]:
            failures.append("stale suppression: expected only bench_helper, "
                            f"got {[s.token for s in stale]}")
        for rel, content, rule in SELF_TEST_CASES:
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(content)
            got = [v.rule for v in check_file(rel, content)]
            if rule not in got:
                failures.append(f"{rel}: expected {rule}, got {got or 'none'}")
        for rel, content in SELF_TEST_CLEAN:
            got = check_file(rel, content)
            if got:
                failures.append(f"{rel}: expected clean, got "
                                f"{[v.rule for v in got]}")
        # Suppression round trip on the first seeded case.
        rel, content, rule = SELF_TEST_CASES[0]
        vio = check_file(rel, content)
        sup = [Suppression(rule, rel.replace(os.sep, "/"), "")]
        if not vio or not all(is_suppressed(v, sup) for v in vio
                              if v.rule == rule):
            failures.append("suppression did not suppress the seeded "
                            "violation")
    for f in failures:
        print(f"echolint self-test FAILED: {f}")
    if not failures:
        print(f"echolint self-test: {len(SELF_TEST_CASES)} seeded violations "
              f"fired, {len(SELF_TEST_CLEAN)} clean cases passed, "
              "suppression honored, R10 and the stale-suppression check "
              "verified")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of this script)")
    ap.add_argument("--compile-commands", default=None,
                    help="path to compile_commands.json "
                         "(default: <root>/build/compile_commands.json)")
    ap.add_argument("--suppressions", default=None,
                    help="suppression file "
                         "(default: <root>/tools/echolint_suppressions.txt)")
    ap.add_argument("--fix-hints", action="store_true",
                    help="print a remediation hint under each violation")
    ap.add_argument("--self-test", action="store_true",
                    help="seed one violation per rule and verify the "
                         "checker catches it")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"echolint: {root} does not look like the repo root",
              file=sys.stderr)
        return 2
    cc = args.compile_commands or os.path.join(root, "build",
                                               "compile_commands.json")
    sup = args.suppressions or os.path.join(root, "tools",
                                            "echolint_suppressions.txt")
    return run_checks(root, cc, sup, args.fix_hints)


if __name__ == "__main__":
    sys.exit(main())
