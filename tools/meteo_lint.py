#!/usr/bin/env python3
"""meteo-lint: static enforcement of Meteorograph's determinism contract.

The repo's headline guarantee — publish/search results, traces, and
metric dumps that are bit-identical at any engine worker count
(DESIGN.md §8, §9, §11) — is enforced dynamically by oracle tests and
golden fingerprints. This linter enforces the same contract
*statically*, at review time, via a small rule catalog (DESIGN.md §10):

  R1  no iteration over std::unordered_map/std::unordered_set in core
      code unless the site carries a
      `// meteo-lint: order-insensitive(<reason>)` annotation.
      Hash-order is not part of any contract; iterating it into a
      result, trace, or accumulation is the canonical nondeterminism
      bug class.
  R2  no wall-clock or ambient randomness in core code:
      std::random_device, rand()/srand(), time()/clock(),
      std::chrono::{system,steady,high_resolution}_clock. Core code
      draws from the seeded splitmix64/xoshiro substreams
      (src/common/rng.hpp). Paths under obs/, bench/, tools/ and
      examples/ are allowlisted (they time real executions);
      elsewhere a `// meteo-lint: real-time(<reason>)` annotation is
      required.
  R3  no floating-point accumulation with unspecified order:
      std::reduce / std::transform_reduce / std::execution::par*, and
      std::accumulate over an unordered container. FP addition order
      is part of the bit-identical contract. Horizontal SIMD
      reductions (_mm*_hadd_p*, _mm512_reduce_*) are banned for the
      same reason: they reassociate the sum across lanes, which is
      why the vectorized kernels in src/vsm/kernels.cpp are
      element-wise only. Also bans -ffast-math in any CMake file.
      Suppress with `// meteo-lint: fp-order(<reason>)`.
  R4  no thread_local, and no mutable static state, in
      src/meteorograph/ or src/vsm/ without a
      `// meteo-lint: scoped(<reason>)` annotation documenting why the
      state cannot leak across ops/batches.
  R5  no volatile (it is not synchronization), and no
      std::memory_order_relaxed outside annotated metric totals —
      suppress with `// meteo-lint: relaxed(<reason>)`.
  R6  no direct vsm::absolute_angle* calls in src/meteorograph/
      outside the naming layer (naming.{hpp,cpp} and naming/). The
      vector→key mapping is owned by core::NamingStrategy
      (DESIGN.md §12); an op that names items itself bypasses the
      configured strategy and silently splits the key space between
      two naming schemes. Suppress with
      `// meteo-lint: naming-seam(<reason>)`.
  R7  no borrowed view escaping its lifetime. The borrowed-type
      registry (std::span, std::string_view, RoutingTableView,
      arena-backed std::pmr containers, OpScratch references) names
      every type in the tree that points into storage someone else
      owns — pooled NodePool slabs, the per-thread scratch arena. A
      registered type may not be stored into a class member or a
      static, returned
      when it refers to a local owning container, or captured by
      reference (or via `this`) into deferred work — an
      `sim::EventQueue` action or a `meteo::ThreadPool` job outlives
      the scope that scheduled it. Types that are themselves
      registered borrows (RoutingTableView, OpScratch) may
      aggregate borrowed members: a view composed of views is still
      one view, not an escape. Suppress with
      `// meteo-lint: borrow_ok(<reason>)`.

Every suppression requires a non-empty reason; `--list-suppressions`
prints the audited inventory. A suppression that matches no violation
is itself an error (stale suppressions rot).

Engine: one token-level engine covers every rule. It lexes each file
(comments and string literals blanked) and applies the name/shape
heuristics documented next to each check. Unordered-container names
resolve per file, except header-declared and `member_`-style names,
which are visible across the scanned set. It needs only the Python
standard library, so the same engine runs on every host and in CI.

Exit status: 0 clean, 1 violations, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

# --------------------------------------------------------------------------
# Rule table
# --------------------------------------------------------------------------

RULES = {
    "R1": ("order-insensitive", "iteration over unordered container"),
    "R2": ("real-time", "wall-clock / ambient randomness in core code"),
    "R3": ("fp-order", "floating-point accumulation with unspecified order"),
    "R4": ("scoped", "thread_local / mutable static state in core code"),
    "R5": ("relaxed", "volatile-as-sync / relaxed atomic ordering"),
    "R6": ("naming-seam",
           "direct absolute-angle naming outside the naming layer"),
    "R7": ("borrow_ok", "borrowed view escaping its lifetime"),
}
TAG_TO_RULE = {tag: rule for rule, (tag, _) in RULES.items()}

# Directories (relative to repo root) where each restriction applies.
# R2's allowlist: code that times or seeds from the real world.
R2_ALLOW_PREFIXES = ("src/obs/", "bench/", "tools/", "examples/")
# R4 applies where per-op state determinism is contractual. The prefix
# covers the whole facade layer including the epoch/serving subsystem
# (src/meteorograph/epoch.*, src/meteorograph/server.*): an epoch or
# window cursor cached in thread_local or static state would make an
# op's outcome depend on which worker ran it, which is exactly what
# DESIGN.md §11 forbids — the engine holds the epoch as member state and
# stamps it on each op's trace. The overlay and sim substrates joined
# the charter with the SoA registry (DESIGN.md §13): the membership
# index, node pool, and event queue are all shared-by-value state a
# batch reads concurrently — a thread_local cursor cache or a mutable
# static rank table would break byte-identity across worker counts just
# as surely as a cached epoch.
R4_PREFIXES = ("src/meteorograph/", "src/vsm/", "src/overlay/", "src/sim/")
# R6: the facade layer must name items through core::NamingStrategy; only
# the naming layer itself may touch the vsm::absolute_angle* kernels.
R6_PREFIX = "src/meteorograph/"
R6_ALLOW = ("src/meteorograph/naming.hpp", "src/meteorograph/naming.cpp")
R6_ALLOW_PREFIX = "src/meteorograph/naming/"

SOURCE_EXT = {".cpp", ".hpp", ".cc", ".h", ".cxx", ".hxx"}

SUPPRESSION_RE = re.compile(r"//\s*meteo-lint:\s*(.*)$")
TAG_RE = re.compile(r"([a-z_-]+)\(([^()]*)\)")

R2_PATTERNS = [
    (re.compile(r"\bstd\s*::\s*random_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"(?<![\w:.])(?:std\s*::\s*)?time\s*\(\s*(?:NULL|nullptr|0|&)"),
     "time()"),
    (re.compile(r"(?<![\w:.])(?:std\s*::\s*)?clock\s*\(\s*\)"), "clock()"),
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\bsteady_clock\b"), "std::chrono::steady_clock"),
    (re.compile(r"\bhigh_resolution_clock\b"),
     "std::chrono::high_resolution_clock"),
]

R3_PATTERNS = [
    (re.compile(r"\bstd\s*::\s*reduce\b"), "std::reduce"),
    (re.compile(r"\bstd\s*::\s*transform_reduce\b"), "std::transform_reduce"),
    (re.compile(r"\bstd\s*::\s*execution\s*::\s*par"), "std::execution::par*"),
    # Cross-lane SIMD reductions reassociate FP sums; the vectorized
    # kernels (src/vsm/kernels.cpp) are element-wise only, which is what
    # makes them bit-identical to the scalar reference.
    (re.compile(r"\b_mm(?:256|512)?_h(?:add|sub)_p[sd]\b"),
     "horizontal SIMD add/sub (_mm*_hadd/_hsub)"),
    (re.compile(r"\b_mm512_reduce_(?:add|mul)_p[sd]\b"),
     "_mm512_reduce_* cross-lane reduction"),
    (re.compile(r"\b_mm(?:256|512)?_dp_p[sd]\b"),
     "SIMD dot-product (_mm*_dp) cross-lane reduction"),
]

R6_PATTERN = re.compile(r"\babsolute_angle\w*\b")

# -- R7: the borrowed-type registry (DESIGN.md §10) -------------------------
# Everything here points into storage someone else owns: std::span /
# std::string_view by construction, RoutingTableView (spans over pooled
# NodePool runs), std::pmr containers
# (they borrow their arena's memory_resource), and references to the
# per-thread OpScratch. The engine matches type *spellings*.
BORROWED_TYPE_RE = re.compile(
    r"\bstd\s*::\s*span\s*<"
    r"|\bstd\s*::\s*(?:basic_)?string_view\b"
    r"|\bstd\s*::\s*pmr\s*::\s*\w+"
    r"|\bRoutingTableView\b"
    r"|\bOpScratch\s*[&*]")
# Registered view aggregates: types that ARE borrows composed of
# borrows. Their span members are the borrow's representation,
# not an escape — storing one of *them* elsewhere is what escapes.
R7_VIEW_AGGREGATES = {"RoutingTableView", "OpScratch"}
# Deferred-work sinks: the callable outlives the scheduling scope.
# ThreadPool::parallel_for* are NOT sinks — they block until the jobs
# drain, so by-ref captures there cannot dangle.
R7_DEFER_SINK_RE = re.compile(r"\b(schedule_at|schedule_in|submit)\s*\(")
R7_CAPTURE_RE = re.compile(r"\[([^\[\]]*)\]\s*(?:\(|\{|mutable\b|noexcept\b|->)")
R7_RET_SIG_RE = re.compile(
    r"(?:^|\n)[ \t]*(?:template\s*<[^\n>]*>\s*)?(?:\[\[[^\]]*\]\]\s*)*"
    r"(?:(?:static|inline|constexpr|friend|virtual)\s+)*"
    r"(?P<type>std\s*::\s*span\s*<[^;{}]*?>"
    r"|std\s*::\s*(?:basic_)?string_view\b"
    r"|RoutingTableView\b)"
    r"\s*(?:[A-Za-z_]\w*\s*::\s*)*(?P<name>[A-Za-z_]\w*)\s*\(")
# Local declarations that OWN their storage: returning a borrow over
# one of these hands the caller a pointer into a dead stack frame.
R7_OWNING_LOCAL_RE = re.compile(
    r"\bstd\s*::\s*(?:pmr\s*::\s*)?"
    r"(?:vector|string|basic_string|array|deque|map|set|"
    r"unordered_map|unordered_set)\s*(?:<[^;]{0,200}?>)?\s+"
    r"([A-Za-z_]\w*)\s*[;({=\[]")
# C-array locals (`double buf[64];`). Statement keywords are excluded so
# `return table_[i];` does not read as a declaration of `table_`.
R7_ARRAY_LOCAL_RE = re.compile(
    r"^[ \t]*(?!return\b|throw\b|delete\b|goto\b|case\b|co_return\b)"
    r"(?:[A-Za-z_][\w:]*\s+)+([A-Za-z_]\w*)\s*\[\s*\w*\s*\]\s*[;={]",
    re.M)
R7_CLASS_HEAD_RE = re.compile(r"\b(?:struct|class)\s+"
                              r"(?:alignas\s*\([^)]*\)\s*)?"
                              r"([A-Za-z_]\w*)\b(?![^{]*;)")

R5_VOLATILE_RE = re.compile(r"(?<![\w])volatile(?![\w])")
R5_RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<")
# `name` of a variable declared with an unordered type: the identifier that
# follows the closing template bracket(s), e.g.
#   std::unordered_map<K, V> seen;
#   std::unordered_map<K, std::vector<V>> harvested_;
DECL_NAME_RE = re.compile(r">\s*&?\s*([A-Za-z_]\w*)\s*(?:[;={(,)]|$)")
FOR_HEAD_RE = re.compile(r"\bfor\s*\(")
# Only `begin` starts a walk; a lone `.end()` is the find()-sentinel idiom
# and carries no ordering dependence.
ITER_BEGIN_RE = re.compile(r"([A-Za-z_]\w*(?:\.|->))?\s*([A-Za-z_]\w*)\s*"
                           r"(?:\.|->)\s*c?r?begin\s*\(")
ACCUMULATE_RE = re.compile(r"\bstd\s*::\s*accumulate\s*\(([^;]*)")
THREAD_LOCAL_RE = re.compile(r"\bthread_local\b")
STATIC_DECL_RE = re.compile(r"^\s*(?:inline\s+)?static\s+(?!assert\b)(.*)$")
FAST_MATH_RE = re.compile(r"-f+fast-math|\bffast-math\b")


@dataclass
class Violation:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        tag, _ = RULES[self.rule]
        return (f"{self.path}:{self.line}: [{self.rule}] {self.message} "
                f"(suppress with `// meteo-lint: {tag}(<reason>)`)")


@dataclass
class Suppression:
    path: str
    line: int
    tag: str
    reason: str
    used: bool = False


@dataclass
class FileReport:
    violations: list[Violation] = field(default_factory=list)
    suppressions: list[Suppression] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


# --------------------------------------------------------------------------
# Lexing helpers
# --------------------------------------------------------------------------

def split_code_comment(line: str, in_block: bool) -> tuple[str, str, bool]:
    """Splits one physical line into (code, line-comment, in_block_after).

    String and char literals are blanked out of the code part so banned
    identifiers inside literals never fire. Block comments are blanked
    too; only the trailing `//` comment is returned (that is where
    meteo-lint annotations live).
    """
    code: list[str] = []
    comment = ""
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if in_block:
            if c == "*" and nxt == "/":
                in_block = False
                i += 2
            else:
                i += 1
            continue
        if c == "/" and nxt == "/":
            comment = line[i:]
            break
        if c == "/" and nxt == "*":
            in_block = True
            i += 2
            continue
        if c == '"' or c == "'":
            quote = c
            code.append(quote)
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            code.append(quote)
            continue
        code.append(c)
        i += 1
    return "".join(code), comment, in_block


@dataclass
class Line:
    raw: str
    code: str
    comment: str


def lex_file(text: str) -> list[Line]:
    lines: list[Line] = []
    in_block = False
    for raw in text.splitlines():
        code, comment, in_block = split_code_comment(raw, in_block)
        lines.append(Line(raw=raw, code=code, comment=comment))
    return lines


def parse_suppressions(path: str, lines: list[Line],
                       report: FileReport) -> None:
    for idx, ln in enumerate(lines):
        m = SUPPRESSION_RE.search(ln.comment)
        if not m:
            continue
        body = m.group(1).strip()
        tags = TAG_RE.findall(body)
        if not tags:
            report.errors.append(
                f"{path}:{idx + 1}: malformed meteo-lint annotation "
                f"(expected `tag(reason)`): {body!r}")
            continue
        # Anything left over after removing well-formed tag(reason) pairs
        # is a grammar error (e.g. a bare tag with no reason).
        leftover = TAG_RE.sub("", body).replace(",", "").strip()
        if leftover:
            report.errors.append(
                f"{path}:{idx + 1}: malformed meteo-lint annotation near "
                f"{leftover!r} (grammar: tag(reason)[, tag(reason)...])")
        for tag, reason in tags:
            if tag not in TAG_TO_RULE:
                report.errors.append(
                    f"{path}:{idx + 1}: unknown meteo-lint tag {tag!r} "
                    f"(known: {', '.join(sorted(TAG_TO_RULE))})")
                continue
            if not reason.strip():
                report.errors.append(
                    f"{path}:{idx + 1}: meteo-lint suppression "
                    f"`{tag}` requires a non-empty reason")
                continue
            report.suppressions.append(
                Suppression(path=path, line=idx + 1, tag=tag,
                            reason=reason.strip()))


def find_suppression(report: FileReport, path: str, tag: str,
                     line: int) -> Suppression | None:
    """A suppression annotates the same line or the line directly above.

    Same-line wins, and unused entries win over used ones, so stacked
    per-line annotations on consecutive violations each get claimed by
    their own line instead of one trailing comment absorbing its
    neighbor's violation. Matching is per-file: the report spans the
    whole scan, so without the path filter a suppression in one file
    could claim a same-numbered violation in another.
    """
    candidates = [s for s in report.suppressions
                  if s.path == path and s.tag == tag
                  and s.line in (line, line - 1)]
    candidates.sort(key=lambda s: (s.line != line, s.used))
    return candidates[0] if candidates else None


def add_violation(report: FileReport, path: str, line: int, rule: str,
                  message: str) -> None:
    tag, _ = RULES[rule]
    sup = find_suppression(report, path, tag, line)
    if sup is not None:
        sup.used = True
        return
    if any(v.path == path and v.line == line and v.rule == rule
           for v in report.violations):
        return
    report.violations.append(Violation(path, line, rule, message))


def _balanced_paren(text: str, open_at: int) -> str | None:
    """The content of the paren group opening at text[open_at] == '('."""
    depth = 0
    for i in range(open_at, len(text)):
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return text[open_at + 1:i]
    return None


def _balanced_brace(text: str, open_at: int) -> tuple[str, int] | None:
    """The content and end offset of the brace group at text[open_at]."""
    depth = 0
    for i in range(open_at, len(text)):
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return text[open_at + 1:i], i
    return None


def _join_code(lines: list[Line]) -> tuple[str, "callable"]:
    """Joins the code parts into one blob plus an offset→line mapper,
    so checks whose shapes span physical lines (loop headers, call
    argument lists, function bodies) can scan one string."""
    joined: list[str] = []
    starts: list[int] = []
    offset = 0
    for ln in lines:
        starts.append(offset)
        joined.append(ln.code)
        offset += len(ln.code) + 1
    blob = "\n".join(joined)

    def line_of(pos: int) -> int:
        lo, hi = 0, len(starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if starts[mid] <= pos:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    return blob, line_of


def _strip_paren_groups(expr: str) -> str:
    """Removes every ( ... ) group (and its contents) from expr."""
    out: list[str] = []
    depth = 0
    for c in expr:
        if c == "(":
            depth += 1
        elif c == ")":
            depth = max(0, depth - 1)
        elif depth == 0:
            out.append(c)
    return "".join(out)


def _param_names(params: str) -> set[str]:
    """Parameter names from a signature's paren-group text: the last
    identifier of each top-level comma part, defaults stripped.
    Borrows over caller-owned parameters are the caller's problem, not
    an escape — so these names are exempt from the R7 return check."""
    names: set[str] = set()
    parts: list[str] = []
    cur: list[str] = []
    depth = 0
    for c in params:
        if c in "<([{":
            depth += 1
        elif c in ">)]}":
            depth = max(0, depth - 1)
        if c == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    for p in parts:
        p = p.split("=", 1)[0]
        m = re.search(r"([A-Za-z_]\w*)\s*(?:\[\s*\w*\s*\])?\s*$", p)
        if m and m.group(1) not in ("const", "noexcept", "void"):
            names.add(m.group(1))
    return names


def _range_for_range_expr(head: str) -> str | None:
    """For a range-for header, the range expression after the top-level
    ':'; None for classic for(;;) loops. `::` is not a separator."""
    depth = 0
    i = 0
    while i < len(head):
        c = head[i]
        if c in "([{<":
            depth += 1
        elif c in ")]}>":
            if not (c == ">" and head[i - 1:i] == "-"):  # `->` is not a close
                depth -= 1
        elif depth == 0:
            if c == ";":
                return None
            if c == ":":
                if head[i + 1:i + 2] == ":" or head[i - 1:i] == ":":
                    i += 2 if head[i + 1:i + 2] == ":" else 1
                    continue
                return head[i + 1:]
        i += 1
    return None


# --------------------------------------------------------------------------
# Token engine
# --------------------------------------------------------------------------

class TokenEngine:
    """R1, R4 and R7 on lexed lines, by name/shape heuristics.

    The unordered-name set is built globally across the scanned file set
    so a member declared in a header fires on iteration in the .cpp.
    """

    def __init__(self) -> None:
        # Names visible across the scanned set: declared in a header
        # (class members live there) or following the `member_` naming
        # convention. Names declared in a .cpp stay scoped to that file
        # so an unrelated local of the same name elsewhere never fires.
        self.global_names: set[str] = set()
        self.local_names: dict[str, set[str]] = {}
        self._current_file: str = ""

    def collect(self, path: str, lines: list[Line]) -> None:
        is_header = os.path.splitext(path)[1] in (".hpp", ".h", ".hxx")
        local = self.local_names.setdefault(path, set())
        for ln in lines:
            if not UNORDERED_DECL_RE.search(ln.code):
                continue
            for m in DECL_NAME_RE.finditer(ln.code):
                ident = m.group(1)
                if ident in ("const", "static", "return"):
                    continue
                if is_header or ident.endswith("_"):
                    self.global_names.add(ident)
                else:
                    local.add(ident)

    def _known_unordered(self, ident: str) -> bool:
        return ident in self.global_names or \
            ident in self.local_names.get(self._current_file, set())

    # -- R1 ----------------------------------------------------------------
    def check_r1(self, path: str, lines: list[Line],
                 report: FileReport) -> None:
        self._current_file = path
        # Loop headers can span lines; scan a joined view with a line map.
        blob, line_of = _join_code(lines)

        for m in FOR_HEAD_RE.finditer(blob):
            head = _balanced_paren(blob, m.end() - 1)
            if head is None:
                continue
            range_expr = _range_for_range_expr(head)
            if range_expr is not None and self._mentions_unordered(range_expr):
                add_violation(
                    report, path, line_of(m.start()), "R1",
                    f"range-for over unordered container "
                    f"`{range_expr.strip()}` — hash order is not "
                    f"deterministic across libraries or runs")
        for idx, ln in enumerate(lines):
            for m in ITER_BEGIN_RE.finditer(ln.code):
                obj = m.group(2)
                if self._known_unordered(obj):
                    add_violation(
                        report, path, idx + 1, "R1",
                        f"iterator walk over unordered container `{obj}`")

    def _mentions_unordered(self, expr: str) -> bool:
        if UNORDERED_DECL_RE.search(expr):
            return True
        # Only identifiers at the top level of the range expression count:
        # in `closest_nodes(key, config_.replicas)` the call's *result* is
        # iterated, so names inside its argument list say nothing about
        # the iterated type.
        top = _strip_paren_groups(expr)
        return any(self._known_unordered(name)
                   for name in re.findall(r"[A-Za-z_]\w*", top))

    # -- R4 ----------------------------------------------------------------
    def check_r4(self, path: str, lines: list[Line],
                 report: FileReport) -> None:
        for idx, ln in enumerate(lines):
            code = ln.code
            if THREAD_LOCAL_RE.search(code):
                add_violation(
                    report, path, idx + 1, "R4",
                    "thread_local state — worker-count-dependent unless "
                    "scoped to one op (DESIGN.md §11)")
                continue
            m = STATIC_DECL_RE.match(code)
            if m and self._is_mutable_static(m.group(1)):
                add_violation(
                    report, path, idx + 1, "R4",
                    "mutable static state — shared across ops and batches")

    @staticmethod
    def _is_mutable_static(rest: str) -> bool:
        rest = rest.strip()
        if rest.startswith(("const ", "constexpr ", "const&", "constinit ")):
            return False
        # A '(' before any '=', '{', or ';' means a function declaration
        # (or a direct-init ctor call — direct-init statics are rare in
        # this codebase; declare them with `= Foo{...}` or annotate).
        stop = len(rest)
        for ch in ("=", "{", ";"):
            p = rest.find(ch)
            if p != -1:
                stop = min(stop, p)
        paren = rest.find("(")
        if paren != -1 and paren < stop:
            return False
        # `static_cast<...>` etc. never match STATIC_DECL_RE (no space),
        # and `static class-key` forward declarations are not state.
        return bool(re.match(r"[A-Za-z_:]", rest))

    # -- R7 ----------------------------------------------------------------
    def check_r7(self, path: str, rel: str, lines: list[Line],
                 report: FileReport) -> None:
        self._r7_members_and_statics(path, lines, report)
        blob, line_of = _join_code(lines)
        self._r7_deferred_captures(path, blob, line_of, report)
        self._r7_borrowed_returns(path, blob, line_of, report)

    def _r7_members_and_statics(self, path: str, lines: list[Line],
                                report: FileReport) -> None:
        # A brace-scope tracker classifying each `{` by the code seen
        # since the last `{`, `}`, or statement end; braces inside paren
        # groups (default arguments, initializers in signatures) are not
        # scopes. Member declarations are single lines with no parens —
        # a line carrying `(`/`)` is a signature or signature
        # continuation, never a data member.
        scope: list[tuple[str, str]] = []
        pending = ""
        paren = 0
        for idx, ln in enumerate(lines):
            code = ln.code
            stripped = code.strip()
            if (scope and scope[-1][0] == "class" and paren == 0
                    and stripped.endswith(";")
                    and "(" not in code and ")" not in code
                    and BORROWED_TYPE_RE.search(code)
                    and not re.match(r"\s*(?:using|typedef|friend)\b", code)
                    and "constexpr" not in code
                    and "constinit" not in code):
                owner = scope[-1][1]
                if owner not in R7_VIEW_AGGREGATES and \
                        not owner.endswith("View"):
                    add_violation(
                        report, path, idx + 1, "R7",
                        f"borrowed view stored as a data member of "
                        f"`{owner}` — the member outlives the storage it "
                        f"points into; copy the data or register "
                        f"`{owner}` as a view aggregate")
            m = STATIC_DECL_RE.match(code)
            if m:
                rest = m.group(1)
                head = rest.split("=", 1)[0].split("{", 1)[0]
                if (BORROWED_TYPE_RE.search(head) and "(" not in head
                        and "constexpr" not in rest
                        and "constinit" not in rest):
                    add_violation(
                        report, path, idx + 1, "R7",
                        "borrowed view in static storage — it outlives "
                        "every scope that could own the pointed-to data")
            for ch in code:
                if ch == "(":
                    paren += 1
                elif ch == ")":
                    paren = max(0, paren - 1)
                elif ch == "{" and paren == 0:
                    m = R7_CLASS_HEAD_RE.search(pending)
                    if m and not re.search(r"\benum\b", pending):
                        scope.append(("class", m.group(1)))
                    else:
                        scope.append(("other", ""))
                    pending = ""
                    continue
                elif ch == "}" and paren == 0:
                    if scope:
                        scope.pop()
                    pending = ""
                    continue
                elif ch == ";" and paren == 0:
                    pending = ""
                    continue
                pending += ch
            pending += " "

    def _r7_deferred_captures(self, path: str, blob: str, line_of,
                              report: FileReport) -> None:
        for m in R7_DEFER_SINK_RE.finditer(blob):
            group = _balanced_paren(blob, m.end() - 1)
            if group is None:
                continue
            for cm in R7_CAPTURE_RE.finditer(group):
                caps = cm.group(1)
                if "&" in caps or re.search(r"\bthis\b", caps):
                    add_violation(
                        report, path, line_of(m.end() + cm.start()), "R7",
                        f"lambda passed to deferred `{m.group(1)}` "
                        f"captures `{caps.strip() or '&'}` — the action "
                        f"outlives this scope; capture by value, or "
                        f"cancel the pending event before the captured "
                        f"object dies")
                    break

    def _r7_borrowed_returns(self, path: str, blob: str, line_of,
                             report: FileReport) -> None:
        for m in R7_RET_SIG_RE.finditer(blob):
            params = _balanced_paren(blob, m.end() - 1)
            if params is None:
                continue
            param_end = m.end() + len(params) + 1
            after = blob[param_end:param_end + 200]
            stop = len(after)
            for ch in ("{", ";", "="):
                p = after.find(ch)
                if p != -1:
                    stop = min(stop, p)
            if stop == len(after) or after[stop] != "{":
                continue  # declaration, deleted/defaulted, or too odd
            if re.search(r"[()\[\]]", after[:stop]):
                continue  # noexcept(...), trailing attrs — stay quiet
            found = _balanced_brace(blob, param_end + stop)
            if found is None:
                continue
            body, _ = found
            body_start = param_end + stop + 1
            param_names = _param_names(params)
            owning = {n for pat in (R7_OWNING_LOCAL_RE, R7_ARRAY_LOCAL_RE)
                      for n in pat.findall(body)} - param_names
            if not owning:
                continue
            for rm in re.finditer(r"\breturn\b([^;]*);", body):
                idents = set(re.findall(r"[A-Za-z_]\w*", rm.group(1)))
                bad = sorted((idents & owning) - param_names)
                if bad:
                    add_violation(
                        report, path, line_of(body_start + rm.start()), "R7",
                        f"`{m.group('name')}` returns a borrowed "
                        f"`{m.group('type')}` referring to local "
                        f"`{bad[0]}` — the storage dies at scope exit")


# --------------------------------------------------------------------------
# Keyword rules (engine-independent)
# --------------------------------------------------------------------------

def check_r2(path: str, rel: str, lines: list[Line],
             report: FileReport) -> None:
    if rel.replace(os.sep, "/").startswith(R2_ALLOW_PREFIXES):
        return
    for idx, ln in enumerate(lines):
        for pattern, what in R2_PATTERNS:
            if pattern.search(ln.code):
                add_violation(
                    report, path, idx + 1, "R2",
                    f"{what} in core code — draw from the seeded "
                    f"splitmix64/xoshiro substreams (src/common/rng.hpp)")


def check_r3(path: str, lines: list[Line], report: FileReport,
             engine: "TokenEngine") -> None:
    engine._current_file = path
    for idx, ln in enumerate(lines):
        for pattern, what in R3_PATTERNS:
            if pattern.search(ln.code):
                add_violation(
                    report, path, idx + 1, "R3",
                    f"{what} — FP reduction order is part of the "
                    f"bit-identical contract")
        m = ACCUMULATE_RE.search(ln.code)
        if m:
            args = m.group(1)
            over_unordered = any(
                engine._known_unordered(name)
                for name in re.findall(r"[A-Za-z_]\w*", args))
            if over_unordered:
                add_violation(
                    report, path, idx + 1, "R3",
                    "std::accumulate over an unordered container — "
                    "accumulation visits hash order")


def check_r5(path: str, lines: list[Line], report: FileReport) -> None:
    for idx, ln in enumerate(lines):
        if R5_VOLATILE_RE.search(ln.code):
            add_violation(
                report, path, idx + 1, "R5",
                "volatile is not synchronization — use std::atomic with "
                "explicit ordering or a mutex")
        if R5_RELAXED_RE.search(ln.code):
            add_violation(
                report, path, idx + 1, "R5",
                "memory_order_relaxed — permitted only for metric totals "
                "whose value is read after a join/commit barrier")


def check_r6(path: str, rel: str, lines: list[Line],
             report: FileReport) -> None:
    if not rel.startswith(R6_PREFIX):
        return
    if rel in R6_ALLOW or rel.startswith(R6_ALLOW_PREFIX):
        return
    for idx, ln in enumerate(lines):
        m = R6_PATTERN.search(ln.code)
        if m:
            add_violation(
                report, path, idx + 1, "R6",
                f"`{m.group(0)}` outside the naming layer — map vectors to "
                f"keys through core::NamingStrategy (primary_key / "
                f"directory_key), never the angle kernel directly")


def check_cmake(path: str, rel: str, report: FileReport) -> None:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            for idx, raw in enumerate(fh):
                code = raw.split("#", 1)[0]
                if FAST_MATH_RE.search(code):
                    report.violations.append(Violation(
                        path, idx + 1, "R3",
                        "-ffast-math breaks the bit-identical FP contract"))
    except OSError as exc:
        report.errors.append(f"{path}: {exc}")


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def iter_source_files(roots: list[str]) -> list[str]:
    out: list[str] = []
    for root in roots:
        if os.path.isfile(root):
            out.append(root)
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(
                d for d in dirnames
                if not d.startswith(".") and not d.startswith("build"))
            for fn in sorted(filenames):
                if os.path.splitext(fn)[1] in SOURCE_EXT:
                    out.append(os.path.join(dirpath, fn))
    return out


def iter_cmake_files(repo_root: str) -> list[str]:
    out: list[str] = []
    for dirpath, dirnames, filenames in os.walk(repo_root):
        dirnames[:] = sorted(
            d for d in dirnames
            if not d.startswith(".") and not d.startswith("build")
            and d != "Testing")
        for fn in sorted(filenames):
            if fn == "CMakeLists.txt" or fn.endswith(".cmake"):
                out.append(os.path.join(dirpath, fn))
    return out


def scan(paths: list[str], repo_root: str, engine: TokenEngine,
         pretend_rel: str | None = None,
         check_cmake_files: bool = True) -> FileReport:
    report = FileReport()
    file_lines: dict[str, list[Line]] = {}
    for path in paths:
        try:
            with open(path, encoding="utf-8", errors="replace") as fh:
                lines = lex_file(fh.read())
        except OSError as exc:
            report.errors.append(f"{path}: {exc}")
            continue
        file_lines[path] = lines
        engine.collect(path, lines)

    for path, lines in file_lines.items():
        rel = pretend_rel if pretend_rel is not None \
            else os.path.relpath(path, repo_root)
        rel = rel.replace(os.sep, "/")
        parse_suppressions(path, lines, report)
        engine.check_r1(path, lines, report)
        check_r2(path, rel, lines, report)
        check_r3(path, lines, report, engine)
        if rel.startswith(R4_PREFIXES):
            engine.check_r4(path, lines, report)
        check_r5(path, lines, report)
        check_r6(path, rel, lines, report)
        engine.check_r7(path, rel, lines, report)

    if check_cmake_files:
        for cm in iter_cmake_files(repo_root):
            check_cmake(cm, os.path.relpath(cm, repo_root), report)

    for sup in report.suppressions:
        if not sup.used:
            report.errors.append(
                f"{sup.path}:{sup.line}: stale suppression "
                f"`{sup.tag}({sup.reason})` — no matching violation on "
                f"this or the next line; delete it")
    return report


# --------------------------------------------------------------------------
# Selftest: fixture pairs under tests/lint/ must keep every rule firing
# --------------------------------------------------------------------------

# Hazard-shape regression pairs beyond the one-per-rule fixtures: each
# entry is (rule, violation fixture, clean fixture) and is held to the
# same fire/stay-quiet standard. The epoch pair pins the R4 shape that
# motivated extending the rule's charter to the serving layer:
# thread-cached pinned epochs vs per-op epoch context. The naming
# pairs pin the shapes the NamingStrategy seam (DESIGN.md §12) added to
# the R2/R4 charters: LSH hyperplanes must be derived statelessly from
# the fixed config seed, never from ambient randomness (R2) or a
# lazily-filled static component cache (R4). The kernels pair pins the
# vectorized-kernel charter (src/vsm/kernels.cpp): element-wise SIMD is
# fine, cross-lane reductions (hadd and friends) reassociate FP sums
# and must fire R3.
SCENARIO_FIXTURES = [
    ("R4", "r4_epoch_violation.cpp", "r4_epoch_clean.cpp"),
    ("R4", "r4_registry_violation.cpp", "r4_registry_clean.cpp"),
    ("R2", "r2_naming_violation.cpp", "r2_naming_clean.cpp"),
    ("R4", "r4_naming_violation.cpp", "r4_naming_clean.cpp"),
    ("R3", "r3_kernels_violation.cpp", "r3_kernels_clean.cpp"),
    # The defer pair pins the churn/maintenance hazard that motivated
    # R7 — a `this` capture into an EventQueue action — and its clean
    # side doubles as the `borrow_ok` grammar demo: the identical shape
    # with a reasoned suppression passes with no stale-entry error.
    ("R7", "r7_defer_violation.cpp", "r7_defer_clean.cpp"),
]


def selftest(repo_root: str) -> int:
    fixture_dir = os.path.join(repo_root, "tests", "lint")
    if not os.path.isdir(fixture_dir):
        print(f"meteo-lint selftest: missing fixture dir {fixture_dir}",
              file=sys.stderr)
        return 2
    failures: list[str] = []
    # Fixtures are checked as-if under src/meteorograph/ so the
    # path-scoped rules (R2 allowlist, R4 dir filter) apply.
    pretend = "src/meteorograph/fixture.cpp"

    def run_one(fixture: str) -> FileReport:
        return scan([os.path.join(fixture_dir, fixture)], repo_root,
                    TokenEngine(),
                    pretend_rel=pretend, check_cmake_files=False)

    pairs = [(rule, f"{rule.lower()}_violation.cpp",
              f"{rule.lower()}_clean.cpp") for rule in sorted(RULES)]
    pairs += SCENARIO_FIXTURES
    for rule, bad, good in pairs:
        for fx in (bad, good):
            if not os.path.isfile(os.path.join(fixture_dir, fx)):
                failures.append(f"missing fixture {fx}")
        if failures and failures[-1].startswith("missing"):
            continue
        bad_report = run_one(bad)
        fired = [v for v in bad_report.violations if v.rule == rule]
        if not fired:
            failures.append(
                f"{rule}: did not fire on tests/lint/{bad} — the rule has "
                f"gone dead")
        good_report = run_one(good)
        misfired = [v for v in good_report.violations if v.rule == rule]
        if misfired:
            failures.append(
                f"{rule}: false positive on tests/lint/{good}: "
                + "; ".join(v.render() for v in misfired))
        if good_report.errors:
            failures.append(
                f"{rule}: errors on tests/lint/{good}: "
                + "; ".join(good_report.errors))

    # The suppression grammar itself: a reason-less tag must be rejected,
    # and a stale suppression must be reported — including for the
    # underscore-spelled `borrow_ok` tag R7 added to the grammar.
    grammar = run_one("suppression_grammar.cpp")
    if not any("requires a non-empty reason" in e for e in grammar.errors):
        failures.append("suppression grammar: empty reason not rejected")
    if not any("stale suppression" in e for e in grammar.errors):
        failures.append("suppression grammar: stale suppression not flagged")
    if not any("borrow_ok" in e and "requires a non-empty reason" in e
               for e in grammar.errors):
        failures.append(
            "suppression grammar: empty-reason borrow_ok not rejected")
    if not any("borrow_ok" in e and "stale suppression" in e
               for e in grammar.errors):
        failures.append(
            "suppression grammar: stale borrow_ok not flagged")

    if failures:
        print("meteo-lint selftest FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"meteo-lint selftest OK: all {len(RULES)} rules (plus "
          f"{len(SCENARIO_FIXTURES)} scenario pair"
          f"{'s' if len(SCENARIO_FIXTURES) != 1 else ''}) fire on their "
          f"violation fixtures and stay quiet on the clean ones")
    return 0


# --------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="meteo_lint.py",
        description="Static determinism-contract checker (DESIGN.md §10).")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to scan (default: src/)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--list-suppressions", action="store_true",
                        help="print the audited suppression inventory")
    parser.add_argument("--selftest", action="store_true",
                        help="verify every rule fires on tests/lint fixtures")
    args = parser.parse_args(argv)

    repo_root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))

    if args.selftest:
        return selftest(repo_root)

    roots = args.paths or [os.path.join(repo_root, "src")]
    report = scan(iter_source_files(roots), repo_root, TokenEngine())

    if args.list_suppressions:
        sups = sorted(report.suppressions, key=lambda s: (s.path, s.line))
        print(f"# meteo-lint suppression inventory ({len(sups)} entries)")
        for sup in sups:
            rule = TAG_TO_RULE[sup.tag]
            rel = os.path.relpath(sup.path, repo_root)
            print(f"{rel}:{sup.line}: [{rule}] {sup.tag}({sup.reason})")

    status = 0
    for v in sorted(report.violations, key=lambda v: (v.path, v.line)):
        print(v.render(), file=sys.stderr)
        status = 1
    for e in report.errors:
        print(e, file=sys.stderr)
        status = 1
    if status == 0 and not args.list_suppressions:
        n = len(report.suppressions)
        print(f"meteo-lint: clean "
              f"({n} audited suppression{'s' if n != 1 else ''})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
