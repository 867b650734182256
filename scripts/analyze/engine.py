"""Rule driving: file collection, per-file scanning, and --diff filtering.

Hot code is marked by the runtime guard itself: a function whose body
opens ALLOC_GUARD_HOT() is hot, and RFID-HOT-002 / RFID-EXC-008 scan it
from its signature to its closing brace.  An ALLOC_GUARD_ALLOW("reason")
scope is exempt from the allocation patterns from the macro to the close
of its block, the same span the RFID_ENFORCE_HOT build sanctions.

Violations are Violation namedtuples; `structural` marks findings that
are properties of the whole file (missing coverage, a guard the scanner
cannot place in a function) rather than of one changed line — `--diff`
keeps those whenever the file changed at all.
"""

from __future__ import annotations

import fnmatch
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

from .lexer import split_code_and_comments
from .rules import RULES, Rule

SOURCE_EXTENSIONS = {".cpp", ".cc", ".cxx", ".hpp", ".h", ".hh"}
DEFAULT_ROOTS = ["src", "bench", "examples", "tests"]

NOEXCEPT_ALLOW = re.compile(r"rfid:noexcept-allow:\s*(\S.*)?$")
NOLINT_TOKEN = re.compile(r"NOLINT(?:NEXTLINE|BEGIN|END)?")
NOLINT_JUSTIFIED = re.compile(
    r"NOLINT(?:NEXTLINE|BEGIN)?\([A-Za-z0-9_.,*: -]+\)\s*:\s*\S")
NOLINT_END_TOKEN = re.compile(r"NOLINTEND\(")
GUARD_TOKEN = re.compile(r"\bALLOC_GUARD_HOT\b")
ALLOW_TOKEN = re.compile(r"\bALLOC_GUARD_ALLOW\b")
THROW_TOKEN = re.compile(r"\b(throw|try|catch)\b")
NOEXCEPT_TOKEN = re.compile(r"\bnoexcept\b")
#: A signature ending in `operator` plus symbol characters: the next `=`
#: belongs to the operator's name (`operator=`, `operator|=`, ...), not
#: to an initializer.
OPERATOR_TAIL = re.compile(r"\boperator\s*[^\w\s(]*$")
#: A member initializer's brace follows its name (`cap_{`, `Base<T>{`); the
#: body's follows the parameter list or the last initializer.
NAME_TAIL = re.compile(r"[\w>]\s*$")

#: First tokens that open control-flow blocks, never function definitions.
_CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "do", "else", "return", "case",
    "default", "catch", "try", "goto", "break", "continue",
}
_TYPE_KEYWORDS = {"class", "struct", "enum", "union", "concept"}


class Violation(NamedTuple):
    relpath: str
    line: int
    rule_id: str
    message: str
    structural: bool = False


class FuncDef(NamedTuple):
    start: int        # first line of the (multi-line) signature
    brace: int        # line carrying the body-opening `{`
    end: int          # line carrying the body-closing `}`
    header: str       # accumulated signature text


def rule_applies(rule: Rule, relpath: str) -> bool:
    if not any(relpath.startswith(p) for p in rule.scope):
        return False
    for pattern in rule.allow:
        if fnmatch.fnmatch(relpath, pattern):
            return False
    return True


def scan_function_definitions(code_lines: list[str]) -> list[FuncDef]:
    """Find namespace/class-scope function definitions by brace tracking
    over the code view.

    The scanner accumulates a candidate signature between statement
    boundaries; a `{` that closes a balanced, non-empty parenthesis list
    whose first token is not a control or type keyword opens a function
    body; a template header is skipped when finding that first token.  A
    top-level `=` marks an initializer, except inside a template
    parameter list (a defaulted template argument).  After the parameter
    list, a lone `:` opens a constructor's member-initializer list, where
    a `{` right after a name (`cap_{cap}`) is an initializer, skipped to
    its matching `}`.  Bodies (and everything inside them: lambdas, local
    blocks) are skipped; `namespace`/`class`/`struct` bodies are
    transparent so member definitions are still found.  Preprocessor
    lines are ignored wholesale (macro bodies may hold unbalanced braces).
    """
    defs: list[FuncDef] = []
    ctx: list[str] = []  # per open brace: "function" | "other"
    buf: list[str] = []
    buf_start = 0
    parens = 0
    angles = 0       # open `<` of a template parameter list
    head_start = 0   # where the declaration after a template header starts
    init_braces = 0  # open braces of a member initializer
    saw_parens = False
    top_equals = False
    mem_init = False
    in_continuation = False

    def reset() -> None:
        nonlocal parens, angles, head_start, init_braces, saw_parens, \
            top_equals, mem_init
        buf.clear()
        parens = angles = head_start = init_braces = 0
        saw_parens = top_equals = mem_init = False

    def first_token() -> str:
        header = "".join(buf[head_start:]).strip()
        first = header.split(None, 1)[0] if header else ""
        return first.split("(")[0].split("<")[0]

    for lineno, line in enumerate(code_lines, 1):
        stripped = line.strip()
        if in_continuation or stripped.startswith("#"):
            in_continuation = stripped.endswith("\\")
            continue
        inside_function = "function" in ctx
        for i, c in enumerate(line):
            if inside_function:
                if c == "{":
                    ctx.append("other")
                elif c == "}":
                    if ctx and ctx.pop() == "function":
                        # Bodies never nest here: the open one is the last.
                        defs[-1] = defs[-1]._replace(end=lineno)
                    inside_function = "function" in ctx
                    reset()
                continue
            if init_braces or (mem_init and c == "{" and
                               NAME_TAIL.search("".join(buf))):
                init_braces += {"{": 1, "}": -1}.get(c, 0)
                buf.append(c)
                continue
            if c == "{":
                header = "".join(buf).strip()
                first = first_token()
                is_function = (
                    saw_parens and parens == 0 and not top_equals
                    and first not in _CONTROL_KEYWORDS
                    and first not in _TYPE_KEYWORDS
                    and first != "namespace" and header)
                if is_function:
                    # `end` stays at EOF if the body never closes.
                    defs.append(FuncDef(buf_start or lineno, lineno,
                                        len(code_lines), header))
                    ctx.append("function")
                    inside_function = True
                else:
                    ctx.append("other")
                reset()
                continue
            if c == "}":
                if ctx:
                    ctx.pop()
                reset()
                continue
            if c == ";":
                reset()
                continue
            if c == "(":
                parens += 1
                saw_parens = True
            elif c == ")":
                parens = max(0, parens - 1)
            elif c in "<>" and parens == 0 and first_token() == "template":
                angles = max(0, angles + (1 if c == "<" else -1))
                if angles == 0:
                    head_start = len(buf) + 1
            elif c == "=" and parens == 0 and angles == 0 and \
                    not OPERATOR_TAIL.search("".join(buf)):
                top_equals = True
            elif c == ":" and saw_parens and parens == 0 and \
                    not top_equals and \
                    ":" not in (line[i - 1:i], line[i + 1:i + 2]) and \
                    first_token() not in _TYPE_KEYWORDS:
                mem_init = True
            if not buf:
                if c.isspace():
                    continue
                buf_start = lineno
            buf.append(c)
        if buf:
            buf.append(" ")
    return defs


def find_hot_functions(
        code_lines: list[str]) -> tuple[list[FuncDef], list[int]]:
    """Return the functions whose body opens ALLOC_GUARD_HOT(), and the
    lines of any guard outside every recognised function body (hot code
    the hot-function checks would silently skip).  The macro's own
    `#define` is not a use."""
    guards = [lineno for lineno, line in enumerate(code_lines, 1)
              if GUARD_TOKEN.search(line)
              and not line.lstrip().startswith("#")]
    funcs = scan_function_definitions(code_lines)
    hot = [fn for fn in funcs
           if any(fn.brace <= g <= fn.end for g in guards)]
    stray = [g for g in guards
             if not any(fn.brace <= g <= fn.end for fn in funcs)]
    return hot, stray


def without_allow_scopes(lines: list[str]) -> list[str]:
    """`lines` with every ALLOC_GUARD_ALLOW scope blanked, from the macro
    to the `}` that closes its block: the span its RAII object is alive
    in the RFID_ENFORCE_HOT build."""
    text = "\n".join(lines)
    out = list(text)
    for m in ALLOW_TOKEN.finditer(text):
        depth = 0
        for i in range(m.start(), len(text)):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth < 0:
                    break
            if text[i] != "\n":
                out[i] = " "
    return "".join(out).split("\n")


def lint_file(path: Path, relpath: str) -> list[Violation]:
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as err:
        return [Violation(relpath, 0, "RFID-IO-003",
                          f"unreadable file: {err}", structural=True)]
    code_lines, comment_lines = split_code_and_comments(text)
    out: list[Violation] = []

    # Pattern rules over the code view.
    for rule in RULES:
        if rule.kind != "pattern" or not rule_applies(rule, relpath):
            continue
        for lineno, line in enumerate(code_lines, 1):
            for rx, msg in rule.patterns:
                if rx.search(line):
                    out.append(Violation(relpath, lineno, rule.id, msg))

    hot_rule = next(r for r in RULES if r.kind == "hot")
    exc_rule = next(r for r in RULES if r.kind == "exception")
    coverage_rule = next(r for r in RULES if r.kind == "coverage")
    hot, stray = find_hot_functions(code_lines)

    # RFID-HOT-002: allocation patterns inside hot functions, and no
    # guard the scans cannot reach.
    if rule_applies(hot_rule, relpath):
        out.extend(Violation(
            relpath, g, hot_rule.id,
            "ALLOC_GUARD_HOT() outside any function body the linter "
            "recognises, so no hot-function check can scan this code",
            structural=True) for g in stray)
        for fn in hot:
            body = without_allow_scopes(code_lines[fn.start - 1:fn.end])
            for lineno, cline in enumerate(body, fn.start):
                for rx, msg in hot_rule.patterns:
                    if rx.search(cline):
                        out.append(Violation(relpath, lineno, hot_rule.id,
                                             msg))

    # RFID-EXC-008: throw-free, noexcept hot functions.
    if rule_applies(exc_rule, relpath):
        for fn in hot:
            for lineno in range(fn.start, fn.end + 1):
                m = THROW_TOKEN.search(code_lines[lineno - 1])
                if m:
                    out.append(Violation(
                        relpath, lineno, exc_rule.id,
                        f"`{m.group(1)}` inside an ALLOC_GUARD_HOT() "
                        "function; slot kernels must not carry unwind "
                        "paths (use RFID_ASSERT, or hoist validation out "
                        "of the hot function)"))
            if NOEXCEPT_TOKEN.search(fn.header):
                continue
            allowed = False
            for lineno in range(max(1, fn.start - 2), fn.brace + 1):
                m = NOEXCEPT_ALLOW.search(comment_lines[lineno - 1])
                if m:
                    if not m.group(1):
                        out.append(Violation(
                            relpath, lineno, exc_rule.id,
                            "rfid:noexcept-allow needs a reason: "
                            "`// rfid:noexcept-allow: why`"))
                    allowed = True
            if not allowed:
                name = fn.header.split("(")[0].strip().split()[-1] \
                    if "(" in fn.header else fn.header
                out.append(Violation(
                    relpath, fn.start, exc_rule.id,
                    f"function `{name}` opens ALLOC_GUARD_HOT() but is "
                    "not noexcept (mark it noexcept, or justify with "
                    "`// rfid:noexcept-allow: why`)"))

    # RFID-HOT-006: kernel files must define at least one hot function.
    if (relpath in coverage_rule.required_files
            and rule_applies(coverage_rule, relpath) and not hot):
        out.append(Violation(
            relpath, 1, coverage_rule.id,
            "slot-kernel file has no function that opens "
            "ALLOC_GUARD_HOT(); the zero-alloc hot-path check is not "
            "covering this kernel", structural=True))

    # RFID-NOLINT-005: every suppression names a check and a reason.
    nolint_rule = next(r for r in RULES if r.kind == "nolint")
    if rule_applies(nolint_rule, relpath):
        for lineno, mline in enumerate(comment_lines, 1):
            for m in NOLINT_TOKEN.finditer(mline):
                rest = mline[m.start():]
                if NOLINT_END_TOKEN.match(rest):
                    continue  # the reason lives on the matching NOLINTBEGIN
                if not NOLINT_JUSTIFIED.match(rest):
                    out.append(Violation(
                        relpath, lineno, nolint_rule.id,
                        "suppression must name a check and a reason: "
                        "`// NOLINT(check-name): why`"))
    return out


def collect_files(project_root: Path, roots: list[str]) -> list[Path]:
    files: list[Path] = []
    for root in roots:
        base = project_root / root
        if base.is_file():
            files.append(base)
            continue
        if not base.is_dir():
            print(f"check_invariants: no such root: {base}", file=sys.stderr)
            sys.exit(2)
        for p in sorted(base.rglob("*")):
            if p.suffix in SOURCE_EXTENSIONS and p.is_file():
                files.append(p)
    return [
        f for f in files
        if "lint_fixtures" not in f.relative_to(project_root).parts
    ]


def changed_lines(project_root: Path, base: str) -> dict[str, set[int]]:
    """Map relpath -> line numbers added/modified vs `base` (committed or
    working-tree), from `git diff -U0`.  Exits 2 when git refuses (bad
    ref, not a repository)."""
    proc = subprocess.run(
        ["git", "-C", str(project_root), "diff", "-U0", base, "--",
         *[str(project_root / r) for r in DEFAULT_ROOTS]],
        capture_output=True, text=True, check=False)
    if proc.returncode not in (0, 1):
        print(f"check_invariants: git diff {base} failed:\n{proc.stderr}",
              file=sys.stderr)
        sys.exit(2)
    changed: dict[str, set[int]] = {}
    current: str | None = None
    hunk = re.compile(r"@@ -\d+(?:,\d+)? \+(\d+)(?:,(\d+))? @@")
    for line in proc.stdout.splitlines():
        if line.startswith("+++ "):
            path = line[4:].strip()
            current = None if path == "/dev/null" else \
                path[2:] if path.startswith("b/") else path
            if current is not None:
                changed.setdefault(current, set())
            continue
        m = hunk.match(line)
        if m and current is not None:
            start = int(m.group(1))
            count = int(m.group(2)) if m.group(2) is not None else 1
            changed[current].update(range(start, start + count))
    return changed


def filter_to_diff(violations: list[Violation],
                   changed: dict[str, set[int]]) -> list[Violation]:
    """Keep line-anchored findings on changed lines, and structural
    (whole-file) findings for any changed file."""
    out = []
    for v in violations:
        lines = changed.get(v.relpath)
        if lines is None:
            continue
        if v.structural or v.line in lines:
            out.append(v)
    return out
