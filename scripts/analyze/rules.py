"""The declarative rule table.

One table drives everything: the linter itself, `--list-rules`, the
SARIF rule metadata, and the generated DESIGN.md rule table
(`--list-rules --markdown`), so rule ids, scopes, and allowlists cannot
drift between code, fixtures, and docs.

`scope` is a list of path prefixes the rule applies to (relative,
forward slashes); `allow` maps path globs to the justification for
exempting them — every entry must say *why*.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Rule:
    id: str
    title: str
    summary: str
    #: Check family: "pattern" (regex over the code view), "hot"
    #: (allocation patterns inside functions that open ALLOC_GUARD_HOT()),
    #: "nolint" (suppression justification over the comment view),
    #: "coverage" (required_files must define >= 1 hot function),
    #: "exception" (hot functions are throw-free and noexcept).
    kind: str
    scope: tuple[str, ...]
    allow: dict[str, str] = field(default_factory=dict)
    patterns: tuple[tuple[re.Pattern, str], ...] = ()
    required_files: tuple[str, ...] = ()


RULES: tuple[Rule, ...] = (
    Rule(
        id="RFID-DET-001",
        title="no ambient entropy outside common/rng.hpp",
        summary=(
            "Determinism: no std::rand / srand / random_device / time() / "
            "system_clock::now().  All randomness must flow from a seeded "
            "common::Rng so censusStreamSeed replay stays bit-identical."),
        kind="pattern",
        scope=("src/", "bench/", "examples/", "tests/"),
        allow={
            "src/common/rng.hpp": "the one sanctioned seed/entropy boundary",
        },
        patterns=(
            (re.compile(r"\bstd::rand\b|(?<![\w:])s?rand\s*\("),
             "std::rand/srand bypasses the seeded common::Rng"),
            (re.compile(r"\brandom_device\b"),
             "random_device is nondeterministic; derive streams from the "
             "run seed via Rng::forStream"),
            (re.compile(r"(?<![\w:.])time\s*\("),
             "time() is wall-clock entropy; seeds must be explicit"),
            (re.compile(r"\bsystem_clock::now\s*\(\s*\)"),
             "system_clock::now() is nondeterministic; use steady_clock "
             "for durations and explicit seeds for randomness"),
        ),
    ),
    Rule(
        id="RFID-HOT-002",
        title="no allocation/growth in functions that open "
              "`ALLOC_GUARD_HOT()`",
        summary=(
            "Zero-alloc hot paths: a function whose body opens "
            "ALLOC_GUARD_HOT() is hot, and no heap allocation or container "
            "growth may appear from its signature to its closing brace.  "
            "Sanctioned growth (e.g. documented high-water-mark growth) "
            "sits in an `ALLOC_GUARD_ALLOW(\"<reason>\")` scope, exempt from "
            "the macro to the close of its block — the span the "
            "RFID_ENFORCE_HOT build sanctions at runtime.  A guard outside "
            "any function body the scanner recognises is itself a "
            "finding."),
        kind="hot",
        scope=("src/", "bench/", "examples/", "tests/"),
        patterns=(
            (re.compile(r"(?<![\w:])new\b"),
             "operator new allocates on the slot hot path"),
            (re.compile(r"\b(?:m|c|re)alloc\s*\("),
             "malloc/calloc/realloc allocates on the slot hot path"),
            (re.compile(r"\bmake_(?:unique|shared)\b"),
             "make_unique/make_shared allocates on the slot hot path"),
            (re.compile(
                r"(?:\.|->)\s*(?:push_back|emplace_back|resize|reserve|"
                r"insert|append)\s*\("),
             "container growth can reallocate on the slot hot path"),
        ),
    ),
    Rule(
        id="RFID-IO-003",
        title="library code is silent (MetricsRegistry, not stdout)",
        summary=(
            "Library I/O: no std::cout / printf / fprintf(stdout) / puts / "
            "abort in library code under src/.  Observability goes through "
            "MetricsRegistry / RunReport."),
        kind="pattern",
        scope=("src/",),
        allow={
            "src/common/cli.cpp": "the CLI front end owns user-facing I/O",
            "src/common/table.cpp": "TextTable is the sanctioned printer",
        },
        patterns=(
            (re.compile(r"\bstd::cout\b"),
             "std::cout in library code; route through MetricsRegistry "
             "or RunReport"),
            (re.compile(r"(?<![\w:])printf\s*\("),
             "printf in library code; route through MetricsRegistry "
             "or RunReport"),
            (re.compile(r"\bfprintf\s*\(\s*stdout\b"),
             "fprintf(stdout) in library code; route through "
             "MetricsRegistry or RunReport"),
            (re.compile(r"(?<![\w:])puts\s*\("),
             "puts in library code; route through MetricsRegistry"),
            (re.compile(r"\bstd::abort\b|(?<![\w:])abort\s*\("),
             "abort() kills the whole service; throw or RFID_REQUIRE"),
        ),
    ),
    Rule(
        id="RFID-THR-004",
        title="no naked std::thread outside common/thread_pool.*",
        summary=(
            "All parallelism goes through the shared common::ThreadPool so "
            "RFID_THREADS and cancellation behave."),
        kind="pattern",
        scope=("src/", "bench/", "examples/"),
        allow={
            "src/common/thread_pool.hpp": "the pool implementation itself",
            "src/common/thread_pool.cpp": "the pool implementation itself",
        },
        patterns=(
            (re.compile(r"\bstd::j?thread\b"),
             "spawn work through common::ThreadPool / parallelFor so "
             "RFID_THREADS and cancellation apply"),
        ),
    ),
    Rule(
        id="RFID-NOLINT-005",
        title="NOLINT requires a named check and a reason",
        summary=(
            "Suppressions must be justified: every NOLINT / NOLINTNEXTLINE "
            "/ NOLINTBEGIN must name a check and carry a reason: "
            "`// NOLINT(check-name): why`."),
        kind="nolint",
        scope=("src/", "bench/", "examples/", "tests/"),
    ),
    Rule(
        id="RFID-HOT-006",
        title="slot-kernel files must define an `ALLOC_GUARD_HOT()` "
              "function",
        summary=(
            "Hot-path coverage: every slot-kernel file (the scalar "
            "engine, the batch kernel, the packed encode/classify "
            "primitives, and the frame loops that feed them) must define "
            "at least one function that opens ALLOC_GUARD_HOT() — "
            "otherwise RFID-HOT-002 and RFID-EXC-008 have nothing to scan "
            "and the zero-alloc contract silently stops being checked for "
            "that kernel."),
        kind="coverage",
        scope=("src/",),
        required_files=(
            "src/sim/engine.cpp",
            "src/sim/engine_batch.cpp",
            "src/core/detection_scheme.cpp",
            "src/core/qcd.cpp",
            "src/crc/crc.cpp",
            "src/phy/channel.cpp",
            "src/anticollision/protocol.cpp",
        ),
    ),
    Rule(
        id="RFID-SEED-007",
        title="stream seeds derive via Rng::forStream, not raw arithmetic",
        summary=(
            "Stream-seed hygiene: raw seed arithmetic (`seed + i`, "
            "`seed ^ x`, ...) invites correlated or colliding streams.  "
            "All stream derivation goes through Rng::forStream (splitmix64 "
            "mixing) or the sanctioned named derivations "
            "(censusStreamSeed, impairmentStreamSeed)."),
        kind="pattern",
        scope=("src/", "bench/", "examples/"),
        allow={
            "src/common/rng.hpp":
                "Rng::forStream is the sanctioned derivation",
            "src/service/census.hpp":
                "censusStreamSeed is the sanctioned census derivation",
            "src/phy/impairments/impairment.hpp":
                "impairmentStreamSeed salts into forStream, the sanctioned "
                "impairment derivation",
            "src/service/loadgen.cpp":
                "request identity, not a stream: each census's RNG streams "
                "still derive from its seed via forStream",
            "bench/loadgen_service.cpp":
                "distinct census request seeds (request identity), not "
                "stream derivation",
        },
        patterns=(
            (re.compile(
                r"\b\w*[sS]eed\w*\s*[\^+\-*%]|[\^+\-*%]\s*\w*[sS]eed\w*\b"),
             "raw seed arithmetic; derive independent streams via "
             "Rng::forStream (or a sanctioned *StreamSeed helper)"),
        ),
    ),
    Rule(
        id="RFID-EXC-008",
        title="hot functions are exception-free and noexcept",
        summary=(
            "No throw/try/catch inside a function that opens "
            "ALLOC_GUARD_HOT(), and every such function must be declared "
            "noexcept — the slot kernels (packed encode/classify, batch "
            "superpose) must not carry unwind paths.  A function whose "
            "REQUIREs are deliberately throwing (test-pinned precondition "
            "contracts) opts out with `// rfid:noexcept-allow: <reason>`."),
        kind="exception",
        scope=("src/", "bench/", "examples/", "tests/"),
    ),
    Rule(
        id="RFID-TIME-009",
        title="library time comes from the cost model, not the clock",
        summary=(
            "No steady_clock / chrono timing in library code under "
            "src/core, src/sim (engine paths), src/anticollision, and "
            "src/phy: simulated airtime must come from crc/cost_model so "
            "runs replay bit-identically; wall-clock belongs in bench/ "
            "and src/service."),
        kind="pattern",
        scope=("src/core/", "src/sim/", "src/anticollision/", "src/phy/"),
        allow={
            "src/sim/montecarlo.cpp":
                "MonteCarloStats reports wall-clock throughput for "
                "observability; it never feeds simulated airtime",
        },
        patterns=(
            (re.compile(
                r"\bstd::chrono\b|\bchrono\s*::"
                r"|\b(?:steady|system|high_resolution)_clock\b"),
             "wall-clock timing in library code; airtime comes from "
             "crc/cost_model (wall-clock belongs in bench/ or "
             "src/service)"),
        ),
    ),
)

RULES_BY_ID: dict[str, Rule] = {rule.id: rule for rule in RULES}


def list_rules_text() -> str:
    """The `--list-rules` plain listing."""
    lines: list[str] = []
    for rule in RULES:
        lines.append(f"{rule.id}: {rule.title}")
        for pattern, reason in rule.allow.items():
            lines.append(f"    allow {pattern}  # {reason}")
    return "\n".join(lines) + "\n"


def list_rules_markdown() -> str:
    """The `--list-rules --markdown` table, pasted verbatim into DESIGN.md
    (tests/test_lint.py fails the build when the two drift apart)."""
    lines = [
        "| Rule | Contract | Scope | Allowances |",
        "| --- | --- | --- | --- |",
    ]
    for rule in RULES:
        scope = " ".join(f"`{s}`" for s in rule.scope)
        if rule.allow:
            allowances = "; ".join(
                f"`{glob}` — {reason}" for glob, reason in rule.allow.items())
        else:
            allowances = "—"
        lines.append(
            f"| `{rule.id}` | {rule.title} | {scope} | {allowances} |")
    return "\n".join(lines) + "\n"
