"""Project invariant analysis for the QCD reproduction.

A small static-analysis package that machine-checks the contracts the
paper's evaluation depends on — determinism of seeded replay, the
zero-allocation slot hot path, silent library code, pooled threading,
justified suppressions, stream-seed hygiene, exception-free hot kernels,
and cost-model-only airtime.  Hot code is what the runtime guard marks:
a function whose body opens ALLOC_GUARD_HOT().

Modules:
    lexer   -- C++ comment/string stripper producing parallel code and
               comment line views.
    rules   -- the one declarative rule table (ids, scopes, allowlists,
               patterns) shared by the linter, --list-rules, and the
               generated DESIGN.md rule table.
    engine  -- file collection, per-file rule driving, the function-
               definition scanner that finds hot functions, --diff
               changed-line filter.
    sarif   -- SARIF 2.1.0 emission for CI annotation.
    cli     -- the command-line entry point scripts/check_invariants.py
               delegates to.
"""

from . import cli, engine, lexer, rules, sarif  # noqa: F401
