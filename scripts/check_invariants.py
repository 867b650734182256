#!/usr/bin/env python3
"""Project-specific invariant linter for the QCD reproduction — thin
entry point over the scripts/analyze package.

Machine-checks the contracts the paper's evaluation depends on, which
compilers and sanitizers cannot see: determinism (RFID-DET-001),
zero-alloc hot functions — those whose body opens ALLOC_GUARD_HOT()
(RFID-HOT-002), silent library code (RFID-IO-003), pooled threading
(RFID-THR-004), justified suppressions (RFID-NOLINT-005), hot-function
coverage of the slot kernels (RFID-HOT-006), stream-seed hygiene
(RFID-SEED-007), exception-free noexcept hot kernels (RFID-EXC-008), and
cost-model-only airtime (RFID-TIME-009).

Run `--list-rules` for the full table (`--markdown` emits the DESIGN.md
rule table), `--sarif out.sarif` for CI annotations, and
`--diff origin/main` to scan only changed lines.  See
scripts/analyze/cli.py for the complete usage text.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from analyze.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
