#!/usr/bin/env python3
"""Write the golden whole-catalog report that tests/test_golden.py compares.

tests/data/verify_all.json is the JSON of catalog.reports_to_json for every
builtin row with every row's ``timings_ms`` dropped, so only the stage
outcomes, the verdicts and the summary remain.  It is verify_all(), and
verify_all(seed=3) too: the seed relabels only the sl25 generators, and no
outcome, search counter included, moves, so the test checks both runs
against the one file.

A change that moves an outcome (an order, a verdict, a search counter)
rewrites this file, and the diff shows which rows moved.  tests/test_golden.py
loads this script and compares golden(seed) with the file for every seed in
SEEDS.

Run from the repository root:  python3 scripts/write_verify_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rank3.catalog import reports_to_json, verify_all  # noqa: E402

GOLDEN = ROOT / "tests" / "data" / "verify_all.json"
SEEDS = (None, 3)  # the runs the test compares with GOLDEN


def golden(seed: int | None) -> list[dict]:
    """verify_all(seed=seed) as JSON objects, timings dropped."""
    items = json.loads(reports_to_json(verify_all(seed=seed)[0]))
    for item in items:
        item.pop("timings_ms", None)
    return items


def main() -> None:
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(golden(None), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
