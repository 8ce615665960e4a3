#!/usr/bin/env python3
"""Write the golden whole-catalog reports that tests/test_golden.py compares.

Two files, each the JSON of catalog.reports_to_json for every builtin row
with every row's ``timings_ms`` dropped, so only the stage outcomes, the
verdicts and the summary remain:

* tests/data/verify_all.json:       verify_all()
* tests/data/verify_all_seed3.json: verify_all(seed=3)

A change that moves an outcome (an order, a verdict, a search counter)
rewrites these files, and the diff shows which rows moved.  tests/test_golden.py
loads this script and compares golden(seed) with the files.

Run from the repository root:  python3 scripts/write_verify_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rank3.catalog import reports_to_json, verify_all  # noqa: E402

DATA_DIR = ROOT / "tests" / "data"
GOLDEN = {"verify_all.json": None, "verify_all_seed3.json": 3}  # file -> seed


def golden(seed: int | None) -> list[dict]:
    """verify_all(seed=seed) as JSON objects, timings dropped."""
    items = json.loads(reports_to_json(verify_all(seed=seed)[0]))
    for item in items:
        item.pop("timings_ms", None)
    return items


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    for name, seed in GOLDEN.items():
        path = DATA_DIR / name
        path.write_text(json.dumps(golden(seed), indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
