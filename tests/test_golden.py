"""The whole catalog's verify reports against the committed golden files.

tests/data/verify_all.json is verify_all(tier="all") and
tests/data/verify_all_seed3.json the same run with seed=3, each with every
row's timings dropped: every stage outcome, verdict and search counter of
all 37 rows, and the summary.  A change that moves one on purpose rewrites
both files with scripts/write_verify_golden.py, and the diff names the rows
it moved.
"""

import json
from pathlib import Path

import pytest

from rank3.catalog import reports_to_json, verify_all

DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize(
    "name,seed", [("verify_all.json", None), ("verify_all_seed3.json", 3)]
)
def test_verify_all_matches_golden(name, seed):
    want = json.loads((DATA / name).read_text(encoding="utf-8"))
    got = json.loads(reports_to_json(verify_all("all", seed=seed)[0]))
    for item in got:
        item.pop("timings_ms", None)
    assert [item.get("id") for item in got] == [item.get("id") for item in want]
    for have, expected in zip(got, want):
        assert have == expected
