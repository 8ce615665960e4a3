"""The whole catalog's verify reports against the committed golden file.

tests/data/verify_all.json is verify_all() with every row's timings dropped:
every stage outcome, verdict and search counter of all 37 rows, and the
summary.  verify_all(seed=3) must give the same file, as the seed relabels
only the sl25 generators.  The file and the fresh runs both come from
scripts/write_verify_golden.py's golden(seed), loaded here, so writer and
checker share one transform.  A change that moves an outcome on purpose
rewrites the file with that script, and the diff names the rows it moved.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "write_verify_golden.py"
spec = importlib.util.spec_from_file_location("write_verify_golden", SCRIPT)
write_verify_golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(write_verify_golden)


@pytest.mark.parametrize("seed", write_verify_golden.SEEDS)
def test_verify_all_matches_golden(seed):
    want = json.loads(write_verify_golden.GOLDEN.read_text(encoding="utf-8"))
    got = write_verify_golden.golden(seed)
    assert [item.get("id") for item in got] == [item.get("id") for item in want]
    for have, expected in zip(got, want):
        assert have == expected
