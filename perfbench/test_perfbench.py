"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from rank3.catalog import builtin_catalog  # noqa: E402
from rank3.families import family_graph, parse_descriptor  # noqa: E402
from tracing import NullTracer, Tracer, self_times  # noqa: E402
from worker import run_pass  # noqa: E402


def test_pins_match_the_catalog():
    catalog = {e.id: e for e in builtin_catalog()}
    for row_id, pin in workloads.PINS.items():
        entry = catalog[row_id]
        assert (pin.n, pin.subdegrees, pin.tier) == (entry.n, entry.subdegrees, entry.tier)
        assert pin.iso == tuple((c.other, c.isomorphic) for c in entry.iso_claims)
        if entry.expected_aut_order is not None:
            assert pin.order == entry.expected_aut_order, row_id
    assert catalog["a52"].expected_aut_order is None
    assert catalog["hq:2:5"].expected_aut_order is None


def test_workloads_cover_every_full_and_slow_row_in_order():
    want = [e.id for e in builtin_catalog() if e.tier in ("FULL", "SLOW")]
    assert workloads.ROWS["verify_slow"] == want


def test_wrong_pinned_order_shows_in_fail_frac():
    """Negative control: the correctness gate must bite, plain and traced."""
    good = workloads.PINS["paley:9"]
    bad = workloads.Pin(good.n, good.subdegrees, 2 * good.order, good.iso, good.tier)
    calls = [
        workloads.row_call(workloads.catalog_entry("paley:9", bad), seed=1),
        workloads.row_call(workloads.catalog_entry("paley:13"), seed=1),
    ]
    for tracer in (NullTracer(), Tracer()):
        counted = run.tally(run_pass(calls, tracer))
        assert counted["fail_frac"] == 0.5
        assert counted["undecided_frac"] == 0.0
        assert [c["name"] for c in counted["wrong"]] == ["paley:9"]


def test_wrong_pinned_order_fails_the_solver_check():
    g = family_graph(parse_descriptor("paley:13"))
    assert workloads.aut_call(g, 78)["outcome"] == workloads.OK
    assert workloads.aut_call(g, 2 * 78)["outcome"] == workloads.WRONG


def test_mapping_recheck_rejects_a_non_isomorphism():
    g = family_graph(parse_descriptor("paley:13"))
    h = workloads.relabel(g, np.random.default_rng(0))
    assert workloads.iso_call(g, h)["outcome"] == workloads.OK
    identity = np.arange(g.n)
    assert workloads.check_mapping(g, h, identity)["outcome"] == workloads.WRONG
    assert workloads.check_mapping(g, g, identity)["outcome"] == workloads.OK


def test_relabelling_follows_the_seed():
    g = family_graph(parse_descriptor("paley:13"))
    first = workloads.relabel(g, np.random.default_rng([1, 0]))
    again = workloads.relabel(g, np.random.default_rng([1, 0]))
    other = workloads.relabel(g, np.random.default_rng([2, 0]))
    assert first == again
    assert first != other


@pytest.mark.parametrize("row_id", ["paley:9", "peisert:49"])
def test_traced_row_agrees_with_verify_entry(row_id):
    call = workloads.row_call(workloads.catalog_entry(row_id), seed=3)
    plain, traced = run_pass([call], NullTracer())[0], run_pass([call], Tracer())[0]
    assert plain["outcome"] == traced["outcome"] == workloads.OK
    assert run.drift(plain, traced) is None
    moved = dict(traced, subdegrees=[1, 2])
    assert "subdegrees" in run.drift(plain, moved)
    assert "verdict" in run.drift(plain, dict(traced, verdict="FAIL"))


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "catalog.row", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "graphs.srg", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "autsolve.aut", "parent": 0, "start": 5.0, "end": 9.0},
    ]
    assert self_times(spans) == {"catalog.row": 3.0, "graphs.srg": 3.0, "autsolve.aut": 4.0}


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_slow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
