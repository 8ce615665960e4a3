"""Microbenchmarks of the zero-stabilizer G0's making and checking, with
pytest-benchmark.

    pytest bench/test_zero_stabilizers.py --benchmark-only   # PYTHONPATH=src

* the polar G0 builder (``families._polar_zero_stabilizer``, past its
  per-process cache) on the four polar rows of ``rank3 verify --tier slow``:
  the isometries and the similitude, one stacked determinant check, the
  linear action, the similitude check and the order certificate.  The form
  values and the fields it reads are made once per process, so they are
  warm here;
* ``autsolve._known_automorphisms`` on the 22 FULL and SLOW rows, each
  row's G0 checked as one stack against its graph, as the aut and iso
  stages start;
* a single-map ``graphs.is_isomorphism`` on ``paley:13``, ``vo:+:8:2`` and
  ``orbital:sl25:41``, an affine automorphism (G0's last generator), as the
  solver checks each leaf it finds.

On a 2-core machine (Python 3.11, numpy 2.4) the builds take 0.5-5 ms each,
the 22 rows' checks about 2 ms together and a single map 25-40 us, so all
get ``ROUNDS`` rounds.
"""

from __future__ import annotations

import pytest

from rank3.autsolve import _known_automorphisms
from rank3.catalog import builtin_catalog
from rank3.families import Build, _polar_zero_stabilizer, parse_descriptor
from rank3.graphs import is_isomorphism
from rank3.permgrp import linear_perms

POLAR = [(4, 2, 1), (3, 2, -1), (2, 3, 1), (2, 2, -1)]  # vo:+:8:2 vo:-:6:2 vo:+:4:3 vo:-:4:2
SINGLE_MAP_ROWS = ["paley:13", "vo:+:8:2", "orbital:sl25:41"]
ROUNDS = 20


@pytest.mark.parametrize("params", POLAR, ids=[":".join(map(str, p)) for p in POLAR])
def test_polar_zero_stabilizer_build(benchmark, params):
    spec, perms = benchmark.pedantic(_polar_zero_stabilizer.__wrapped__, params, rounds=ROUNDS)
    assert perms.gens.tobytes() == linear_perms(spec).gens.tobytes()


def test_known_automorphisms_on_verify_rows(benchmark):
    rows = [Build(e.family) for e in builtin_catalog() if e.tier in ("FULL", "SLOW")]
    pairs = [(row.graph, row.stabilizer) for row in rows]
    assert len(pairs) == 22

    def check_all():
        return [_known_automorphisms(g, known) for g, known in pairs]

    seeds = benchmark.pedantic(check_all, rounds=ROUNDS)
    assert all(len(s) >= len(g.moduli) for s, (g, _) in zip(seeds, pairs))


@pytest.mark.parametrize("desc", SINGLE_MAP_ROWS)
def test_single_map_is_isomorphism(benchmark, desc):
    row = Build(parse_descriptor(desc))
    g, mapping = row.graph, row.stabilizer.gens[-1]
    assert benchmark.pedantic(is_isomorphism, (g, g, mapping), rounds=ROUNDS, iterations=10)
