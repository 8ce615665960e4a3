"""Microbenchmarks of the seeded automorphism search, with pytest-benchmark.

    pytest bench --benchmark-only      # with rank3 installed, or PYTHONPATH=src

On orbital:sl25:41 (1681 vertices) and hq:3:3 (729 vertices):

* ``automorphism_group``: seeded, i.e. the family graph with its translation
  moduli and its zero-stabilizer passed as ``known``, against the plain
  search on the bare matrix ``DenseGraph(g.adj)``.
* ``_Refiner.refine``: one refinement to equitability after individualizing
  vertex 0, the step every search node takes.
"""

from __future__ import annotations

import numpy as np
import pytest

from rank3.autsolve import _Refiner, automorphism_group
from rank3.families import family_graph, parse_descriptor, zero_stabilizer
from rank3.graphs import DenseGraph

ROWS = ["orbital:sl25:41", "hq:3:3"]
ROUNDS = 3


@pytest.fixture(scope="module", params=ROWS)
def row(request):
    fid = parse_descriptor(request.param)
    return family_graph(fid), zero_stabilizer(fid)


@pytest.mark.parametrize("seeded", [True, False], ids=["seeded", "plain"])
def test_automorphism_group(benchmark, row, seeded):
    g, stab = row
    if seeded:
        args, kwargs = (g,), {"known": stab}
    else:
        args, kwargs = (DenseGraph(g.adj),), {}
    r = benchmark.pedantic(automorphism_group, args, kwargs, rounds=ROUNDS)
    assert r.order % g.n == 0


def test_refine_after_individualizing_zero(benchmark, row):
    g, _ = row
    refiner = _Refiner(g)

    def fresh():
        colors = np.zeros(g.n, dtype=np.int32)
        colors[0] = 1
        return (colors, 2, [1], 0), {}

    num_classes, _ = benchmark.pedantic(refiner.refine, setup=fresh, rounds=ROUNDS * 10)
    assert num_classes == 3  # {0}, N(0) and the non-neighbours of a rank-3 graph
