"""Microbenchmarks of the solver's per-automorphism bookkeeping, with
pytest-benchmark.

    pytest bench/test_orbits.py --benchmark-only   # PYTHONPATH=src

* ``permgrp.orbit_mask``: the orbit of vertex 0 under a root generator
  stack, the unit translations followed by the zero-stabilizer G0
  (``family_group``), on ``hq:3:3`` (729 points), ``vo:+:8:2`` (256) and
  ``orbital:sl25:41`` (1681).  The translations are transitive, so the
  closure reaches every point, in as many rounds as the stack's diameter.
* ``graphs.is_isomorphism`` on its row path: ``a52`` (1024 vertices)
  against its relabelling by a seeded random permutation, which carries no
  moduli, so the map is checked block by block on the upper triangle.
"""

from __future__ import annotations

import numpy as np
import pytest

from rank3.families import family_graph, family_group, parse_descriptor
from rank3.graphs import DenseGraph, is_isomorphism
from rank3.permgrp import orbit_mask

STACK_ROWS = ["hq:3:3", "vo:+:8:2", "orbital:sl25:41"]
ROUNDS = 20


@pytest.mark.parametrize("desc", STACK_ROWS)
def test_orbit_mask_root_stack(benchmark, desc):
    gens = family_group(parse_descriptor(desc)).gens
    seed = np.zeros(gens.shape[1], dtype=bool)
    seed[0] = True
    mask = benchmark.pedantic(orbit_mask, (gens, seed), rounds=ROUNDS)
    assert mask.all()


def test_is_isomorphism_row_path(benchmark):
    g = family_graph(parse_descriptor("a52"))
    sigma = np.random.default_rng(0).permutation(g.n)
    inv = np.argsort(sigma)
    h = DenseGraph(g.adj[np.ix_(inv, inv)])  # h.adj[sigma[i], sigma[j]] = g.adj[i, j]
    assert h.moduli is None
    assert benchmark.pedantic(is_isomorphism, (g, h, sigma), rounds=ROUNDS)
