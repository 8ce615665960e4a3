"""Microbenchmarks of the Cayley build and the SRG check, with pytest-benchmark.

    pytest bench --benchmark-only      # with rank3 installed, or PYTHONPATH=src

On the orbital:sl25 graphs for p = 41 (1681 vertices) and p = 71 (5041):

* ``cayley_graph``: the block-circulant build plus DenseGraph's checks,
  translations included.
* ``DenseGraph``: the same matrix with and without moduli, i.e. the cost of
  certifying the unit translations.
* ``srg_params``: one row when the graph carries moduli, every row on the bare
  matrix ``DenseGraph(g.adj)``.
"""

from __future__ import annotations

import numpy as np
import pytest

from rank3.families import cayley_graph, sl25_with_scalars_spec
from rank3.graphs import DenseGraph, srg_params
from rank3.permgrp import linear_perms, stabilizer_orbits

PRIMES = [41, 71]
ROUNDS = 3


@pytest.fixture(scope="module", params=PRIMES, ids=lambda p: f"sl25:{p}")
def cayley_args(request) -> tuple[int, int, np.ndarray]:
    """(p, 2, the smaller zero-stabilizer orbit), as affine_orbital_graph
    passes them."""
    p = request.param
    orbit = stabilizer_orbits(linear_perms(sl25_with_scalars_spec(p)))[0]
    return p, 2, orbit


@pytest.fixture(scope="module")
def graph(cayley_args) -> DenseGraph:
    return cayley_graph(*cayley_args)


def test_cayley_graph(benchmark, cayley_args):
    g = benchmark.pedantic(cayley_graph, cayley_args, rounds=ROUNDS)
    assert g.moduli is not None


@pytest.mark.parametrize("with_moduli", [True, False], ids=["moduli", "bare"])
def test_dense_graph(benchmark, graph, with_moduli):
    moduli = graph.moduli if with_moduli else None
    h = benchmark.pedantic(DenseGraph, (graph.adj, moduli), rounds=ROUNDS)
    assert h == graph


@pytest.mark.parametrize("with_moduli", [True, False], ids=["moduli", "bare"])
def test_srg_params(benchmark, graph, with_moduli):
    g = graph if with_moduli else DenseGraph(graph.adj)
    params = benchmark.pedantic(srg_params, (g,), rounds=ROUNDS)
    assert params.k == len(graph.neighbours(0))
