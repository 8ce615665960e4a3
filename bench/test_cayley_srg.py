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

import pytest

from rank3.families import (
    ConnectionSet,
    VectorSpace,
    cayley_graph,
    sl25_with_scalars_spec,
)
from rank3.graphs import DenseGraph, srg_params
from rank3.permgrp import linear_perms, stabilizer_orbits

PRIMES = [41, 71]
ROUNDS = 3


@pytest.fixture(scope="module", params=PRIMES, ids=lambda p: f"sl25:{p}")
def connection_set(request) -> ConnectionSet:
    """The smaller zero-stabilizer orbit, as affine_orbital_graph picks it."""
    p = request.param
    orbit = stabilizer_orbits(linear_perms(sl25_with_scalars_spec(p)))[0]
    return ConnectionSet(VectorSpace(p, 2), frozenset(int(x) for x in orbit))


@pytest.fixture(scope="module")
def graph(connection_set) -> DenseGraph:
    return cayley_graph(connection_set)


def test_cayley_graph(benchmark, connection_set):
    g = benchmark.pedantic(cayley_graph, (connection_set,), rounds=ROUNDS)
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
