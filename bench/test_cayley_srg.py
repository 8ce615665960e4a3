"""Microbenchmarks of the Cayley build and the SRG check, with pytest-benchmark.

    pytest bench --benchmark-only      # with rank3 installed, or PYTHONPATH=src

* ``cayley_graph``: on the orbital:sl25 graphs for p = 41 (1681 vertices) and
  p = 71 (5041), row 0 and then its packed rows, which runs the banded
  circulant build from row 0 (``DenseGraph.from_row0`` packs each band as it
  comes, on the rows' first read), and needs no certificate.
* ``DenseGraph``: a family graph's matrix handed to the constructor, which
  runs the tiled symmetry check and packs the rows (a graph with moduli
  comes only from ``from_row0`` and needs no check of its matrix).  It runs
  on the two sl25 graphs, hq:2:5 (1024 vertices) and
  orbital:extraspecial:2401.
* ``srg_params``: row 0's autocorrelation over the translation group when
  the graph carries moduli (integer Walsh-Hadamard butterflies on the
  radix-2 digits, one FFT on the others), and every row's neighbour counts
  in its neighbourhood on the bare matrix ``DenseGraph(g.adj)``, on the sl25
  graphs (moduli (p, p), all FFT).
* ``srg_params`` with moduli on the GF(2)^d rows hq:2:5 and a52 (1024
  vertices) and hq:4:3 (4096), all butterflies, and on
  orbital:extraspecial:2401 (moduli (7,) * 4, all FFT) as the control.
"""

from __future__ import annotations

import numpy as np
import pytest

from rank3.families import cayley_graph, family_graph, parse_descriptor, sl25_with_scalars_spec
from rank3.graphs import DenseGraph, srg_params
from rank3.permgrp import linear_perms, stabilizer_orbits

PRIMES = [41, 71]
FAMILIES = ["orbital:sl25:41", "orbital:sl25:71", "hq:2:5", "orbital:extraspecial:2401"]
SRG_FAMILIES = ["hq:2:5", "a52", "hq:4:3", "orbital:extraspecial:2401"]
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


@pytest.fixture(scope="module", params=FAMILIES)
def family(request) -> DenseGraph:
    return family_graph(parse_descriptor(request.param))


def built_cayley_graph(p: int, d: int, orbit: np.ndarray) -> DenseGraph:
    g = cayley_graph(p, d, orbit)
    g._rows  # the first read packs the rows
    return g


def test_cayley_graph(benchmark, cayley_args):
    g = benchmark.pedantic(built_cayley_graph, cayley_args, rounds=ROUNDS)
    assert g.moduli is not None and g.adj.shape == (g.n, g.n)


def test_dense_graph(benchmark, family):
    h = benchmark.pedantic(DenseGraph, (family.adj,), rounds=ROUNDS)
    assert h == family and h.moduli is None


@pytest.mark.parametrize("with_moduli", [True, False], ids=["moduli", "bare"])
def test_srg_params(benchmark, graph, with_moduli):
    g = graph if with_moduli else DenseGraph(graph.adj)
    params = benchmark.pedantic(srg_params, (g,), rounds=ROUNDS)
    assert params.k == int(graph.adj[0].sum())


@pytest.mark.parametrize("descriptor", SRG_FAMILIES)
def test_srg_params_on_moduli(benchmark, descriptor):
    g = family_graph(parse_descriptor(descriptor))
    params = benchmark.pedantic(srg_params, (g,), rounds=ROUNDS)
    assert g.moduli is not None and params.k == int(g.row0.sum())
