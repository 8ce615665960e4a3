"""Microbenchmarks of the isomorphism test, with pytest-benchmark.

    pytest bench/test_iso.py --benchmark-only   # PYTHONPATH=src

``are_isomorphic(g, relabelled h)``, the relabelling a seeded random
permutation as in the solver benchmark, on two pairs:

* ``hq:2:5``: the graph (1024 vertices) against its own relabelling.  The
  family graph carries translation moduli, so its tree is the one searched,
  along the relabelled copy's first path, and its translations collapse the
  root.
* ``paley:81~peisert:81``: two srg(81, 40, 19, 20) that are not isomorphic.
  Degrees and the root refinement agree, so the search has to run out.

and ``are_isomorphic(peisert:81, paley:81)`` on the family graphs, the
catalog's claim as ``rank3 verify`` decides it, with and without
``known=`` the generators of Aut(peisert:81) from the seeded aut search:
given them, peisert:81's tree is searched under them instead of paley:81's
under its translations.
"""

from __future__ import annotations

import numpy as np
import pytest

from rank3.autsolve import NotIsomorphic, are_isomorphic, automorphism_group
from rank3.families import Build, family_graph, parse_descriptor
from rank3.graphs import DenseGraph

PAIRS = [("hq:2:5", "hq:2:5"), ("paley:81", "peisert:81")]
ROUNDS = 10


def relabelled(g: DenseGraph) -> DenseGraph:
    perm = np.random.default_rng(0).permutation(g.n)
    return DenseGraph(g.adj[np.ix_(perm, perm)])


@pytest.fixture(scope="module", params=PAIRS, ids=["~".join(p) for p in PAIRS])
def pair(request):
    a, b = request.param
    return family_graph(parse_descriptor(a)), relabelled(family_graph(parse_descriptor(b))), a == b


def verdict(g: DenseGraph, h: DenseGraph, **kwargs):
    try:
        return are_isomorphic(g, h, **kwargs)
    except NotIsomorphic as exc:
        return exc


def test_are_isomorphic(benchmark, pair):
    g, h, isomorphic = pair
    out = benchmark.pedantic(verdict, (g, h), rounds=ROUNDS)
    if isomorphic:
        assert np.array_equal(h.adj[np.ix_(out, out)], g.adj)
    else:
        assert "exhausted" in out.invariant


@pytest.mark.parametrize("with_aut", [False, True], ids=["plain", "known"])
def test_catalog_claim(benchmark, with_aut):
    fid = parse_descriptor("peisert:81")
    g, h = family_graph(fid), family_graph(parse_descriptor("paley:81"))
    kwargs = {}
    if with_aut:
        kwargs["known"] = automorphism_group(g, known=Build(fid).stabilizer).generators
    out = benchmark.pedantic(verdict, (g, h), kwargs, rounds=ROUNDS)
    assert "exhausted" in out.invariant
