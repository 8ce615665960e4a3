"""Microbenchmarks of the seeded automorphism search, with pytest-benchmark.

    pytest bench --benchmark-only      # with rank3 installed, or PYTHONPATH=src

On orbital:sl25:41 (1681 vertices) and hq:3:3 (729 vertices):

* ``automorphism_group``: seeded, i.e. the family graph with its translation
  moduli and its zero-stabilizer passed as ``known``, against the plain
  search on the bare matrix ``DenseGraph(g.adj)``.
* ``_Refiner.refine``: one refinement to equitability after individualizing
  vertex 0, the step every search node takes.

On hq:2:5 and a52 (1024 vertices each), relabelled by a seeded random
permutation as the solver benchmark relabels them, the two kinds of
splitter pass (``_Refiner._pass``) after vertex 0 is individualized and
refined to its three cells {0}, N(0) and the non-neighbours:

* ``nosplit``: the singleton {0} as splitter again; every cell is already
  equitable against it, so the pass splits nothing, as most passes of the
  search do.
* ``split``: a neighbour v of 0 individualized, then {v} as splitter; it
  splits N(0) and the non-neighbours by adjacency to v.
* ``deep``: twice more, the least member of the largest cell
  individualized and the coloring refined; then once more individualized,
  with its new cell as splitter.  It splits 26 cells of hq:2:5 and 68 of
  a52, so it times the per-cell end of a pass (the trace and the Hopcroft
  queue), which ``split``, with two split cells, barely reaches.

On the same two relabelled graphs, ``automorphism_group`` unseeded: the
heaviest calls of the solver benchmark's aut searches.

On relabelled hq:2:5, one refinement of an off-path child at depth 2 of the
first path's four (the least other member of the first path's target cell
there, individualized): under the first path's record (``record``), which
stops it after the record's 5 passes, against the same child refined to
equitability (``equitable``), 16 passes; 5 of them split in both.

On orbital:sl25:41, the root and the first path (``_Solver.first_path``),
refined with no record as the search refines them (``idle_stop``): each
node stops after ``_Refiner.IDLE_STOP`` = 16 passes in a row that split
nothing, 26 passes in all; against every node refined to equitability
(``equitable``), 51 passes, 41 of them the idle tail of the node at depth
1.  Both split the same 8 times and record the same passes.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest

from rank3.autsolve import _Cells, _individualized, _Refiner, _Solver, automorphism_group
from rank3.families import Build, family_graph, parse_descriptor
from rank3.graphs import DenseGraph

ROWS = ["orbital:sl25:41", "hq:3:3"]
PASS_ROWS = ["hq:2:5", "a52"]
# |Aut|: 1024 * |GL_2(2)| * |GL_5(2)| and 1024 * |GL_5(2)|
PASS_ROW_ORDERS = {"hq:2:5": 1024 * 6 * 9999360, "a52": 1024 * 9999360}
OFF_PATH_DEPTH = 2
OFF_PATH_PASSES = {True: 5, False: 16}  # (follow the record) -> passes
FIRST_PATH_ROW = "orbital:sl25:41"
FIRST_PATH_PASSES = {16: 26, math.inf: 51}  # IDLE_STOP -> passes
ROUNDS = 3


class EquitableRefiner(_Refiner):
    """The refiner with no idle stop: a refinement with no record runs to
    equitability."""

    IDLE_STOP = math.inf


@pytest.fixture(scope="module", params=ROWS)
def row(request):
    row = Build(parse_descriptor(request.param))
    return row.graph, row.stabilizer


@pytest.mark.parametrize("seeded", [True, False], ids=["seeded", "plain"])
def test_automorphism_group(benchmark, row, seeded):
    g, stab = row
    if seeded:
        args, kwargs = (g,), {"known": stab}
    else:
        args, kwargs = (DenseGraph(g.adj),), {}
    r = benchmark.pedantic(automorphism_group, args, kwargs, rounds=ROUNDS)
    assert r.order % g.n == 0


def individualized(g: DenseGraph, v: int) -> _Cells:
    """The unit partition with v individualized (v's cell gets id 1)."""
    cells = _Cells.of(np.zeros(g.n, dtype=np.int32))
    cells.individualize(v)
    return cells


def test_refine_after_individualizing_zero(benchmark, row):
    g, _ = row
    refiner = _Refiner(g)

    def fresh():
        return (individualized(g, 0), [1], 0), {}

    benchmark.pedantic(refiner.refine, setup=fresh, rounds=ROUNDS * 10)
    cells = individualized(g, 0)
    refiner.refine(cells, [1], 0)
    assert cells.num_classes == 3  # {0}, N(0) and the non-neighbours of a rank-3 graph


def least_of_largest(cells: _Cells) -> int:
    """The least member of the largest cell (the first such cell)."""
    return int(cells.members(int(np.argmax(cells.size[: cells.num_classes])))[0])


@pytest.fixture(scope="module", params=PASS_ROWS)
def relabelled_rank3(request):
    """The relabelled graph, its coloring refined after individualizing 0,
    and that coloring individualized and refined twice more."""
    g = family_graph(parse_descriptor(request.param))
    perm = np.random.default_rng(0).permutation(g.n)
    h = DenseGraph(g.adj[np.ix_(perm, perm)])
    refiner = _Refiner(h)
    cells = individualized(h, 0)
    refiner.refine(cells, [1], 0)
    assert cells.num_classes == 3
    deep = cells.copy()
    for _ in range(2):
        deep.individualize(least_of_largest(deep))
        refiner.refine(deep, [deep.num_classes - 1], 0)
    return h, cells, deep, PASS_ROW_ORDERS[request.param]


def test_relabelled_automorphism_group(benchmark, relabelled_rank3):
    h, *_, order = relabelled_rank3
    r = benchmark.pedantic(automorphism_group, (h,), rounds=ROUNDS)
    assert (r.order, r.known) == (order, 0)


@pytest.mark.parametrize("kind", ["nosplit", "split", "deep"])
def test_splitter_pass(benchmark, relabelled_rank3, kind):
    g, refined, deep, _ = relabelled_rank3
    refiner = _Refiner(g)
    v = int(np.flatnonzero(g.adj[0])[0])

    def fresh():
        if kind == "nosplit":
            return (refined.copy(), [int(refined.colors[0])], 1, 0, deque(), set()), {}
        cells = deep.copy() if kind == "deep" else refined.copy()
        cells.individualize(least_of_largest(cells) if kind == "deep" else v)
        return (cells, [cells.num_classes - 1], 1, 0, deque(), set()), {}

    benchmark.pedantic(refiner._pass, setup=fresh, rounds=ROUNDS * 100)
    assert refiner.splits == (0 if kind == "nosplit" else refiner.refinements)
    if kind == "deep":
        (cells, s, *rest), _ = fresh()
        before = cells.colors.copy()
        refiner._pass(cells, s, *rest)
        assert len(np.unique(before[cells.colors != before])) >= 10  # split cells


@pytest.fixture(scope="module")
def off_path():
    """Relabelled hq:2:5, its first path's node at depth OFF_PATH_DEPTH (the
    cells and the trace), an off-path child vertex there, and the first
    path's record and trace at that depth."""
    g = family_graph(parse_descriptor("hq:2:5"))
    perm = np.random.default_rng(0).permutation(g.n)
    h = DenseGraph(g.adj[np.ix_(perm, perm)])
    solver = _Solver(h, math.inf)
    path = solver.first_path(*solver.root())
    cells, trace = path.nodes[OFF_PATH_DEPTH]
    first = path.vertices[OFF_PATH_DEPTH]
    target = cells.members(path.cells[OFF_PATH_DEPTH]).tolist()
    w = min(v for v in target if v != first)
    record = path.records[OFF_PATH_DEPTH]
    return h, cells, trace, w, record, path.nodes[OFF_PATH_DEPTH + 1][1]


@pytest.mark.parametrize("follow", [True, False], ids=["record", "equitable"])
def test_off_path_refine(benchmark, off_path, follow):
    h, cells, trace, w, record, first_trace = off_path
    refiner = _Refiner(h) if follow else EquitableRefiner(h)

    def fresh():
        child, start = _individualized(cells, trace, w)
        return (child, [child.num_classes - 1], start, record if follow else None), {}

    benchmark.pedantic(refiner.refine, setup=fresh, rounds=ROUNDS * 10)
    (child, queue, start, rec), _ = fresh()
    before = refiner.refinements
    got, _ = refiner.refine(child, queue, start, rec)
    passes = refiner.refinements - before
    assert passes == OFF_PATH_PASSES[follow] and got == first_trace
    # following, the child's trace matches the record's after every pass
    assert len(record) == OFF_PATH_PASSES[True]


@pytest.mark.parametrize(
    "refiner", [_Refiner, EquitableRefiner], ids=["idle_stop", "equitable"]
)
def test_first_path(benchmark, refiner):
    g = family_graph(parse_descriptor(FIRST_PATH_ROW))

    def first_path():
        solver = _Solver(g, math.inf)
        solver.refiner = refiner(g)
        return solver, solver.first_path(*solver.root())

    solver, path = benchmark.pedantic(first_path, rounds=ROUNDS)
    assert solver.refiner.refinements == FIRST_PATH_PASSES[refiner.IDLE_STOP]
    assert solver.refiner.splits == 8
    assert [len(record) for record in path.records] == [1, 5, 2]
