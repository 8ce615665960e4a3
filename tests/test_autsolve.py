"""Automorphism/isomorphism solver tests.

Small cases are cross-checked against the exhaustive permutation scan; larger
orders against classical group sizes for the graph families.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from collections import deque
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rank3
from rank3.autsolve import (
    AutResult,
    NotIsomorphic,
    Timeout,
    TooLarge,
    _Cells,
    _OrbitSet,
    _Refiner,
    _Solver,
    are_isomorphic,
    automorphism_group,
    brute_force_aut,
)
from rank3.catalog import builtin_catalog
from rank3.families import (
    Build,
    family_graph,
    family_group,
    hamming2,
    paley,
    parse_descriptor,
    peisert,
)
from rank3.graphs import DenseGraph, complement, unit_translations
from rank3.permgrp import (
    GeneratorSet,
    MatrixGroupSpec,
    _base_product,
    linear_perms,
    orbit_mask,
    reaches_order,
    schreier_sims,
)


def no_chain(*args, **kwargs):
    raise AssertionError("stabilizer chain built")


def from_edges(n, edges):
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    return DenseGraph(adj)


def path_graph(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


PETERSEN = from_edges(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
)


def random_graph(rng, n, p):
    adj = rng.random((n, n)) < p
    adj = np.triu(adj, 1)
    return DenseGraph(adj | adj.T)


def relabelled(g, seed):
    perm = np.random.default_rng(seed).permutation(g.n)
    return DenseGraph(g.adj[np.ix_(perm, perm)])


def union_graph(g, h):
    """The disjoint union of g and h: h's vertex i is vertex g.n + i."""
    n = g.n
    adj = np.zeros((2 * n, 2 * n), dtype=bool)
    adj[:n, :n] = g.adj
    adj[n:, n:] = h.adj
    return DenseGraph(adj)


def naive_equitable(g, colors):
    """Coarsest equitable refinement by whole-partition rounds: recolor every
    vertex by (its color, its neighbour count in each color) until the
    number of colors stops growing."""
    colors = np.asarray(colors)
    while True:
        ncls = len(set(colors.tolist()))
        onehot = np.eye(ncls, dtype=np.int64)[np.unique(colors, return_inverse=True)[1]]
        counts = g.adj.astype(np.int64) @ onehot
        keys = [(int(c), tuple(row)) for c, row in zip(colors, counts.tolist())]
        index = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = np.array([index[k] for k in keys])
        if len(index) == ncls:
            return new
        colors = new


def same_partition(a, b):
    """Whether two colorings have the same classes, whatever their ids."""
    pairs = set(zip(np.asarray(a).tolist(), np.asarray(b).tolist()))
    return len(pairs) == len(set(np.asarray(a).tolist())) == len(set(np.asarray(b).tolist()))


# -- the reference refiner ---------------------------------------------------------
#
# The splitter pass as it was before the cell layout: it scans the colors for
# the splitter's members, and finds and sorts split cells by scatter and
# gather over every vertex.  Copied unchanged (class name aside) but for the
# trace's mixing function and the batch rule: the cell at the queue's head
# takes the cells queued directly behind it while their members total at
# most 53 and their widths (a cell of s members has s.bit_length()) at most
# `width`, and a batch of more than one cell counts each vertex's neighbours
# in each cell from the boolean rows, shifted left by the widths of the
# cells before it and summed.  The same words, the batch and then each
# part's id, count and size, go into one hash() per splitting pass, as in
# the refiner.  It is the oracle for the layout-based refiner: same class
# ids, queue, trace and number of passes.

_M64 = (1 << 64) - 1


class ReferenceRefiner:
    """Cell-targeted equitable refinement of vertex colorings of one graph.

    A splitter pass counts every vertex's neighbours in the splitter cell,
    or in each cell of a batch, those counts packed side by side, finds the
    cells whose counts are not uniform (each of them meets the splitter) by
    holding every count against one count of its own cell, and sorts and
    splits only those cells: no step of a pass loops over every cell in
    Python, and only members of split cells are sorted.  A batch's widths
    total at most `width`, the bits a count has in the refiner's key: 63
    less two fields of vbits.  `deadline`, a time.monotonic() value, is
    checked once per pass: Timeout when it has passed.
    """

    def __init__(self, g: DenseGraph, deadline: float = math.inf):
        self.n = g.n
        self.rows = g.adj.view(np.uint8)
        self.packed = g._rows.view(np.uint64)
        self.words = self.packed.shape[1] if g.n else 0
        self._anded = np.empty_like(self.packed)
        self._bits = np.empty(self.packed.shape, dtype=np.uint8)
        self.deadline = deadline
        self.refinements = 0
        self.width = 63 - 2 * max(g.n - 1, 1).bit_length()

    def _counts(self, members: np.ndarray) -> np.ndarray:
        """Neighbours of every vertex among `members`."""
        # summing k byte rows touches k * n bytes; AND + popcount over the
        # n * words packed words measures about as slow as n / 8 rows
        if 8 * len(members) < self.n:
            return self.rows[members].sum(axis=0, dtype=np.int32)
        b = np.zeros(self.words * 64, dtype=bool)
        b[members] = True
        mask = np.packbits(b).view(np.uint64)
        np.bitwise_and(self.packed, mask, out=self._anded)
        np.bitwise_count(self._anded, out=self._bits)
        return self._bits.sum(axis=1, dtype=np.int32)

    def _batch_counts(self, colors: np.ndarray, batch: list[int]) -> np.ndarray:
        """Every vertex's count for the batch: its neighbours in one cell, or
        its neighbours in each cell of the batch, each shifted left by the
        widths of the cells before it, summed."""
        cells = [(colors == c).nonzero()[0] for c in batch]
        if len(cells) == 1:
            return self._counts(cells[0])
        cnt, shift = np.zeros(self.n, dtype=np.int64), 0
        for members in cells:
            cnt += self.rows[members].sum(axis=0, dtype=np.int64) << shift
            shift += len(members).bit_length()
        return cnt

    def refine(
        self, colors: np.ndarray, num_classes: int, queue, trace: int
    ) -> tuple[int, int]:
        """Refine colors in place to the coarsest equitable refinement,
        processing the given splitter queue (Hopcroft all-but-largest).
        Returns (num_classes, trace).

        Split cells are handled in ascending id; each keeps its id on the
        lowest-count part, and its other parts get fresh ids in ascending
        count order.
        """
        n = self.n
        pending = deque(queue)
        queued = set(pending)
        while pending and num_classes < n:
            if time.monotonic() > self.deadline:
                raise Timeout("the reference refiner passed its deadline")
            batch = [pending.popleft()]
            members = int(np.count_nonzero(colors == batch[0]))
            widths = members.bit_length()
            while pending:
                size = int(np.count_nonzero(colors == pending[0]))
                if members + size > 53 or widths + size.bit_length() > self.width:
                    break
                batch.append(pending.popleft())
                members, widths = members + size, widths + size.bit_length()
            queued.difference_update(batch)
            self.refinements += 1
            cnt = self._batch_counts(colors, batch)
            some = np.empty(num_classes, dtype=cnt.dtype)
            some[colors] = cnt  # one count out of each cell
            odd = colors[cnt != some[colors]]  # cells holding another count
            if not len(odd):
                continue
            split = np.zeros(num_classes, dtype=bool)
            split[odd] = True
            # sort the members of the split cells by (cell, count): each run
            # of one pair is a part, each cell's first part keeps its id
            verts = split[colors].nonzero()[0]
            order = np.lexsort((cnt[verts], colors[verts]))
            verts = verts[order]
            vcell, vcnt = colors[verts], cnt[verts]
            change = (vcell[1:] != vcell[:-1]) | (vcnt[1:] != vcnt[:-1])
            bounds = np.concatenate(([True], change, [True])).nonzero()[0]
            starts = bounds[:-1]
            psize = bounds[1:] - starts
            pcell, pcnt = vcell[starts], vcnt[starts]
            first = np.concatenate(([True], pcell[1:] != pcell[:-1]))
            fresh = np.cumsum(~first)
            ids = np.where(first, pcell, num_classes + fresh - 1)
            colors[verts] = np.repeat(ids, psize)
            num_classes += int(fresh[-1])
            cell_starts = np.flatnonzero(first).tolist()
            ids, psize, pcnt = ids.tolist(), psize.tolist(), pcnt.tolist()
            trace = hash((trace, tuple(batch), tuple(ids), tuple(pcnt), tuple(psize))) & _M64
            for a, b in zip(cell_starts, cell_starts[1:] + [len(ids)]):
                c = ids[a]
                if c in queued:
                    grow = ids[a + 1 : b]
                else:
                    part_sizes = psize[a:b]
                    largest = a + part_sizes.index(max(part_sizes))
                    grow = ids[a:largest] + ids[largest + 1 : b]
                pending.extend(grow)
                queued.update(grow)
        return num_classes, trace


class CountingReference(ReferenceRefiner):
    """The reference refiner, also recording the size of each pass's first
    splitter and counting the passes that split a cell (those after which
    there are more classes than before)."""

    def __init__(self, g):
        super().__init__(g)
        self.sizes, self.splits = [], 0

    def refine(self, colors, num_classes, queue, trace):
        self._classes = []
        num_classes, trace = super().refine(colors, num_classes, queue, trace)
        seen = self._classes + [num_classes]
        self.splits += sum(b > a for a, b in zip(seen, seen[1:]))
        return num_classes, trace

    def _batch_counts(self, colors, batch):
        self.sizes.append(int(np.count_nonzero(colors == batch[0])))
        self._classes.append(int(colors.max()) + 1)
        return super()._batch_counts(colors, batch)


class OneSplitterReference(ReferenceRefiner):
    """The reference refiner with one splitter per pass, as before batching."""

    def __init__(self, g):
        super().__init__(g)
        self.width = 1


def check_layout(cells):
    """Every cell is its segment of lab, ascending, and same marks exactly
    the neighbouring positions of one cell."""
    n, c = len(cells.colors), cells.num_classes
    assert sorted(cells.lab.tolist()) == list(range(n))
    laid = cells.colors[cells.lab]
    assert np.array_equal(cells.same, laid[1:] == laid[:-1])
    assert np.array_equal(cells.size[:c], np.bincount(cells.colors, minlength=c))
    assert (cells.size[:c] > 0).all()
    for k in range(c):
        seg = cells.members(k)
        assert (cells.colors[seg] == k).all() and (np.diff(seg) > 0).all()


# -- the order oracle -------------------------------------------------------------
#
# The solver reads |Aut| off the orbits its first-path nodes prune with.  The
# count below redoes it from scratch after the search, from the first path and
# the generators alone: the product over the first path of the orbit length of
# each individualized vertex under the generators fixing the vertices before
# it.


def order_from_first_path(n, vertices, imgs):
    order = 1
    for depth, v in enumerate(vertices):
        pts = np.asarray(vertices[:depth], dtype=np.int64)
        fixing = [img for img in imgs if np.array_equal(img[pts], pts)]
        fixing = np.array(fixing, dtype=np.int32).reshape(len(fixing), n)
        seed = np.zeros(n, dtype=bool)
        seed[v] = True
        order *= int(orbit_mask(fixing, seed).sum())
    return order


def assert_order_matches_oracle(g, known=()):
    """Run the search from the known image arrays; its order must equal the
    oracle's count over the same first path and generators."""
    solver = _Solver(g, time.monotonic() + 60.0, list(known))
    solver.run()
    imgs = list(known) + solver.gens
    assert solver.order == order_from_first_path(g.n, solver.path.vertices, imgs)
    return solver.order


def closure(imgs, points, n):
    """The points reached from ``points`` under the image arrays imgs, one
    point at a time: the reference for _OrbitSet."""
    seen, stack = set(points), list(points)
    while stack:
        x = stack.pop()
        for img in imgs:
            if int(img[x]) not in seen:
                seen.add(int(img[x]))
                stack.append(int(img[x]))
    mask = np.zeros(n, dtype=bool)
    mask[list(seen)] = True
    return mask


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 24), st.data())
def test_orbit_set_holds_the_first_seeds_orbit(n, data):
    # seeds and generators arrive interleaved, as a first-path node adds
    # them; the marks stay the closure of every seed, and first_orbit is the
    # first seed's orbit under every generator added, whatever came after
    perm = st.permutations(range(n)).map(lambda p: np.array(p, dtype=np.int32))
    start = data.draw(st.lists(perm, max_size=2))
    orbits = _OrbitSet(n, np.array(start, dtype=np.int32).reshape(len(start), n))
    gens, seeds = list(start), []
    steps = st.one_of(st.integers(0, n - 1), st.lists(perm, max_size=2))
    for step in data.draw(st.lists(steps, min_size=1, max_size=8)):
        if isinstance(step, int):
            orbits.add_seed(step)
            seeds.append(step)
        else:
            orbits.add_gens(step)
            gens.extend(step)
    assert np.array_equal(orbits.gens, np.array(gens, dtype=np.int32).reshape(len(gens), n))
    assert np.array_equal(orbits.mark, closure(gens, seeds, n))
    if seeds:
        assert np.array_equal(orbits.first_orbit(), closure(gens, seeds[:1], n))


# -- the equitable reference search ----------------------------------------------
#
# Off the first path, the solver refines a node only as far as the first path's
# record at its depth, and on it, a node stops after IDLE_STOP passes in a row
# that split nothing.  The search below refines every node to equitability,
# as the solver did before the record and the stop: same first path's cells,
# orders, nodes and generators, in more passes.


class EquitableRefiner(_Refiner):
    """The refiner following no record and never stopping short of
    equitability."""

    IDLE_STOP = math.inf

    def refine(self, cells, queue, trace, record=None):
        return super().refine(cells, queue, trace)


class EquitableSolver(_Solver):
    """The search with every node refined to equitability."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.refiner = EquitableRefiner(self.g, self.deadline)


def assert_searches_like_equitable(g):
    """Search g as the solver does and as the equitable reference does: the
    orders, node counts and generators must be equal.  Returns the order."""
    new, ref = _Solver(g, math.inf), EquitableSolver(g, math.inf)
    new.run()
    ref.run()
    assert (new.order, new.nodes) == (ref.order, ref.nodes)
    assert [img.tolist() for img in new.gens] == [img.tolist() for img in ref.gens]
    assert new.refiner.refinements <= ref.refiner.refinements
    return new.order


def smallest_cell(self, cells):
    """The solver's former target-cell rule, kept here as a second rule for
    the search: the smallest non-singleton cell, ties to the least first
    member (a vertex label, so not label-invariant)."""
    sizes = cells.size[: cells.num_classes]
    cands = np.flatnonzero(sizes > 1)
    smallest = cands[sizes[cands] == sizes[cands].min()]
    return int(smallest[np.argmin(cells.lab[cells.start[smallest]])])


def orders_under_both_target_rules(g, monkeypatch):
    """automorphism_group(g) with the solver's target cell and with
    smallest_cell: the two orders, each checked against the exact
    Schreier-Sims order of its own generators."""
    results = [automorphism_group(g)]
    with monkeypatch.context() as patch:
        patch.setattr(_Solver, "_pick_cell", smallest_cell)
        results.append(automorphism_group(g))
    for r in results:
        assert schreier_sims(r.generators).order == r.order
    return [r.order for r in results]


def small_random_graphs():
    """200 random graphs on 1-7 vertices, for the brute-force cross-checks."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        yield random_graph(rng, n, float(rng.choice([0.2, 0.5, 0.8])))


def num_classes(colors):
    return int(colors.max()) + 1


def refine(g, colors):
    """The coarsest equitable coloring refining `colors`, by the solver's
    refiner with no idle stop: within each class, all vertices have the same
    number of neighbours in every class.  A coloring is an int array of g.n
    class ids that uses each of 0..c-1; ValueError otherwise.  Class ids are
    assigned deterministically (splits keep the old id on the lowest-count
    part, new parts get fresh ids in ascending count order)."""
    colors = np.asarray(colors)
    if colors.shape != (g.n,):
        raise ValueError(f"coloring has shape {colors.shape}, graph has {g.n} vertices")
    if g.n and (
        colors.dtype.kind not in "iu"
        or colors.min() < 0
        or colors.max() >= g.n
        or not np.bincount(colors).all()
    ):
        raise ValueError("color ids must be integers using each of 0..c-1")
    cells = _Cells.of(colors)
    EquitableRefiner(g).refine(cells, range(cells.num_classes), 0)
    return cells.colors


class TestColoring:
    def test_trivial(self):
        # a search starts from the unit partition: on the empty graph the
        # root keeps one cell of every vertex, in order, and the trace 0
        solver = _Solver(DenseGraph(np.zeros((5, 5), dtype=bool)), math.inf)
        cells, trace = solver.root()
        assert (cells.num_classes, trace) == (1, 0)
        assert list(cells.colors) == [0] * 5 and list(cells.lab) == list(range(5))

    def test_contiguity_enforced(self):
        g = path_graph(3)
        for bad in ([0, 2, 2], [0, 1, 3], [-1, 0, 0], [0.0, 1.0, 1.0], [[0, 1, 1]]):
            with pytest.raises(ValueError):
                refine(g, np.array(bad))  # unused id, id >= n, negative, float, 2-d


class TestRefine:
    def test_path_splits_by_degree(self):
        c = refine(path_graph(3), np.zeros(3, dtype=int))
        assert num_classes(c) == 2
        assert c[0] == c[2] != c[1]

    def test_regular_graph_stays_whole(self):
        c = refine(paley(13), np.zeros(13, dtype=int))
        assert num_classes(c) == 1

    def test_idempotent(self):
        g = path_graph(6)
        once = refine(g, np.zeros(6, dtype=int))
        twice = refine(g, once)
        assert np.array_equal(once, twice)

    def test_individualized_vertex_in_srg(self):
        # fixing one vertex of a strongly regular graph splits it into the
        # vertex, its neighbours, and its non-neighbours -- and stops there
        init = np.zeros(13, dtype=np.int32)
        init[0] = 1
        c = refine(paley(13), init)
        assert num_classes(c) == 3  # regression value
        assert sorted(np.bincount(c)) == [1, 6, 6]

    def test_path_refines_to_symmetric_classes(self):
        c = refine(path_graph(5), np.zeros(5, dtype=int))
        # ends pair up, their neighbours pair up, centre alone
        assert c[0] == c[4]
        assert c[1] == c[3]
        assert num_classes(c) == 3

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            refine(path_graph(3), np.zeros(4, dtype=int))

    def test_equitability(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_graph(rng, 12, 0.4)
            c = refine(g, np.zeros(12, dtype=int))
            # every vertex of a class sees the same number of neighbours in
            # every class
            for a in range(num_classes(c)):
                members = np.flatnonzero(c == a)
                for b in range(num_classes(c)):
                    counts = g.adj[np.ix_(members, np.flatnonzero(c == b))].sum(axis=1)
                    assert len(set(counts.tolist())) == 1

    @pytest.mark.parametrize("case", range(12))
    def test_matches_naive_refinement(self, case):
        # relabelled SRGs with 1-3 individualized vertices, and non-regular
        # random graphs: splitters of every size, so both ways of counting
        # (summed rows, packed popcount) run
        rng = np.random.default_rng(case)
        if case % 2:
            desc = "vls:64:3" if case % 4 == 1 else "paley:49"
            g = relabelled(family_graph(parse_descriptor(desc)), case)
            colors = np.zeros(g.n, dtype=np.int32)
            picks = rng.choice(g.n, 1 + case % 3, replace=False)
            colors[picks] = np.arange(1, len(picks) + 1)
        else:
            g = random_graph(rng, int(rng.integers(40, 140)), rng.uniform(0.03, 0.5))
            colors = rng.integers(0, 3, g.n).astype(np.int32)
            colors = np.unique(colors, return_inverse=True)[1].astype(np.int32)
        got = refine(g, colors)
        assert same_partition(got, naive_equitable(g, colors))
        assert num_classes(got) == len(set(got.tolist()))

    def test_expired_deadline_stops_root_refinement(self):
        # a path needs about n/2 splitter passes to refine from one class
        g = path_graph(3000)
        solver = _Solver(g, deadline=time.monotonic() - 1.0)
        with pytest.raises(Timeout):
            solver.run()
        assert solver.refiner.refinements <= 1
        assert solver.nodes == 0
        assert num_classes(refine(g, np.zeros(g.n, dtype=int))) == 1500

    def test_deadline_past_the_root_stops_the_first_path(self):
        # building the first path ticks no node: refine's per-pass check
        # must stop it before the child at depth 0 makes its first pass
        solver = _Solver(paley(13), math.inf)
        cells, trace = solver.root()
        assert (cells.num_classes, solver.refiner.refinements) == (1, 1)
        solver.refiner.deadline = time.monotonic() - 1.0
        with pytest.raises(Timeout):
            solver.first_path(cells, trace)
        assert (solver.refiner.refinements, solver.nodes) == (1, 0)


# the first splitter's size: one row, two rows, and the packed popcount
SPLITTER_SIZES = {
    "single": lambda n: 1,
    "pair": lambda n: 2,
    "packed": lambda n: max(3, -(-n // 8)),
}


@st.composite
def refine_cases(draw, splitter):
    """A random graph on 16-48 vertices, or the 2n-vertex union of one with
    a relabelled copy or another random graph; a random initial coloring
    whose class 0 has the splitter's size; a queue that starts with class 0
    and goes on with a random selection of the other classes in random
    order; and a random initial trace."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    union = draw(st.sampled_from([None, "relabelled", "random"]))
    m = draw(st.integers(8, 24) if union else st.integers(16, 48))
    p = draw(st.floats(0.05, 0.95))
    g = random_graph(rng, m, p)
    if union == "relabelled":
        g = union_graph(g, relabelled(g, int(rng.integers(1 << 30))))
    elif union == "random":
        g = union_graph(g, random_graph(rng, m, p))
    n = g.n
    colors = rng.integers(1, 1 + draw(st.integers(1, 4)), n)
    colors[rng.permutation(n)[: SPLITTER_SIZES[splitter](n)]] = 0
    colors = np.unique(colors, return_inverse=True)[1].astype(np.int32)
    rest = rng.permutation(np.arange(1, num_classes(colors)))
    queue = [0] + rest[: draw(st.integers(0, len(rest)))].tolist()
    return g, colors, queue, draw(st.integers(0, (1 << 64) - 1))


def assert_refines_like_reference(g, initial, queue, trace):
    """Refine with both refiners, then individualize one vertex of a
    non-singleton cell and refine again; everything must agree."""
    ref, new = CountingReference(g), EquitableRefiner(g)
    colors, classes = initial.copy(), num_classes(initial)
    cells = _Cells.of(initial)
    for _ in range(2):
        classes, want = ref.refine(colors, classes, queue, trace)
        got, _ = new.refine(cells, queue, trace)
        assert np.array_equal(cells.colors, colors)
        assert (cells.num_classes, got) == (classes, want)
        assert (new.refinements, new.splits) == (ref.refinements, ref.splits)
        check_layout(cells)
        if classes == g.n:
            break
        v = int(cells.members(int(np.argmax(cells.size[:classes])))[0])
        assert cells.individualize(v) == colors[v]
        colors[v] = classes
        queue, trace, classes = [classes], got, classes + 1
    return ref.sizes


class TestReferenceRefiner:
    """The layout-based refiner against the reference copy above."""

    @pytest.mark.parametrize("splitter", sorted(SPLITTER_SIZES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, splitter, data):
        g, initial, queue, trace = data.draw(refine_cases(splitter))
        sizes = assert_refines_like_reference(g, initial, queue, trace)
        assert sizes[0] == SPLITTER_SIZES[splitter](g.n)


class BatchRecorder(EquitableRefiner):
    """The refiner run to equitability, recording each pass's cell sizes."""

    def __init__(self, g):
        super().__init__(g)
        self.batches = []

    def _pass(self, cells, batch, members, *rest):
        self.batches.append(cells.size[batch].tolist())
        return super()._pass(cells, batch, members, *rest)


class TestBatchedSplitters:
    """A pass takes the run of queued cells at the queue's head while their
    members total at most 53 and their counts fit side by side in the key's
    count field.  Each cell of a batch is counted whole, so the batch splits
    as its cells would one by one, a cell that its own pass splits was
    already used as a splitter (Hopcroft's rule stays sound), and
    refinement still ends at the coarsest equitable refinement."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_same_partition_as_one_splitter_per_pass(self, data):
        # to equitability from every class queued, then after each of a few
        # individualizations from the new cell alone
        splitter = data.draw(st.sampled_from(sorted(SPLITTER_SIZES)))
        g, initial, _, _ = data.draw(refine_cases(splitter))
        new, one = EquitableRefiner(g), OneSplitterReference(g)
        cells, colors = _Cells.of(initial), initial.copy()
        classes = num_classes(initial)
        queue = list(range(classes))
        for depth in range(4):
            new.refine(cells, queue, 0)
            classes, _ = one.refine(colors, classes, queue, 0)
            assert same_partition(cells.colors, colors)
            if depth == 0:
                assert same_partition(colors, naive_equitable(g, initial))
            if classes == g.n:
                break
            v = int(cells.members(int(np.argmax(cells.size[: cells.num_classes])))[0])
            cells.individualize(v)
            colors[v] = classes
            queue, classes = [classes], classes + 1

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mixed_batches_end_at_the_equitable_partition(self, data):
        # many small classes, all queued: class 0 has two to five members
        # and class 1 one, so the first pass is a batch of cells of several
        # sizes; run to the end, it gives the reference's ids, trace and
        # passes, naive_equitable's partition and the one-splitter one's
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(16, 64))
        g = random_graph(rng, n, data.draw(st.floats(0.05, 0.95)))
        head = data.draw(st.integers(2, 5))
        others = rng.integers(2, 2 + data.draw(st.integers(1, 16)), n - head - 1)
        colors = rng.permutation(np.concatenate([[0] * head, [1], others]))
        initial = np.unique(colors, return_inverse=True)[1].astype(np.int32)
        queue = list(range(num_classes(initial)))
        assert_refines_like_reference(g, initial, queue, data.draw(st.integers(0, _M64)))
        recorder, one = BatchRecorder(g), OneSplitterReference(g)
        cells, colors = _Cells.of(initial), initial.copy()
        recorder.refine(cells, queue, 0)
        one.refine(colors, len(queue), queue, 0)
        assert recorder.batches[0][:2] == [head, 1]
        assert same_partition(cells.colors, colors)
        assert same_partition(colors, naive_equitable(g, initial))

    def test_a_cell_split_by_its_own_batch(self):
        # A = {0, 1, 2} and B = {3}, with edges 0-1, 0-3 and 1-3: one pass
        # over the batch [A, B] counts 0 and 1 at 1 + (1 << 2) (a neighbour
        # in A, and 3) and 2 at 0, so A splits by its own count.  A was
        # counted whole, so only its smaller part {2} is queued, and the run
        # ends at the equitable partition all the same
        g = from_edges(4, [(0, 1), (0, 3), (1, 3)])
        initial = np.array([0, 0, 0, 1], dtype=np.int32)
        cells, pending, queued = _Cells.of(initial), deque(), set()
        refiner = EquitableRefiner(g)
        refiner._pass(cells, [0, 1], 4, 0, pending, queued)
        assert cells.colors.tolist() == [2, 2, 0, 1]
        assert list(pending) == [0] and queued == {0}
        cells, refiner = _Cells.of(initial), EquitableRefiner(g)
        refiner.refine(cells, [0, 1], 0)
        one, colors = OneSplitterReference(g), initial.copy()
        one.refine(colors, 2, [0, 1], 0)
        assert cells.colors.tolist() == [2, 2, 0, 1]
        assert same_partition(colors, cells.colors)
        assert same_partition(colors, naive_equitable(g, initial))
        assert (refiner.refinements, refiner.splits, one.refinements) == (2, 1, 3)
        assert_refines_like_reference(g, initial, [0, 1], 0)

    def test_a_batch_is_one_pass(self):
        # three singletons {0}, {1}, {2} of the 6-cycle, queued one behind
        # another: one batched pass makes the coloring discrete, where the
        # one-splitter reference takes three
        g = cycle_graph(6)
        initial = np.array([1, 2, 3, 0, 0, 0], dtype=np.int32)
        new, one = _Refiner(g), OneSplitterReference(g)
        cells, colors = _Cells.of(initial), initial.copy()
        new.refine(cells, [1, 2, 3], 0)
        one.refine(colors, 4, [1, 2, 3], 0)
        assert np.array_equal(cells.colors, colors) and cells.num_classes == 6
        assert (new.refinements, new.splits, one.refinements) == (1, 1, 3)


def idle_stop_cases():
    """Relabelled strongly regular graphs, each coloring the equitable one
    with two random vertices individualized in turn, then a random v of a
    cell of two or more individualized too, and a queue of every other cell,
    then v's old and new cells.  The coloring was equitable against every
    cell but those two, so the queue opens with passes that split nothing
    (small cells batched, each larger one alone), and splitting ones
    follow."""
    rng = np.random.default_rng(31)
    for desc in ["paley:49", "peisert:49", "vls:64:3", "orbital:q8:13", "vo:+:8:2", "orbital:q8:17"]:
        g = family_graph(parse_descriptor(desc))
        for seed in range(5):
            h = relabelled(g, seed)
            cells = _Cells.of(np.zeros(h.n, dtype=np.int32))
            for _ in range(2):
                cells.individualize(int(rng.choice(np.flatnonzero(cells.size[cells.colors] > 1))))
                EquitableRefiner(h).refine(cells, [cells.num_classes - 1], 0)
            old = cells.individualize(int(rng.choice(np.flatnonzero(cells.size[cells.colors] > 1))))
            rest = [c for c in range(cells.num_classes - 1) if c != old]
            yield h, cells, rest + [old, cells.num_classes - 1]


class TestIdleStop:
    """A refinement with no record stops after IDLE_STOP passes in a row
    that split nothing; one following a record never stops before the
    record's end."""

    @pytest.mark.parametrize("stop", [1, 2, 4])
    def test_no_record_stops_after_idle_passes(self, stop, monkeypatch):
        monkeypatch.setattr(_Refiner, "IDLE_STOP", stop)
        stopped = 0
        for trial, (g, cells, queue) in enumerate(idle_stop_cases()):
            full, short = cells.copy(), cells.copy()
            ref, new = EquitableRefiner(g), _Refiner(g)
            want, everything = ref.refine(full, queue, 0)
            trace, record = new.refine(short, queue, 0)
            # the passes made are the equitable run's first ones: the record
            # is a prefix of its record, and the trace the one after it
            assert record == everything[: len(record)], trial
            assert trace == (record[-1] if record else 0), trial
            assert new.refinements - len(record) <= stop, trial
            if record == everything:
                assert np.array_equal(short.colors, full.colors), trial
                continue
            stopped += 1
            assert new.refinements == len(record) + stop, trial
            # following the equitable run's record never stops early
            follow, again = _Refiner(g), cells.copy()
            assert follow.refine(again, queue, 0, everything) == (want, everything)
            assert follow.refinements == len(everything), trial
            assert np.array_equal(again.colors, full.colors), trial
        assert stopped >= 4  # the stop does cut some of these refinements short

    @pytest.mark.parametrize("stop", [1, 2])
    def test_search_keeps_the_order_under_any_stop(self, stop, monkeypatch):
        # the stop keeps the search complete however early it cuts: a
        # coloring left short of equitable is individualized further
        monkeypatch.setattr(_Refiner, "IDLE_STOP", stop)
        for trial, g in enumerate(small_random_graphs()):
            assert automorphism_group(g).order == len(brute_force_aut(g)), trial
        for desc, seed, order, *_ in TestAutomorphismGroup.PINNED_SEARCHES:
            g = family_graph(parse_descriptor(desc))
            h = relabelled(g, seed)
            assert automorphism_group(h).order == order
            m = are_isomorphic(g, h)
            assert np.array_equal(h.adj[np.ix_(m, m)], g.adj)
        with pytest.raises(NotIsomorphic):
            are_isomorphic(paley(49), relabelled(peisert(49), 2))


# the first path of vls:64:3 relabelled by the seed in argv[1], as JSON on
# stdout: its nodes' traces, its records, and per refinement (the root's,
# then each node's below it) the passes whose batch held a cell of two or
# more beside another cell
FIRST_TRACES = """
import json, math, sys
import numpy as np
from rank3.autsolve import _Refiner, _Solver
from rank3.families import family_graph, parse_descriptor
from rank3.graphs import DenseGraph
mixed = []
class Counting(_Refiner):
    def refine(self, *args):
        mixed.append(0)
        return super().refine(*args)
    def _pass(self, cells, batch, members, *rest):
        mixed[-1] += 1 < len(batch) < members
        return super()._pass(cells, batch, members, *rest)
g = family_graph(parse_descriptor("vls:64:3"))
perm = np.random.default_rng(int(sys.argv[1])).permutation(g.n)
solver = _Solver(DenseGraph(g.adj[np.ix_(perm, perm)]), math.inf)
solver.refiner = Counting(solver.g)
path = solver.first_path(*solver.root())
print(json.dumps({"traces": [t for _, t in path.nodes], "records": path.records, "mixed": mixed}))
"""


class TestTraceInvariance:
    """A trace mixes only ints that an isomorphism keeps (splitter and cell
    ids, counts, sizes) and mixes them with hash() of ints, which
    PYTHONHASHSEED does not touch: no vertex id, no bytes, no string."""

    def test_root_trace_ignores_labels(self):
        rng = np.random.default_rng(23)
        split = 0
        for trial in range(20):
            n = int(rng.integers(12, 60))
            g = random_graph(rng, n, float(rng.uniform(0.1, 0.6)))
            (gc, gt), (hc, ht) = (
                _Solver(x, math.inf).root()
                for x in (g, relabelled(g, trial))
            )
            assert gt == ht, f"trial {trial}"
            assert np.array_equal(gc.size[: gc.num_classes], hc.size[: hc.num_classes])
            split += gc.num_classes > 1
        assert split >= 15  # most roots do split, so their traces hold words

    def test_first_path_traces_ignore_the_hash_seed(self):
        # two hash seeds on one relabelling give the same first path; two
        # relabellings give the same root and the same first two nodes,
        # whose vertices are interchangeable (vls:64:3 is a rank-3 graph,
        # so the stabilizer of the first is transitive on each cell the
        # second can come from), and batches of mixed cells refine them
        src = str(Path(rank3.__file__).resolve().parents[1])
        runs = []
        for hash_seed, relabelling in (("1", 3), ("2", 3), ("1", 4)):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", FIRST_TRACES, str(relabelling)],
                env=env, capture_output=True, text=True, check=True, timeout=300,
            )
            runs.append(json.loads(done.stdout))
        assert len(runs[0]["traces"]) >= 3
        assert runs[0] == runs[1]
        assert runs[0]["traces"][:3] == runs[2]["traces"][:3]
        assert runs[0]["records"][:2] == runs[2]["records"][:2]
        assert runs[0]["mixed"][:3] == runs[2]["mixed"][:3]
        assert sum(runs[0]["mixed"][:3]) >= 1


class TestBruteForce:
    def test_triangle(self):
        g = from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert len(brute_force_aut(g)) == 6

    def test_path3(self):
        assert len(brute_force_aut(path_graph(3))) == 2

    def test_cycle_plus_isolate(self):
        g = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert len(brute_force_aut(g)) == 10

    def test_too_large(self):
        with pytest.raises(TooLarge):
            brute_force_aut(path_graph(9))

    def test_all_are_automorphisms(self):
        g = path_graph(4)
        for s in brute_force_aut(g):
            assert np.array_equal(g.adj[np.ix_(s, s)], g.adj)


class TestAutomorphismGroup:
    @pytest.mark.parametrize(
        "g,order",
        [
            (cycle_graph(5), 10),
            (cycle_graph(8), 16),
            (path_graph(4), 2),
            (PETERSEN, 120),
            (DenseGraph(np.zeros((1, 1), dtype=bool)), 1),
            (DenseGraph(~np.eye(5, dtype=bool)), 120),  # complete K5
            (DenseGraph(np.zeros((5, 5), dtype=bool)), 120),  # empty
        ],
    )
    def test_known_orders(self, g, order):
        assert automorphism_group(g).order == order

    def test_two_triangles(self):
        g = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert automorphism_group(g).order == 72  # (S3 x S3) : 2

    def test_paley9(self):
        r = automorphism_group(paley(9))
        assert r.order == 72

    def test_paley13(self):
        assert automorphism_group(paley(13)).order == 78

    def test_paley17(self):
        assert automorphism_group(paley(17)).order == 136

    def test_result_shape(self):
        r = automorphism_group(cycle_graph(6))
        assert isinstance(r, AutResult)
        assert r.order == 12
        assert r.nodes > 0 and r.refinements > 0 and r.seconds >= 0
        assert 0 < r.splits <= r.refinements
        assert f"refinements {r.refinements} ({r.splits} splitting)" in r.counters()
        assert schreier_sims(r.generators).order == 12

    def test_generators_verified(self):
        g = paley(13)
        r = automorphism_group(g)
        for s in r.generators.gens:
            assert np.array_equal(g.adj[np.ix_(s, s)], g.adj)

    def test_matches_brute_force(self):
        for trial, g in enumerate(small_random_graphs()):
            assert automorphism_group(g).order == len(brute_force_aut(g)), (
                f"trial {trial}: {g.adj.astype(int)}"
            )
            assert_order_matches_oracle(g)

    def test_record_keeps_the_search(self):
        for trial, g in enumerate(small_random_graphs()):
            assert assert_searches_like_equitable(g) == len(brute_force_aut(g)), (
                f"trial {trial}: {g.adj.astype(int)}"
            )

    # (descriptor, relabelling seed, |Aut|): two pinned searches, and hq:2:5,
    # whose order is 1024 * |GL_2(2)| * |GL_5(2)| = 1024 * 6 * 9999360
    RECORD_ROWS = [
        ("vls:64:3", 1, 64512),
        ("orbital:q8:13", 3, 48672),
        ("hq:2:5", 0, 61436067840),
    ]

    @pytest.mark.parametrize("desc,seed,order", RECORD_ROWS)
    def test_record_keeps_the_search_on_relabelled_row(self, desc, seed, order):
        h = relabelled(family_graph(parse_descriptor(desc)), seed)
        assert assert_searches_like_equitable(h) == order

    def test_complement_has_same_group(self):
        for g in [paley(13), PETERSEN, path_graph(5)]:
            assert (
                automorphism_group(g).order
                == automorphism_group(complement(g)).order
            )

    def test_family_group_order_divides(self):
        # the constructed vertex-transitive group is a subgroup of the full
        # automorphism group
        for desc in ["paley:13", "paley:17", "vls:16:3", "hamming2:3"]:
            fid = parse_descriptor(desc)
            known = schreier_sims(family_group(fid)).order
            full = automorphism_group(family_graph(fid)).order
            assert full % known == 0

    def test_deterministic(self):
        a = automorphism_group(paley(17))
        b = automorphism_group(paley(17))
        assert a.order == b.order
        assert a.nodes == b.nodes
        assert a.generators.gens.tolist() == b.generators.gens.tolist()

    def test_timeout(self):
        with pytest.raises(Timeout):
            automorphism_group(paley(49), budget=0.0)

    @pytest.mark.parametrize("budget", [float("nan"), -1.0])
    def test_bad_budget_raises(self, budget):
        with pytest.raises(ValueError, match="budget"):
            automorphism_group(paley(13), budget=budget)

    def test_empty_graph(self):
        r = automorphism_group(DenseGraph(np.zeros((0, 0), dtype=bool)))
        assert r.order == 1
        assert r.base == ()

    # (descriptor, relabelling seed, |Aut|, nodes, refinements, generators),
    # recorded with the first largest cell as target, every first-path node
    # pruning by all the automorphisms found beneath it and every other node
    # refining only as far as the first path's record: a faster splitter
    # pass must leave the search unchanged
    PINNED_SEARCHES = [
        ("vls:64:3", 1, 64512, 12, 29, 5),
        ("vo:+:8:2", 2, 89181388800, 51, 110, 10),
        ("orbital:q8:13", 3, 48672, 10, 30, 3),
    ]

    @pytest.mark.parametrize("desc,seed,order,nodes,refinements,gens", PINNED_SEARCHES)
    def test_pinned_search_on_relabelled_catalog_graph(
        self, desc, seed, order, nodes, refinements, gens
    ):
        g = family_graph(parse_descriptor(desc))
        h = relabelled(g, seed)
        r = automorphism_group(h)
        assert (r.order, r.nodes, r.refinements, len(r.generators.gens)) == (
            order, nodes, refinements, gens
        )
        m = are_isomorphic(g, h)
        assert sorted(m.tolist()) == list(range(g.n))
        assert np.array_equal(h.adj[np.ix_(m, m)], g.adj)

    SMALL_ROWS = [e for e in builtin_catalog() if e.n <= 256]

    # any target cell gives a complete search: the order is the product of
    # the orbit lengths along whichever first path the rule makes
    def test_target_cell_rule_keeps_the_order(self, monkeypatch):
        for trial, g in enumerate(small_random_graphs()):
            want = len(brute_force_aut(g))
            assert orders_under_both_target_rules(g, monkeypatch) == [want] * 2, trial

    @pytest.mark.parametrize("desc,seed,order,nodes,refinements,gens", PINNED_SEARCHES)
    def test_target_cell_rule_keeps_the_order_on_relabelled_row(
        self, desc, seed, order, nodes, refinements, gens, monkeypatch
    ):
        h = relabelled(family_graph(parse_descriptor(desc)), seed)
        assert orders_under_both_target_rules(h, monkeypatch) == [order] * 2

    @pytest.mark.parametrize("entry", SMALL_ROWS, ids=[e.id for e in SMALL_ROWS])
    def test_generators_generate_aut_on_relabelled_row(self, entry, monkeypatch):
        # the generators are automorphisms, so they generate a subgroup of
        # Aut; reaching the order proves it is all of Aut, and the exact
        # Schreier-Sims order shows they generate no more than was counted.
        # Along the solver's base the orbit product alone reaches it.
        import rank3.permgrp as permgrp

        h = relabelled(family_graph(entry.family), 7)
        r = automorphism_group(h)
        assert r.order == entry.expected_aut_order
        for s in r.generators.gens:
            assert np.array_equal(h.adj[np.ix_(s, s)], h.adj)
        assert reaches_order(r.generators, r.order)
        with monkeypatch.context() as m:
            m.setattr(permgrp, "_chain", no_chain)
            assert reaches_order(r.generators, r.order, base=r.base)
        assert schreier_sims(r.generators).order == r.order


class TestSeededSearch:
    """The search started from known automorphisms: the translations of the
    graph's moduli and the caller's zero-stabilizer."""

    ROWS = [e for e in builtin_catalog() if e.tier in ("FULL", "SLOW")]

    # (nodes, refinements, generators) of the seeded search, per row
    SEEDED_COUNTERS = {
        "paley:9": (5, 7, 5),
        "paley:13": (3, 7, 3),
        "paley:17": (3, 6, 3),
        "paley:49": (5, 12, 5),
        "paley:81": (5, 13, 7),
        "peisert:49": (5, 14, 5),
        "vls:16:3": (8, 13, 8),
        "vls:25:3": (12, 20, 7),
        "vls:64:3": (7, 18, 11),
        "hamming2:5": (11, 18, 9),
        "vo:-:4:2": (5, 9, 14),
        "vo:-:6:2": (10, 19, 26),
        "vo:+:8:2": (20, 51, 36),
        "orbital:sl23:7": (5, 14, 7),
        "orbital:q8:13": (5, 15, 6),
        "hamming2:9": (37, 52, 13),
        "peisert:81": (7, 19, 9),
        "vo:+:4:3": (6, 18, 17),
        "vls:256:5": (11, 48, 14),
        "orbital:q8:17": (5, 17, 6),
        "hq:3:3": (10, 50, 18),
        "orbital:sl25:41": (5, 28, 6),
    }

    @pytest.mark.parametrize("entry", ROWS, ids=[e.id for e in ROWS])
    def test_seeded_order_matches_plain_search(self, entry):
        g = family_graph(entry.family)
        stab = Build(entry.family).stabilizer
        seeded = automorphism_group(g, known=stab)
        plain = automorphism_group(DenseGraph(g.adj))
        assert seeded.order == plain.order == entry.expected_aut_order
        assert seeded.refinements < plain.refinements
        assert plain.known == 0
        assert seeded.known == len(g.moduli) + len(stab.gens)
        counters = (seeded.nodes, seeded.refinements, len(seeded.generators.gens))
        assert counters == self.SEEDED_COUNTERS[entry.id]
        for s in seeded.generators.gens:
            assert np.array_equal(g.adj[np.ix_(s, s)], g.adj)

    @pytest.mark.parametrize("entry", ROWS, ids=[e.id for e in ROWS])
    def test_base_product_is_the_order(self, entry):
        # seeded as the aut stage seeds it, the search's base is its first
        # path, and the orbit product along it under the returned
        # generators, recomputed from scratch, is the order it counted
        g = family_graph(entry.family)
        r = automorphism_group(g, known=Build(entry.family).stabilizer)
        solver = _Solver(g, math.inf)
        assert r.base == tuple(solver.first_path(*solver.root()).vertices)
        assert _base_product(r.generators, r.base, math.inf) == r.order

    @pytest.mark.parametrize("entry", ROWS, ids=[e.id for e in ROWS])
    def test_order_matches_first_path_oracle(self, entry):
        g = family_graph(entry.family)
        known = unit_translations(g.moduli) + list(Build(entry.family).stabilizer.gens)
        assert assert_order_matches_oracle(g, known) == entry.expected_aut_order

    def test_non_automorphism_rejected(self):
        g = paley(13)
        swap = np.arange(13)
        swap[[1, 2]] = [2, 1]  # a square and a non-square
        with pytest.raises(ValueError, match="not an automorphism"):
            automorphism_group(g, known=GeneratorSet(13, (swap,)))
        with pytest.raises(ValueError, match="degree"):
            automorphism_group(g, known=GeneratorSet(9, (np.arange(9),)))

    def test_first_bad_known_generator_is_named(self):
        # the known generators are checked as one stack, the affine ones
        # together and the others on the rows; the message still names the
        # first bad one by its index in known, wherever it sits
        fid = parse_descriptor("vo:-:6:2")
        g, good = family_graph(fid), list(Build(fid).stabilizer.gens)
        swap = np.eye(6, dtype=np.int64)[[2, 1, 0, 3, 4, 5]]
        [affine] = linear_perms(MatrixGroupSpec(2, 6, (swap,))).gens
        moved = np.arange(64)
        moved[[1, 2]] = [2, 1]  # not affine
        for bad in (affine, moved):
            assert not np.array_equal(g.adj[np.ix_(bad, bad)], g.adj)
        for gens, first in (
            ([good[0], unit_translations(g.moduli)[0], good[1], affine, good[0], moved], 3),
            ([good[0], moved, good[1], affine, good[2]], 1),
            ([*good, good[0], affine], len(good) + 1),
        ):
            with pytest.raises(ValueError, match=f"known generator {first} is not"):
                automorphism_group(g, known=GeneratorSet(64, gens))
        r = automorphism_group(g, known=GeneratorSet(64, [good[1], good[0], good[1], *good]))
        assert r.known == len(g.moduli) + len(good)

    def test_proper_subgroup_still_gives_full_order(self):
        # x -> 16x generates the order-3 subgroup of G0 = <x -> 4x> (order 6)
        g = paley(13)
        four = Build(parse_descriptor("paley:13")).stabilizer.gens[0]
        cube = GeneratorSet(13, (four[four],))
        for h in (g, DenseGraph(g.adj)):
            r = automorphism_group(h, known=cube)
            assert r.order == 78
            assert schreier_sims(r.generators).order == 78

    @pytest.mark.parametrize("desc", ["vls:64:3", "orbital:q8:13"])
    def test_iso_either_side_may_carry_moduli(self, desc, monkeypatch):
        import rank3.autsolve as autsolve

        def no_hint(*args, **kwargs):
            raise AssertionError("Aut(h) hint searched beside translation moduli")

        monkeypatch.setattr(autsolve, "automorphism_group", no_hint)
        g = family_graph(parse_descriptor(desc))
        h = relabelled(g, 5)
        for a, b in ((g, h), (h, g)):
            m = are_isomorphic(a, b)
            assert sorted(m.tolist()) == list(range(g.n))
            assert np.array_equal(b.adj[np.ix_(m, m)], a.adj)

    CLAIMS = [(e.id, c.other, c.isomorphic) for e in ROWS for c in e.iso_claims]

    # (plain, under Aut(g)) refinement passes of each non-isomorphic claim
    NONISO_PASSES = {
        "peisert:49~paley:49": (61, 14),
        "peisert:81~paley:81": (92, 14),
    }

    @pytest.mark.parametrize(
        "desc,other,isomorphic", CLAIMS, ids=[f"{a}~{b}" for a, b, _ in CLAIMS]
    )
    def test_iso_claim_searched_under_aut_g(self, desc, other, isomorphic, monkeypatch):
        # each catalog claim as verify runs it, g's tree searched under Aut(g):
        # the plain search's verdict, a verified mapping, and a non-isomorphic
        # pair exhausted in its pinned passes, fewer under Aut(g) than plain
        passes = []
        one_pass = _Refiner._pass
        monkeypatch.setattr(
            _Refiner, "_pass", lambda self, *args: passes.append(1) or one_pass(self, *args)
        )
        fid = parse_descriptor(desc)
        g, h = family_graph(fid), family_graph(parse_descriptor(other))
        aut = automorphism_group(g, known=Build(fid).stabilizer).generators
        counts = []
        for known in (None, aut):
            passes.clear()
            try:
                m = are_isomorphic(g, h, known=known)
            except NotIsomorphic as exc:
                assert not isomorphic and "exhausted" in exc.invariant
            else:
                assert isomorphic
                assert sorted(m.tolist()) == list(range(g.n))
                assert np.array_equal(h.adj[np.ix_(m, m)], g.adj)
            counts.append(len(passes))
        if not isomorphic:
            assert tuple(counts) == self.NONISO_PASSES[f"{desc}~{other}"]
            assert counts[1] < counts[0]

    def test_known_generators_searched_once(self, monkeypatch):
        # an AutResult's generators start with g's translations, which the
        # known set already holds: each row is kept once, and the orders and
        # verdicts are those of the search without known generators
        import rank3.autsolve as autsolve

        searched = []
        iso_search = autsolve._iso_search

        def recording(g, h, deadline, known):
            searched.append(known)
            return iso_search(g, h, deadline, known)

        monkeypatch.setattr(autsolve, "_iso_search", recording)
        fid = parse_descriptor("peisert:49")
        g = family_graph(fid)
        aut = automorphism_group(g, known=Build(fid).stabilizer)
        gens = aut.generators.gens
        assert len(np.unique(gens, axis=0)) == len(gens)
        assert np.array_equal(gens[: len(g.moduli)], unit_translations(g.moduli))
        again = automorphism_group(g, known=aut.generators)
        assert (again.order, again.known) == (aut.order, len(gens))
        for h, isomorphic in ((relabelled(g, 4), True), (paley(49), False)):
            verdicts = []
            for known in (None, aut.generators):
                try:
                    m = are_isomorphic(g, h, known=known)
                    verdicts.append(np.array_equal(h.adj[np.ix_(m, m)], g.adj))
                except NotIsomorphic:
                    verdicts.append(False)
            assert verdicts == [isomorphic] * 2
            rows = np.array(searched[-1])
            assert len(rows) == len(gens)
            assert len(np.unique(rows, axis=0)) == len(rows)

    def test_iso_rejects_a_known_non_automorphism(self):
        g = paley(13)
        swap = np.arange(13)
        swap[[1, 2]] = [2, 1]  # a square and a non-square
        with pytest.raises(ValueError, match="not an automorphism"):
            are_isomorphic(g, g, known=GeneratorSet(13, (swap,)))
        with pytest.raises(ValueError, match="degree"):
            are_isomorphic(g, g, known=GeneratorSet(9, (np.arange(9),)))

    def test_paley49_not_relabelled_peisert49_either_way(self):
        g = paley(49)
        h = relabelled(peisert(49), 2)
        for a, b in ((g, h), (h, g)):
            with pytest.raises(NotIsomorphic):
                are_isomorphic(a, b, budget=300)


def test_seeded_search_on_4096_vertices_stays_small():
    # hq:4:3's packed rows are 2 MiB, and every count the refiner reads is a
    # few rows or a block of them; the n x n bool matrix alone is 16 MiB.
    # |Aut| = 4096 * 180 * 181440 / 3 * 2: the translations, the central
    # product GL_2(4) o GL_3(4) and the Frobenius of GF(4)
    row = Build(parse_descriptor("hq:4:3"))
    g, stab = row.graph, row.stabilizer
    tracemalloc.start()
    try:
        result = automorphism_group(g, known=stab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.order == 89181388800
    assert peak < 8 << 20


class TestMidSizeOrders:
    """Solver answers against classical group orders (q(q-1)d/2 for the
    square-residue graphs, q(q-1)d/4 twisted for q = 49, 81, ...)."""

    def test_vls_16_3(self):
        g = family_graph(parse_descriptor("vls:16:3"))
        assert automorphism_group(g).order == 1920

    def test_vls_25_3(self):
        g = family_graph(parse_descriptor("vls:25:3"))
        assert automorphism_group(g).order == 28800

    def test_paley49(self):
        assert automorphism_group(paley(49)).order == 2352

    def test_peisert49(self):
        assert automorphism_group(peisert(49)).order == 3528

    def test_paley81(self):
        assert automorphism_group(paley(81), budget=120).order == 12960

    def test_peisert81(self):
        assert automorphism_group(peisert(81), budget=120).order == 38880

    @pytest.mark.slow
    def test_vls_64_3(self):
        g = family_graph(parse_descriptor("vls:64:3"))
        assert automorphism_group(g, budget=120).order == 64512

    @pytest.mark.slow
    def test_rook_9(self):
        assert automorphism_group(hamming2(9), budget=300).order == 2 * 362880**2

    @pytest.mark.slow
    def test_quaternion_orbital_13(self):
        g = family_graph(parse_descriptor("orbital:q8:13"))
        assert automorphism_group(g, budget=300).order == 48672


def degree_preserving_swaps(g, rng, tries):
    """g with up to `tries` random double-edge swaps ab, cd -> ad, cb: the
    same degrees, usually another graph."""
    adj = g.adj.copy()
    for _ in range(tries):
        edges = np.argwhere(np.triu(adj, 1))
        if len(edges) < 2:
            break
        (a, b), (c, d) = edges[rng.choice(len(edges), 2, replace=False)]
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) == 4 and not adj[a, d] and not adj[c, b]:
            adj[[a, b, c, d], [b, a, d, c]] = False
            adj[[a, d, c, b], [d, a, b, c]] = True
    return DenseGraph(adj)


def random_regular(n, d, seed, extra):
    """A random d-regular graph on n vertices beside `extra` more vertices:
    none, one isolated vertex, or one edge."""
    adj = np.zeros((n + extra, n + extra), dtype=bool)
    adj[:n, :n] = nx.to_numpy_array(nx.random_regular_graph(d, n, seed=seed), dtype=bool)
    adj[n + 1 :: 2, n : -1 : 2] = adj[n : -1 : 2, n + 1 :: 2] = True
    return DenseGraph(adj)


@st.composite
def iso_pairs(draw):
    """Two graphs on 1-10 vertices, h relabelled.

    * copy, swapped: g is a disjoint union of 1-3 random blocks under a
      random labelling, so it is often disconnected or has isolated
      vertices; h is a copy of g, or g after random degree-preserving swaps.
    * random: g as above, h a random graph.
    * regular: g is a random d-regular graph on 6-10 vertices, sometimes
      beside an isolated vertex or edge, and h is a copy of g or another
      such graph: degrees and the root refinement agree, so only the
      search decides, and most cells are not orbits.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["copy", "copy", "swapped", "random", "regular"]))
    if kind == "regular":
        extra = draw(st.integers(0, 2))
        n = draw(st.integers(6, 10 - extra))
        d = draw(st.sampled_from([d for d in range(2, n - 2) if n * d % 2 == 0]))
        g = random_regular(n, d, int(rng.integers(1 << 30)), extra)
        h = g if draw(st.booleans()) else random_regular(n, d, int(rng.integers(1 << 30)), extra)
        return g, relabelled(h, int(rng.integers(1 << 30)))
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    n = min(sum(sizes), 10)
    adj = np.zeros((n, n), dtype=bool)
    lo = 0
    for size in sizes:
        hi = min(lo + size, n)
        adj[lo:hi, lo:hi] = random_graph(rng, hi - lo, draw(st.floats(0.0, 1.0))).adj
        lo = hi
    g = relabelled(DenseGraph(adj), int(rng.integers(1 << 30)))
    if kind == "copy":
        h = g
    elif kind == "swapped":
        h = degree_preserving_swaps(g, rng, 20)
    else:
        h = random_graph(rng, n, draw(st.floats(0.0, 1.0)))
    return g, relabelled(h, int(rng.integers(1 << 30)))


class TestIsomorphism:
    def test_identity(self):
        g = paley(13)
        m = are_isomorphic(g, g)
        assert np.array_equal(m, np.arange(13))

    def test_relabelled_cycle(self):
        rng = np.random.default_rng(3)
        sigma = rng.permutation(7)
        g = cycle_graph(7)
        h = DenseGraph(g.adj[np.ix_(sigma, sigma)])
        m = are_isomorphic(g, h)
        # verify vertex-by-vertex
        assert np.array_equal(h.adj[np.ix_(m, m)], g.adj)

    def test_mapping_is_verified_bijection(self):
        g = paley(9)
        h = hamming2(3)
        m = are_isomorphic(g, h)
        assert sorted(m.tolist()) == list(range(9))
        assert np.array_equal(h.adj[np.ix_(m, m)], g.adj)

    def test_vertex_count_mismatch(self):
        with pytest.raises(NotIsomorphic) as exc:
            are_isomorphic(path_graph(3), path_graph(4))
        assert "vertex count" in exc.value.invariant

    def test_degree_mismatch(self):
        # the root refinement splits P4 by degree and leaves C4 whole
        with pytest.raises(NotIsomorphic) as exc:
            are_isomorphic(cycle_graph(4), path_graph(4))
        assert "signatures differ" in exc.value.invariant

    def test_refinement_signature_mismatch(self):
        # same degree multiset, different refinement behaviour
        g = from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4)])
        h = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4)])
        with pytest.raises(NotIsomorphic):
            are_isomorphic(g, h)

    def test_cycle_vs_two_triangles(self):
        # both 2-regular, so the roots agree: the directed search, complete
        # on disconnected graphs, tells them apart
        g = cycle_graph(6)
        h = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        with pytest.raises(NotIsomorphic) as exc:
            are_isomorphic(g, h)
        assert "exhausted" in exc.value.invariant

    def test_k33_vs_prism(self):
        # both connected and 3-regular: only the search itself can tell
        k33 = from_edges(6, [(i, j + 3) for i in range(3) for j in range(3)])
        prism = from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
        )
        with pytest.raises(NotIsomorphic) as exc:
            are_isomorphic(k33, prism)
        assert "exhausted" in exc.value.invariant

    def test_disconnected_matching(self):
        # 2K3 against itself with scrambled labels (crosses the components)
        h_edges = [(0, 2), (2, 4), (0, 4), (1, 3), (3, 5), (1, 5)]
        g = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        h = from_edges(6, h_edges)
        m = are_isomorphic(g, h)
        assert np.array_equal(h.adj[np.ix_(m, m)], g.adj)

    def test_isolated_vertex_plus_component(self):
        g = from_edges(5, [(0, 3), (0, 4), (2, 4), (3, 4)])
        sigma = np.array([4, 3, 2, 0, 1])
        h = DenseGraph(g.adj[np.ix_(sigma, sigma)])
        m = are_isomorphic(g, h)
        assert np.array_equal(h.adj[np.ix_(m, m)], g.adj)

    def test_self_complementary_paley(self):
        for q in [9, 13, 17]:
            g = paley(q)
            m = are_isomorphic(g, complement(g))
            assert np.array_equal(complement(g).adj[np.ix_(m, m)], g.adj)

    def test_paley_peisert_same_parameters_not_isomorphic(self):
        with pytest.raises(NotIsomorphic):
            are_isomorphic(paley(49), peisert(49), budget=300)

    def test_paley9_equals_peisert9(self):
        m = are_isomorphic(paley(9), peisert(9))
        h = peisert(9)
        assert np.array_equal(h.adj[np.ix_(m, m)], paley(9).adj)

    def test_timeout(self):
        with pytest.raises(Timeout):
            are_isomorphic(paley(49), peisert(49), budget=0.0)

    def test_neither_side_has_moduli(self, monkeypatch):
        # no translations on either side: Aut(h) is searched first, under
        # the call's deadline, and then prunes the directed search; a
        # timeout there ends the call, with no unpruned search after it
        import rank3.autsolve as autsolve

        g, h = relabelled(paley(49), 1), relabelled(peisert(49), 2)
        assert g.moduli is None and h.moduli is None
        with pytest.raises(NotIsomorphic) as exc:
            are_isomorphic(g, h)
        assert "exhausted" in exc.value.invariant
        with pytest.raises(Timeout):
            are_isomorphic(g, h, budget=0.0)
        budgets = []

        def expired(graph, budget):
            budgets.append(budget)
            raise Timeout("Aut(h) passed its deadline")

        monkeypatch.setattr(autsolve, "automorphism_group", expired)
        with pytest.raises(Timeout):
            are_isomorphic(g, h, budget=30.0)
        assert len(budgets) == 1 and 0.0 <= budgets[0] <= 30.0

    @pytest.mark.parametrize("budget", [float("nan"), -1.0])
    def test_bad_budget_raises(self, budget):
        with pytest.raises(ValueError, match="budget"):
            are_isomorphic(paley(9), peisert(9), budget=budget)

    def test_empty_graphs(self):
        g = DenseGraph(np.zeros((0, 0), dtype=bool))
        assert len(are_isomorphic(g, g)) == 0

    def test_random_relabelling_roundtrip(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            g = random_graph(rng, n, 0.5)
            sigma = rng.permutation(n)
            h = DenseGraph(g.adj[np.ix_(sigma, sigma)])
            m = are_isomorphic(g, h)
            assert np.array_equal(h.adj[np.ix_(m, m)], g.adj)

    # T(8), the line graph of K8, and the three Chang graphs (Chang, 1959), all
    # srg(28, 12, 6, 4): Seidel switching of T(8) by the edges of 4K2, C3+C5
    # or C8 in K8
    CHANG = {
        "T8": [],
        "4K2": [(0, 1), (2, 3), (4, 5), (6, 7)],
        "C3+C5": [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)],
        "C8": [(i, (i + 1) % 8) for i in range(8)],
    }

    @staticmethod
    def chang_graph(switch):
        pairs = list(itertools.combinations(range(8), 2))
        adj = np.array([[len(set(a) & set(b)) == 1 for b in pairs] for a in pairs])
        s = np.array([p in switch or p[::-1] in switch for p in pairs])
        adj ^= s[:, None] != s[None, :]
        return DenseGraph(adj)

    def test_chang_graphs(self):
        # the Chang graphs are regular but not vertex-transitive (28 divides
        # none of their group orders 384, 360 and 96), so the first child
        # whose trace matches often leads nowhere and pruning has to be right
        graphs = {k: self.chang_graph(v) for k, v in self.CHANG.items()}
        for g in graphs.values():
            for seed in range(5):
                h = relabelled(g, seed)
                m = are_isomorphic(g, h)
                assert np.array_equal(h.adj[np.ix_(m, m)], g.adj)
        for a, b in itertools.combinations(graphs.values(), 2):
            with pytest.raises(NotIsomorphic):
                are_isomorphic(a, b)

    @settings(max_examples=300, deadline=None)
    @given(pair=iso_pairs())
    def test_matches_networkx(self, pair):
        g, h = pair
        want = nx.is_isomorphic(nx.from_numpy_array(g.adj), nx.from_numpy_array(h.adj))
        try:
            m = are_isomorphic(g, h)
        except NotIsomorphic:
            assert not want
            return
        assert want
        assert sorted(m.tolist()) == list(range(g.n))
        assert np.array_equal(h.adj[np.ix_(m, m)], g.adj)

    @pytest.mark.slow
    def test_paley81_not_peisert81(self):
        with pytest.raises(NotIsomorphic):
            are_isomorphic(paley(81), peisert(81), budget=300)
