"""Graph automorphism and isomorphism solver.

The engine is individualization-refinement: colorings are driven to
equitability by cell-targeted splitter passes, and a backtracking search
individualizes vertices of a deterministically chosen target cell.  A
coloring is kept in the cell layout of McKay & Piperno ("Practical graph
isomorphism, II", JSC 60, 2014, §3): ``lab`` lists the vertices cell by cell,
each cell a contiguous, ascending segment located by per-cell ``start`` and
``size``, and a mask marks the positions whose successor lies in the same
cell.  The layout travels with the coloring down the search: a child copies
it, and individualizing v splits v off the end of its cell's segment.  So a
splitter's members are a slice of ``lab``; a pass counts every vertex's
neighbours among them (one adjacency row for a singleton, two for a pair,
the splitter's rows when it is small, AND + popcount over the packed rows
otherwise), and the count read in ``lab`` order differs between two
positions of one cell exactly where that cell splits.  A pass that splits
nothing therefore costs a gather, a shifted compare and a mask, and a pass
that splits re-sorts only the split cells' segments.  Leaves of the search
are discrete colorings; comparing a leaf against the first (leftmost) leaf
yields a candidate automorphism, which is verified against the full
adjacency matrix before it is accepted.

Pruning, in the standard shape:
* trace pruning — every branch carries a 64-bit running hash of its
  refinement history; a branch whose trace differs from the first path's at
  the same depth cannot carry an automorphism and is cut (hash equality never
  *accepts* anything by itself: leaves are always verified);
* orbit pruning — on first-path nodes, siblings lying in the orbit of
  already-explored choices under the known automorphisms fixing the node's
  individualized prefix and the automorphisms found so far are skipped
  (the orbits are closed by permgrp.orbit_mask, which also counts the
  order off the first path);
* backjumping — a verified automorphism unwinds the search to the deepest
  first-path node whose individualized prefix it fixes.

Known automorphisms are the unit translations of a graph's ``moduli``, which
DenseGraph has certified, plus the caller's generators, each checked against
the adjacency matrix.  The regular translations collapse the root to one
branch, and a known zero-stabilizer transitive on N(0) and on the
non-neighbours collapses depth 1.  They only prune: the search stays
exhaustive, so no order rests on them generating the whole group.

Strongly regular graphs are equitably homogeneous, so plain refinement never
splits them; all the work happens in the search, and orbit pruning is what
keeps vertex-transitive inputs tractable.

Isomorphism testing runs the same search on the disjoint union of the two
graphs, branching the root over second-graph vertices only; an automorphism
swapping the sides is exactly an isomorphism.  The branching side is one with
translation moduli if either has them, and its translations are the known
automorphisms; only without moduli is its group searched first instead.  The
union search is only run on connected pairs — an automorphism of the union
that moves vertex 0 across then necessarily swaps the sides completely, which
is what keeps the pruning rules exhaustive.  Disconnected inputs are matched
component by component first.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .graphs import DenseGraph, is_isomorphism, unit_translations
from .permgrp import GeneratorSet, Permutation, _point_mask, orbit_mask

__all__ = [
    "Coloring",
    "trivial_coloring",
    "refine",
    "AutResult",
    "automorphism_group",
    "are_isomorphic",
    "brute_force_aut",
    "check_budget",
    "Timeout",
    "NotIsomorphic",
    "TooLarge",
]

_M64 = (1 << 64) - 1
_FNV = 0x100000001B3


class Timeout(RuntimeError):
    """The solver exceeded its time budget (seconds)."""

    def __init__(self, budget: float):
        self.budget = budget
        super().__init__(f"solver budget of {budget:g} s exhausted")


class NotIsomorphic(ValueError):
    """The graphs are not isomorphic; .invariant names the witness."""

    def __init__(self, invariant: str):
        self.invariant = invariant
        super().__init__(f"not isomorphic: {invariant}")


class TooLarge(ValueError):
    """brute_force_aut is restricted to n <= 8."""


@dataclass(eq=False)
class Coloring:
    """A vertex coloring with contiguous color ids 0..num_classes-1."""

    colors: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        colors = np.ascontiguousarray(self.colors, dtype=np.int32)
        if colors.ndim != 1:
            raise ValueError("colors must be a 1-d array")
        if len(colors):
            if colors.min() < 0 or colors.max() >= self.num_classes:
                raise ValueError("color ids out of range")
            sizes = np.bincount(colors, minlength=self.num_classes)
            if (sizes == 0).any():
                raise ValueError("color ids must be contiguous 0..c-1")
        elif self.num_classes != 0:
            raise ValueError("empty graph needs num_classes = 0")
        self.colors = colors

    def class_members(self, c: int) -> np.ndarray:
        return np.flatnonzero(self.colors == c)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.colors, minlength=self.num_classes)

    def is_discrete(self) -> bool:
        return self.num_classes == len(self.colors)


def trivial_coloring(n: int) -> Coloring:
    return Coloring(np.zeros(n, dtype=np.int32), 1 if n else 0)


def _mix(h: int, x: int) -> int:
    """One step of a 64-bit running hash (FNV-1a flavoured)."""
    return ((h ^ (x & _M64)) * _FNV) & _M64


class _Cells:
    """A coloring in the cell layout of McKay & Piperno (2014, §3).

    ``lab`` lists the vertices cell by cell, each cell's segment in ascending
    vertex order; cell c is the segment of ``size[c]`` positions from
    ``start[c]``; ``same[i]`` says whether positions i and i + 1 lie in one
    cell; ``colors[v]`` is v's cell id, and ids run 0..num_classes-1.  The
    refiner and the search keep all five in step, so a splitter's members are
    a slice and a cell's first member is its least vertex.
    """

    __slots__ = ("colors", "lab", "start", "size", "same", "num_classes")

    def __init__(self, colors, lab, start, size, same, num_classes: int):
        self.colors, self.lab, self.start, self.size, self.same = (
            colors, lab, start, size, same
        )
        self.num_classes = num_classes

    @classmethod
    def of(cls, initial: Coloring) -> "_Cells":
        """The layout of a copy of `initial`; a stable sort by color keeps
        each segment ascending."""
        colors = initial.colors.copy()
        n = len(colors)
        lab = np.argsort(colors, kind="stable")  # intp: gathers by it are cheapest
        size = np.zeros(n, dtype=np.int64)
        size[: initial.num_classes] = np.bincount(colors, minlength=initial.num_classes)
        start = np.zeros(n, dtype=np.int64)
        start[1 : initial.num_classes] = np.cumsum(size[: initial.num_classes - 1])
        laid = colors[lab]
        return cls(colors, lab, start, size, laid[1:] == laid[:-1], initial.num_classes)

    def copy(self) -> "_Cells":
        return _Cells(
            self.colors.copy(), self.lab.copy(), self.start.copy(),
            self.size.copy(), self.same.copy(), self.num_classes,
        )

    def members(self, c: int) -> np.ndarray:
        """Cell c's vertices, ascending."""
        a = int(self.start[c])
        return self.lab[a : a + int(self.size[c])]

    def individualize(self, v: int) -> int:
        """Split v off the end of its cell's segment as the new cell
        num_classes; the rest of the segment stays ascending.  Returns v's
        old cell id.  The cell must have another member."""
        c = int(self.colors[v])
        a, z = int(self.start[c]), int(self.size[c])
        end = a + z - 1
        at = a + int(self.lab[a : a + z].searchsorted(v))
        self.lab[at:end] = self.lab[at + 1 : end + 1]
        self.lab[end] = v
        new = self.num_classes
        self.colors[v] = new
        self.start[new], self.size[new] = end, 1
        self.size[c] = z - 1
        self.same[end - 1] = False
        self.num_classes = new + 1
        return c


class _Refiner:
    """Cell-targeted equitable refinement of the colorings of one graph.

    A splitter pass reads the splitter's members as a slice of ``lab`` and
    counts every vertex's neighbours among them: a singleton's counts are its
    adjacency row (a view), a pair's the sum of two rows, a small splitter's
    the sum of its rows, a large one's AND + popcount over the packed rows.
    Read in ``lab`` order, a cell splits exactly where two neighbouring
    positions of one cell hold different counts: one gather, one shifted
    compare and one AND with ``same``.  A pass with no such position ends
    there; otherwise the split cells are marked by id, their segments
    re-sorted in place by (count, vertex), so each part stays ascending, and
    ``start``, ``size``, ``same`` and ``colors`` set for the new parts.  No
    step of a pass loops over every cell in Python.  `deadline`, a
    time.monotonic() value, is checked once per pass: Timeout(budget) when it
    has passed.  ``refinements`` counts passes and ``splits`` the passes that
    split a cell.
    """

    def __init__(self, g: DenseGraph, deadline: float = math.inf, budget: float = 0.0):
        self.n = g.n
        self.rows = g.adj.view(np.uint8)
        self.packed = g._packed
        self.words = self.packed.shape[1] if g.n else 0
        self._anded = np.empty_like(self.packed)
        self._bits = np.empty(self.packed.shape, dtype=np.uint8)
        self.deadline = deadline
        self.budget = budget
        self.refinements = 0
        self.splits = 0
        # a pass sorts (cell, count, vertex) packed into one int64 key, which
        # holds them for n < 2**20
        self.cbits = g.n.bit_length()  # a count is at most n
        self.vbits = max(g.n - 1, 1).bit_length()

    def _counts(self, members: np.ndarray) -> np.ndarray:
        """Neighbours of every vertex among `members`."""
        k = len(members)
        if k == 1:
            return self.rows[members[0]]
        if k == 2:
            return self.rows[members[0]] + self.rows[members[1]]
        # summing k byte rows touches k * n bytes; AND + popcount over the
        # n * words packed words measures about as slow as n / 8 rows
        if 8 * k < self.n:
            return self.rows[members].sum(axis=0, dtype=np.int32)
        b = np.zeros(self.words * 64, dtype=bool)
        b[members] = True
        mask = np.packbits(b).view(np.uint64)
        np.bitwise_and(self.packed, mask, out=self._anded)
        np.bitwise_count(self._anded, out=self._bits)
        return self._bits.sum(axis=1, dtype=np.int32)

    def refine(self, cells: _Cells, queue, trace: int) -> int:
        """Refine cells in place to the coarsest equitable refinement,
        processing the given splitter queue (Hopcroft all-but-largest).
        Returns the trace."""
        pending = deque(queue)
        queued = set(pending)
        while pending and cells.num_classes < self.n:
            if time.monotonic() > self.deadline:
                raise Timeout(self.budget)
            s = pending.popleft()
            queued.discard(s)
            trace = self._pass(cells, s, trace, pending, queued)
        return trace

    def _pass(self, cells: _Cells, s: int, trace: int, pending: deque, queued: set) -> int:
        """One splitter pass: split every cell by its members' neighbour
        counts in cell s, mix the splits into trace, and queue the new parts
        on pending and queued.  Returns the trace.

        Split cells are handled in ascending id; each keeps its id on the
        lowest-count part, and its other parts get fresh ids in ascending
        count order.
        """
        n = self.n
        colors, lab, start, size, same = (
            cells.colors, cells.lab, cells.start, cells.size, cells.same
        )
        self.refinements += 1
        lo = int(start[s])
        cnt = self._counts(lab[lo : lo + int(size[s])])[lab]
        edge = cnt[1:] != cnt[:-1]
        edge &= same
        if not np.count_nonzero(edge):
            return trace
        self.splits += 1
        num_classes = cells.num_classes
        mark = np.zeros(num_classes, dtype=bool)
        mark[colors[lab[edge.nonzero()[0]]]] = True
        split = mark.nonzero()[0]  # ascending id
        # the positions of the split cells' segments, one after another;
        # sorted by (cell, count, vertex), each run of one (cell, count) is
        # a part, ascending, and each cell's first part keeps its id
        sizes = size[split]
        heads = sizes.cumsum() - sizes
        total = int(heads[-1] + sizes[-1])
        pos = (start[split] - heads).repeat(sizes) + np.arange(total)
        cbits, vbits = self.cbits, self.vbits
        key = (((split << cbits).repeat(sizes) | cnt[pos]) << vbits) | lab[pos]
        key.sort()
        lab[pos] = key & ((1 << vbits) - 1)
        key >>= vbits
        bounds = np.empty(total + 1, dtype=bool)
        bounds[0] = bounds[total] = True
        np.not_equal(key[1:], key[:-1], out=bounds[1:total])
        bounds = bounds.nonzero()[0]
        starts = bounds[:-1]
        psize = bounds[1:] - starts
        pkey = key[starts]
        ids = pkey >> cbits  # each part's cell, until fresh ids replace it
        pcnt = pkey & ((1 << cbits) - 1)
        fresh = np.zeros(len(starts), dtype=bool)  # not its cell's first part
        np.equal(ids[1:], ids[:-1], out=fresh[1:])
        grown = int(np.count_nonzero(fresh))
        ids[fresh] = np.arange(num_classes, num_classes + grown)
        colors[lab[pos]] = ids.repeat(psize)
        start[ids] = pos[starts]
        size[ids] = psize
        same[pos[starts[fresh]] - 1] = False
        cells.num_classes = num_classes + grown
        cell_starts = (~fresh).nonzero()[0].tolist()
        ids, psize, pcnt = ids.tolist(), psize.tolist(), pcnt.tolist()
        for a, b in zip(cell_starts, cell_starts[1:] + [len(ids)]):
            c = ids[a]
            # _mix, inlined: trace = _mix(_mix(_mix(trace, 0x51D << 16), s), c)
            # then _mix(_mix(trace, count), size) per part
            trace = ((trace ^ 0x51D0000) * _FNV) & _M64
            trace = ((trace ^ s) * _FNV) & _M64
            trace = ((trace ^ c) * _FNV) & _M64
            for t in range(a, b):
                trace = ((trace ^ pcnt[t]) * _FNV) & _M64
                trace = ((trace ^ psize[t]) * _FNV) & _M64
            if c in queued:
                grow = ids[a + 1 : b]
            else:
                part_sizes = psize[a:b]
                largest = a + part_sizes.index(max(part_sizes))
                grow = ids[a:largest] + ids[largest + 1 : b]
            pending.extend(grow)
            queued.update(grow)
        return trace


def refine(g: DenseGraph, initial: Coloring) -> Coloring:
    """The coarsest equitable coloring refining `initial`: within each class,
    all vertices have the same number of neighbours in every class.
    Idempotent; class ids are assigned deterministically (splits keep the old
    id on the lowest-count part, new parts get fresh ids in ascending count
    order), so equal inputs give identical outputs."""
    if len(initial.colors) != g.n:
        raise ValueError(f"coloring has {len(initial.colors)} entries, graph has {g.n}")
    cells = _Cells.of(initial)
    _Refiner(g).refine(cells, range(initial.num_classes), 0)
    return Coloring(cells.colors, cells.num_classes)


# -- the IR search ----------------------------------------------------------------


class _AutoFound(Exception):
    def __init__(self, perm: Permutation):
        self.perm = perm


class _CrossFound(Exception):
    def __init__(self, sigma: np.ndarray):
        self.sigma = sigma


def _fixing(imgs: Iterable[np.ndarray], prefix: Sequence[int]) -> list[np.ndarray]:
    """The image arrays among imgs that fix every point of prefix."""
    pts = np.asarray(prefix, dtype=np.int64)
    return [img for img in imgs if np.array_equal(img[pts], pts)]


class _OrbitSet:
    """The closure of a growing seed set under a growing list of permutations
    (image arrays), kept closed by permgrp.orbit_mask."""

    def __init__(self, n: int, gens: Iterable[np.ndarray] = ()):
        self.mark = np.zeros(n, dtype=bool)
        self.gens = list(gens)

    def add_seed(self, v: int) -> None:
        if not self.mark[v]:
            self.mark |= orbit_mask(self.gens, _point_mask(len(self.mark), v))

    def add_gen(self, img: np.ndarray) -> None:
        self.gens.append(img)
        self.mark = orbit_mask(self.gens, self.mark)

    def __contains__(self, v: int) -> bool:
        return bool(self.mark[v])


class _Solver:
    """One automorphism/isomorphism search over a fixed graph.

    ``known`` holds image arrays of verified automorphisms of g; they seed the
    orbit pruning of every first-path node whose prefix they fix."""

    def __init__(
        self,
        g: DenseGraph,
        budget: float,
        deadline: float,
        known: Sequence[np.ndarray] = (),
        iso_half: int | None = None,
    ):
        self.g = g
        self.n = g.n
        self.refiner = _Refiner(g, deadline, budget)
        self.budget = budget
        self.deadline = deadline
        self.iso_half = iso_half  # union search: vertices >= iso_half are side 2
        self.nodes = 0
        self.gens: list[Permutation] = []
        self.first_leaf: np.ndarray | None = None
        self.first_traces: list[int] = []
        self.first_cells: list[int] = []
        self.first_vertices: list[int] = []
        self.known = known

    # - plumbing -

    def _tick(self) -> None:
        self.nodes += 1
        if time.monotonic() > self.deadline:
            raise Timeout(self.budget)

    def _pick_cell(self, cells: _Cells) -> int:
        """The smallest non-singleton cell, ties to the least first member."""
        sizes = cells.size[: cells.num_classes]
        cands = np.flatnonzero(sizes > 1)
        smallest = cands[sizes[cands] == sizes[cands].min()]
        if len(smallest) == 1:
            return int(smallest[0])
        return int(smallest[np.argmin(cells.lab[cells.start[smallest]])])

    def _known_orbits(self, depth: int) -> _OrbitSet | None:
        """An orbit set under the known automorphisms fixing the first path's
        prefix of this depth; None when none fixes it."""
        fixing = _fixing(self.known, self.first_vertices[:depth])
        return _OrbitSet(self.n, fixing) if fixing else None

    # - leaves -

    def _leaf(self, colors: np.ndarray) -> None:
        inv = np.empty(self.n, dtype=np.int32)
        inv[colors] = np.arange(self.n, dtype=np.int32)
        if self.first_leaf is None:
            self.first_leaf = inv
            return
        sigma = np.empty(self.n, dtype=np.int32)
        sigma[self.first_leaf] = inv
        if not is_isomorphism(self.g, self.g, sigma):
            return
        if self.iso_half is not None and sigma[0] >= self.iso_half:
            half = self.iso_half
            if (sigma[:half] >= half).all():
                raise _CrossFound(sigma)
        perm = Permutation(sigma, _validate=False)
        self.gens.append(perm)
        raise _AutoFound(perm)

    # - the search -

    def _dfs(
        self,
        cells: _Cells,
        trace: int,
        depth: int,
        on_first_path: bool,
        in_first_root_branch: bool,
    ) -> None:
        self._tick()
        if cells.num_classes == self.n:
            self._leaf(cells.colors)
            return
        if on_first_path and len(self.first_cells) == depth:
            if self.iso_half is not None and depth == 0:
                self.first_cells.append(int(cells.colors[0]))
            else:
                self.first_cells.append(self._pick_cell(cells))
        if depth >= len(self.first_cells):
            return  # deeper than the first path (trace hash collision): dead branch
        cell_color = self.first_cells[depth]
        if cell_color >= cells.num_classes or cells.size[cell_color] < 2:
            # no such cell to branch on (trace hash collision): dead branch.
            # Individualizing only in cells of two or more keeps every cell
            # nonempty, so n cells are a discrete coloring at the leaves.
            return
        members = cells.members(cell_color)  # ascending: the layout keeps it so
        if self.iso_half is not None and depth == 0:
            members = np.concatenate(([0], members[members >= self.iso_half]))
            if len(members) == 1:
                return  # vertex 0's class has no second-side counterpart
        orbits = self._known_orbits(depth) if on_first_path else None
        for v in members.tolist():
            if on_first_path and orbits is not None and v in orbits:
                continue
            child = cells.copy()
            old = child.individualize(v)
            ctrace = self.refiner.refine(
                child, [child.num_classes - 1], _mix(_mix(trace, 0x1D1), old)
            )
            if on_first_path and len(self.first_traces) == depth:
                self.first_traces.append(ctrace)
                self.first_vertices.append(v)
            elif ctrace != self.first_traces[depth]:
                continue
            child_first = on_first_path and v == self.first_vertices[depth]
            child_in_first = in_first_root_branch or (
                depth == 0 and v == self.first_vertices[0]
            )
            try:
                self._dfs(child, ctrace, depth + 1, child_first, child_in_first)
            except _AutoFound as found:
                img = found.perm.img
                if on_first_path and _fixing([img], self.first_vertices[:depth]):
                    if orbits is None:
                        orbits = _OrbitSet(self.n)
                        orbits.add_seed(self.first_vertices[depth])
                    orbits.add_gen(img)
                    orbits.add_seed(v)
                    continue
                raise
            if on_first_path and orbits is not None:
                orbits.add_seed(v)
            if (
                self.iso_half is not None
                and in_first_root_branch
                and self.first_leaf is not None
            ):
                break  # iso mode: the first root branch only feeds the first path

    def run(self, initial: Coloring) -> None:
        cells = _Cells.of(initial)
        trace = self.refiner.refine(cells, range(initial.num_classes), 0)
        limit = self.n + 1000
        if sys.getrecursionlimit() < limit:
            sys.setrecursionlimit(limit)
        self._dfs(cells, trace, 0, True, False)


@dataclass
class AutResult:
    """Solver output: generators of Aut(g), its order, and search statistics.

    The generators are the ``known`` automorphisms the search started from
    (the unit translations of g.moduli, then the caller's), followed by those
    it found; ``known`` counts the former.  The order falls out of the search
    tree itself: the generators fixing the first d individualized vertices
    generate their pointwise stabilizer, so the group order is the product
    over the first path of the orbit length of each individualized vertex
    under the generators fixing the vertices before it.
    """

    generators: GeneratorSet
    order: int
    nodes: int
    refinements: int
    splits: int
    seconds: float
    known: int

    def counters(self) -> str:
        """The search counters as one line of text."""
        found = len(self.generators.gens) - self.known
        return (
            f"nodes {self.nodes}, refinements {self.refinements} "
            f"({self.splits} splitting), "
            f"generators {self.known} known + {found} found"
        )


def _order_from_first_path(
    n: int, first_vertices: list[int], gens: list[Permutation]
) -> int:
    order = 1
    imgs = [p.img for p in gens]
    for depth, v in enumerate(first_vertices):
        fixing = _fixing(imgs, first_vertices[:depth])
        order *= int(orbit_mask(fixing, _point_mask(n, v)).sum())
    return order


def check_budget(budget: float) -> None:
    """ValueError unless budget (seconds) >= 0.  NaN fails too: a deadline
    of start + nan is never exceeded."""
    if not budget >= 0:
        raise ValueError(f"budget must be a number of seconds >= 0, got {budget!r}")


def automorphism_group(
    g: DenseGraph, budget: float = 60.0, known: GeneratorSet | None = None
) -> AutResult:
    """Generators and order of the full automorphism group of g.

    The search starts from the unit translations of g.moduli and the
    generators of ``known``, each of which is checked against the whole
    adjacency matrix (ValueError if one is not an automorphism), as is every
    generator the search finds.  Completeness comes from exhausting the
    individualization tree modulo trace/orbit pruning, so ``known`` may
    generate any subgroup.  Raises Timeout(budget) when the budget (seconds)
    runs out, and ValueError unless budget >= 0 (NaN included).
    """
    check_budget(budget)
    start = time.monotonic()
    n = g.n
    if known is not None and known.degree != n:
        raise ValueError(f"known generators have degree {known.degree}, graph has {n}")
    seeds = [  # certified by DenseGraph
        Permutation(img.astype(np.int32), _validate=False)
        for img in unit_translations(g.moduli or ())
    ]
    for j, perm in enumerate(() if known is None else known.gens):
        if not is_isomorphism(g, g, perm.img):
            raise ValueError(f"known generator {j} is not an automorphism of the graph")
        seeds.append(perm)
    if n == 0:
        return AutResult(GeneratorSet(0, ()), 1, 0, 0, 0, 0.0, 0)
    solver = _Solver(g, budget, start + budget, [p.img for p in seeds])
    solver.run(trivial_coloring(n))
    gens = seeds + solver.gens
    order = _order_from_first_path(n, solver.first_vertices, gens)
    return AutResult(
        GeneratorSet(n, tuple(gens)),
        order,
        solver.nodes,
        solver.refiner.refinements,
        solver.refiner.splits,
        time.monotonic() - start,
        len(seeds),
    )


def _degree_multiset(g: DenseGraph) -> list[int]:
    return sorted(int(d) for d in g.degrees())


def _refinement_signature(
    g: DenseGraph, deadline: float, budget: float
) -> tuple[int, tuple[int, ...]]:
    cells = _Cells.of(trivial_coloring(g.n))
    trace = _Refiner(g, deadline, budget).refine(cells, range(1), 0)
    return trace, tuple(sorted(cells.size[: cells.num_classes].tolist()))


def _union_graph(g: DenseGraph, h: DenseGraph) -> DenseGraph:
    n = g.n
    adj = np.zeros((2 * n, 2 * n), dtype=bool)
    adj[:n, :n] = g.adj
    adj[n:, n:] = h.adj
    return DenseGraph(adj)


def _components(g: DenseGraph) -> list[np.ndarray]:
    """Vertex sets of the connected components, each sorted ascending."""
    seen = np.zeros(g.n, dtype=bool)
    out = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = np.zeros(g.n, dtype=bool)
        comp[s] = True
        frontier = comp.copy()
        while frontier.any():
            frontier = g.adj[frontier].any(axis=0) & ~comp
            comp |= frontier
        seen |= comp
        out.append(np.flatnonzero(comp))
    return out


def _lift(perm_imgs: Iterable[np.ndarray], n: int) -> list[np.ndarray]:
    """Automorphisms of the second side, as automorphisms of the union that
    fix the first side pointwise."""
    ident = np.arange(n, dtype=np.int32)
    return [np.concatenate((ident, img.astype(np.int32) + n)) for img in perm_imgs]


def _iso_connected(g: DenseGraph, h: DenseGraph, deadline: float) -> np.ndarray:
    """Union-graph search for connected g and h of equal size.

    Connectedness matters: any automorphism of the union moving vertex 0 to
    the h side must then carry the whole g side across, so every verified
    cross leaf is a complete side swap and the automorphism-based pruning
    stays exhaustive.  The root branches over h, collapsed by h's
    translations or else by Aut(h) found within a slice of the budget; when
    only g carries moduli the sides are swapped and the mapping inverted.
    """
    if g.moduli is not None and h.moduli is None:
        return np.argsort(_iso_connected(h, g, deadline)).astype(np.int32)
    n = g.n
    budget = deadline - time.monotonic()
    if _refinement_signature(g, deadline, budget) != _refinement_signature(
        h, deadline, budget
    ):
        raise NotIsomorphic("equitable refinement signatures differ")
    if g == h:
        return np.arange(n, dtype=np.int32)
    if h.moduli is not None:
        known = _lift(unit_translations(h.moduli), n)
    else:
        try:
            hint = automorphism_group(h, budget=budget * 0.4)
            known = _lift((p.img for p in hint.generators.gens), n)
        except Timeout:
            known = []
    solver = _Solver(_union_graph(g, h), budget, deadline, known, iso_half=n)
    try:
        solver.run(trivial_coloring(2 * n))
    except _CrossFound as cross:
        return (cross.sigma[:n] - n).astype(np.int32)
    raise NotIsomorphic("individualization search exhausted")


def are_isomorphic(
    g: DenseGraph, h: DenseGraph, budget: float = 60.0
) -> np.ndarray:
    """An isomorphism g -> h as an array (vertex i of g maps to mapping[i] of
    h), verified edge-by-edge before returning.  Raises NotIsomorphic with the
    distinguishing invariant otherwise, or Timeout(budget).

    The search runs on the disjoint union of g and h, branching the root over
    the vertices of a side with translation moduli when either has them; that
    side's translations collapse equivalent root branches.  When neither side
    has moduli, h's own automorphisms are computed first (within a slice of
    the budget) to do the same.  Disconnected graphs are decomposed and
    matched component by component.  ValueError unless budget >= 0.
    """
    check_budget(budget)
    deadline = time.monotonic() + budget
    if g.n != h.n:
        raise NotIsomorphic(f"vertex counts differ: {g.n} vs {h.n}")
    n = g.n
    if n == 0:
        return np.empty(0, dtype=np.int32)
    if _degree_multiset(g) != _degree_multiset(h):
        raise NotIsomorphic("degree multisets differ")

    comps_g = _components(g)
    comps_h = _components(h)
    if len(comps_g) == 1 and len(comps_h) == 1:
        mapping = _iso_connected(g, h, deadline)
    elif sorted(len(c) for c in comps_g) != sorted(len(c) for c in comps_h):
        raise NotIsomorphic("component size multisets differ")
    else:
        # greedy matching is exhaustive here: isomorphism classes partition
        # the components, and any member of a class is as good as any other
        mapping = np.full(n, -1, dtype=np.int32)
        unused = list(range(len(comps_h)))
        for cg in comps_g:
            sub_g = DenseGraph(g.adj[np.ix_(cg, cg)])
            key_g = _degree_multiset(sub_g)
            for k in list(unused):
                ch = comps_h[k]
                if len(ch) != len(cg):
                    continue
                sub_h = DenseGraph(h.adj[np.ix_(ch, ch)])
                if _degree_multiset(sub_h) != key_g:
                    continue
                try:
                    sub_map = _iso_connected(sub_g, sub_h, deadline)
                except NotIsomorphic:
                    continue
                mapping[cg] = ch[sub_map]
                unused.remove(k)
                break
            else:
                raise NotIsomorphic("a component has no isomorphic counterpart")

    if sorted(mapping.tolist()) != list(range(n)):
        raise AssertionError("candidate isomorphism is not a bijection")
    if not is_isomorphism(g, h, mapping):
        raise AssertionError("candidate isomorphism failed verification")
    return mapping


def brute_force_aut(g: DenseGraph) -> list[Permutation]:
    """All automorphisms of g by scanning every permutation (n <= 8)."""
    if g.n > 8:
        raise TooLarge(f"brute force is capped at 8 vertices, got {g.n}")
    adj = g.adj
    out = []
    for p in itertools.permutations(range(g.n)):
        arr = np.array(p, dtype=np.int32)
        if np.array_equal(adj[np.ix_(arr, arr)], adj):
            out.append(Permutation(arr))
    return out
