"""Graph automorphism and isomorphism solver.

The engine is individualization-refinement: colorings are refined by
cell-targeted splitter passes, and a backtracking search individualizes
the vertices of a target cell: the first largest cell by id,
a rule that reads no vertex label.  Any target cell keeps the search
complete, since only the first path applies the rule: every other node
branches on the first path's cell ids, and the group order is read off the
orbits along the first path (McKay & Piperno 2014, §2-3).  The largest cell
keeps the first path shallow.  A coloring is kept in the cell layout of
McKay & Piperno ("Practical graph isomorphism, II", JSC 60, 2014, §3):
``lab`` lists the vertices cell by cell, each cell a contiguous, ascending
segment located by per-cell ``start`` and ``size``, and a mask marks the
positions whose successor lies in the same cell.  The layout travels with
the coloring down the search: a child copies it, and individualizing v
splits v off the end of its cell's segment.  So a splitter's members are a
slice of ``lab``; a pass counts every vertex's neighbours among them
(DenseGraph.neighbour_counts), and the count read in ``lab`` order differs
between two positions of one cell exactly where that cell splits.  A pass
takes the run of cells at the head of the queue while their members total
at most 53 and their counts fit side by side in W bits, a cell of s members
taking s.bit_length() of them: every vertex's count is then the sum of its
neighbours in each cell shifted to that cell's offset, one
DenseGraph.adjacency_bits call with each member's row weighted by its
cell's offset.  Each cell of the batch is counted whole, as it stood when
the pass began, so the batch splits as its cells would one after another,
and a cell that its own pass splits was used whole as a splitter, so
Hopcroft's rule of queueing all its parts but the largest stays sound
(Paige & Tarjan, SIAM J. Comput. 16, 1987); the batch is chosen from queue
order and cell sizes alone, both label-invariant.  A cell of more than 53
members is a pass of its own.  A pass sorts int64 keys (cell, count,
vertex): the cell and the vertex take vbits each, the bit length of n - 1,
and the count every bit left, W = 63 - 2 vbits, which holds any neighbour
count for n < 2**20 (see _Refiner).  A pass that splits
nothing therefore costs a gather, a shifted compare and a mask, and a pass
that splits re-sorts only the split cells' segments.  A search starts from
the unit partition.  Leaves of the search are discrete colorings; comparing
a leaf against the first (leftmost) leaf yields a candidate automorphism,
which is verified against the whole graph (graphs.is_isomorphism) before it
is accepted.

Refinement need not reach equitability: the search needs a refinement that
is label-invariant, not an equitable one (McKay & Piperno 2014, §2).  So a
refinement that follows no record (the root's and those of the first path's
nodes) stops after _Refiner.IDLE_STOP passes in a row that split nothing.
Whether a pass splits, and the queue's order, depend on cell ids and sizes
alone, so the stop reads no vertex label; a pass that splits nothing leaves
the coloring and the trace unchanged, so each record is a prefix, ending at
a split, of the one that refinement to equitability would make, and every
other node follows it as before.  A coloring left short of discrete is
individualized further, and leaves are verified as always.

Pruning, in the standard shape:
* trace pruning — every branch carries a 64-bit trace of its refinement
  history: each individualization and each splitting pass mixes its words
  (cell ids, counts and part sizes, never a vertex) into it with
  one hash() of a tuple of ints, which PYTHONHASHSEED leaves alone, so a
  relabelled graph and another process get the same traces.  A branch whose
  trace differs from the first path's at the same depth cannot carry an
  automorphism and is cut (hash equality never *accepts* anything by itself:
  leaves are always verified, so a collision costs work, not correctness).
  Traces are compared as refinement proceeds (McKay & Piperno 2014, §3): the
  first path, built once before the search, records per depth its trace
  after each pass up to its last splitting pass, and every other node of
  that depth stops after as many passes, or at the first whose trace differs.
  An automorphism maps the first path's node to one with the same per-pass
  traces, whose skipped passes split nothing, so its coloring is the first
  path's image; a node that matches the record without being such an image
  may be kept where refinement to equitability would cut it, and its leaves
  are verified like all others;
* orbit pruning — a node skips the children lying in the orbit of its
  explored ones, and of those the trace cut, under the known automorphisms
  fixing its individualized prefix (refinement is label-invariant, so such
  an automorphism maps a cut child to one with the same trace); a
  first-path node also closes its orbits under every automorphism
  found beneath it, the deeper first-path nodes' included, as each child
  returns.  Those orbits are final when its loop ends, so the group order is
  the product of their lengths at the first path's vertices (McKay &
  Piperno 2014, §2-3; the orbits are closed by permgrp.orbit_mask);
* backjumping — a verified automorphism unwinds the search to the deepest
  first-path node whose individualized prefix it fixes.

Known automorphisms are the unit translations of a graph's ``moduli``, which
are automorphisms by construction (DenseGraph.from_row0 builds a circulant
graph), plus the caller's generators, each checked by
graphs.is_isomorphism.  The regular translations collapse the root to one
branch, and a known zero-stabilizer transitive on N(0) and on the
non-neighbours collapses depth 1.  They only prune: the search stays
exhaustive, so no order rests on them generating the whole group.

Strongly regular graphs are equitably homogeneous, so plain refinement never
splits them; all the work happens in the search, and orbit pruning is what
keeps vertex-transitive inputs tractable.

Isomorphism testing is a directed search.  One graph's first path is built
as an automorphism search builds its own, and the other graph's tree is
searched along it: the same target cell ids, every child refined against
the path's record and cut if its trace differs from the path's at its
depth, and at a leaf the map carrying the path's leaf onto it is a
candidate, accepted only if it is an isomorphism.  An isomorphism carries
the first path to such a path of the searched graph, so the search is
complete, whether or not the graphs are connected, and needs no invariant
checked beforehand.  The searched side is g when automorphisms of g are
given (the catalog passes its aut stage's) or when only g has translation
moduli, and h otherwise.  Its known automorphisms are those an
automorphism search of it starts from: its translations and the given
ones.  Only when it has none is its group searched first, under the same
deadline.
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

from .graphs import DenseGraph, is_isomorphism, isomorphism_mask, unit_translations
from .permgrp import GeneratorSet, Timeout, _point_mask, orbit_mask

__all__ = [
    "AutResult",
    "automorphism_group",
    "are_isomorphic",
    "brute_force_aut",
    "check_budget",
    "Timeout",
    "NotIsomorphic",
]

_M64 = (1 << 64) - 1


class NotIsomorphic(ValueError):
    """The graphs are not isomorphic; .invariant names the witness."""

    def __init__(self, invariant: str):
        self.invariant = invariant
        super().__init__(f"not isomorphic: {invariant}")


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
    def of(cls, colors: np.ndarray) -> "_Cells":
        """The layout of a copy of `colors`, an int array of contiguous class
        ids 0..c-1; a stable sort by color keeps each segment ascending."""
        colors = np.array(colors, dtype=np.int32)
        n = len(colors)
        c = int(colors.max()) + 1 if n else 0
        lab = np.argsort(colors, kind="stable")  # intp: gathers by it are cheapest
        size = np.zeros(n, dtype=np.int64)
        size[:c] = np.bincount(colors, minlength=c)
        start = np.zeros(n, dtype=np.int64)
        start[1:c] = np.cumsum(size[: c - 1])
        laid = colors[lab]
        return cls(colors, lab, start, size, laid[1:] == laid[:-1], c)

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


def _individualized(cells: _Cells, trace: int, v: int) -> tuple[_Cells, int]:
    """A copy of cells with v individualized, and the trace its refinement
    starts from: trace with v's old cell id mixed in."""
    child = cells.copy()
    old = child.individualize(v)
    return child, hash((trace, 0x1D1, old)) & _M64


class _Refiner:
    """Cell-targeted refinement of the colorings of one graph.

    A splitter pass takes the cell at the head of the queue, and the cells
    queued directly behind it while the batch's members total at most BATCH
    and its counts' widths at most W (a cell of s members needs
    s.bit_length() bits).  It counts every vertex with one of the graph's
    kernels over its packed rows: for a batch of several cells,
    DenseGraph.adjacency_bits gives the sum over its cells of the vertex's
    neighbours there shifted left by the widths of the cells before it, so
    a batch of singletons gives bit i for the i-th; for one cell,
    DenseGraph.neighbour_counts gives its neighbours there, the cell's
    members read as a slice of ``lab``.  A cell of more than BATCH members
    is always a pass of its own.  Each cell of a batch is counted whole, so
    a batch splits each cell as its cells would one after another, and a
    batch cell split by its own pass was already used whole as a splitter:
    queueing all its parts but the largest stays sound, and refinement run
    to its end still ends at the coarsest equitable refinement.  The batch
    is chosen from queue order and cell sizes alone, both label-invariant,
    so the trace stays invariant too.
    Read in ``lab`` order, a cell splits exactly where two neighbouring
    positions of one cell hold different counts: one gather, one shifted
    compare and one AND with ``same``.  A pass with no such position ends
    there; otherwise the split cells are marked by id, their segments
    re-sorted in place by one sort of int64 keys (cell, count, vertex), so
    each part stays ascending, and ``start``, ``size``, ``same`` and
    ``colors`` set for the new parts.  A key gives the cell and the vertex
    vbits each (vbits the bit length of n - 1) and the count every bit
    left, W = 63 - 2 vbits: 43 at n = 1024, and at least n's bit length for
    n < 2**20, so a neighbour count fits; a batch's widths sum to at most
    its members, so its counts stay below 2**53, where adjacency_bits'
    float64 product is exact.  The pass then mixes
    the batch and its parts' ids, counts and sizes into the trace with one
    hash() call and queues its new parts with one extend; only choosing
    those parts loops in Python, once per split cell.  `deadline`, a
    time.monotonic() value, is checked once per pass: Timeout when it has
    passed.  ``refinements`` counts passes, a batch as one, and ``splits``
    the passes that split a cell.  The root and the search's first path
    refine with no record: each stops at the coarsest equitable refinement
    or after IDLE_STOP passes in a row that split nothing, whichever comes
    first, and returns its record, the trace after each pass up to its last
    split.  The search's other nodes refine against that record, stopping
    where it ends and returning at the first pass whose trace differs (see
    refine).
    """

    # R, the passes in a row that split nothing after which a refinement
    # with no record stops.  A batched idle pass covers more rows than a
    # single splitter did, so each costs more.  With every catalog row
    # searched as the aut stage seeds it (312 nodes), refinement to
    # equitability makes 1,492 passes, R = 64 1,345, R = 16 1,187 and
    # R = 8 1,133, each keeping every search's node count; R = 4 adds four
    # nodes, and smaller R more.  R = 16 leaves one doubling of room.
    IDLE_STOP = 16
    BATCH = 53  # the most members a batch holds: adjacency_bits' rows

    def __init__(self, g: DenseGraph, deadline: float = math.inf):
        self.n = g.n
        self.counts, self.bits = g.neighbour_counts, g.adjacency_bits
        self.deadline = deadline
        self.refinements = 0
        self.splits = 0
        # the key's fields (see above); cbits is W, the most bits a batch's
        # counts take side by side
        self.vbits = max(g.n - 1, 1).bit_length()
        self.cbits = 63 - 2 * self.vbits

    def refine(self, cells: _Cells, queue, trace: int, record: tuple | None = None) -> tuple:
        """Refine cells in place, processing the given splitter queue
        (Hopcroft all-but-largest).  Returns the trace and the record.

        A record is the trace after each pass, up to the last splitting pass.
        Without one, refinement runs to the coarsest equitable refinement, or
        stops after IDLE_STOP passes in a row that split nothing, and returns
        its own.  The stop reads no vertex label: the queue's order and
        whether a pass splits depend on cell ids and sizes alone, and a pass
        that splits nothing leaves the coloring and the trace as they were,
        so the stopped coloring and trace are those after the record's last
        pass.  Given a record (the first path's at the node's depth), it is returned and
        followed: refinement stops after len(record) passes, or at the first
        whose trace differs from the record's."""
        pending = deque(queue)
        queued = set(pending)
        traces, last_split = [], 0
        while pending and cells.num_classes < self.n:
            if record is None:
                if len(traces) - last_split == self.IDLE_STOP:
                    break
            elif len(traces) == len(record):
                break
            if time.monotonic() > self.deadline:
                raise Timeout("the solver passed its deadline")
            batch = [pending.popleft()]
            members = int(cells.size[batch[0]])
            width = members.bit_length()
            while pending:
                size = int(cells.size[pending[0]])
                if members + size > self.BATCH or width + size.bit_length() > self.cbits:
                    break
                members += size
                width += size.bit_length()
                batch.append(pending.popleft())
            queued.difference_update(batch)
            splits = self.splits
            trace = self._pass(cells, batch, members, trace, pending, queued)
            if record is not None and trace != record[len(traces)]:
                break
            traces.append(trace)
            if self.splits > splits:
                last_split = len(traces)
        return trace, tuple(traces[:last_split]) if record is None else record

    def _pass(
        self, cells: _Cells, batch: list[int], members: int, trace: int, pending: deque, queued: set
    ) -> int:
        """One splitter pass: split every cell by its members' counts in the
        batch of splitters, mix the batch and the parts into trace, and queue
        the new parts on pending and queued.  Returns the trace.

        ``members`` is the batch's member total.  A batch of one cell
        counts a vertex's neighbours in it; a longer one packs its
        neighbours in each cell side by side, the i-th cell's count shifted
        left by the bit lengths of the sizes before it (a run of singletons:
        bit i for the i-th).  Split cells are handled in ascending id;
        each keeps its id on the lowest-count part, and its other parts get
        fresh ids in ascending count order.
        """
        colors, lab, start, size, same = (
            cells.colors, cells.lab, cells.start, cells.size, cells.same
        )
        self.refinements += 1
        if members == len(batch):  # singletons: bit i for the i-th
            cnt = self.bits(lab[start[batch]])[lab]
        elif len(batch) == 1:  # one cell: the neighbours there
            lo = int(start[batch[0]])
            cnt = self.counts(lab[lo : lo + members])[lab]
        else:  # each cell's count at its offset, the sum of the widths before it
            sizes = size[batch]
            widths = np.frexp(sizes)[1]  # bit lengths
            heads = sizes.cumsum() - sizes
            at = (start[batch] - heads).repeat(sizes) + np.arange(members)
            cnt = self.bits(lab[at], (widths.cumsum() - widths).repeat(sizes))[lab]
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
        ids, pcnt, psize = ids.tolist(), pcnt.tolist(), psize.tolist()
        # the pass's trace words, mixed by one hash() of ints (which
        # PYTHONHASHSEED leaves alone): the batch, then every part's id, count
        # and size in order; a part whose id is below num_classes opens its cell
        trace = hash((trace, tuple(batch), tuple(ids), tuple(pcnt), tuple(psize))) & _M64
        # Hopcroft: a queued cell's new parts join it, otherwise all parts
        # but the (first) largest; one extend keeps the order of the cells
        grow = []
        cell_starts = (~fresh).nonzero()[0].tolist()
        for a, b in zip(cell_starts, cell_starts[1:] + [len(ids)]):
            if ids[a] in queued:
                grow += ids[a + 1 : b]
            else:
                part_sizes = psize[a:b]
                largest = a + part_sizes.index(max(part_sizes))
                grow += ids[a:largest]
                grow += ids[largest + 1 : b]
        pending.extend(grow)
        queued.update(grow)
        return trace


# -- the IR search ----------------------------------------------------------------


class _Found(Exception):
    """A verified leaf: an automorphism, or in a directed search an
    isomorphism, as an image array."""

    def __init__(self, img: np.ndarray):
        self.img = img


def _fixing(imgs: Iterable[np.ndarray], prefix: Sequence[int]) -> list[np.ndarray]:
    """The image arrays among imgs that fix every point of prefix."""
    pts = np.asarray(prefix, dtype=np.int64)
    return [img for img in imgs if np.array_equal(img[pts], pts)]


class _OrbitSet:
    """The closure of a growing seed set under a growing stack of
    permutations, kept closed by permgrp.orbit_mask.

    ``gens`` is one (k, n) array of image arrays: a node starts it as the
    rows of the known automorphisms that fix its prefix, and add_gens
    concatenates the new ones, so each closure gathers under all of them at
    once.  ``held`` is the orbit of the first seed closed, under the
    generators known then; it lies in that seed's final orbit, so closing it
    again under the final generators gives that orbit (see first_orbit)."""

    def __init__(self, n: int, gens: np.ndarray):
        self.mark = np.zeros(n, dtype=bool)
        self.gens = gens
        self.held: np.ndarray | None = None

    def add_seed(self, v: int) -> None:
        if not self.mark[v]:
            orbit = orbit_mask(self.gens, _point_mask(len(self.mark), v))
            if self.held is None:
                self.held = orbit
            self.mark |= orbit

    def add_gens(self, imgs: Sequence[np.ndarray]) -> None:
        if imgs:
            self.gens = np.concatenate((self.gens, imgs))
            self.mark = orbit_mask(self.gens, self.mark)

    def first_orbit(self) -> np.ndarray:
        """The orbit of the first seed under the generators held now."""
        return orbit_mask(self.gens, self.held)

    def __contains__(self, v: int) -> bool:
        return bool(self.mark[v])


@dataclass
class _Path:
    """The first path of g's search, from the root to the first leaf.

    ``nodes[d]`` is the (cells, trace) of its node at depth d, the root
    first; ``cells[d]`` is that node's target cell id, ``vertices[d]`` the
    vertex individualized in it and ``records[d]`` the record its child was
    refined with (see _Refiner.refine); ``leaf`` is the first leaf's
    coloring."""

    g: DenseGraph
    nodes: list[tuple[_Cells, int]]
    cells: list[int]
    vertices: list[int]
    records: list[tuple[int, ...]]
    leaf: np.ndarray


class _Solver:
    """One search over the individualization tree of a fixed graph g.

    ``known`` holds image arrays of verified automorphisms of g; a node skips
    the children in the orbits of its explored ones under those that fix its
    individualized prefix.  ``run`` searches automorphisms along g's own
    first path; ``search`` walks another graph's, so its leaves are
    candidate isomorphisms from that graph to g.
    """

    def __init__(self, g: DenseGraph, deadline: float, known: Sequence[np.ndarray] = ()):
        self.g = g
        self.n = g.n
        self.refiner = _Refiner(g, deadline)
        self.deadline = deadline
        # one k x n array, so a node filters the known ones in one step
        self.known = np.array(known, dtype=np.int32).reshape(len(known), self.n)
        self.nodes = 0
        self.gens: list[np.ndarray] = []
        self.path: _Path | None = None  # the first path being walked
        self.order = 1  # the product of the first path's orbit lengths
        sys.setrecursionlimit(max(sys.getrecursionlimit(), self.n + 1000))

    # - plumbing -

    def _tick(self) -> None:
        self.nodes += 1
        if time.monotonic() > self.deadline:
            raise Timeout("the solver passed its deadline")

    def _pick_cell(self, cells: _Cells) -> int:
        """The target cell: the first largest cell by id.

        A non-discrete coloring has a cell of two or more, so the largest is
        never a singleton.  Cell ids and sizes are label-invariant, so the
        rule reads no vertex label.  Only the first path applies it: every
        other node, and a directed search's, branches on the first path's
        cell ids, and the order is the product of the orbit lengths along
        the first path, whichever cells it ran through, so any target cell
        gives a complete search (McKay & Piperno 2014, §2-3).  The largest
        cell gives a shallow first path: individualizing one of its vertices
        splits the most vertices off the rest."""
        return int(np.argmax(cells.size[: cells.num_classes]))

    # - leaves -

    def _leaf(self, colors: np.ndarray) -> None:
        inv = np.empty(self.n, dtype=np.int32)
        inv[colors] = np.arange(self.n, dtype=np.int32)
        sigma = inv[self.path.leaf]
        if is_isomorphism(self.path.g, self.g, sigma):
            raise _Found(sigma)

    # - the search -

    def _dfs(
        self, cells: _Cells, trace: int, depth: int, on_first_path: bool, prefix: list[int]
    ) -> None:
        self._tick()
        path = self.path
        if cells.num_classes == self.n:
            if not on_first_path:
                self._leaf(cells.colors)
            return
        if depth >= len(path.cells):
            return  # deeper than the first path (trace hash collision): dead branch
        cell_color = path.cells[depth]
        if cell_color >= cells.num_classes or cells.size[cell_color] < 2:
            # no such cell to branch on (trace hash collision): dead branch.
            # Individualizing only in cells of two or more keeps every cell
            # nonempty, so n cells are a discrete coloring at the leaves.
            return
        fixing = self.known[(self.known[:, prefix] == prefix).all(axis=1)]
        orbits = _OrbitSet(self.n, fixing) if on_first_path or len(fixing) else None
        for v in cells.members(cell_color).tolist():  # ascending: the layout keeps it so
            if orbits is not None and v in orbits:
                continue
            # the first path's child, built already, comes first: its vertex is the least
            child_first = on_first_path and v == path.vertices[depth]
            if child_first:
                child, ctrace = path.nodes[depth + 1]
            else:
                child, ctrace = _individualized(cells, trace, v)
                queue = [child.num_classes - 1]
                ctrace, _ = self.refiner.refine(child, queue, ctrace, path.records[depth])
                if ctrace != path.nodes[depth + 1][1]:
                    if orbits is not None:  # its orbit-mates share its trace
                        orbits.add_seed(v)
                    continue
            before = len(self.gens)
            try:
                self._dfs(child, ctrace, depth + 1, child_first, prefix + [v])
            except _Found as found:
                # a first-path node keeps the automorphisms that fix its
                # prefix; the others unwind to a shallower one (backjumping)
                if not on_first_path or not _fixing([found.img], prefix):
                    raise
                self.gens.append(found.img)
            if orbits is not None:
                # every automorphism found beneath this node: the first-path
                # child's were kept deeper down and fix a longer prefix
                orbits.add_gens(_fixing(self.gens[before:], prefix))
                orbits.add_seed(v)
        if on_first_path:
            # every automorphism fixing the prefix is known once the loop
            # ends: one found later moves a vertex of the prefix.  The first
            # seed closed was the first-path child's vertex, the least of
            # the cell, so its held orbit grows into the final one
            self.order *= int(orbits.first_orbit().sum())

    def root(self) -> tuple[_Cells, int]:
        """The unit partition refined with no record, and its trace."""
        cells = _Cells.of(np.zeros(self.n, dtype=np.int32))
        return cells, self.refiner.refine(cells, range(cells.num_classes), 0)[0]

    def first_path(self, cells: _Cells, trace: int) -> _Path:
        """The first path below a root from ``root``: at each depth the least
        vertex of the target cell individualized and the child refined with
        no record, to equitability or until IDLE_STOP passes in a row split
        nothing (see _Refiner.refine), down to the first leaf."""
        nodes, targets, vertices, records = [(cells, trace)], [], [], []
        while cells.num_classes < self.n:
            target = self._pick_cell(cells)
            v = int(cells.members(target)[0])
            cells, trace = _individualized(cells, trace, v)
            trace, record = self.refiner.refine(cells, [cells.num_classes - 1], trace)
            nodes.append((cells, trace))
            targets.append(target)
            vertices.append(v)
            records.append(record)
        return _Path(self.g, nodes, targets, vertices, records, cells.colors)

    def run(self) -> None:
        """Search the automorphisms of g along its own first path."""
        self.path = self.first_path(*self.root())
        self._dfs(*self.path.nodes[0], 0, True, [])

    def search(self, path: _Path, cells: _Cells, trace: int) -> None:
        """Search below a root from ``root`` along another graph's first path
        for isomorphisms path.g -> g; raises _Found with the first it meets."""
        self.path = path
        self._dfs(cells, trace, 0, False, [])


@dataclass
class AutResult:
    """Solver output: generators of Aut(g), its order, and search statistics.

    The generators are the ``known`` automorphisms the search started from
    (the unit translations of g.moduli, then the caller's), followed by those
    it found; ``known`` counts the former.  The order falls out of the search
    tree itself: the generators fixing the first d individualized vertices
    generate their pointwise stabilizer, so the group order is the product
    over the first path of the orbit length of each individualized vertex
    under the generators fixing the vertices before it: the orbits that the
    vertex's first-path node prunes with, once its loop ends.

    ``base`` is that path's individualized vertices (() when g has no
    vertices), a base of Aut(g): the orbit product along it under the
    generators (permgrp.reaches_order's first step) recounts the order.
    """

    generators: GeneratorSet
    order: int
    nodes: int
    refinements: int
    splits: int
    seconds: float
    known: int
    base: tuple[int, ...]

    def counters(self) -> str:
        """The search counters as one line of text."""
        found = len(self.generators.gens) - self.known
        return (
            f"nodes {self.nodes}, refinements {self.refinements} "
            f"({self.splits} splitting), "
            f"generators {self.known} known + {found} found"
        )


def check_budget(budget: float) -> None:
    """ValueError unless budget (seconds) >= 0.  NaN fails too: a deadline
    of start + nan is never exceeded."""
    if not budget >= 0:
        raise ValueError(f"budget must be a number of seconds >= 0, got {budget!r}")


def _known_automorphisms(g: DenseGraph, known: GeneratorSet | None) -> list[np.ndarray]:
    """The unit translations of g.moduli, automorphisms by construction
    (from_row0), then the generators of ``known``, checked against g in one
    call (isomorphism_mask: the affine ones as one stack, any other on the
    rows one at a time): ValueError naming the first one that is not an
    automorphism, or if their degree is not g.n.  A repeated row is kept
    once, where it first occurs, and checked once: an AutResult's
    generators start with the very translations prepended here."""
    if known is not None and known.degree != g.n:
        raise ValueError(f"known generators have degree {known.degree}, graph has {g.n}")
    seeds = {}  # keyed by the int32 image's bytes, in insertion order
    for img in np.array(unit_translations(g.moduli or ()), dtype=np.int32):
        seeds.setdefault(img.tobytes(), img)
    fresh = {}  # the known generators not seen before, by key: (j, img)
    for j, img in enumerate(() if known is None else known.gens):  # int32 rows
        key = img.tobytes()
        if key not in seeds and key not in fresh:
            fresh[key] = (j, img)
    if fresh:
        ok = isomorphism_mask(g, g, np.array([img for _, img in fresh.values()]))
        if not ok.all():
            j = list(fresh.values())[int(np.argmin(ok))][0]
            raise ValueError(f"known generator {j} is not an automorphism of the graph")
        seeds.update((key, img) for key, (_, img) in fresh.items())
    return list(seeds.values())


def automorphism_group(
    g: DenseGraph, budget: float = 60.0, known: GeneratorSet | None = None
) -> AutResult:
    """Generators and order of the full automorphism group of g.

    The search starts from _known_automorphisms: the unit translations of
    g.moduli and the generators of ``known``, each of which is checked by
    is_isomorphism (ValueError if one is not an automorphism), as is every
    generator the search finds.  Completeness comes from exhausting the
    individualization tree modulo trace/orbit pruning, so ``known`` may
    generate any subgroup.  Raises Timeout when the budget (seconds) runs
    out, and ValueError unless budget >= 0 (NaN included).
    """
    check_budget(budget)
    start = time.monotonic()
    n = g.n
    seeds = _known_automorphisms(g, known)
    if n == 0:
        return AutResult(GeneratorSet(0, ()), 1, 0, 0, 0, 0.0, 0, ())
    solver = _Solver(g, start + budget, seeds)
    solver.run()
    return AutResult(
        GeneratorSet(n, seeds + solver.gens),
        solver.order,
        solver.nodes,
        solver.refiner.refinements,
        solver.refiner.splits,
        time.monotonic() - start,
        len(seeds),
        tuple(solver.path.vertices),
    )


def _iso_search(
    g: DenseGraph, h: DenseGraph, deadline: float, known: list[np.ndarray]
) -> np.ndarray:
    """An isomorphism g -> h of graphs of equal size, by a directed search.

    The two root refinements come first: their traces and cell sizes must
    agree, so graphs whose degrees differ are told apart there.  g's first
    path (_Solver.first_path: its nodes' target cells, traces and per-pass
    records, and the leaf) is handed to h's solver, which searches h's tree
    along the same cell ids, every child refined against g's record and cut
    if its trace differs from g's at its depth; at a leaf, the map carrying
    g's first leaf onto it is a candidate, accepted only if it carries g
    onto h.  Complete: an isomorphism carries g's first path to a path of h with
    the same cells and per-pass traces, whose leaf yields it.  ``known``
    holds checked automorphisms of h, which prune every node whose prefix
    they fix; when it is empty, Aut(h) is searched first, after the root
    check and before the same deadline.
    """
    source, solver = _Solver(g, deadline), _Solver(h, deadline, known)
    (g_cells, g_trace), (h_cells, h_trace) = source.root(), solver.root()
    if g_trace != h_trace or not np.array_equal(
        g_cells.size[: g_cells.num_classes], h_cells.size[: h_cells.num_classes]
    ):
        raise NotIsomorphic("root refinement signatures differ")
    if not known:
        budget = max(deadline - time.monotonic(), 0.0)
        # a GeneratorSet's gens are already the k x n int32 array
        solver.known = automorphism_group(h, budget=budget).generators.gens
    try:
        solver.search(source.first_path(g_cells, g_trace), h_cells, h_trace)
    except _Found as found:
        return found.img
    raise NotIsomorphic("individualization search exhausted")


def are_isomorphic(
    g: DenseGraph, h: DenseGraph, budget: float = 60.0, known: GeneratorSet | None = None
) -> np.ndarray:
    """An isomorphism g -> h as an array (vertex i of g maps to mapping[i] of
    h), verified edge-by-edge before returning.  Raises NotIsomorphic naming
    the check that decided otherwise (vertex counts, the root refinements'
    signatures or the exhausted search), Timeout when the budget (seconds)
    runs out, and ValueError unless budget >= 0.

    One directed search follows one graph's first path through the other's
    tree, connected or not (see _iso_search).  The searched side is g when
    ``known``, automorphisms of g, is given or when only g has translation
    moduli, and h otherwise; it is searched under the automorphisms that
    automorphism_group starts from (_known_automorphisms), or under its
    whole group when there are none.
    """
    check_budget(budget)
    deadline = time.monotonic() + budget
    g_searched = known is not None or (g.moduli is not None and h.moduli is None)
    seeds = _known_automorphisms(g if g_searched else h, known)
    if g.n != h.n:
        raise NotIsomorphic(f"vertex counts differ: {g.n} vs {h.n}")
    n = g.n
    if n == 0:
        return np.empty(0, dtype=np.int32)
    if g_searched:
        mapping = np.argsort(_iso_search(h, g, deadline, seeds)).astype(np.int32)
    else:
        mapping = _iso_search(g, h, deadline, seeds)
    if sorted(mapping.tolist()) != list(range(n)):
        raise AssertionError("candidate isomorphism is not a bijection")
    if not is_isomorphism(g, h, mapping):
        raise AssertionError("candidate isomorphism failed verification")
    return mapping


def brute_force_aut(g: DenseGraph) -> list[np.ndarray]:
    """The image arrays of all automorphisms of g, by scanning every
    permutation (n <= 8)."""
    if g.n > 8:
        raise ValueError(f"brute force is capped at 8 vertices, got {g.n}")
    adj = g.adj
    out = []
    for p in itertools.permutations(range(g.n)):
        arr = np.array(p, dtype=np.int32)
        if np.array_equal(adj[np.ix_(arr, arr)], adj):
            out.append(arr)
    return out
