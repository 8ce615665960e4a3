"""Dense undirected graphs with strongly-regular-graph analytics.

A DenseGraph stores one adjacency array: its rows packed into bits, padded
to whole uint64 words, n^2 / 8 bytes, the graph format of nauty (McKay & Piperno, "Practical graph
isomorphism, II", JSC 60, 2014, §3).  The format stays inside this module.
Readers outside it ask one of two kernels over the rows:
``DenseGraph.neighbour_counts`` for the neighbours every vertex has in a
vertex set, and ``DenseGraph.adjacency_bits`` for every vertex's adjacency
signature over a few vertices; or they read ``adj``, a fresh unpacked n x n
copy that no stage of the package reads.

A graph may also carry ``moduli`` (m_1, ..., m_k): vertex i is the vector of
its mixed-radix digits in Z_m1 x ... x Z_mk, and every translation of that
group is an automorphism.  The one way to get such a graph is
``DenseGraph.from_row0``: row 0, the indicator of the connection set
S = N(0), is the graph, as adj[x, y] = row0[y - x] with the difference taken
digit by digit.  Only row 0's loop and symmetry conditions are checked.  The
packed rows are built by their first reader, each band of about sqrt(n) rows
packed as it comes (``_circulant_blocks``), so no n x n boolean matrix is
formed: circulant by construction, so the translations need no check.  Every
family graph in this package is made so, and a stage that reads only row 0
(degrees, srg parameters, subdegrees, the complement) never packs the rows.

is_isomorphism decides a map x -> A x + b between graphs on one Z_m^k on
row 0 alone, in O(k n), and any other map on the upper triangle of the
rows, in O(n^2): both graphs are symmetric, so a pair compared in one
order need not be compared in the other.  isomorphism_mask decides a stack
of maps, the affine ones in one pass over row 0.

The translations act regularly, so the pair (u, v) maps to (0, v - u) and
|N(u) & N(v)| = |N(0) & N(v - u)|: the autocorrelation of row 0 over the
group holds every common-neighbour count of the graph (Brouwer & Van
Maldeghem, "Strongly Regular Graphs", 2022, ch. 11).  srg_params reads it
off row 0's transform over the group when the moduli are known (integer
Walsh-Hadamard butterflies on the radix-2 digits, one FFT on the others),
and sweeps every row's counts in its neighbourhood otherwise, on the same
witness rules.

Output: the de-facto standard graph6 format (header-less variant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class NotStronglyRegular(ValueError):
    """The graph is regular-ish but some pair violates parameter constancy.

    Carries a witness: (u, v, "adjacent"|"nonadjacent"|"degree", observed, expected).
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class Degenerate(ValueError):
    """Complete or empty graph: lambda resp. mu is undefined."""


class ZeroInSet(ValueError):
    """A Cayley graph's connection set contains the zero vector (a loop)."""


class AsymmetricConnectionSet(ValueError):
    """A Cayley graph's connection set is not closed under negation."""


@dataclass(frozen=True)
class SrgParams:
    """Strongly regular graph parameters (n, k, lambda, mu)."""

    n: int
    k: int
    lam: int
    mu: int

    def feasible(self) -> bool:
        """The counting identity k(k - lam - 1) = (n - k - 1) mu."""
        return self.k * (self.k - self.lam - 1) == (self.n - self.k - 1) * self.mu


def _radix(moduli: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The digits (k x n) of the points 0..n-1 of Z_m1 x ... x Z_mk, with the
    moduli and place values as k x 1 columns.  The index of y - x, digit by
    digit, is ((digits_y - digits_x) % m * place).sum(axis=0)."""
    m = np.array(moduli, dtype=np.int64).reshape(-1, 1)
    place = np.cumprod((1, *moduli), dtype=np.int64)[:-1].reshape(-1, 1)
    return np.arange(math.prod(moduli)) // place % m, m, place


def unit_translations(moduli: tuple[int, ...]) -> list[np.ndarray]:
    """Image arrays of the unit translations of Z_m1 x ... x Z_mk, where
    point i is the vector of its mixed-radix digits c_j
    (i = sum c_j * m_1 ... m_(j-1)); translation j adds 1 to digit j.  A
    fresh list of read-only int64 rows of one table, made once per moduli."""
    return list(_translation_table(tuple(moduli)))


@lru_cache(maxsize=64)
def _translation_table(moduli: tuple[int, ...]) -> np.ndarray:
    d, m, place = _radix(moduli)
    table = np.arange(d.shape[1]) + ((d + 1) % m - d) * place
    table.setflags(write=False)
    return table


def _circulant_blocks(row0: np.ndarray, moduli: tuple[int, ...]):
    """Yield (lo, block) for the matrix M[x, y] = row0[y - x] over
    Z_m1 x ... x Z_mk: block is rows lo, lo + 1, ... of M, the blocks come in
    order, and none has more than about sqrt(n) rows.

    The digits split into t low ones (product b) and high ones (product h), so
    x = xh * b + xl.  The band xh = 0 is E0[xl, yh, yl] = row0[yh, yl - xl],
    b x n, built once: from a b x b low-difference table, or as a
    sliding-window view of row 0 when the low part is one cyclic digit, which
    needs no table at all (a Paley graph of prime order is one band).  Band
    xh is E0 with its column blocks moved to yh - xh, one np.take; no
    n x n index array is ever formed.  t is the most low digits with
    b <= sqrt(n), so E0 and its table are at most one band; only one cyclic
    digit that is the whole group (h = 1) may exceed that, as E0 is then a
    view of row 0 and never copied."""
    n = row0.size
    size = np.cumprod((1, *moduli))  # size[t] = b for t low digits
    step = max(1, math.isqrt(n))
    t = max(t for t in range(len(moduli) + 1) if size[t] <= step or (t == 1 and size[t] == n))
    b = int(size[t])
    h = n // b
    r0 = row0.reshape(h, b)
    if t > 1:
        d, m, place = _radix(moduli[:t])
        low = ((d[:, None, :] - d[:, :, None]) % m[:, :, None] * place[:, :, None]).sum(axis=0)
        e0 = np.take(r0, low, axis=1).transpose(1, 0, 2)
    else:  # E0[xl, yh] is r0[yh] rotated right by xl
        windows = np.lib.stride_tricks.sliding_window_view(
            np.concatenate([r0, r0], axis=1), b, axis=1
        )
        e0 = windows[:, b:0:-1].transpose(1, 0, 2)
    if h > 1:  # else e0 is a view of the whole matrix, read in steps
        e0 = np.ascontiguousarray(e0)
    d, m, place = _radix(moduli[t:])
    for xh in range(h):
        cols = ((d - d[:, xh : xh + 1]) % m * place).sum(axis=0)
        for xl in range(0, b, step):
            yield xh * b + xl, np.take(e0[xl : xl + step], cols, axis=1).reshape(-1, n)


def _is_symmetric(adj: np.ndarray) -> bool:
    """adj == adj.T, compared one 256 x 256 tile of the upper triangle at a
    time against the transpose of its mirror tile: both stay in cache, where
    row bands against strided column bands do not."""
    n = adj.shape[0]
    for lo in range(0, n, 256):
        for c in range(lo, n, 256):
            if not np.array_equal(adj[lo : lo + 256, c : c + 256], adj[c : c + 256, lo : lo + 256].T):
                return False
    return True


_BLOCK = 1 << 18  # bytes of rows that neighbour_counts and to_graph6 unpack at a time


class DenseGraph:
    """Immutable undirected graph, stored as its adjacency rows packed into
    uint64 words padded with zero bits.

    ``DenseGraph(adjacency)`` checks a matrix, packs it and keeps no copy of
    it; the graph carries no translations (``moduli`` is None): ValueError
    if the matrix is not square, has a loop or is not symmetric.
    ``from_row0`` makes a graph that carries its translation moduli and packs
    its rows on their first read (see the module docstring).  ``row0`` is
    vertex 0's row, read-only, on every graph with a vertex.
    ``neighbour_counts`` and ``adjacency_bits`` read the rows; ``adj``
    unpacks them into a fresh n x n matrix on each read and caches
    nothing."""

    def __init__(self, adjacency: np.ndarray):
        adj = np.asarray(adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        if adj.diagonal().any():
            raise ValueError("adjacency has a loop (nonzero diagonal)")
        if not _is_symmetric(adj):
            raise ValueError("adjacency is not symmetric")
        self.n = adj.shape[0]
        self.moduli = None
        self._bytes = _packed_rows(self.n, [(0, adj)])
        self.row0 = self._unpack(0) if self.n else None

    @classmethod
    def from_row0(cls, row0: np.ndarray, moduli: tuple[int, ...]) -> "DenseGraph":
        """The graph with adj[x, y] = row0[y - x] over Z_m1 x ... x Z_mk,
        i.e. the Cayley graph whose connection set is the support of row0,
        carrying ``moduli``.  The matrix is circulant by construction, so
        only row 0 is checked, for adj[x, x] = row0[0] and
        adj[y, x] = row0[-(y - x)]: ZeroInSet if row0[0] is set (a loop),
        AsymmetricConnectionSet if row0[-z] != row0[z] for some z (not
        symmetric), both ValueErrors, and ValueError if the moduli do not
        multiply to len(row0)."""
        row0 = np.array(row0, dtype=bool)
        if row0.ndim != 1:
            raise ValueError(f"row 0 must be one-dimensional, got shape {row0.shape}")
        moduli = tuple(int(m) for m in moduli)
        if min(moduli, default=0) < 1 or math.prod(moduli) != row0.size:
            raise ValueError(f"moduli {moduli} do not multiply to n = {row0.size}")
        if row0[0]:
            raise ZeroInSet("connection set contains the zero vector: adjacency has a loop")
        d, m, place = _radix(moduli)
        if not np.array_equal(row0[(-d % m * place).sum(axis=0)], row0):
            raise AsymmetricConnectionSet(
                "connection set is not closed under negation: adjacency is not symmetric"
            )
        row0.setflags(write=False)
        g = cls.__new__(cls)
        g.n, g.moduli, g.row0, g._bytes = row0.size, moduli, row0, None
        return g

    @property
    def _rows(self) -> np.ndarray:
        """The rows packed into bytes, padded with zero bits to whole uint64
        words, read-only: packed from row 0 on the first read when the graph
        came from from_row0."""
        if self._bytes is None:
            self._bytes = _packed_rows(self.n, _circulant_blocks(self.row0, self.moduli))
        return self._bytes

    def _unpack(self, rows) -> np.ndarray:
        """Rows ``rows`` (an int, a slice or an index array) of the adjacency
        matrix, unpacked into a fresh read-only boolean array."""
        unpacked = np.unpackbits(self._rows[rows], axis=-1, count=self.n).view(bool)
        unpacked.setflags(write=False)
        return unpacked

    @property
    def adj(self) -> np.ndarray:
        """The n x n boolean adjacency matrix: a fresh read-only copy,
        unpacked on each read."""
        return self._unpack(slice(None))

    def neighbour_counts(self, members: np.ndarray) -> np.ndarray:
        """counts[v] = |N(v) & members| for every vertex v, an integer array,
        for an array of distinct vertices ``members``.

        Fewer than n / 4 members are counted by summing their unpacked rows
        as bytes, in blocks of at most 255 rows, so that no byte overflows.
        A larger set is counted by AND + popcount of every packed row with
        the set's mask: the sum touches k n bytes and the AND n * n / 8, and
        the two measure about as fast at k = n / 4.  A block of rows,
        unpacked or ANDed, stays under _BLOCK bytes."""
        n, k, rows = self.n, len(members), self._rows
        if 4 * k < n:
            step = max(1, min(255, _BLOCK // n))
            sums = (
                np.unpackbits(rows[members[lo : lo + step]], axis=1, count=n).sum(axis=0, dtype=np.uint8)
                for lo in range(0, k, step)
            )
            return next(sums) if 0 < k <= step else sum(sums, np.zeros(n, dtype=np.int32))
        mask = np.zeros(rows.shape[1] * 8, dtype=bool)
        mask[members] = True
        mask = np.packbits(mask).view(np.uint64)
        words = rows.view(np.uint64)
        step = max(1, _BLOCK // rows.shape[1])
        counts = np.empty(n, dtype=np.int32)
        for lo in range(0, n, step):
            block = words[lo : lo + step] & mask
            np.bitwise_count(block).sum(axis=1, dtype=np.int32, out=counts[lo : lo + step])
        return counts

    def adjacency_bits(self, vertices: np.ndarray, offsets=None) -> np.ndarray:
        """bits[v] = the sum of 2**offsets[i] over the i with v adjacent to
        vertices[i], for every vertex v: an integer array, for at most 53
        distinct vertices.  offsets default to 0, 1, ..., so that bit i
        marks vertices[i]; equal offsets add up, so a run of vertices that
        shares one offset counts its neighbours there.

        One vertex's signature is its row, unpacked alone: about 0.6 us
        against 3.5 us for the general path at n = 81.  More vertices' rows
        are unpacked together and weighed by one float64 matrix product,
        exact while every sum stays below 2**53: ValueError for more
        vertices, or for offsets whose powers of two sum to 2**53 or more."""
        k, n = len(vertices), self.n
        if k > 53:
            raise ValueError(f"at most 53 vertices, got {k}")
        if offsets is not None:
            weights = np.ldexp(1.0, offsets)
            if weights.sum() >= 2.0**53:
                raise ValueError("the weights sum to 2**53 or more")
        elif k == 1:  # unpacking the padding too, and slicing it off, is cheaper
            return np.unpackbits(self._rows[vertices[0]])[:n]
        else:
            weights = np.ldexp(1.0, np.arange(k))
        rows = np.unpackbits(self._rows[vertices], axis=1, count=n)
        return (weights @ rows).astype(np.int64)

    def degrees(self) -> np.ndarray:
        if self.moduli is not None:  # every row is a translate of row 0
            return np.full(self.n, np.count_nonzero(self.row0))
        return np.bitwise_count(self._rows).sum(axis=1, dtype=np.int64)

    def edge_count(self) -> int:
        return int(self.degrees().sum()) // 2

    def __eq__(self, other) -> bool:
        return isinstance(other, DenseGraph) and np.array_equal(self._rows, other._rows)

    def __hash__(self):
        return hash((self.n, self._rows.tobytes()))

    def __repr__(self) -> str:
        return f"DenseGraph(n={self.n}, edges={self.edge_count()})"


def _packed_rows(n: int, bands) -> np.ndarray:
    """The rows of an n x n boolean matrix given as bands (lo, block), block
    being rows lo, lo + 1, ..., packed into read-only bytes padded with zero
    bits to whole uint64 words; each band is packed as it comes."""
    packed = np.zeros((n, -(-n // 64) * 8), dtype=np.uint8)
    for lo, block in bands:
        packed[lo : lo + len(block), : -(-n // 8)] = np.packbits(block, axis=1)
    packed.setflags(write=False)
    return packed


@lru_cache(maxsize=64)
def _digit_tables(moduli: tuple[int, ...]):
    """_affine_verdict's tables for moduli (m,) * k, read-only and built once
    per moduli: m as a digit, the narrowest unsigned int that holds 2m - 1;
    the digits of each of the m**j values of the high j = ceil(k / 2) digits
    and of each of the m**(k - j) values of the low ones, as the diagonal
    blocks of one (k + 1) x (m**j + m**(k - j)) int64 array whose last row
    is 1 under the high block, so that a product with a block of its
    columns gives, for a map's A and b, those high or low parts of A y and
    of b + A y; the place values of the k digits, most significant first,
    as ints (a k x 1 x 1 column) and as float32s; and the points 0, e_1,
    ..., e_k whose images fix an affine map."""
    k, m = len(moduli), moduli[0]
    j = k - k // 2
    high = np.indices(moduli[:j]).reshape(j, -1)
    low = np.indices(moduli[j:]).reshape(k - j, m ** (k - j))
    tables = np.zeros((k + 1, high.shape[1] + low.shape[1]), dtype=np.int64)
    tables[:j, : high.shape[1]], tables[j:k, high.shape[1] :] = high, low
    tables[k, : high.shape[1]] = 1
    place = m ** np.arange(k - 1, -1, -1)  # the unit vectors
    # for a BLAS product whose every partial sum is an index: exact below 2**24
    fplace = place.astype(np.float32)
    ends_at = np.append(0, place)
    place = place.reshape(k, 1, 1)
    for table in (tables, place, fplace, ends_at):
        table.flags.writeable = False
    return np.min_scalar_type(2 * m - 1).type(m), tables, place, fplace, ends_at


def _affine_verdict(g: DenseGraph, h: DenseGraph, mappings: np.ndarray) -> np.ndarray:
    """A 2 x K boolean array for the K bijections in the rows of the (K, n)
    array mappings, when g and h carry the same moduli (m,) * k: row 0 says
    whether each map is affine on Z_m^k, and row 1, where it is, whether the
    map carries g onto h, decided on row 0 alone (row 1 means nothing where
    row 0 is False).

    An affine mapping, mapping[y] = b + A y with b = mapping[0], normalizes
    the translations, so as adj[x, y] = row0[y - x] on both graphs it
    carries g onto h iff h.row0[A y] == g.row0[y] for every y.  The digits
    of y, most significant first, split into r's (the first j = ceil(k / 2))
    and s's (the rest), y = r * width + s; the digits of A y and of b + A y
    are then the digitwise sums mod m of column r of one table and column s
    of another, made by int64 products of each map's A and b, read off the
    images of 0 and of the unit vectors, with _digit_tables.  The stack is
    checked in blocks of whole rows r of a run of maps, each digit array at
    most 8192 digits (one map's row r when that is more; 4096 rows r on one
    cyclic digit, whose block of indices is as long as its digits), whose
    indices come from one float32 vector-matrix product, exact as
    n <= 2**24: the images must equal b + A y (else the map is not affine),
    and h.row0 at A y is compared with g.row0 at y.  A run's low parts, and
    a block's high parts, are made with the block, never the whole table's
    at once.  So every temporary stays under glibc's 128 KiB mmap threshold
    and is carved from the heap instead of being mapped and page-faulted
    afresh.  Digits are the narrowest unsigned ints that hold 2m - 1, and a
    digitwise sum x < 2m is reduced mod m as min(x, x - m), where x - m
    wraps past the top when x < m."""
    wrap, tables, place, fplace, ends_at = _digit_tables(g.moduli)
    k, m = len(g.moduli), g.moduli[0]
    width = m ** (k // 2)  # the values of the low digits
    high_table, low_table = tables[:, :-width], tables[:, -width:]
    count = len(mappings)
    # ends[i, t, c]: digit i of map t's image of 0 (c = 0) and of e_c (c >= 1)
    ends = mappings[:, ends_at] // place % m
    ab = np.zeros((2, k, count, k + 1), dtype=np.int64)  # [A | 0] and [A | b], row by row
    ab[:, :, :, :k] = ends[:, :, 1:] - ends[:, :, :1]
    ab[1, :, :, k] = ends[:, :, 0]
    block = max(k * width, 2)  # a map's digits per row r; 2 halves one cyclic digit's blocks
    maps = max(1, min(count, (1 << 13) // block))
    rows = max(1, (1 << 13) // (maps * block))
    verdict = np.ones((2, count), dtype=bool)
    for t in range(0, count, maps):
        run = slice(t, t + maps)
        c = min(maps, count - t)
        low = (ab[0, :, run] @ low_table % m).astype(wrap.dtype)
        for r in range(0, high_table.shape[1], rows):
            high = (ab[:, :, run] @ high_table[:, r : r + rows] % m).astype(wrap.dtype)
            y = (high[:, :, :, :, None] + low[:, :, None, :]).reshape(2, k, -1)
            np.minimum(y, y - wrap, out=y)  # the digits of A y and of b + A y
            at = (fplace @ y).astype(np.intp)
            lo, hi = r * width, r * width + at.shape[1] // c
            affine = verdict[0, run]
            affine &= (at[1].reshape(c, -1) == mappings[run, lo:hi]).all(axis=1)
            if not affine.any():
                break
            image = h.row0[at[0]].reshape(c, -1)
            verdict[1, run] &= (image == g.row0[lo:hi]).all(axis=1)
    return verdict


def _affine_applies(g: DenseGraph, h: DenseGraph) -> bool:
    """Whether _affine_verdict can judge maps g -> h: both carry the same
    moduli (m,) * k, on more than one vertex and at most 2**24, below which
    its float32 indices are exact."""
    return 1 < g.n <= 1 << 24 and g.moduli == h.moduli and len(set(g.moduli or ())) == 1


def _rows_carry(g: DenseGraph, h: DenseGraph, mapping: np.ndarray) -> bool:
    """is_isomorphism's check of any bijection, on the upper triangle of
    the packed rows (see there)."""
    n = g.n
    rows = max(1, (1 << 16) // max(n, 1))
    for lo in range(0, n, rows):
        byte = lo // 8  # the first byte of g's rows holding a column >= lo
        cols = mapping[8 * byte :]
        block = np.packbits(np.take(h._unpack(mapping[lo : lo + rows]), cols, axis=1), axis=1)
        if not np.array_equal(block, g._rows[lo : lo + rows, byte : byte + block.shape[1]]):
            return False
    return True


def is_isomorphism(g: DenseGraph, h: DenseGraph, mapping: np.ndarray) -> bool:
    """Whether the bijection i -> mapping[i] carries g onto h, i.e.
    h.adj[mapping[i], mapping[j]] == g.adj[i, j] for all i, j.  Precondition:
    mapping is a permutation of range(n); on any other array the answer
    means nothing.

    When g and h carry the same moduli (m,) * k, a mapping that is affine on
    Z_m^k is decided on row 0 alone, in O(k n), and no rows are packed: the
    stacked _affine_verdict, called with this one row.  Any other mapping is
    checked on the upper triangle, in blocks of h's rows, unpacked to at
    most 64 KiB (one row, when a row is longer): block [lo, hi) has its
    columns from lo on permuted and packed again to compare with g's packed
    rows, stopping at the first block that differs.  Both graphs are
    symmetric (every constructor checks it), so a pair (i, j) with j < lo
    was compared, as (j, i), in j's block; lo is rounded down to a whole
    byte of the packed rows.  Blocks stay under glibc's 128 KiB mmap
    threshold, so each is carved from the heap instead of being mapped and
    page-faulted afresh.  The columns are gathered by np.take, which
    returns a C-ordered block: the F-ordered block of ``[:, mapping]``
    compares about 9x slower."""
    if _affine_applies(g, h):
        verdict = _affine_verdict(g, h, mapping[None])
        if verdict[0, 0]:
            return bool(verdict[1, 0])
    return _rows_carry(g, h, mapping)


def isomorphism_mask(g: DenseGraph, h: DenseGraph, mappings: np.ndarray) -> np.ndarray:
    """is_isomorphism for each row of the (K, n) array of bijections
    mappings, as a boolean array: the affine rows in one stacked
    _affine_verdict, the others on the rows one at a time."""
    mappings = np.asarray(mappings)
    affine, carries = np.zeros((2, len(mappings)), dtype=bool)
    if _affine_applies(g, h) and len(mappings):
        affine, carries = _affine_verdict(g, h, mappings)
    for i in np.flatnonzero(~affine):
        carries[i] = _rows_carry(g, h, mappings[i])
    return carries


def complement(g: DenseGraph) -> DenseGraph:
    """The complement graph; it keeps g's translation moduli, as the
    circulant of the complement of row 0."""
    if g.moduli is not None:
        row0 = ~g.row0
        row0[0] = False
        return DenseGraph.from_row0(row0, g.moduli)
    adj = ~g.adj
    np.fill_diagonal(adj, False)
    return DenseGraph(adj)


def _autocorrelation(row0: np.ndarray, moduli: tuple[int, ...]) -> np.ndarray:
    """counts[z] = |S & (S + z)| = sum_y row0[y] * row0[y - z] over
    Z_m1 x ... x Z_mk, for S the support of row0: on a Cayley graph with
    connection set S, the common neighbours of 0 and z.

    Each radix-2 digit goes through an integer Walsh-Hadamard butterfly, one
    add/subtract pair on the flat index (digit j has stride
    m_1 ... m_(j-1), as _radix numbers the points); H, these a butterflies,
    is its own inverse up to 2^a.  The other digits go through one real FFT
    over their axes of the shape moduli[::-1] (_radix makes the first
    modulus the least significant digit), which gives the autocorrelation
    of the integer vector H(row0) on each character of the radix-2 part: its
    float64 result is rounded, and ArithmeticError unless every value was
    within 0.25 of an integer.  With no other digit that autocorrelation is
    H(row0)^2.  H of it is 2^a * counts.  No value on the way exceeds
    n |S| <= n^2 in absolute value, so int64 holds each exactly, and a group
    of radix-2 digits only, such as GF(2)^d, needs no float and never
    imports numpy.fft."""
    shape = moduli[::-1]
    twos = [math.prod(moduli[:j]) for j, m in enumerate(moduli) if m == 2]
    rest = tuple(i for i, m in enumerate(shape) if m != 2)

    def hadamard(x: np.ndarray) -> np.ndarray:
        for p in twos:
            a, b = x.reshape(-1, 2, p).swapaxes(0, 1)
            x = np.stack((a + b, a - b), axis=1).ravel()
        return x

    x = hadamard(row0.astype(np.int64))
    if rest:
        f = np.fft.rfftn(x.reshape(shape).astype(np.float64), axes=rest)
        exact = np.fft.irfftn(f * f.conj(), s=[shape[i] for i in rest], axes=rest).ravel()
        x = np.rint(exact)
        if np.abs(exact - x).max(initial=0.0) > 0.25:
            raise ArithmeticError("row 0's autocorrelation is not integral to within 0.25")
        x = x.astype(np.int64)
    else:
        x = x * x
    return hadamard(x) >> len(twos)


def _neighbour_counts(g: DenseGraph):
    """Yield (u, row u, counts) with counts[v] = |N(u) & N(v)|, for the rows
    that srg_params checks: row 0's autocorrelation alone when g.moduli
    names a regular translation group, every row's neighbour counts in N(u)
    otherwise."""
    if g.moduli is not None:
        yield 0, g.row0, _autocorrelation(g.row0, g.moduli)
        return
    for u in range(g.n):
        row = g._unpack(u)
        yield u, row, g.neighbour_counts(np.flatnonzero(row))


def _one_count(u: int, block: np.ndarray, counts: np.ndarray, want: int | None, kind: str):
    """The common-neighbour count every v in ``block`` shares with u: ``want``,
    or the first count in the block when ``want`` is None (and None for an
    empty block).  NotStronglyRegular, with the pair as witness, at the first
    v whose count differs."""
    got = counts[block]
    if not got.size:
        return want
    if want is None:
        want = int(got[0])
    spread = np.flatnonzero(got != want)
    if spread.size:
        v = int(np.flatnonzero(block)[spread[0]])
        raise NotStronglyRegular(
            f"{kind} pair ({u}, {v}) has {counts[v]} common neighbours, expected {want}",
            witness=(u, v, kind, int(counts[v]), want),
        )
    return want


def srg_params(g: DenseGraph) -> SrgParams:
    """Verify strong regularity and return (n, k, lambda, mu).

    Raises Degenerate for complete/empty graphs (parameters undefined there;
    every graph on fewer than 3 vertices is one or the other) and
    NotStronglyRegular with a witness pair otherwise.  A graph with moduli
    is checked on row 0 alone, its degree and its autocorrelation (exact in
    int64, see ``_autocorrelation``; on GF(2)^d it loads no numpy.fft), and
    never packs its rows; a graph without is checked on every row's degree
    and on every row u's neighbour counts in N(u).  The witness is the first pair,
    in that row order, whose count differs from the first one seen.
    """
    n = g.n
    degs = g.degrees()
    if not degs.any():
        raise Degenerate(f"empty graph on {n} vertices")
    if degs.min() == n - 1:
        raise Degenerate(f"complete graph on {n} vertices")
    k = int(degs[0])
    bad = np.flatnonzero(degs != k)
    if bad.size:
        v = int(bad[0])
        raise NotStronglyRegular(
            f"not regular: deg({v}) = {int(degs[v])} != deg(0) = {k}",
            witness=(0, v, "degree", int(degs[v]), k),
        )
    lam = mu = None
    for u, row, counts in _neighbour_counts(g):
        non = ~row
        non[u] = False
        lam = _one_count(u, row, counts, lam, "adjacent")
        mu = _one_count(u, non, counts, mu, "nonadjacent")
    params = SrgParams(n, k, lam, mu)
    assert params.feasible(), f"SRG counting identity violated: {params}"
    return params


# -- graph6 output ------------------------------------------------------------


def to_graph6(g: DenseGraph) -> str:
    """Header-less graph6 string (printable ASCII, 6 bits per char + 63).

    The bits are the upper triangle column by column: the pairs (u, v),
    u < v, sorted by v then u.  By symmetry column v is the first v bits of
    row v, so the rows are unpacked one band of at most _BLOCK bytes at a
    time, and the bits a band leaves over a whole 6 are carried into the
    next."""
    n = g.n
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    else:
        raise ValueError(f"n = {n} too large for the 4-byte graph6 size field")
    out = np.empty(len(head) + -(-(n * (n - 1) // 2) // 6), dtype=np.uint8)
    out[: len(head)] = head
    at, carry = len(head), np.zeros(0, dtype=bool)
    step = max(1, _BLOCK // max(n, 1))
    for lo in range(1, n, step):
        hi = min(n, lo + step)
        rows = g._unpack(slice(lo, hi))[:, :hi]
        bits = np.concatenate([carry, rows[np.arange(hi) < np.arange(lo, hi)[:, None]]])
        whole = bits.size - bits.size % 6
        # six bits packed into the top of a byte, shifted down to the bottom
        groups = np.packbits(bits[:whole].reshape(-1, 6), axis=1)[:, 0] >> 2
        out[at : at + groups.size] = groups + 63
        at, carry = at + groups.size, bits[whole:]
    if carry.size:
        out[at] = (np.packbits(carry)[0] >> 2) + 63
    return str(out.data, "ascii")  # decoded from the buffer, with no bytes copy
