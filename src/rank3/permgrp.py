"""Groups of permutations: orbits, Schreier-Sims, orbital
analysis, and matrix-group plumbing for the affine graph constructions: a
matrix group over GF(p) is given by its generators, which act on the p^d
vectors as permutations; no group is enumerated element by element.  A
MatrixGroupSpec makes that action once, as it is built, and reads each
generator's invertibility off it: every reader of the group reads the one
action, spec.perms.

Design notes.  A permutation is its int32 image array, x -> img[x], and a
generator set is one read-only (k, n) array of them, so composition is a
single fancy-index.  Every orbit closure -- orbit, orbit_partition and the
Aut solver's orbit pruning and order count -- is one breadth-first frontier
loop, orbit_mask, from a boolean mask of seed points; each round gathers the
frontier's images under the whole (k, n) stack at once, so a closure costs a
few numpy calls per round, not per generator and round.  Stabilizer-chain
transversals are stored as Schreier vectors (parent point + generator
pointer) and recomposed on demand, keeping memory O(n) per level even at
degree ~10^4.  Rank and subdegrees of a transitive group come from the
orbits of its point stabilizer (for an affine group V:G0, the orbits of G0
on V \\ {0}): the rank is one more than their number and the subdegrees are
their sizes.  The flat pair-orbit closure over all n^2 pairs (n <= 4096)
stays as an independent test oracle.

One chain builder, _chain, runs random then deterministic Schreier-Sims
(Seress 2003, ch. 4-5).  schreier_sims reads its completed chain: the exact
order and a membership oracle.  reaches_order, the order certificate, first
takes the orbit product along a given base (the solver's first path), and
only if that falls short runs the chain, stopped once its orbit product, a
proven lower bound, reaches the target, so False comes only from the
completed chain.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field

import numpy as np

from .gf import _MAX_Q, FiniteField, digits, isprime, primitive_root
from .graphs import unit_translations


class Timeout(RuntimeError):
    """A computation passed its deadline, a time.monotonic() value."""


# -- generator sets -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """A finite permutation group of [0, degree) given by generators.

    gens is a read-only (k, degree) int32 array whose row i is generator i's
    image array, x -> gens[i, x], so composition is a fancy-index:
    (a * b)(x) = a[b[x]].  It is built from any sequence of image arrays, and
    every row is checked once to be a permutation of range(degree).
    """

    degree: int
    gens: np.ndarray

    def __post_init__(self):
        n = self.degree
        gens = np.array(self.gens, dtype=np.int32)
        if gens.shape == (0,):
            gens = gens.reshape(0, n)
        if gens.ndim != 2 or gens.shape[1] != n:
            raise ValueError(f"generators of shape {gens.shape}, want (k, {n})")
        # a row is a permutation of range(n) iff it sorts to range(n)
        if not (np.sort(gens, axis=1) == np.arange(n, dtype=np.int32)).all():
            raise ValueError("a generator is not a permutation of range(degree)")
        gens.setflags(write=False)
        object.__setattr__(self, "gens", gens)


def orbit_mask(imgs: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """The closure of a boolean mask of seed points under the permutations
    whose image arrays are the rows of the (k, n) array imgs, as a new mask.
    Each generated orbit that meets the seeds lies wholly inside the result.

    Breadth-first, one gather per round for the whole stack: the images
    imgs[:, frontier] are marked in a fresh mask, the points already seen
    are dropped from it (new > seen), and its flatnonzero is the next
    frontier.  So a round costs a fixed handful of numpy calls whatever k is.
    No np.unique: its first call imports numpy.ma, about 6 ms in a fresh
    interpreter."""
    seen = np.array(seeds, dtype=bool)
    frontier = np.flatnonzero(seen)
    while frontier.size:
        new = np.zeros_like(seen)
        new[imgs[:, frontier]] = True
        np.greater(new, seen, out=new)
        seen |= new
        frontier = np.flatnonzero(new)
    return seen


def _point_mask(n: int, point: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[point] = True
    return mask


def orbit(gs: GeneratorSet, point: int) -> set[int]:
    """The orbit of point under <gens>, from orbit_mask."""
    n = gs.degree
    if not 0 <= point < n:
        raise ValueError(f"point {point} out of range [0, {n})")
    mask = orbit_mask(gs.gens, _point_mask(n, point))
    return set(np.flatnonzero(mask).tolist())


def orbit_partition(gs: GeneratorSet) -> list[np.ndarray]:
    """All orbits on [0, n), each as a sorted array, ordered by smallest point."""
    n = gs.degree
    left = np.ones(n, dtype=bool)
    out = []
    while left.any():
        mask = orbit_mask(gs.gens, _point_mask(n, int(left.argmax())))
        left &= ~mask
        out.append(np.flatnonzero(mask))
    return out


# -- Schreier-Sims ------------------------------------------------------------


class _Level:
    """One stabilizer-chain level: base point, generators fixing all earlier
    base points with their inverses, and a Schreier vector for the
    fundamental orbit."""

    __slots__ = ("base", "gens", "invs", "enc", "parent", "orbit_order", "x_done", "g_done")

    def __init__(self, base: int, n: int):
        self.base = base
        self.gens: list[np.ndarray] = []
        self.invs: list[np.ndarray] = []  # invs[i] is the inverse of gens[i]
        # enc[x]: -1 unset, -2 root, else 2*gen_index + (1 if discovered via inverse)
        self.enc = np.full(n, -1, dtype=np.int32)
        self.parent = np.full(n, -1, dtype=np.int32)
        self.enc[base] = -2
        self.parent[base] = base
        self.orbit_order: list[int] = [base]
        self.x_done = 0
        self.g_done = 0

    def append(self, img: np.ndarray, inv: np.ndarray | None = None) -> None:
        """Add the generator img with its inverse: inv, when the caller has
        it (a residue joins several levels, inverted once), else made here."""
        self.gens.append(img)
        self.invs.append(_invert_img(img) if inv is None else inv)


def _extend_orbit(lvl: _Level, n: int) -> None:
    """Grow the fundamental orbit after lvl.append.  The old orbit is closed
    under the earlier generators, so only the newest one and its inverse
    rescan it; the points they add are then closed under all.  Existing
    Schreier-vector entries are never rewritten, so previously computed
    transversal words stay valid."""
    imgs = [f for pair in zip(lvl.gens, lvl.invs) for f in pair]
    first = len(imgs) - 2
    frontier = np.array(lvl.orbit_order, dtype=np.int64)
    while frontier.size:
        parts = []
        for code in range(first, len(imgs)):
            y = imgs[code][frontier].astype(np.int64)
            mask = lvl.enc[y] == -1
            if mask.any():
                ys = y[mask]
                # a bijection maps distinct frontier points to distinct images,
                # and enc is updated before the next generator is tried
                lvl.enc[ys] = code
                lvl.parent[ys] = frontier[mask]
                parts.append(ys)
        if not parts:
            break
        frontier = np.concatenate(parts)
        lvl.orbit_order.extend(frontier.tolist())
        first = 0


def _transversal_img(lvl: _Level, x: int) -> np.ndarray | None:
    """Image array of the transversal element u with u(base) = x, or None for
    the identity (x == base)."""
    word = []
    while x != lvl.base:
        code = int(lvl.enc[x])
        word.append(code)
        x = int(lvl.parent[x])
    if not word:
        return None
    u = None
    for code in reversed(word):
        f = (lvl.invs if code & 1 else lvl.gens)[code >> 1]
        u = f if u is None else f[u]
    return u


def _invert_img(u: np.ndarray) -> np.ndarray:
    inv = np.empty_like(u)
    inv[u] = np.arange(u.shape[0], dtype=u.dtype)
    return inv


def _sift_img(levels: list[_Level], g: np.ndarray, start: int, idarr: np.ndarray):
    """Sift an image array through levels[start:].  Returns the residue, or
    None when g factors completely through the chain."""
    cur = g
    for lvl in levels[start:]:
        x = int(cur[lvl.base])
        if x == lvl.base:
            continue
        if lvl.enc[x] == -1:
            return cur
        u = _transversal_img(lvl, x)
        cur = _invert_img(u)[cur]
    return None if np.array_equal(cur, idarr) else cur


class BSGS:
    """Base and strong generating set: exact group order plus membership tests."""

    def __init__(self, degree: int, levels: list[_Level]):
        self.degree = degree
        self._levels = levels
        self.base = tuple(lvl.base for lvl in levels)
        self.orbit_sizes = tuple(len(lvl.orbit_order) for lvl in levels)
        self.order: int = math.prod(self.orbit_sizes) if levels else 1
        self._idarr = np.arange(degree, dtype=np.int32)

    def contains(self, img) -> bool:
        """Whether the permutation with image array img lies in the group."""
        img = np.asarray(img)
        if img.shape != (self.degree,):
            return False
        return _sift_img(self._levels, img, 0, self._idarr) is None

    def stabilizer_generators(self, level: int) -> GeneratorSet:
        """Generators of the pointwise stabilizer of base[:level]: the strong
        generators fixing those base points.  Level lists are cumulative (each
        level holds every strong generator fixing its base prefix), so this is
        one level's list."""
        gens = self._levels[level].gens if level < len(self._levels) else []
        return GeneratorSet(self.degree, gens)

    def __repr__(self) -> str:
        return f"BSGS(base={self.base}, order={self.order})"


# consecutive random elements that must sift to the identity before the
# random phase of _chain ends
_RANDOM_SIFT_STOP = 40
# product-replacement state size and warm-up steps (Celler et al. 1995)
_PR_SLOTS = 10
_PR_WARMUP = 50


def _product_replacement(gens: list[np.ndarray]):
    """An endless stream of near-uniform random elements of <gens>, as image
    arrays, by the product-replacement algorithm with an accumulator (Celler
    et al., 1995), drawn from random.Random(0), a local generator with a
    fixed seed."""
    rng = random.Random(0)
    slots = [gens[i % len(gens)] for i in range(max(_PR_SLOTS, len(gens)))]
    acc = np.arange(gens[0].shape[0], dtype=np.int32)
    for step in itertools.count():
        i, j = rng.sample(range(len(slots)), 2)
        other = slots[j] if rng.getrandbits(1) else _invert_img(slots[j])
        slots[i] = slots[i][other]
        acc = acc[slots[i]]
        if step >= _PR_WARMUP:
            yield acc


def _chain(
    gs: GeneratorSet, base_prefix: tuple[int, ...], deadline: float, target: int | None
) -> list[_Level]:
    """The stabilizer chain of <gs> by random, then deterministic,
    Schreier-Sims (Seress 2003, ch. 4-5): the one chain builder.

    A residue r, known to lie in the group of level lo - 1 if lo > 0, is
    appended to levels lo..j, j the first level at depth >= lo whose base
    point r moves (a level opened on the way takes the next base_prefix
    point, else the first point r moves).  So level lists are cumulative,
    each level's orbit lies in that of the true stabilizer of the earlier
    base points, and the orbit product is a proven lower bound on |<gs>| at
    every step.  In order:

    1. every input generator is sifted, its residue appended from level 0,
       so that level 0 generates <gs> -- outside the stop rule of step 2,
       which could otherwise end before the last input is read;
    2. product-replacement elements of <gs> (from a local random.Random
       with a fixed seed; the global random and numpy states are neither
       read nor moved) are sifted, residues appended from level 1, as level
       0 already generates <gs>, until _RANDOM_SIFT_STOP in a row sift to
       the identity;
    3. deepest unfinished level first, every Schreier generator outside the
       level's done rectangle (orbit positions < x_done times generators
       < g_done) is sifted through the deeper levels, residues appended from
       the next level.  Then the chain is complete: its orbit product is
       |<gs>|.

    With a target, the chain is returned as soon as its orbit product reaches
    it.  `deadline`, a time.monotonic() value, is checked once per sift:
    Timeout when it has passed.
    """
    n = gs.degree
    idarr = np.arange(n, dtype=np.int32)
    levels: list[_Level] = []

    def sift(g: np.ndarray, start: int) -> np.ndarray | None:
        if time.monotonic() > deadline:
            raise Timeout(f"Schreier-Sims passed its deadline at level {start}")
        return _sift_img(levels, g, start, idarr)

    def add(r: np.ndarray, lo: int) -> bool:
        """Append r to levels lo..j; whether the orbit product reaches target."""
        j = lo
        while True:
            if j == len(levels):
                b = base_prefix[j] if j < len(base_prefix) else np.flatnonzero(r != idarr)[0]
                levels.append(_Level(int(b), n))
            if r[levels[j].base] != levels[j].base:
                break
            j += 1
        inv = _invert_img(r)
        for lvl in levels[lo : j + 1]:
            lvl.append(r, inv)
            _extend_orbit(lvl, n)
        return target is not None and math.prod(len(l.orbit_order) for l in levels) >= target

    gens = [img for img in gs.gens if not np.array_equal(img, idarr)]
    for g in gens:
        r = sift(g, 0)
        if r is not None and add(r, 0):
            return levels
    stream, trivial = _product_replacement(gens), 0
    while gens and trivial < _RANDOM_SIFT_STOP:
        r = sift(next(stream), 0)
        trivial = trivial + 1 if r is None else 0
        if r is not None and add(r, 1):
            return levels
    k = len(levels) - 1
    while k >= 0:
        lvl = levels[k]
        X, G = len(lvl.orbit_order), len(lvl.gens)
        if (lvl.x_done, lvl.g_done) == (X, G):
            k -= 1
            continue
        for pos in range(X):
            ux = _transversal_img(lvl, lvl.orbit_order[pos])
            for gi in range(lvl.g_done if pos < lvl.x_done else 0, G):
                sux = lvl.gens[gi] if ux is None else lvl.gens[gi][ux]
                r = sift(sux, k)  # level k's step is uy**-1 * sux, uy(base) = sux(base)
                if r is not None and add(r, k + 1):
                    return levels
        lvl.x_done, lvl.g_done = X, G
        k = len(levels) - 1
    return levels


def schreier_sims(
    gs: GeneratorSet, base_prefix: tuple[int, ...] = (), deadline: float = math.inf
) -> BSGS:
    """Exact order and a membership oracle: the chain _chain builds, run to
    completion.  base_prefix forces the first base points (useful for
    extracting point stabilizers).  `deadline`, a time.monotonic() value:
    Timeout when it has passed."""
    return BSGS(gs.degree, _chain(gs, base_prefix, deadline, None))


def _base_product(
    gs: GeneratorSet, base: tuple[int, ...], deadline: float, target: float = math.inf
) -> int:
    """The orbit product along the points of base, stopped once it reaches
    target: step i closes base[i] under the generators of gs that fix
    base[:i].  A proven lower bound on |K|, K = <gs>, for any point sequence:
    with H_i the group those generators make, H_i <= K_(b<i), so
    |K_(b<i)| >= |b_i^{H_i}| * |K_(b<=i)|.  `deadline`, a time.monotonic()
    value, is checked once per point: Timeout when it has passed."""
    gens, product = gs.gens, 1
    for b in base:
        if product >= target:
            break
        if time.monotonic() > deadline:
            raise Timeout(f"the orbit product passed its deadline at point {b}")
        product *= int(orbit_mask(gens, _point_mask(gs.degree, b)).sum())
        gens = gens[gens[:, b] == b]
    return product


def reaches_order(
    gs: GeneratorSet, target: int, deadline: float = math.inf, base: tuple[int, ...] = ()
) -> bool:
    """Whether |<gs>| >= target.  First the orbit product along base
    (_base_product), one orbit_mask per point: a base the generators came
    from, such as the solver's first path, mostly reaches the target there.
    Otherwise _chain, with base as its base prefix, stopped as soon as its
    orbit product, a proven lower bound, reaches target: True mostly comes
    from its random phase, and False only from the completed chain, whose
    orbit product is exact.  `deadline`, a time.monotonic() value: Timeout
    when it has passed."""
    if target <= 1 or _base_product(gs, base, deadline, target) >= target:
        return True
    return BSGS(gs.degree, _chain(gs, tuple(base), deadline, target)).order >= target


# -- rank and subdegrees -------------------------------------------------------


def stabilizer_orbits(stab: GeneratorSet) -> list[np.ndarray]:
    """The orbits of a group fixing 0 on the points other than 0, smallest
    first (ties by smallest point).

    When stab is the stabilizer of 0 in a transitive group -- G0 in V:G0 --
    these are the suborbits: the rank is 1 + their number and the subdegrees
    are their sizes.
    """
    if (stab.gens[:, 0] != 0).any():
        raise ValueError("the group does not fix the point 0")
    return sorted((o for o in orbit_partition(stab) if o[0] != 0), key=len)


def stabilizer_rank(stab: GeneratorSet) -> tuple[int, list[int]]:
    """(rank, subdegrees sorted ascending) of the transitive group whose
    stabilizer of 0 is stab, from stabilizer_orbits."""
    orbits = stabilizer_orbits(stab)
    return 1 + len(orbits), [len(o) for o in orbits]


def rank_and_subdegrees(gs: GeneratorSet) -> tuple[int, list[int]]:
    """Number of orbits on ordered pairs, and the sizes of the non-diagonal
    orbitals through (0, .), sorted ascending.

    A test oracle for stabilizer_rank, independent of any declared point
    stabilizer: a flat breadth-first closure over all n^2 pairs, so n is
    capped at 4096, cross-checked against the orbit sizes of the point
    stabilizer extracted from a stabilizer chain based at 0.
    """
    n = gs.degree
    if n > 4096:
        raise ValueError(f"pair-orbit closure needs n <= 4096, got {n}")
    size = len(orbit(gs, 0))
    if size != n:
        raise ValueError(f"orbit of 0 has size {size} < {n}")
    labels = np.full(n * n, -1, dtype=np.int16)
    imgs = gs.gens.astype(np.int64)
    label = 0
    while True:
        seed = int(np.argmax(labels == -1))
        if labels[seed] != -1:
            break
        labels[seed] = label
        frontier = np.array([seed], dtype=np.int64)
        while frontier.size:
            rows, cols = frontier // n, frontier % n
            parts = []
            for img in imgs:
                tgt = img[rows] * n + img[cols]
                tgt = tgt[labels[tgt] == -1]
                if tgt.size:
                    labels[tgt] = label
                    parts.append(tgt)
            frontier = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        label += 1
    rank = label
    row0 = labels[:n].astype(np.int64)
    counts = np.bincount(row0, minlength=rank)
    diag = int(labels[0])
    subdegrees = sorted(int(c) for lbl, c in enumerate(counts) if lbl != diag)
    assert sum(subdegrees) + 1 == n, "subdegrees must partition the non-base points"
    # cross-check: subdegrees = orbit sizes of the point stabilizer at 0
    stab = schreier_sims(gs, base_prefix=(0,)).stabilizer_generators(1)
    stab_sizes = sorted(o.size for o in orbit_partition(stab) if 0 not in o)
    assert stab_sizes == subdegrees, (
        f"pair-orbit subdegrees {subdegrees} != stabilizer orbit sizes {stab_sizes}"
    )
    return rank, subdegrees


# -- matrix groups over GF(p) --------------------------------------------------


@dataclass(frozen=True)
class MatrixGroupSpec:
    """A subgroup of GL_d(p), p prime, given by invertible generator matrices:
    any sequence of d x d integer matrices, a (K, d, d) array among them.
    ``gens`` is then a tuple of read-only d x d int64 views of one stack,
    reduced mod p, and ``perms`` is their action on all p**d vectors, made
    here once: the GeneratorSet whose row i maps vector x (index
    sum(x_j * p**j)) to gens[i] @ x.  A linear map is invertible exactly
    when only the zero vector maps to 0, so a generator whose image row
    holds 0 more than once is singular: the ValueError shows the first
    such matrix.  ValueError for a generator that is not d x d, and unless
    d >= 1 and p**d <= 2**16, the largest field the package builds."""

    p: int
    d: int
    gens: tuple
    perms: GeneratorSet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p, d = self.p, self.d
        if not isprime(p):
            raise ValueError(f"p = {p} is not prime")
        # p >= 2, so p**d <= 2**16 needs d <= 16, which keeps the power small
        if not 1 <= d <= 16 or p**d > _MAX_Q:
            raise ValueError(f"a spec needs d >= 1 and p**d <= {_MAX_Q}, got p = {p}, d = {d}")
        mats = [np.asarray(g, dtype=np.int64) for g in self.gens]
        for m in mats:
            if m.shape != (d, d):
                raise ValueError(f"generator shape {m.shape} != ({d}, {d})")
        q = p**d
        stack, imgs = np.zeros((0, d, d), np.int64), np.zeros((0, q), np.int64)
        if mats:  # a spec with no generators makes no digits table
            stack = np.stack(mats) % p
            vecs = digits(q, p, d)
            pv = p ** np.arange(d, dtype=np.int64)
            imgs = np.stack([(vecs @ m.T % p) @ pv for m in stack])
        singular = np.flatnonzero(np.count_nonzero(imgs == 0, axis=1) > 1)
        if singular.size:
            raise ValueError(f"generator is singular mod {p}:\n{stack[singular[0]]}")
        stack.setflags(write=False)
        object.__setattr__(self, "gens", tuple(stack))
        object.__setattr__(self, "perms", GeneratorSet(q, imgs))


def linear_perms(spec: MatrixGroupSpec) -> GeneratorSet:
    """The matrix generators acting on all p^d vectors (0 is fixed):
    spec.perms, made once when the spec was built."""
    return spec.perms


def with_translations(stab: GeneratorSet, moduli: tuple[int, ...]) -> GeneratorSet:
    """The unit translations of Z_m1 x ... x Z_mk (graphs.unit_translations),
    followed by the generators of stab, a group fixing 0; the result
    generates T:stab."""
    n = math.prod(moduli)
    if n != stab.degree:
        raise ValueError(f"translations of order {n} on {stab.degree} points")
    return GeneratorSet(n, [*unit_translations(moduli), *stab.gens])


def semilinear_stabilizer_perms(field: FiniteField, e: int, twist: int = 0) -> GeneratorSet:
    """Zero-stabilizer generators on GF(q): x -> omega^e * x and the twisted
    field automorphism x -> omega^twist * x^p."""
    q = field.q
    if e < 1 or (q - 1) % e:
        raise ValueError(f"e = {e} does not divide q - 1 = {q - 1}")
    x = np.arange(q)
    return GeneratorSet(q, [
        field.mul(field.power(field.omega, e), x),
        field.mul(field.power(field.omega, twist), field.frobenius(x)),
    ])


def central_product_with_scalars(p: int, gens, scalar_order: int) -> MatrixGroupSpec:
    """The matrix group over GF(p) generated by gens, a non-empty sequence
    of d x d integer matrices, and the scalar matrix of multiplicative order
    scalar_order mod p, which is central: one MatrixGroupSpec.  A scalar of
    order 1 is the identity and adds no generator."""
    if scalar_order < 1 or (p - 1) % scalar_order:
        raise ValueError(f"scalar order {scalar_order} does not divide p - 1 = {p - 1}")
    mats = [np.asarray(g, dtype=np.int64) for g in gens]
    if scalar_order > 1:
        lam = pow(primitive_root(p), (p - 1) // scalar_order, p)
        mats.append(np.eye(len(mats[0]), dtype=np.int64) * lam)
    return MatrixGroupSpec(p, len(mats[0]), mats)


# -- matrix-group spec files ----------------------------------------------------


def parse_matrix_spec(text: str, source: str = "matrix-group spec") -> MatrixGroupSpec:
    """Text format: first line "p d", then one generator per line as d*d
    row-major integers.  Blank lines and #-comments are allowed.  A
    malformed line raises ValueError naming ``source``, the line number and
    the expected form."""
    rows = []
    for number, ln in enumerate(text.splitlines(), start=1):
        ln = ln.split("#", 1)[0].strip()
        if ln:
            rows.append((number, ln.split()))
    if not rows:
        raise ValueError(f"{source}: empty, expected a 'p d' header line")
    number, head = rows[0]
    try:
        p, d = (int(t) for t in head)
    except ValueError:
        raise ValueError(
            f"{source}, line {number}: expected a 'p d' header of two integers, "
            f"got {' '.join(head)!r}"
        ) from None
    MatrixGroupSpec(p, d, ())  # a bad p or d is the header's fault, not a generator's
    gens = []
    for number, vals in rows[1:]:
        try:
            gens.append(np.array([int(t) for t in vals], dtype=np.int64).reshape(d, d))
        except ValueError:
            raise ValueError(
                f"{source}, line {number}: expected a generator of d*d = {d * d} "
                f"integers, got {' '.join(vals)!r}"
            ) from None
    return MatrixGroupSpec(p, d, tuple(gens))


def format_matrix_spec(spec: MatrixGroupSpec) -> str:
    lines = [f"{spec.p} {spec.d}"]
    for g in spec.gens:
        lines.append(" ".join(str(int(x)) for x in np.asarray(g).ravel()))
    return "\n".join(lines) + "\n"


def read_matrix_spec(path) -> MatrixGroupSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix_spec(fh.read(), str(path))
