"""Constructors for the strongly regular graph families shipped here.

Every family is a Cayley graph on the additive group of a vector space over
GF(p) (or, for ``hamming2``, on Z_m x Z_m), and x ~ y exactly when x - y
lies in a fixed symmetric connection set.  Vertices are the p**dim vectors,
indexed little-endian base p: (c_0, ..., c_{dim-1}) has index
sum(c_i * p**i).  For a field GF(p**d) this is the element indexing of
module ``gf``, and for a coordinate space over GF(q), q = p**d,
concatenating the coordinates' coefficient vectors agrees with indexing by
sum(coord_index_j * q**j).  A connection set is passed to cayley_graph as
the vector indices of its members, and its indicator is row 0 of the
adjacency matrix: DenseGraph.from_row0 keeps it, and packs the rows band by
band from adj[x, y] = row0[y - x] when the rows are first read.  Each graph
carries its translation moduli, which srg_params, the seeded Aut search,
the row-0 automorphism test and family_group use (family_group reads them
as (p,) * d off a family's spec, when it has one).  The families differ only
in how that connection set is cut out:

* ``paley`` / ``peisert`` / ``van_lint_schrijver`` -- power-residue cosets in
  a finite field (one-dimensional).
* ``affine_polar`` -- zeros of a nondegenerate quadratic form.
* ``bilinear_forms`` -- 2 x m matrices of rank 1.
* ``alternating_forms`` -- 5 x 5 alternating matrices of rank 2 over GF(2).
* ``affine_orbital_graph`` -- an orbit of an explicit matrix group with
  exactly two orbits on nonzero vectors.

Each family is declared once, in the table at the end of this module: its
descriptor syntax, its graph constructor and its zero-stabilizer G0, the
stabilizer of vertex 0 in a known group of automorphisms.  The known group
itself is the translations plus G0, and G0's orbits on the other vertices
are the graph's suborbits, which the catalog checks independently of the Aut
solver.  A row is read through one Build, which makes its graph, G0 and G0's
orbits each on first read and at most once; only the orbital family's graph
needs G0, so only there does reading the graph build a group.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .gf import (
    _MAX_Q,
    FiniteField,
    digits,
    factorint,
    isprime,
    make_field,
    n_order,
    power_residue_classes,
    sqrt_mod,
)
from .graphs import DenseGraph
import importlib.resources

from .permgrp import (
    GeneratorSet,
    MatrixGroupSpec,
    central_product_with_scalars,
    parse_matrix_spec,
    reaches_order,
    read_matrix_spec,
    semilinear_stabilizer_perms,
    stabilizer_orbits,
    with_translations,
)

__all__ = [
    "FamilyId",
    "cayley_graph",
    "paley",
    "peisert",
    "van_lint_schrijver",
    "hamming2",
    "affine_polar",
    "bilinear_forms",
    "alternating_forms",
    "affine_orbital_graph",
    "affine_polar_group",
    "bilinear_forms_group",
    "alternating_forms_group",
    "hamming2_stabilizer",
    "quaternion_normalizer_spec",
    "sl25_with_scalars_spec",
    "sl23_with_scalars_spec",
    "extraspecial_normalizer_spec",
    "parse_descriptor",
    "family_graph",
    "family_group",
    "family_matrix_spec",
    "Build",
    "FAMILY_TAGS",
]


# -- the generic Cayley construction ---------------------------------------------


def cayley_graph(p: int, dim: int, members: Iterable[int]) -> DenseGraph:
    """The Cayley graph of GF(p)**dim whose connection set S is given by the
    vector indices ``members`` (any iterable or array; repeats are harmless).

    The vector (c_0, ..., c_{dim-1}) has index sum(c_i * p**i), which for a
    field GF(p**dim) is the element index of module ``gf``.  x ~ y iff
    x - y is in S; the output is |S|-regular and carries the translation
    moduli (p,) * dim.  Its rows are packed from row 0, the indicator of S,
    by DenseGraph.from_row0, so it is circulant over GF(p)**dim by
    construction.  ValueError unless p is
    prime, dim >= 1 and S is non-empty with every index in [0, p**dim), and
    from_row0's ValueError if S holds 0 or S != -S.
    """
    if not isprime(p):
        raise ValueError(f"p = {p} is not prime")
    if dim < 1:
        raise ValueError(f"dim = {dim} must be >= 1")
    n = p**dim
    members = np.fromiter(members, dtype=np.int64)
    if len(members) == 0:
        raise ValueError("connection set is empty")
    if members.min() < 0 or members.max() >= n:
        raise ValueError(f"member index out of range [0, {n})")
    indicator = np.zeros(n, dtype=bool)
    indicator[members] = True
    return DenseGraph.from_row0(indicator, (p,) * dim)


# -- helpers shared by the field-coordinate families -----------------------------


def _split_prime_power(q: int) -> tuple[int, int]:
    """q = p**d with p prime, else ValueError (before factoring, if q > _MAX_Q)."""
    if q < 2:
        raise ValueError(f"q = {q} is not a prime power")
    if q > _MAX_Q:
        raise ValueError(f"q = {q} exceeds {_MAX_Q}")
    fac = factorint(q)
    if len(fac) != 1:
        raise ValueError(f"q = {q} is not a prime power")
    [(p, d)] = fac.items()
    return int(p), int(d)


def _field(q: int) -> FiniteField:
    return make_field(*_split_prime_power(q))


def _anisotropic_pair(q: int) -> tuple[int, int]:
    """Smallest (a, b) by index order with x**2 + a*x + b irreducible over GF(q).

    u**2 + a*u*v + b*v**2 is then an anisotropic binary quadratic form (the
    norm form of GF(q**2) over GF(q) up to equivalence).
    """
    field = _field(q)
    x = np.arange(q)
    for a in range(q):
        # b gives a root x exactly when b = -(x**2 + a*x)
        with_root = set(field.neg(field.add(field.mul(x, x), field.mul(a, x))).tolist())
        b = next((b for b in range(1, q) if b not in with_root), None)
        if b is not None:
            return a, b
    raise AssertionError("no irreducible monic quadratic found")  # pragma: no cover


# -- one-dimensional families ----------------------------------------------------


def paley(q: int) -> DenseGraph:
    """Paley graph: vertices GF(q), x ~ y iff x - y is a nonzero square.

    Requires q = 1 (mod 4) so that -1 is a square and the set is symmetric.
    """
    p, d = _split_prime_power(q)
    if q % 4 != 1:
        raise ValueError(f"q = {q} is not 1 mod 4; the squares are not symmetric")
    return cayley_graph(p, d, power_residue_classes(make_field(p, d), 2)[0])


def peisert(q: int) -> DenseGraph:
    """Peisert graph: vertices GF(p**d), connection set C + C*omega, C = <omega**4>.

    Requires p = 3 (mod 4) and d even (so q = 1 mod 8 ... in particular 4
    divides q - 1 and -1 lands in C).
    """
    p, d = _split_prime_power(q)
    if p % 4 != 3 or d % 2 != 0:
        raise ValueError(
            f"q = {q} = {p}**{d} needs p = 3 mod 4 and even exponent"
        )
    classes = power_residue_classes(make_field(p, d), 4)
    return cayley_graph(p, d, np.concatenate(classes[:2]))


def van_lint_schrijver(q: int, e: int) -> DenseGraph:
    """Van Lint-Schrijver cyclotomic graph: connection set C = <omega**e>.

    Preconditions: p and e prime, e > 2, p has multiplicative order e - 1
    modulo e, and q = p**(k(e-1)); additionally (q-1)/e must be even (or
    p = 2) so that C = -C.  ValueError if any of them fails, and for e = 2,
    the Paley construction.
    """
    if e == 2:
        raise ValueError("e = 2 is the Paley construction; call paley(q)")
    if e < 2 or not isprime(e):
        raise ValueError(f"e = {e} must be prime")
    p, d = _split_prime_power(q)
    # the exponent first: it bounds e - 1 <= d, so n_order factors a small e
    if d % (e - 1) != 0:
        raise ValueError(
            f"q = {q} = {p}**{d}: the exponent must be a multiple of e - 1 = {e - 1}"
        )
    if p % e == 0 or n_order(p, e) != e - 1:
        raise ValueError(
            f"p = {p} must have multiplicative order {e - 1} modulo e = {e}"
        )
    if p != 2 and ((q - 1) // e) % 2 != 0:
        raise ValueError(
            f"(q-1)/e = {(q - 1) // e} is odd and p is odd: C is not symmetric"
        )
    return cayley_graph(p, d, power_residue_classes(make_field(p, d), e)[0])


# -- Hamming H(2, m) -------------------------------------------------------------


def hamming2(m: int) -> DenseGraph:
    """Hamming graph H(2, m) = m x m rook's graph: vertices are ordered pairs
    (i, j) in [m]**2 (index i*m + j), adjacent iff they agree in exactly one
    coordinate.  SRG(m**2, 2(m-1), m-2, 2).  It is the Cayley graph of
    Z_m x Z_m with the nonzero vectors on the axes, hence moduli (m, m).
    ValueError unless m >= 2 and m**2 <= _MAX_Q."""
    if m < 2:
        raise ValueError(f"m = {m} must be >= 2")
    if m * m > _MAX_Q:
        raise ValueError(f"m**2 = {m * m} exceeds {_MAX_Q}")
    row0 = np.zeros(m * m, dtype=bool)
    row0[1:m] = row0[m::m] = True  # (0, j) and (i, 0) for i, j != 0
    return DenseGraph.from_row0(row0, (m, m))


def hamming2_stabilizer(m: int) -> GeneratorSet:
    """The stabilizer of the vertex 0 = (0, 0) in the natural automorphism
    group (S_m x S_m):2 of hamming2(m): (S_(m-1) x S_(m-1)):2, permuting the
    nonzero values of each coordinate, plus the coordinate swap.  Its orbits
    on the other vertices have sizes 2(m-1) and (m-1)**2."""
    if m < 2:
        raise ValueError(f"m = {m} must be >= 2")
    if m * m > _MAX_Q:
        raise ValueError(f"m**2 = {m * m} exceeds {_MAX_Q}")
    n = m * m
    i = np.arange(n) // m
    j = np.arange(n) % m
    cyc = np.concatenate([[0], np.roll(np.arange(1, m), -1)])
    swp = np.arange(m)
    if m > 2:
        swp[[1, 2]] = [2, 1]
    gens = [
        cyc[i] * m + j,
        swp[i] * m + j,
        i * m + cyc[j],
        i * m + swp[j],
        j * m + i,
    ]
    return GeneratorSet(n, gens)


# -- affine polar graphs VO(2m, eps, q) -------------------------------------------


def _vertex_count(q: int, dim: int) -> int:
    """q**dim, the vertices of a graph on GF(q)**dim, q >= 2; ValueError past
    the 4096-vertex construction cap, refused on dim > 12 (past it for any
    q) before the power is taken."""
    if dim > 12 or q**dim > 4096:
        raise ValueError(f"q**dim = {q}**{dim} exceeds the 4096-vertex construction cap")
    return q**dim


def _evaluate_form(coords: np.ndarray, terms, q: int) -> np.ndarray:
    """Form values (as GF(q) indices) for each row of coordinate indices."""
    field = _field(q)
    vals = np.zeros(len(coords), dtype=np.int64)
    for i, j, c in terms:
        vals = field.add(vals, field.mul(c, field.mul(coords[:, i], coords[:, j])))
    return vals


@lru_cache(maxsize=None)
def _polar_form(m: int, q: int, epsilon: int) -> tuple[np.ndarray, np.ndarray]:
    """(coords, vals) for the affine_polar form Q of type epsilon on
    GF(q)**(2m), made once per process: the coordinates of every vector
    (digits; row x holds vector x's GF(q) indices) and Q's value table,
    vals[x] = Q(vector x), both read-only.  Q at coordinates c is
    vals[c @ q**arange(2m)].  The graph and its zero-stabilizer both read
    them, and no other code evaluates the form.  ValueError unless m >= 2,
    epsilon is +1 or -1 and q**(2m) is within the construction cap."""
    dim = 2 * m
    n = _vertex_count(q, dim)
    if m < 2:
        raise ValueError(f"m = {m} must be >= 2")
    if epsilon not in (1, -1):
        raise ValueError(f"epsilon must be +1 or -1, got {epsilon}")
    # (i, j, coefficient) terms: x0*x1 + x2*x3 + ..., the minus type with the
    # anisotropic u**2 + a*u*v + b*v**2 on the last pair (u, v) instead
    terms = [(i, i + 1, 1) for i in range(0, dim if epsilon == 1 else dim - 2, 2)]
    if epsilon == -1:
        a, b = _anisotropic_pair(q)
        terms += [(dim - 2, dim - 2, 1), (dim - 2, dim - 1, a), (dim - 1, dim - 1, b)]
    coords = digits(n, q, dim)
    vals = _evaluate_form(coords, terms, q)
    for table in (coords, vals):
        table.setflags(write=False)
    return coords, vals


def affine_polar(m: int, q: int, epsilon: int) -> DenseGraph:
    """Affine polar graph VO(2m, epsilon, q): vertices = GF(q)**(2m),
    x ~ y iff Q(x - y) = 0 (x != y), for the standard quadratic form of type
    epsilon (+1 hyperbolic, -1 with an anisotropic norm-form plane)."""
    p, d = _split_prime_power(q)
    vals = _polar_form(m, q, epsilon)[1]
    return cayley_graph(p, d * 2 * m, np.flatnonzero((vals == 0) & (np.arange(vals.size) != 0)))


def _general_orthogonal_order(m: int, q: int, epsilon: int) -> int:
    """|GO(2m, epsilon, q)| = 2 q^(m(m-1)) (q^m - eps) prod_{i<m} (q^(2i) - 1)."""
    o = 2 * q ** (m * (m - 1)) * (q**m - epsilon)
    for i in range(1, m):
        o *= q ** (2 * i) - 1
    return o


@lru_cache(maxsize=None)
def affine_polar_group(m: int, q: int, epsilon: int) -> MatrixGroupSpec:
    """Generators of the similitude group of the affine_polar form as a
    matrix group over GF(p), q = p**d: GO(2m, epsilon, q) extended by a
    similitude with multiplier omega, of order |GO| * (q - 1), which fuses
    the nonsingular vectors of different form values.  The group has exactly
    2 orbits on nonzero vectors: singular and nonsingular.

    The isometry generators are x |-> x - (B(x, v)/Q(v)) v, reflections for
    odd q and orthogonal transvections for even q, for the first nonsingular
    v (first nonzero coordinate 1) in an order shuffled by random.Random(0),
    a local generator with a fixed seed, taking more until the group order
    matches the closed-form target.  For q > 2 the similitude scales the
    first coordinate of each hyperbolic pair by omega and, on the anisotropic
    plane, is the first 2 x 2 block in index order with multiplier omega.
    (m, q, epsilon) = (2, 2, +1) is the one form whose transvections
    generate a proper subgroup; the swap of its two hyperbolic pairs makes up
    the rest.  GF(q) entries are blown up to d x d blocks over GF(p).  Every
    generator is checked to be a similitude, so the target bounds the order
    from above, and the sample is accepted as soon as reaches_order's
    Schreier-Sims lower bound reaches it.  ValueError unless m >= 2,
    epsilon is +1 or -1 and q is a prime power.

    The group is built once per process, on the value table of Q that the
    graph reads too (_polar_form, which checks m, epsilon and the vertex
    cap before any field is built): the polar form
    B(x, y) = Q(x + y) - Q(x) - Q(y) and the plane's similitude are read
    off it, and the form is evaluated nowhere else.  The generators go
    to MatrixGroupSpec as one (K, 2md, 2md) array, and the similitude check
    and the order certificate read the spec's action, spec.perms, which is
    the polar family's G0.
    """
    p, d = _split_prime_power(q)
    coords, vals = _polar_form(m, q, epsilon)
    field = _field(q)
    dim = coords.shape[1]
    eye = np.eye(dim, dtype=np.int64)
    place = q ** np.arange(dim)

    def polar(x, y, w=place):
        """B(x, y) = Q(x + y) - Q(x) - Q(y) for coordinate rows x and y on
        the coordinates of place values w, read off the value table."""
        return field.sub(vals[field.add(x, y) @ w], field.add(vals[x @ w], vals[y @ w]))

    # projective representatives of nonsingular vectors (first nonzero
    # coordinate = 1), in a seeded random order so early picks span the space
    first = coords[np.arange(len(coords)), np.argmax(coords != 0, axis=1)]
    reps = np.flatnonzero((vals != 0) & (first == 1)).tolist()
    random.Random(0).shuffle(reps)
    # B(e_b, v) for every rep v and basis vector e_b
    v, qv = coords[reps], vals[reps]
    bv = polar(v[:, None, :], eye)
    coeff = field.neg(field.inv(qv))[:, None, None]
    isometries = field.add(eye, field.mul(coeff, field.mul(v[:, :, None], bv[:, None, :])))

    extra = np.zeros((0, dim, dim), dtype=np.int64)
    target = _general_orthogonal_order(m, q, epsilon) * (q - 1)
    if q > 2:
        sim = eye.copy()
        hyperbolic = np.arange(0, dim if epsilon == 1 else dim - 2, 2)
        sim[hyperbolic, hyperbolic] = field.omega
        if epsilon == -1:
            # on the anisotropic plane (e_u, e_v), the last two coordinates,
            # the first block [[aa, bb], [cc, dd]] in index order whose
            # columns, the images of e_u and e_v, scale Q(e_u), Q(e_v) and
            # B(e_u, e_v) by omega
            plane = place[dim - 2 :]
            blocks = digits(q**4, q, 4)[:, ::-1]
            col1, col2 = blocks[:, [0, 2]], blocks[:, [1, 3]]
            hit = np.flatnonzero(
                (vals[col1 @ plane] == field.mul(field.omega, vals[plane[0]]))
                & (vals[col2 @ plane] == field.mul(field.omega, vals[plane[1]]))
                & (polar(col1, col2, plane) == field.mul(field.omega, polar(eye[-2], eye[-1])))
            )[0]
            sim[dim - 2 :, dim - 2 :] = blocks[hit].reshape(2, 2)
        extra = sim[None]
    if (m, q, epsilon) == (2, 2, 1):
        extra = eye[None, [2, 3, 0, 1]]

    count = 3 * dim
    while True:
        gens = np.concatenate([isometries[:count], extra])
        if d > 1:
            gens = _blow_up(gens, q)
        spec = MatrixGroupSpec(p, dim * d, gens)
        _check_similitudes(spec.perms, vals, field)
        if reaches_order(spec.perms, target):
            return spec
        if count >= len(reps):
            raise AssertionError(
                f"hyperplane isometries did not reach order {target} "
                f"for (m, q, epsilon) = ({m}, {q}, {epsilon})"
            )  # pragma: no cover
        count = min(2 * count, len(reps))


def _check_similitudes(perms: GeneratorSet, vals: np.ndarray, field: FiniteField) -> None:
    """Raise ValueError unless every generator of perms, a linear action on
    vectors whose quadratic form values over ``field`` are vals (by vector
    index), is a similitude: Q(g x) = lam * Q(x) for every vector x, with one
    lam per generator (nonzero, as g permutes the vectors).  For q = 2 that
    makes g an isometry.  The similitudes of a nondegenerate polar form make
    a group of the closed-form order that affine_polar_group targets."""
    anchor = int(np.flatnonzero(vals)[0])
    images = vals[perms.gens]
    lam = field.mul(images[:, anchor], field.inv(vals[anchor]))
    bad = (images != field.mul(lam[:, None], vals)).any(axis=1)
    if bad.any():
        raise ValueError(f"generator {int(np.argmax(bad))} is not a similitude")


# -- bilinear and alternating forms graphs ----------------------------------------


def bilinear_forms(q: int, m: int) -> DenseGraph:
    """Bilinear forms graph H_q(2, m): vertices = 2 x m matrices over GF(q)
    (row-major coordinate order), A ~ B iff rank(A - B) = 1."""
    if m < 2:
        raise ValueError(f"m = {m} must be >= 2")
    p, d = _split_prime_power(q)
    dim = 2 * m
    n = _vertex_count(q, dim)
    field = _field(q)
    coords = digits(n, q, dim)
    row0, row1 = coords[:, :m], coords[:, m:]
    rank_le_1 = np.ones(n, dtype=bool)
    for j in range(m):
        for k in range(j + 1, m):
            minor = field.sub(
                field.mul(row0[:, j], row1[:, k]), field.mul(row0[:, k], row1[:, j])
            )
            rank_le_1 &= minor == 0
    return cayley_graph(p, d * dim, np.flatnonzero(rank_le_1 & (np.arange(n) != 0)))


@lru_cache(maxsize=None)
def _regular_representation(q: int) -> np.ndarray:
    """(q, d, d) array: the matrix of multiplication-by-x over GF(p), in the
    power basis, for each element index x of GF(q) = GF(p**d)."""
    field = _field(q)
    basis = field.p ** np.arange(field.d)  # the indices of 1, x, ..., x**(d-1)
    return field.coeffs[field.mul(np.arange(q)[:, None], basis)].transpose(0, 2, 1)


def _blow_up(mats_idx: np.ndarray, q: int) -> np.ndarray:
    """Replace each GF(q)-index entry of a (K, k, k) stack of matrices by its
    d x d multiplication block over GF(p): a (K, kd, kd) stack."""
    reg = _regular_representation(q)
    count, k = mats_idx.shape[:2]
    d = reg.shape[1]
    return reg[mats_idx].transpose(0, 1, 3, 2, 4).reshape(count, k * d, k * d)


def _gl_gens_idx(k: int, q: int) -> list[np.ndarray]:
    """Generators of GL_k(q) as matrices of GF(q) element indices: a basis
    cycle, a transvection, and (q > 2) a diagonal primitive scaling."""
    cyc = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        cyc[(i + 1) % k, i] = 1
    tv = np.eye(k, dtype=np.int64)
    tv[0, 1] = 1
    gens = [cyc, tv]
    if q > 2:
        dg = np.eye(k, dtype=np.int64)
        dg[0, 0] = _field(q).omega
        gens.append(dg)
    return gens


def bilinear_forms_group(q: int, m: int) -> MatrixGroupSpec:
    """The row/column action A |-> P A Q^T of GL_2(q) x GL_m(q) on row-major
    matrix coordinates, as GF(p) matrices: generators kron(P, I_m) and
    kron(I_2, Q), entries blown up to multiplication blocks when q = p**d > p.
    Exactly 2 orbits on nonzero matrices: rank 1 and rank 2.  ValueError
    past the graph's construction cap."""
    if m < 2:
        raise ValueError(f"m = {m} must be >= 2")
    p, d = _split_prime_power(q)
    _vertex_count(q, 2 * m)
    mats = []
    eye2 = np.eye(2, dtype=np.int64)
    eyem = np.eye(m, dtype=np.int64)
    for pg in _gl_gens_idx(2, q):
        mats.append(np.kron(pg, eyem))
    for qg in _gl_gens_idx(m, q):
        mats.append(np.kron(eye2, qg))
    if d > 1:
        mats = _blow_up(np.array(mats), q)
    return MatrixGroupSpec(p, 2 * m * d, mats)


_ALT_PAIRS = [(i, j) for i in range(5) for j in range(i + 1, 5)]


def alternating_forms() -> DenseGraph:
    """Alternating forms graph A(5, 2): vertices = 5 x 5 alternating matrices
    over GF(2) (10 upper-triangle bits, row-major), A ~ B iff
    rank(A - B) = 2."""
    count = 1 << 10
    bits = digits(count, 2, 10)
    col = {pr: bits[:, t] for t, pr in enumerate(_ALT_PAIRS)}

    def b(i: int, j: int) -> np.ndarray:
        return col[(i, j)] if i < j else col[(j, i)]

    # rank <= 2 iff every principal 4x4 Pfaffian vanishes
    rank_le_2 = np.ones(count, dtype=bool)
    for excl in range(5):
        r = [t for t in range(5) if t != excl]
        pf = (
            b(r[0], r[1]) * b(r[2], r[3])
            ^ b(r[0], r[2]) * b(r[1], r[3])
            ^ b(r[0], r[3]) * b(r[1], r[2])
        )
        rank_le_2 &= pf == 0
    return cayley_graph(2, 10, np.flatnonzero(rank_le_2 & (np.arange(count) != 0)))


def alternating_forms_group() -> MatrixGroupSpec:
    """The congruence action A |-> P A P^T of GL_5(2) on the 10 upper-triangle
    coordinates of alternating 5 x 5 matrices, as 10 x 10 GF(2) matrices.
    Exactly 2 orbits on nonzero forms: rank 2 and rank 4."""
    mats = []
    for pg in _gl_gens_idx(5, 2):
        big = np.zeros((10, 10), dtype=np.int64)
        for cidx, (jj, ll) in enumerate(_ALT_PAIRS):
            for ridx, (ii, kk) in enumerate(_ALT_PAIRS):
                big[ridx, cidx] = (pg[ii, jj] * pg[kk, ll] + pg[ii, ll] * pg[kk, jj]) % 2
        mats.append(big)
    return MatrixGroupSpec(2, 10, mats)


# -- generic orbital construction -------------------------------------------------


def _orbital_graph(spec: MatrixGroupSpec, orbits: list[np.ndarray]) -> DenseGraph:
    """The Cayley graph on orbit 0 of G0 = <spec>, given G0's orbits on the
    nonzero vectors (stabilizer_orbits: smaller first)."""
    if len(orbits) != 2:
        raise ValueError(f"group has {len(orbits)} orbits on nonzero vectors, need exactly 2")
    return cayley_graph(spec.p, spec.d, orbits[0])


def affine_orbital_graph(spec: MatrixGroupSpec) -> DenseGraph:
    """The orbital graph of the affine group V:G0 for G0 = <spec>: edges
    {x, y} with x - y in G0's first orbit on nonzero vectors, the smaller
    one (on a tie, the one holding the least vector index).

    Preconditions, each a ValueError otherwise: G0 has exactly 2 orbits on
    nonzero vectors, and that orbit is symmetric (cayley_graph's check).
    The affine group acts as automorphisms of the result: the translations
    by construction (DenseGraph.from_row0), and G0 because a linear map
    that keeps the connection set keeps x - y in it.
    """
    return _orbital_graph(spec, stabilizer_orbits(spec.perms))


def _quaternion_units(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X = [[0,-1],[1,0]], Y = [[a,b],[b,-a]] with a**2 + b**2 = -1 (smallest
    such pair) and s = (I + X + Y + XY)/2 over GF(p), p an odd prime.

    X^2 = Y^2 = -I and XY = -YX, so I, X, Y, XY play the quaternion units
    1, i, j, k, and det(aI + bX + cY + dXY) is the norm a^2 + b^2 + c^2 + d^2:
    unit quaternions are words in X and Y of determinant 1 (Conway & Smith,
    "On Quaternions and Octonions", 2003).  s is (1 + i + j + k)/2, of order
    6; conjugation by s cycles X -> Y -> XY.  ValueError unless p**2 <=
    _MAX_Q, checked before the search for (a, b)."""
    if p == 2 or not isprime(p):
        raise ValueError(f"p = {p} must be an odd prime")
    if p * p > _MAX_Q:
        raise ValueError(f"p**2 = {p * p} exceeds {_MAX_Q}")
    a, b = next(
        (a, b)
        for a in range(p)
        for b in range(p)
        if (a * a + b * b) % p == p - 1
    )
    x = np.array([[0, p - 1], [1, 0]], dtype=np.int64)
    y = np.array([[a, b], [b, (p - a) % p]], dtype=np.int64)
    s = (np.eye(2, dtype=np.int64) + x + y + x @ y) * pow(2, -1, p) % p
    return x, y, s


def _check_normalizes_q8(gens, x: np.ndarray, y: np.ndarray, p: int) -> None:
    """Raise ValueError unless conjugation by every matrix g of gens maps
    Q8 = {+-I, +-X, +-Y, +-XY} onto itself, i.e. g Q8 = Q8 g."""
    units = (np.eye(2, dtype=np.int64), x, y, x @ y % p)
    q8 = [sign * u % p for sign in (1, p - 1) for u in units]
    for g in gens:
        if {(g @ m % p).tobytes() for m in q8} != {(m @ g % p).tobytes() for m in q8}:
            raise ValueError(f"{np.asarray(g).tolist()} does not normalize Q8 mod {p}")


def quaternion_normalizer_spec(p: int) -> MatrixGroupSpec:
    """The normalizer in GL_2(p), p an odd prime, of Q8 = <X, Y> from
    _quaternion_units: <s, I + X> plus the primitive scalar, of order
    24(p - 1), made as one spec by central_product_with_scalars.
    Conjugation by s cycles X -> Y -> XY and conjugation by I + X fixes X
    and maps Y to XY, so modulo the scalars (the centralizer) the two give
    Aut(Q8) = S_4.  Every generator is checked to normalize Q8."""
    x, y, s = _quaternion_units(p)
    eye = np.eye(2, dtype=np.int64)
    spec = central_product_with_scalars(p, (s, (eye + x) % p), p - 1)
    _check_normalizes_q8(spec.gens, x, y, p)
    return spec


def _check_binary_icosahedral(s: np.ndarray, t: np.ndarray, p: int) -> None:
    """Raise ValueError unless s^3 = t^5 = (st)^2 = -I mod p.  These relations
    present the binary icosahedral group SL_2(5), in which their common value
    is the central involution; since -I != I mod an odd p, <s, t> is a copy
    of SL_2(5), of order exactly 120."""
    minus = (p - 1) * np.eye(2, dtype=np.int64)
    for m, k in ((s, 3), (t, 5), (s @ t % p, 2)):
        power = m
        for _ in range(k - 1):
            power = power @ m % p
        if not np.array_equal(power, minus):
            raise ValueError(f"{m.tolist()}^{k} != -I mod {p}: not SL_2(5)")


def _binary_icosahedral(p: int, seed: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The matrices (s, t) that generate SL_2(5) inside SL_2(p), checked by
    _check_binary_icosahedral: s from _quaternion_units and
    t = (phi I + phi^-1 X + Y)/2, phi = (1 + sqrt 5)/2, the quaternion
    (phi + phi^-1 i + j)/2 of order 10.  ValueError unless 5 is a nonzero
    square mod p (p = +-1 mod 5).  A seed >= 0 conjugates s and t by an
    invertible matrix drawn from random.Random(seed), which relabels the
    orbits; None does not.  A negative seed is a ValueError, as
    random.Random(-s) would silently run the stream of s."""
    if seed is not None and seed < 0:
        raise ValueError(f"seed = {seed} must be >= 0")
    if p == 2 or p % 5 not in (1, 4):
        raise ValueError(f"5 is not a nonzero square mod {p}: need p = +-1 mod 5")
    x, y, s = _quaternion_units(p)
    h = pow(2, -1, p)
    phi = (1 + sqrt_mod(5, p)) * h % p
    t = (phi * np.eye(2, dtype=np.int64) + (phi - 1) * x + y) * h % p
    if seed is not None:
        rng = random.Random(seed)
        det = 0
        while det == 0:
            a, b, c, d = (rng.randrange(p) for _ in range(4))
            det = (a * d - b * c) % p
        conj = np.array([[a, b], [c, d]], dtype=np.int64)
        conj_inv = np.array([[d, -b], [-c, a]], dtype=np.int64) * pow(det, -1, p) % p
        s, t = (conj @ m @ conj_inv % p for m in (s, t))
    _check_binary_icosahedral(s, t, p)
    return s, t


def sl25_with_scalars_spec(p: int, seed: int | None = None) -> MatrixGroupSpec:
    """SL_2(5) = <s, t> from _binary_icosahedral(p, seed) with the full
    scalar group of order p - 1 adjoined, as one spec
    (central_product_with_scalars; for p = 3 mod 4 this equals the direct
    product with the odd part of the scalars).  The seed and the errors are
    _binary_icosahedral's."""
    return central_product_with_scalars(p, _binary_icosahedral(p, seed), p - 1)


def sl23_with_scalars_spec(p: int) -> MatrixGroupSpec:
    """SL_2(3) = <X, Y, s> over GF(p), from _quaternion_units, with the
    odd-order part of the scalar group adjoined, as one spec
    (central_product_with_scalars): an index-2 subgroup of
    quaternion_normalizer_spec(p).  For p = 7 and p = 23 its affine group has
    exactly two equal orbits on nonzero vectors."""
    x, y, s = _quaternion_units(p)
    odd_part = (p - 1) // ((p - 1) & -(p - 1))
    return central_product_with_scalars(p, (x, y, s), odd_part)


def extraspecial_normalizer_spec(n: int) -> MatrixGroupSpec:
    """Shipped generator sets for the normalizers of extraspecial-type 2-group
    representations: on GF(5)^4 (n = 625, order 46080), GF(7)^4 (n = 2401,
    order 11520), and GF(3)^8 (n = 6561, order 6635520).  The files are
    derived and verified by scripts/derive_extraspecial_rows.py.
    ValueError for any other n."""
    if n not in (625, 2401, 6561):
        raise ValueError(f"no extraspecial normalizer data for n = {n}")
    res = importlib.resources.files("rank3").joinpath(f"data/extraspecial_{n}.txt")
    return parse_matrix_spec(res.read_text(encoding="utf-8"))


# -- the family table ---------------------------------------------------------------


def _ints(arity: int) -> Callable[[list[str]], tuple]:
    """A parser of `arity` integer descriptor fields."""

    def parse(fields: list[str]) -> tuple:
        if len(fields) != arity:
            raise ValueError(f"want {arity} fields after the family name")
        return tuple(int(f) for f in fields)

    return parse


def _parse_polar(fields: list[str]) -> tuple:
    """sign:dim:q -> (m, q, epsilon) with dim = 2m."""
    if len(fields) != 3:
        raise ValueError("want sign:dim:q")
    epsilon = {"+": 1, "-": -1}.get(fields[0])
    if epsilon is None:
        raise ValueError(f"bad sign {fields[0]!r}, want + or -")
    dim, q = int(fields[1]), int(fields[2])
    if dim % 2 != 0:
        raise ValueError(f"dimension {dim} must be even")
    return dim // 2, q, epsilon


# The orbital family's named zero-stabilizers, by kind; only sl25 takes a
# seed.  Any other descriptor orbital:<path> names a spec file, kind "file".
_ORBITAL_KINDS = {
    "q8": lambda p, seed: quaternion_normalizer_spec(p),
    "sl25": sl25_with_scalars_spec,
    "sl23": lambda p, seed: sl23_with_scalars_spec(p),
    "extraspecial": lambda n, seed: extraspecial_normalizer_spec(n),
}


def _parse_orbital(fields: list[str]) -> tuple:
    if len(fields) == 2 and fields[0] in _ORBITAL_KINDS:
        return fields[0], int(fields[1])
    if not fields:
        raise ValueError("want orbital:<kind>:<p> or orbital:<spec-file>")
    return "file", ":".join(fields)


@dataclass(frozen=True)
class _Family:
    """One family: its descriptor head and the parser of the fields after
    it, its graph and its zero-stabilizer.

    The zero-stabilizer is the stabilizer of vertex 0 in the family's known
    group, declared once: ``stabilizer(*params)`` as permutations, or else
    the matrix group ``spec(*params, seed)``, whose action on the vectors
    (spec.perms) is G0.  ``seed`` reaches only the sl25 spec, whose
    generators it conjugates.
    ``graph`` is None for the orbital family, whose graph is built from its
    spec.
    """

    head: str
    parse: Callable[[list[str]], tuple]
    graph: Callable[..., DenseGraph] | None
    stabilizer: Callable[..., GeneratorSet] | None = None
    spec: Callable[..., MatrixGroupSpec] | None = None


_FAMILIES = {
    "Paley": _Family(
        "paley", _ints(1), paley,
        stabilizer=lambda q: semilinear_stabilizer_perms(_field(q), 2),
    ),
    "Peisert": _Family(
        "peisert", _ints(1), peisert,
        stabilizer=lambda q: semilinear_stabilizer_perms(_field(q), 4, twist=1),
    ),
    "VLS": _Family(
        "vls", _ints(2), van_lint_schrijver,
        stabilizer=lambda q, e: semilinear_stabilizer_perms(_field(q), e),
    ),
    "Hamming2": _Family(
        "hamming2", _ints(1), hamming2,
        stabilizer=hamming2_stabilizer,
    ),
    "AffinePolar": _Family(
        "vo", _parse_polar, affine_polar,
        spec=lambda m, q, eps, seed: affine_polar_group(m, q, eps),
    ),
    "BilinearForms": _Family(
        "hq", _ints(2), bilinear_forms,
        spec=lambda q, m, seed: bilinear_forms_group(q, m),
    ),
    "AlternatingForms": _Family(
        "a52", _ints(0), alternating_forms,
        spec=lambda seed: alternating_forms_group(),
    ),
    "AffineOrbital": _Family(
        "orbital", _parse_orbital, None,
        spec=lambda kind, arg, seed: (
            read_matrix_spec(arg) if kind == "file" else _ORBITAL_KINDS[kind](arg, seed)
        ),
    ),
}

FAMILY_TAGS = tuple(_FAMILIES)
_TAG_BY_HEAD = {fam.head: tag for tag, fam in _FAMILIES.items()}


@dataclass(frozen=True)
class FamilyId:
    """A family tag plus its parameters: parse_descriptor reads one off its
    descriptor, and family_graph builds its graph."""

    tag: str
    params: tuple

    def __post_init__(self) -> None:
        if self.tag not in FAMILY_TAGS:
            raise ValueError(f"unknown family tag {self.tag!r}")


def parse_descriptor(text: str) -> FamilyId:
    """Parse a CLI family descriptor: paley:49, peisert:81, vls:16:3,
    hamming2:9, vo:-:4:2 (sign:dim:q), hq:2:3 (q:m), a52,
    orbital:q8:13, orbital:sl25:41, or orbital:<spec-file>."""
    head, *fields = text.strip().split(":")
    tag = _TAG_BY_HEAD.get(head.lower())
    if tag is None:
        raise ValueError(f"unknown family descriptor {text!r}")
    try:
        return FamilyId(tag, _FAMILIES[tag].parse(fields))
    except ValueError as exc:
        raise ValueError(f"bad family descriptor {text!r}: {exc}") from None


@dataclass(frozen=True)
class Build:
    """One family row: its ``spec``, ``stabilizer``, ``orbits`` and
    ``graph``, each made on first read and at most once.

    ``stabilizer`` is G0, the stabilizer of vertex 0 in the family's known
    group, as permutations of the vertices, and ``orbits`` are its orbits on
    the other vertices (stabilizer_orbits), which give the rank and
    subdegrees.  ``spec`` is G0 as a matrix group over GF(p) when the family
    has one, and G0 is then the action the spec made when it was built,
    spec.perms itself; ``spec`` is None for a family declared by
    permutations.  An orbital row's graph is cut from orbit 0 of its G0, so
    reading it makes the spec and the orbits first; every other row's graph
    makes no group.  ``seed`` reaches only the sl25 spec, whose generators
    it conjugates by a seeded random matrix (see _binary_icosahedral); None
    does not.
    """

    fid: FamilyId
    seed: int | None = None

    @cached_property
    def spec(self) -> MatrixGroupSpec | None:
        fam = _FAMILIES[self.fid.tag]
        return None if fam.spec is None else fam.spec(*self.fid.params, self.seed)

    @cached_property
    def stabilizer(self) -> GeneratorSet:
        if self.spec is not None:
            return self.spec.perms
        return _FAMILIES[self.fid.tag].stabilizer(*self.fid.params)

    @cached_property
    def orbits(self) -> list[np.ndarray]:
        return stabilizer_orbits(self.stabilizer)

    @cached_property
    def graph(self) -> DenseGraph:
        fam = _FAMILIES[self.fid.tag]
        if fam.graph is None:
            return _orbital_graph(self.spec, self.orbits)
        return fam.graph(*self.fid.params)


def family_matrix_spec(fid: FamilyId) -> MatrixGroupSpec | None:
    """Build(fid).spec: G0 of an affine family as a matrix group over GF(p),
    None for a family declared by permutations (the one-dimensional
    semilinear families and the product-action hamming2)."""
    return Build(fid).spec


def family_graph(fid: FamilyId) -> DenseGraph:
    """Build(fid).graph: the graph a FamilyId names."""
    return Build(fid).graph


def family_group(fid: FamilyId) -> GeneratorSet:
    """A transitive group of known automorphisms of family_graph(fid): the
    translations by the graph's moduli plus Build(fid).stabilizer.  A family
    with a spec has the graph on GF(p)**d, whose moduli are (p,) * d as
    cayley_graph makes them, so the graph (on an orbital row, G0's orbits
    and the graph cut from them) is not built to read them."""
    row = Build(fid)
    spec = row.spec
    moduli = row.graph.moduli if spec is None else (spec.p,) * spec.d
    return with_translations(row.stabilizer, moduli)
