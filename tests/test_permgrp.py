"""Tests for rank3.permgrp.

Ground truth used here
----------------------
* Group orders of small symmetric/dihedral/cyclic groups are textbook facts.
* Every order computed by the stabilizer chain is cross-checked against an
  independent brute-force multiplication closure for groups up to order 5040.
* The normalizer facts for the quaternion subgroup of GL_2(p) were frozen from
  an independent brute-force enumeration of all of GL_2(p) (scan every
  invertible matrix, keep those conjugating the 8-element subgroup into
  itself, then compute vector orbits by closure):
    p = 7 :  normalizer order 144, transitive on the 48 nonzero vectors;
    p = 13:  normalizer order 288, vector orbits of sizes 72 and 96;
    p = 23:  normalizer order 528, transitive on the 528 nonzero vectors.
  At p = 7 and p = 23 the rank-3 group is the index-2 subgroup obtained from
  the quaternion group, a det-1 element of order 6 cycling its generators,
  and a scalar of odd order ((p-1)/2 coprime factors): orbits split evenly.
"""

import math
import random
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rank3.families import (
    BadCongruence,
    _binary_icosahedral,
    family_group,
    parse_descriptor,
    quaternion_normalizer_spec,
)
from rank3.gf import DoesNotDivide, make_field
from rank3.permgrp import (
    BadOrder,
    GeneratorSet,
    MatrixGroupSpec,
    NotTransitive,
    SingularGenerator,
    Timeout,
    central_product_with_scalars,
    format_matrix_spec,
    linear_perms,
    orbit,
    orbit_mask,
    orbit_partition,
    parse_matrix_spec,
    rank_and_subdegrees,
    reaches_order,
    read_matrix_spec,
    schreier_sims,
    semilinear_stabilizer_perms,
    with_translations,
)
from rank3.permgrp import (
    _base_product,
    _extend_orbit,
    _invert_img,
    _Level,
    _transversal_img,
)


def affine(spec):
    """V:<spec> on the p**d vectors: the translations and the linear maps."""
    return with_translations(linear_perms(spec), (spec.p,) * spec.d)


def perm(n, *cycles):
    """The image array of the permutation of [0, n) with the given cycles."""
    img = np.arange(n, dtype=np.int32)
    for cyc in cycles:
        img[list(cyc)] = cyc[1:] + cyc[:1]
    return img


def brute_closure(gens):
    """All elements of <gens> as image tuples, by plain breadth-first products."""
    n = len(gens[0])
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for t in frontier:
            arr = np.array(t, dtype=np.int64)
            for g in gens:
                prod = tuple(int(x) for x in g[arr])
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


def sym_gens(n):
    return GeneratorSet(n, (perm(n, (0, 1)), perm(n, tuple(range(n)))))


def q8_mats(p, a, b):
    """The eight quaternion matrices over GF(p), from X^2 = Y^2 = -I, XY = -YX.

    Requires a^2 + b^2 = -1 mod p.
    """
    assert (a * a + b * b + 1) % p == 0
    ident = np.eye(2, dtype=np.int64)
    x = np.array([[0, p - 1], [1, 0]], dtype=np.int64)
    y = np.array([[a, b], [b, (p - a) % p]], dtype=np.int64)
    xy = x @ y % p
    return [m % p for m in (ident, -ident, x, -x, y, -y, xy, -xy)]


def cube_cycler(p, a, b):
    """(I + X + Y + XY)/2 mod p: a det-1 element of order 6 whose conjugation
    permutes X -> Y -> XY cyclically."""
    ident, _, x, _, y, _, xy, _ = q8_mats(p, a, b)
    half = pow(2, -1, p)
    s = (ident + x + y + xy) * half % p
    return s


# -- generator sets and stabilizer-chain levels ------------------------------------


def test_generator_set_is_a_read_only_int32_array():
    gs = GeneratorSet(5, [perm(5, (0, 1)), np.arange(5, dtype=np.int64), [4, 3, 2, 1, 0]])
    assert gs.gens.shape == (3, 5) and gs.gens.dtype == np.int32
    assert gs.gens.flags.c_contiguous and not gs.gens.flags.writeable
    assert gs.gens[2].tolist() == [4, 3, 2, 1, 0]
    assert GeneratorSet(4, ()).gens.shape == (0, 4)


def test_validation_errors():
    with pytest.raises(ValueError):
        GeneratorSet(3, ([0, 0, 1],))
    with pytest.raises(ValueError):
        GeneratorSet(2, ([0, 2],))
    with pytest.raises(ValueError):
        GeneratorSet(2, ([[0, 1], [1, 0]],))
    with pytest.raises(ValueError):
        GeneratorSet(4, (np.arange(4), [0, 2, 1]))


def test_generator_set_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        GeneratorSet(4, (np.arange(3),))


def test_inverse_and_identity():
    # a level keeps each generator's inverse beside it
    lvl = _Level(0, 5)
    g = perm(5, (0, 1, 2, 3, 4))
    lvl.append(g)
    assert np.array_equal(lvl.invs[0][g], np.arange(5))
    assert np.array_equal(g[lvl.invs[0]], np.arange(5))
    assert lvl.invs[0][1] == 0
    assert np.array_equal(_invert_img(np.arange(4, dtype=np.int32)), np.arange(4))


def test_composition_applies_right_factor_first():
    # (a * b)(x) = a[b[x]]: a transversal element, composed from its word
    # that way, carries the level's base point to x
    lvl = _Level(0, 4)
    for g in sym_gens(4).gens:
        lvl.append(g)
    _extend_orbit(lvl, 4)
    for x in range(1, 4):
        assert _transversal_img(lvl, x)[0] == x


# -- orbits ---------------------------------------------------------------------


def test_orbit_basic():
    gs = GeneratorSet(6, (perm(6, (0, 1, 2)), perm(6, (3, 4))))
    assert orbit(gs, 0) == {0, 1, 2}
    assert orbit(gs, 4) == {3, 4}
    assert orbit(gs, 5) == {5}
    with pytest.raises(ValueError):
        orbit(gs, 6)


def test_orbit_partition_ordering_and_empty_gens():
    gs = GeneratorSet(6, (perm(6, (1, 5), (2, 3)),))
    parts = orbit_partition(gs)
    assert [list(p) for p in parts] == [[0], [1, 5], [2, 3], [4]]
    singletons = orbit_partition(GeneratorSet(4, ()))
    assert [list(p) for p in singletons] == [[0], [1], [2], [3]]


def test_orbit_partition_field_square_classes():
    # multiplication by omega^2 and the p-power map on GF(9): 0 is fixed,
    # the nonzero squares and nonsquares form orbits of size 4 each
    f9 = make_field(3, 2)
    gs = semilinear_stabilizer_perms(f9, 2)
    parts = orbit_partition(gs)
    assert sorted(p.size for p in parts) == [1, 4, 4]
    assert list(parts[0]) == [0]


def _scalar_closure(imgs, seeds) -> set[int]:
    """The closure of the seed points under imgs, one point at a time."""
    seen, stack = set(seeds), list(seeds)
    while stack:
        x = stack.pop()
        for img in imgs:
            y = int(img[x])
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _per_generator_closure(imgs, seeds) -> np.ndarray:
    """The closure of a seed mask under imgs, breadth-first with one gather
    per generator and round: orbit_mask before it stacked the generators."""
    seen = np.array(seeds, dtype=bool)
    frontier = np.flatnonzero(seen)
    while frontier.size:
        parts = []
        for img in imgs:
            y = img[frontier]
            y = y[~seen[y]]
            if y.size:
                seen[y] = True
                parts.append(y)
        frontier = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    return seen


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.data())
def test_orbit_mask_matches_scalar_closure(n, data):
    # generators are either uniform permutations or products of a few
    # transpositions, which leave many orbits; one gather per round over
    # their (k, n) stack closes exactly what one point at a time and one
    # gather per generator and round do, the empty (0, n) stack included
    imgs = []
    for _ in range(data.draw(st.integers(0, 6))):
        if data.draw(st.booleans()):
            img = np.array(data.draw(st.permutations(range(n))))
        else:
            img = np.arange(n)
            swaps = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            for a, b in data.draw(st.lists(swaps, max_size=4)):
                img[[a, b]] = img[[b, a]]
        imgs.append(img)
    imgs = np.array(imgs, dtype=np.int32).reshape(len(imgs), n)
    seeds = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    before = seeds.copy()
    mask = orbit_mask(imgs, seeds)
    assert np.array_equal(seeds, before)
    assert set(np.flatnonzero(mask).tolist()) == _scalar_closure(
        imgs, np.flatnonzero(seeds).tolist()
    )
    assert np.array_equal(mask, _per_generator_closure(imgs, seeds))
    assert np.array_equal(orbit_mask(np.empty((0, n), dtype=np.int32), seeds), seeds)
    parts = orbit_partition(GeneratorSet(n, imgs))
    assert np.array_equal(np.sort(np.concatenate(parts)), np.arange(n))
    assert [int(p[0]) for p in parts] == sorted(int(p[0]) for p in parts)
    for part in parts:
        assert part.tolist() == sorted(_scalar_closure(imgs, [int(part[0])]))


# -- stabilizer chain -----------------------------------------------------------


def test_orders_of_standard_groups():
    assert schreier_sims(sym_gens(4)).order == 24
    assert schreier_sims(sym_gens(7)).order == 5040
    c5 = GeneratorSet(5, (perm(5, (0, 1, 2, 3, 4)),))
    assert schreier_sims(c5).order == 5
    hexagon = GeneratorSet(
        6, (perm(6, (0, 1, 2, 3, 4, 5)), perm(6, (1, 5), (2, 4)))
    )
    assert schreier_sims(hexagon).order == 12
    # trivial group
    assert schreier_sims(GeneratorSet(5, (np.arange(5),))).order == 1


def test_reaches_order_is_a_certified_lower_bound():
    assert reaches_order(sym_gens(7), 5040)
    assert reaches_order(sym_gens(7), 7)
    assert not reaches_order(sym_gens(7), 5041)
    assert not reaches_order(GeneratorSet(5, (np.arange(5),)), 2)


def test_order_certificate_stops_at_its_deadline():
    # a target above the true order leaves only the exact run to answer, and
    # a deadline already passed stops it (and the random phase) at once
    gs, past = sym_gens(7), time.monotonic() - 1.0
    with pytest.raises(Timeout):
        reaches_order(gs, 5041, deadline=past)
    with pytest.raises(Timeout):
        schreier_sims(gs, deadline=past)
    assert not reaches_order(gs, 5041, deadline=time.monotonic() + 60.0)


def _gens_on(n, images):
    return GeneratorSet(n, images)


def _block_images(n, data):
    """A random permutation of [0, n) preserving the blocks {0, 1}, {2, 3},
    ...: it permutes the blocks and may swap within each.  Such groups are
    imprimitive, with longer chains than the symmetric and alternating
    groups that random permutations mostly generate."""
    pairs = n // 2
    blocks = data.draw(st.permutations(range(pairs)))
    flips = data.draw(st.lists(st.booleans(), min_size=pairs, max_size=pairs))
    img = list(range(n))
    for b, (t, f) in enumerate(zip(blocks, flips)):
        img[2 * b], img[2 * b + 1] = (2 * t + 1, 2 * t) if f else (2 * t, 2 * t + 1)
    return img


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.booleans(), st.data())
def test_reaches_order_is_exact_on_random_groups(n, imprimitive, data):
    # the random phase returns True only from a certified orbit product, and
    # False comes from the exact run: the order o is reached, o + 1 is not
    k = data.draw(st.integers(1, 3))
    if imprimitive and n >= 2:
        images = [_block_images(n, data) for _ in range(k)]
    else:
        images = [data.draw(st.permutations(range(n))) for _ in range(k)]
    gs = _gens_on(n, images)
    o = schreier_sims(gs).order
    assert reaches_order(gs, o)
    assert not reaches_order(gs, o + 1)
    sub = _gens_on(n, images[:1])
    if schreier_sims(sub).order < o:
        assert not reaches_order(sub, o)
    # along any distinct points, a base of the group or not, the orbit
    # product is a lower bound, and the answers are the same
    b = tuple(data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)))
    assert _base_product(gs, b, math.inf) <= o
    assert reaches_order(gs, o, base=b)
    assert not reaches_order(gs, o + 1, base=b)


def test_base_product_certifies_without_a_chain(monkeypatch):
    # the adjacent transpositions (i i+1) fixing 0..i-1 generate their
    # stabilizer in S_7, so along the base 0..6 the orbit product is
    # 7 * 6 * ... * 1 = 5040 and the certificate never builds a chain; a
    # target above it still does.  Under sym_gens no generator fixes 0
    import rank3.permgrp as permgrp

    gs, base = GeneratorSet(7, tuple(perm(7, (i, i + 1)) for i in range(6))), tuple(range(7))
    assert _base_product(gs, base, math.inf) == 5040
    assert _base_product(sym_gens(7), base, math.inf) == 7

    def no_chain(*args, **kwargs):
        raise AssertionError("stabilizer chain built")

    monkeypatch.setattr(permgrp, "_chain", no_chain)
    assert reaches_order(gs, 5040, base=base)
    assert reaches_order(gs, 5040, base=base, deadline=time.monotonic() + 60.0)
    with pytest.raises(AssertionError, match="chain built"):
        reaches_order(gs, 5041, base=base)
    # a passed deadline stops the orbit product too
    with pytest.raises(Timeout):
        reaches_order(gs, 5040, base=base, deadline=time.monotonic() - 1.0)


def test_proper_subgroup_never_reaches_the_group_order():
    for n in range(4, 10):
        # the 3-cycles (0 1 i) generate A_n
        alt = GeneratorSet(n, tuple(perm(n, (0, 1, i)) for i in range(2, n)))
        assert schreier_sims(alt).order == math.factorial(n) // 2
        assert reaches_order(alt, math.factorial(n) // 2)
        assert not reaches_order(alt, math.factorial(n))
    # C2 wr S4 (order 2^4 * 24) against its subgroup C2 x S4 (diagonal flips)
    swap = perm(8, (0, 1))
    blocks = [perm(8, (0, 2), (1, 3)), perm(8, (0, 2, 4, 6), (1, 3, 5, 7))]
    wreath = GeneratorSet(8, (swap, *blocks))
    assert schreier_sims(wreath).order == 384
    diagonal = GeneratorSet(8, (perm(8, (0, 1), (2, 3), (4, 5), (6, 7)), *blocks))
    assert schreier_sims(diagonal).order == 48
    assert reaches_order(diagonal, 48)
    assert not reaches_order(diagonal, 384)


def test_reaches_order_leaves_the_global_rng_alone():
    gs = family_group(parse_descriptor("paley:9"))
    answers = []
    for seed in (1, 2):
        np.random.seed(seed)
        random.seed(seed)
        before = np.random.get_state()[1].copy(), random.getstate()
        answers.append((reaches_order(gs, 72), reaches_order(gs, 73)))
        assert np.array_equal(np.random.get_state()[1], before[0])
        assert random.getstate() == before[1]
    assert answers == [(True, False), (True, False)]


def test_orders_match_brute_force_closure():
    corpus = {
        "cyclic6": GeneratorSet(6, (perm(6, (0, 1, 2, 3, 4, 5)),)),
        "square": GeneratorSet(
            4, (perm(4, (0, 1, 2, 3)), perm(4, (1, 3)))
        ),
        "alt4": GeneratorSet(4, (perm(4, (0, 1, 2)), perm(4, (1, 2, 3)))),
        "sym5": sym_gens(5),
        "affine9": family_group(parse_descriptor("paley:9")),
        # 41 copies of (0 1) are more trivial sifts in a row than the random
        # phase's stop rule allows: the inputs must be read outside it, or
        # the 5-cycle is never read and the order comes out as 2
        "sym5_late_cycle": GeneratorSet(
            5, [perm(5, (0, 1))] * 41 + [perm(5, (0, 1, 2, 3, 4))]
        ),
    }
    for name, gs in corpus.items():
        bsgs = schreier_sims(gs)
        elements = brute_closure(list(gs.gens))
        assert bsgs.order == len(elements), name
        assert reaches_order(gs, len(elements)), name
        assert not reaches_order(gs, len(elements) + 1), name
        sample = sorted(elements)[:: max(1, len(elements) // 20)]
        for t in sample:
            assert bsgs.contains(t), name
    assert schreier_sims(corpus["affine9"]).order == 72


def test_contains_rejects_non_members():
    alt4 = GeneratorSet(4, (perm(4, (0, 1, 2)), perm(4, (1, 2, 3))))
    bsgs = schreier_sims(alt4)
    assert bsgs.order == 12
    assert not bsgs.contains(perm(4, (0, 1)))
    assert bsgs.contains(perm(4, (0, 1), (2, 3)))
    assert not bsgs.contains(np.arange(5))  # degree mismatch
    assert bsgs.contains(np.arange(4))


def test_base_prefix_is_respected():
    bsgs = schreier_sims(sym_gens(7), base_prefix=(3, 1))
    assert bsgs.base[:2] == (3, 1)
    assert bsgs.order == 5040
    stab = bsgs.stabilizer_generators(1)
    for g in stab.gens:
        assert g[3] == 3
    assert schreier_sims(stab).order == 720


def test_stabilizer_chain_orders():
    bsgs = schreier_sims(sym_gens(4), base_prefix=(0,))
    stab = bsgs.stabilizer_generators(1)
    assert schreier_sims(stab).order == 6


# -- rank and subdegrees ----------------------------------------------------------


def test_rank_of_symmetric_group_is_two():
    assert rank_and_subdegrees(sym_gens(5)) == (2, [4])
    assert rank_and_subdegrees(sym_gens(7)) == (2, [6])


def test_rank_of_regular_translation_group():
    spec = MatrixGroupSpec(2, 2, (np.eye(2, dtype=np.int64),))
    gs = affine(spec)
    assert schreier_sims(gs).order == 4
    assert rank_and_subdegrees(gs) == (4, [1, 1, 1])


def test_rank_affine_semilinear_groups():
    # x -> omega^e x and the Frobenius map, with the translations
    gs = family_group(parse_descriptor("paley:13"))
    assert schreier_sims(gs).order == 13 * 6
    assert rank_and_subdegrees(gs) == (3, [6, 6])

    gs16 = family_group(parse_descriptor("vls:16:3"))
    assert schreier_sims(gs16).order == 16 * 5 * 4
    assert rank_and_subdegrees(gs16) == (3, [5, 10])


def test_rank_twisted_power_map_group():
    # x -> omega^4 x and x -> omega x^3 on GF(81): both vector orbits have
    # size 40 and the affine closure has order 81 * 80
    gs = family_group(parse_descriptor("peisert:81"))
    assert schreier_sims(gs).order == 81 * 80
    assert rank_and_subdegrees(gs) == (3, [40, 40])


def test_rank_requires_transitive():
    f13 = make_field(13, 1)
    with pytest.raises(NotTransitive):
        rank_and_subdegrees(semilinear_stabilizer_perms(f13, 2))


def test_rank_degree_cap():
    with pytest.raises(ValueError):
        rank_and_subdegrees(GeneratorSet(5000, (np.arange(5000),)))


def test_semilinear_divisor_check():
    f13 = make_field(13, 1)
    with pytest.raises(DoesNotDivide):
        semilinear_stabilizer_perms(f13, 5)


# -- matrix groups ----------------------------------------------------------------


def test_singular_generator_rejected():
    with pytest.raises(SingularGenerator):
        MatrixGroupSpec(3, 2, (np.array([[1, 1], [2, 2]]),))


def cofactor_det(mat: list[list[int]], p: int) -> int:
    """det(mat) mod p by cofactor expansion along the first row, the minors
    on the remaining rows memoized by their column sets."""
    d = len(mat)
    memo = {}

    def minor(row: int, cols: tuple[int, ...]) -> int:
        if row == d:
            return 1
        if (row, cols) not in memo:
            memo[row, cols] = sum(
                (-1) ** i * mat[row][c] * minor(row + 1, cols[:i] + cols[i + 1 :])
                for i, c in enumerate(cols)
            )
        return memo[row, cols]

    return minor(0, tuple(range(d))) % p


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_stacked_determinants_match_cofactor_expansion(p):
    # random stacks of every size d <= 8 with p**d <= 2**16, a quarter of the
    # matrices made singular by a repeated or a scaled row: MatrixGroupSpec
    # accepts a matrix exactly when its cofactor determinant is nonzero mod
    # p, and a whole stack shows its first singular matrix
    rng = random.Random(p)
    for d in range(1, 9):
        mats = [[[rng.randrange(p) for _ in range(d)] for _ in range(d)] for _ in range(24)]
        for mat in mats[::4]:
            if d > 1:
                mat[rng.randrange(1, d)] = [x * rng.randrange(p) % p for x in mat[0]]
            else:
                mat[0][0] = 0
        if p**d > 2**16:
            continue
        dets = [cofactor_det(mat, p) for mat in mats]
        for mat, det in zip(mats, dets):
            if det:
                MatrixGroupSpec(p, d, (mat,))
            else:
                with pytest.raises(SingularGenerator):
                    MatrixGroupSpec(p, d, (mat,))
        first = mats[dets.index(0)]
        with pytest.raises(SingularGenerator, match=re.escape(str(np.array(first)))):
            MatrixGroupSpec(p, d, mats)


@pytest.mark.parametrize("p", [2, 3])
def test_singular_generator_inside_a_stack_of_8x8(p):
    # invertible unitriangular 8 x 8 matrices around one singular matrix,
    # whose repeated row gives it a nonzero kernel: the message shows that
    # matrix, reduced mod p, and the stack without it is accepted
    rng = random.Random(p)
    mats = []
    for _ in range(7):
        m = np.triu(np.array([[rng.randrange(p) for _ in range(8)] for _ in range(8)]), 1)
        mats.append(m + np.eye(8, dtype=np.int64))
    bad = mats[3].copy()
    bad[5] = bad[2] + p  # a repeated row, off by p before the reduction
    mats[3] = bad
    with pytest.raises(SingularGenerator, match=re.escape(f"singular mod {p}:\n{bad % p}")):
        MatrixGroupSpec(p, 8, mats)
    del mats[3]
    assert len(MatrixGroupSpec(p, 8, mats).gens) == 6


def test_singular_generator_shows_the_first_singular_matrix():
    # two singular generators after an invertible one: the message shows the
    # first of them, reduced mod p
    gens = (np.eye(2, dtype=int), np.array([[4, 1], [2, 2]]), np.zeros((2, 2), dtype=int))
    with pytest.raises(SingularGenerator, match=re.escape("singular mod 3:\n[[1 1]\n [2 2]]")):
        MatrixGroupSpec(3, 2, gens)


def test_matrix_spec_takes_a_stack_as_read_only_views():
    stack = np.array([[[1, 1], [0, 1]], [[0, 1], [1, 0]]])
    spec = MatrixGroupSpec(2, 2, stack)
    assert isinstance(spec.gens, tuple) and len(spec.gens) == 2
    for g, want in zip(spec.gens, stack):
        assert g.dtype == np.int64 and not g.flags.writeable
        assert np.array_equal(g, want)
    listed = MatrixGroupSpec(2, 2, list(stack))
    assert np.array_equal(linear_perms(spec).gens, linear_perms(listed).gens)


def test_matrix_spec_shape_checked():
    with pytest.raises(ValueError):
        MatrixGroupSpec(3, 2, (np.eye(3, dtype=np.int64),))


@pytest.mark.parametrize("p, d", [(2, 0), (2, -1), (2, 17), (257, 2), (3, 11), (2, 10**9)])
def test_matrix_spec_size_bounded(p, d):
    # the group acts on all p**d vectors, at most 2**16 of them as in gf
    with pytest.raises(ValueError, match=r"d >= 1 and p\*\*d <= 65536"):
        MatrixGroupSpec(p, d, ())


def test_matrix_spec_size_bound_is_inclusive():
    assert MatrixGroupSpec(2, 16, ()).d == 16
    assert MatrixGroupSpec(251, 2, ()).p == 251


def test_multiplication_by_generator_matches_companion_matrix():
    # multiplication by omega on GF(9) = GF(3)[x]/(x^2 + x + 2), written as a
    # 2x2 matrix over GF(3) in the power-basis coordinates
    f9 = make_field(3, 2)
    spec = MatrixGroupSpec(3, 2, (np.array([[0, 1], [1, 2]]),))
    lin = linear_perms(spec).gens[0]
    mult = semilinear_stabilizer_perms(f9, 1).gens[0]
    assert np.array_equal(lin, mult)


def test_gl2_of_gf2_affine_action():
    spec = MatrixGroupSpec(2, 2, (np.array([[1, 1], [0, 1]]), np.array([[0, 1], [1, 0]])))
    assert schreier_sims(linear_perms(spec)).order == 6
    gs = affine(spec)
    assert schreier_sims(gs).order == 24
    assert rank_and_subdegrees(gs) == (2, [3])


def test_affine_gl2_3_order():
    spec = MatrixGroupSpec(
        3, 2, (np.array([[1, 1], [0, 1]]), np.array([[1, 0], [1, 1]]), np.diag([2, 1]))
    )
    assert schreier_sims(affine(spec)).order == 9 * 48


def order(spec):
    return schreier_sims(linear_perms(spec)).order


def test_quaternion_normalizer_mod_7_is_transitive():
    # frozen brute-force fact: the normalizer has order 144 and a single
    # orbit on the 48 nonzero vectors, so its affine closure is 2-transitive
    spec = quaternion_normalizer_spec(7)
    assert order(spec) == 144
    assert rank_and_subdegrees(affine(spec)) == (2, [48])


def test_quaternion_with_cycler_and_scalar_mod_7_splits_evenly():
    # the index-2 subgroup of the normalizer: quaternion group, generator
    # cycler, and a scalar of order 3 -- order 72, orbits 24 + 24
    x = np.array([[0, 6], [1, 0]])
    y = np.array([[2, 3], [3, 5]])
    s = cube_cycler(7, 2, 3)
    assert order(MatrixGroupSpec(7, 2, (x, y, s))) == 24
    gens = (x, y, s, 2 * np.eye(2, dtype=np.int64))
    spec = MatrixGroupSpec(7, 2, gens)
    assert order(spec) == 72
    assert rank_and_subdegrees(affine(spec)) == (3, [24, 24])


def test_quaternion_normalizer_mod_13_has_rank_3():
    spec = quaternion_normalizer_spec(13)
    assert order(spec) == 288
    assert rank_and_subdegrees(affine(spec)) == (3, [72, 96])


def test_quaternion_normalizer_mod_23_is_transitive():
    # frozen brute-force fact: order 528, transitive; the even split comes
    # from the index-2 subgroup with a scalar of order 11
    spec = quaternion_normalizer_spec(23)
    assert order(spec) == 528
    assert rank_and_subdegrees(affine(spec)) == (2, [528])
    x = np.array([[0, 22], [1, 0]])
    y = np.array([[2, 8], [8, 21]])
    s = cube_cycler(23, 2, 8)
    gens = (x, y, s, 2 * np.eye(2, dtype=np.int64))  # 2 has order 11 mod 23
    spec264 = MatrixGroupSpec(23, 2, gens)
    assert order(spec264) == 264
    assert rank_and_subdegrees(affine(spec264)) == (3, [264, 264])


def test_quaternion_normalizer_beyond_a_gl2_scan():
    # every generator is checked to normalize Q8 when the spec is built, so
    # the group lies in the normalizer, whose order is 24(p - 1); reaching
    # that order makes it the whole normalizer, also at p = 53 > 50, where
    # enumerating GL_2(p) was refused
    assert order(quaternion_normalizer_spec(53)) == 24 * 52


@pytest.mark.parametrize(
    "p", [31, 41, pytest.param(71, marks=pytest.mark.slow), pytest.param(89, marks=pytest.mark.slow)]
)
def test_sl25_orders(p):
    pair = _binary_icosahedral(p)
    assert order(MatrixGroupSpec(p, 2, pair)) == 120
    assert order(central_product_with_scalars(p, pair, p - 1)) == 60 * (p - 1)


def test_sl25_search_mod_41():
    big = central_product_with_scalars(41, _binary_icosahedral(41), 40)
    gs = affine(big)
    assert rank_and_subdegrees(gs) == (3, [480, 1200])
    assert schreier_sims(gs).order == 41**2 * 2400


def test_sl25_search_mod_31():
    big = central_product_with_scalars(31, _binary_icosahedral(31), 15)
    assert order(big) == 1800
    assert rank_and_subdegrees(affine(big)) == (3, [360, 600])


def test_sl25_search_fails_cleanly():
    # sqrt(5) exists mod p only for p = +-1 mod 5
    with pytest.raises(BadCongruence):
        _binary_icosahedral(7)
    with pytest.raises(BadCongruence):
        _binary_icosahedral(2)


def test_scalar_adjunction_validation():
    gens = (np.eye(2, dtype=np.int64),)
    with pytest.raises(BadOrder):
        central_product_with_scalars(13, gens, 5)
    # a scalar of order 1 adds no generator
    same = central_product_with_scalars(13, gens, 1)
    assert (same.p, same.d) == (13, 2)
    assert np.array_equal(np.stack(same.gens), np.stack(MatrixGroupSpec(13, 2, gens).gens))
    bigger = central_product_with_scalars(13, gens, 3)
    assert len(bigger.gens) == 2
    lam = int(bigger.gens[1][0, 0])
    assert pow(lam, 3, 13) == 1 and lam != 1


# -- matrix spec files -------------------------------------------------------------


def test_matrix_spec_text_roundtrip(tmp_path):
    spec = MatrixGroupSpec(
        7, 2, (np.array([[0, 6], [1, 0]]), np.array([[2, 3], [3, 5]]))
    )
    again = parse_matrix_spec(format_matrix_spec(spec))
    assert again.p == 7 and again.d == 2
    assert all(np.array_equal(a, b) for a, b in zip(again.gens, spec.gens))

    path = tmp_path / "group.txt"
    path.write_text(format_matrix_spec(spec))
    again2 = read_matrix_spec(path)
    assert all(np.array_equal(a, b) for a, b in zip(again2.gens, spec.gens))

    with_comments = "# affine group\n7 2\n\n0 6 1 0  # one generator\n"
    parsed = parse_matrix_spec(with_comments)
    assert parsed.p == 7 and len(parsed.gens) == 1


def test_matrix_spec_parse_errors():
    with pytest.raises(ValueError):
        parse_matrix_spec("")
    with pytest.raises(ValueError):
        parse_matrix_spec("3 2\n1 0 0")


# a header that is not two integers, and a generator line that is not d*d
# integers, each named by its line number (comments and blank lines count)
MALFORMED_SPECS = [
    ("2\n", r"line 1: expected a 'p d' header of two integers, got '2'"),
    ("# header\n2 x\n", r"line 2: expected a 'p d' header of two integers, got '2 x'"),
    ("3 2\n\n1 0 0 1\n1 0 x 1\n", r"line 4: expected a generator of d\*d = 4 integers, got '1 0 x 1'"),
]


@pytest.mark.parametrize(
    "text, message", MALFORMED_SPECS, ids=["short-header", "non-integer-header", "non-integer-generator"]
)
def test_matrix_spec_malformed_line_named(text, message, tmp_path):
    with pytest.raises(ValueError, match=message):
        parse_matrix_spec(text)
    path = tmp_path / "spec.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(str(path)) + ", " + message):
        read_matrix_spec(path)


# -- randomized cross-checks --------------------------------------------------------


@st.composite
def small_generator_sets(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    k = draw(st.integers(min_value=1, max_value=2))
    gens = [draw(st.permutations(range(n))) for _ in range(k)]
    return GeneratorSet(n, gens)


@settings(max_examples=40, deadline=None)
@given(small_generator_sets())
def test_order_matches_brute_force(gs):
    elements = brute_closure(list(gs.gens))
    bsgs = schreier_sims(gs)
    assert bsgs.order == len(elements)
    assert math.factorial(gs.degree) % bsgs.order == 0
    for t in list(elements)[:10]:
        assert bsgs.contains(t)


@settings(max_examples=25, deadline=None)
@given(small_generator_sets(), st.data())
def test_membership_agrees_with_closure(gs, data):
    elements = brute_closure(list(gs.gens))
    bsgs = schreier_sims(gs)
    probe = data.draw(st.permutations(range(gs.degree)))
    assert bsgs.contains(probe) == (tuple(probe) in elements)
