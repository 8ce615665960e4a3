"""Tests for rank3.families: constructions, parameters, groups, descriptors."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rank3
from rank3.families import (
    Build,
    FamilyId,
    affine_orbital_graph,
    affine_polar,
    affine_polar_group,
    alternating_forms,
    bilinear_forms,
    bilinear_forms_group,
    cayley_graph,
    family_graph,
    family_group,
    hamming2,
    paley,
    parse_descriptor,
    peisert,
    quaternion_normalizer_spec,
    sl25_with_scalars_spec,
    van_lint_schrijver,
    _binary_icosahedral,
    _check_binary_icosahedral,
    _check_normalizes_q8,
    _check_similitudes,
    _evaluate_form,
    _general_orthogonal_order,
    _quaternion_units,
)
from rank3.autsolve import automorphism_group
from rank3.catalog import builtin_catalog
from rank3.gf import digits, make_field
from rank3.graphs import DenseGraph, srg_params
from rank3.permgrp import linear_perms, with_translations


# SHA-1 of the int64 generator matrices of sl25_with_scalars_spec(41, 5)
SL25_41_SEED_5_SHA1 = "a83499f6257d65a0bb8e9195424aa087c741d793"
SEEDED_SPEC_SHA1 = """
import hashlib
import numpy as np
from rank3.families import sl25_with_scalars_spec
spec = sl25_with_scalars_spec(41, 5)
print(hashlib.sha1(np.array(spec.gens, dtype=np.int64).tobytes()).hexdigest())
"""


def srg(g):
    p = srg_params(g)
    return (p.n, p.k, p.lam, p.mu)
from rank3.permgrp import (
    GeneratorSet,
    MatrixGroupSpec,
    format_matrix_spec,
    linear_perms,
    orbit_partition,
    rank_and_subdegrees,
    schreier_sims,
    stabilizer_rank,
    with_translations,
)


def affine(spec):
    """V:<spec> on the p**d vectors: the translations and the linear maps."""
    return with_translations(linear_perms(spec), (spec.p,) * spec.d)


def digit_rows(n, p, dim):
    idx = np.arange(n)
    cols = []
    for _ in range(dim):
        idx, r = np.divmod(idx, p)
        cols.append(r)
    return np.stack(cols, axis=1)


def assert_translation_invariant(g, p, dim, seed=7):
    """Adjacency is preserved by x -> x + a for 10 sampled translations a."""
    digs = digit_rows(g.n, p, dim)
    pv = p ** np.arange(dim)
    rng = np.random.default_rng(seed)
    for a in rng.integers(1, g.n, size=10):
        img = ((digs + digs[a]) % p) @ pv
        assert np.array_equal(g.adj[np.ix_(img, img)], g.adj)


# -- cayley_graph ---------------------------------------------------------------

# DenseGraph.from_row0's message for a connection set S != -S
ASYMMETRIC = "connection set is not closed under negation: adjacency is not symmetric"


class TestCayleyGraph:
    def test_pentagon(self):
        g = cayley_graph(5, 1, [1, 4])
        edges = {(u, v) for u in range(5) for v in range(u + 1, 5) if g.adj[u, v]}
        assert edges == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
        assert g == paley(5)

    def test_asymmetric_rejected(self):
        # squares mod 7 = {1,2,4}; -1 is a nonresidue so the set is not symmetric
        with pytest.raises(ValueError, match=f"^{re.escape(ASYMMETRIC)}$"):
            cayley_graph(7, 1, [1, 2, 4])

    def test_zero_rejected(self):
        with pytest.raises(
            ValueError, match="^connection set contains the zero vector: adjacency has a loop$"
        ):
            cayley_graph(5, 1, [0, 1, 4])

    def test_full_set_gives_complete_graph(self):
        g = cayley_graph(2, 3, range(1, 8))
        assert g.n == 8
        assert (g.degrees() == 7).all()

    def test_empty_and_out_of_range(self):
        with pytest.raises(ValueError, match="empty"):
            cayley_graph(5, 1, [])
        with pytest.raises(ValueError, match="out of range"):
            cayley_graph(5, 1, [1, 5])
        with pytest.raises(ValueError, match="out of range"):
            cayley_graph(5, 1, [-1, 1, 4])

    def test_vector_space_container(self):
        g = cayley_graph(2, 2, [1, 2, 3])
        assert (g.degrees() == 3).all()  # K4
        assert g.moduli == (2, 2)
        with pytest.raises(ValueError, match="not prime"):
            cayley_graph(4, 2, [1, 2, 3])
        with pytest.raises(ValueError, match="dim"):
            cayley_graph(2, 0, [1])

    def test_set_and_repeated_array_inputs(self):
        # a set, and an array that names members more than once, give the
        # same graph as the plain list
        g = cayley_graph(3, 2, [1, 2, 3, 6])
        assert cayley_graph(3, 2, {6, 3, 2, 1}) == g
        assert cayley_graph(3, 2, np.array([3, 1, 6, 1, 2, 3, 6])) == g
        assert (g.degrees() == 4).all()

    def test_translation_invariance(self):
        assert_translation_invariant(paley(13), 13, 1)
        assert_translation_invariant(affine_polar(2, 2, -1), 2, 4)

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(
            [(2, d) for d in range(1, 7)] + [(3, d) for d in range(1, 5)]
            + [(5, d) for d in range(1, 4)] + [(7, 2)]
        ),
        st.data(),
    )
    def test_block_circulant_matches_difference_formula(self, shape, data):
        # the banded build from row 0 against the n x n x dim difference formula
        p, dim = shape
        n = p**dim
        digs = digit_rows(n, p, dim)
        pv = p ** np.arange(dim)
        neg = ((p - digs) % p) @ pv
        picks = data.draw(st.sets(st.integers(1, n - 1), min_size=1))
        members = frozenset(picks) | {int(neg[v]) for v in picks}
        g = cayley_graph(p, dim, members)
        indicator = np.zeros(n, dtype=bool)
        indicator[sorted(members)] = True
        assert np.array_equal(g.adj, indicator[((digs[:, None] - digs[None]) % p) @ pv])
        assert g.moduli == (p,) * dim


# -- one-dimensional families -----------------------------------------------------


class TestPaley:
    @pytest.mark.parametrize("q", [5, 9, 13, 17, 25, 29, 37, 41, 49, 81])
    def test_srg_params(self, q):
        assert srg(paley(q)) == ((q, (q - 1) // 2, (q - 5) // 4, (q - 1) // 4))

    @pytest.mark.parametrize("q", [2, 3, 7, 8, 11, 23, 27])
    def test_bad_congruence(self, q):
        with pytest.raises(
            ValueError, match=f"^q = {q} is not 1 mod 4; the squares are not symmetric$"
        ):
            paley(q)

    def test_not_prime_power(self):
        with pytest.raises(ValueError):
            paley(12)


class TestPeisert:
    @pytest.mark.parametrize("q", [9, 49, 81, 121])
    def test_params_and_valency(self, q):
        g = peisert(q)
        assert (g.degrees() == (q - 1) // 2).all()
        assert srg(g) == ((q, (q - 1) // 2, (q - 5) // 4, (q - 1) // 4))

    @pytest.mark.parametrize("q", [5, 13, 25, 27, 343, 7])
    def test_bad_congruence(self, q):
        # p = 1 mod 4, or odd exponent
        with pytest.raises(
            ValueError, match=rf"^q = {q} = \d+\*\*\d+ needs p = 3 mod 4 and even exponent$"
        ):
            peisert(q)


class TestVanLintSchrijver:
    @pytest.mark.parametrize(
        "q,e,params",
        [
            (16, 3, (16, 5, 0, 2)),
            (25, 3, (25, 8, 3, 2)),
            (64, 3, (64, 21, 8, 6)),
            (81, 5, (81, 16, 7, 2)),
        ],
    )
    def test_srg_params(self, q, e, params):
        g = van_lint_schrijver(q, e)
        assert (g.degrees() == (q - 1) // e).all()
        assert srg(g) == params

    def test_valency_256(self):
        assert (van_lint_schrijver(256, 5).degrees() == 51).all()

    def test_e2_rejected(self):
        with pytest.raises(ValueError, match=r"^e = 2 is the Paley construction; call paley\(q\)$"):
            van_lint_schrijver(25, 2)

    # the exponent is checked first, then the order of p modulo e
    ORDER_CONDITIONS = {
        (13, 3): "q = 13 = 13**1: the exponent must be a multiple of e - 1 = 2",  # ord_3(13) = 1
        (243, 11): "q = 243 = 3**5: the exponent must be a multiple of e - 1 = 10",  # ord_11(3) = 5
        (25, 5): "q = 25 = 5**2: the exponent must be a multiple of e - 1 = 4",  # p = e
        (8, 3): "q = 8 = 2**3: the exponent must be a multiple of e - 1 = 2",
        (64, 7): "p = 2 must have multiplicative order 6 modulo e = 7",  # ord_7(2) = 3, not 6
    }

    @pytest.mark.parametrize("q,e", ORDER_CONDITIONS)
    def test_order_condition(self, q, e):
        with pytest.raises(ValueError, match=f"^{re.escape(self.ORDER_CONDITIONS[q, e])}$"):
            van_lint_schrijver(q, e)

    def test_nonprime_e(self):
        with pytest.raises(ValueError):
            van_lint_schrijver(16, 4)


# -- Hamming, polar, forms families ------------------------------------------------


class TestHamming2:
    @pytest.mark.parametrize("m", [3, 5, 9])
    def test_srg_params(self, m):
        assert srg(hamming2(m)) == ((m * m, 2 * (m - 1), m - 2, 2))

    def test_small_m_rejected(self):
        with pytest.raises(ValueError):
            hamming2(1)

    def test_group_rank(self):
        for m, sizes in ((5, [8, 16]), (9, [16, 64])):
            gs = family_group(parse_descriptor(f"hamming2:{m}"))
            assert rank_and_subdegrees(gs) == (3, sizes)


class TestAffinePolar:
    def test_minus_4_2(self):
        g = affine_polar(2, 2, -1)
        assert (g.degrees() == 5).all()
        assert srg(g) == ((16, 5, 0, 2))

    def test_plus_4_3(self):
        assert srg(affine_polar(2, 3, 1)) == ((81, 32, 13, 12))

    def test_minus_6_2(self):
        assert srg(affine_polar(3, 2, -1)) == ((64, 27, 10, 12))

    def test_plus_4_2(self):
        assert srg(affine_polar(2, 2, 1)) == ((16, 9, 4, 6))

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="^m = 1 must be >= 2$"):
            affine_polar(1, 3, 1)
        with pytest.raises(ValueError, match=r"^epsilon must be \+1 or -1, got 0$"):
            affine_polar(2, 3, 0)
        with pytest.raises(
            ValueError, match=r"^q\*\*dim = 5\*\*6 exceeds the 4096-vertex construction cap$"
        ):
            affine_polar(3, 5, 1)
        for bad, message in [
            ((1, 3, 1), "m = 1 must be >= 2"),
            ((2, 3, 0), "epsilon must be +1 or -1, got 0"),
            ((2, 6, 1), "q = 6 is not a prime power"),
            # past the cap: refused before 2**32 or 16**6 vectors are listed
            ((2, 256, 1), "q**dim = 256**4 exceeds the 4096-vertex construction cap"),
            ((3, 16, 1), "q**dim = 16**6 exceeds the 4096-vertex construction cap"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                affine_polar_group(*bad)

    def test_group_orders_and_ranks(self):
        spec = affine_polar_group(2, 2, -1)
        assert schreier_sims(linear_perms(spec)).order == 120
        assert rank_and_subdegrees(affine(spec)) == (3, [5, 10])
        spec = affine_polar_group(2, 3, 1)
        assert schreier_sims(linear_perms(spec)).order == 2304
        assert rank_and_subdegrees(affine(spec)) == (3, [32, 48])

    def test_group_minus_6_2(self):
        spec = affine_polar_group(3, 2, -1)
        assert schreier_sims(linear_perms(spec)).order == 51840
        assert rank_and_subdegrees(affine(spec)) == (3, [27, 36])

    def test_group_plus_8_2_full_order(self):
        # the closed-form order is the oracle for the exact Schreier-Sims:
        # |GO+(8, 2)| = 2 * 2^12 * (2^4 - 1) * (2^2 - 1)(2^4 - 1)(2^6 - 1)
        spec = affine_polar_group(4, 2, 1)
        assert schreier_sims(linear_perms(spec)).order == 348364800

    @pytest.mark.parametrize(
        "desc",
        [
            "vo:+:4:5", "vo:-:4:5", "vo:-:4:7", "vo:+:4:7", "vo:+:6:3", "vo:-:6:3",
            "vo:+:4:2", "vo:+:4:4", "vo:-:4:4", "vo:+:4:8", "vo:-:4:8", "vo:+:6:4",
            "vo:-:6:4",
        ],
    )
    def test_polar_groups_beyond_the_catalog(self, desc):
        # N(0) is the s = (q^m - eps)(q^(m-1) + eps) nonzero singular vectors;
        # the zero-stabilizer has it and the nonsingular vectors as its orbits
        fid = parse_descriptor(desc)
        m, q, eps = fid.params
        s = (q**m - eps) * (q ** (m - 1) + eps)
        assert stabilizer_rank(Build(fid).stabilizer) == (3, sorted([s, q ** (2 * m) - 1 - s]))
        assert int(family_graph(fid).adj[0].sum()) == s

    @pytest.mark.parametrize(
        "desc",
        [e.id for e in builtin_catalog() if e.family.tag == "AffinePolar"]
        + ["vo:+:4:2", "vo:-:4:8", "vo:+:6:3"],
    )
    def test_stabilizer_is_the_spec_linear_action(self, desc):
        # the builder hands on the permutations it certified: each polar
        # row's G0 is its spec's linear action, byte for byte, made once
        row = Build(parse_descriptor(desc))
        assert row.stabilizer.gens.tobytes() == linear_perms(row.spec).gens.tobytes()
        assert Build(parse_descriptor(desc)).stabilizer is row.stabilizer

    def test_non_similitude_rejected(self):
        # Q = x0 x1 + x2 x3 over GF(3); swapping x0 and x2 is no similitude
        vals = _evaluate_form(digits(81, 3, 4), [(0, 1, 1), (2, 3, 1)], 3)
        gf3 = make_field(3, 1)
        scale = np.diag([2, 1, 2, 1])  # Q -> 2Q: a similitude
        swap = np.eye(4, dtype=np.int64)[[2, 1, 0, 3]]

        def perms(*mats):
            return linear_perms(MatrixGroupSpec(3, 4, mats))

        _check_similitudes(perms(scale, np.eye(4, dtype=np.int64)), vals, gf3)
        with pytest.raises(ValueError, match="not a similitude"):
            _check_similitudes(perms(scale, swap), vals, gf3)

    def test_group_exceptions(self):
        # the transvections of the (2, 2, +1) form fall short of GO without
        # the hyperbolic pair swap, and GF(4) entries are blown up over GF(2)
        for (m, q, eps), order in [((2, 2, 1), 72), ((2, 4, 1), 21600), ((2, 4, -1), 24480)]:
            assert order == _general_orthogonal_order(m, q, eps) * (q - 1)
            assert schreier_sims(linear_perms(affine_polar_group(m, q, eps))).order == order


class TestBilinearForms:
    def test_2_3(self):
        g = bilinear_forms(2, 3)
        assert (g.degrees() == 21).all()
        assert srg(g) == ((64, 21, 8, 6))

    def test_3_3(self):
        assert srg(bilinear_forms(3, 3)) == ((729, 104, 31, 12))

    def test_2_5(self):
        g = bilinear_forms(2, 5)
        assert (g.degrees() == 93).all()
        assert srg(g) == ((1024, 93, 32, 6))

    def test_validation(self):
        with pytest.raises(ValueError):
            bilinear_forms(2, 1)
        with pytest.raises(ValueError):
            bilinear_forms(3, 4)  # 3**8 vertices exceed the cap

    def test_group_ranks(self):
        assert rank_and_subdegrees(family_group(parse_descriptor("hq:2:3"))) == (
            3,
            [21, 42],
        )
        assert rank_and_subdegrees(family_group(parse_descriptor("hq:3:3"))) == (
            3,
            [104, 624],
        )

    @pytest.mark.slow
    def test_gf4_valency_and_group(self):
        # the solver's generators fixing 0 generate the full Aut_0, whose
        # suborbits any rank-3 subgroup shares
        g = bilinear_forms(4, 3)
        assert g.n == 4096
        assert (g.degrees() == 315).all()
        r = automorphism_group(g)
        aut0 = GeneratorSet(g.n, [s for s in r.generators.gens if s[0] == 0])
        assert stabilizer_rank(aut0) == (3, [315, 3780])
        assert stabilizer_rank(linear_perms(bilinear_forms_group(4, 3))) == (
            3,
            [315, 3780],
        )


class TestAlternatingForms:
    def test_params(self):
        g = alternating_forms()
        assert g.n == 1024
        assert (g.degrees() == 155).all()
        assert srg(g) == ((1024, 155, 42, 20))

    def test_group_rank(self):
        assert rank_and_subdegrees(family_group(parse_descriptor("a52"))) == (
            3,
            [155, 868],
        )


# -- generic orbital construction ---------------------------------------------------


def orbit_count(count: int) -> str:
    """affine_orbital_graph's message for a G0 with count orbits on nonzero vectors."""
    return f"group has {count} orbits on nonzero vectors, need exactly 2"


class TestAffineOrbitalGraph:
    def test_gl_is_transitive(self):
        spec = MatrixGroupSpec(
            3, 2, (((1, 1), (0, 1)), ((0, 1), (1, 0)), ((2, 0), (0, 1)))
        )
        with pytest.raises(ValueError, match=f"^{re.escape(orbit_count(1))}$"):
            affine_orbital_graph(spec)

    def test_too_many_orbits(self):
        spec = MatrixGroupSpec(13, 1, (((3,),),))  # <3> has 4 orbits on F13*
        with pytest.raises(ValueError, match=f"^{re.escape(orbit_count(4))}$"):
            affine_orbital_graph(spec)

    def test_asymmetric_orbit(self):
        spec = MatrixGroupSpec(7, 1, (((2,),),))  # squares mod 7, -1 nonresidue
        with pytest.raises(ValueError, match=f"^{re.escape(ASYMMETRIC)}$"):
            affine_orbital_graph(spec)

    def test_square_orbit_recovers_paley(self):
        spec = MatrixGroupSpec(13, 1, (((4,),),))  # <4> = squares mod 13
        assert affine_orbital_graph(spec) == paley(13)

    def test_quaternion_normalizer_13(self):
        spec = quaternion_normalizer_spec(13)
        g = affine_orbital_graph(spec)
        assert srg(g) == ((169, 72, 31, 30))
        assert rank_and_subdegrees(affine(spec)) == (3, [72, 96])

    def test_quaternion_normalizer_7_is_transitive(self):
        with pytest.raises(ValueError, match=f"^{re.escape(orbit_count(1))}$"):
            affine_orbital_graph(quaternion_normalizer_spec(7))

    def test_quaternion_spec_validation(self):
        with pytest.raises(ValueError):
            quaternion_normalizer_spec(2)

    def test_q8_certificate_rejects_a_non_normalizer(self):
        x, y, s = _quaternion_units(13)
        _check_normalizes_q8([s, (np.eye(2, dtype=np.int64) + x) % 13], x, y, 13)
        with pytest.raises(ValueError, match="does not normalize"):
            _check_normalizes_q8([np.array([[1, 1], [0, 1]])], x, y, 13)

    def test_sl25_certificate_rejects_a_corrupted_t(self):
        s, t = _binary_icosahedral(31)
        _check_binary_icosahedral(s, t, 31)
        bad = t.copy()
        bad[0, 0] = (bad[0, 0] + 1) % 31  # a new trace: t^5 != -I
        with pytest.raises(ValueError, match=r"\^5 != -I"):
            _check_binary_icosahedral(s, bad, 31)

    def test_sl25_seed_relabels(self):
        # seeds conjugate the generators differently; the orbit sizes stay
        specs = [sl25_with_scalars_spec(31, seed) for seed in (None, 1, 2)]
        gens = [np.stack(spec.gens).tobytes() for spec in specs]
        assert len(set(gens)) == 3
        for spec in specs:
            assert stabilizer_rank(linear_perms(spec)) == (3, [360, 600])

    def test_negative_seed_is_rejected(self):
        # random.Random(-1) would silently give seed 1's stream
        for build in (_binary_icosahedral, sl25_with_scalars_spec):
            with pytest.raises(ValueError, match="seed = -1"):
                build(41, -1)

    def test_seeded_generators_are_pinned_across_interpreters(self):
        # the conjugator comes from random.Random(seed), so two fresh
        # interpreters give the same generators; the pinned SHA-1 moves if
        # Python's stream for the draws ever does
        env = dict(os.environ, PYTHONPATH=str(Path(rank3.__file__).resolve().parents[1]))
        digests = [
            subprocess.run(
                [sys.executable, "-c", SEEDED_SPEC_SHA1],
                env=env, capture_output=True, text=True, check=True, timeout=120,
            ).stdout.strip()
            for _ in range(2)
        ]
        assert digests == [SL25_41_SEED_5_SHA1] * 2

    def test_index_two_subgroup_at_7(self):
        # <X, Y, (1 + X + Y + XY)/2, 2I>: order 72, orbits 24 + 24
        spec = MatrixGroupSpec(
            7,
            2,
            (
                ((0, 6), (1, 0)),
                ((2, 3), (3, 5)),
                ((0, 2), (3, 1)),
                ((2, 0), (0, 2)),
            ),
        )
        g = affine_orbital_graph(spec)
        assert srg(g) == ((49, 24, 11, 12))
        assert rank_and_subdegrees(affine(spec)) == (3, [24, 24])

    @pytest.mark.slow
    def test_sl25_41(self):
        spec = sl25_with_scalars_spec(41)
        g = affine_orbital_graph(spec)
        assert srg(g) == ((1681, 480, 149, 132))
        assert rank_and_subdegrees(affine(spec)) == (3, [480, 1200])

    def test_spec_file_round_trip(self, tmp_path):
        spec = MatrixGroupSpec(13, 1, (((4,),),))
        path = tmp_path / "squares13.txt"
        path.write_text(format_matrix_spec(spec))
        fid = parse_descriptor(f"orbital:{path}")
        assert fid.params[0] == "file"
        assert family_graph(fid) == paley(13)


# -- descriptors and dispatch --------------------------------------------------------


DESCRIPTOR_CASES = [
    ("paley:49", FamilyId("Paley", (49,))),
    ("peisert:81", FamilyId("Peisert", (81,))),
    ("vls:16:3", FamilyId("VLS", (16, 3))),
    ("hamming2:9", FamilyId("Hamming2", (9,))),
    ("vo:-:4:2", FamilyId("AffinePolar", (2, 2, -1))),
    ("vo:+:8:2", FamilyId("AffinePolar", (4, 2, 1))),
    ("hq:2:3", FamilyId("BilinearForms", (2, 3))),
    ("a52", FamilyId("AlternatingForms", ())),
    ("orbital:q8:13", FamilyId("AffineOrbital", ("q8", 13))),
    ("orbital:sl25:41", FamilyId("AffineOrbital", ("sl25", 41))),
]


class TestDescriptors:
    @pytest.mark.parametrize("text,fid", DESCRIPTOR_CASES)
    def test_round_trip(self, text, fid):
        assert parse_descriptor(text) == fid

    @pytest.mark.parametrize(
        "text",
        ["foo:1", "paley", "paley:x", "vo:*:4:2", "vo:-:5:2", "vls:16", "orbital"],
    )
    def test_bad_descriptors(self, text):
        with pytest.raises(ValueError):
            parse_descriptor(text)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            FamilyId("Nope", ())

    def test_family_graph_dispatch(self):
        assert family_graph(FamilyId("Paley", (9,))) == paley(9)
        assert family_graph(FamilyId("Hamming2", (3,))) == hamming2(3)
        assert family_graph(FamilyId("AffinePolar", (2, 2, -1))) == affine_polar(
            2, 2, -1
        )


class TestFamilyGroups:
    @pytest.mark.parametrize(
        "desc,expected",
        [
            ("paley:9", (3, [4, 4])),
            ("paley:49", (3, [24, 24])),
            ("peisert:49", (3, [24, 24])),
            ("peisert:81", (3, [40, 40])),
            ("vls:16:3", (3, [5, 10])),
            ("vls:25:3", (3, [8, 16])),
            ("vls:64:3", (3, [21, 42])),
            ("vls:81:5", (3, [16, 64])),
            ("hamming2:9", (3, [16, 64])),
            ("vo:-:4:2", (3, [5, 10])),
            ("hq:2:3", (3, [21, 42])),
            ("orbital:q8:13", (3, [72, 96])),
        ],
    )
    def test_rank_and_subdegrees(self, desc, expected):
        fid = parse_descriptor(desc)
        assert rank_and_subdegrees(family_group(fid)) == expected
        # the zero-stabilizer path agrees with the pair-closure oracle
        assert stabilizer_rank(Build(fid).stabilizer) == expected

    def test_vls_256_subdegrees(self):
        gs = family_group(parse_descriptor("vls:256:5"))
        assert rank_and_subdegrees(gs) == (3, [51, 204])

    def test_group_is_automorphisms(self):
        # every family group generator preserves the graph's adjacency
        for desc in ["paley:13", "peisert:9", "vls:16:3", "hamming2:5", "vo:-:4:2",
                     "hq:2:3", "orbital:q8:13"]:
            fid = parse_descriptor(desc)
            g = family_graph(fid)
            for img in family_group(fid).gens:
                assert np.array_equal(g.adj[np.ix_(img, img)], g.adj), desc

    @pytest.mark.parametrize("desc", ["orbital:q8:13", "hq:2:3"])
    def test_group_builds_g0_once(self, monkeypatch, desc):
        # an orbital row's graph and G0 come from one Build, and hq:2:3's
        # graph needs no G0, so family_group builds one spec on either, and
        # G0 is the action that spec made
        fid = parse_descriptor(desc)
        want = with_translations(Build(fid).stabilizer, family_graph(fid).moduli)
        row = Build(fid)
        assert row.stabilizer is row.spec.perms
        calls = []
        post_init = MatrixGroupSpec.__post_init__

        def counted(spec):
            calls.append(spec)
            post_init(spec)

        monkeypatch.setattr(MatrixGroupSpec, "__post_init__", counted)
        assert np.array_equal(family_group(fid).gens, want.gens)
        assert len(calls) == 1

    def test_spec_moduli_are_the_graph_moduli(self):
        # family_group reads a spec family's translations off (p,) * d
        for entry in builtin_catalog():
            row = Build(entry.family)
            if row.spec is not None:
                assert row.graph.moduli == (row.spec.p,) * row.spec.d, entry.id

    @pytest.mark.parametrize("desc", ["orbital:q8:13", "orbital:sl25:41", "hq:2:3"])
    def test_group_builds_no_graph(self, monkeypatch, desc):
        # the translations come from the spec, so family_group builds neither
        # the graph nor, on an orbital row, G0's orbits it is cut from
        fid = parse_descriptor(desc)
        want = with_translations(Build(fid).stabilizer, family_graph(fid).moduli)

        def no_graph(*args, **kwargs):
            raise AssertionError("family_group built the graph")

        for name in ("_orbital_graph", "stabilizer_orbits", "cayley_graph"):
            monkeypatch.setattr(rank3.families, name, no_graph)
        assert np.array_equal(family_group(fid).gens, want.gens)

    @pytest.mark.parametrize("desc", ["vo:+:8:2", "hq:2:3", "paley:13"])
    def test_non_orbital_graph_makes_no_g0(self, monkeypatch, desc):
        # only an orbital row's graph is cut from G0's orbits: every other
        # graph, read through family_graph or a Build, makes no group
        def no_group(*args, **kwargs):
            raise AssertionError("G0 made for a non-orbital graph")

        want = family_graph(parse_descriptor(desc))
        for name in ("affine_polar_group", "bilinear_forms_group", "MatrixGroupSpec",
                     "semilinear_stabilizer_perms", "stabilizer_orbits"):
            monkeypatch.setattr(rank3.families, name, no_group)
        assert family_graph(parse_descriptor(desc)) == want
        row = Build(parse_descriptor(desc))
        assert row.graph == want
        assert not {"spec", "stabilizer", "orbits"} & vars(row).keys()

    def test_polar_group_is_transitive_at_the_former_exceptions(self):
        # GF(4), and the (2, 2, +1) form whose transvections fall short
        for params in [(2, 4, -1), (2, 2, 1)]:
            assert len(orbit_partition(family_group(FamilyId("AffinePolar", params)))) == 1
