#!/usr/bin/env python3
"""Derive the shipped generator files for the extraspecial-normalizer rows.

Three two-orbit affine groups are built here, one per target degree:

* n = 625:  GF(5)^4.  R = <iI> . (D8 o D8), an almost-extraspecial group of
  order 64; its normalizer in GL_4(5) induces the full Sp_4(2) on R/<iI> and
  has order 64 * 720 = 46080.
* n = 2401: GF(7)^4.  R = Q8 o D8 (extraspecial, minus type) with the scalars
  of GF(7) adjoined; the normalizer induces O_4^-(2) ~= S5 and has order
  96 * 120 = 11520.
* n = 6561: GF(3)^8.  R = Q8 o D8 o D8 (extraspecial of order 128, minus
  type); the normalizer induces O_6^-(2) and has order 128 * 51840 = 6635520.

Strategy: write down R as a tensor product of 2x2 blocks, read off the
quadratic form Q and symplectic form B on R modulo scalars (squares and
commutators), generate the outer group by its transvections, and lift each
outer generator back to a matrix by solving the intertwiner equations
M rho(g) = c rho(g') M over GF(p).  Everything is verified on the induced
permutations of the vector space: the group order (Schreier-Sims), the two
orbit sizes (stabilizer_rank), and the strong regularity of the orbital
graph must all match the expected values before a file is written.

Output: src/rank3/data/extraspecial_{625,2401,6561}.txt

Run from the repository root:  python3 scripts/derive_extraspecial_rows.py
"""

from __future__ import annotations

import itertools
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rank3.families import _quaternion_units, affine_orbital_graph  # noqa: E402
from rank3.gf import primitive_root  # noqa: E402
from rank3.graphs import srg_params  # noqa: E402
from rank3.permgrp import (  # noqa: E402
    GeneratorSet,
    MatrixGroupSpec,
    _dets_mod,
    format_matrix_spec,
    linear_perms,
    schreier_sims,
    stabilizer_rank,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "rank3" / "data"


# -- small mod-p linear algebra -----------------------------------------------------


def rref_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (matrix, pivot column list)."""
    a = a.copy() % p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hot = np.nonzero(a[r:, c])[0]
        if hot.size == 0:
            continue
        if hot[0] != 0:
            a[[r, r + hot[0]]] = a[[r + hot[0], r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, p)) % p
        other = np.nonzero(a[:, c])[0]
        other = other[other != r]
        a[other] = (a[other] - np.outer(a[other, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def nullspace_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right nullspace of a mod p, one vector per row."""
    red, pivots = rref_mod(a, p)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = np.zeros(cols, dtype=np.int64)
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-red[r, f]) % p
        basis.append(v)
    return np.array(basis, dtype=np.int64).reshape(len(basis), cols)


# -- the 2-group and its forms ------------------------------------------------------


class TwoGroupRep:
    """An (almost-)extraspecial 2-group given by matrix generators g_1..g_2a
    over GF(p), with scalar center.  Words, the quadratic sign function Q and
    the commutator form B are all computed numerically from the matrices."""

    def __init__(self, p: int, gens: list[np.ndarray]):
        self.p = p
        self.gens = [g % p for g in gens]
        self.k = len(gens)
        self.d = gens[0].shape[0]
        self.eye = np.eye(self.d, dtype=np.int64)

    def word(self, v) -> np.ndarray:
        """prod g_i^{v_i} in index order."""
        m = self.eye
        for i, bit in enumerate(v):
            if bit:
                m = (m @ self.gens[i]) % self.p
        return m

    def _scalar_of(self, m: np.ndarray) -> int | None:
        """c when m == c*I, else None."""
        c = int(m[0, 0])
        return c if np.array_equal(m, (c * self.eye) % self.p) else None

    def q_value(self, v) -> int:
        """0 when word(v)^2 = +I, 1 when -I."""
        w = self.word(v)
        c = self._scalar_of((w @ w) % self.p)
        if c == 1:
            return 0
        if c == self.p - 1:
            return 1
        raise AssertionError(f"word squared to {c}, not a sign")

    def b_value(self, u, v) -> int:
        """0 when word(u), word(v) commute, 1 when they anticommute."""
        wu, wv = self.word(u), self.word(v)
        lhs = (wu @ wv) % self.p
        rhs = (wv @ wu) % self.p
        if np.array_equal(lhs, rhs):
            return 0
        if np.array_equal(lhs, (self.p - 1) * rhs % self.p):
            return 1
        raise AssertionError("words neither commute nor anticommute")

    def gram(self) -> np.ndarray:
        return np.array(
            [[self.b_value(e_i, e_j) for e_j in np.eye(self.k, dtype=int)]
             for e_i in np.eye(self.k, dtype=int)],
            dtype=np.int64,
        )


def f2_vectors(k: int):
    return [np.array(v, dtype=np.int64) for v in itertools.product((0, 1), repeat=k)]


def transvection(rep: TwoGroupRep, v: np.ndarray) -> np.ndarray:
    """x -> x + B(x, v) v as a k x k matrix over F2 (columns are images)."""
    cols = []
    for e in np.eye(rep.k, dtype=np.int64):
        cols.append((e + rep.b_value(e, v) * v) % 2)
    return np.array(cols, dtype=np.int64).T


def outer_generators(
    rep: TwoGroupRep, candidates: list[np.ndarray], target_order: int
) -> list[np.ndarray]:
    """Greedily pick candidate F2-maps until they generate a group of exactly
    target_order as permutations of F2^k (linear_perms of a GF(2) spec)."""
    chosen: list[np.ndarray] = []
    perms = []
    order = 1  # of the group the chosen maps generate
    for cand in candidates:
        [perm] = linear_perms(MatrixGroupSpec(2, rep.k, (cand,))).gens
        if any(np.array_equal(perm, q) for q in perms):
            continue
        grown = schreier_sims(GeneratorSet(1 << rep.k, perms + [perm])).order
        if grown > order:
            chosen.append(cand)
            perms.append(perm)
            order = grown
        if order == target_order:
            return chosen
        if order > target_order:
            raise AssertionError(f"outer group overshot: {order} > {target_order}")
    raise AssertionError("candidates exhausted before reaching the target order")


def lift_outer(rep: TwoGroupRep, alpha: np.ndarray, scalars: list[int]) -> np.ndarray:
    """A matrix M with M g_i M^{-1} = c_i * word(alpha e_i) for scalar c_i.

    Candidate scalars are pruned by determinant (c^d must equal
    det(g_i) / det(word)); the remaining sign/scalar patterns are scanned and
    the intertwiner equations solved by nullspace computation.  Schur's lemma
    makes the solution unique up to scale when the pattern is right."""
    p, d, k = rep.p, rep.d, rep.k
    words = [rep.word(alpha[:, i] % 2) for i in range(k)]
    cand_lists = []
    for g, w in zip(rep.gens, words):
        det_g, det_w = _dets_mod(np.stack([g, w]), p).tolist()
        need = det_g * pow(det_w, -1, p) % p
        cands = [c for c in scalars if pow(c, d, p) == need]
        if not cands:
            raise AssertionError("no scalar candidate survives the determinant test")
        cand_lists.append(cands)
    eye = np.eye(d, dtype=np.int64)
    for pattern in itertools.product(*cand_lists):
        rows = []
        for g, w, c in zip(rep.gens, words, pattern):
            # vec(M g) - vec(c w M) = 0, vec row-major
            rows.append((np.kron(eye, g.T) - np.kron(c * w % p, eye)) % p)
        basis = nullspace_mod(np.concatenate(rows, axis=0), p)
        for vec in basis:
            m = vec.reshape(d, d)
            if _dets_mod(m[None], p)[0] != 0:
                for g, w, c in zip(rep.gens, words, pattern):
                    lhs = (m @ g) % p
                    rhs = (c * (w @ m)) % p
                    assert np.array_equal(lhs, rhs)
                return m
    raise AssertionError("no invertible intertwiner found for any scalar pattern")


# -- the three rows -----------------------------------------------------------------


def build_row(
    label: str,
    p: int,
    rep: TwoGroupRep,
    extra_scalar: int | None,
    outer_target: int,
    expected_order: int,
    expected_orbits: tuple[int, int],
    candidates: list[np.ndarray],
) -> MatrixGroupSpec:
    t0 = time.monotonic()
    outer = outer_generators(rep, candidates, outer_target)
    scalars = list(range(1, p))
    lifts = [lift_outer(rep, alpha, scalars) for alpha in outer]
    gens = list(rep.gens) + lifts
    if extra_scalar is not None:
        gens.append(extra_scalar * np.eye(rep.d, dtype=np.int64) % p)
    spec = MatrixGroupSpec(p, rep.d, tuple(tuple(map(tuple, m)) for m in gens))
    linear = linear_perms(spec)
    order = schreier_sims(linear).order
    assert order == expected_order, f"{label}: order {order} != {expected_order}"
    rank, sizes = stabilizer_rank(linear)
    assert rank == 3 and tuple(sizes) == expected_orbits, (
        f"{label}: rank {rank}, orbits {sizes} != {expected_orbits}"
    )
    g = affine_orbital_graph(spec)
    params = srg_params(g)
    print(
        f"{label}: order={order} orbits={sizes} srg={params} "
        f"gens={len(spec.gens)} [{time.monotonic() - t0:.1f}s]"
    )
    return spec


def pauli_blocks(p: int) -> dict[str, np.ndarray]:
    """2x2 blocks over GF(p), p an odd prime: the dihedral pair A, B (squares
    +I) and the quaternion pair X, Y (squares -I) of
    families._quaternion_units."""
    x, y, _ = _quaternion_units(p)
    return {
        "I": np.eye(2, dtype=np.int64),
        "A": np.array([[0, 1], [1, 0]], dtype=np.int64),
        "B": np.array([[1, 0], [0, p - 1]], dtype=np.int64),
        "X": x,
        "Y": y,
    }


def tensor(p: int, *mats: np.ndarray) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m) % p
    return out


def row_625() -> MatrixGroupSpec:
    p = 5
    blk = pauli_blocks(p)
    gens = [
        tensor(p, blk["A"], blk["I"]),
        tensor(p, blk["B"], blk["I"]),
        tensor(p, blk["I"], blk["A"]),
        tensor(p, blk["I"], blk["B"]),
    ]
    rep = TwoGroupRep(p, gens)
    i_unit = next(c for c in range(2, p) if c * c % p == p - 1)
    # with iI adjoined the outer group is all of Sp_4(2): every nonzero vector
    # gives a symplectic transvection
    candidates = [transvection(rep, v) for v in f2_vectors(4) if v.any()]
    spec = build_row(
        "extraspecial_625", p, rep,
        extra_scalar=i_unit,
        outer_target=720,
        expected_order=46080,
        expected_orbits=(240, 384),
        candidates=candidates,
    )
    return spec


def row_2401() -> MatrixGroupSpec:
    p = 7
    blk = pauli_blocks(p)
    gens = [
        tensor(p, blk["X"], blk["I"]),
        tensor(p, blk["Y"], blk["I"]),
        tensor(p, blk["I"], blk["A"]),
        tensor(p, blk["I"], blk["B"]),
    ]
    rep = TwoGroupRep(p, gens)
    # minus-type Q: the outer group O_4^-(2) is generated by the orthogonal
    # transvections at anisotropic vectors
    candidates = [
        transvection(rep, v) for v in f2_vectors(4) if v.any() and rep.q_value(v) == 1
    ]
    return build_row(
        "extraspecial_2401", p, rep,
        extra_scalar=primitive_root(p),
        outer_target=120,
        expected_order=11520,
        expected_orbits=(480, 1920),
        candidates=candidates,
    )


def row_6561() -> MatrixGroupSpec:
    p = 3
    blk = pauli_blocks(p)
    gens = [
        tensor(p, blk["X"], blk["I"], blk["I"]),
        tensor(p, blk["Y"], blk["I"], blk["I"]),
        tensor(p, blk["I"], blk["A"], blk["I"]),
        tensor(p, blk["I"], blk["B"], blk["I"]),
        tensor(p, blk["I"], blk["I"], blk["A"]),
        tensor(p, blk["I"], blk["I"], blk["B"]),
    ]
    rep = TwoGroupRep(p, gens)
    candidates = [
        transvection(rep, v) for v in f2_vectors(6) if v.any() and rep.q_value(v) == 1
    ]
    return build_row(
        "extraspecial_6561", p, rep,
        extra_scalar=None,  # -I is already in R and GF(3)* = {1, -1}
        outer_target=51840,
        expected_order=6635520,
        expected_orbits=(1440, 5120),
        candidates=candidates,
    )


def file_text(name: str, spec: MatrixGroupSpec) -> str:
    """The contents of the shipped data file `name`.txt for spec."""
    header = (
        f"# {name}: two-orbit normalizer of an extraspecial-type 2-group\n"
        f"# regenerated by scripts/derive_extraspecial_rows.py\n"
    )
    return header + format_matrix_spec(spec)


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    for name, builder in [
        ("extraspecial_625", row_625),
        ("extraspecial_2401", row_2401),
        ("extraspecial_6561", row_6561),
    ]:
        path = DATA_DIR / f"{name}.txt"
        path.write_text(file_text(name, builder()), encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
