"""Tests for rank3.graphs: SRG analytics against hand-checked graphs and
graph6 output decoded by networkx."""

import functools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import rank3
from rank3 import graphs
from rank3.autsolve import _Refiner, are_isomorphic, automorphism_group
from rank3.catalog import builtin_catalog, verify_entry
from rank3.graphs import (
    Degenerate,
    DenseGraph,
    NotStronglyRegular,
    _circulant_blocks,
    complement,
    is_isomorphism,
    srg_params,
    to_graph6,
    unit_translations,
)
from rank3.families import Build, cayley_graph, family_graph, parse_descriptor
from rank3.permgrp import GeneratorSet, orbit


def from_edges(n: int, edges) -> DenseGraph:
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    return DenseGraph(adj)


def from_graph6(text: str) -> DenseGraph:
    """Decoded by networkx, independently of the package's encoder."""
    gx = nx.from_graph6_bytes(text.strip().encode())
    return DenseGraph(nx.to_numpy_array(gx, nodelist=range(len(gx)), dtype=bool))


def cycle(n: int) -> DenseGraph:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def petersen() -> DenseGraph:
    g = nx.petersen_graph()
    return from_edges(10, g.edges())


def test_pentagon_is_srg_5_2_0_1():
    p = srg_params(cycle(5))
    assert (p.n, p.k, p.lam, p.mu) == (5, 2, 0, 1)
    assert p.feasible()


def test_petersen_is_srg_10_3_0_1():
    p = srg_params(petersen())
    assert (p.n, p.k, p.lam, p.mu) == (10, 3, 0, 1)


def test_hexagon_rejected_with_witness():
    with pytest.raises(NotStronglyRegular) as e:
        srg_params(cycle(6))
    u, v, kind, observed, expected = e.value.witness
    # distance-2 and distance-3 nonadjacent pairs disagree (1 vs 0 common nbrs)
    assert kind == "nonadjacent"
    assert {observed, expected} == {0, 1}
    assert not cycle(6).adj[u, v]


def test_irregular_graph_rejected():
    g = from_edges(4, [(0, 1), (1, 2)])
    with pytest.raises(NotStronglyRegular) as e:
        srg_params(g)
    assert e.value.witness[2] == "degree"


def test_irregular_graph_without_moduli_keeps_degree_witness(monkeypatch):
    # C5 plus the chord 1-3: vertex 0 looks regular, vertex 1 does not; only
    # the every-row degree check of a graph without moduli can see it
    g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
    calls = []
    degrees = DenseGraph.degrees
    monkeypatch.setattr(DenseGraph, "degrees", lambda self: calls.append(1) or degrees(self))
    with pytest.raises(NotStronglyRegular) as e:
        srg_params(g)
    assert e.value.witness == (0, 1, "degree", 3, 2)
    assert calls


def test_complete_and_empty_are_degenerate():
    with pytest.raises(Degenerate):
        srg_params(DenseGraph(np.zeros((5, 5), dtype=bool)))
    complete = ~np.eye(5, dtype=bool)
    with pytest.raises(Degenerate):
        srg_params(DenseGraph(complete))


def test_small_graphs_are_empty_or_complete():
    # below 3 vertices a graph with an edge is complete: K_2 is no empty graph
    with pytest.raises(Degenerate, match="complete graph on 2 vertices"):
        srg_params(from_edges(2, [(0, 1)]))
    for n in (1, 2):
        with pytest.raises(Degenerate, match=f"empty graph on {n} vertices"):
            srg_params(from_edges(n, []))


def test_complement_involution_and_params():
    g = petersen()
    assert complement(complement(g)) == g
    p = srg_params(g)
    pc = srg_params(complement(g))
    assert (pc.n, pc.k, pc.lam, pc.mu) == (10, 6, 3, 4)
    assert pc == complement_params(p)
    assert pc.feasible()


def complement_params(p):
    """The parameters of the complement of an srg(n, k, lambda, mu)."""
    n, k = p.n, p.k
    return type(p)(n, n - k - 1, n - 2 * k + p.mu - 2, n - 2 * k + p.lam)


def test_complement_of_empty_is_complete():
    empty = DenseGraph(np.zeros((4, 4), dtype=bool))
    comp = complement(empty)
    assert comp.edge_count() == 6


def test_adjacency_validation():
    with pytest.raises(ValueError):
        DenseGraph(np.eye(3, dtype=bool))  # loops
    bad = np.zeros((3, 3), dtype=bool)
    bad[0, 1] = True  # not symmetric
    with pytest.raises(ValueError):
        DenseGraph(bad)
    bad = np.zeros((130, 130), dtype=bool)
    bad[129, 70] = True  # only in the third band of rows
    with pytest.raises(ValueError, match="symmetric"):
        DenseGraph(bad)
    bad = np.zeros((300, 300), dtype=bool)
    bad[299, 290] = True  # only in the last, partial 44 x 44 tile
    with pytest.raises(ValueError, match="symmetric"):
        DenseGraph(bad)


def test_graph6_against_networkx_petersen():
    g = petersen()
    ours = to_graph6(g)
    theirs = nx.to_graph6_bytes(nx.petersen_graph(), header=False).decode().strip()
    assert ours == theirs
    assert from_graph6(ours) == g


def test_graph6_large_n_header():
    # n = 63 needs the 0x7E + 3-char size field
    g = from_edges(63, [(0, 1), (10, 62)])
    s = to_graph6(g)
    assert s[0] == chr(126)
    assert from_graph6(s) == g
    theirs = nx.to_graph6_bytes(
        nx.from_numpy_array(g.adj.astype(int)), header=False
    ).decode().strip()
    assert s == theirs


@pytest.mark.parametrize(
    "desc", ["paley:13", "vls:16:3", "hamming2:5", "hq:2:3", "vo:-:4:2", "paley:81", "vo:+:8:2"]
)
def test_graph6_matches_networkx_on_family_graphs(desc):
    # the columns of the upper triangle are read off the packed rows a band
    # at a time; networkx encodes the matrix itself
    g = family_graph(parse_descriptor(desc))
    theirs = nx.to_graph6_bytes(nx.from_numpy_array(g.adj.astype(int)), header=False)
    assert to_graph6(g) == theirs.decode().strip()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 140), st.integers(0, 2**32 - 1))
def test_graph6_matches_networkx_on_random_graphs(n, seed):
    # n(n-1)/2 bits of every residue mod 6, so every padding of the last character
    rng = np.random.default_rng(seed)
    adj = np.triu(rng.random((n, n)) < 0.4, 1)
    g = DenseGraph(adj | adj.T)
    theirs = nx.to_graph6_bytes(nx.from_numpy_array(g.adj.astype(int)), header=False)
    assert to_graph6(g) == theirs.decode().strip()


def test_graph6_of_4096_vertices_stays_small():
    # the string is n^2 / 12 bytes (1.4 MB) and the packed rows 2 MiB; the
    # n x n matrix alone would be 16 MiB.  The rows are unpacked in 64 bands
    # of 64 rows, most ending mid-character, and the string is checked
    # against the upper triangle read off the matrix outside the trace
    g = family_graph(parse_descriptor("hq:4:3"))
    assert g.n == 4096
    tracemalloc.start()
    try:
        text = to_graph6(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    bits = g.adj[np.tril_indices(g.n, -1)]
    bits = np.concatenate([bits, np.zeros(-bits.size % 6, dtype=bool)])
    body = np.packbits(bits.reshape(-1, 6), axis=1)[:, 0] >> 2
    assert text[4:].encode() == (body + 63).tobytes()


@settings(max_examples=60)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_graph6_round_trip_random(n, seed):
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n)) < 0.4
    adj = np.triu(adj, 1)
    adj = adj | adj.T
    g = DenseGraph(adj)
    assert from_graph6(to_graph6(g)) == g


@settings(max_examples=40)
@given(st.integers(3, 30), st.integers(0, 2**32 - 1))
def test_complement_involution_random(n, seed):
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n)) < 0.5
    adj = np.triu(adj, 1)
    g = DenseGraph(adj | adj.T)
    assert complement(complement(g)) == g
    # degree sum check: deg_G(v) + deg_co(v) = n - 1
    assert (g.degrees() + complement(g).degrees() == n - 1).all()


def test_common_neighbours_matches_naive_counting():
    # neighbour_counts counts a large set by AND + popcount over the packed
    # rows; every pair of packed rows against the boolean rows
    rng = np.random.default_rng(7)
    for n in (20, 64, 65, 130):
        adj = np.triu(rng.random((n, n)) < 0.3, 1)
        g = DenseGraph(adj | adj.T)
        packed = np.bitwise_count(g._rows[:, None, :] & g._rows[None, :, :]).sum(axis=2)
        naive = g.adj.astype(np.int64) @ g.adj.astype(np.int64)
        assert np.array_equal(packed, naive)


def members_and_graph(n: int, size: int, circulant_graph: bool, seed: int):
    """A random graph on n vertices, bare or from row 0 over Z_n, and `size`
    distinct random vertices."""
    rng = np.random.default_rng(seed)
    if circulant_graph:
        row0 = rng.random(n) < rng.random()
        row0[0] = False
        row0 |= row0[-np.arange(n) % n]
        g = DenseGraph.from_row0(row0, (n,))
    else:
        adj = np.triu(rng.random((n, n)) < rng.random(), 1)
        g = DenseGraph(adj | adj.T)
    return g, rng.choice(n, size=size, replace=False)


def against_the_matrix(g: DenseGraph, members: np.ndarray) -> bool:
    """neighbour_counts(members) against adj @ indicator(members)."""
    indicator = np.zeros(g.n, dtype=np.int64)
    indicator[members] = 1
    return np.array_equal(g.neighbour_counts(members), g.adj.astype(np.int64) @ indicator)


# every branch of neighbour_counts: no members, one and two (summed like a
# few), sets just below and at n / 8 and n / 4 (where summing rows gives way
# to AND + popcount), and the whole vertex set
MEMBER_COUNTS = {
    "none": lambda n: 0,
    "one": lambda n: 1,
    "two": lambda n: 2,
    "below n/8": lambda n: (n - 1) // 8,
    "n/8": lambda n: -(-n // 8),
    "below n/4": lambda n: (n - 1) // 4,
    "n/4": lambda n: -(-n // 4),
    "all": lambda n: n,
}


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 300), st.sampled_from(sorted(MEMBER_COUNTS)), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_neighbour_counts_match_the_matrix(n, kind, circulant_graph, seed):
    # most n are not multiples of 64, so the padding bits are read too
    size = MEMBER_COUNTS[kind](n)
    assume(size <= n)
    g, members = members_and_graph(n, size, circulant_graph, seed)
    assert against_the_matrix(g, members)


@pytest.mark.parametrize("size", [3, 200, 374, 375, 900])
def test_neighbour_counts_over_several_blocks(size):
    # n = 1500: a sum of fewer than n / 4 rows is unpacked in blocks of 174
    # rows (one, two or three here), and a larger set is ANDed in two blocks
    # of packed rows
    g, members = members_and_graph(1500, size, False, size)
    assert against_the_matrix(g, members)


def signature_by_the_matrix(g: DenseGraph, vertices: np.ndarray) -> np.ndarray:
    """adj[vertices] weighted by 2**i for the i-th vertex, summed per column."""
    weights = np.left_shift(1, np.arange(len(vertices), dtype=np.int64))
    return (g.adj[vertices].astype(np.int64) * weights[:, None]).sum(axis=0)


# the refiner's batches of singletons: one vertex (its own path), sizes
# either side of 8 and 16, and the whole count field of the refiner's key
# (W); n = 1024 -> 1025 is where vbits grows and W shrinks, 43 -> 41
BATCH_SIZES = {
    "1": lambda w: 1, "8": lambda w: 8, "9": lambda w: 9, "16": lambda w: 16,
    "17": lambda w: 17, "W": lambda w: w,
}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1023, 1024, 1025]), st.sampled_from(sorted(BATCH_SIZES)),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_adjacency_bits_match_the_matrix(n, kind, circulant_graph, seed):
    g, _ = members_and_graph(n, 0, circulant_graph, seed)
    width = _Refiner(g).cbits
    assert width == (43 if n <= 1024 else 41)
    vertices = np.random.default_rng(seed).choice(n, BATCH_SIZES[kind](width), replace=False)
    assert np.array_equal(g.adjacency_bits(vertices), signature_by_the_matrix(g, vertices))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 120), st.integers(0, 53), st.booleans(), st.integers(0, 2**32 - 1))
def test_adjacency_bits_on_small_graphs(n, size, circulant_graph, seed):
    # up to the kernel's 53 vertices, and every vertex of a small graph
    g, vertices = members_and_graph(n, min(size, n), circulant_graph, seed)
    bits = g.adjacency_bits(vertices)
    assert bits.dtype.kind in "iu" and bits.shape == (n,)
    assert np.array_equal(bits, signature_by_the_matrix(g, vertices))


def test_adjacency_bits_refuse_more_than_53_vertices():
    g, vertices = members_and_graph(60, 54, False, 0)
    with pytest.raises(ValueError, match="at most 53"):
        g.adjacency_bits(vertices)


def weighted_by_the_matrix(g: DenseGraph, vertices: np.ndarray, offsets) -> np.ndarray:
    """adj[vertices] weighted by 2**offsets[i] for the i-th vertex, summed
    per column, in Python ints."""
    rows = g.adj[vertices].tolist()
    return np.array([sum(row[v] << o for row, o in zip(rows, offsets)) for v in range(g.n)])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 300), st.lists(st.integers(1, 8), min_size=1, max_size=12),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_adjacency_bits_with_offsets_match_the_matrix(n, cells, circulant_graph, seed):
    # the refiner's batches: runs of vertices, each run a cell sharing the
    # offset of the widths before it, so each vertex's value packs its
    # neighbour count in each cell side by side
    assume(sum(cells) <= min(n, 53))
    g, vertices = members_and_graph(n, sum(cells), circulant_graph, seed)
    widths = [s.bit_length() for s in cells]
    offsets = np.repeat(np.cumsum(widths) - widths, cells)
    bits = g.adjacency_bits(vertices, offsets)
    assert np.array_equal(bits, weighted_by_the_matrix(g, vertices, offsets.tolist()))
    shift = 0
    for size, width in zip(cells, widths):  # each field is that cell's count
        cell, vertices = vertices[:size], vertices[size:]
        want = g.adj[cell].sum(axis=0)
        assert np.array_equal((bits >> shift) & ((1 << width) - 1), want)
        shift += width


def test_adjacency_bits_refuse_offsets_past_53_bits():
    g, vertices = members_and_graph(60, 2, False, 0)
    assert np.array_equal(g.adjacency_bits(vertices[:1], [52]), g.adj[vertices[0]] * (1 << 52))
    for offsets in ([53, 0], [52, 52]):
        with pytest.raises(ValueError, match="2\\*\\*53"):
            g.adjacency_bits(vertices, offsets)


def random_graph(n: int, rng) -> DenseGraph:
    adj = np.triu(rng.random((n, n)) < 0.5, 1)
    return DenseGraph(adj | adj.T)


def relabelled(g: DenseGraph, sigma: np.ndarray) -> DenseGraph:
    """The graph h with h.adj[sigma[i], sigma[j]] = g.adj[i, j]."""
    inv = np.argsort(sigma)
    return DenseGraph(g.adj[np.ix_(inv, inv)])


@settings(max_examples=60)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.booleans())
def test_is_isomorphism_matches_full_gather(n, seed, related):
    rng = np.random.default_rng(seed)
    g = random_graph(n, rng)
    sigma = rng.permutation(n)
    h = relabelled(g, sigma) if related else random_graph(n, rng)
    for m in (sigma, rng.permutation(n)):
        assert is_isomorphism(g, h, m) == np.array_equal(h.adj[np.ix_(m, m)], g.adj)
    if related:
        assert is_isomorphism(g, h, sigma)


def test_is_isomorphism_checks_the_last_partial_block():
    # 1500 rows are 34 blocks of 43 and one of 38: a difference in the last
    # two rows only shows in the short last block
    n = 1500
    rng = np.random.default_rng(3)
    g = random_graph(n, rng)
    sigma = rng.permutation(n)
    h = relabelled(g, sigma)
    assert is_isomorphism(g, h, sigma)
    adj = h.adj.copy()
    a, b = sigma[n - 1], sigma[n - 2]
    adj[a, b] = adj[b, a] = not adj[a, b]
    assert np.array_equal(adj[np.ix_(sigma, sigma)][: n - 2], g.adj[: n - 2])
    assert not is_isomorphism(g, DenseGraph(adj), sigma)


@pytest.mark.parametrize("j,i", [(0, 699), (10, 400), (87, 93), (650, 651), (93, 94)])
def test_is_isomorphism_checks_a_pair_in_its_column_block(j, i):
    # the row path compares block [lo, hi) on the columns from lo on, rounded
    # down to a whole byte.  The pair {j, i} is broken alone: in the first
    # four, row i lies in a block that starts after column j, so only j's
    # block compares the pair, as (j, i); in the last, both lie at the
    # start of the block [93, 186), which starts mid-byte
    n = 700
    assert (1 << 16) // n == 93  # is_isomorphism's rows per block
    rng = np.random.default_rng(j * n + i)
    g = random_graph(n, rng)
    sigma = rng.permutation(n)
    adj = relabelled(g, sigma).adj.copy()
    a, b = sigma[i], sigma[j]
    adj[a, b] = adj[b, a] = not adj[a, b]
    h = DenseGraph(adj)
    diff = np.argwhere(h.adj[np.ix_(sigma, sigma)] != g.adj)
    assert sorted(map(tuple, diff.tolist())) == [(j, i), (i, j)]
    assert not is_isomorphism(g, h, sigma)
    assert is_isomorphism(g, relabelled(g, sigma), sigma)


# -- translation moduli and the one-row SRG check ---------------------------------


def test_unit_translations_are_mixed_radix_increments():
    t0, t1 = unit_translations((3, 2))
    # point i = c0 + 3 * c1
    assert t0.tolist() == [1, 2, 0, 4, 5, 3]
    assert t1.tolist() == [3, 4, 5, 0, 1, 2]


def test_false_moduli_rejected():
    # moduli come only with from_row0, whose matrix is circulant by
    # construction: a matrix cannot be handed moduli, and C_7 relabelled by
    # swapping 1 and 2 (still a 7-cycle, but i -> i + 1 is no longer an
    # automorphism of the matrix) has a row 0 that is no circulant's
    sigma = np.arange(7)
    sigma[[1, 2]] = [2, 1]
    c7 = relabelled(cycle(7), sigma)
    with pytest.raises(TypeError):
        DenseGraph(c7.adj, (7,))
    assert DenseGraph(c7.adj).moduli is None
    with pytest.raises(ValueError, match="not symmetric"):
        DenseGraph.from_row0(c7.adj[0], (7,))
    # the Petersen graph is vertex-transitive but not a Cayley graph
    with pytest.raises(ValueError, match="not symmetric"):
        DenseGraph.from_row0(petersen().adj[0], (10,))
    with pytest.raises(ValueError, match="multiply"):
        DenseGraph.from_row0(cycle(6).adj[0], (2, 2))
    g = DenseGraph.from_row0(cycle(7).adj[0], (7,))
    assert g == cycle(7) and g.moduli == (7,)


@functools.cache
def difference_index(moduli: tuple[int, ...]) -> np.ndarray:
    """diff[x, y] = the index of y - x, the difference taken digit by digit,
    built pair by pair from the mixed-radix digits, once per moduli."""
    n = math.prod(moduli)
    digits = [np.unravel_index(i, moduli[::-1])[::-1] for i in range(n)]
    index = {d: i for i, d in enumerate(digits)}
    diff = np.array([
        [index[tuple((b - a) % m for a, b, m in zip(dx, dy, moduli))] for dy in digits]
        for dx in digits
    ])
    diff.setflags(write=False)
    return diff


def circulant(row0: np.ndarray, moduli: tuple[int, ...]) -> np.ndarray:
    """adj[x, y] = row0[y - x], read through difference_index."""
    return row0[difference_index(moduli)]


def negation(moduli: tuple[int, ...]) -> np.ndarray:
    n = int(np.prod(moduli))
    return circulant(np.arange(n), moduli)[:, 0]


CERTIFIED_MODULI = [(2, 3), (3, 2, 2), (4,), (2,) * 5, (2,) * 8, (2, 7), (5, 5), (6,)]


def translation(x: int, moduli: tuple[int, ...]) -> np.ndarray:
    """The image array of y -> y + x, digit by digit."""
    n = int(np.prod(moduli))
    return np.argsort(circulant(np.arange(n), moduli)[x])


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(CERTIFIED_MODULI), st.data())
def test_certificate_agrees_with_unit_translations(moduli, data):
    # from_row0 accepts row 0 exactly when it is symmetric and loop-free,
    # and then builds the pair-by-pair circulant: a matrix on which every
    # unit translation is an automorphism by the n^2 check
    n = int(np.prod(moduli))
    row0 = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if data.draw(st.booleans()):  # a valid row 0: symmetric, no loop
        row0 |= row0[negation(moduli)]
        row0[0] = False
    if row0[0] or not np.array_equal(row0[negation(moduli)], row0):
        with pytest.raises(ValueError):
            DenseGraph.from_row0(row0, moduli)
        return
    g = DenseGraph.from_row0(row0, moduli)
    assert np.array_equal(g.adj, circulant(row0, moduli)) and g.moduli == moduli
    bare = DenseGraph(g.adj)
    assert all(is_isomorphism(bare, bare, t) for t in unit_translations(moduli))
    # row 0's autocorrelation gives what every row's popcount sweep gives
    assert srg_outcome(g) == srg_outcome(bare)


def srg_outcome(g: DenseGraph):
    """srg_params(g), or the class and the witness of what it raised."""
    try:
        return srg_params(g)
    except (NotStronglyRegular, Degenerate) as exc:
        return type(exc), getattr(exc, "witness", None)


AUTOCORRELATION_MODULI = [(2,) * k for k in range(1, 9)] + [
    (2, 3), (3, 2, 2), (7, 2), (2, 2, 5), (13,), (3, 3),
]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(AUTOCORRELATION_MODULI), st.data())
def test_autocorrelation_is_the_digitwise_sum(moduli, data):
    # the butterflies on the radix-2 digits and the FFT on the others give
    # exactly sum_y row0[y] * row0[y - z], the difference taken digit by digit
    d, m, place = graphs._radix(moduli)
    n = d.shape[1]
    row0 = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    row0 |= row0[((-d) % m * place).sum(axis=0)]
    row0[0] = False
    diff = ((d[:, :, None] - d[:, None, :]) % m[:, :, None] * place[:, :, None]).sum(axis=0)
    want = (row0[:, None] & row0[diff]).sum(axis=0)  # diff[y, z] is y - z
    got = graphs._autocorrelation(row0, moduli)
    assert got.dtype == np.int64 and np.array_equal(got, want)


# whether numpy.fft is loaded before and after one srg_params, on stdout
SRG_FFT_IMPORT = """
import sys
from rank3.families import family_graph, parse_descriptor
from rank3.graphs import srg_params
g = family_graph(parse_descriptor(sys.argv[1]))
before = "numpy.fft" in sys.modules
srg_params(g)
print(before, "numpy.fft" in sys.modules)
"""


@pytest.mark.parametrize(
    "descriptor, imported",
    [("hq:2:5", False), ("a52", False), ("vo:+:8:2", False), ("paley:13", True)],
)
def test_srg_on_gf2_needs_no_numpy_fft(descriptor, imported):
    # on GF(2)^d the autocorrelation is all integer butterflies, so a fresh
    # process never pays numpy.fft's first use (about 1.3 ms); paley:13, on
    # Z_13, is the control that the check sees the import
    env = dict(os.environ, PYTHONPATH=str(Path(rank3.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", SRG_FFT_IMPORT, descriptor],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    assert done.stdout.split() == ["False", str(imported)]


@pytest.mark.parametrize("moduli", [(5, 5), (2,) * 6, (13,), (7, 2), (3, 4, 5), (50, 2), (2, 50)])
def test_certificate_reaches_the_last_row(moduli):
    # the construction is the certificate: its bands reach the last row of
    # the last band, which is row 0 translated by vertex n - 1, and that
    # translation is an automorphism of the built matrix
    n = int(np.prod(moduli))
    rng = np.random.default_rng(n)
    row0 = rng.random(n) < 0.5
    row0 |= row0[negation(moduli)]
    row0[0] = False
    g = DenseGraph.from_row0(row0, moduli)
    assert np.array_equal(g.adj, circulant(row0, moduli))
    assert np.array_equal(g.adj[n - 1][translation(n - 1, moduli)], row0)
    assert is_isomorphism(g, g, translation(n - 1, moduli))


@pytest.mark.parametrize("moduli", [(1000, 2), (2, 1000), (2000,), (10, 200), (2,) * 11])
def test_bands_need_no_more_than_one_band_of_memory(moduli):
    # a large leading digit must not make the first band (n/2) x n: every
    # block and every temporary stays near sqrt(n) rows of n
    n = int(np.prod(moduli))
    row0 = np.random.default_rng(n).random(n) < 0.5
    step = math.isqrt(n)
    tracemalloc.start()
    try:
        rows = [len(block) for _, block in _circulant_blocks(row0, moduli)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(rows) == n and max(rows) <= step
    assert peak < 4 * step * n


def test_invariant_matrix_must_be_symmetric_and_loop_free():
    # the directed 7-cycle is translation-invariant but not symmetric
    row0 = np.zeros(7, dtype=bool)
    row0[1] = True
    with pytest.raises(ValueError, match="not symmetric"):
        DenseGraph(circulant(row0, (7,)))
    with pytest.raises(ValueError, match="not symmetric"):
        DenseGraph.from_row0(row0, (7,))
    # every vertex with a loop, and otherwise the undirected 7-cycle
    row0[[0, 6]] = True
    with pytest.raises(ValueError, match="loop"):
        DenseGraph(circulant(row0, (7,)))
    with pytest.raises(ValueError, match="loop"):
        DenseGraph.from_row0(row0, (7,))


def test_seven_cycle_witness_at_vertex_zero():
    # Cay(GF(7), {+-1}) = C_7: lambda = 0 from (0, 1), and the nonadjacent
    # pairs (0, 2) and (0, 3) have 1 and 0 common neighbours
    g = cayley_graph(7, 1, [1, 6])
    assert g.moduli == (7,)
    with pytest.raises(NotStronglyRegular) as e:
        srg_params(g)
    assert e.value.witness == (0, 3, "nonadjacent", 0, 1)


def test_matrix_built_only_by_its_first_reader(monkeypatch):
    # row 0 is the graph: construction, srg, subdegrees and the complement
    # read only row 0, and the search packs the rows once
    builds = []
    monkeypatch.setattr(
        graphs, "_circulant_blocks", lambda *args: builds.append(args) or _circulant_blocks(*args)
    )
    a52 = next(e for e in builtin_catalog() if e.id == "a52")
    assert a52.tier == "PARAMS_ONLY"
    assert verify_entry(a52).verdict == "PASS"
    g = cayley_graph(3, 2, [1, 2, 3, 6])
    assert srg_params(complement(g)) == complement_params(srg_params(g))
    assert builds == []
    assert automorphism_group(g).order == 72
    assert len(builds) == 1
    assert np.array_equal(g.adj, circulant(g.row0, (3, 3))) and g._rows.shape == (9, 8)
    assert len(builds) == 1


def test_complement_keeps_moduli():
    g = cayley_graph(3, 2, [1, 2, 3, 6])
    co = complement(g)
    assert co.moduli == (3, 3)
    assert co == complement(DenseGraph(g.adj))
    assert srg_params(co) == srg_params(DenseGraph(co.adj))
    assert srg_params(co) == complement_params(srg_params(g))


# -- the affine path of is_isomorphism ---------------------------------------------


def affine_map(a: np.ndarray, b: int, m: int) -> np.ndarray:
    """The image array of y -> a y + b over Z_m^k (a is k x k, b a vertex),
    vertex i being the vector of its base-m digits, lowest first."""
    shape = (m,) * len(a)
    digits = np.array(np.unravel_index(np.arange(m ** len(a)), shape)[::-1])
    return np.ravel_multi_index(tuple(((a @ digits + digits[:, [b]]) % m)[::-1]), shape)


def affine_part(img: np.ndarray, m: int, k: int) -> np.ndarray | None:
    """The affine map y -> a y + img[0] that agrees with img at 0 and the unit
    vectors, if it agrees with img everywhere; None otherwise."""
    digits = np.array(np.unravel_index(img[m ** np.arange(k)], (m,) * k)[::-1])
    base = np.array(np.unravel_index(img[0], (m,) * k)[::-1]).reshape(k, 1)
    affine = affine_map((digits - base) % m, int(img[0]), m)
    return affine if np.array_equal(affine, img) else None


def fresh(g: DenseGraph) -> DenseGraph:
    """g rebuilt from row 0, its rows not packed yet."""
    return DenseGraph.from_row0(g.row0, g.moduli)


def packing_free(g: DenseGraph, h: DenseGraph, mapping: np.ndarray) -> tuple[bool, bool]:
    """is_isomorphism on fresh copies, and whether it left their rows
    unpacked, i.e. took the affine path: (answer, affine path taken)."""
    g, h = fresh(g), fresh(h)
    return is_isomorphism(g, h, mapping), g._bytes is None and h._bytes is None


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 1), (9, 2)]), st.data())
def test_affine_path_agrees_with_full_check(shape, data):
    # Cay(Z_m^k, S) against a random bijective affine map sigma = a y + b: S
    # is a union of <a, -1>-orbits (sigma an automorphism) or any symmetric
    # set, and h is g, sigma's image of g or another Cayley graph on Z_m^k.
    # sigma, sigma with two images swapped and a random permutation must get
    # the n^2 answer, and only sigma may leave the rows unpacked
    m, k = shape
    n = m**k
    a = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=k * k, max_size=k * k)))
    a = a.reshape(k, k)
    sigma = affine_map(a, data.draw(st.integers(0, n - 1)), m)
    assume(len(set(sigma.tolist())) == n)  # a is invertible mod m
    lin, neg = affine_map(a, 0, m), affine_map(-np.eye(k, dtype=int), 0, m)
    seeds = data.draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=4))
    if data.draw(st.booleans()):
        members = set().union(*(orbit(GeneratorSet(n, (lin, neg)), s) for s in seeds))
    else:
        members = set(seeds) | {int(neg[s]) for s in seeds}
    row0 = np.isin(np.arange(n), sorted(members))
    kind = data.draw(st.sampled_from(["same", "image", "other"]))
    if kind == "image":  # sigma carries g onto h: h.row0[a z] = g.row0[z]
        h_row0 = np.empty(n, dtype=bool)
        h_row0[lin] = row0
    elif kind == "other":
        others = data.draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=4))
        h_row0 = np.isin(np.arange(n), sorted(set(others) | {int(neg[s]) for s in others}))
    else:
        h_row0 = row0
    g = DenseGraph.from_row0(row0, (m,) * k)
    h = DenseGraph.from_row0(h_row0, (m,) * k)
    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    swapped = sigma.copy()
    swapped[[i, j]] = sigma[[j, i]]
    perm = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(n)
    for mapping in (sigma, swapped, perm):
        got, affine = packing_free(g, h, mapping)
        assert got == np.array_equal(h.adj[np.ix_(mapping, mapping)], g.adj)
        assert affine == (affine_part(mapping, m, k) is not None)
    assert packing_free(g, h, sigma)[1] and not packing_free(g, h, swapped)[1]
    if kind == "image":
        assert is_isomorphism(g, h, sigma)


@pytest.mark.parametrize("m,k", [(2, 10), (3, 7), (3, 8)])
def test_affine_path_in_several_blocks(m, k):
    # over 8192 digits, so the affine path checks two or more blocks of rows.
    # sigma carries g onto its image h and not (in general) onto g; sigma with
    # two images swapped in its last block is not affine.  Each must get the
    # n^2 answer, sigma without packing the rows, and no traced allocation
    # may pass glibc's 128 KiB mmap threshold while sigma is checked
    n = m**k
    assert k * n > 1 << 13
    rng = np.random.default_rng(k)
    sigma = np.zeros(n, dtype=np.int64)
    while len(set(sigma.tolist())) < n:  # until a is invertible mod m
        a = rng.integers(0, m, size=(k, k))
        sigma = affine_map(a, int(rng.integers(n)), m)
    neg = affine_map(-np.eye(k, dtype=int), 0, m)
    row0 = rng.random(n) < 0.3
    row0[0] = False
    row0 |= row0[neg]
    h_row0 = np.empty(n, dtype=bool)
    h_row0[affine_map(a, 0, m)] = row0  # h.row0[a z] = g.row0[z]
    g = DenseGraph.from_row0(row0, (m,) * k)
    h = DenseGraph.from_row0(h_row0, (m,) * k)
    tracemalloc.start()
    try:
        got = is_isomorphism(g, h, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got and g._bytes is None and h._bytes is None and peak < 1 << 17
    swapped = sigma.copy()
    swapped[[n - 2, n - 1]] = sigma[[n - 1, n - 2]]
    for dst, mapping in ((g, sigma), (h, swapped)):
        got, affine = packing_free(g, dst, mapping)
        assert got == np.array_equal(dst.adj[np.ix_(mapping, mapping)], g.adj)
        assert affine == (mapping is sigma)


@pytest.mark.parametrize("moduli", [(65521,), (251, 251)])
def test_affine_path_on_large_digits_stays_in_blocks(moduli):
    # one cyclic digit of 65521 values, and two of 251: the parts of A y are
    # made block by block, not for the whole high table at once (2.1 MB on
    # Z_65521 when they were), so no temporary passes 128 KiB and the peak
    # holds at most this block's and the last one's
    n = math.prod(moduli)
    rng = np.random.default_rng(n)
    neg = np.ravel_multi_index(tuple(-np.array(np.unravel_index(np.arange(n), moduli)) % np.array(moduli)[:, None]), moduli)
    row0 = rng.random(n) < 0.3
    row0[0] = False
    row0 |= row0[neg]
    g = DenseGraph.from_row0(row0, moduli)
    for mapping in (neg, np.arange(n)):  # the first call builds the shared digit tables
        tracemalloc.start()
        try:
            got = is_isomorphism(g, g, mapping)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got and g._bytes is None
    assert peak < 1 << 19


def test_affine_digit_tables_are_shared_and_read_only():
    # they depend on the moduli alone, so every map check on one group reads
    # the same tables, and no check can write into them
    first = graphs._digit_tables((3,) * 7)
    assert graphs._digit_tables((3,) * 7) is first
    for table in first[1:]:
        assert not table.flags.writeable


def mixed_stack(m: int, k: int, rng: np.random.Generator, count: int):
    """A Cayley graph on Z_m^k whose connection set is a union of <a0, -1>
    orbits for a random invertible a0, and a stack of `count` bijections,
    each drawn as one of: an automorphism y -> a0^i y + b; a random
    bijective affine map, an automorphism or not; an automorphism with two
    images swapped, or a random permutation (neither affine)."""
    n = m**k

    def invertible():
        while True:
            a = rng.integers(0, m, size=(k, k))
            if len(set(affine_map(a, 0, m).tolist())) == n:
                return a

    a0 = invertible()
    neg = affine_map(-np.eye(k, dtype=int), 0, m)
    seeds = rng.integers(1, n, size=3)
    group = GeneratorSet(n, (affine_map(a0, 0, m), neg))
    members = set().union(*(orbit(group, int(s)) for s in seeds))
    g = DenseGraph.from_row0(np.isin(np.arange(n), sorted(members)), (m,) * k)
    maps = []
    for kind in rng.integers(0, 4, size=count):
        b = int(rng.integers(n))
        if kind == 0:
            maps.append(affine_map(np.linalg.matrix_power(a0, int(rng.integers(1, 5))) % m, b, m))
        elif kind == 1:
            maps.append(affine_map(invertible(), b, m))
        elif kind == 2:
            sigma = affine_map(a0, b, m)
            i, j = rng.choice(n, size=2, replace=False)
            sigma[[i, j]] = sigma[[j, i]]
            maps.append(sigma)
        else:
            maps.append(rng.permutation(n))
    return g, np.array(maps)


def check_stack(g: DenseGraph, maps: np.ndarray) -> None:
    """The stacked verdict against the row check, the n^2 answer and the
    affine-part oracle, map by map."""
    m, k = g.moduli[0], len(g.moduli)
    affine, carries = graphs._affine_verdict(g, g, maps)
    mask = graphs.isomorphism_mask(g, g, maps)
    for i, mapping in enumerate(maps):
        assert affine[i] == (affine_part(mapping, m, k) is not None)
        want = np.array_equal(g.adj[np.ix_(mapping, mapping)], g.adj)
        assert mask[i] == graphs._rows_carry(g, g, mapping) == want
        if affine[i]:
            assert carries[i] == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 2), (2, 6), (5, 2), (7, 2), (3, 4)]), st.data())
def test_stacked_affine_verdict_agrees_with_row_check(shape, data):
    # a stack of automorphisms, affine maps that may not be, and maps that
    # are not affine: each row's verdict must be the row check's
    m, k = shape
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g, maps = mixed_stack(m, k, rng, data.draw(st.integers(1, 12)))
    check_stack(g, maps)


def test_stacked_affine_verdict_in_several_runs():
    # on (3,)^6 at most 50 maps fit one block of 8192 digits, so a stack of
    # 120 is checked in three runs of maps, each in 27 blocks of one row r
    g, maps = mixed_stack(3, 6, np.random.default_rng(6), 120)
    assert (1 << 13) // (6 * 27) == 50
    check_stack(g, maps)


@pytest.mark.parametrize("a,b", [("vls:64:3", "hq:2:3"), ("vls:25:3", "hamming2:5")])
def test_mappings_between_catalog_graphs(a, b):
    # two catalog graphs on one group: the solver's mapping, its inverse and
    # the mapping with two images swapped, each against the n^2 answer
    g, h = (family_graph(parse_descriptor(desc)) for desc in (a, b))
    assert g.moduli == h.moduli
    mapping = are_isomorphic(g, h)
    swapped = mapping.copy()
    swapped[[0, 1]] = mapping[[1, 0]]
    for src, dst, mp in ((g, h, mapping), (h, g, np.argsort(mapping)), (g, h, swapped)):
        got, _ = packing_free(src, dst, mp)
        assert got == np.array_equal(dst.adj[np.ix_(mp, mp)], src.adj)
    assert packing_free(g, h, mapping)[0] and not packing_free(g, h, swapped)[0]


@pytest.mark.parametrize("desc", ["hamming2:5", "hamming2:9", "vls:25:3"])
def test_rook_automorphisms_outside_the_normalizer_take_the_fallback(desc):
    # Aut of the m x m rook's graph is S_m wr S_2, and most of it is not
    # affine on Z_m^2: those generators must be checked on the packed rows
    fid = parse_descriptor(desc)
    g = family_graph(fid)
    m, k = g.moduli[0], len(g.moduli)
    gens = automorphism_group(g, known=Build(fid).stabilizer).generators.gens
    outside = [img for img in gens if affine_part(img, m, k) is None]
    assert outside
    for img in gens:
        got, affine = packing_free(g, g, img)
        assert got and affine == (affine_part(img, m, k) is not None)
