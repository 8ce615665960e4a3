"""Workload definitions for the rank3 benchmark: rows, pinned answers, inputs
and the correctness check of every timed call.

A workload is a list of Calls built from the workload seed.  Each Call runs
either plain, which is what the end-to-end metrics time, or traced, with a
span around every call into a rank3 module.  Both return a dict whose
``outcome`` is ``ok``, ``wrong`` or ``undecided``, with a ``detail``.

The known answers are pinned here, not read from the package at run time, so
a change to the program cannot move the benchmark's notion of correct.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from rank3.autsolve import NotIsomorphic, Timeout, are_isomorphic, automorphism_group
from rank3.catalog import CatalogEntry, IsoClaim, verify_entry
from rank3.families import (
    affine_orbital_graph,
    family_graph,
    family_group,
    family_matrix_spec,
    parse_descriptor,
    sl25_with_scalars_spec,
)
from rank3.graphs import Degenerate, DenseGraph, NotStronglyRegular, srg_params
from rank3.permgrp import linear_perms, orbit_partition, rank_and_subdegrees

from tracing import Tracer

BUDGET_S = 60.0  # the CLI's default solver budget

# catalog._PAIR_CLOSURE_LIMIT: rows with at most this many vertices take their
# subdegrees from the pair-orbit closure, larger ones from stabilizer orbits.
PAIR_CLOSURE_LIMIT = 4096

OK, WRONG, UNDECIDED = "ok", "wrong", "undecided"


@dataclass(frozen=True)
class Pin:
    """Known answers of one catalog row."""

    n: int
    subdegrees: tuple[int, int]  # edge orbital first, as in the catalog
    order: int  # |Aut|
    iso: tuple[tuple[str, bool], ...]  # (other descriptor, isomorphic?)
    tier: str


# Orders, subdegrees, iso claims and tiers copied from builtin_catalog().  The
# catalog has no order for hq:2:5 and a52; theirs is the group arithmetic.
PINS = {
    "paley:9": Pin(9, (4, 4), 72, (("peisert:9", True),), "FULL"),
    "paley:13": Pin(13, (6, 6), 78, (), "FULL"),
    "paley:17": Pin(17, (8, 8), 136, (), "FULL"),
    "paley:49": Pin(49, (24, 24), 2352, (), "FULL"),
    "paley:81": Pin(81, (40, 40), 12960, (), "FULL"),
    "peisert:49": Pin(49, (24, 24), 3528, (("paley:49", False),), "FULL"),
    "vls:16:3": Pin(16, (5, 10), 1920, (("vo:-:4:2", True),), "FULL"),
    "vls:25:3": Pin(25, (8, 16), 28800, (("hamming2:5", True),), "FULL"),
    "vls:64:3": Pin(64, (21, 42), 64512, (("hq:2:3", True),), "FULL"),
    "hamming2:5": Pin(25, (8, 16), 28800, (), "FULL"),
    "vo:-:4:2": Pin(16, (5, 10), 1920, (), "FULL"),
    "vo:-:6:2": Pin(64, (27, 36), 3317760, (), "FULL"),
    "vo:+:8:2": Pin(256, (135, 120), 89181388800, (), "FULL"),
    "orbital:sl23:7": Pin(49, (24, 24), 3528, (("peisert:49", True),), "FULL"),
    "orbital:q8:13": Pin(169, (72, 96), 48672, (), "FULL"),
    "hamming2:9": Pin(81, (16, 64), 263363788800, (("vls:81:5", True),), "SLOW"),
    "peisert:81": Pin(81, (40, 40), 38880, (("paley:81", False),), "SLOW"),
    "vo:+:4:3": Pin(81, (32, 48), 186624, (), "SLOW"),
    "vls:256:5": Pin(256, (51, 204), 12533760, (), "SLOW"),
    "orbital:q8:17": Pin(289, (96, 192), 110976, (), "SLOW"),
    "hq:3:3": Pin(729, (104, 624), 196515072, (), "SLOW"),
    "orbital:sl25:41": Pin(1681, (480, 1200), 4034400, (), "SLOW"),
    # 2^10 translations times |GL_2(2)| * |GL_5(2)| = 6 * 9999360
    "hq:2:5": Pin(1024, (93, 930), 1024 * 6 * 9999360, (), "PARAMS_ONLY"),
    # 2^10 translations times |L_5(2)| = 9999360
    "a52": Pin(1024, (155, 868), 1024 * 9999360, (), "PARAMS_ONLY"),
    "orbital:extraspecial:625": Pin(625, (240, 384), 28800000, (), "PARAMS_ONLY"),
    "orbital:q8:31": Pin(961, (240, 720), 691920, (), "PARAMS_ONLY"),
    "orbital:extraspecial:2401": Pin(2401, (480, 1920), 27659520, (), "PARAMS_ONLY"),
    "orbital:sl25:71": Pin(5041, (840, 4200), 21172200, (), "PARAMS_ONLY"),
}

# Why each workload exists is recorded in BENCHMARK.json.
ROWS = {
    # every FULL and SLOW row, in catalog order: `rank3 verify --tier slow`
    "verify_slow": [
        "paley:9", "paley:13", "paley:17", "paley:49", "paley:81",
        "peisert:49", "vls:16:3", "vls:25:3", "vls:64:3", "hamming2:5",
        "vo:-:4:2", "vo:-:6:2", "vo:+:8:2", "orbital:sl23:7", "orbital:q8:13",
        "hamming2:9", "peisert:81", "vo:+:4:3", "vls:256:5", "orbital:q8:17",
        "hq:3:3", "orbital:sl25:41",
    ],
    # large parameter-only rows: dense srg, both subdegree paths, spec searches
    "params_large": [
        "hq:2:5", "a52", "orbital:q8:31", "orbital:extraspecial:2401",
        "orbital:sl25:71",
    ],
}
# solver_relabel: aut and iso on a seeded relabelling of each of these ...
SOLVER_ROWS = [
    "hq:3:3", "orbital:extraspecial:625", "hq:2:5", "a52", "vo:+:8:2",
    "hamming2:9",
]
# ... and are_isomorphic(first, relabelled second) on these non-isomorphic pairs
NONISO_PAIRS = [("paley:49", "peisert:49"), ("paley:81", "peisert:81")]

WORKLOADS = ("verify_slow", "params_large", "solver_relabel")


@dataclass
class Call:
    """One timed call of a workload."""

    name: str
    kind: str  # row | aut | iso | noniso
    plain: Callable[[], dict]
    traced: Callable[[Tracer], dict]


# -- checks -------------------------------------------------------------------


def check_order(order: int, want: int) -> dict:
    if order != want:
        return {"outcome": WRONG, "detail": f"order {order} != pinned {want}"}
    return {"outcome": OK, "detail": f"order {order}"}


def check_mapping(g: DenseGraph, h: DenseGraph, mapping) -> dict:
    """Re-check an isomorphism g -> h independently of the solver."""
    m = np.asarray(mapping)
    if m.shape != (g.n,) or not np.array_equal(np.sort(m), np.arange(g.n)):
        return {"outcome": WRONG, "detail": "mapping is not a bijection"}
    if not np.array_equal(h.adj[np.ix_(m, m)], g.adj):
        return {"outcome": WRONG, "detail": "mapping is not an isomorphism"}
    return {"outcome": OK, "detail": "isomorphic, mapping re-checked"}


_SUBDEGREE_LIST = re.compile(r"\[(\d+), (\d+)\]")


def listed_subdegrees(detail: str) -> list[int] | None:
    """The subdegree pair a subdegree-stage detail lists, if any."""
    m = _SUBDEGREE_LIST.search(detail)
    return None if m is None else [int(m.group(1)), int(m.group(2))]


_OUTCOME = {"PASS": OK, "PASS_DOWNGRADED": UNDECIDED, "FAIL": WRONG}


def check_report(entry: CatalogEntry, report) -> dict:
    """Classify a verify_entry Report against the entry it was given."""
    expected = ["construct", "srg", "subdegrees"]
    if entry.tier != "PARAMS_ONLY":
        expected += ["aut", "iso"]
    stages = {name: o.status for name, o in report.stages.items()}
    outcome = _OUTCOME[report.verdict] if report.id == entry.id else WRONG
    detail = "; ".join(
        f"{name}={o.status}: {o.detail}"
        for name, o in report.stages.items()
        if o.status not in ("ok", "skipped")
    )
    if outcome == OK and any(stages.get(s) != "ok" for s in expected):
        outcome, detail = WRONG, f"stages {stages}, want {expected} ok"
    sub = report.stages.get("subdegrees")
    return {
        "outcome": outcome,
        "detail": detail or report.verdict,
        "verdict": report.verdict,
        "stages": stages,
        "subdegrees": None if sub is None else listed_subdegrees(sub.detail),
        "timings_ms": dict(report.timings_ms),
    }


# -- catalog rows -------------------------------------------------------------


def catalog_entry(row_id: str, pin: Pin | None = None) -> CatalogEntry:
    """The CatalogEntry verify_entry checks against, built from the pin."""
    pin = PINS[row_id] if pin is None else pin
    return CatalogEntry(
        id=row_id,
        family=parse_descriptor(row_id),
        n=pin.n,
        subdegrees=pin.subdegrees,
        expected_aut_order=pin.order,
        group_name="",
        iso_claims=tuple(IsoClaim(other, iso) for other, iso in pin.iso),
        tier=pin.tier,
        source="pinned by the benchmark",
    )


def _traced_subdegrees(entry, g, tr: Tracer) -> tuple[str, list[int] | None]:
    if int(g.adj[0].sum()) != entry.subdegrees[0]:
        return "mismatch", None
    claimed = sorted(entry.subdegrees)
    if entry.n <= PAIR_CLOSURE_LIMIT:
        with tr.span("families.group"):
            gs = family_group(entry.family)
        if gs is None:
            return "ok", None
        with tr.span("permgrp.subdegrees"):
            rank, sizes = rank_and_subdegrees(gs)
        if rank != 3:
            return "mismatch", None
        sizes = sorted(sizes)
        return ("ok" if sizes == claimed else "mismatch"), sizes
    with tr.span("families.spec"):
        spec = family_matrix_spec(entry.family)
    if spec is None:
        return "ok", None
    with tr.span("permgrp.orbits"):
        orbits = orbit_partition(linear_perms(spec))
    sizes = sorted(len(o) for o in orbits if len(o) > 1 or int(o[0]) != 0)
    return ("ok" if sizes == claimed else "mismatch"), sizes


def _traced_iso(entry, g, tr: Tracer) -> tuple[str, list[str]]:
    status, notes = "ok", []
    for claim in entry.iso_claims:
        with tr.span("families.construct"):
            other = family_graph(parse_descriptor(claim.other))
        kind = "autsolve.iso" if claim.isomorphic else "autsolve.noniso"
        with tr.span(kind):
            try:
                mapping = are_isomorphic(g, other, budget=BUDGET_S)
            except NotIsomorphic:
                mapping = None
            except Timeout:
                status = "timeout" if status == "ok" else status
                continue
        if (mapping is not None) != claim.isomorphic:
            status = "mismatch"
            notes.append(f"{claim.other}: isomorphic is {mapping is not None}")
        elif mapping is not None:
            checked = check_mapping(g, other, mapping)
            if checked["outcome"] != OK:
                status = "mismatch"
                notes.append(f"{claim.other}: {checked['detail']}")
    return status, notes


def traced_row(entry: CatalogEntry, seed: int, tr: Tracer) -> dict:
    """verify_entry's stages in its order, each rank3 call inside a span.

    Classifies the row like check_report, so run.py can hold the result
    against verify_entry's own report for the same row.
    """
    stages: dict[str, str] = {}
    notes: list[str] = []
    counters = {"nodes": 0, "refinements": 0, "generators": 0}
    with tr.span("catalog.row", call=entry.id):
        fid = entry.family
        if fid.tag == "AffineOrbital" and fid.params[0] == "sl25":
            with tr.span("families.spec"):
                spec = sl25_with_scalars_spec(fid.params[1], seed)
            with tr.span("families.construct"):
                g = affine_orbital_graph(spec)
        else:
            with tr.span("families.construct"):
                g = family_graph(fid)
        stages["construct"] = "ok" if g.n == entry.n else "mismatch"

        with tr.span("graphs.srg"):
            try:
                srg_params(g)
                stages["srg"] = "ok"
            except (NotStronglyRegular, Degenerate):
                stages["srg"] = "mismatch"

        stages["subdegrees"], sizes = _traced_subdegrees(entry, g, tr)

        if entry.tier == "PARAMS_ONLY":
            stages["aut"] = stages["iso"] = "skipped"
        else:
            with tr.span("autsolve.aut"):
                try:
                    result = automorphism_group(g, budget=BUDGET_S)
                except Timeout:
                    result = None
            if result is None:
                stages["aut"] = "timeout"
            else:
                counters = {
                    "nodes": result.nodes,
                    "refinements": result.refinements,
                    "generators": len(result.generators.gens),
                }
                checked = check_order(result.order, entry.expected_aut_order)
                stages["aut"] = "ok" if checked["outcome"] == OK else "mismatch"
                if checked["outcome"] != OK:
                    notes.append(checked["detail"])
            stages["iso"], iso_notes = _traced_iso(entry, g, tr)
            notes += iso_notes

    statuses = set(stages.values())
    if statuses & {"mismatch", "error"}:
        verdict = "FAIL"
    elif "timeout" in statuses:
        verdict = "PASS_DOWNGRADED"
    else:
        verdict = "PASS"
    return {
        "outcome": _OUTCOME[verdict],
        "detail": "; ".join(notes) or verdict,
        "verdict": verdict,
        "stages": stages,
        "subdegrees": sizes,
        "counters": counters,
    }


def row_call(entry: CatalogEntry, seed: int) -> Call:
    return Call(
        name=entry.id,
        kind="row",
        plain=lambda: check_report(entry, verify_entry(entry, budget=BUDGET_S, seed=seed)),
        traced=lambda tr: traced_row(entry, seed, tr),
    )


# -- solver calls on relabelled graphs -------------------------------------------


def relabel(g: DenseGraph, rng: np.random.Generator) -> DenseGraph:
    perm = rng.permutation(g.n)
    return DenseGraph(g.adj[np.ix_(perm, perm)])


def aut_call(h: DenseGraph, want: int) -> dict:
    try:
        result = automorphism_group(h, budget=BUDGET_S)
    except Timeout:
        return {"outcome": UNDECIDED, "detail": f"no order within {BUDGET_S:g}s"}
    out = check_order(result.order, want)
    out["counters"] = {
        "nodes": result.nodes,
        "refinements": result.refinements,
        "generators": len(result.generators.gens),
    }
    return out


def iso_call(g: DenseGraph, h: DenseGraph) -> dict:
    try:
        mapping = are_isomorphic(g, h, budget=BUDGET_S)
    except Timeout:
        return {"outcome": UNDECIDED, "detail": f"undecided within {BUDGET_S:g}s"}
    except NotIsomorphic as exc:
        return {"outcome": WRONG, "detail": f"not isomorphic ({exc.invariant})"}
    return check_mapping(g, h, mapping)


def noniso_call(g: DenseGraph, h: DenseGraph) -> dict:
    try:
        are_isomorphic(g, h, budget=BUDGET_S)
    except Timeout:
        return {"outcome": UNDECIDED, "detail": f"undecided within {BUDGET_S:g}s"}
    except NotIsomorphic as exc:
        return {"outcome": OK, "detail": f"not isomorphic ({exc.invariant})"}
    return {"outcome": WRONG, "detail": "claimed non-isomorphic, got a mapping"}


def _solver_call(name: str, kind: str, fn: Callable[[], dict]) -> Call:
    def traced(tr: Tracer) -> dict:
        with tr.span(f"autsolve.{kind}", call=name):
            return fn()

    return Call(name=name, kind=kind, plain=fn, traced=traced)


def solver_calls(seed: int, tr) -> list[Call]:
    """Build every graph, relabel it with a stream drawn from the seed, and
    return the aut, iso and non-iso calls on the results."""
    names = SOLVER_ROWS + [d for pair in NONISO_PAIRS for d in pair]
    built: dict[str, DenseGraph] = {}
    for name in names:
        with tr.span("families.construct", call=name):
            built[name] = family_graph(parse_descriptor(name))
    moved = {
        name: relabel(built[name], np.random.default_rng([seed, i]))
        for i, name in enumerate(names)
    }
    calls = []
    for name in SOLVER_ROWS:
        g, h = built[name], moved[name]
        want = PINS[name].order
        calls.append(_solver_call(f"{name}/aut", "aut", lambda h=h, w=want: aut_call(h, w)))
        calls.append(_solver_call(f"{name}/iso", "iso", lambda g=g, h=h: iso_call(g, h)))
    for a, b in NONISO_PAIRS:
        if (a, False) not in PINS[b].iso:
            raise ValueError(f"no pinned non-isomorphism between {a} and {b}")
        g, h = built[a], moved[b]
        calls.append(_solver_call(f"{a}~{b}/noniso", "noniso", lambda g=g, h=h: noniso_call(g, h)))
    return calls


def build(workload: str, seed: int, tr) -> list[Call]:
    """The workload's calls; everything done here counts as set-up."""
    if workload == "solver_relabel":
        return solver_calls(seed, tr)
    if workload in ROWS:
        return [row_call(catalog_entry(r), seed) for r in ROWS[workload]]
    raise ValueError(f"unknown workload {workload!r}, want one of {WORKLOADS}")
