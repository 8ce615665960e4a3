"""Curated verification targets and the end-to-end checking pipeline.

Each CatalogEntry pins down one graph: its family descriptor, degree,
subdegrees, the expected full automorphism group order (when known), and any
isomorphism claims against other families.  verify_entry runs the pipeline

    construct -> strong regularity -> rank/subdegrees -> aut order -> iso

as one straight sequence of stage functions and emits a machine-readable
Report.  An exception in a stage becomes that stage's "error" outcome and
ends the row, so every row yields a Report; verify_all calls verify_entry
on every entry it is given, the builtin catalog by default.  The
rank/subdegree stage takes, at every degree, the orbits of the family's
zero-stabilizer G0 on the nonzero vertices: rank = 1 + their number,
subdegrees = their sizes, and N(0) must be one of them.  Construct hands
the row's families.Build on, and the later stages read the graph, G0 and
its orbits from it, each made once.  An orbital row's graph is cut from
those orbits, so its construct stage makes them; every other row makes them
in the subdegree stage.  The aut stage hands the same G0 to the solver as
known automorphisms, which prune its search but never stand in for it, and
certifies the solver's order: its generators must reach it by a
Schreier-Sims lower bound.  A row's tier says what it runs: FULL rows
(degree <= 256) and SLOW rows run every stage, and a timeout in either
downgrades the verdict, never fails it; PARAMS_ONLY rows stop after the
subdegree check.

Conventions baked into the table:

* an entry's id is its family descriptor, and its family is that id parsed;
* subdegree pairs are stored with the constructed graph's edge orbital FIRST
  (for every shipped row but vo:+:8:2 that is also the smaller one), so the
  valency cross-check is ``valency == subdegrees[0]``;
* expected orders are explicit integers with the arithmetic recorded in the
  source string -- they are never recomputed from group-name strings at
  runtime.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .autsolve import (
    NotIsomorphic,
    Timeout,
    are_isomorphic,
    automorphism_group,
    check_budget,
)
from .families import Build, FamilyId, family_graph, parse_descriptor
from .graphs import Degenerate, DenseGraph, NotStronglyRegular, srg_params
from .permgrp import GeneratorSet, reaches_order

__all__ = [
    "TIERS",
    "IsoClaim",
    "CatalogEntry",
    "StageOutcome",
    "Report",
    "builtin_catalog",
    "entry_to_dict",
    "entry_from_dict",
    "load_catalog",
    "verify_entry",
    "verify_all",
    "reports_to_json",
]

TIERS = ("FULL", "SLOW", "PARAMS_ONLY")


@dataclass(frozen=True)
class IsoClaim:
    """The target graph must (isomorphic=True) or must not (False) be
    isomorphic to the graph of the entry carrying the claim."""

    other: str
    isomorphic: bool

    def __post_init__(self) -> None:
        parse_descriptor(self.other)  # fail fast on malformed targets


def _divides_factorial(m: int, n: int) -> bool:
    """Whether m divides n!, without making n!: r = m is divided by
    gcd(r, i) for i = 2, 3, ..., n, stopping once r is 1.  That removes
    min(v_p(m), v_p(n!)) factors of each prime p, so r reaches 1 exactly
    when m divides n!."""
    r = m
    for i in range(2, n + 1):
        if r == 1:
            break
        r //= math.gcd(r, i)
    return r == 1


@dataclass(frozen=True)
class CatalogEntry:
    """One verification target; invariants are checked on construction,
    among them that ``family`` is the family its ``id`` names."""

    id: str
    family: FamilyId
    n: int
    subdegrees: tuple[int, int]
    expected_aut_order: int | None
    group_name: str
    iso_claims: tuple[IsoClaim, ...]
    tier: str
    source: str

    def __post_init__(self) -> None:
        if parse_descriptor(self.id) != self.family:
            raise ValueError(f"{self.id}: family {self.family} is not the one the id names")
        if self.tier not in TIERS:
            raise ValueError(f"unknown tier {self.tier!r}, want one of {TIERS}")
        if len(self.subdegrees) != 2 or sum(self.subdegrees) != self.n - 1:
            raise ValueError(
                f"{self.id}: subdegrees {self.subdegrees} do not sum to n-1 = "
                f"{self.n - 1}"
            )
        order = self.expected_aut_order
        if order is not None:
            if order < 1 or order % self.n:
                raise ValueError(
                    f"{self.id}: expected order {order} is not a positive "
                    f"multiple of n = {self.n} (vertex-transitivity)"
                )
            if not _divides_factorial(order, self.n):
                raise ValueError(
                    f"{self.id}: expected order {order} does not divide n!"
                )


def _entry(
    descriptor: str,
    n: int,
    subdegrees: tuple[int, int],
    order: int | None,
    group_name: str,
    tier: str,
    source: str,
    iso: tuple[IsoClaim, ...] = (),
) -> CatalogEntry:
    return CatalogEntry(
        id=descriptor,
        family=parse_descriptor(descriptor),
        n=n,
        subdegrees=subdegrees,
        expected_aut_order=order,
        group_name=group_name,
        iso_claims=iso,
        tier=tier,
        source=source,
    )


def builtin_catalog() -> list[CatalogEntry]:
    """The shipped verification targets (37 entries).

    Every stored subdegree pair and every expected order marked
    "solver-confirmed" has been recomputed from scratch by this package's own
    pipeline; the remaining orders are products of the component orders of
    the classical group names in the source strings.
    """
    e = _entry
    iso = IsoClaim
    return [
        # ---- FULL tier: degree <= 256, the whole pipeline runs -------------
        e(
            "paley:9", 9, (4, 4), 72,
            "9:(4:2) = index-2 subgroup of AGammaL_1(9)", "FULL",
            "square-residue graph on GF(9); order 9*4*2, solver-confirmed",
            (iso("peisert:9", True),),
        ),
        e(
            "paley:13", 13, (6, 6), 78,
            "13:6 = AGL_1(13) index 2", "FULL",
            "prime-field positive control: one-dimensional closure, 13*6",
        ),
        e(
            "paley:17", 17, (8, 8), 136,
            "17:8 = AGL_1(17) index 2", "FULL",
            "prime-field positive control: one-dimensional closure, 17*8",
        ),
        e(
            "paley:49", 49, (24, 24), 2352,
            "7^2:(3 x D_16)", "FULL",
            "exceptional closure, dihedral part of order 16: 49*3*16 = 2352; "
            "solver-confirmed",
        ),
        e(
            "paley:81", 81, (40, 40), 12960,
            "81:(40:4) <= AGammaL_1(81)", "FULL",
            "one-dimensional semilinear closure 81*40*4 = 12960; "
            "solver-confirmed",
        ),
        e(
            "peisert:49", 49, (24, 24), 3528,
            "7^2:(3 x SL_2(3))", "FULL",
            "exceptional closure: 49*(3*24) = 3528; solver-confirmed",
            (iso("paley:49", False),),
        ),
        e(
            "vls:16:3", 16, (5, 10), 1920,
            "2^4:Sym(5)", "FULL",
            "cubic-residue graph on GF(16) = Clebsch graph: 16*120 = 1920; "
            "solver-confirmed",
            (iso("vo:-:4:2", True),),
        ),
        e(
            "vls:25:3", 25, (8, 16), 28800,
            "(Sym(5) x Sym(5)):2", "FULL",
            "cubic residues on GF(25) = 5x5 rook graph: (120^2)*2 = 28800; "
            "solver-confirmed",
            (iso("hamming2:5", True),),
        ),
        e(
            "vls:64:3", 64, (21, 42), 64512,
            "2^6:(Sym(3) x L_3(2))", "FULL",
            "cubic residues on GF(64) = 2x3 matrix-rank graph: "
            "64*6*168 = 64512; solver-confirmed",
            (iso("hq:2:3", True),),
        ),
        e(
            "hamming2:5", 25, (8, 16), 28800,
            "(Sym(5) x Sym(5)):2", "FULL",
            "5x5 rook graph: (5!)^2 * 2 = 28800",
        ),
        e(
            "vo:-:4:2", 16, (5, 10), 1920,
            "2^4:GO_4^-(2)", "FULL",
            "minus-type quadric graph on GF(2)^4 = Clebsch graph: "
            "16*120 = 1920",
        ),
        e(
            "vo:-:6:2", 64, (27, 36), 3317760,
            "2^6:GO_6^-(2)", "FULL",
            "minus-type quadric graph on GF(2)^6: 64*51840 = 3317760",
        ),
        e(
            "vo:+:8:2", 256, (135, 120), 89181388800,
            "2^8:GO_8^+(2)", "FULL",
            "plus-type quadric graph on GF(2)^8, valency 135 (the edge "
            "orbital is the larger subdegree): 256*348364800; "
            "solver-confirmed",
        ),
        e(
            "orbital:sl23:7", 49, (24, 24), 3528,
            "7^2:(3 x SL_2(3))", "FULL",
            "explicit index-2 subgroup of the quaternion normalizer with odd "
            "scalars; 49*72 = 3528, solver-confirmed; the graph coincides "
            "with the Peisert graph of order 49",
            (iso("peisert:49", True),),
        ),
        e(
            "orbital:q8:13", 169, (72, 96), 48672,
            "13^2:(3 x (SL_2(3):4))", "FULL",
            "quaternion-normalizer orbital graph: 169*288 = 48672; "
            "solver-confirmed",
        ),
        # ---- SLOW tier: solver runs under budget, Timeout downgrades -------
        e(
            "hamming2:9", 81, (16, 64), 263363788800,
            "(Sym(9) x Sym(9)):2", "SLOW",
            "9x9 rook graph: (9!)^2 * 2 = 263363788800; solver-confirmed",
            (iso("vls:81:5", True),),
        ),
        e(
            "peisert:81", 81, (40, 40), 38880,
            "3^4:(SL_2(5):2^2)", "SLOW",
            "exceptional closure: 81*120*4 = 38880; solver-confirmed",
            (iso("paley:81", False),),
        ),
        e(
            "vo:+:4:3", 81, (32, 48), 186624,
            "3^4:GammaO_4^+(3)", "SLOW",
            "plus-type quadric graph on GF(3)^4; order catalogued from the "
            "first verified solver run (186624, matching the similitude "
            "arithmetic 81*2304)",
        ),
        e(
            "vls:256:5", 256, (51, 204), 12533760,
            "2^8:(3 x SL_2(16)):4", "SLOW",
            "quintic-residue graph on GF(256): 256*3*4080*4 = 12533760; "
            "solver-confirmed",
        ),
        e(
            "orbital:q8:17", 289, (96, 192), 110976,
            "17^2:N(Q_8), |N| = 384", "SLOW",
            "quaternion-normalizer orbital graph: 289*384 = 110976; "
            "solver-confirmed",
        ),
        e(
            "hq:3:3", 729, (104, 624), 196515072,
            "3^6:(L_3(3) x GL_2(3))", "SLOW",
            "2x3 matrix graph over GF(3), rank-1 difference adjacency: "
            "729*5616*48 = 196515072",
        ),
        e(
            "orbital:sl25:41", 1681, (480, 1200), 4034400,
            "41^2:(40 o SL_2(5))", "SLOW",
            "icosahedral zero-stabilizer with full scalars, central product "
            "sharing the central involution: 1681*(40*120/2) = 4034400",
        ),
        # ---- PARAMS_ONLY tier: construct + SRG + subdegrees only -----------
        e(
            "hq:2:5", 1024, (93, 930), None,
            "2^10:(GL_2(2) x GL_5(2))", "PARAMS_ONLY",
            "2x5 matrix graph over GF(2), valency (2^2-1)(2^5-1) = 93",
        ),
        e(
            "a52", 1024, (155, 868), None,
            "2^10:L_5(2)", "PARAMS_ONLY",
            "alternating-forms graph on 5x5 skew-symmetric matrices over "
            "GF(2), valency 155",
        ),
        e(
            "hq:4:3", 4096, (315, 3780), 89181388800,
            "2^12:((GL_2(4) o GL_3(4)):2)", "PARAMS_ONLY",
            "2x3 matrix graph over GF(4) on 4096 = 2^12 points (one source "
            "prints the degree as 4098, an evident typo): "
            "4096*(180*181440/3)*2 = 89181388800; (P, Q) acts as "
            "A -> P A Q^T, whose kernel is the scalars GF(4)* of order 3, "
            "and the :2 is the Frobenius of GF(4), since 2x3 matrices admit "
            "no transpose; solver-confirmed",
        ),
        e(
            "orbital:q8:19", 361, (144, 216), 155952,
            "19^2:(9 x GL_2(3))", "PARAMS_ONLY",
            "quaternion-normalizer orbital graph: 361*432 = 155952",
        ),
        e(
            "orbital:sl23:23", 529, (264, 264), 139656,
            "23^2:(11 x SL_2(3))", "PARAMS_ONLY",
            "explicit index-2 subgroup of the quaternion normalizer with odd "
            "scalars: 529*264 = 139656",
        ),
        e(
            "orbital:extraspecial:625", 625, (240, 384), 28800000,
            "5^4:((4 o 2^(1+4)).Sp_4(2))", "PARAMS_ONLY",
            "extraspecial-normalizer data file (scripts/"
            "derive_extraspecial_rows.py): 625*46080 = 28800000",
        ),
        e(
            "orbital:q8:29", 841, (168, 672), 565152,
            "29^2:(7 x (SL_2(3):4))", "PARAMS_ONLY",
            "quaternion-normalizer orbital graph: 841*672 = 565152",
        ),
        e(
            "orbital:q8:31", 961, (240, 720), 691920,
            "31^2:(15 x (2.Sym(4)))", "PARAMS_ONLY",
            "quaternion-normalizer orbital graph: 961*720 = 691920",
        ),
        e(
            "orbital:sl25:31", 961, (360, 600), 1729800,
            "31^2:(15 x SL_2(5))", "PARAMS_ONLY",
            "icosahedral zero-stabilizer with order-15 scalars: "
            "961*1800 = 1729800",
        ),
        e(
            "orbital:q8:47", 2209, (1104, 1104), 2438736,
            "47^2:(23 x GL_2(3))", "PARAMS_ONLY",
            "quaternion-normalizer orbital graph, regular orbits: "
            "2209*1104 = 2438736",
        ),
        e(
            "orbital:extraspecial:2401", 2401, (480, 1920), 27659520,
            "7^4:((6 o 2^(1+4)_-).O_4^-(2))", "PARAMS_ONLY",
            "extraspecial-normalizer data file: 2401*11520 = 27659520",
        ),
        e(
            "orbital:sl25:71", 5041, (840, 4200), 21172200,
            "71^2:(35 x SL_2(5))", "PARAMS_ONLY",
            "icosahedral zero-stabilizer with order-35 scalars: "
            "5041*4200 = 21172200 (the printed group name carries a 79^2 "
            "prefix inconsistent with the degree; stored under 71^2, whose "
            "subdegrees match)",
        ),
        e(
            "orbital:sl25:79", 6241, (1560, 4680), 29207880,
            "79^2:(39 x SL_2(5))", "PARAMS_ONLY",
            "icosahedral zero-stabilizer with order-39 scalars: "
            "6241*4680 = 29207880",
        ),
        e(
            "orbital:extraspecial:6561", 6561, (1440, 5120), 43535646720,
            "3^8:((2 o 2^(1+6)_-).O_6^-(2))", "PARAMS_ONLY",
            "extraspecial-normalizer data file: 6561*6635520 = 43535646720",
        ),
        e(
            "orbital:sl25:89", 7921, (2640, 5280), 41822880,
            "89^2:(88 o SL_2(5))", "PARAMS_ONLY",
            "icosahedral zero-stabilizer with full scalars (central "
            "product): 7921*5280 = 41822880",
        ),
    ]


# -- entry (de)serialization --------------------------------------------------------


def entry_to_dict(entry: CatalogEntry) -> dict:
    """The entry as a JSON object, without its family: the id names it."""
    return {key: value for key, value in asdict(entry).items() if key != "family"}


_REQUIRED = object()  # entry_from_dict: the field has no default


def _of_type(kind: type):
    """A converter that passes a value of exactly this JSON type (so a bool
    is no int, and neither is 9.7) and raises ValueError on anything else."""

    def check(value):
        if type(value) is not kind:
            raise ValueError(f"{value!r} is not of type {kind.__name__}")
        return value

    return check


_int, _str, _bool = _of_type(int), _of_type(str), _of_type(bool)


def entry_from_dict(data: dict) -> CatalogEntry:
    """The inverse of entry_to_dict.  A missing or malformed field raises
    ValueError naming the entry and the field: every number must be a JSON
    integer, every flag true or false, and the id a family descriptor, which
    names the entry's family.  A family field, as older files carry, must
    name the same family."""
    if not isinstance(data, dict):
        raise ValueError(f"catalog entry {data!r} is not a JSON object")
    where = f"catalog entry {data.get('id', '<no id>')!r}"

    def field(key: str, convert=lambda v: v, default=_REQUIRED):
        if key not in data:
            if default is _REQUIRED:
                raise ValueError(f"{where}: missing field {key!r}")
            return default
        try:
            return convert(data[key])
        except (TypeError, ValueError, KeyError, IndexError) as exc:
            raise ValueError(f"{where}: bad field {key!r}: {exc}") from None

    family = field("id", lambda v: parse_descriptor(_str(v)))

    def same_family(value):
        if parse_descriptor(_str(value)) != family:
            raise ValueError(f"{value!r} is not the family of the id")

    field("family", same_family, default=None)
    return CatalogEntry(
        id=data["id"],
        family=family,
        n=field("n", _int),
        subdegrees=field("subdegrees", lambda v: tuple(_int(x) for x in v)),
        expected_aut_order=field(
            "expected_aut_order", lambda v: None if v is None else _int(v), default=None
        ),
        group_name=field("group_name", _str, default=""),
        iso_claims=field(
            "iso_claims",
            lambda cs: tuple(IsoClaim(_str(c["other"]), _bool(c["isomorphic"])) for c in cs),
            default=(),
        ),
        tier=field("tier", _str),
        source=field("source", _str, default=""),
    )


def load_catalog(path) -> list[CatalogEntry]:
    """Read a catalog override file: a JSON list of entry objects."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError("catalog file must hold a JSON list of entries")
    return [entry_from_dict(item) for item in data]


# -- reports -------------------------------------------------------------------------


@dataclass(frozen=True)
class StageOutcome:
    """status: ok | mismatch | error | timeout | skipped."""

    status: str
    detail: str


@dataclass(frozen=True)
class Report:
    """Per-entry pipeline outcome.  FAIL iff an attempted stage mismatched or
    errored; PASS_DOWNGRADED iff nothing failed but a stage timed out."""

    id: str
    stages: dict[str, StageOutcome]
    timings_ms: dict[str, float]
    verdict: str


def _verdict(stages: dict[str, StageOutcome]) -> str:
    statuses = {outcome.status for outcome in stages.values()}
    if statuses & {"mismatch", "error"}:
        return "FAIL"
    if "timeout" in statuses:
        return "PASS_DOWNGRADED"
    return "PASS"


def summarize(reports: list[Report]) -> dict:
    return {
        "pass": sum(r.verdict == "PASS" for r in reports),
        "pass_downgraded": sum(r.verdict == "PASS_DOWNGRADED" for r in reports),
        "fail": sum(r.verdict == "FAIL" for r in reports),
    }


def reports_to_json(reports: list[Report]) -> str:
    """One object per entry, with the summary object appended last."""
    items = [asdict(r) for r in reports]
    items.append({"summary": summarize(reports)})
    return json.dumps(items, indent=2)


# -- the pipeline --------------------------------------------------------------------
#
# Each stage is a function returning (StageOutcome, payload): construct gives
# the row's Build, subdegrees its zero-stabilizer, aut the solver's
# generators, and srg and iso nothing.  verify_entry runs them in order,
# timing each.


def _construct(entry: CatalogEntry, seed: int | None) -> tuple[StageOutcome, Build]:
    """The row's Build, with its graph made.  An orbital row's graph is an
    orbital of its G0, so reading it makes G0 and its orbits too, once, and
    the subdegree stage reads them from the same Build."""
    row = Build(entry.family, seed)
    g = row.graph
    if g.n != entry.n:
        return StageOutcome("mismatch", f"built {g.n} vertices, entry says {entry.n}"), row
    return StageOutcome("ok", f"{g.n} vertices"), row


def _check_srg(g: DenseGraph) -> tuple[StageOutcome, None]:
    try:
        params = srg_params(g)
    except (NotStronglyRegular, Degenerate) as exc:
        return StageOutcome("mismatch", f"not strongly regular: {exc}"), None
    return StageOutcome(
        "ok", f"srg({params.n}, {params.k}, {params.lam}, {params.mu})"
    ), None


def _check_subdegrees(entry: CatalogEntry, row: Build) -> tuple[StageOutcome, GeneratorSet]:
    """Rank and subdegrees from the orbits of the family's zero-stabilizer,
    and the edge set as one of its orbitals: N(0) must be one of those
    orbits, not merely have the size of one.  Returns the zero-stabilizer
    for the aut stage.

    ``row`` is construct's Build: an orbital row's G0 and orbits were made
    with its graph and are checked as they are, and every other row makes
    them here, on first read."""
    g, stab = row.graph, row.stabilizer
    valency = int(g.row0.sum())
    if valency != entry.subdegrees[0]:
        return StageOutcome(
            "mismatch",
            f"graph valency {valency} != claimed edge-orbital size "
            f"{entry.subdegrees[0]}",
        ), stab
    claimed = sorted(entry.subdegrees)
    orbits = row.orbits
    if len(orbits) != 2:
        return StageOutcome("mismatch", f"group rank {1 + len(orbits)} != 3"), stab
    sizes = [len(o) for o in orbits]
    if sizes != claimed:
        return StageOutcome(
            "mismatch", f"zero-stabilizer orbit sizes {sizes} != {claimed}"
        ), stab
    nbrs = np.flatnonzero(g.row0)
    if not any(np.array_equal(o, nbrs) for o in orbits):
        return StageOutcome(
            "mismatch", "N(0) is not an orbit of the zero-stabilizer"
        ), stab
    return StageOutcome(
        "ok", f"rank 3, subdegrees {claimed}, valency {valency}, N(0) an orbit"
    ), stab


def _time_left(deadline: float) -> float:
    return max(0.0, deadline - time.monotonic())


def _check_aut(
    g: DenseGraph, deadline: float, known: GeneratorSet, expected: int | None
) -> tuple[StageOutcome, GeneratorSet | None]:
    """The solver's order, certified and then held against ``expected`` (None:
    no order to hold it against), and the solver's generators (None if the
    search timed out).

    The search starts from g's translations and ``known`` (the
    zero-stabilizer), and the detail ends with its counters.  The certificate
    is reaches_order on the solver's generators along the solver's base: a
    proven lower bound (the orbit product along the first path, else a
    Schreier-Sims chain) that meets the order, which the exhaustive search
    bounds from above.  The search and the certificate share the row's
    deadline."""
    budget = _time_left(deadline)
    try:
        result = automorphism_group(g, budget=budget, known=known)
    except Timeout:
        return StageOutcome("timeout", f"no order within {budget:g}s"), None
    counters = result.counters()
    try:
        certified = reaches_order(result.generators, result.order, deadline, result.base)
    except Timeout:
        certified = None
    if certified is None:
        outcome = StageOutcome(
            "timeout",
            f"order {result.order} not certified within {budget:g}s ({counters})",
        )
    elif not certified:
        outcome = StageOutcome(
            "mismatch",
            f"solver generators do not reach order {result.order} ({counters})",
        )
    elif expected is None:
        outcome = StageOutcome("ok", f"computed order {result.order}, certified ({counters})")
    elif result.order != expected:
        outcome = StageOutcome(
            "mismatch",
            f"solver order {result.order} != expected {expected} (solver value "
            f"reported for adjudication) ({counters})",
        )
    else:
        outcome = StageOutcome("ok", f"order {result.order}, certified ({counters})")
    return outcome, result.generators


def _check_iso(
    entry: CatalogEntry, g: DenseGraph, deadline: float, known: GeneratorSet | None
) -> tuple[StageOutcome, None]:
    """Each claim by are_isomorphic, under ``known``: the aut stage's generators."""
    if not entry.iso_claims:
        return StageOutcome("ok", "no isomorphism claims"), None
    parts: list[str] = []
    status = "ok"
    for claim in entry.iso_claims:
        other = family_graph(parse_descriptor(claim.other))
        want = "iso" if claim.isomorphic else "non-iso"
        budget = _time_left(deadline)
        try:
            are_isomorphic(g, other, budget=budget, known=known)
            got_iso = True
            note = "isomorphic (mapping verified)"
        except NotIsomorphic as exc:
            got_iso = False
            note = f"not isomorphic ({exc.invariant})"
        except Timeout:
            parts.append(f"{claim.other}: undecided within {budget:g}s")
            if status == "ok":
                status = "timeout"
            continue
        if got_iso == claim.isomorphic:
            parts.append(f"{claim.other}: {note}, as claimed")
        else:
            parts.append(f"{claim.other}: {note}, but claim says {want}")
            status = "mismatch"
    return StageOutcome(status, "; ".join(parts)), None


class _StageError(Exception):
    """A stage raised: its "error" outcome is recorded and the row ends."""


def verify_entry(
    entry: CatalogEntry, budget: float = 60.0, seed: int | None = None
) -> Report:
    """Run the pipeline on one entry and return its Report.

    An exception in a stage, construction included, becomes that stage's
    "error" outcome and a FAIL verdict, and no later stage runs; a Timeout
    in the solver stages downgrades the verdict instead.  PARAMS_ONLY rows
    skip the aut and iso stages.  The construct timing covers building the
    graph and checking its row 0; a family graph packs its adjacency rows on
    first read, which on FULL and SLOW rows is the aut stage's search, so
    that build is timed under aut.  Both stages read one Build of the row,
    which makes G0 and its orbits once: on an orbital row construct makes
    them, since the graph is cut from them, and the subdegree stage's time
    is the checks alone; every other row makes them in the subdegree
    stage.  `budget` (seconds) is one deadline for the whole row, started
    at the aut stage: aut and then every iso claim gets the time left,
    floored at 0.
    ValueError unless budget >= 0, before any stage runs.
    """
    check_budget(budget)  # the floor at 0 would hide a bad one
    stages: dict[str, StageOutcome] = {}
    timings: dict[str, float] = {}

    def run(name: str, stage, *args):
        """Record stage(*args)'s outcome and its time in ms under ``name``,
        and return its payload."""
        t0 = time.monotonic()
        try:
            stages[name], payload = stage(*args)
        except Exception as exc:  # noqa: BLE001 -- recorded on its stage
            stages[name] = StageOutcome("error", f"{type(exc).__name__}: {exc}")
            raise _StageError from exc
        finally:
            timings[name] = round((time.monotonic() - t0) * 1000.0, 3)
        return payload

    try:
        row = run("construct", _construct, entry, seed)
        g = row.graph
        run("srg", _check_srg, g)
        stab = run("subdegrees", _check_subdegrees, entry, row)
        if entry.tier == "PARAMS_ONLY":
            skipped = StageOutcome("skipped", "params-only tier")
            stages["aut"] = stages["iso"] = skipped
        else:
            deadline = time.monotonic() + budget
            gens = run("aut", _check_aut, g, deadline, stab, entry.expected_aut_order)
            run("iso", _check_iso, entry, g, deadline, gens)
    except _StageError:
        pass
    return Report(
        id=entry.id, stages=stages, timings_ms=timings, verdict=_verdict(stages)
    )


def verify_all(
    budget: float = 60.0,
    seed: int | None = None,
    entries: list[CatalogEntry] | None = None,
) -> tuple[list[Report], dict]:
    """verify_entry on every entry, in order, the builtin catalog when
    entries is None; returns (reports, summary).  ValueError on a budget
    that is not >= 0, from the first row."""
    if entries is None:
        entries = builtin_catalog()
    reports = [verify_entry(e, budget, seed) for e in entries]
    return reports, summarize(reports)
