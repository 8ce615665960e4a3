"""Catalog table integrity, the verification pipeline, and report plumbing."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import rank3
from rank3 import graphs
from rank3.catalog import (
    CatalogEntry,
    IsoClaim,
    Report,
    StageOutcome,
    builtin_catalog,
    entry_from_dict,
    entry_to_dict,
    load_catalog,
    reports_to_json,
    verify_all,
    verify_entry,
    _check_aut,
    _check_srg,
    _check_subdegrees,
    _divides_factorial,
)
from rank3.families import Build, family_graph, family_group, parse_descriptor
from rank3.graphs import DenseGraph, srg_params
from rank3.permgrp import GeneratorSet, Timeout, schreier_sims

CATALOG = builtin_catalog()
BY_ID = {e.id: e for e in CATALOG}

# van_lint_schrijver rejects e = 4 at q = 13 (e must be prime), so this row's
# construct stage raises
UNBUILDABLE = CatalogEntry(
    id="vls:13:4",
    family=parse_descriptor("vls:13:4"),
    n=13,
    subdegrees=(3, 9),
    expected_aut_order=None,
    group_name="none",
    iso_claims=(),
    tier="FULL",
    source="fault injection",
)


def _replace(entry, **kw):
    fields = {
        "id": entry.id,
        "family": entry.family,
        "n": entry.n,
        "subdegrees": entry.subdegrees,
        "expected_aut_order": entry.expected_aut_order,
        "group_name": entry.group_name,
        "iso_claims": entry.iso_claims,
        "tier": entry.tier,
        "source": entry.source,
    }
    fields.update(kw)
    return CatalogEntry(**fields)


# hq:2:3 is no catalog row, but its graph is vls:64:3's, whose answers it shares
HQ_2_3 = _replace(
    BY_ID["vls:64:3"], id="hq:2:3", family=parse_descriptor("hq:2:3"), iso_claims=()
)


class TestCatalogTable:
    def test_at_least_25_entries(self):
        assert len(CATALOG) >= 25

    def test_ids_unique_and_roundtrip_descriptors(self):
        assert len(BY_ID) == len(CATALOG)
        for e in CATALOG:
            assert parse_descriptor(e.id) == e.family

    def test_full_tier_degree_bound(self):
        for e in CATALOG:
            if e.tier == "FULL":
                assert e.n <= 256

    def test_lookup_peisert_49(self):
        e = BY_ID["peisert:49"]
        assert e.subdegrees == (24, 24)
        assert e.expected_aut_order == 3528

    def test_subdegrees_sum_checked_at_load(self):
        for e in CATALOG:
            assert sum(e.subdegrees) == e.n - 1

    def test_known_orders_divisible_by_n(self):
        for e in CATALOG:
            if e.expected_aut_order is not None:
                assert e.expected_aut_order % e.n == 0

    def test_iso_claim_targets_parse(self):
        for e in CATALOG:
            for claim in e.iso_claims:
                parse_descriptor(claim.other)

    def test_family_must_be_the_one_the_id_names(self):
        # else a row reports under one descriptor while checking another: the
        # Clebsch graph's answers under paley:9's id would pass
        mismatch = "^paley:9: family .* is not the one the id names$"
        with pytest.raises(ValueError, match=mismatch):
            _replace(
                BY_ID["paley:9"],
                family=parse_descriptor("vls:16:3"),
                n=16,
                subdegrees=(5, 10),
                expected_aut_order=1920,
                iso_claims=(),
            )
        with pytest.raises(ValueError, match=mismatch):
            _replace(BY_ID["paley:9"], family=parse_descriptor("peisert:9"))

    def test_invalid_subdegrees_rejected(self):
        with pytest.raises(ValueError, match="sum to"):
            _replace(BY_ID["paley:13"], subdegrees=(6, 7))

    def test_non_multiple_order_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            _replace(BY_ID["paley:13"], expected_aut_order=77)

    def test_order_exceeding_factorial_rejected(self):
        # 13^2 is a multiple of 13 but 13! contains only one factor of 13
        with pytest.raises(ValueError, match="divide n!"):
            _replace(BY_ID["paley:13"], expected_aut_order=13 * 13)

    def test_divides_factorial_agrees_with_the_factorial(self):
        # the early-stop gcd walk against n! itself on seeded random pairs;
        # m is a product of a few numbers up to 2n + 1, so both answers occur
        rng = random.Random(0)
        answers = []
        for _ in range(400):
            n = rng.randrange(1, 80)
            m = math.prod(rng.randrange(1, 2 * n + 2) for _ in range(rng.randrange(1, 8)))
            answers.append(_divides_factorial(m, n))
            assert answers[-1] == (math.factorial(n) % m == 0), (m, n)
        assert 50 < sum(answers) < 350

    def test_bad_tier_rejected(self):
        with pytest.raises(ValueError, match="tier"):
            _replace(BY_ID["paley:13"], tier="FAST")

    def test_bad_iso_target_rejected(self):
        with pytest.raises(ValueError):
            IsoClaim("nosuch:7", True)

    def test_entry_dict_roundtrip(self):
        for e in CATALOG:
            data = entry_to_dict(e)
            assert "family" not in data  # the id names it
            assert entry_from_dict(data) == e

    def test_entry_from_dict_reads_an_old_family_field(self):
        # files written before the id alone named the family carry it twice
        for e in CATALOG:
            assert entry_from_dict(dict(entry_to_dict(e), family=e.id)) == e

    def test_load_catalog_file(self, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps([entry_to_dict(e) for e in CATALOG[:3]]))
        assert load_catalog(path) == CATALOG[:3]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("iso_claims", [{"other": "peisert:9", "isomorphic": "false"}]),
            ("iso_claims", [{"other": "peisert:9", "isomorphic": 0}]),
            ("n", 9.7),
            ("n", "9"),
            ("n", True),
            ("subdegrees", [4, 4.9]),
            ("expected_aut_order", 72.0),
            ("family", "peisert:9"),
            ("family", 5),
            ("family", None),
            ("tier", ["FULL"]),
        ],
        ids=[
            "isomorphic-string", "isomorphic-int", "n-float", "n-string", "n-bool",
            "subdegree-float", "order-float", "family-not-id", "family-int",
            "family-null", "tier-list",
        ],
    )
    def test_entry_from_dict_rejects_malformed_fields(self, key, value):
        # each would load as something else: "false" as True, 9.7 as 9, and a
        # row whose family field says peisert:9 while its id checks paley:9
        data = dict(entry_to_dict(BY_ID["paley:9"]), **{key: value})
        with pytest.raises(ValueError, match="'paley:9'") as exc:
            entry_from_dict(data)
        assert f"field {key!r}" in str(exc.value)

    def test_load_catalog_rejects_non_list(self, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"id": "x"}))
        with pytest.raises(ValueError, match="list"):
            load_catalog(path)


class TestVerifyEntry:
    def test_vls_16_3_passes_with_order_1920(self):
        report = verify_entry(BY_ID["vls:16:3"], budget=60.0)
        assert report.verdict == "PASS"
        assert "1920" in report.stages["aut"].detail
        assert "isomorphic" in report.stages["iso"].detail

    def test_peisert_49_passes_including_non_isomorphism(self):
        report = verify_entry(BY_ID["peisert:49"], budget=60.0)
        assert report.verdict == "PASS"
        assert "not isomorphic" in report.stages["iso"].detail

    def test_gf4_polar_row_checks_its_orbits(self):
        # a polar graph over a non-prime field has its G0 like any other row;
        # VO-(4, 4) and the quintic-residue graph on GF(256) are one graph
        vls = BY_ID["vls:256:5"]
        entry = CatalogEntry(
            id="vo:-:4:4",
            family=parse_descriptor("vo:-:4:4"),
            n=256,
            subdegrees=(51, 204),
            expected_aut_order=vls.expected_aut_order,
            group_name="",
            iso_claims=(IsoClaim("vls:256:5", True),),
            tier="FULL",
            source="GF(4) polar row checked against vls:256:5",
        )
        report = verify_entry(entry)
        assert report.verdict == "PASS"
        assert report.stages["subdegrees"] == StageOutcome(
            "ok", "rank 3, subdegrees [51, 204], valency 51, N(0) an orbit"
        )
        assert report.stages["aut"].detail.startswith(
            f"order {vls.expected_aut_order}, certified "
        )
        assert report.stages["iso"].detail == (
            "vls:256:5: isomorphic (mapping verified), as claimed"
        )

    def test_params_only_skips_solver_stages(self):
        report = verify_entry(BY_ID["hq:2:5"], budget=60.0)
        assert report.verdict == "PASS"
        assert report.stages["aut"].status == "skipped"
        assert report.stages["iso"].status == "skipped"
        assert report.stages["srg"].status == "ok"
        assert "93" in report.stages["srg"].detail

    def test_corrupted_expected_order_fails(self):
        bad = _replace(BY_ID["paley:13"], expected_aut_order=13 * 2)
        report = verify_entry(bad, budget=60.0)
        assert report.verdict == "FAIL"
        assert report.stages["aut"].status == "mismatch"
        # the solver's value is reported for adjudication
        assert "78" in report.stages["aut"].detail

    def test_corrupted_subdegrees_fail(self):
        bad = _replace(BY_ID["paley:13"], subdegrees=(4, 8))
        report = verify_entry(bad, budget=60.0)
        assert report.verdict == "FAIL"
        assert report.stages["subdegrees"].status == "mismatch"

    def test_neighbourhood_must_be_an_orbit(self):
        # relabel paley:13 by a permutation fixing 0 that swaps the square 1
        # with the non-square 2: the valency stays 6, but N(0) is no longer
        # the orbit of squares
        g = family_graph(parse_descriptor("paley:13"))
        perm = np.arange(13)
        perm[[1, 2]] = [2, 1]
        moved = DenseGraph(g.adj[np.ix_(perm, perm)])
        want = Build(parse_descriptor("paley:13"))
        row = SimpleNamespace(graph=moved, stabilizer=want.stabilizer, orbits=want.orbits)
        outcome, stab = _check_subdegrees(BY_ID["paley:13"], row)
        assert outcome.status == "mismatch"
        assert "not an orbit" in outcome.detail
        assert np.array_equal(stab.gens, want.stabilizer.gens)

    def test_seeded_sl25_row_passes(self):
        entry = BY_ID["orbital:sl25:31"]
        report = verify_entry(entry, seed=1)
        assert report.verdict == "PASS"
        assert report.stages["subdegrees"].status == "ok"
        # the default-seed zero-stabilizer does not act on the seed-1 graph:
        # read with its orbits against that graph, N(0) is no orbit of it
        default, seeded = Build(entry.family), Build(entry.family, 1)
        mixed = SimpleNamespace(
            graph=seeded.graph, stabilizer=default.stabilizer, orbits=default.orbits
        )
        outcome = _check_subdegrees(entry, mixed)[0]
        assert outcome == StageOutcome(
            "mismatch", "N(0) is not an orbit of the zero-stabilizer"
        )
        assert _check_subdegrees(entry, seeded)[0].status == "ok"

    @pytest.mark.parametrize(
        "entry_id, seed",
        [("orbital:q8:13", None), ("orbital:sl25:31", 1), ("paley:13", None), ("hq:2:3", None)],
    )
    def test_orbital_row_builds_g0_once(self, monkeypatch, entry_id, seed):
        # the stages read one Build of the row, whose graph (on an orbital
        # row) or subdegree check (on any other) makes G0 and its orbits: one
        # verify_entry makes each once, wherever it is called from.  G0 is
        # the action of one matrix group spec, made as the spec is built, or
        # on paley:13 semilinear maps
        entry = {**BY_ID, "hq:2:3": HQ_2_3}[entry_id]
        row = Build(entry.family, seed)
        assert row.spec is None or row.stabilizer is row.spec.perms
        makers = ("MatrixGroupSpec", "semilinear_stabilizer_perms")
        calls = dict.fromkeys(makers + ("stabilizer_orbits",), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("semilinear_stabilizer_perms", "stabilizer_orbits"):
            fn = getattr(rank3.permgrp, name)
            for module in list(sys.modules.values()):
                if (module is not None and module.__name__.startswith("rank3")
                        and getattr(module, name, None) is fn):
                    monkeypatch.setattr(module, name, counted(name, fn))
        post_init = rank3.permgrp.MatrixGroupSpec.__post_init__
        monkeypatch.setattr(
            rank3.permgrp.MatrixGroupSpec, "__post_init__", counted("MatrixGroupSpec", post_init)
        )
        report = verify_entry(entry, seed=seed)
        assert report.verdict == "PASS"
        assert sum(calls[name] for name in makers) == 1
        assert calls["stabilizer_orbits"] == 1

    def test_non_orbital_g0_error_lands_on_subdegrees(self, monkeypatch):
        import rank3.catalog as catalog

        def broken_stabilizer(fid, seed=None):
            raise RuntimeError("no G0")

        monkeypatch.setattr(catalog.Build, "stabilizer", property(broken_stabilizer))
        report = verify_entry(BY_ID["paley:13"])
        assert list(report.stages) == ["construct", "srg", "subdegrees"]
        assert report.stages["construct"].status == "ok"
        assert report.stages["subdegrees"] == StageOutcome("error", "RuntimeError: no G0")

    def test_orbital_spec_error_lands_on_construct(self, monkeypatch):
        import rank3.families as families

        def broken_spec(p):
            raise RuntimeError("no spec")

        monkeypatch.setattr(families, "quaternion_normalizer_spec", broken_spec)
        report = verify_entry(BY_ID["orbital:q8:13"])
        assert report.verdict == "FAIL"
        assert report.stages == {"construct": StageOutcome("error", "RuntimeError: no spec")}

    def test_construct_timing_covers_build(self, monkeypatch):
        import rank3.families as families

        cayley_graph = families.cayley_graph

        def slow_build(*args):
            time.sleep(0.2)
            return cayley_graph(*args)

        monkeypatch.setattr(families, "cayley_graph", slow_build)
        report = verify_entry(BY_ID["paley:13"], budget=60.0)
        assert report.stages["construct"].status == "ok"
        assert report.timings_ms["construct"] >= 200.0

    def test_zero_budget_downgrades_not_fails(self):
        report = verify_entry(BY_ID["paley:13"], budget=0.0)
        assert report.verdict == "PASS_DOWNGRADED"
        assert report.stages["aut"].status == "timeout"

    @pytest.mark.parametrize("budget", [float("nan"), -5.0])
    def test_bad_budget_raises(self, budget):
        # the floor at 0 would otherwise turn it into a timeout on every row
        with pytest.raises(ValueError, match="budget"):
            verify_entry(BY_ID["paley:13"], budget=budget)
        with pytest.raises(ValueError, match="budget"):
            verify_all(budget=budget, entries=[BY_ID["paley:13"]])

    def test_row_shares_one_budget(self, monkeypatch):
        # aut takes at least 0.3 s and each iso claim at least 0.1 s, so the
        # claims may only get what the row's one budget has left
        import rank3.catalog as catalog
        from rank3.autsolve import are_isomorphic, automorphism_group

        budgets = []

        def slow_aut(g, budget, known=None):
            budgets.append(budget)
            time.sleep(0.3)
            return automorphism_group(g, budget=budget, known=known)

        def slow_iso(g, h, budget, known=None):
            budgets.append(budget)
            time.sleep(0.1)
            return are_isomorphic(g, h, budget=budget, known=known)

        monkeypatch.setattr(catalog, "automorphism_group", slow_aut)
        monkeypatch.setattr(catalog, "are_isomorphic", slow_iso)
        entry = _replace(BY_ID["paley:9"], iso_claims=(IsoClaim("peisert:9", True),) * 2)
        report = verify_entry(entry, budget=60.0)
        assert report.verdict == "PASS"
        aut_budget, first, second = budgets
        assert aut_budget <= 60.0
        assert first <= 60.0 - 0.3
        assert second <= 60.0 - 0.4

    def test_aut_order_must_be_certified(self, monkeypatch):
        import dataclasses

        import rank3.catalog as catalog
        from rank3.autsolve import automorphism_group

        report = verify_entry(BY_ID["paley:13"], budget=60.0)
        assert "order 78, certified" in report.stages["aut"].detail

        # a solver that keeps its order but drops all but one generator: the
        # translation left generates only Z_13, which cannot reach order 78
        def lossy_aut(g, budget, known=None):
            r = automorphism_group(g, budget=budget, known=known)
            return dataclasses.replace(r, generators=GeneratorSet(g.n, r.generators.gens[:1]))

        monkeypatch.setattr(catalog, "automorphism_group", lossy_aut)
        report = verify_entry(BY_ID["paley:13"], budget=60.0)
        assert report.verdict == "FAIL"
        assert report.stages["aut"].status == "mismatch"
        assert "solver generators do not reach order 78" in report.stages["aut"].detail

    def test_overstated_order_fails_through_the_chain(self, monkeypatch):
        # a solver that doubles its order and keeps its generators and base:
        # the orbit product along the base stops at 78, so the completed
        # stabilizer chain answers, and 78 < 156 is a mismatch
        import dataclasses

        import rank3.catalog as catalog
        import rank3.permgrp as permgrp
        from rank3.autsolve import automorphism_group

        def doubling_aut(g, budget, known=None):
            r = automorphism_group(g, budget=budget, known=known)
            return dataclasses.replace(r, order=2 * r.order)

        chains = []
        chain = permgrp._chain

        def counted_chain(*args):
            chains.append(args[1])
            return chain(*args)

        monkeypatch.setattr(catalog, "automorphism_group", doubling_aut)
        monkeypatch.setattr(permgrp, "_chain", counted_chain)
        report = verify_entry(BY_ID["paley:13"], budget=60.0)
        assert report.verdict == "FAIL"
        assert report.stages["aut"].status == "mismatch"
        assert "solver generators do not reach order 156" in report.stages["aut"].detail
        assert len(chains) == 1 and len(chains[0]) == 2  # paley:13's base

    def test_order_certificate_keeps_the_row_deadline(self, monkeypatch):
        # the lossy solver of the test above, returning after the row's
        # deadline: the certificate must stop there and report a timeout
        # instead of running the exact Schreier-Sims to its end
        import dataclasses

        import rank3.catalog as catalog
        from rank3.autsolve import automorphism_group

        def late_lossy_aut(g, budget, known=None):
            r = automorphism_group(g, budget=budget, known=known)
            time.sleep(budget + 0.05)
            return dataclasses.replace(r, generators=GeneratorSet(g.n, r.generators.gens[:1]))

        monkeypatch.setattr(catalog, "automorphism_group", late_lossy_aut)
        report = verify_entry(BY_ID["paley:13"], budget=0.5)
        assert report.verdict == "PASS_DOWNGRADED"
        assert report.stages["aut"].status == "timeout"
        assert "order 78 not certified within" in report.stages["aut"].detail

    def test_unknown_expected_order_records_solver_value(self):
        entry = _replace(
            BY_ID["paley:13"],
            expected_aut_order=None,
            iso_claims=(),
        )
        report = verify_entry(entry, budget=60.0)
        assert report.verdict == "PASS"
        assert "computed order 78" in report.stages["aut"].detail

    def test_solver_order_divisible_by_known_group_order(self):
        # the constructed rank-3 group embeds in the full automorphism group
        for eid in ("vls:16:3", "orbital:q8:13", "vo:-:6:2"):
            entry = BY_ID[eid]
            group_order = schreier_sims(family_group(entry.family)).order
            assert entry.expected_aut_order % group_order == 0


class TestMismatchBranches:
    """Negative controls: each row or input is built to reach one stage's
    mismatch branch, or the branch that skips or downgrades it."""

    def test_construct_size_mismatch(self):
        wrong = _replace(
            BY_ID["paley:13"], n=14, subdegrees=(6, 7), expected_aut_order=None
        )
        report = verify_entry(wrong)
        assert report.verdict == "FAIL"
        assert report.stages["construct"] == StageOutcome(
            "mismatch", "built 13 vertices, entry says 14"
        )

    def test_srg_mismatch(self):
        path = np.zeros((3, 3), dtype=bool)
        path[[0, 1, 1, 2], [1, 0, 2, 1]] = True
        assert _check_srg(DenseGraph(path)) == (
            StageOutcome("mismatch", "not strongly regular: not regular: deg(1) = 2 != deg(0) = 1"),
            None,
        )

    def test_subdegrees_rank_mismatch(self):
        want = Build(parse_descriptor("paley:13"))
        first, second = want.orbits
        row = SimpleNamespace(
            graph=want.graph, stabilizer=want.stabilizer, orbits=[first[:3], first[3:], second]
        )
        outcome, _ = _check_subdegrees(BY_ID["paley:13"], row)
        assert outcome == StageOutcome("mismatch", "group rank 4 != 3")

    def test_subdegrees_orbit_sizes_mismatch(self):
        want = Build(parse_descriptor("paley:13"))
        first, second = want.orbits
        row = SimpleNamespace(
            graph=want.graph,
            stabilizer=want.stabilizer,
            orbits=[np.append(first, second[0]), second[1:]],
        )
        outcome, _ = _check_subdegrees(BY_ID["paley:13"], row)
        assert outcome == StageOutcome(
            "mismatch", "zero-stabilizer orbit sizes [7, 5] != [6, 6]"
        )

    def test_iso_claim_contradicted(self):
        wrong = _replace(BY_ID["paley:49"], iso_claims=(IsoClaim("peisert:49", True),))
        report = verify_entry(wrong)
        assert report.verdict == "FAIL"
        assert report.stages["iso"] == StageOutcome(
            "mismatch",
            "peisert:49: not isomorphic (individualization search exhausted), "
            "but claim says iso",
        )

    def test_iso_claim_undecided_downgrades(self, monkeypatch):
        import rank3.catalog as catalog

        def no_time(g, h, budget, known=None):
            raise Timeout("the solver passed its deadline")

        monkeypatch.setattr(catalog, "are_isomorphic", no_time)
        report = verify_entry(BY_ID["paley:9"])
        assert report.verdict == "PASS_DOWNGRADED"
        assert report.stages["iso"].status == "timeout"
        assert report.stages["iso"].detail.startswith("peisert:9: undecided within ")


# |Aut| by the group arithmetic, for the rows whose aut stage verify skips:
# 2^10 translations times |GL_2(2) x GL_5(2)| = 6 * 9999360, times
# |L_5(2)| = 9999360, and times |(GL_2(4) o GL_3(4)):2| = (180 * 181440 / 3) * 2
PARAMS_ONLY_ORDERS = {
    "hq:2:5": 1024 * 6 * 9999360,
    "a52": 1024 * 9999360,
    "hq:4:3": 4096 * (180 * 181440 // 3) * 2,
}


@pytest.mark.parametrize("entry_id", sorted(PARAMS_ONLY_ORDERS))
def test_params_only_orders_are_certified(entry_id):
    # the aut stage's call, seeded with the row's G0 and held against the arithmetic
    row = Build(BY_ID[entry_id].family)
    g, known = row.graph, row.stabilizer
    outcome, _ = _check_aut(g, time.monotonic() + 60.0, known, PARAMS_ONLY_ORDERS[entry_id])
    assert outcome.status == "ok"
    assert outcome.detail.startswith(f"order {PARAMS_ONLY_ORDERS[entry_id]}, certified (")
    catalogued = BY_ID[entry_id].expected_aut_order
    assert catalogued in (None, PARAMS_ONLY_ORDERS[entry_id])


class TestVerifyAll:
    def test_tiny_full_sweep_passes(self):
        entries = [BY_ID["paley:13"], BY_ID["paley:17"], BY_ID["vls:16:3"]]
        reports, summary = verify_all(budget=60.0, entries=entries)
        assert [r.id for r in reports] == ["paley:13", "paley:17", "vls:16:3"]
        assert summary == {"pass": 3, "pass_downgraded": 0, "fail": 0}

    def test_runs_exactly_the_entries_given_in_order(self):
        # a PARAMS_ONLY, a SLOW and a FULL row, out of catalog order: a row's
        # tier decides which stages it runs, never whether it runs
        entries = [BY_ID["hq:2:5"], BY_ID["peisert:81"], BY_ID["paley:13"]]
        reports, summary = verify_all(entries=entries)
        assert [r.id for r in reports] == ["hq:2:5", "peisert:81", "paley:13"]
        assert summary == {"pass": 3, "pass_downgraded": 0, "fail": 0}
        assert verify_all(entries=[]) == ([], {"pass": 0, "pass_downgraded": 0, "fail": 0})

    def test_fault_injection_exactly_one_fail(self):
        entries = [
            BY_ID["paley:13"],
            _replace(BY_ID["paley:17"], expected_aut_order=17 * 4),
        ]
        reports, summary = verify_all(budget=60.0, entries=entries)
        assert summary["fail"] == 1
        assert [r.verdict for r in reports] == ["PASS", "FAIL"]

    def test_construction_error_becomes_fail_report(self):
        # the sweep must absorb the error, not crash
        reports, summary = verify_all(budget=1.0, entries=[UNBUILDABLE])
        assert summary["fail"] == 1
        assert reports[0].stages["construct"].status == "error"

    def test_stage_error_lands_on_its_stage(self, monkeypatch):
        import rank3.catalog as catalog

        def broken_srg(g):
            raise RuntimeError("srg blew up")

        monkeypatch.setattr(catalog, "srg_params", broken_srg)
        reports, summary = verify_all(budget=60.0, entries=[BY_ID["paley:13"]])
        assert summary["fail"] == 1
        stages = reports[0].stages
        assert list(stages) == ["construct", "srg"]
        assert stages["construct"].status == "ok"
        assert stages["srg"] == StageOutcome("error", "RuntimeError: srg blew up")
        assert set(reports[0].timings_ms) == {"construct", "srg"}
        assert verify_entry(BY_ID["paley:13"], budget=60.0).stages == stages

    def test_verify_entry_records_construction_error(self):
        report = verify_entry(UNBUILDABLE, budget=1.0)
        assert report.verdict == "FAIL"
        assert list(report.stages) == ["construct"]
        assert report.stages["construct"].status == "error"
        assert list(report.timings_ms) == ["construct"]

    def test_verify_all_is_verify_entry_per_row(self):
        entries = [e for e in CATALOG if e.tier == "FULL"] + [UNBUILDABLE]

        def outcomes(reports):
            return [
                (r.id, r.verdict, [(k, o.status, o.detail) for k, o in r.stages.items()])
                for r in reports
            ]

        reports, _ = verify_all(budget=60.0, entries=entries)
        assert outcomes(reports) == outcomes([verify_entry(e) for e in entries])


class TestReports:
    def test_json_roundtrip_lossless(self):
        reports, summary = verify_all(
            budget=60.0, entries=[BY_ID["paley:13"], BY_ID["vls:16:3"]]
        )
        *rows, last = json.loads(reports_to_json(reports))
        assert last == {"summary": summary}
        assert [row["id"] for row in rows] == [r.id for r in reports]
        for row, r in zip(rows, reports):
            assert row["verdict"] == r.verdict and row["timings_ms"] == r.timings_ms
            assert {k: StageOutcome(**o) for k, o in row["stages"].items()} == r.stages

    def test_json_shape(self):
        reports, _ = verify_all(budget=60.0, entries=[BY_ID["paley:13"]])
        items = json.loads(reports_to_json(reports))
        assert items[0]["id"] == "paley:13"
        assert set(items[0]) == {"id", "stages", "timings_ms", "verdict"}
        assert "summary" in items[-1]

    def test_verdict_rules(self):
        ok = StageOutcome("ok", "")
        assert Report("x", {"a": ok}, {}, "PASS").verdict == "PASS"
        reports, _ = verify_all(budget=0.0, entries=[BY_ID["paley:13"]])
        assert reports[0].verdict == "PASS_DOWNGRADED"


@pytest.mark.slow
class TestBuiltinSweeps:
    def test_whole_catalog_passes(self):
        reports, summary = verify_all(budget=120.0)
        assert len(reports) == len(CATALOG) == 37
        assert summary == {"pass": 37, "pass_downgraded": 0, "fail": 0}

    # a sweep of one tier's rows is chosen by the entries it is given
    def test_full_tier_zero_fail(self):
        entries = [e for e in CATALOG if e.tier == "FULL"]
        reports, summary = verify_all(budget=120.0, entries=entries)
        assert [r.id for r in reports] == [e.id for e in entries]
        assert summary["fail"] == 0
        assert summary["pass"] == len(reports)

    def test_slow_tier_no_fail(self):
        entries = [e for e in CATALOG if e.tier in ("FULL", "SLOW")]
        reports, summary = verify_all(budget=120.0, entries=entries)
        assert [r.id for r in reports] == [e.id for e in entries]
        assert summary["fail"] == 0


@pytest.mark.parametrize(
    "entry_id", [e.id for e in CATALOG if e.n <= 1024], ids=str
)
def test_one_row_srg_matches_dense_oracle(entry_id):
    # every family graph carries translation moduli, so srg_params checks
    # vertex 0's row only; the every-row loop on the bare matrix is the oracle
    g = family_graph(BY_ID[entry_id].family)
    assert g.moduli is not None and len(g.moduli) >= 1
    assert srg_params(g) == srg_params(DenseGraph(g.adj))


def test_srg_degree_from_row_zero_on_every_row(monkeypatch):
    # with translation moduli every row is a translate of row 0, so
    # srg_params reads the degree and the counts there and never packs the
    # rows; the degree it reports is the catalog's first subdegree and every
    # vertex's
    def no_packing(*args):
        raise AssertionError("srg_params packed the rows of a graph with moduli")

    for entry in CATALOG:
        g = family_graph(entry.family)
        assert g.moduli is not None and g._bytes is None
        with monkeypatch.context() as m:
            m.setattr(graphs, "_packed_rows", no_packing)
            p = srg_params(g)
        assert g._bytes is None
        assert (p.n, p.k) == (entry.n, entry.subdegrees[0])
        assert (g.adj.sum(axis=1) == p.k).all()
        assert p.feasible()


def undecided_pairs(entries):
    """The pairs of graphs named by entries, rows and iso targets, with
    equal SRG parameters that the claims leave undecided: in different
    classes of the claimed isomorphisms closed under transitivity, with no
    non-isomorphism claimed between those classes.  AssertionError when
    claims contradict: an isomorphism between different parameters, or a
    non-isomorphism inside one class."""
    names = [e.id for e in entries] + [c.other for e in entries for c in e.iso_claims]
    names = list(dict.fromkeys(names))
    params = {d: srg_params(family_graph(parse_descriptor(d))) for d in names}
    parent = {d: d for d in names}

    def root(d):
        while parent[d] != d:
            d = parent[d]
        return d

    claims = [(e.id, c.other, c.isomorphic) for e in entries for c in e.iso_claims]
    for a, b, isomorphic in claims:
        if isomorphic:
            assert params[a] == params[b], f"{a} claimed isomorphic to {b}"
            parent[root(a)] = root(b)
    apart = set()
    for a, b, isomorphic in claims:
        if not isomorphic:
            assert root(a) != root(b), f"{a} claimed not isomorphic to {b}"
            apart |= {(root(a), root(b)), (root(b), root(a))}
    return [
        (a, b)
        for a, b in itertools.combinations(names, 2)
        if params[a] == params[b] and root(a) != root(b) and (root(a), root(b)) not in apart
    ]


def test_iso_claims_decide_every_same_parameter_pair():
    # the claims are the catalog's isomorphism partition: any two of its
    # graphs with equal parameters are isomorphic or not by the claims'
    # closure, which settles paley:49 against orbital:sl23:7 unclaimed
    assert undecided_pairs(CATALOG) == []


def test_a_dropped_claim_leaves_its_pairs_undecided():
    entries = [
        _replace(e, iso_claims=()) if e.id == "orbital:sl23:7" else e for e in CATALOG
    ]
    assert undecided_pairs(entries) == [
        ("paley:49", "orbital:sl23:7"),
        ("peisert:49", "orbital:sl23:7"),
    ]


# which of numpy.random and numpy.ma a whole seeded catalog run imports, on stdout
CATALOG_RUN_IMPORTS = """
import sys
from rank3.catalog import verify_all
reports, _ = verify_all(seed=3)
assert [r.verdict for r in reports] == ["PASS"] * 37
print([name for name in ("numpy.random", "numpy.ma") if name in sys.modules])
"""


def test_catalog_run_imports_neither_numpy_random_nor_numpy_ma():
    # the package's seeded draws come from random.Random, so a process that
    # runs the whole catalog never pays numpy.random's import; nor numpy.ma's
    # (about 6 ms), which the first np.unique, np.isin or the like brings in;
    # a subprocess, since the tests themselves import both
    env = dict(os.environ, PYTHONPATH=str(Path(rank3.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", CATALOG_RUN_IMPORTS],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    assert done.stdout.strip() == "[]"
