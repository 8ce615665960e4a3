"""CLI subcommands: output contracts and exit codes."""

import importlib.resources
import json
import time
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from rank3 import cli
from rank3.autsolve import are_isomorphic
from rank3.catalog import builtin_catalog, entry_to_dict
from rank3.cli import main
from rank3.families import Build, family_graph, parse_descriptor, sl23_with_scalars_spec
from rank3.permgrp import format_matrix_spec


def adjacency_of_graph6(text: str) -> np.ndarray:
    """Decoded by networkx, independently of the package's encoder."""
    gx = nx.from_graph6_bytes(text.strip().encode())
    return nx.to_numpy_array(gx, nodelist=range(len(gx)), dtype=bool)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_comment(command):
    """The comment beside command in the README's command-line block, its
    continuation lines joined and whitespace collapsed."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith(command + " "))
    parts = [lines[start].split("#", 1)[1]]
    for ln in lines[start + 1 :]:
        head, sep, tail = ln.partition("#")
        if head.strip() or not sep:
            break
        parts.append(tail)
    return " ".join(" ".join(parts).split())


class TestReadme:
    @pytest.mark.parametrize("command", ["rank3 aut vls:64:3", "rank3 params peisert:81"])
    def test_example_output_matches(self, capsys, command):
        # the certified order with the search counters, and srg(...), as printed
        code, out, _ = run(capsys, *command.split()[1:])
        assert code == 0
        assert " ".join(out.split()) == readme_comment(command)


class TestConstruct:
    def test_prints_graph6(self, capsys):
        code, out, _ = run(capsys, "construct", "paley:13")
        assert code == 0
        adj = adjacency_of_graph6(out)
        assert np.array_equal(adj, family_graph(parse_descriptor("paley:13")).adj)

    def test_writes_graph6_file(self, capsys, tmp_path):
        path = tmp_path / "g.g6"
        code, out, _ = run(capsys, "construct", "vls:16:3", "--graph6", str(path))
        assert code == 0
        assert str(path) in out
        adj = adjacency_of_graph6(path.read_text())
        assert np.array_equal(adj, family_graph(parse_descriptor("vls:16:3")).adj)

    def test_bad_descriptor_usage_error(self, capsys):
        code, _, err = run(capsys, "construct", "nosuch:5")
        assert code == 2
        assert "nosuch" in err


class TestParams:
    def test_srg_line(self, capsys):
        code, out, _ = run(capsys, "params", "peisert:49")
        assert code == 0
        assert out.strip() == "srg(49, 24, 11, 12)"

    def test_invalid_parameter_usage_error(self, capsys):
        code, _, err = run(capsys, "params", "hamming2:1")
        assert code == 2
        assert "m = 1" in err

    @pytest.mark.parametrize(
        "descriptor",
        [
            "paley:1000000000000000003",
            "hq:1000000000000000003:2",
            "vo:+:4:1000000000000000003",
            "vls:16:1000000000000000003",
            "orbital:q8:1000000000000000003",
            "hamming2:100000",
        ],
    )
    def test_oversized_descriptor_refused_at_once(self, capsys, descriptor):
        # refused before any arithmetic that grows with the parameter: trial
        # division of a prime near 10**18, a search over its residues, or a
        # 10**10-vertex adjacency row
        t0 = time.monotonic()
        code, _, err = run(capsys, "params", descriptor)
        assert time.monotonic() - t0 < 2.0
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("descriptor", ["vo:+:20000000:3", "hq:3:10000000"])
    def test_descriptor_past_the_vertex_cap_refused_at_once(self, capsys, descriptor):
        # refused on the exponent, before q**(2m), a number of millions of
        # digits, is taken
        t0 = time.monotonic()
        code, _, err = run(capsys, "params", descriptor)
        assert time.monotonic() - t0 < 2.0
        assert code == 2
        assert err.startswith("error: ") and "exceeds the 4096-vertex construction cap" in err


class TestAut:
    def test_order_reported(self, capsys):
        code, out, _ = run(capsys, "aut", "paley:17")
        assert code == 0
        assert "order 136" in out

    def test_orbital_order_reported(self, capsys):
        # the graph is cut from G0's orbits, and the same G0 seeds the search
        code, out, _ = run(capsys, "aut", "orbital:q8:13")
        assert code == 0
        assert out.startswith("computed order 48672, certified ")

    def test_gf4_polar_order_is_the_vls_order(self, capsys):
        # the 8 translations of GF(2)**8 and the 13 generators of VO-(4, 4)'s
        # G0 seed the search, which certifies vls:256:5's catalogued order
        vls = next(e for e in builtin_catalog() if e.id == "vls:256:5")
        code, out, _ = run(capsys, "aut", "vo:-:4:4")
        assert code == 0
        assert out.startswith(f"computed order {vls.expected_aut_order}, certified ")
        assert "generators 21 known" in out

    def test_budget_timeout_exits_1(self, capsys):
        code, out, err = run(capsys, "aut", "paley:17", "--budget", "0")
        assert code == 1
        assert (out, err) == ("", "timeout: no order within 0s\n")


class TestIso:
    def test_isomorphic_prints_mapping(self, capsys):
        code, out, _ = run(capsys, "iso", "paley:9", "hamming2:3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "isomorphic"
        mapping = [int(x) for x in lines[1].split()]
        assert sorted(mapping) == list(range(9))

    def test_first_zero_stabilizer_seeds_the_search(self, capsys, monkeypatch):
        # the iso stage's call: the first graph's G0 as known automorphisms
        seen = []

        def spy(g, h, budget, known=None):
            seen.append(known)
            return are_isomorphic(g, h, budget=budget, known=known)

        monkeypatch.setattr(cli, "are_isomorphic", spy)
        code, _, _ = run(capsys, "iso", "vls:25:3", "hamming2:5")
        assert code == 0
        want = Build(parse_descriptor("vls:25:3")).stabilizer
        assert np.array_equal(seen[0].gens, want.gens)

    def test_not_isomorphic_exits_1(self, capsys):
        code, out, _ = run(capsys, "iso", "paley:49", "peisert:49")
        assert code == 1
        assert "not isomorphic" in out


class TestRank:
    def test_affine_rank_and_subdegrees(self, capsys, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text(format_matrix_spec(sl23_with_scalars_spec(7)))
        code, out, _ = run(capsys, "rank", str(path))
        assert code == 0
        assert out.strip() == "rank 3, subdegrees 24, 24"

    def test_no_degree_cap(self, capsys):
        # 6561 points: past the 4096-point cap of the pair-closure oracle
        path = importlib.resources.files("rank3") / "data/extraspecial_6561.txt"
        code, out, _ = run(capsys, "rank", str(path))
        assert code == 0
        assert out.strip() == "rank 3, subdegrees 1440, 5120"

    def test_missing_file_usage_error(self, capsys):
        code, _, err = run(capsys, "rank", "/nonexistent/spec.txt")
        assert code == 2
        assert "error" in err

    def test_composite_modulus_usage_error(self, capsys, tmp_path):
        # Z_4^2 is not a vector space: no rank is reported for it
        path = tmp_path / "spec.txt"
        path.write_text("4 2\n1 1 0 1\n3 0 0 1\n")
        code, out, err = run(capsys, "rank", str(path))
        assert code == 2
        assert out == ""
        assert "error" in err and "not prime" in err

    # "2 30" would act on 2**30 vectors (an 8 GiB image array), "2 0" on none
    @pytest.mark.parametrize("head", ["2 30", "2 0"], ids=["too-large", "zero-dimension"])
    @pytest.mark.parametrize("command", ["rank", "params"])
    def test_unbounded_spec_usage_error(self, capsys, tmp_path, head, command):
        path = tmp_path / "spec.txt"
        path.write_text(f"{head}\n")
        arg = str(path) if command == "rank" else f"orbital:{path}"
        code, out, err = run(capsys, command, arg)
        assert code == 2
        assert out == ""
        assert "error" in err and "d >= 1 and p**d <= 65536" in err


    @pytest.mark.parametrize(
        "text, line, form",
        [("2\n", 1, "'p d' header"), ("2 x\n", 1, "'p d' header"), ("3 2\n1 0 x 1\n", 2, "generator of d*d = 4")],
        ids=["short-header", "non-integer-header", "non-integer-generator"],
    )
    def test_malformed_spec_usage_error(self, capsys, tmp_path, text, line, form):
        path = tmp_path / "spec.txt"
        path.write_text(text)
        code, out, err = run(capsys, "rank", str(path))
        assert code == 2
        assert out == ""
        assert f"error: {path}, line {line}: expected a {form}" in err


class TestVerify:
    def test_override_catalog_pass(self, capsys, tmp_path):
        entries = [entry_to_dict(e) for e in builtin_catalog() if e.id == "paley:13"]
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(entries))
        out_json = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "verify",
            "--catalog", str(path),
            "--json", str(out_json),
            "--budget", "30",
        )
        assert code == 0
        assert "PASS" in out and "paley:13" in out
        assert "summary: 1 pass, 0 downgraded, 0 fail" in out
        items = json.loads(out_json.read_text())
        assert items[-1]["summary"]["pass"] == 1

    def test_no_options_checks_every_builtin_row(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        *rows, summary = out.splitlines()
        assert [row.split()[:2] for row in rows] == [
            ["PASS", e.id] for e in builtin_catalog()
        ]
        assert len(rows) == 37
        assert summary == "summary: 37 pass, 0 downgraded, 0 fail"

    def test_row_filter_option_is_a_usage_error(self, capsys):
        # rows are chosen only by --catalog; the old tier filter is unknown
        argv = ["verify", f"--{'tier'}", "all"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[1]} all" in capsys.readouterr().err

    def test_fail_exit_code(self, capsys, tmp_path):
        entry = entry_to_dict(
            next(e for e in builtin_catalog() if e.id == "paley:13")
        )
        entry["expected_aut_order"] = 13 * 5
        path = tmp_path / "cat.json"
        path.write_text(json.dumps([entry]))
        code, out, _ = run(capsys, "verify", "--catalog", str(path))
        assert code == 1
        assert "FAIL" in out

    def test_bad_catalog_file_usage_error(self, capsys, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text("{}")
        code, _, err = run(capsys, "verify", "--catalog", str(path))
        assert code == 2
        assert "error" in err
        good = entry_to_dict(next(e for e in builtin_catalog() if e.id == "paley:13"))
        missing = {k: v for k, v in good.items() if k != "subdegrees"}
        bad = [
            (missing, "subdegrees"),
            (dict(good, subdegrees=4), "subdegrees"),
            (dict(good, family=5), "family"),
            (dict(good, family=None), "family"),
        ]
        for entry, key in bad:
            path.write_text(json.dumps([entry]))
            code, _, err = run(capsys, "verify", "--catalog", str(path))
            assert code == 2
            assert "error" in err and "'paley:13'" in err and f"'{key}'" in err


class TestBudget:
    # a budget must be a finite number of seconds >= 0: NaN would turn the
    # deadline off, a negative one would report every search as a timeout
    @pytest.mark.parametrize(
        "argv",
        [
            ("aut", "paley:13", "--budget", "nan"),
            ("aut", "paley:13", "--budget", "-1"),
            ("verify", "--budget", "-5"),
            ("aut", "paley:9", "--budget", "x"),
        ],
        ids=["aut-nan", "aut-negative", "verify-negative", "aut-not-a-number"],
    )
    def test_bad_budget_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--budget: want a finite number of seconds >= 0, got {argv[-1]}" in err
        assert "_budget" not in err


class TestSeed:
    # a seed must be an integer >= 0: random.Random(-1) would silently run
    # seed 1's stream
    @pytest.mark.parametrize("text", ["-1", "x"])
    def test_bad_seed_usage_error(self, capsys, text):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", text])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--seed: want an integer >= 0, got {text}" in err
        assert "_seed" not in err


class TestCatalogList:
    def test_lists_entries(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        assert "peisert:49" in out
        assert out.count("\n") >= 25

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["catalog"])
        assert exc.value.code == 2
