import hashlib
import importlib
import io
import json
import os
import subprocess
import sys

import pytest

import deza
from deza import cli, spectra
from deza.catalog import catalog_names, construct
from deza.classify import classify
from deza.graph6 import decode_graph6
from deza.graphs import InternalInvariantError


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# SHA-256 of `spectrum <name> --json` over every catalog graph
SPECTRUM_GOLDEN = (
    "d75b667dbd0a7fe4995f6d3704b72808e2da7f026e49534231837200fa4258de")


class TestConstruct:
    def test_petersen_g6_round_trip(self, capsys):
        code, out, _ = run(capsys, "construct", "petersen")
        assert code == 0
        rep = classify(decode_graph6(out.strip()))
        assert rep.srg == (10, 3, 0, 1)

    def test_adjacency_output(self, capsys):
        code, out, _ = run(capsys, "construct", "grid-4x2", "--adj")
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 8
        assert all(row.count("1") == 4 for row in rows)

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "construct", "zorp")
        assert code == 1
        assert "petersen" in err      # usage error lists valid names


class TestClassify:
    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("GQzTrg\n"))
        code, out, _ = run(capsys, "classify", "--g6", "-")
        assert code == 0
        assert "deza: (8, 4, 2, 0)" in out
        assert "strictly_deza: yes" in out

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text("Bw\n")      # the triangle
        code, out, _ = run(capsys, "classify", "--g6", str(path))
        assert code == 0
        assert "regular: 2" in out

    @pytest.mark.parametrize("data", ["A\u00e9\n".encode(),
                                      "\u2603\n".encode(), b"A\xe9\n"])
    def test_non_ascii_file_is_an_error(self, capsys, tmp_path, data):
        path = tmp_path / "g.g6"
        path.write_bytes(data)
        code, _, err = run(capsys, "classify", "--g6", str(path))
        assert code == 1
        assert err.startswith("error: non-ASCII character")

    @pytest.mark.parametrize("text", ["A\u00e9", "\u2603"])
    def test_non_ascii_input_is_an_error(self, capsys, text):
        code, _, err = run(capsys, "ddg", text)
        assert code == 1
        assert "neither a catalog name nor a graph6" in err

    def test_json_round_trips_byte_identically(self, capsys):
        code, out, _ = run(capsys, "classify", "--name", "petersen",
                           "--json")
        assert code == 0
        line = out.strip()
        assert json.dumps(json.loads(line), separators=(",", ":")) == line

    def test_requires_a_source(self, capsys):
        code, _, err = run(capsys, "classify")
        assert code == 1
        assert "usage" in err


class TestDdgAndSpectrum:
    def test_ddg_report(self, capsys):
        code, out, _ = run(capsys, "ddg", "fano-non-incidence")
        assert code == 0
        assert "(14, 4, 2, 0, 2, 7)" in out
        assert "A^2 identity: ok" in out
        assert "coclique" in out

    def test_ddg_json(self, capsys):
        code, out, _ = run(capsys, "ddg", "grid-4x2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["proper"]["lam1"] == 0
        assert data["proper"]["m"] == 4
        assert data["a2_identity"] == "ok"

    def test_ddg_accepts_graph6_literal(self, capsys):
        code, out, _ = run(capsys, "ddg", "GQzTrg")
        assert code == 0
        assert "(8, 4, 0, 2, 4, 2)" in out

    def test_spectrum_factored_form(self, capsys):
        code, out, _ = run(capsys, "spectrum", "grid-4x2")
        assert code == 0
        assert "factored: (x-4)(x-2)x^3(x+2)^3" in out

    def test_spectrum_polynomial_computed_once(self, capsys, monkeypatch):
        # a proper DDG: the design check reuses the command's factors
        calls = []
        real = spectra.char_poly

        def counted(g):
            calls.append(g.v)
            return real(g)
        monkeypatch.setattr(cli, "char_poly", counted)
        monkeypatch.setattr(spectra, "char_poly", counted)
        code, out, _ = run(capsys, "spectrum", "grid-4x2", "--json")
        assert code == 0
        assert calls == [8]
        s = spectra.ddg_spectrum_check(construct("grid-4x2"),
                                       8, 4, 0, 2, 4, 2)
        assert json.loads(out)["ddg_spectrum"] == {
            "k": s.k, "d1": s.d1, "d2": s.d2,
            "f1": s.f1, "f2": s.f2, "g1": s.g1, "g2": s.g2}

    def test_spectrum_json_golden(self, capsys):
        # SHA-256 of `spectrum --json` over the catalog, frozen before the
        # sieve and the spectrum check shared one balance solver
        digest = hashlib.sha256()
        for name in catalog_names():
            code, out, _ = run(capsys, "spectrum", name, "--json")
            assert code == 0
            digest.update(f"{name}\n{out}".encode())
        assert digest.hexdigest() == SPECTRUM_GOLDEN

    def test_unresolvable_input(self, capsys):
        code, _, err = run(capsys, "spectrum", "???")
        assert code == 1
        assert "neither" in err


class TestSieve:
    def test_trace_output(self, capsys):
        code, out, _ = run(capsys, "sieve", "deza", "18", "5", "3", "1")
        assert code == 0
        assert "infeasible: R2 beta=3/2" in out

    def test_feasible_tuple(self, capsys):
        code, out, _ = run(capsys, "sieve", "ddg", "14", "3", "1", "0",
                           "2", "7")
        assert code == 0
        assert out.strip().splitlines()[-1] == "feasible"

    def test_scan(self, capsys):
        code, out, _ = run(capsys, "sieve", "scan", "--family", "n2",
                           "--max", "8")
        assert code == 0
        assert "0 feasible" in out

    def test_scan_json(self, capsys):
        code, out, _ = run(capsys, "sieve", "scan", "--family", "n2",
                           "--max", "8", "--json")
        assert code == 0
        assert json.loads(out)["feasible"] == 0


class TestEnumerate:
    def test_stdout_g6_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--v", "8", "--k", "4",
                           "--filter", "deza(8,4,2,0)")
        assert code == 0
        assert out.strip() == "GQzTrg"

    def test_out_files(self, capsys, tmp_path):
        prefix = tmp_path / "run"
        code, out, _ = run(capsys, "enumerate", "--v", "6..7", "--k", "2",
                           "--out", str(prefix))
        assert code == 0
        assert "wrote" in out
        assert (tmp_path / "run.g6").exists()
        assert (tmp_path / "run.meta.jsonl").exists()


class TestAudit:
    def test_clean_audit_exits_zero(self, capsys):
        code, out, _ = run(capsys, "audit", "--theorem", "1",
                           "--vmax", "10")
        assert code == 0
        assert "no discrepancies" in out

    def test_discrepancies_exit_two(self, capsys):
        code, out, _ = run(capsys, "audit", "--theorem", "3", "--vmax", "8")
        assert code == 2
        assert "parameter-mismatch" in out

    def test_audit_json(self, capsys):
        code, out, _ = run(capsys, "audit", "--theorem", "3", "--vmax", "8",
                           "--json")
        assert code == 2
        line = out.strip()
        assert json.dumps(json.loads(line), separators=(",", ":")) == line


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("sieve", "deza", "5", "10", "3", "1"),
        ("sieve", "ddg", "8", "4", "0", "2", "0", "2"),
    ])
    def test_out_of_range_sieve_tuple(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: need")

    def test_non_integer_range(self, capsys):
        code, _, err = run(capsys, "enumerate", "--v", "abc", "--k", "3")
        assert code == 1
        assert err.startswith("usage error: 'abc'")

    @pytest.mark.parametrize("argv", [
        pytest.param(("--v", "10..8", "--k", "3"), id="v"),
        pytest.param(("--v", "10", "--k", "4..3"), id="k"),
    ])
    def test_reversed_range(self, capsys, monkeypatch, argv):
        def never(*args, **kwargs):
            raise AssertionError("enumerated a reversed range")
        monkeypatch.setattr(cli, "census", never)
        code, out, err = run(capsys, "enumerate", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: range") and "reversed" in err

    @pytest.mark.parametrize("spec", ["deza(*,q,*,*)", "ddg(k-x,*,*,*)",
                                      "deza(*,v,*,*)"])
    def test_bad_filter_term_before_enumerating(self, capsys, monkeypatch,
                                                spec):
        def never(*args, **kwargs):
            raise AssertionError("enumerated before checking the filter")
        monkeypatch.setattr(importlib.import_module("deza.census"),
                            "generate_regular", never)
        code, out, err = run(capsys, "enumerate", "--v", "11", "--k", "4",
                             "--filter", spec)
        assert code == 1
        assert out == ""
        assert err.startswith("error: bad filter term")

    def test_non_integer_vertex_ceiling(self, capsys, monkeypatch):
        monkeypatch.setenv("DEZA_MAX_VERTICES", "abc")
        code, _, err = run(capsys, "enumerate", "--v", "8", "--k", "3")
        assert code == 1
        assert err.startswith("error: DEZA_MAX_VERTICES")

    @pytest.mark.parametrize("argv", [
        pytest.param(("enumerate", "--v", "8", "--k", "3"), id="enumerate"),
        pytest.param(("audit", "--theorem", "1"), id="audit"),
    ])
    @pytest.mark.parametrize("jobs", [0, -3, (os.cpu_count() or 1) + 1])
    def test_jobs_out_of_range(self, capsys, monkeypatch, argv, jobs):
        # rejected while parsing, before any generator or pool could start
        def never(*args, **kwargs):
            raise AssertionError("ran with a rejected --jobs value")
        monkeypatch.setattr(cli, "census", never)
        monkeypatch.setattr(cli, "audit_theorem", never)
        code, _, err = run(capsys, *argv, "--jobs", str(jobs))
        assert code == 1
        assert "--jobs" in err

    def test_internal_invariant_maps_to_three(self, capsys, monkeypatch):
        # the parser is built once per process and holds the handlers, so
        # the fault is injected into what the catalog handler calls
        def boom():
            raise InternalInvariantError("synthetic")
        monkeypatch.setattr(cli, "catalog", boom)
        code, _, err = run(capsys, "catalog")
        assert code == 3
        assert "invariant" in err


class TestCatalogCommand:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        assert "grid-4x2" in out
        assert "strictly Deza" in out

    def test_console_script_installed(self):
        proc = subprocess.run(["deza", "sieve", "deza", "18", "5", "3", "1"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "infeasible: R2 beta=3/2" in proc.stdout

    def test_python_dash_m(self):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(deza.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "deza", "catalog"],
                              capture_output=True, text=True, timeout=60,
                              env=env)
        assert proc.returncode == 0
        assert "grid-4x2" in proc.stdout
