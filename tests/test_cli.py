import hashlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

import deza
import deza.census
from deza import cli, spectra
from deza.catalog import catalog, catalog_names, construct
from deza.classify import classify
from deza.graph6 import decode_graph6, encode_graph6
from deza.graphs import (InternalInvariantError, complete_graph,
                         disjoint_union, make_graph)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_submodules_are_not_shadowed():
    # `import deza.census as m` binds the package attribute deza.census,
    # which must be the module and not a function of the same name
    import deza.catalog as catalog_module
    import deza.census as census_module
    assert inspect.ismodule(census_module)
    assert inspect.ismodule(catalog_module)
    assert census_module.generate_regular is deza.generate_regular


# SHA-256 of `spectrum <name> --json` over every catalog graph
SPECTRUM_GOLDEN = (
    "d75b667dbd0a7fe4995f6d3704b72808e2da7f026e49534231837200fa4258de")

# SHA-256 of stdout for each command, frozen before the result types lost
# their hand-written as_dict and the scans began to yield
OUTPUT_GOLDEN = [
    (("sieve", "scan", "--family", "n2", "--max", "40"),
     "56056ff95525dd59175d979850c4a1d0c1f76a33ee873c56cfdd38e4055fab53"),
    (("sieve", "scan", "--family", "n2", "--max", "40", "--json"),
     "af89df3c38fcc36252ce236037122e0d01e45ac6b2f4ef155df4e20e437929bf"),
    (("sieve", "scan", "--family", "small-n", "--max", "40"),
     "6321aa075a78d0908516657f790b0faaeeff4f281d3b0581cbc4eb2c24933e18"),
    (("sieve", "scan", "--family", "small-n", "--max", "40", "--json"),
     "1465cbe939ae62f114f725077ed43f5cc00adbe3e2e3cd4538ab477ea16d3354"),
    (("catalog", "--json"),
     "2ee1586cab15cc6952f7e1991daa5faea4880e33922090e1e6a3c52e8b675fae"),
]

# SHA-256 of `classify`, `ddg`, `spectrum` and `sieve deza` output, text
# and JSON, over the catalog graphs, then `ddg` on K4 (improper designs
# only), the 3-vertex path (irregular) and the 5-cycle (no design),
# frozen with OUTPUT_GOLDEN
REPORT_GOLDEN = (
    "56a596429a33fa0f8b756cc5fea58145e926443c67ed2f0b1142773cb303a624")


def test_report_golden(capsys):
    commands = []
    for entry in catalog().values():
        commands += [("classify", "--name", entry.name), ("ddg", entry.name),
                     ("spectrum", entry.name),
                     ("sieve", "deza", *map(str, entry.deza))]
    commands += [("ddg", text) for text in ("C~", "Bg", "Dhc")]
    digest = hashlib.sha256()
    for argv in commands:
        for flags in ((), ("--json",)):
            code, out, _ = run(capsys, *argv, *flags)
            assert code == 0
            digest.update(f"{argv + flags}\n{out}".encode())
    assert digest.hexdigest() == REPORT_GOLDEN


@pytest.mark.parametrize("argv,digest", OUTPUT_GOLDEN,
                         ids=[" ".join(a) for a, _ in OUTPUT_GOLDEN])
def test_output_golden(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_small_n_scan_memory(capsys):
    # the scan prints three facts per tuple, so it need not hold the
    # 24,072 verdicts with their rule traces until the last one is built
    tracemalloc.start()
    try:
        code = cli.main(["sieve", "scan", "--family", "small-n",
                         "--max", "40", "--json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 32 * 2**20


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

    @pytest.mark.parametrize("name,reason", [
        pytest.param("missing.g6", "No such file", id="missing"),
        pytest.param("", "Is a directory", id="directory")])
    def test_unreadable_file_is_an_error(self, capsys, tmp_path, name,
                                         reason):
        path = tmp_path / name
        code, out, err = run(capsys, "classify", "--g6", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot read --g6 {path}: {reason}")

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
        assert err == ("usage error: provide --g6 <file> or --name "
                       "<name>\n")

    def test_one_source_only(self, capsys, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text("Bw\n")
        code, out, err = run(capsys, "classify", "--name", "petersen",
                             "--g6", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: argument --g6: not allowed "
                              "with argument --name")


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

    @pytest.mark.parametrize("command", ["ddg", "spectrum"])
    def test_dash_reads_graph6_from_stdin(self, capsys, monkeypatch,
                                          command):
        want = run(capsys, command, "GQzTrg")
        monkeypatch.setattr(sys, "stdin", io.StringIO("GQzTrg\n"))
        assert run(capsys, command, "-") == want
        assert want[0] == 0 and want[1]

    def test_spectrum_factored_form(self, capsys):
        code, out, _ = run(capsys, "spectrum", "grid-4x2")
        assert code == 0
        assert "factored: (x-4)(x-2)x^3(x+2)^3" in out

    @pytest.mark.parametrize("g6,charpoly,factored", [
        # an edge and an isolated vertex: every root an integer
        ("B_", "x^3-x", "(x-1)x(x+1)"),
        # the path on four vertices: a quartic with no integer or surd
        # pair factor stays whole, in brackets
        ("Ch", "x^4-3x^2+1", "[x^4-3x^2+1]")])
    def test_spectrum_text_of_graph6_input(self, capsys, g6, charpoly,
                                           factored):
        code, out, _ = run(capsys, "spectrum", g6)
        assert code == 0
        assert out.splitlines() == [f"charpoly: {charpoly}",
                                    f"factored: {factored}"]

    def test_spectrum_of_irregular_graphs_uses_the_max_degree(self, capsys):
        # every eigenvalue lies in [-D, D] for the maximum degree D, so the
        # factors equal those found with the wider bound v; K5 plus a path
        # has the integer root D = 4, and the star K_{1,3} the surd pair
        # (x^2 - 3)
        rng = random.Random(31)
        graphs = [disjoint_union([complete_graph(5),
                                  make_graph(3, [(0, 1), (1, 2)])]),
                  make_graph(4, [(0, 1), (0, 2), (0, 3)])]
        while len(graphs) < 24:
            v = rng.randrange(3, 15)
            p = rng.choice((0.15, 0.4, 0.7))
            g = make_graph(v, [(i, j) for i in range(v)
                               for j in range(i + 1, v) if rng.random() < p])
            if g.regular_degree() is None:
                graphs.append(g)
        for g in graphs:
            code, out, _ = run(capsys, "spectrum", encode_graph6(g), "--json")
            assert code == 0
            data = json.loads(out)
            factors = spectra.factor_adjacency_poly(data["coeffs"], g.v)
            assert {key: data[key] for key in
                    ("int_roots", "surd_pairs", "residual")} == json.loads(
                cli._dump(factors))

    def test_spectrum_polynomial_computed_once(self, capsys, monkeypatch):
        # a proper DDG: the design check reuses the command's factors
        calls = []
        checks = []
        real = spectra.char_poly
        real_check = spectra.ddg_spectrum_check

        def counted(g):
            calls.append(g.v)
            return real(g)

        def counted_check(g, *params, **kwargs):
            checks.append(params)
            return real_check(g, *params, **kwargs)
        monkeypatch.setattr(cli, "char_poly", counted)
        monkeypatch.setattr(spectra, "char_poly", counted)
        monkeypatch.setattr(cli, "ddg_spectrum_check", counted_check)
        code, out, _ = run(capsys, "spectrum", "grid-4x2", "--json")
        assert code == 0
        assert calls == [8]
        assert checks == [(8, 4, 0, 2, 4, 2)]
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

    @pytest.mark.parametrize("family,names", [
        ("deza", "V K B A"), ("ddg", "V K L1 L2 M N")])
    def test_parameter_names(self, capsys, family, names):
        # the usage line and a short tuple name each parameter
        with pytest.raises(SystemExit) as exit_:
            cli.main(["sieve", family, "--help"])
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == (
            f"usage: deza sieve {family} [-h] [--json] {names}")
        code, out, err = run(capsys, "sieve", family, "10", "3", "1")
        assert code == 1 and out == ""
        assert err == ("usage error: the following arguments are "
                       f"required: {', '.join(names.split()[3:])}\n")

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

    @pytest.mark.parametrize("bound", [0, -3])
    def test_scan_max_below_one(self, capsys, bound):
        code, out, err = run(capsys, "sieve", "scan", "--family", "n2",
                             "--max", str(bound))
        assert code == 1
        assert out == ""
        assert err.startswith("usage error:")
        assert "--max" in err


class TestEnumerate:
    def test_stdout_g6_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--v", "8", "--k", "4",
                           "--filter", "deza(8,4,2,0)")
        assert code == 0
        assert out.strip() == "GQzTrg"

    def test_two_jobs_print_the_one_job_stdout(self, capsys, monkeypatch):
        # --jobs is capped at the CPU count; claim two so the pool runs
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        serial = run(capsys, "enumerate", "--v", "8", "--k", "3")
        parallel = run(capsys, "enumerate", "--v", "8", "--k", "3",
                       "--jobs", "2")
        assert parallel == serial
        assert serial[0] == 0 and serial[1].count("\n") == 6

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
        # a class size far above v ends at once, before any residue scan
        ("sieve", "ddg", "5", "3", "1", "0", "1", str(10**12)),
    ])
    def test_out_of_range_sieve_tuple(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: need")

    def test_non_integer_range(self, capsys):
        code, _, err = run(capsys, "enumerate", "--v", "abc", "--k", "3")
        assert code == 1
        assert err.startswith("usage error: 'abc'")

    @pytest.mark.parametrize("argv,problem", [
        pytest.param(("--v", "10..8", "--k", "3"), "range '10..8' is reversed",
                     id="v"),
        pytest.param(("--v", "10", "--k", "4..3"), "range '4..3' is reversed",
                     id="k"),
        # no graph has more vertices than the cap, so a range past it is
        # refused before a list of its values is built
        pytest.param(("--v", "1..513", "--k", "3"),
                     "'1..513' ends above 512", id="v-past-cap"),
    ])
    def test_reversed_range(self, capsys, monkeypatch, argv, problem):
        def never(*args, **kwargs):
            raise AssertionError("enumerated a bad range")
        monkeypatch.setattr(cli, "census", never)
        code, out, err = run(capsys, "enumerate", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"usage error: {problem}")

    @pytest.mark.parametrize("spec", ["deza(*,q,*,*)", "ddg(k-x,*,*,*)",
                                      "deza(*,v,*,*)"])
    def test_bad_filter_term_before_enumerating(self, capsys, monkeypatch,
                                                spec):
        def never(*args, **kwargs):
            raise AssertionError("enumerated before checking the filter")
        monkeypatch.setattr(deza.census, "generate_regular", never)
        code, out, err = run(capsys, "enumerate", "--v", "11", "--k", "4",
                             "--filter", spec)
        assert code == 1
        assert out == ""
        assert err.startswith("error: bad filter term")

    def test_filter_with_three_parameters(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("enumerated before checking the filter")
        monkeypatch.setattr(deza.census, "generate_regular", never)
        code, out, err = run(capsys, "enumerate", "--v", "6", "--k", "3",
                             "--filter", "deza(1,2,3)")
        assert code == 1
        assert out == ""
        assert err.rstrip().endswith("needs four parameters")

    def test_out_into_missing_directory_before_enumerating(
            self, capsys, monkeypatch, tmp_path):
        def never(*args, **kwargs):
            raise AssertionError("enumerated before checking --out")
        monkeypatch.setattr(deza.census, "generate_regular", never)
        prefix = tmp_path / "missing" / "x"
        code, out, err = run(capsys, "enumerate", "--v", "6", "--k", "3",
                             "--out", str(prefix))
        assert code == 1
        assert out == ""
        assert err.startswith("error: no directory for the census files")

    def test_unwritable_out_file(self, capsys, tmp_path):
        (tmp_path / "run.g6").mkdir()
        code, out, err = run(capsys, "enumerate", "--v", "6", "--k", "3",
                             "--out", str(tmp_path / "run"))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {tmp_path}/run.g6")

    @pytest.mark.parametrize("spec", ["satdistinct=x", "maxpair=q",
                                      "maxpair=k-2;maxpair=1"])
    def test_bad_prune_term(self, capsys, spec):
        code, out, err = run(capsys, "enumerate", "--v", "6", "--k", "3",
                             "--prune", spec)
        assert code == 1
        assert out == ""
        assert err.startswith("error: bad prune term")

    @pytest.mark.parametrize("spec", [
        "maxpair=-1;sat=0;satdistinct=-1", "maxpair=-1", "sat=-1",
        "satdistinct=-1", "maxpair=k-9;sat=0"])
    def test_negative_prune_bounds(self, capsys, spec):
        # no pair count is negative, so no graph passes: each spec is a
        # clean run with no output, as maxpair=-1 alone always was
        code, out, err = run(capsys, "enumerate", "--v", "6", "--k", "3",
                             "--prune", spec)
        assert (code, out, err) == (0, "", "")

    def test_non_integer_vertex_ceiling(self, capsys, monkeypatch):
        monkeypatch.setenv("DEZA_MAX_VERTICES", "abc")
        code, _, err = run(capsys, "enumerate", "--v", "8", "--k", "3")
        assert code == 1
        assert err.startswith("error: DEZA_MAX_VERTICES")

    @pytest.mark.parametrize("argv", [
        pytest.param(("enumerate", "--v", "8", "--k", "3"), id="enumerate"),
        pytest.param(("audit", "--theorem", "1"), id="audit"),
    ])
    @pytest.mark.parametrize("jobs", [0, -3, (os.cpu_count() or 1) + 1, "x"])
    def test_jobs_out_of_range(self, capsys, monkeypatch, argv, jobs):
        # rejected while parsing, before any generator or pool could start
        def never(*args, **kwargs):
            raise AssertionError("ran with a rejected --jobs value")
        monkeypatch.setattr(cli, "census", never)
        monkeypatch.setattr(cli, "audit_theorem", never)
        code, _, err = run(capsys, *argv, "--jobs", str(jobs))
        assert code == 1
        assert "--jobs" in err

    @pytest.mark.parametrize("flag", ["--vmax", "--kmax"])
    @pytest.mark.parametrize("bound", [0, -1])
    def test_audit_bound_below_one(self, capsys, monkeypatch, flag, bound):
        def never(*args, **kwargs):
            raise AssertionError("ran with a rejected audit bound")
        monkeypatch.setattr(cli, "audit_theorem", never)
        code, out, err = run(capsys, "audit", "--theorem", "3", flag,
                             str(bound))
        assert code == 1
        assert out == ""
        assert err.startswith("usage error:")
        assert flag in err

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
        proc = subprocess.run([sys.executable, "-m", "deza", "catalog"],
                              capture_output=True, text=True, timeout=60,
                              env=_src_env())
        assert proc.returncode == 0
        assert "grid-4x2" in proc.stdout

    def test_closed_stdout_exits_one_quietly(self):
        # about 220 kB of JSON, more than a pipe holds, so the command is
        # still writing when the reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "deza", "sieve", "scan", "--family",
             "small-n", "--max", "20", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env())
        assert proc.stdout.read(16) == b'{"family":"small'
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
        assert err == b""


def _src_env():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(deza.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env
