"""Command-line tests: exit statuses, generated files, report headers,
and byte-identical reruns under identical configuration."""
import numpy as np
import pytest

from deltagrid import GridSet1, Scale, gen_cantor, read_gridset
from deltagrid.cli import main


def run(argv):
    return main([str(a) for a in argv])


def test_gen_cantor_runs(tmp_path):
    out = tmp_path / "k.gs1"
    assert run(["gen", "cantor", "--n", 12, "--base", 4,
                "--digits", "0,3", "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "GS1 v1"
    assert len(lines) - 3 == 64  # one run per surviving block
    assert read_gridset(out) == gen_cantor(Scale(12), 4, (0, 3), 6)


def test_gen_interval_and_square(tmp_path):
    out = tmp_path / "i.gs1"
    assert run(["gen", "interval", "--n", 4, "--a", "1/4", "--b", "3/8",
                "--out", out]) == 0
    S = read_gridset(out)
    assert sorted(S.indices.tolist()) == [4, 5]
    sq = tmp_path / "sq.gs2"
    assert run(["gen", "square", "--n", 3, "--out", sq]) == 0
    assert read_gridset(sq).count == 64


def test_op_pipeline(tmp_path):
    a = tmp_path / "a.gs1"
    b = tmp_path / "b.gs1"
    run(["gen", "interval", "--n", 3, "--a", "0", "--b", "1/4", "--out", a])
    run(["gen", "interval", "--n", 3, "--a", "1/2", "--b", "3/4", "--out", b])
    s = tmp_path / "s.gs1"
    assert run(["op", "sum", "--set", a, "--set2", b, "--out", s]) == 0
    got = read_gridset(s)
    assert sorted(got.indices.tolist()) == [4, 5, 6]  # {0,1}+{4,5}
    d = tmp_path / "d.gs1"
    assert run(["op", "dilate", "--set", a, "--factor", "3/2", "--out", d]) == 0
    assert not read_gridset(d).is_empty


def test_exit_one_on_bad_usage(tmp_path):
    assert run(["gen", "cantor", "--n", 12]) == 1  # missing --out
    assert run(["nonsense"]) == 1
    assert run(["gen", "cantor", "--n", 12, "--base", 1,
                "--out", tmp_path / "x.gs1"]) == 1
    assert run(["measure", "energy", "--sigma", "0.5"]) == 1  # no input set


def test_exit_zero_verify_suites(tmp_path):
    out = tmp_path / "v.csv"
    assert run(["verify", "addcomb", "--suite", "ruzsa", "--cases", 40,
                "--seed", 7, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# {")
    assert '"seed": 7' in lines[0]
    assert len(lines) == 2 + 40  # echo + header + one row per case
    assert all(",True," in ln or ",1," in ln or ln.count(",") >= 5
               for ln in lines[2:])


def test_verify_all_suites(tmp_path):
    out = tmp_path / "all.csv"
    assert run(["verify", "addcomb", "--suite", "all", "--cases", 10,
                "--seed", 3, "--out", out]) == 0
    body = out.read_text().splitlines()[2:]
    suites = {ln.split(",")[0] for ln in body}
    assert suites == {"ruzsa", "plunnecke", "simple-sum", "simple-diff",
                      "sumdiff", "graphproj"}


def test_byte_identical_reruns(tmp_path):
    k = tmp_path / "k.gs1"
    run(["gen", "cantor", "--n", 10, "--base", 4, "--digits", "0,3", "--out", k])
    # identical config (same --out, threads included) -> identical bytes
    rows = {}
    for threads in (1, 8):
        out = tmp_path / "r.csv"
        blobs = []
        for _ in range(2):
            assert run(["experiment", "expander", "--set", k,
                        "--candidates", "1:2", "--xres", 5, "--seed", 11,
                        "--threads", threads, "--out", out]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        rows[threads] = blobs[0].decode().splitlines()[1:]
    # the data rows are scheduling-independent across thread counts
    assert rows[1] == rows[8]


def test_verify_rerun_determinism(tmp_path):
    out = tmp_path / "v.csv"
    blobs = []
    for _ in range(2):
        assert run(["verify", "addcomb", "--suite", "sumdiff", "--cases", 25,
                    "--seed", 5, "--threads", 8, "--out", out]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_measure_and_project_paths(tmp_path):
    k = tmp_path / "k.gs1"
    run(["gen", "cantor", "--n", 8, "--base", 4, "--digits", "0,3", "--out", k])
    m = tmp_path / "m.dm1"
    assert run(["measure", "uniform", "--set", k, "--out", m]) == 0
    e = tmp_path / "e.csv"
    assert run(["measure", "energy", "--measure", m, "--sigma", "0.4",
                "--out", e]) == 0
    assert "energy" in e.read_text().splitlines()[1]
    sq = tmp_path / "sq.gs2"
    run(["gen", "square", "--n", 4, "--out", sq])
    sweep_csv = tmp_path / "sweep.csv"
    assert run(["project", "sweep", "--set", sq, "--angles", 16,
                "--fraction", "0.9", "--out", sweep_csv]) == 0
    body = sweep_csv.read_text().splitlines()
    assert len(body) == 2 + 16


def test_projection_experiment_only_echoes_kappa(tmp_path, capsys):
    # the experiment computes no energies: any --kappa runs, and only the
    # report's echo line holds it
    sq = tmp_path / "sq.gs2"
    run(["gen", "square", "--n", 4, "--out", sq])
    capsys.readouterr()
    seen = []
    for kappa in ("1", "0", "-3"):
        out = tmp_path / "pj.csv"
        assert run(["experiment", "projection", "--set", sq, "--epsilon", "0.1", "--eta", "0.1",
                    "--angles", 16, "--nu-cells", 8, "--kappa", kappa, "--out", out]) == 0
        echo, *rows = out.read_text().splitlines()
        assert f'"kappa": {float(kappa)}' in echo
        seen.append((capsys.readouterr(), rows))
    assert seen[0] == seen[1] == seen[2]


def test_lattice_paths(tmp_path):
    sq = tmp_path / "sq.gs2"
    run(["gen", "square", "--n", 4, "--out", sq])
    out = tmp_path / "bl.csv"
    assert run(["lattice", "blichfeldt", "--set", sq, "--modulus", "1/4",
                "--out", out]) == 0
    a = tmp_path / "a.gs1"
    run(["gen", "interval", "--n", 2, "--a", "0", "--b", "1", "--out", a])
    col = tmp_path / "col.csv"
    assert run(["lattice", "collision", "--set", a, "--vector", "0.75,0.9",
                "--radius", "8", "--out", col]) == 0
    assert "ell" in col.read_text().splitlines()[1]


def test_experiment_nfold_and_report(tmp_path):
    k = tmp_path / "k.gs1"
    run(["gen", "cantor", "--n", 10, "--base", 4, "--digits", "0,3", "--out", k])
    out = tmp_path / "nf.csv"
    assert run(["experiment", "nfold", "--set", k, "--count", 3,
                "--out", out]) == 0
    assert run(["report", out]) == 0


def test_exit_two_on_internal_failure(tmp_path, monkeypatch):
    # force a constant-1 identity to report a violation
    import deltagrid.cli as cli

    def broken(X, Y, Z):
        from deltagrid.addcomb import InequalityRecord
        from deltagrid import InternalCheckError
        raise InternalCheckError("forced")

    monkeypatch.setitem(cli._SUITE_FNS, "ruzsa", broken) if hasattr(
        cli, "_SUITE_FNS") else monkeypatch.setattr(
        cli, "check_ruzsa_triangle", broken)
    out = tmp_path / "v.csv"
    assert run(["verify", "addcomb", "--suite", "ruzsa", "--cases", 3,
                "--out", out]) == 2
