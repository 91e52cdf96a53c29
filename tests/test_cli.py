"""Command-line interface: flags, formats, exit codes, round trips."""

import json
import os
import re
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import fuzzyqrg
from fuzzyqrg import monopole
from fuzzyqrg.cli import main
from fuzzyqrg.monopole import FormMatrix

IDENTITY = "[[1,0,0],[0,1,0],[0,0,1]]"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# the directory holding the imported package, so child processes run this copy
PACKAGE_ROOT = str(Path(fuzzyqrg.__file__).resolve().parents[1])
SUBCOMMANDS = ("verify", "curvature", "qg-sweep", "qg-partial", "monopole")


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def test_no_subcommand_prints_usage():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_verify_all_passes(capsys):
    rc, out, err = run_cli(capsys, "verify")
    assert rc == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) >= 18
    assert all(l.endswith(": PASS") for l in lines)
    for suite in ("algebra", "calculus", "qlc", "monopole"):
        assert any(l.startswith(suite + ":") for l in lines)


def test_verify_single_suite(capsys):
    rc, out, err = run_cli(capsys, "verify", "--suite", "monopole")
    assert rc == 0
    lines = [l for l in out.splitlines() if l]
    assert lines and all(l.startswith("monopole:") for l in lines)
    assert any("P^2 = P" in l for l in lines)


def test_verify_unknown_suite_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_curvature_identity_metric(capsys):
    rc, out, err = run_cli(capsys, "curvature", "--metric", IDENTITY)
    assert rc == 0
    doc = json.loads(out)
    assert doc["scalar"] == -0.75
    # emitted metric re-parses to the same report
    rc2, out2, err2 = run_cli(capsys, "curvature",
                              "--metric", json.dumps(doc["metric"]))
    assert rc2 == 0 and json.loads(out2) == doc


def test_curvature_diagonal_known_value(capsys):
    rc, out, err = run_cli(capsys, "curvature",
                           "--metric", "[[1,0,0],[0,1,0],[0,0,2]]")
    assert rc == 0
    assert json.loads(out)["scalar"] == pytest.approx(-0.5)


def test_curvature_exact_round_trip(capsys):
    rc, out, err = run_cli(capsys, "curvature", "--exact",
                           "--metric", '[["1/2",0,0],[0,1,0],[0,0,2]]')
    assert rc == 0
    doc = json.loads(out)
    assert doc["metric"][0][0] == "1/2"
    rc2, out2, err2 = run_cli(capsys, "curvature", "--exact",
                              "--metric", json.dumps(doc["metric"]))
    assert rc2 == 0 and json.loads(out2) == doc


def test_curvature_exact_identity_scalar(capsys):
    rc, out, err = run_cli(capsys, "curvature", "--exact",
                           "--metric", IDENTITY)
    assert rc == 0
    assert json.loads(out)["scalar"] == "-3/4"


# Full `curvature` stdout for one metric, pinned byte for byte.  Its float
# report holds 0.0 coefficients where a Levi-Civita contraction negates a
# zero, so a contraction that yields -0.0 changes these bytes.
GOLDEN_METRIC = '[["3/2","-3","0"],["-3","-4","-1"],["0","-1","-3/2"]]'
GOLDEN_REPORTS = {
    "float": {
        "metric": [[1.5, -3.0, 0.0], [-3.0, -4.0, -1.0], [0.0, -1.0, -1.5]],
        "gamma": [[[0.0, 0.0, 6.0], [0.0, -2.0, 4.0], [0.0, 1.0, 2.0]],
                  [[0.0, 0.0, 7.0], [2.0, 0.0, -6.0], [-1.0, 0.0, 0.0]],
                  [[-6.0, -7.0, 0.0], [-4.0, 6.0, 0.0], [-2.0, 0.0, 0.0]]],
        "ricci": [
            [0.3571428571428572, 0.1428571428571428, 0.2857142857142857],
            [0.14285714285714313, 0.7142857142857142, 0.33333333333333337],
            [0.28571428571428575, 0.3333333333333333, -0.9761904761904762]],
        "scalar": 0.7738095238095237,
    },
    "exact": {
        "metric": [["3/2", "-3", "0"], ["-3", "-4", "-1"],
                   ["0", "-1", "-3/2"]],
        "gamma": [[["0", "0", "6"], ["0", "-2", "4"], ["0", "1", "2"]],
                  [["0", "0", "7"], ["2", "0", "-6"], ["-1", "0", "0"]],
                  [["-6", "-7", "0"], ["-4", "6", "0"], ["-2", "0", "0"]]],
        "ricci": [["5/14", "1/7", "2/7"], ["1/7", "5/7", "1/3"],
                  ["2/7", "1/3", "-41/42"]],
        "scalar": "65/84",
    },
}


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_curvature_stdout_golden(capsys, mode):
    extra = ["--exact"] if mode == "exact" else []
    rc, out, err = run_cli(capsys, "curvature", "--metric", GOLDEN_METRIC,
                           *extra)
    assert rc == 0
    assert out == json.dumps(GOLDEN_REPORTS[mode], indent=2) + "\n"


def test_curvature_text_format(capsys):
    rc, out, err = run_cli(capsys, "curvature", "--exact", "--format", "text",
                           "--metric", IDENTITY)
    assert rc == 0
    assert out.startswith("scalar: -3/4")
    assert "gamma" in out


def test_curvature_singular_metric_fails(capsys):
    rc, out, err = run_cli(capsys, "curvature",
                           "--metric", "[[1,0,0],[0,1,0],[0,0,0]]")
    assert rc == 1
    assert "metric not invertible" in err


def test_curvature_asymmetric_metric_fails(capsys):
    rc, out, err = run_cli(capsys, "curvature",
                           "--metric", "[[1,2,0],[0,1,0],[0,0,1]]")
    assert rc == 1
    assert "not symmetric" in err


def test_curvature_bad_json_is_usage_error(capsys):
    rc, out, err = run_cli(capsys, "curvature", "--metric", "[[1,2")
    assert rc == 2
    assert "not valid JSON" in err


def test_curvature_wrong_shape_is_usage_error(capsys):
    rc, out, err = run_cli(capsys, "curvature", "--metric", "[[1,0],[0,1]]")
    assert rc == 2


def test_curvature_exact_rejects_floats(capsys):
    rc, out, err = run_cli(capsys, "curvature", "--exact",
                           "--metric", "[[1.5,0,0],[0,1,0],[0,0,1]]")
    assert rc == 2
    assert "exact mode" in err


@pytest.mark.parametrize("metric", [
    "[[1,0,0],[0,1,0],[0,0,1e999]]", '[[1,0,0],[0,1,0],[0,0,"1e999"]]',
    "[[NaN,0,0],[0,1,0],[0,0,1]]", "[[1,0,0],[0,-Infinity,0],[0,0,1]]"])
def test_curvature_non_finite_entry_is_usage_error(capsys, metric):
    rc, out, err = run_cli(capsys, "curvature", "--metric", metric)
    assert rc == 2
    assert out == ""
    assert "not a finite number" in err


def test_curvature_metric_with_infinite_inverse_fails(capsys):
    rc, out, err = run_cli(capsys, "curvature",
                           "--metric", "[[1,0,0],[0,1,0],[0,0,1e-320]]")
    assert rc == 1
    assert out == ""
    assert "not finite" in err


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_curvature_non_finite_result_fails(capsys, fmt):
    # det = 1 and a finite inverse, but the curvature overflows
    rc, out, err = run_cli(capsys, "curvature", "--format", fmt, "--metric",
                           "[[1e150,0,0],[0,1e-150,0],[0,0,1]]")
    assert rc == 1
    assert out == ""
    assert "left the double range" in err


@pytest.mark.parametrize("extra", [[], ["--exact"]])
def test_curvature_boolean_entry_is_usage_error(capsys, extra):
    rc, out, err = run_cli(capsys, "curvature", *extra,
                           "--metric", "[[true,0,0],[0,1,0],[0,0,1]]")
    assert rc == 2
    assert out == ""
    assert "not a number: True" in err


@pytest.mark.parametrize("argv", [
    ("curvature", "--metric", IDENTITY),
    ("qg-partial", "--u", "2", "--resolution", "16"),
    ("monopole", "connection"),
])
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv, target):
    out_path = tmp_path / "missing" / "x.out" if target == "missing" \
        else tmp_path
    rc, out, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: cannot write output file: ")


def test_curvature_metric_from_file(tmp_path, capsys):
    path = tmp_path / "metric.json"
    path.write_text('{"metric": [[2,0,0],[0,2,0],[0,0,2]]}')
    out_path = tmp_path / "report.json"
    rc, out, err = run_cli(capsys, "curvature", "--metric", str(path),
                           "--out", str(out_path))
    assert rc == 0 and out == ""
    doc = json.loads(out_path.read_text())
    assert doc["metric"][0][0] == 2.0


def test_qg_sweep_csv_deterministic(tmp_path, capsys):
    args = ("qg-sweep", "--Lmin", "2", "--Lmax", "3", "--steps", "2",
            "--eps", "0.1", "--resolution", "24", "--moments", "1",
            "--moments", "1,2")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "# schema=fuzzyqrg.sweep.v1"
    assert lines[1].startswith("# eps_stability:")
    assert lines[2].startswith("L,G,eps,moment_spec,")
    assert len(lines) == 3 + 4
    assert lines[3].split(",")[3] == "1"


def test_qg_sweep_json(capsys):
    rc, out, err = run_cli(capsys, "qg-sweep", "--Lmin", "2", "--Lmax", "3",
                           "--steps", "2", "--eps", "0.1",
                           "--resolution", "24", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == "fuzzyqrg.sweep.v1"
    assert [row["L"] for row in doc["rows"]] == [2.0, 3.0]
    assert "eps_stability" in doc


def test_qg_sweep_last_cutoff_is_lmax(capsys):
    # Lmin + 9 h rounds to 2.9999999999999996 here
    rc, out, err = run_cli(capsys, "qg-sweep", "--Lmin", "0.1", "--Lmax", "3",
                           "--steps", "10", "--resolution", "16",
                           "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    ls = [row["L"] for row in doc["rows"]]
    assert len(ls) == 10 and ls[0] == 0.1
    assert ls[-1] == doc["eps_stability"]["L"] == 3.0


def test_qg_sweep_rejects_text_format():
    with pytest.raises(SystemExit) as exc:
        main(["qg-sweep", "--Lmin", "2", "--Lmax", "3", "--steps", "2",
              "--eps", "0.1", "--resolution", "24", "--format", "text"])
    assert exc.value.code == 2


def test_qg_sweep_rejects_seed():
    # sweep is deterministic quadrature; it has no seed to set
    with pytest.raises(SystemExit) as exc:
        main(["qg-sweep", "--Lmin", "2", "--Lmax", "3", "--steps", "2",
              "--eps", "0.1", "--resolution", "24", "--seed", "5"])
    assert exc.value.code == 2


def test_qg_sweep_bad_moments(capsys):
    rc, out, err = run_cli(capsys, "qg-sweep", "--Lmin", "2", "--Lmax", "3",
                           "--moments", "1,4")
    assert rc == 2
    assert "moment indices" in err


def test_qg_sweep_bad_range(capsys):
    rc, out, err = run_cli(capsys, "qg-sweep", "--Lmin", "3", "--Lmax", "2")
    assert rc == 2
    rc, out, err = run_cli(capsys, "qg-sweep", "--Lmin", "0.05", "--Lmax",
                           "3", "--eps", "0.1", "--steps", "2")
    assert rc == 2


def test_qg_sweep_rejects_infinite_cutoff(capsys):
    rc, out, err = run_cli(capsys, "qg-sweep", "--Lmin", "2", "--Lmax", "inf",
                           "--steps", "1")
    assert rc == 2
    assert out == ""
    assert "finite" in err


def test_qg_sweep_omits_uncertainty_when_variance_cancels(capsys):
    # <lam1^2> - <lam1>^2 rounds to 0 here; it is not a measured 0
    rc, out, err = run_cli(capsys, "qg-sweep", "--G", "1e-6", "--eps", "0.1",
                           "--Lmin", "100", "--Lmax", "100", "--steps", "1",
                           "--resolution", "16", "--format", "json")
    assert rc == 0
    row, = json.loads(out)["rows"]
    assert row["ratio_16over3"] == 1.0
    assert row["uncertainty"] is None


@pytest.mark.parametrize("argv", [
    ("--Lmin", "2", "--Lmax", "1e120", "--moments", "1,2,3"),
    ("--Lmin", "2", "--Lmax", "1e200", "--steps", "1"),
])
def test_qg_sweep_rejects_moments_outside_double_range(recwarn, capsys,
                                                       argv):
    rc, out, err = run_cli(capsys, "qg-sweep", *argv, "--resolution", "16")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: moments at ")
    assert "left the double range" in err
    assert not recwarn.list


def test_qg_partial_text(capsys):
    rc, out, err = run_cli(capsys, "qg-partial", "--u", "2", "--G", "1",
                           "--resolution", "32")
    assert rc == 0
    assert out.startswith("Z_u(u=2, G=1) = ")
    assert "margin = 0.0001" in out


def test_qg_partial_json_margin_echoed(capsys):
    rc, out, err = run_cli(capsys, "qg-partial", "--u", "2",
                           "--resolution", "32", "--margin", "1e-3",
                           "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["margin"] == 1e-3
    assert doc["Zu"] > 0 and doc["error"] >= 0


def test_qg_partial_rejects_nonpositive_u():
    with pytest.raises(SystemExit) as exc:
        main(["qg-partial", "--u", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("res", ["0", "-5", "15"])
def test_qg_partial_rejects_bad_resolution(capsys, res):
    rc, out, err = run_cli(capsys, "qg-partial", "--u", "2",
                           "--resolution", res)
    assert rc == 2
    assert out == ""
    assert "resolution" in err


def test_qg_partial_rejects_margin_from_one_half(capsys):
    rc, out, err = run_cli(capsys, "qg-partial", "--u", "2",
                           "--resolution", "16", "--margin", "0.6")
    assert rc == 2
    assert out == ""
    assert "margin" in err


@pytest.mark.parametrize("u", ["1e3", "1e300"])
def test_qg_partial_rejects_result_outside_double_range(capsys, u):
    rc, out, err = run_cli(capsys, "qg-partial", "--u", u)
    assert rc == 2
    assert out == ""
    assert "left the double range" in err


def test_monopole_connection_report(capsys):
    rc, out, err = run_cli(capsys, "monopole", "connection")
    assert rc == 0
    entry_11 = next(l for l in out.splitlines() if l.strip().startswith("(1,1)"))
    assert "- (i/4)(1-lp^2) s3" in entry_11
    assert "expanded entries" in out


def test_monopole_curvature_report(capsys):
    rc, out, err = run_cli(capsys, "monopole", "curvature")
    assert rc == 0
    assert "f12" in out and "f31" in out and "f23" in out
    assert "f23: M = [[x1, lp], [lp, x1]]" in out


def test_monopole_curvature_fails_on_spoiled_f23(monkeypatch, capsys):
    original = FormMatrix.coefficient_matrix

    def spoiled(self, *key):
        block = original(self, *key)
        return 2 * block if key == (2, 3) else block

    monkeypatch.setattr(FormMatrix, "coefficient_matrix", spoiled)
    rc, out, err = run_cli(capsys, "monopole", "curvature")
    assert rc == 1
    assert out == ""
    assert "f = 2 M P" in err


def test_monopole_connection_fails_off_closed_form(monkeypatch, capsys):
    monkeypatch.setattr(monopole, "grassmann_connection", monopole.projector_dP)
    rc, out, err = run_cli(capsys, "monopole", "connection")
    assert rc == 1
    assert out == ""
    assert "closed form" in err


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return env


def assert_help_lists_subcommands(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: fuzzyqrg")
    listed = re.search(r"\{([^}]*)\}", proc.stdout)
    assert listed, proc.stdout
    assert set(SUBCOMMANDS) <= set(listed.group(1).split(","))


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzyqrg.cli", "verify", "--suite", "algebra"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_exact_subcommands_leave_numpy_unimported():
    # a fresh process: the exact layers and their subcommands, then the
    # star import, which must still bind every name in __all__
    script = (
        "import sys\n"
        "from fuzzyqrg.cli import main\n"
        "assert 'numpy' not in sys.modules\n"
        "for argv in (['verify'], ['curvature', '--metric', %r],\n"
        "             ['curvature', '--exact', '--metric', %r],\n"
        "             ['monopole', 'connection'],\n"
        "             ['monopole', 'curvature']):\n"
        "    assert main(argv) == 0, argv\n"
        "    assert 'numpy' not in sys.modules, argv\n"
        "import fuzzyqrg\n"
        "from fuzzyqrg import *\n"
        "missing = [n for n in fuzzyqrg.__all__ if n not in globals()]\n"
        "assert not missing, missing\n"
        "assert QGConfig is sys.modules['fuzzyqrg.qgravity'].QGConfig\n"
        % (GOLDEN_METRIC, GOLDEN_METRIC))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr


def test_console_script_installed():
    """The declared console script resolves to main and runs as pip's wrapper would."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "fuzzyqrg" in scripts, "[project.scripts] declares no fuzzyqrg"
    ep = EntryPoint(name="fuzzyqrg", value=scripts["fuzzyqrg"],
                    group="console_scripts")
    assert ep.load() is main
    # the body of the wrapper script that an install writes for this entry
    wrapper = (f"import sys\n"
               f"from {ep.module} import {ep.attr.split('.')[0]}\n"
               f"sys.argv[0] = 'fuzzyqrg'\n"
               f"sys.exit({ep.attr}())\n")
    proc = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                          capture_output=True, text=True, env=child_env())
    assert_help_lists_subcommands(proc)


@pytest.mark.skipif(shutil.which("fuzzyqrg") is None,
                    reason="fuzzyqrg executable not on PATH (package not installed)")
def test_console_script_on_path():
    proc = subprocess.run([shutil.which("fuzzyqrg"), "--help"],
                          capture_output=True, text=True)
    assert_help_lists_subcommands(proc)
