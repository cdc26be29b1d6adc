"""CLI subcommands: formats, exit codes, reproducibility."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ainfty
from ainfty.cli import main

PL2 = {"family": "power_law", "beta": 2.0, "truncation": 512}
SINGLE = {"family": "finite", "centers": [[0.0, 0.0, 0.0]]}


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(PL2))
    return str(p)


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate(cfg_path, capsys):
    code, out, _ = _run(capsys, ["validate", "--config", cfg_path])
    assert code == 0
    data = json.loads(out)
    assert data["generic"] and data["chart_admissible"]
    assert data["manifest"]["command"] == "validate"


def test_phi_value_and_reproducibility(cfg_path, capsys):
    argv = ["phi", "--config", cfg_path, "--point", "0,0,0", "--eps", "1e-10"]
    code, out1, _ = _run(capsys, argv)
    assert code == 0
    assert abs(json.loads(out1)["value"] - math.pi ** 2 / 24) <= 1e-10
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2


def test_phi_singular_exit_code(tmp_path, capsys):
    p = _write(tmp_path, "s.json", SINGLE)
    code, _, err = _run(capsys, ["phi", "--config", p, "--point", "0,0,0"])
    assert code == 1
    assert "SingularPoint" in err


def test_usage_error_prints_schema(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{\"family\": \"nope\"}")
    code, _, err = _run(capsys, ["phi", "--config", str(p), "--point", "0,0,0"])
    assert code == 2
    assert "config JSON schema" in err


def test_flow(cfg_path, tmp_path, capsys):
    p = _write(tmp_path, "s.json", SINGLE)
    code, out, _ = _run(capsys, ["flow", "--config", p, "--z", "1,0",
                                 "--from-t", "0", "--to-t", "1", "--eps", "1e-10"])
    assert code == 0
    assert abs(json.loads(out)["value"] - math.asinh(1.0) / 4) <= 1e-9


def test_classify_point(cfg_path, capsys):
    code, out, _ = _run(capsys, ["classify-point", "--config", cfg_path,
                                 "--point=-2.5,0,0"])
    assert code == 0
    assert json.loads(out)["gap"] == [2, 1]
    code, out, _ = _run(capsys, ["classify-point", "--config", cfg_path,
                                 "--point=-4,0,0"])
    assert json.loads(out)["fixed"] == 2


def test_k_divisor_and_sections(cfg_path, tmp_path, capsys):
    s1 = _write(tmp_path, "s1.json", {"deviations": []})
    s2 = _write(tmp_path, "s2.json",
                {"deviations": [{"z": [0.0, 0.0], "gap": [3, 2]}]})
    code, out, _ = _run(capsys, ["k-divisor", "--config", cfg_path,
                                 "--section-a", s1, "--section-b", s2,
                                 "--disk", "10"])
    assert code == 0
    assert json.loads(out)["divisor"] == [{"z": [0.0, 0.0], "k": -2}]


def test_chart_invert_round_trip(cfg_path, tmp_path, capsys):
    s = _write(tmp_path, "s.json",
               {"deviations": [{"z": [0.0, 0.0], "gap": [2, 1]}]})
    code, out, _ = _run(capsys, ["chart", "--config", cfg_path, "--section", s,
                                 "--point=-2.5,0,0,0.5"])
    assert code == 0
    line = out.strip().splitlines()[-1]
    p_re, p_im, q_re, q_im = map(float, line.split(","))
    code, out, _ = _run(capsys, ["invert", "--config", cfg_path, "--section", s,
                                 f"--p={p_re},{p_im}", f"--q={q_re},{q_im}"])
    assert code == 0
    t, zre, zim, theta = map(float, out.strip().splitlines()[-1].split(","))
    assert abs(t - (-2.5)) <= 1e-8
    assert (zre, zim) == (0.0, 0.0)
    assert abs(theta - 0.5) <= 1e-8



@pytest.mark.parametrize("point", ["-1e31,0.5,0", "1e31,0.5,0"])
def test_chart_out_of_float_range_exits_1(point, tmp_path, capsys):
    # the coordinate would underflow to 0 or overflow: exit 1, the typed
    # error named on stderr and nothing on stdout
    cfg = _write(tmp_path, "c.json", {"family": "power_law", "beta": 8.0, "truncation": 1024})
    s = _write(tmp_path, "s.json", {"deviations": []})
    code, out, err = _run(capsys, ["chart", "--config", cfg, "--section", s, f"--point={point}"])
    assert code == 1 and out == ""
    assert err.startswith("ModulusOutOfRange: chart log-modulus")

def test_transition(cfg_path, tmp_path, capsys):
    s1 = _write(tmp_path, "s1.json", {"deviations": []})
    s2 = _write(tmp_path, "s2.json",
                {"deviations": [{"z": [0.0, 0.0], "gap": [2, 1]}]})
    code, out, _ = _run(capsys, ["transition", "--config", cfg_path,
                                 "--section-a", s1, "--section-b", s2,
                                 "--p", "2,0", "--q", "3,0"])
    assert code == 0
    p_re, p_im, q_re, q_im = map(float, out.strip().splitlines()[-1].split(","))
    assert abs(p_re - 2.0 / 3.0) <= 1e-12 and p_im == 0.0
    assert (q_re, q_im) == (3.0, 0.0)
    # q on the divisor support: outside the overlap
    code, _, err = _run(capsys, ["transition", "--config", cfg_path,
                                 "--section-a", s1, "--section-b", s2,
                                 "--p", "2,0", "--q", "0,0"])
    assert code == 1 and "OutsideOverlap" in err


def test_isom_and_map_point(tmp_path, capsys):
    a = _write(tmp_path, "a.json", PL2)
    b = _write(tmp_path, "b.json", {"family": "power_law", "beta": 3.0,
                                    "truncation": 512})
    code, out, _ = _run(capsys, ["isom", "--config-a", a, "--config-b", b,
                                 "--disk", "10"])
    assert code == 0
    data = json.loads(out)
    assert data["isomorphic"] and data["fibers"][0]["ok"]

    two = _write(tmp_path, "two.json",
                 {"family": "finite", "centers": [[1.0, 0.0, 0.0], [4.0, 0.0, 0.0]]})
    code, out, _ = _run(capsys, ["isom", "--config-a", a, "--config-b", two])
    assert code == 1 and not json.loads(out)["isomorphic"]

    iso = _write(tmp_path, "iso.json",
                 {"config_a": PL2,
                  "config_b": {"family": "power_law", "beta": 3.0, "truncation": 512},
                  "disk": 10.0})
    code, out, _ = _run(capsys, ["map-point", "--iso", iso, "--point=-2.5,0,0,1.0"])
    assert code == 0
    t, zre, zim, theta = map(float, out.strip().splitlines()[-1].split(","))
    assert -8.0 < t < -1.0 and (zre, zim) == (0.0, 0.0)


@pytest.mark.parametrize("disk", ["nan", "-5"])
def test_disk_radius_must_be_nonnegative(disk, cfg_path, tmp_path, capsys):
    # such a disk held no fiber base: isom certified any two configurations
    # (with NaN, not valid JSON, in its manifest) and k-divisor printed an
    # empty divisor; a usage error now, before any work
    two = _write(tmp_path, "two.json",
                 {"family": "finite", "centers": [[1.0, 0.0, 0.0], [4.0, 0.0, 0.0]]})
    s1 = _write(tmp_path, "s1.json", {"deviations": []})
    s2 = _write(tmp_path, "s2.json", {"deviations": [{"z": [0.0, 0.0], "gap": [3, 2]}]})
    for argv in (["isom", "--config-a", cfg_path, "--config-b", two],
                 ["k-divisor", "--config", cfg_path, "--section-a", s1, "--section-b", s2]):
        code, out, err = _run(capsys, argv + [f"--disk={disk}"])
        assert code == 2 and not out
        assert err.startswith("usage error: --disk must be nonnegative")
    iso = _write(tmp_path, "iso.json", {"config_a": PL2, "config_b": PL2, "disk": float(disk)})
    code, out, err = _run(capsys, ["map-point", "--iso", iso, "--point=-2.5,0,0"])
    assert code == 2 and not out
    assert err.startswith("usage error: the iso file's disk must be nonnegative")


def test_isom_on_axis_base_prints_positive_zero(tmp_path, capsys):
    cfg = _write(tmp_path, "axis.json",
                 {"family": "finite", "centers": [[1.0, 0.0, 0.0], [2.0, 0.0, 1.0]]})
    code, out, _ = _run(capsys, ["isom", "--config-a", cfg, "--config-b", cfg])
    assert code == 0
    bases = [f["z"] for f in json.loads(out)["fibers"]]
    assert sorted(bases) == [[0.0, -1.0], [0.0, 0.0]]
    assert '"z": [0.0, 0.0]' in out and "-0.0" not in out


def test_growth_csv_format(tmp_path, capsys):
    code, out, _ = _run(capsys, ["growth", "--config", _write(tmp_path, "s.json", SINGLE),
                                 "--rho-min", "10", "--rho-max", "1000",
                                 "--points", "5", "--samples", "4000", "--seed", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# manifest ")
    assert lines[1] == "rho,W,logrho,logW"
    assert len(lines) == 2 + 5 + 1
    assert lines[-1].startswith("slope,")
    slope = float(lines[-1].split(",")[1])
    assert abs(slope - 4.0) <= 0.3
    # byte-identical reruns
    _, out2, _ = _run(capsys, ["growth", "--config", _write(tmp_path, "s.json", SINGLE),
                               "--rho-min", "10", "--rho-max", "1000",
                               "--points", "5", "--samples", "4000", "--seed", "3"])
    assert out2 == out


def test_growth_beta_shortcut(capsys):
    code, out, _ = _run(capsys, ["growth", "--beta", "2", "--truncation", "512",
                                 "--rho-min", "10", "--rho-max", "200",
                                 "--points", "4", "--samples", "2000", "--seed", "1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "rho,W,logrho,logW" and lines[-1].startswith("slope,")


@pytest.mark.parametrize("flag, value", [
    ("--rho-min", "-1"), ("--rho-min", "0"), ("--rho-min", "nan"), ("--rho-max", "inf"),
    ("--samples", "inf"), ("--samples", "nan"),
], ids=["rho_min_negative", "rho_min_zero", "rho_min_nan", "rho_max_inf", "samples_inf",
        "samples_nan"])
def test_growth_rejects_bad_flags(flag, value, capsys):
    # a usage error (exit 2) before any work, not a traceback or a domain error
    code, out, err = _run(capsys, ["growth", "--beta", "2", f"{flag}={value}"])
    assert code == 2 and not out
    assert err.startswith(f"usage error: {flag} must be finite")


@pytest.mark.parametrize("beta, message", [
    ("0", "must exceed 1"), ("0.5", "must exceed 1"), ("inf", "must be finite"),
    ("1e400", "must be finite"),
], ids=["0", "0.5", "inf", "1e400"])
def test_growth_rejects_a_bad_beta(beta, message, capsys):
    # --beta 0 is given, not absent: it fails the configuration check.  An
    # infinite beta would put centers 2, 3, ... all at inf.
    code, out, err = _run(capsys, ["growth", "--beta", beta, "--samples", "2000"])
    assert code == 2 and not out
    assert err.startswith(f"usage error: bad configuration: power law exponent {message}")


def test_verify_suite(capsys):
    # the suites the bench's cli workload runs
    for suite in ("core", "quotient", "isomorphism"):
        code, out, _ = _run(capsys, ["verify", "--suite", suite, "--seed", "7"])
        assert code == 0
        checks = out.strip().splitlines()[1:]
        assert checks and all(line.startswith(f"[PASS] {suite}: ") for line in checks)


def test_cli_loads_no_scipy(tmp_path):
    cfg = _write(tmp_path, "c.json", PL2)
    script = f"""
import sys
import ainfty.cli
assert ainfty.cli.main(["phi", "--config={cfg}", "--point=0.3,0.1,0"]) == 0
assert ainfty.cli.main(["flow", "--config={cfg}", "--z=0.2,0.1", "--from-t=-9",
                        "--to-t=3"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = dict(os.environ)
    src = str(Path(ainfty.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_kernel_starts_no_thread():
    # a growth-sized kernel call runs in the calling thread: nothing loads
    # concurrent.futures or starts a thread, at import or after the call
    script = """
import sys
import threading
import ainfty.cli
import numpy as np
from ainfty import config, potential
before = ("concurrent.futures" in sys.modules, threading.active_count())
t = np.linspace(-50.0, 50.0, 1000)
potential._potential_sum(config.power_law(2.0), 1024, t, np.ones_like(t))
print(before, ("concurrent.futures" in sys.modules, threading.active_count()))
"""
    env = dict(os.environ)
    src = str(Path(ainfty.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "(False, 1) (False, 1)"
