"""End-to-end tests of the command-line front end."""

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cavityflux import cli
from cavityflux.spectrum import EmptyRegion
from cavityflux.sweep import SweepConfig, run_sweep

CLI = [sys.executable, "-m", "cavityflux.cli"]


def run_cli(*args, cwd=None):
    proc = subprocess.run(CLI + list(args), capture_output=True, text=True,
                          cwd=cwd)
    return proc.returncode, proc.stdout, proc.stderr


SUBCOMMANDS = {
    "dynamics": ["--v", "--delta", "--c0-re", "--out"],
    "mcwf": ["--n-traj", "--seed", "--bin"],
    "measure": ["--eps-n"],
    "boundary": ["--delta-min", "--v-lo", "--tol", "--workers"],
    "spectrum": ["--out"],
    "classify": ["--omega-threshold", "--boundary-points", "--ground-truth",
                 "--strict"],
    "sweep": ["config_path"],
    "figures": ["figure_id"],
}


def test_help_screens():
    code, out, _ = run_cli("--help")
    assert code == 0
    for name in SUBCOMMANDS:
        assert name in out
    for name, flags in SUBCOMMANDS.items():
        code, out, _ = run_cli(name, "--help")
        assert code == 0
        for flag in flags:
            assert flag in out


def test_entry_point_installed():
    exe = shutil.which("cavityflux")
    assert exe is not None
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "dynamics" in proc.stdout


def test_no_subcommand_is_usage_error():
    code, _, err = run_cli()
    assert code == 2
    assert "usage" in err.lower()


def test_dynamics(tmp_path):
    out = tmp_path / "dyn"
    code, stdout, _ = run_cli("dynamics", "--v", "1", "--delta", "0",
                              "--out", str(out))
    assert code == 0
    assert "non-Markovian" in stdout
    assert "4 revival interval(s)" in stdout
    for name in ("amplitudes.csv", "population.csv", "flux.csv"):
        assert (out / name).exists()
    pop = np.genfromtxt(out / "population.csv", delimiter=",", names=True)
    assert pop.dtype.names == ("t", "population")
    assert pop["population"][0] == 1.0


def test_dynamics_missing_flag():
    code, _, err = run_cli("dynamics", "--delta", "0")
    assert code == 2
    assert "--v" in err


def test_dynamics_zero_coupling(tmp_path):
    out = tmp_path / "dyn"
    code, stdout, _ = run_cli("dynamics", "--v", "0", "--delta", "1",
                              "--out", str(out))
    assert code == 0
    assert "N = 0 (Markovian), 0 revival interval(s)" in stdout
    flux = np.genfromtxt(out / "flux.csv", delimiter=",", names=True)
    assert np.all(flux["flux"] == 0.0)


def test_dynamics_partial_initial_state(tmp_path):
    out = tmp_path / "dyn"
    code, stdout, _ = run_cli("dynamics", "--v", "1", "--delta", "0",
                              "--c0-re", "0.5", "--out", str(out))
    assert code == 0
    assert "N =" not in stdout        # measure needs c(0) = 1
    assert (out / "amplitudes.csv").exists()


def test_invalid_gamma_is_usage_error():
    code, _, err = run_cli("measure", "--v", "1", "--delta", "0",
                           "--gamma", "0")
    assert code == 2
    assert "gamma" in err


@pytest.mark.parametrize("argv, flag", [
    (["measure", "--v", "1", "--delta", "0", "--dt", "0"], "dt"),
    (["measure", "--v", "1", "--delta", "0", "--dt=-1e-3"], "dt"),
    (["spectrum", "--v", "1", "--delta", "0", "--dt", "0",
      "--out", "{tmp}/s.csv"], "dt"),
    (["boundary", "--dt", "0", "--delta-count", "2",
      "--out", "{tmp}/b.csv"], "dt"),
    (["boundary", "--gamma", "0", "--delta-count", "2",
      "--out", "{tmp}/b.csv"], "gamma"),
], ids=["measure-dt", "measure-negative-dt", "spectrum-dt", "boundary-dt",
        "boundary-gamma"])
def test_nonpositive_step_or_rate_is_usage_error(argv, flag, tmp_path,
                                                 capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([a.format(tmp=tmp_path) for a in argv])
    assert info.value.code == 2
    assert f"--{flag} must be finite and > 0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_mcwf_reproducible(tmp_path):
    args = ["mcwf", "--v", "1", "--delta", "0", "--n-traj", "60",
            "--seed", "3"]
    code, stdout, _ = run_cli(*args, "--out", str(tmp_path / "a"))
    assert code == 0
    assert "jumps:" in stdout
    code, _, _ = run_cli(*args, "--out", str(tmp_path / "b"))
    assert code == 0
    for name in ("jumps.csv", "flux_estimate.csv", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["n_traj"] == 60
    assert manifest["master_seed"] == 3


def test_mcwf_default_seed_warns(tmp_path):
    code, _, err = run_cli("mcwf", "--v", "1", "--delta", "0",
                           "--n-traj", "5", "--out", str(tmp_path / "m"))
    assert code == 0
    assert "defaulting to 0" in err


def test_mcwf_rejects_empty_ensemble(tmp_path):
    code, _, err = run_cli("mcwf", "--v", "1", "--delta", "0",
                           "--n-traj", "0", "--out", str(tmp_path / "m"))
    assert code == 2
    assert "n-traj" in err


def test_mcwf_rejects_negative_seed(tmp_path):
    code, _, err = run_cli("mcwf", "--v", "1", "--delta", "0",
                           "--n-traj", "5", "--seed", "-3",
                           "--out", str(tmp_path / "m"))
    assert code == 2
    assert "--seed must be finite and >= 0, got -3" in err


def test_measure_json():
    code, stdout, _ = run_cli("measure", "--v", "1", "--delta", "0")
    assert code == 0
    data = json.loads(stdout)
    assert data["n_value"] == pytest.approx(0.245642, abs=1e-4)
    assert data["is_nonmarkovian"] is True
    assert len(data["revival_intervals"]) == 4
    code, stdout, _ = run_cli("measure", "--v", "0.5", "--delta", "1")
    data = json.loads(stdout)
    assert data["n_value"] == 0.0
    assert data["is_nonmarkovian"] is False


def test_measure_gamma_invariance():
    # flags are in units of gamma, so the dimensionless measure must not
    # depend on the absolute rate; times scale with 1/gamma
    _, out1, _ = run_cli("measure", "--v", "1", "--delta", "0")
    _, out2, _ = run_cli("measure", "--v", "1", "--delta", "0",
                         "--gamma", "2")
    d1, d2 = json.loads(out1), json.loads(out2)
    assert d2["n_value"] == pytest.approx(d1["n_value"], rel=1e-9)
    assert d2["t_max"] == pytest.approx(d1["t_max"] / 2.0)
    assert d2["revival_intervals"][0][1] == pytest.approx(
        d1["revival_intervals"][0][1] / 2.0, rel=1e-6)
    # at gamma = 1e200, 16 V^2 overflowed and the run exited 1
    code, out3, err = run_cli("measure", "--v", "1", "--delta", "0",
                              "--gamma", "1e200")
    assert code == 0, err
    assert json.loads(out3)["n_value"] == pytest.approx(d1["n_value"],
                                                        rel=1e-12)


def test_measure_cli_at_the_foot_of_float_range(capsys):
    # at gamma = 1e-307 the revival endpoints lie near 1.4e308, where the
    # halvings' (lo + hi) / 2 overflowed: N read NaN, the verdict
    # Markovian, and the exit code 0
    argv = ["measure", "--v", "1", "--delta", "0.3"]
    assert cli.main(argv) == 0
    unit = json.loads(capsys.readouterr().out)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(argv + ["--gamma", "1e-307"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["is_nonmarkovian"] is True
    assert data["n_value"] == pytest.approx(unit["n_value"], rel=1e-9)


def test_measure_cli_names_a_splitting_beyond_float_range(capsys):
    # a numerical failure, exit 1, with a message that says what to lower
    argv = ["measure", "--v", "1", "--delta", "0.3", "--gamma", "5e307"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "|d|/gamma = 3.925" in err
    assert "lower --gamma (gamma) below about 4.58e+307" in err
    assert "math range error" not in err


def test_boundary_cli(tmp_path):
    out = tmp_path / "boundary.csv"
    code, stdout, _ = run_cli("boundary", "--delta-min", "0",
                              "--delta-max", "0", "--delta-count", "1",
                              "--out", str(out))
    assert code == 0
    assert "1 detunings, 0 unbracketed" in stdout
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert data["v_c"] == pytest.approx(0.25, abs=0.005)


def test_boundary_cli_pool_writes_the_same_bytes(tmp_path):
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"boundary-{workers}.csv"
        code, _, err = run_cli("boundary", "--delta-count", "17",
                               "--t-max", "20", "--workers", workers,
                               "--out", str(out))
        assert code == 0, err
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def _boundary_in_units_of_gamma(gamma, out):
    """cavityflux boundary at 3 detunings and --gamma gamma, in process:
    (V_c / gamma per detuning, [(delta / gamma, kind)] of the unbracketed
    lines, the summary line without the path)."""
    argv = ["boundary", "--gamma", repr(gamma), "--delta-count", "3",
            "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert cli.main(argv) == 0
    *lines, summary = stdout.getvalue().splitlines()
    unbracketed = []
    for line in lines:
        delta, kind = re.fullmatch(r"unbracketed at delta=(\S+): (\w+)",
                                   line).groups()
        unbracketed.append((float(delta) / gamma, kind))
    v_c = np.genfromtxt(out, delimiter=",", names=True)["v_c"]
    return v_c / gamma, unbracketed, summary.replace(str(out), "")


@settings(max_examples=20, deadline=None)
@given(log_gamma=st.floats(-12.0, 3.0))
def test_boundary_cli_is_gamma_invariant(log_gamma, tmp_path_factory):
    # the flags are in units of gamma: V_c / gamma within rounding of
    # --gamma 1, and the same detunings unbracketed, of the same kind
    out = tmp_path_factory.mktemp("boundary") / "boundary.csv"
    v_c, unbracketed, summary = _boundary_in_units_of_gamma(
        10.0 ** log_gamma, out)
    v_ref, unbracketed_ref, summary_ref = _boundary_in_units_of_gamma(
        1.0, out)
    assert_allclose(v_c, v_ref, rtol=1e-14, atol=0)
    assert [kind for _, kind in unbracketed] == \
        [kind for _, kind in unbracketed_ref]
    assert_allclose([delta for delta, _ in unbracketed],
                    [delta for delta, _ in unbracketed_ref], rtol=1e-5)
    assert summary == summary_ref


# columns of the dynamics and mcwf files in units of 1/gamma and of gamma
_TIME_COLUMNS, _RATE_COLUMNS = ("t", "jump_time"), ("flux",)


def _cli_in_units_of_gamma(gamma, out, *argv):
    """cavityflux argv at --gamma gamma, in process: each CSV of the
    output directory as {column: values in units of gamma}, and standard
    output without the path."""
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert cli.main([*argv, "--gamma", repr(gamma), "--out",
                         str(out)]) == 0
    tables = {}
    for path in sorted(out.glob("*.csv")):
        data = np.genfromtxt(path, delimiter=",", names=True)
        tables[path.name] = {
            name: data[name] * (gamma if name in _TIME_COLUMNS else
                                1.0 / gamma if name in _RATE_COLUMNS else 1.0)
            for name in data.dtype.names}
    return tables, stdout.getvalue().replace(str(out), "")


@settings(max_examples=6, deadline=None)
@given(log_gamma=st.floats(-6.0, 6.0))
@pytest.mark.parametrize("argv", [
    ["dynamics", "--v", "1", "--delta", "0.5", "--t-max", "4"],
    ["mcwf", "--v", "1", "--delta", "0.5", "--n-traj", "2000", "--seed", "3"],
], ids=["dynamics", "mcwf"])
def test_dynamics_and_mcwf_cli_are_gamma_invariant(argv, log_gamma,
                                                   tmp_path_factory):
    # the flags are in units of gamma: every column within rounding of
    # --gamma 1, the same NaN pattern of the jump times, the same lines
    gamma = 10.0 ** log_gamma
    tables, stdout = _cli_in_units_of_gamma(
        gamma, tmp_path_factory.mktemp(argv[0]), *argv)
    tables_ref, stdout_ref = _cli_in_units_of_gamma(
        1.0, tmp_path_factory.mktemp(argv[0]), *argv)
    assert tables.keys() == tables_ref.keys()
    for name, columns in tables_ref.items():
        for column, ref in columns.items():
            assert_allclose(tables[name][column], ref, rtol=1e-12,
                            atol=1e-12 * np.nanmax(np.abs(ref)),
                            err_msg=f"{name}:{column}")
    # the residuals' rms is a rate; the jump count is not
    assert stdout.split(";")[0] == stdout_ref.split(";")[0]
    if argv[0] == "dynamics":
        assert stdout == stdout_ref


def test_spectrum_cli(tmp_path):
    out = tmp_path / "spec.csv"
    code, stdout, _ = run_cli("spectrum", "--v", "2", "--delta", "2",
                              "--out", str(out))
    assert code == 0
    assert "omega_peak = 4.36772" in stdout
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert data.dtype.names == ("omega", "power")


@pytest.mark.parametrize("gamma, line", [
    ("1", "omega_peak = 1.92118, "), ("1e-4", "omega_peak = 0.000192118, ")])
def test_spectrum_cli_peak_at_a_subnormal_power(gamma, line, tmp_path,
                                                 capsys):
    # the flux power goes as gamma^2 V^4 and is subnormal here; the line
    # is read free of that scale, so it is 1.92118 gamma at every gamma
    # (the scaled power's peak read 1.79507 gamma at gamma = 1e-4)
    assert cli.main(["spectrum", "--v", "9.95e-81", "--delta", "2",
                     "--gamma", gamma, "--out", str(tmp_path / "s.csv")]) == 0
    assert capsys.readouterr().out.startswith(line)


def test_spectrum_cli_no_signal(tmp_path):
    out = tmp_path / "spec.csv"
    code, stdout, _ = run_cli("spectrum", "--v", "0", "--delta", "0",
                              "--out", str(out))
    assert code == 0
    assert "no signal" in stdout
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert not data["power"].any()


@pytest.mark.parametrize("argv, largest", [
    (["measure", "--v", "3141.6"], "0.000125"),
    (["spectrum", "--v", "1600", "--out", "{tmp}/s.csv"], "0.000981748"),
], ids=["measure", "spectrum"])
def test_unresolved_dt_is_named_in_flag_units(argv, largest, tmp_path):
    # --v and --dt are in units of gamma and 1/gamma, and so is the bound
    # on dt that the refusal names; in absolute units it is 10x smaller
    code, _, err = run_cli(*(a.format(tmp=tmp_path) for a in argv),
                           "--delta", "0", "--gamma", "10")
    assert code == 2
    assert (f"--dt must be < {largest} to resolve the oscillation at "
            f"V = {argv[2]}, delta = 0, got 0.001") in err
    assert not list(tmp_path.iterdir())


def test_classify_cli():
    code, stdout, _ = run_cli("classify", "--v", "2", "--delta", "2",
                              "--omega-threshold", "1.817")
    assert code == 0
    verdict = json.loads(stdout)
    assert verdict["label"] == "NonMarkovianDetected"
    assert verdict["omega_peak"] == pytest.approx(4.3677, abs=1e-3)


def test_classify_ground_truth():
    code, stdout, _ = run_cli("classify", "--v", "0.9", "--delta", "0",
                              "--omega-threshold", "1.817",
                              "--ground-truth")
    assert code == 0
    verdict = json.loads(stdout)
    assert verdict["label"] == "NonMarkovianUndetectable"
    assert verdict["n_value"] > 0.1


def test_classify_weak_flux_point():
    code, stdout, _ = run_cli("classify", "--v", "0.3", "--delta", "1.7",
                              "--omega-threshold", "1.8")
    assert code == 0
    assert json.loads(stdout)["label"] == "MarkovianConsistent"


def test_classify_strict_zero_flux():
    code, stdout, _ = run_cli("classify", "--v", "0", "--delta", "0",
                              "--omega-threshold", "1.8", "--strict")
    assert code == 1
    verdict = json.loads(stdout)
    assert verdict["label"] == "MarkovianConsistent"
    assert verdict["note"] == "zero flux"


def test_classify_auto_threshold():
    # without --omega-threshold the threshold is the boundary's
    code, stdout, _ = run_cli("classify", "--v", "2", "--delta", "2",
                              "--boundary-points", "5")
    assert code == 0
    verdict = json.loads(stdout)
    assert verdict["label"] == "NonMarkovianDetected"
    assert 0.4 < verdict["omega_threshold"] < 2.2


def test_auto_threshold_gamma_invariance(capsys):
    # Omega_M / gamma from both auto-threshold paths, in units of gamma
    tol_v = 1e-3
    sweep_omega, classify_omega = {}, {}
    for gamma in (1.0, 10.0):
        config = SweepConfig(v_min=0.05 * gamma, v_max=1.2 * gamma,
                             v_count=3, delta_min=0.0, delta_max=2.0 * gamma,
                             delta_count=5, t_max=14.0 / gamma,
                             dt=1e-3 / gamma, gamma=gamma)
        sweep_omega[gamma] = run_sweep(config).omega_threshold / gamma
        assert cli.main(["classify", "--v", "2", "--delta", "2",
                         "--gamma", str(gamma)]) == 0
        verdict = json.loads(capsys.readouterr().out)
        classify_omega[gamma] = verdict["omega_threshold"] / gamma
    assert sweep_omega[10.0] == pytest.approx(sweep_omega[1.0], abs=tol_v)
    assert classify_omega[10.0] == pytest.approx(classify_omega[1.0],
                                                 abs=tol_v)


def _raises(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("exc_type, patched, argv", [
    (EmptyRegion, ("markovian_boundary", "threshold_frequency"),
     ["classify", "--v", "2", "--delta", "2"]),
], ids=["EmptyRegion"])
def test_numerical_failure_exits_1(exc_type, patched, argv, monkeypatch,
                                   capsys):
    for name in patched:
        monkeypatch.setattr(cli, name, _raises(exc_type("no usable result")))
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: no usable result\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("gamma", ["1e-155", "1e152"])
def test_spectrum_out_of_float_range_exits_1(gamma, tmp_path, capsys):
    # the flux power grows as gamma^2 and leaves float range beyond
    # gamma = 1e-152 .. 1e150: a numerical failure, with no CSV written
    assert cli.main(["spectrum", "--v", "2", "--delta", "2", "--gamma",
                     gamma, "--out", str(tmp_path / "s.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.iterdir())


def test_plain_value_error_is_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(cli, "analytic_spectrum",
                        _raises(ValueError("bad input")))
    with pytest.raises(SystemExit) as info:
        cli.main(["spectrum", "--v", "2", "--delta", "2", "--out", "-"])
    assert info.value.code == 2
    assert "bad input" in capsys.readouterr().err


def test_config_file_precedence(tmp_path):
    config = tmp_path / "point.json"
    config.write_text(json.dumps({"v": 0.2, "delta": 0.0}))
    _, stdout, _ = run_cli("measure", "--config", str(config))
    assert json.loads(stdout)["is_nonmarkovian"] is False
    # explicit flags win over the config file
    _, stdout, _ = run_cli("measure", "--config", str(config), "--v", "1")
    assert json.loads(stdout)["is_nonmarkovian"] is True


def test_null_config_value_means_not_given(tmp_path):
    config = tmp_path / "null.json"
    config.write_text(json.dumps({"dt": None}))
    code, by_config, err = run_cli("measure", "--v", "1", "--delta", "0",
                                   "--config", str(config))
    assert code == 0, err
    assert by_config == run_cli("measure", "--v", "1", "--delta", "0")[1]
    config.write_text(json.dumps({"delta_count": None}))
    code, stdout, err = run_cli("boundary", "--config", str(config),
                                "--t-max", "20",
                                "--out", str(tmp_path / "b.csv"))
    assert code == 0, err
    assert "41 detunings" in stdout


def test_measure_at_small_gamma_ends():
    # in its own interpreter, since at gamma = 1e-7 the revival endpoints
    # pass t ~ 4.5e7, where a bisection that stopped on the bracket width
    # never returned
    argv = ["measure", "--v", "1", "--delta", "0.3"]
    proc = subprocess.run(CLI + argv + ["--gamma", "1e-7"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    unit = json.loads(run_cli(*argv)[1])["n_value"]
    assert json.loads(proc.stdout)["n_value"] == pytest.approx(unit,
                                                               rel=1e-12)


def test_omega_threshold_in_units_of_gamma(capsys):
    # the threshold is a frequency, so --gamma rescales it like --v
    labels = set()
    for gamma in (0.5, 1.0, 10.0):
        assert cli.main(["classify", "--v", "1.2", "--delta", "-1.5",
                         "--omega-threshold", "1.817", "--ground-truth",
                         "--gamma", str(gamma)]) == 0
        verdict = json.loads(capsys.readouterr().out)
        labels.add(verdict["label"])
        assert verdict["omega_threshold"] / gamma == pytest.approx(
            1.817, rel=1e-15)
    assert len(labels) == 1


# one invocation per subcommand as flag -> value; True is a bare switch
PARITY = {
    "dynamics": {"v": 1, "delta": 0.5, "c0_re": 0.6, "c0_im": 0.3,
                 "t_max": 10, "dt": 0.002, "out": "run"},
    "mcwf": {"v": 1, "delta": 0, "n_traj": 200, "seed": 3, "bin": 0.5,
             "out": "run"},
    "measure": {"v": 1, "delta": 0, "eps_n": 0.5, "t_max": 20},
    "boundary": {"delta_min": 0, "delta_max": 1, "delta_count": 3,
                 "v_lo": 0.1, "v_hi": 1, "tol": 0.01, "t_max": 100,
                 "dt": 0.02, "workers": 1, "out": "b.csv"},
    "spectrum": {"v": 2, "delta": 2, "out": "s.csv"},
    "classify": {"v": 0, "delta": 0, "omega_threshold": 1.8,
                 "strict": True},
    "classify-auto": {"v": 0.9, "delta": 0,
                      "boundary_points": 3, "ground_truth": True,
                      "min_prominence": 0.1},
}


def _run_in(path, argv, monkeypatch, capsys):
    path.mkdir()
    monkeypatch.chdir(path)
    code = cli.main(argv)
    out, err = capsys.readouterr()
    files = {str(f.relative_to(path)): f.read_bytes()
             for f in sorted(path.rglob("*")) if f.is_file()}
    return code, out, err, files


@pytest.mark.parametrize("case", sorted(PARITY))
def test_config_matches_flags(case, tmp_path, monkeypatch, capsys):
    command = case.split("-")[0]
    values = {**PARITY[case], "gamma": 2.5}
    flags = []
    for key, value in values.items():
        flags.append("--" + key.replace("_", "-"))
        if value is not True:
            flags.append(str(value))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    by_flags = _run_in(tmp_path / "flags", [command] + flags, monkeypatch,
                       capsys)
    by_config = _run_in(tmp_path / "config", [command, "--config",
                                              str(config)],
                        monkeypatch, capsys)
    assert by_config == by_flags
    if command not in ("measure", "classify"):
        assert by_flags[3]          # the output files, under --out


def test_sweep_cli(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "v_min": 0.1, "v_max": 1.0, "v_count": 2,
        "delta_min": 0.0, "delta_max": 1.0, "delta_count": 2,
        "omega_threshold": 1.817}))
    code, stdout, _ = run_cli("sweep", str(config),
                              "--out", str(tmp_path / "a"))
    assert code == 0
    assert "swept 4 cells" in stdout
    code, _, _ = run_cli("sweep", str(config), "--out", str(tmp_path / "b"))
    assert code == 0
    for name in ("manifest.json", "cells.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_sweep_cli_out_dir_key(tmp_path):
    # the config's out_dir names the output directory; --out wins over it
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "v_min": 0.5, "v_max": 0.5, "v_count": 1,
        "delta_min": 0.0, "delta_max": 0.0, "delta_count": 1,
        "omega_threshold": 1.817, "out_dir": str(tmp_path / "key")}))
    code, _, _ = run_cli("sweep", str(config), "--out", str(tmp_path / "flag"))
    assert code == 0
    assert (tmp_path / "flag" / "cells.csv").is_file()
    assert not (tmp_path / "key").exists()
    code, _, _ = run_cli("sweep", str(config))
    assert code == 0
    assert (tmp_path / "key" / "cells.csv").is_file()


def test_sweep_cli_reports_cell_errors(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "v_min": -0.1, "v_max": 0.2, "v_count": 2,
        "delta_min": 0.0, "delta_max": 0.0, "delta_count": 1,
        "omega_threshold": 1.817}))
    code, _, err = run_cli("sweep", str(config),
                           "--out", str(tmp_path / "out"))
    assert code == 1
    assert "failed" in err


def test_sweep_cli_rejects_bad_config(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"v_min": 0.1}))
    code, _, err = run_cli("sweep", str(config),
                           "--out", str(tmp_path / "out"))
    assert code == 2
    assert "invalid sweep config" in err


@pytest.mark.parametrize("field,value", [("gamma", 0), ("n_traj", -5),
                                         ("dt", 0), ("bin_width", 0),
                                         ("bin_width", 15)])
def test_sweep_cli_rejects_bad_physics(tmp_path, field, value):
    # the bin width only matters to sampled flux
    sampled = {"n_traj": 10, "master_seed": 1} if field == "bin_width" else {}
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "v_min": 0.1, "v_max": 1.0, "v_count": 2,
        "delta_min": 0.0, "delta_max": 1.0, "delta_count": 2,
        "omega_threshold": 1.817, field: value, **sampled}))
    code, _, err = run_cli("sweep", str(config),
                           "--out", str(tmp_path / "out"))
    assert code == 2
    assert f"{field} must be" in err
    assert not (tmp_path / "out").exists()


def test_figures_cli(tmp_path):
    code, _, err = run_cli("figures", "9", "--out", str(tmp_path / "f"))
    assert code == 2
    out = tmp_path / "fig1"
    code, stdout, _ = run_cli("figures", "1", "--out", str(out))
    assert code == 0
    assert "wrote 13 files" in stdout
    assert (out / "population_v1_d0.csv").exists()
    assert (out / "plot_figures.py").exists()
