"""The input contract: every entry point rejects a non-finite or
out-of-range float, an empty grid or a negative seed with a ValueError
naming the field, and the CLI exits 2 on it without writing output."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityflux import cli
from cavityflux.dynamics import (FluxSeries, ModelParams, require_finite,
                                 time_grid)
from cavityflux.nonmarkov import (BoundaryCurve, markovian_boundary,
                                  nm_measure, resolve_workers, sign_map)
from cavityflux.spectrum import classify, dft, threshold_frequency
from cavityflux.sweep import SweepConfig, figure_datasets
from cavityflux.trajectories import estimate_flux, sample_jump_times

NAN, INF = float("nan"), float("inf")
GRID = dict(v_min=0.05, v_max=1.2, v_count=2, delta_min=0.0, delta_max=2.0,
            delta_count=2, omega_threshold=1.817)
POINT = ["--v", "1", "--delta", "0"]
PARAMS = ModelParams(v=1.0, delta=0.0)
# a resonant column with V_c = 0.25
CURVE = BoundaryCurve(deltas=np.array([0.0]), v_c=np.array([0.25]),
                      unbracketed=[], v_search=(0.05, 1.2), tol_v=1e-3,
                      gamma=1.0, t_max=300.0, dt=1e-2)

LIBRARY = {
    "params-v": ("v", lambda: ModelParams(v=NAN, delta=0.0)),
    "params-delta": ("delta", lambda: ModelParams(v=1.0, delta=INF)),
    "params-gamma": ("gamma", lambda: ModelParams(v=1.0, delta=0.0,
                                                  gamma=NAN)),
    "params-t_max": ("t_max", lambda: ModelParams(v=1.0, delta=0.0,
                                                  t_max=INF)),
    "params-c0": ("c0_init", lambda: ModelParams(v=1.0, delta=0.0,
                                                 c0_init=complex(NAN, 0.0))),
    "boundary-gamma": ("gamma", lambda: markovian_boundary([0.0],
                                                           gamma=NAN)),
    "boundary-v_search": ("v_search", lambda: markovian_boundary(
        [0.0], v_search=(0.05, INF))),
    "boundary-tol-nan": ("tol_v", lambda: markovian_boundary([0.0],
                                                             tol_v=NAN)),
    "boundary-t_max": ("t_max", lambda: markovian_boundary([0.0],
                                                           t_max=INF)),
    "boundary-dt": ("dt", lambda: markovian_boundary([0.0], dt=NAN)),
    "boundary-deltas": ("deltas", lambda: markovian_boundary([0.0, NAN])),
    "sweep-v_min": ("v_min", lambda: SweepConfig(**{**GRID, "v_min": NAN})),
    "sweep-delta_max": ("delta_max", lambda: SweepConfig(
        **{**GRID, "delta_max": INF})),
    "sweep-gamma": ("gamma", lambda: SweepConfig(**GRID, gamma=NAN)),
    "sweep-t_max": ("t_max", lambda: SweepConfig(**GRID, t_max=INF)),
    "sweep-bin_width": ("bin_width", lambda: SweepConfig(**GRID,
                                                         bin_width=NAN)),
    "sweep-min_prominence": ("min_prominence", lambda: SweepConfig(
        **GRID, min_prominence=NAN)),
    "sweep-eps_n": ("eps_n", lambda: SweepConfig(**GRID, eps_n=INF)),
    "sweep-omega_threshold": ("omega_threshold", lambda: SweepConfig(
        **{**GRID, "omega_threshold": NAN})),
    "classify-nan": ("omega_threshold", lambda: classify(
        ModelParams(v=1.0, delta=0.0), NAN)),
    "classify-negative": ("omega_threshold", lambda: classify(
        ModelParams(v=1.0, delta=0.0), -1.0)),
    "estimate-bin": ("bin_width", lambda: estimate_flux(
        ModelParams(v=1.0, delta=0.0), 10, bin_width=NAN)),
    "grid-t_max": ("t_max", lambda: time_grid(INF, 1e-3)),
    "measure-dt-zero": ("dt", lambda: nm_measure(PARAMS, 0.0)),
    # the input rule comes before the resolution rule
    "measure-dt-nan": ("dt must be finite", lambda: nm_measure(PARAMS, NAN)),
    "classify-dt": ("dt", lambda: classify(PARAMS, 1.8, dt=0.0)),
    "jumps-dt": ("dt", lambda: sample_jump_times(PARAMS, 10, 1, dt=0.0)),
    "sign_map-dt": ("dt", lambda: sign_map("v", 1.0, [0.5], dt=0.0)),
    "boundary-deltas-empty": ("deltas", lambda: markovian_boundary([])),
    "boundary-deltas-scalar": ("deltas", lambda: markovian_boundary(0.5)),
    "boundary-deltas-2d": ("deltas",
                           lambda: markovian_boundary([[0.0, 1.0]])),
    "sweep-master_seed": ("master_seed", lambda: SweepConfig(
        **GRID, n_traj=10, master_seed=-3)),
    "sweep-v_count-float": ("v_count", lambda: SweepConfig(
        **{**GRID, "v_count": 2.0})),
    "sweep-delta_count-float": ("delta_count", lambda: SweepConfig(
        **{**GRID, "delta_count": 2.0})),
    "sweep-n_traj-float": ("n_traj", lambda: SweepConfig(
        **GRID, n_traj=10.5, master_seed=1)),
    "sweep-master_seed-float": ("master_seed", lambda: SweepConfig(
        **GRID, n_traj=10, master_seed=1.5)),
    # a sampled flux of one bin has no spectrum
    "sweep-bin_width-one-bin": ("bin_width", lambda: SweepConfig(
        **GRID, n_traj=10, master_seed=1, bin_width=10.0)),
    "classify-one-bin": ("flux", lambda: classify(
        PARAMS, 1.8, flux=estimate_flux(PARAMS, 10, bin_width=14.0,
                                        master_seed=1))),
    "classify-min_prominence": ("min_prominence", lambda: classify(
        PARAMS, 1.8, min_prominence=NAN)),
    "classify-eps_n": ("eps_n", lambda: classify(PARAMS, 1.8, eps_n=NAN,
                                                  ground_truth=True)),
    "dft-dt-nan": ("dt", lambda: dft(np.ones(4), NAN)),
    "dft-dt-negative": ("dt", lambda: dft(np.ones(4), -1.0)),
    "dft-dt-zero": ("dt", lambda: dft(np.ones(4), 0.0)),
    # one non-finite sample would make every bin NaN
    "dft-flux-nan": ("flux", lambda: dft(np.array([1.0, NAN, 2.0]), 0.1)),
    "dft-flux-inf": ("flux", lambda: dft(np.array([1.0, INF, 2.0]), 0.1)),
    "classify-flux-nan": ("flux", lambda: classify(PARAMS, 1.8, flux=(
        FluxSeries(np.arange(3) * 0.1, np.array([1.0, NAN, 2.0]))))),
    "classify-flux-inf": ("flux", lambda: classify(PARAMS, 1.8, flux=(
        FluxSeries(np.arange(3) * 0.1, np.array([1.0, INF, 2.0]))))),
    "sweep-workers-float": ("workers", lambda: SweepConfig(**GRID,
                                                           workers=2.5)),
    # a bool is never a number, and an integer field takes only integers
    "sweep-v_count-bool": ("v_count", lambda: SweepConfig(
        **{**GRID, "v_count": True})),
    "sweep-master_seed-bool": ("master_seed", lambda: SweepConfig(
        **GRID, n_traj=10, master_seed=True)),
    "sweep-workers-bool": ("workers", lambda: SweepConfig(**GRID,
                                                          workers=True)),
    "params-v-bool": ("v", lambda: ModelParams(v=True, delta=0.0)),
    "grid-dt-bool": ("dt", lambda: time_grid(14.0, True)),
    "boundary-workers-bool": ("workers", lambda: markovian_boundary(
        [0.0], workers=True)),
    "classify-min_prominence-bool": ("min_prominence", lambda: classify(
        PARAMS, 1.8, min_prominence=True)),
    "jumps-n_traj-float": ("n_traj must be an integer, got 2.5",
                           lambda: sample_jump_times(PARAMS, 2.5, 1)),
    "jumps-n_traj-bool": ("n_traj", lambda: sample_jump_times(PARAMS, True,
                                                              1)),
    "jumps-master_seed-bool": ("master_seed", lambda: sample_jump_times(
        PARAMS, 10, True)),
    "jumps-master_seed-float": ("master_seed", lambda: sample_jump_times(
        PARAMS, 10, 1.5)),
    "estimate-n_traj-float": ("n_traj", lambda: estimate_flux(PARAMS, 2.5,
                                                              0.1, 1)),
    "estimate-bin-bool": ("bin_width", lambda: estimate_flux(
        PARAMS, 10, bin_width=True, master_seed=1)),
    "boundary-deltas-bool": ("deltas", lambda: markovian_boundary(
        [True, False], t_max=20.0)),
    "sign_map-param_values-bool": ("param_values", lambda: sign_map(
        "v", 1.0, [True])),
    # nor inside a list that np.asarray reads as floats
    "boundary-deltas-mixed-bool": ("deltas must be numbers", lambda: (
        markovian_boundary([True, 0.5], t_max=20.0))),
    "sign_map-param_values-mixed-bool": ("param_values must be numbers",
                                         lambda: sign_map("v", 1.0,
                                                          [0.5, np.True_])),
    "threshold-v_grid-mixed-bool": ("v_grid must be numbers", lambda: (
        threshold_frequency(CURVE, v_grid=[True, 0.5]))),
    "params-c0-bool": ("c0_init", lambda: ModelParams(v=1.0, delta=0.0,
                                                      c0_init=True)),
    "params-c0-np-bool": ("c0_init", lambda: ModelParams(
        v=1.0, delta=0.0, c0_init=np.True_)),
    # a string or a complex is not a number either
    "params-v-str": ("v must be a number, got '1'", lambda: ModelParams(
        v="1", delta=0.0)),
    "params-delta-complex": ("delta", lambda: ModelParams(v=1.0, delta=1j)),
    "params-c0-str": ("c0_init", lambda: ModelParams(v=1.0, delta=0.0,
                                                     c0_init="1")),
    "boundary-deltas-str": ("deltas", lambda: markovian_boundary(
        ["0.5"], t_max=20.0)),
    "boundary-deltas-complex": ("deltas", lambda: markovian_boundary(
        [0.5 + 0j], t_max=20.0)),
    "sign_map-param_values-str": ("param_values", lambda: sign_map(
        "v", 0.0, ["0.5"])),
    "sign_map-param_values-complex": ("param_values", lambda: sign_map(
        "v", 0.0, [0.5 + 0j])),
    # threshold_frequency's grid: finite, 1-D, numbers, none below 0
    **{f"threshold-v_grid-{key}": ("v_grid", lambda grid=grid: (
        threshold_frequency(CURVE, v_grid=grid)))
       for key, grid in (("-inf", [-INF]), ("negative", [-5.0]),
                         ("nan", [NAN, 0.1]), ("2d", [[0.1, 0.2]]),
                         ("str", ["0.1"]), ("bool", [True, False]))},
}

# the sweep configs that the CLI rows read, one bad field each; a key
# names the field, then any suffix after a dash
SWEEP_CONFIGS = {
    "master_seed": {**GRID, "n_traj": 10, "master_seed": -3},
    "v_count": {**GRID, "v_count": 2.0},
    "n_traj": {**GRID, "n_traj": 10.5, "master_seed": 1},
    "master_seed-float": {**GRID, "n_traj": 10, "master_seed": 1.5},
    "bin_width": {**GRID, "n_traj": 10, "master_seed": 1, "bin_width": 10.0},
    "workers": {**GRID, "workers": 2.5},
    "v_count-bool": {**GRID, "v_count": True},
    "v_min-str": {**GRID, "v_min": "0.1"},
}

# each runs in its own interpreter, since a zero or negative tolerance
# once never returned (so library calls take only a NaN one); {tmp} is
# the test's directory, which holds the configs cfg.json and
# sweep-<key>.json for each key of SWEEP_CONFIGS
COMMAND_LINE = {
    "boundary-tol-zero": ("--tol", ["boundary", "--delta-count", "2",
                                    "--tol", "0", "--out", "{tmp}/b.csv"]),
    "boundary-tol-negative": ("--tol", ["boundary", "--delta-count", "2",
                                        "--tol=-1", "--out", "{tmp}/b.csv"]),
    "boundary-tol-nan": ("--tol", ["boundary", "--delta-count", "2",
                                   "--tol", "nan", "--out", "{tmp}/b.csv"]),
    "dynamics-v": ("--v", ["dynamics", "--v", "nan", "--delta", "0",
                           "--out", "{tmp}/dyn"]),
    "measure-v": ("--v", ["measure", "--v", "nan", "--delta", "0"]),
    "spectrum-delta": ("--delta", ["spectrum", "--v", "1", "--delta", "nan",
                                   "--out", "{tmp}/s.csv"]),
    "classify-threshold": ("--omega-threshold", ["classify", *POINT,
                                                 "--omega-threshold", "nan"]),
    "mcwf-bin": ("--bin", ["mcwf", *POINT, "--n-traj", "10", "--bin", "nan",
                           "--out", "{tmp}/mc"]),
    # bounded flags are checked before --gamma scales them
    "measure-v-negative": ("--v must be finite and >= 0, got -1.0", [
        "measure", "--v=-1", "--delta", "0", "--gamma", "10"]),
    "mcwf-bin-negative": ("--bin must be finite and > 0, got -1.0", [
        "mcwf", *POINT, "--n-traj", "10", "--bin=-1", "--gamma", "10",
        "--out", "{tmp}/mc"]),
    # so are the flags checked against each other
    "boundary-v-hi": ("--v-hi must be finite and > 0.05, got 0.01", [
        "boundary", "--delta-count", "2", "--v-hi", "0.01", "--gamma", "10",
        "--out", "{tmp}/b.csv"]),
    "mcwf-bin-past-horizon": ("--bin must be <= --t-max = 14, got 20", [
        "mcwf", *POINT, "--n-traj", "10", "--bin", "20", "--gamma", "10",
        "--out", "{tmp}/mc"]),
    "measure-dt-coarse": ("--dt=100 too coarse for --t-max=14", [
        "measure", *POINT, "--dt", "100", "--gamma", "10"]),
    "config-t_max": ("--t-max", ["measure", *POINT,
                                 "--config", "{tmp}/cfg.json"]),
    "boundary-delta-count": ("--delta-count", ["boundary", "--delta-count",
                                               "0", "--out", "{tmp}/b.csv"]),
    "classify-boundary-points": ("--boundary-points", [
        "classify", *POINT, "--boundary-points", "0"]),
    # the resolution rule: dt = 1e-3 misses the measure's revivals at
    # V = 3141.6 and aliases the flux line at V = 1600 (Nyquist)
    "measure-unresolved": ("dt", ["measure", "--v", "3141.6", "--delta", "0"]),
    "dynamics-unresolved": ("dt", ["dynamics", "--v", "3141.6", "--delta",
                                   "0", "--out", "{tmp}/dyn"]),
    "spectrum-aliased": ("dt", ["spectrum", "--v", "1600", "--delta", "0",
                                "--out", "{tmp}/s.csv"]),
    "classify-aliased": ("dt", ["classify", "--v", "1600", "--delta", "0",
                                "--omega-threshold", "1"]),
    **{f"sweep-{key}": (key.partition("-")[0],
                        ["sweep", f"{{tmp}}/sweep-{key}.json",
                         "--out", "{tmp}/sw"])
       for key in SWEEP_CONFIGS},
}


@pytest.mark.parametrize("case", [*(f"library:{k}" for k in LIBRARY),
                                  *(f"cli:{k}" for k in COMMAND_LINE)])
def test_bad_input_is_rejected(case, tmp_path):
    route, name = case.split(":")
    if route == "library":
        field, call = LIBRARY[name]
        with pytest.raises(ValueError, match=field):
            call()
        return
    field, argv = COMMAND_LINE[name]
    configs = {"cfg.json": {"t_max": NAN},
               **{f"sweep-{key}.json": config
                  for key, config in SWEEP_CONFIGS.items()}}
    for config_name, config in configs.items():
        (tmp_path / config_name).write_text(json.dumps(config))
    proc = subprocess.run(
        [sys.executable, "-m", "cavityflux.cli",
         *(a.format(tmp=tmp_path) for a in argv)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert field in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(configs)


def test_boundary_tolerance_below_float_spacing_ends(tmp_path):
    # bisection stops once the midpoint repeats an end of the bracket; in
    # its own interpreter, since a loop that misses this never returns
    out = tmp_path / "b.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "cavityflux.cli", "boundary",
         "--delta-count", "1", "--tol", "1e-300", "--t-max", "20",
         "--out", str(out)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    v_c = float(out.read_text().splitlines()[1].split(",")[1])
    coarse = markovian_boundary([0.0], t_max=20.0)
    assert abs(v_c - coarse.v_c[0]) < coarse.tol_v


def _past(low, strict, integer):
    """Finite values that break ">= low" ("> low" when strict)."""
    if integer:
        return st.integers(max_value=low - 1)
    edge = low if strict else math.nextafter(low, -math.inf)
    return st.just(edge) | st.floats(max_value=edge, allow_infinity=False)


def _sweep(field):
    return lambda x: SweepConfig(**{**GRID, field: x})


# (field, lower bound, strict, integer, call): every scalar that an
# entry point checks with require_finite
CONTRACT = {
    **{f"params-{f}": (f, low, strict, False,
                       lambda x, f=f: ModelParams(**{"v": 1.0, "delta": 0.0,
                                                     f: x}))
       for f, low, strict in (("gamma", 0, False), ("v", 0, False),
                              ("delta", None, False), ("t_max", 0, True))},
    "grid-t_max": ("t_max", 0, True, False, lambda x: time_grid(x, 1e-3)),
    "grid-dt": ("dt", 0, True, False, lambda x: time_grid(14.0, x)),
    "boundary-gamma": ("gamma", 0, True, False,
                       lambda x: markovian_boundary([0.0], gamma=x)),
    "boundary-v_lo": ("v_search[0]", 0, False, False, lambda x: (
        markovian_boundary([0.0], v_search=(x, 1.2)))),
    "boundary-v_hi": ("v_search[1]", 0.05, True, False, lambda x: (
        markovian_boundary([0.0], v_search=(0.05, x)))),
    **{f"boundary-{f}": (f, 0, True, False,
                         lambda x, f=f: markovian_boundary([0.0], **{f: x}))
       for f in ("tol_v", "t_max", "dt")},
    "classify-omega_threshold": ("omega_threshold", 0, False, False,
                                 lambda x: classify(PARAMS, x)),
    **{f"classify-{f}": (f, None, False, False,
                         lambda x, f=f: classify(PARAMS, 1.8, **{f: x}))
       for f in ("min_prominence", "eps_n")},
    "dft-dt": ("dt", 0, True, False, lambda x: dft(np.ones(4), x)),
    "jumps-n_traj": ("n_traj", 1, False, True,
                     lambda x: sample_jump_times(PARAMS, x, 1)),
    **{f"sweep-{f}": (f, low, strict, integer, _sweep(f))
       for f, low, strict, integer in (
           ("v_min", None, False, False), ("delta_min", None, False, False),
           ("bin_width", None, False, False),
           ("min_prominence", None, False, False),
           ("eps_n", None, False, False), ("v_max", 0.05, False, False),
           ("delta_max", 0.0, False, False), ("gamma", 0, True, False),
           ("t_max", 0, True, False), ("dt", 0, True, False),
           ("v_count", 1, False, True), ("delta_count", 1, False, True),
           ("n_traj", 0, False, True), ("omega_threshold", 0, False, False),
           ("master_seed", 0, False, True))},
}

# every float flag of every subcommand, and the bounded integer flags,
# each after the flags its subcommand needs
PARSER = cli.build_parser()
for command, sub in PARSER.commands.items():
    base = [command]
    if "--v" in sub._option_string_actions:
        base += POINT
    if command == "mcwf":
        base += ["--n-traj", "1"]
    for action in sub._actions:
        key = action.dest
        if action.type is float or key in cli.BOUNDS:
            low, strict = cli.BOUNDS.get(key, (None, False))
            flag = action.option_strings[0]
            CONTRACT[f"cli-{command}{flag}"] = (
                flag, low, strict, action.type is int,
                lambda x, base=base, flag=flag: cli.parse_args(
                    PARSER, [*base, f"{flag}={x!r}"]))


@pytest.mark.parametrize("case", sorted(CONTRACT))
@settings(max_examples=8)
@given(data=st.data())
def test_contract_names_the_field(case, data):
    # nan, +-inf and values past the bound raise before any work starts
    field, low, strict, integer, call = CONTRACT[case]
    values = [] if integer else [NAN, INF, -INF]
    if low is not None:
        values.append(data.draw(_past(low, strict, integer)))
    for value in values:
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value).startswith(f"{field} must be"), info.value


def test_long_integer_passes_the_rule():
    # an int past float range is finite, so a long master seed is valid
    assert require_finite("master_seed", 2**1100, 0) == 2**1100
    SweepConfig(**GRID, n_traj=10, master_seed=2**1100)


@pytest.mark.parametrize("case", sorted(k for k in CONTRACT
                                        if not k.startswith("cli-")))
def test_rule_refuses_bools_and_integer_floats(case):
    # a bool, a string or a complex is never a number; an integer field
    # refuses 2.0 and 2.5
    field, _, _, integer, call = CONTRACT[case]
    for value in (True, np.False_, "1", 1j,
                  *((2.0, 2.5) if integer else ())):
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value).startswith(f"{field} must be"), info.value


def test_numpy_integers_pass_the_rule():
    config = SweepConfig(**{**GRID, "v_count": np.int64(2)},
                         n_traj=np.int32(10), master_seed=np.uint64(2**63),
                         workers=np.int64(1))
    assert config.v_values().size == 2
    assert resolve_workers(np.int64(3)) == 3
    assert require_finite("n_traj", np.uint8(5), 1, integer=True) == 5


@pytest.mark.parametrize("figure_id", [True, 2.0])
def test_figure_id_is_an_integer(figure_id, tmp_path):
    with pytest.raises(ValueError, match="figure_id must be an integer"):
        figure_datasets(figure_id, tmp_path / "out")
    assert not (tmp_path / "out").exists()


# --config values that a flag would not take: a switch takes only a JSON
# true or false, and no other flag takes either
CONFIG_VALUES = {
    "measure-v": ("v", ["measure"], {"v": True, "delta": 0}),
    "measure-delta": ("delta", ["measure"], {"v": 1, "delta": False}),
    "mcwf-n_traj": ("n_traj", ["mcwf", "--out", "mc"],
                    {"v": 1, "delta": 0, "n_traj": True}),
    "classify-ground_truth": ("ground_truth", ["classify"], {
        "v": 1, "delta": 0, "omega_threshold": 1.8,
        "ground_truth": "false"}),
    "classify-strict": ("strict", ["classify"], {
        "v": 0, "delta": 0, "omega_threshold": 1.8, "strict": "false"}),
}


@pytest.mark.parametrize("case", sorted(CONFIG_VALUES))
def test_config_value_is_typed_by_its_flag(case, tmp_path, monkeypatch,
                                           capsys):
    key, argv, values = CONFIG_VALUES[case]
    (tmp_path / "cfg.json").write_text(json.dumps(values))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        cli.main([*argv, "--config", "cfg.json"])
    assert info.value.code == 2
    assert f"config key {key} must" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("switch", [True, False])
def test_config_switch_takes_a_json_boolean(switch, tmp_path, capsys):
    # at V = 0 the flux is zero: --strict exits 1 on it
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"v": 0, "delta": 0, "omega_threshold": 1.8,
                                  "strict": switch, "ground_truth": switch}))
    assert cli.main(["classify", "--config", str(config)]) == int(switch)
    verdict = json.loads(capsys.readouterr().out)
    assert (verdict["n_value"] is not None) == switch
