import argparse
import csv
import dataclasses
import json
import math
import re
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from robustlqg import cli
from robustlqg.cli import main as cli_main
from robustlqg.divergences import DivergenceKind
from robustlqg.errors import InvalidInputError, UnsupportedDivergenceError
from robustlqg.experiments import (
    RUNNERS,
    TRACE_HEADER,
    ExperimentConfig,
    run_gaps,
    run_solve,
    run_stationary,
    config_hash,
    policy_nominal_cost,
    policy_worst_case_cost,
    write_metadata,
)
from robustlqg.frank_wolfe import FwConfig, solve
from robustlqg.gradient import lqg_gradient
from robustlqg.instances import generate_instance, instance_rng, random_covariance
from robustlqg.lqg import CovarianceProfile, lqg_value
from robustlqg.stationary import stationary_cost

from conftest import counting
from reference import random_covariance_reference


def test_generate_instance_dynamics_pattern():
    sys, _ = generate_instance(2, 3, seed=0)
    np.testing.assert_allclose(sys.A[0], np.array([[0.1, 0.1], [0.0, 0.1]]))
    np.testing.assert_array_equal(sys.B[0], np.eye(2))
    np.testing.assert_array_equal(sys.C[0], np.eye(2))
    np.testing.assert_array_equal(sys.Q[0], np.eye(2))
    np.testing.assert_array_equal(sys.R[0], np.eye(2))


def test_generate_instance_eigenvalue_range():
    for seed in range(5):
        _, model = generate_instance(4, 3, seed=seed)
        for blk in model.nominal_profile().blocks():
            vals = np.linalg.eigvalsh(blk)
            assert vals.min() >= 1.0 - 1e-9
            assert vals.max() <= 2.0 + 1e-9


def test_generate_instance_deterministic():
    sys_a, model_a = generate_instance(3, 4, seed=7)
    sys_b, model_b = generate_instance(3, 4, seed=7)
    assert np.array_equal(sys_a.A, sys_b.A)
    for x, y in zip(model_a.nominal_profile().blocks(), model_b.nominal_profile().blocks()):
        assert np.array_equal(x, y)
    _, model_c = generate_instance(3, 4, seed=8)
    assert not np.array_equal(model_a.X0, model_c.X0)


@pytest.mark.parametrize("d,T,seed", [(1, 1, 0), (2, 3, 5), (4, 7, 2**64 + 3), (10, 19, 1)])
def test_batched_draw_matches_the_per_matrix_loop(d, T, seed):
    # generate_instance forms all 2T+1 nominals in one batched QR and
    # product; random_covariance is its one-block case
    _, model = generate_instance(d, T, seed)
    rng = instance_rng(seed)
    ref = [random_covariance_reference(d, rng) for _ in range(2 * T + 1)]
    want = CovarianceProfile(X0=ref[0], W=np.stack(ref[1:T + 1]), V=np.stack(ref[T + 1:]))
    for got, exp in zip(model.nominal_profile().blocks(), want.blocks()):
        assert np.array_equal(got, exp)
    rng, rng_ref = instance_rng(seed), instance_rng(seed)
    for _ in range(2):
        assert np.array_equal(random_covariance(d, rng), random_covariance_reference(d, rng_ref))


def test_counter_based_rng_identity():
    a = instance_rng(3).standard_normal(5)
    b = instance_rng(3).standard_normal(5)
    assert np.array_equal(a, b)


def _fast_fw():
    return FwConfig(max_iters=200, gap_tol=1e-4)


def test_run_gaps_schema_and_roundtrip(tmp_path, monkeypatch):
    # the metadata records the thread variables as set, null when unset
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfg = ExperimentConfig(
        experiment="gaps", d=2, T=2, divergence="wasserstein2",
        rho=[0.0, 0.5, 1.0], seeds=[0, 1], output_dir=str(tmp_path), fw=_fast_fw(),
    )
    out = run_gaps(cfg)
    assert out["all_converged"]
    with open(tmp_path / "gaps.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rho", "seed", "worst_case_gap", "nominal_gap"]
    assert len(rows) == 1 + 3 * 2
    data = [(float(r[0]), int(r[1]), float(r[2]), float(r[3])) for r in rows[1:]]
    for rho, seed, wc, nom in data:
        assert wc >= -1e-6
        if rho == 0.0:
            assert abs(wc) <= 1e-8 and abs(nom) <= 1e-8
    # monotone in rho per seed
    for seed in (0, 1):
        series = [wc for rho, s, wc, _ in data if s == seed]
        assert all(a <= b + 1e-9 for a, b in zip(series, series[1:]))
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["schema"] == 1
    assert meta["rng"] == "philox4x64-10"
    assert meta["config_hash"] == config_hash(cfg)
    assert meta["numpy_version"] == np.__version__
    assert meta["threads"] == {"OMP_NUM_THREADS": "3", "OPENBLAS_NUM_THREADS": None,
                               "MKL_NUM_THREADS": None}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert meta["blas"] == {"name": blas["name"], "version": blas["version"]}


def test_metadata_blas_is_null_where_numpy_does_not_report_it(tmp_path, monkeypatch):
    cfg = ExperimentConfig(output_dir=str(tmp_path))
    monkeypatch.setattr(np, "show_config", lambda mode: {"Build Dependencies": {}})
    write_metadata(cfg, tmp_path, 0.0)
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["blas"] == {"name": None, "version": None}
    assert meta["config_hash"] == config_hash(cfg)


def _public_gaps_row(sys, model, fw):
    """The gaps row by the public pipeline: each policy's coefficients from
    lqg_gradient at its design covariances, priced by policy_worst_case_cost
    and policy_nominal_cost. The robust policy is designed at the solve's
    last record's iterate, which a budget of len(records) - 1 iterations
    returns; with one record it is the nominal."""
    balls, nominal = model.ball_profile(), model.nominal_profile()
    _, trace = solve(sys, balls, cfg=fw)
    n = len(trace.records)
    design = nominal if n == 1 else solve(sys, balls, cfg=replace(fw, max_iters=n - 1))[0]
    c_nom, c_rob = lqg_gradient(sys, nominal)[1], lqg_gradient(sys, design)[1]
    wc = policy_worst_case_cost(c_nom, balls)[0] - policy_worst_case_cost(c_rob, balls)[0]
    return wc, policy_nominal_cost(c_rob, nominal) - policy_nominal_cost(c_nom, nominal)


def test_run_gaps_reads_its_rows_from_the_solve(tmp_path, monkeypatch):
    # the rows come from the solve's first and last records and the last
    # record's gradients: one Riccati sweep per point (solve's), no separate
    # oracle pass, and the rows of the public pipeline, which prices the
    # policy of the last record's iterate
    from robustlqg import experiments, gradient, lqg

    calls = counting(monkeypatch, lqg, "riccati_backward")
    monkeypatch.setattr(gradient, "riccati_backward", lqg.riccati_backward)
    priced = counting(monkeypatch, experiments, "policy_worst_case_cost")
    cfg = ExperimentConfig(
        experiment="gaps", d=2, T=3, divergence="kl", rho=[0.5, 1.0], seeds=[0, 1],
        output_dir=str(tmp_path), fw=_fast_fw(),
    )
    out = run_gaps(cfg)
    assert out["all_converged"]
    assert len(calls) == len(out["rows"]) == 4
    assert priced == []
    monkeypatch.undo()
    for rho, seed, wc_gap, nom_gap in out["rows"]:
        sys, model = generate_instance(2, 3, seed, DivergenceKind.KULLBACK_LEIBLER, rho)
        wc, nom = _public_gaps_row(sys, model, cfg.fw)
        assert float(wc_gap) == pytest.approx(wc, rel=1e-6)
        assert float(nom_gap) == pytest.approx(nom, rel=1e-6)


@pytest.mark.parametrize("kind", [
    DivergenceKind.WASSERSTEIN2, DivergenceKind.KULLBACK_LEIBLER, DivergenceKind.FISHER,
], ids=lambda k: k.value)
def test_first_record_prices_the_nominal_policy(kind):
    # the solve starts at the nominal, so its first oracle pass is the
    # nominal policy's worst case: objective + gap = <G_0, Sigma*> (Euler)
    sys, model = generate_instance(3, 4, 2, kind, 0.5)
    balls = model.ball_profile()
    _, trace = solve(sys, balls, cfg=_fast_fw())
    first = trace.records[0]
    c_nom = lqg_gradient(sys, model.nominal_profile())[1]
    want = policy_worst_case_cost(c_nom, balls)[0]
    assert first.objective + first.fw_gap == pytest.approx(want, rel=1e-12)


def test_run_gaps_row_of_an_unconverged_solve_is_the_nominal_policy(tmp_path):
    # after one iteration the last certified iterate is the nominal, so both
    # policies are the nominal one
    cfg = ExperimentConfig(
        experiment="gaps", d=3, T=3, divergence="wasserstein2", rho=[1.0], seeds=[0],
        output_dir=str(tmp_path), fw=FwConfig(max_iters=1, gap_tol=1e-9),
    )
    out = run_gaps(cfg)
    assert not out["all_converged"]
    (_, _, wc_gap, nom_gap), = out["rows"]
    sys, model = generate_instance(3, 3, 0, DivergenceKind.WASSERSTEIN2, 1.0)
    cost = lqg_value(sys, model.nominal_profile()).cost
    assert float(wc_gap) == 0.0
    assert abs(float(nom_gap)) <= 1e-12 * (1.0 + cost)


def test_run_solve_outputs(tmp_path):
    cfg = ExperimentConfig(
        experiment="solve", d=3, T=3, divergence="kl", rho=0.1,
        seeds=[0, 1], output_dir=str(tmp_path), fw=FwConfig(max_iters=500, gap_tol=1e-3),
    )
    out = run_solve(cfg)
    assert out["all_converged"]
    with open(tmp_path / "solve_summary.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["T", "seed", "iterations", "converged", "stop", "objective",
                       "final_gap", "wall_seconds"]
    assert [row[:2] for row in rows[1:]] == [["3", "0"], ["3", "1"]]
    for seed, row in zip((0, 1), rows[1:]):
        with open(tmp_path / f"trace_T3_seed{seed}.csv") as fh:
            trace = list(csv.reader(fh))
        assert trace[0] == TRACE_HEADER
        gaps = [float(r[2]) for r in trace[1:]]
        assert all(g > 1e-3 for g in gaps[:-1])
        # the summary row describes the returned iterate: its objective and
        # certified gap, which on a gap stop are the trace's last record's
        # and on a bound stop belong to the iterate one step past it
        sys, model = generate_instance(3, 3, seed, DivergenceKind.KULLBACK_LEIBLER, 0.1)
        worst, solved = solve(sys, model.ball_profile(), cfg=cfg.fw)
        assert row[2:7] == [str(len(trace) - 1), "1", solved.stop, repr(solved.objective),
                            repr(solved.gap)]
        assert float(row[5]) == pytest.approx(lqg_value(sys, worst).cost, rel=1e-12)
        assert float(row[6]) <= 1e-3
        if row[4] == "gap":
            assert row[5:7] == trace[-1][1:3]
        else:
            assert row[4] == "bound" and float(row[5]) > float(trace[-1][1])
        assert float(row[7]) > 0.0


def test_solve_summary_reports_each_stop_reason(tmp_path):
    # seed 9 stops on the surrogate gap, seed 7 on the upper bound, and a
    # budget of one iteration runs out with no certified objective or gap
    fw = FwConfig(max_iters=500, gap_tol=1e-3)
    for seed, cfg_fw, stop in ((9, fw, "gap"), (7, fw, "bound"),
                               (7, replace(fw, max_iters=1), "max_iters")):
        out_dir = tmp_path / f"{seed}-{stop}"
        cfg = ExperimentConfig(experiment="solve", d=3, T=3, divergence="kl", rho=0.3,
                               seeds=[seed], output_dir=str(out_dir), fw=cfg_fw)
        run_solve(cfg)
        with open(out_dir / "solve_summary.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["stop"] == stop
        assert row["converged"] == str(int(stop != "max_iters"))
        if stop == "max_iters":
            assert row["objective"] == row["final_gap"] == "nan"
        else:
            assert float(row["final_gap"]) <= 1e-3


def test_run_solve_over_horizons_monotone_and_deterministic(tmp_path, monkeypatch):
    # a list of horizons is the runtime sweep: one trace per (T, seed). The
    # work of a solve is counted, not timed: the forward-sweep time steps it
    # runs (each lqg.kalman_forward call steps through its system's T)
    from robustlqg import lqg

    sweeps = counting(monkeypatch, lqg, "kalman_forward")
    cfg = ExperimentConfig(
        experiment="solve", d=3, T=[2, 4, 6], divergence="wasserstein2", rho=0.1,
        seeds=[0, 1], output_dir=str(tmp_path), fw=_fast_fw(),
    )
    out = run_solve(cfg)
    assert out["all_converged"]
    with open(tmp_path / "solve_summary.csv") as fh:
        rows = list(csv.reader(fh))
    iters = {(int(r[0]), int(r[1])): int(r[2]) for r in rows[1:]}
    assert sorted(p.name for p in tmp_path.glob("trace_*.csv")) == sorted(
        f"trace_T{T}_seed{seed}.csv" for T, seed in iters)
    work = {}  # per solve, keyed by (T, its system), generated per (T, seed)
    for sys, _ in sweeps:
        work[sys.T, id(sys)] = work.get((sys.T, id(sys)), 0) + sys.T
    assert len(work) == len(iters) == 6
    medians = [np.median([w for (T, _), w in work.items() if T == h]) for h in (2, 4, 6)]
    assert medians[0] < medians[1] < medians[2]

    # iteration counts reproduce on a second run
    run_solve(replace(cfg, output_dir=str(tmp_path / "again")))
    with open(tmp_path / "again" / "solve_summary.csv") as fh:
        rows_again = list(csv.reader(fh))
    assert {(int(r[0]), int(r[1])): int(r[2]) for r in rows_again[1:]} == iters


def test_stationary_summary_reads_the_trace(tmp_path, monkeypatch):
    # each row's objective is the returned pair's stationary cost, with no
    # second solve of the Riccati equations; nan on a max_iters stop
    from robustlqg import experiments

    pairs = []
    inner = experiments.solve_stationary_fw

    def capturing(ss, *args):
        out = inner(ss, *args)
        pairs.append((ss, *out[:2]))
        return out

    monkeypatch.setattr(experiments, "solve_stationary_fw", capturing)
    for max_iters in (500, 1):
        pairs.clear()
        cfg = ExperimentConfig(
            experiment="stationary", d=3, divergence="kl", rho=0.5, seeds=[0, 1, 2],
            output_dir=str(tmp_path / str(max_iters)), fw=FwConfig(max_iters=max_iters, gap_tol=1e-6),
        )
        out = run_stationary(cfg)
        assert out["all_converged"] == (max_iters > 1)
        with open(tmp_path / str(max_iters) / "stationary_summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["seed", "iterations", "converged", "stop", "objective",
                                 "final_gap", "wall_seconds"]
        assert [int(row["seed"]) for row in rows] == cfg.seeds
        for row, (ss, Sw, Sv) in zip(rows, pairs, strict=True):
            if max_iters == 1:
                assert row["stop"] == "max_iters" and row["converged"] == "0"
                assert math.isnan(float(row["objective"])) and math.isnan(float(row["final_gap"]))
            else:
                assert row["converged"] == "1" and float(row["final_gap"]) <= 1e-6
                assert float(row["objective"]) == stationary_cost(ss, Sw, Sv)[0]


def test_cli_solve_exit_code_and_outputs(tmp_path):
    out = tmp_path / "run"
    code = cli_main([
        "solve", "--seed", "0", "--rho", "0.1", "--horizon", "3", "--dim", "2",
        "--divergence", "wasserstein2", "--out", str(out),
    ])
    assert code == 0
    assert (out / "trace_T3_seed0.csv").exists()
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["experiment"] == "solve" and meta["seeds"] == [0]
    with open(out / "solve_summary.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["seed"] == "0" and row["converged"] == "1"


def test_cli_stationary_exit_code_and_outputs(tmp_path):
    out = tmp_path / "run"
    code = cli_main([
        "stationary", "--seed", "0", "--seed", "1", "--rho", "0.1", "--dim", "3",
        "--divergence", "kl", "--out", str(out),
    ])
    assert code == 0
    for seed in (0, 1):
        with open(out / f"stationary_seed{seed}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == TRACE_HEADER and len(rows) > 1
    with open(out / "stationary_summary.csv", newline="") as fh:
        runs = list(csv.DictReader(fh))
    assert [run["seed"] for run in runs] == ["0", "1"]
    assert all(run["converged"] == "1" and float(run["objective"]) > 0.0 for run in runs)
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["experiment"] == "stationary" and meta["seeds"] == [0, 1]


# only solve takes a list of horizons and only gaps a list of radii
@pytest.mark.parametrize("command,flag,name", [
    ("solve", "--rho", "rho"), ("stationary", "--rho", "rho"),
    ("gaps", "--horizon", "T"), ("stationary", "--horizon", "T"),
])
def test_cli_single_value_experiment_rejects_a_list(tmp_path, capsys, command, flag, name):
    flags = {"--seed": "0", "--rho": "0.1", "--horizon": "2", "--dim": "2",
             "--divergence": "wasserstein2", "--out": str(tmp_path / "out")}
    argv = [command, flag, "0.3" if flag == "--rho" else "3"]
    code = cli_main(argv + [tok for item in flags.items() for tok in item])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "InvalidInputError",
                   "message": f"this experiment expects a single {name}"}
    assert not (tmp_path / "out").exists()


def test_cli_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "schema": 1, "d": 2, "T": 2, "divergence": "kl", "rho": 0.2,
        "seeds": [0], "output_dir": str(tmp_path / "a"),
        "fw": {"max_iters": 300, "gap_tol": 1e-3},
    }))
    code = cli_main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "b")])
    assert code == 0
    assert (tmp_path / "b" / "solve_summary.csv").exists()
    assert not (tmp_path / "a").exists()


def test_cli_nonconverged_exit_code(tmp_path, capsys):
    code = cli_main([
        "solve", "--seed", "0", "--rho", "5.0", "--horizon", "3", "--dim", "3",
        "--divergence", "wasserstein2", "--out", str(tmp_path / "x"),
        "--max-iters", "2", "--gap-tol", "1e-9",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"] == "NotConverged"


def test_config_validation():
    with pytest.raises(Exception):
        ExperimentConfig(d=0)
    with pytest.raises(InvalidInputError, match="unknown experiment 'bogus'"):
        ExperimentConfig(experiment="bogus")
    with pytest.raises(Exception):
        ExperimentConfig(rho=[-0.1])
    for rho in ([], [0.5, 0.5]):
        with pytest.raises(InvalidInputError, match="rho must be nonempty, with no entry"):
            ExperimentConfig(experiment="gaps", rho=rho)
    # a dict or None used to pass here and fail in run_experiment
    for fw in ({"gap_tol": 1e-3}, None):
        with pytest.raises(InvalidInputError, match="fw must be an FwConfig"):
            ExperimentConfig(fw=fw)


@pytest.mark.parametrize("flag,value", [
    ("--rho", "-1.0"), ("--rho", "nan"), ("--rho", "inf"),
    ("--max-iters", "0"), ("--max-iters", "-3"), ("--gap-tol", "nan"),
])
def test_cli_invalid_input_exit_code(tmp_path, capsys, flag, value):
    flags = {"--seed": "0", "--rho": "0.1", "--horizon": "2", "--dim": "2",
             "--divergence": "wasserstein2", "--out": str(tmp_path / "bad"), flag: value}
    code = cli_main(["solve"] + [tok for item in flags.items() for tok in item])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "InvalidInputError"
    assert not (tmp_path / "bad").exists()


# an old config that still sets fw.oracle_delta is rejected like any unknown key
@pytest.mark.parametrize("body,key", [
    ({"bogus": 1}, "bogus"), ({"fw": {"bogus": 1}}, "fw.bogus"),
    ({"fw": {"oracle_delta": 0.95}}, "fw.oracle_delta"),
], ids=["top", "fw", "fw.oracle_delta"])
def test_cli_unknown_config_key_exit_code(tmp_path, capsys, body, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(body))
    code = cli_main(["solve", "--config", str(cfg_path), "--seed", "0", "--rho", "0.1",
                     "--horizon", "2", "--dim", "2", "--divergence", "kl",
                     "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "InvalidInputError"
    assert err["message"] == f"unknown config key(s): {key}"
    assert not (tmp_path / "out").exists()


# a config file that is missing, not JSON or not an object is an input error
@pytest.mark.parametrize("text,message", [
    (None, "cannot read config "), ("{bogus", "cannot read config "),
    ("[1, 2]", "config must be a JSON object"),
    ('{"fw": [1, 2]}', "config key fw must be a JSON object"),
    ('{"fw": {"max_iters": 2.5}}', "max_iters must be an integer >= 1"),
    ('{"fw": {"max_iters": true}}', "max_iters must be an integer >= 1"),
    ('{"fw": {"gap_tol": "1e-3"}}', "gap_tol must be a positive finite number"),
    ('{"fw": {"gap_tol": null}}', "gap_tol must be a positive finite number"),
], ids=["missing", "invalid_json", "top_list", "fw_list", "max_iters_float", "max_iters_bool",
        "gap_tol_string", "gap_tol_null"])
def test_cli_malformed_config_exit_code(tmp_path, capsys, text, message):
    cfg_path = tmp_path / "cfg.json"
    if text is not None:
        cfg_path.write_text(text)
    code = cli_main(["solve", "--config", str(cfg_path), "--seed", "0", "--rho", "0.1",
                     "--horizon", "2", "--dim", "2", "--divergence", "kl",
                     "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "InvalidInputError"
    assert err["message"].startswith(message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text,message", [
    ('{"d": 2.5}', "d and T must be integers >= 1"),
    ('{"T": "2"}', "d and T must be integers >= 1"),
    ('{"seeds": 3}', "seeds must be a list of integers >= 0"),
    ('{"seeds": [0, 1.0]}', "seeds must be a list of integers >= 0"),
    ('{"seeds": [-1]}', "seeds must be a list of integers >= 0"),
    ('{"seeds": [0, 340282366920938463463374607431768211456]}', "seeds must be below 2**128"),
    ('{"seeds": []}', "seeds must be nonempty, with no entry repeated"),
    ('{"seeds": [0, 1, 0]}', "seeds must be nonempty, with no entry repeated"),
    ('{"T": [2, "4"]}', "d and T must be integers >= 1"),
    ('{"T": []}', "T must be nonempty, with no entry repeated"),
    ('{"T": [2, 4, 2]}', "T must be nonempty, with no entry repeated"),
    ('{"rho": "0.1"}', "rho entries must be finite nonnegative numbers"),
    ('{"rho": [0.1, false]}', "rho entries must be finite nonnegative numbers"),
    ('{"rho": []}', "rho must be nonempty, with no entry repeated"),
    ('{"rho": [0.1, 0.1]}', "rho must be nonempty, with no entry repeated"),
    ('{"output_dir": 3}', "output_dir must be a string"),
], ids=["d_float", "T_string", "seeds_int", "seeds_float_entry", "seeds_negative", "seeds_too_large",
        "seeds_empty", "seeds_repeated", "horizons_string_entry", "horizons_empty",
        "horizons_repeated", "rho_string", "rho_bool_entry", "rho_empty", "rho_repeated",
        "output_dir_int"])
def test_cli_mistyped_config_exit_code(tmp_path, capsys, monkeypatch, text, message):
    # a config value of the wrong type is an input error (exit 2, JSON on
    # stderr), not a traceback, under a command that takes every field from
    # the file
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    code = cli_main(["solve", "--config", str(cfg_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "InvalidInputError"
    assert err["message"].startswith(message)
    assert list(tmp_path.iterdir()) == [cfg_path]


# every flag, a value for it, and the config field it sets (fw.* in FwConfig)
CLI_FLAGS = [
    ("--seed", "7", "seeds", [7]),
    ("--rho", "0.3", "rho", 0.3),
    ("--horizon", "4", "T", 4),
    ("--dim", "3", "d", 3),
    ("--divergence", "kl", "divergence", "kl"),
    ("--out", "elsewhere", "output_dir", "elsewhere"),
    ("--max-iters", "9", "fw.max_iters", 9),
    ("--gap-tol", "1e-5", "fw.gap_tol", 1e-5),
    ("--step-rule", "vanishing", "fw.step_rule", "vanishing"),
]


def _subcommands() -> dict:
    (subs,) = [action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction)]
    return subs.choices


def test_every_cli_flag_is_named_by_its_config_key():
    # one subcommand per experiment, each named as its experiment; the flags
    # map to config keys by name, so each dest is a config field
    assert list(_subcommands()) == list(RUNNERS) == ["solve", "gaps", "stationary"]
    keys = {f.name for cls in (ExperimentConfig, FwConfig) for f in dataclasses.fields(cls)}
    for name, sub in _subcommands().items():
        assert {action.dest for action in sub._actions} - {"help", "config"} <= keys, name
        flags = {opt for action in sub._actions for opt in action.option_strings}
        assert flags - {"-h", "--help", "--config"} == {flag for flag, *_ in CLI_FLAGS}, name


@pytest.mark.parametrize("flag, value, field, want", CLI_FLAGS, ids=[f[0] for f in CLI_FLAGS])
def test_a_cli_flag_given_alone_lands_on_its_config_field(flag, value, field, want):
    # one --rho is a scalar radius; every field the flag does not name keeps
    # its default
    args = cli.build_parser().parse_args(["solve", flag, value])
    expected = ExperimentConfig(experiment="solve")
    if field.startswith("fw."):
        expected = replace(expected, fw=replace(expected.fw, **{field[3:]: want}))
    else:
        expected = replace(expected, **{field: want})
    assert cli._load_config(args) == expected


@pytest.mark.parametrize("command, flag, field", [("gaps", "--rho", "rho"),
                                                   ("solve", "--horizon", "T")])
def test_a_repeated_cli_flag_gives_a_list(command, flag, field):
    args = cli.build_parser().parse_args([command, flag, "2", flag, "4"])
    assert getattr(cli._load_config(args), field) == [2, 4]


def test_readme_cli_examples_parse():
    # every robustlqg line of the README's sh blocks, backslash continuations
    # joined, parses: a stale example (a removed subcommand or flag) fails
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [line for line in lines if line.startswith("robustlqg ")]
    assert len(commands) >= 4
    for line in commands:
        try:
            cli.build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


def test_cli_has_no_oracle_delta_flag(tmp_path):
    # the oracles certify a fixed fraction (0.95) of their dual bound
    with pytest.raises(SystemExit):
        cli_main(["solve", "--oracle-delta", "0.5", "--out", str(tmp_path / "out")])


def test_divergence_without_oracle_rejected_at_config(tmp_path, capsys):
    with pytest.raises(UnsupportedDivergenceError):
        ExperimentConfig(divergence="entropic_ot")
    with pytest.raises(InvalidInputError):
        ExperimentConfig(divergence="bogus")
    code = cli_main(["solve", "--seed", "0", "--rho", "0.1", "--horizon", "2", "--dim", "2",
                     "--divergence", "entropic_ot", "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "UnsupportedDivergenceError"
    assert not (tmp_path / "out").exists()


def test_run_gaps_beyond_stacked_cap(tmp_path, monkeypatch):
    # n(T+1) = 510 is past the 200-row cap of the dense stacked reference. A
    # worst_case_gap is 0.0 exactly when its solve has one record, whose
    # first full step the upper bound certified: the nominal policy is then
    # within gap_tol of the robust optimum
    from robustlqg import experiments

    traces = []
    inner = experiments.solve

    def capturing(*args, **kwargs):
        out = inner(*args, **kwargs)
        traces.append(out[1])
        return out

    monkeypatch.setattr(experiments, "solve", capturing)
    cfg = ExperimentConfig(
        experiment="gaps", d=10, T=50, divergence="wasserstein2",
        rho=[0.1, 1.0], seeds=[0], output_dir=str(tmp_path),
    )
    out = run_gaps(cfg)
    assert out["all_converged"]
    (_, _, wc_lo, nom_lo), (_, _, wc_hi, nom_hi) = out["rows"]
    assert 0.0 <= float(wc_lo) < float(wc_hi)
    for (_, _, wc, _), trace in zip(out["rows"], traces):
        one = len(trace.records) == 1
        assert (float(wc) == 0.0) == one
        assert not one or (trace.stop == "bound" and trace.gap <= cfg.fw.gap_tol)
    sys, model = generate_instance(10, 50, seed=0, rho=0.1)
    nominal_opt = lqg_value(sys, model.nominal_profile()).cost
    assert max(float(nom_lo), float(nom_hi)) <= 0.01 * nominal_opt


def test_jobs_other_than_one_rejected(tmp_path, capsys):
    assert ExperimentConfig(jobs=1).jobs == 1
    for jobs in (0, 2, 3):
        with pytest.raises(InvalidInputError, match="jobs must be 1"):
            ExperimentConfig(experiment="gaps", jobs=jobs)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"jobs": 2}))
    code = cli_main(["gaps", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "InvalidInputError"
    assert not (tmp_path / "out").exists()
    with pytest.raises(SystemExit):  # the --jobs flag is gone
        cli_main(["gaps", "--jobs", "2", "--out", str(tmp_path / "out")])
