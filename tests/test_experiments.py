import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from robustlqg.cli import main as cli_main
from robustlqg.divergences import DivergenceKind
from robustlqg.errors import InvalidInputError, UnsupportedDivergenceError
from robustlqg.experiments import (
    ExperimentConfig,
    run_convergence,
    run_gaps,
    run_runtime,
    config_hash,
)
from robustlqg.frank_wolfe import FwConfig
from robustlqg.instances import generate_instance, instance_rng
from robustlqg.lqg import lqg_value


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


def test_counter_based_rng_identity():
    a = instance_rng(3).standard_normal(5)
    b = instance_rng(3).standard_normal(5)
    assert np.array_equal(a, b)


def _fast_fw():
    return FwConfig(max_iters=200, gap_tol=1e-4)


def test_run_gaps_schema_and_roundtrip(tmp_path):
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


def test_run_convergence_outputs(tmp_path):
    cfg = ExperimentConfig(
        experiment="convergence", d=3, T=3, divergence="kl", rho=0.1,
        seeds=[0, 1], output_dir=str(tmp_path), fw=FwConfig(max_iters=500, gap_tol=1e-3),
    )
    out = run_convergence(cfg)
    assert out["all_converged"]
    with open(tmp_path / "convergence_summary.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["T", "seed", "iterations", "converged", "final_gap", "wall_seconds"]
    for seed in (0, 1):
        with open(tmp_path / f"convergence_T3_seed{seed}.csv") as fh:
            trace = list(csv.reader(fh))
        assert trace[0] == ["iter", "objective", "fw_gap", "step", "wall_ms"]
        gaps = [float(r[2]) for r in trace[1:]]
        assert all(g > 1e-3 for g in gaps[:-1])
        assert gaps[-1] <= 1e-3


def test_run_runtime_monotone_and_deterministic(tmp_path):
    cfg = ExperimentConfig(
        experiment="runtime", d=3, T=4, divergence="wasserstein2", rho=0.1,
        seeds=[0, 1], output_dir=str(tmp_path), runtime_horizons=[2, 4, 6],
        fw=_fast_fw(),
    )
    out = run_runtime(cfg)
    assert out["all_converged"]
    with open(tmp_path / "runtime.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["T", "seed", "wall_seconds", "iterations"]
    med = {}
    iters = {}
    for r in rows[1:]:
        med.setdefault(int(r[0]), []).append(float(r[2]))
        iters[(int(r[0]), int(r[1]))] = int(r[3])
    medians = [np.median(med[T]) for T in (2, 4, 6)]
    assert medians[0] <= medians[2] * 1.5  # scaling sanity with slack for noise

    # iteration counts reproduce on a second run
    run_runtime(replace(cfg, output_dir=str(tmp_path / "again")))
    with open(tmp_path / "again" / "runtime.csv") as fh:
        rows_again = list(csv.reader(fh))
    assert {(int(r[0]), int(r[1])): int(r[3]) for r in rows_again[1:]} == iters


def test_cli_solve_exit_code_and_outputs(tmp_path):
    out = tmp_path / "run"
    code = cli_main([
        "solve", "--seed", "0", "--rho", "0.1", "--horizon", "3", "--dim", "2",
        "--divergence", "wasserstein2", "--out", str(out),
    ])
    assert code == 0
    assert (out / "trace_seed0.csv").exists()
    assert (out / "metadata.json").exists()
    summary = json.loads((out / "solve_summary.json").read_text())
    assert summary["all_converged"]


def test_cli_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "schema": 1, "d": 2, "T": 2, "divergence": "kl", "rho": 0.2,
        "seeds": [0], "output_dir": str(tmp_path / "a"),
        "fw": {"max_iters": 300, "gap_tol": 1e-3},
    }))
    code = cli_main(["convergence", "--config", str(cfg_path), "--out", str(tmp_path / "b")])
    assert code == 0
    assert (tmp_path / "b" / "convergence_summary.csv").exists()
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
    with pytest.raises(Exception):
        ExperimentConfig(rho=[-0.1])


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


@pytest.mark.parametrize("fw", [False, True])
def test_cli_unknown_config_key_exit_code(tmp_path, capsys, fw):
    body = {"fw": {"bogus": 1}} if fw else {"bogus": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(body))
    code = cli_main(["solve", "--config", str(cfg_path), "--seed", "0", "--rho", "0.1",
                     "--horizon", "2", "--dim", "2", "--divergence", "kl",
                     "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "InvalidInputError"
    assert ("fw.bogus" if fw else "bogus") in err["message"]
    assert not (tmp_path / "out").exists()


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


def test_run_gaps_beyond_stacked_cap(tmp_path):
    # n(T+1) = 510 is past the 200-row cap of the dense stacked reference
    cfg = ExperimentConfig(
        experiment="gaps", d=10, T=50, divergence="wasserstein2",
        rho=[0.1, 1.0], seeds=[0], output_dir=str(tmp_path),
    )
    out = run_gaps(cfg)
    assert out["all_converged"]
    (_, _, wc_lo, nom_lo), (_, _, wc_hi, nom_hi) = out["rows"]
    assert 0.0 < float(wc_lo) < float(wc_hi)
    sys, model = generate_instance(10, 50, seed=0, rho=0.1)
    nominal_opt = lqg_value(sys, model.nominal_profile()).cost
    assert max(float(nom_lo), float(nom_hi)) <= 0.01 * nominal_opt


def test_run_gaps_parallel_jobs_bit_identical(tmp_path):
    common = dict(
        experiment="gaps", d=2, T=2, divergence="kl", rho=[0.0, 0.4],
        seeds=[0, 1], fw=_fast_fw(),
    )
    a = run_gaps(ExperimentConfig(output_dir=str(tmp_path / "serial"), jobs=1, **common))
    b = run_gaps(ExperimentConfig(output_dir=str(tmp_path / "par"), jobs=3, **common))
    assert a["rows"] == b["rows"]
