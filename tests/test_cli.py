"""End-to-end CLI tests: subcommands, exit codes, artifacts, determinism."""

import dataclasses
import gc
import json
import warnings

import numpy as np
import pytest

from ttqst import cli, measurement, mpo, serialize, solvers, states, tt
from ttqst.mpo import Mps


def base_plan(tmp_path, **solver_overrides):
    solver = {
        "algorithm": "orgd",
        "ranks": "target",
        "alpha": 8e-3,
        "batch_size": 20,
        "max_iters": 2000,
        "stop_rel_error": 1e-4,
        "log_every": 25,
    }
    solver.update(solver_overrides)
    plan = {
        "seed": 7,
        "output_dir": str(tmp_path / "run"),
        "repetitions": 1,
        "state": {"family": "random_mps", "n": 5, "d": 2, "rank": 2, "seed": 3},
        "measurement": {"source": "exact"},
        "solver": solver,
        "init": {"mode": "perturbed_truth", "delta": 0.05},
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    return path, plan


def test_generate_state_and_metadata(tmp_path):
    out = tmp_path / "ghz.ttc"
    rc = cli.main(["generate-state", "--family", "ghz", "--n", "4", "--out", str(out)])
    assert rc == 0
    psi = serialize.read_ttc1(out)
    assert isinstance(psi, Mps)
    meta = json.loads(out.with_suffix(".ttc.meta.json").read_text())
    assert meta["state"]["family"] == "ghz"
    assert meta["rng"] == "philox4x64"


def test_generate_state_ising_records_energy(tmp_path):
    out = tmp_path / "ising.ttc"
    rc = cli.main([
        "generate-state", "--family", "ising_ground", "--n", "4",
        "--coupling", "1.0", "--max-bond", "8", "--out", str(out),
    ])
    assert rc == 0
    meta = json.loads(out.with_suffix(".ttc.meta.json").read_text())
    assert "energy" in meta["state"]


def test_reconstruct_outputs(tmp_path, capsys):
    plan_path, plan = base_plan(tmp_path)
    rc = cli.main(["reconstruct", "--plan", str(plan_path)])
    assert rc == 0
    rundir = tmp_path / "run"
    assert (rundir / "trace_rep000.csv").exists()
    assert (rundir / "reconstruction_rep000.ttr").exists()
    meta = json.loads((rundir / "metadata.json").read_text())
    assert meta["plan"]["seed"] == 7
    assert meta["repetitions"][0]["final_rel_error"] <= 1e-4
    t = serialize.read_ttr1(rundir / "reconstruction_rep000.ttr")
    assert t.mode_dims == (4,) * 5


def test_reconstruct_evaluate_round_trip(tmp_path, capsys):
    state_file = tmp_path / "state.ttc"
    cli.main([
        "generate-state", "--family", "random_mps", "--n", "5",
        "--rank", "2", "--seed", "3", "--out", str(state_file),
    ])
    plan_path, plan = base_plan(tmp_path)
    plan["state_file"] = str(state_file)
    del plan["state"]
    plan_path.write_text(json.dumps(plan))
    rc = cli.main(["reconstruct", "--plan", str(plan_path)])
    assert rc == 0
    capsys.readouterr()
    rc = cli.main([
        "evaluate", "--state", str(state_file),
        "--reconstruction", str(tmp_path / "run" / "reconstruction_rep000.ttr"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    d = float(out.split()[1])
    f = float(out.split()[3])
    assert d <= 1.2e-4
    assert f >= 1 - 1e-3


def test_evaluate_state_against_itself(tmp_path, capsys):
    state_file = tmp_path / "s.ttc"
    cli.main(["generate-state", "--family", "ghz", "--n", "4", "--out", str(state_file)])
    capsys.readouterr()
    rc = cli.main(["evaluate", "--state", str(state_file),
                   "--reconstruction", str(state_file)])
    assert rc == 0
    out = capsys.readouterr().out.split()
    assert float(out[1]) < 1e-12
    assert abs(float(out[3]) - 1.0) < 1e-12


def test_replay_determinism(tmp_path, capsys):
    plan_path, _ = base_plan(tmp_path, max_iters=300)
    rc = cli.main(["reconstruct", "--plan", str(plan_path)])
    assert rc == 0
    rc = cli.main(["replay", "--run-dir", str(tmp_path / "run")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "identical" in out


def test_replay_detects_tampering(tmp_path, capsys):
    plan_path, _ = base_plan(tmp_path, max_iters=200)
    cli.main(["reconstruct", "--plan", str(plan_path)])
    trace = tmp_path / "run" / "trace_rep000.csv"
    lines = trace.read_text().splitlines()
    cols = lines[-1].split(",")
    cols[2] = "0.123"
    lines[-1] = ",".join(cols)
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = cli.main(["replay", "--run-dir", str(tmp_path / "run")])
    assert rc == cli.EXIT_NUMERIC
    # The MISMATCH line says which column moved and how far.
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("trace_rep000: MISMATCH (wall-time excluded)")
    assert "rel_error" in line and "fidelity" not in line


def test_replay_rejects_unknown_plan_key(tmp_path, capsys):
    # The plan echo passes the same key check as a plan file.
    plan_path, _ = base_plan(tmp_path, max_iters=20)
    cli.main(["reconstruct", "--plan", str(plan_path)])
    meta_path = tmp_path / "run" / "metadata.json"
    meta = json.loads(meta_path.read_text())
    meta["plan"]["solver"]["max_iter"] = 5
    meta_path.write_text(json.dumps(meta))
    assert cli.main(["replay", "--run-dir", str(tmp_path / "run")]) == cli.EXIT_CONFIG
    assert "config error: unknown plan key 'solver.max_iter'" in capsys.readouterr().err


def test_set_overrides(tmp_path):
    plan_path, _ = base_plan(tmp_path)
    rc = cli.main([
        "reconstruct", "--plan", str(plan_path),
        "--set", "solver.max_iters=50", "--set", "solver.stop_rel_error=null",
        "--out", str(tmp_path / "o2"),
    ])
    assert rc == 0
    meta = json.loads((tmp_path / "o2" / "metadata.json").read_text())
    assert meta["repetitions"][0]["iterations"] == 50


def test_repetition_seeds_differ(tmp_path):
    plan_path, plan = base_plan(tmp_path, max_iters=100)
    plan["repetitions"] = 2
    plan_path.write_text(json.dumps(plan))
    rc = cli.main(["reconstruct", "--plan", str(plan_path)])
    assert rc == 0
    meta = json.loads((tmp_path / "run" / "metadata.json").read_text())
    seeds = [r["seed"] for r in meta["repetitions"]]
    assert seeds == [7, 6]  # seed xor repetition index
    a = (tmp_path / "run" / "trace_rep000.csv").read_text()
    b = (tmp_path / "run" / "trace_rep001.csv").read_text()
    assert a != b


def test_measurement_log_written_and_readable(tmp_path):
    plan_path, plan = base_plan(tmp_path, max_iters=40, stop_rel_error=None)
    plan["log_measurements"] = True
    plan["measurement"] = {"source": "shot", "shots": 50}
    plan_path.write_text(json.dumps(plan))
    rc = cli.main(["reconstruct", "--plan", str(plan_path)])
    assert rc == 0
    idx, y, shots = measurement.read_log(tmp_path / "run" / "measurements_rep000.csv")
    assert idx.shape == (40 * 20, 5) and shots == 50
    # The log holds exactly the draws of repetition 0's stream.
    target = cli._target_from_plan(plan)[0]
    source = measurement.ShotSource(50)
    stream = measurement.make_stream(target, source, plan["seed"] ^ cli._STREAM_SALT)
    draws = [stream.draw_batch(20) for _ in range(40)]
    np.testing.assert_array_equal(idx, np.concatenate([i for i, _ in draws]))
    np.testing.assert_array_equal(y, np.concatenate([v for _, v in draws]))


def test_init_subcommand(tmp_path, capsys):
    plan_path, plan = base_plan(tmp_path)
    plan["state"]["n"] = 6
    plan["init"] = {"mode": "spectral", "k1": 50000, "k2": 50000, "k3": 50000}
    plan_path.write_text(json.dumps(plan))
    rc = cli.main(["init", "--plan", str(plan_path), "--out", str(tmp_path / "ini")])
    assert rc == 0
    report = json.loads((tmp_path / "ini" / "init_report.json").read_text())
    assert report["rel_error"] <= 0.3
    assert report["samples"] == 250000
    serialize.read_ttr1(tmp_path / "ini" / "t0.ttr")


@pytest.mark.parametrize("command", ["init", "reconstruct"])
def test_spectral_init_without_mu_needs_it_when_no_incoherence(tmp_path, capsys, monkeypatch,
                                                             command):
    # A part above tt.PART_CAP leaves the report without incoherence (random
    # MPS qubit targets from n=12 on); a patched report stands in for one.
    def report(t):
        return tt.CoherenceReport(spikiness=2.0, incoherence=None, per_cut=[],
                                  linf_is_bound=True)

    monkeypatch.setattr(tt, "coherence_report", report)
    plan_path, _ = base_plan(tmp_path)
    args = [command, "--plan", str(plan_path), "--out", str(tmp_path / "out"), *(
        a for item in _SPECTRAL for a in ("--set", item))]
    assert cli.main(args) == cli.EXIT_CONFIG
    assert "config error: spectral init needs init.mu" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert cli.main([*args, "--set", "init.mu=4.0", "--set", "solver.max_iters=1"]) == cli.EXIT_OK


def test_rsgd_and_rgd_algorithms(tmp_path):
    plan_path, plan = base_plan(
        tmp_path, algorithm="rsgd", dataset_size=2000, epochs=2,
        batch_size=50, alpha=8e-3, max_iters=80, stop_rel_error=None,
    )
    rc = cli.main(["reconstruct", "--plan", str(plan_path)])
    assert rc == 0
    plan_path2, _ = base_plan(
        tmp_path, algorithm="rgd", dataset_size=1000, max_iters=30,
        alpha=2e-1, batch_size=1, stop_rel_error=None,
    )
    rc = cli.main(["reconstruct", "--plan", str(plan_path2), "--out", str(tmp_path / "rgd")])
    assert rc == 0


def test_exit_codes(tmp_path):
    # 2: config error (bad JSON)
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert cli.main(["reconstruct", "--plan", str(bad)]) == cli.EXIT_CONFIG
    # 2: invalid config value
    plan_path, plan = base_plan(tmp_path)
    assert (
        cli.main(["reconstruct", "--plan", str(plan_path), "--set", "solver.alpha=-1"])
        == cli.EXIT_CONFIG
    )
    # 3: missing file
    assert cli.main(["reconstruct", "--plan", str(tmp_path / "none.json")]) == cli.EXIT_DATA
    assert (
        cli.main(["evaluate", "--state", str(tmp_path / "no.ttc"),
                  "--reconstruction", str(tmp_path / "no.ttr")])
        == cli.EXIT_DATA
    )
    # 4: numerical failure (spectral init starved of samples)
    plan["state"]["n"] = 6
    plan["init"] = {"mode": "spectral", "k1": 5, "k2": 5, "k3": 5}
    plan_path.write_text(json.dumps(plan))
    assert cli.main(["reconstruct", "--plan", str(plan_path)]) == cli.EXIT_NUMERIC


@pytest.mark.parametrize(
    "overrides",
    [
        ["solver.log_every=0"],
        ["solver.log_every=-5"],
        ["init.mode=spectral", "init.k1=0", "init.k2=100", "init.k3=100"],
        ["init.mode=spectral", "init.k1=100", "init.k2=0", "init.k3=100"],
        ["init.mode=spectral", "init.k1=100", "init.k2=100", "init.k3=0"],
        ["repetitions=x"],
        ["seed=x"],
        ["measurement.source=shot", "measurement.shots=x"],
        ["measurement.source=gaussian", "measurement.sigma=x"],
        ["measurement.source=shot", "measurement.shots=0"],
        ["measurement.source=gaussian", "measurement.sigma=-1"],
        ["init.delta=x"],
        ["init.mode=random_mpo", "init.rank=x"],
        ['solver.ranks=["x", 4, 4, 2]'],
        ["solver.batch_size=20.7"],
        ["measurement.source=shot", "measurement.shots=2.5"],
        ["solver.max_iters=true"],
        ["repetitions=1.9"],
        ["state.n=4.5"],
        ["solver.alpha=true"],
        # The stream refuses shots for qudits: the plan asked for them.
        ["state.d=3", "state.n=3", "measurement.source=shot", "measurement.shots=100"],
    ],
    ids=["log_every=0", "log_every=-5", "k1=0", "k2=0", "k3=0", "repetitions=x", "seed=x",
         "shots=x", "sigma=x", "shots=0", "sigma=-1", "delta=x", "rank=x", "ranks=x",
         "batch_size=20.7", "shots=2.5", "max_iters=true", "repetitions=1.9", "n=4.5",
         "alpha=true", "qutrit-shots"],
)
def test_plan_values_out_of_range_exit_config(tmp_path, capsys, overrides):
    plan_path, _ = base_plan(tmp_path)
    args = ["reconstruct", "--plan", str(plan_path)]
    for item in overrides:
        args += ["--set", item]
    assert cli.main(args) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, kind", [
    ("log_measurements", "no", "bool"), ("output_dir", 5, "str"), ("state_file", True, "str"),
])
def test_top_level_keys_of_the_wrong_type_exit_config(tmp_path, capsys, key, value, kind):
    # Each ran before: a measurement log written for "no", a TypeError
    # traceback for 5, and file descriptor 1 opened for true.
    plan_path, plan = base_plan(tmp_path)
    plan[key] = value
    plan_path.write_text(json.dumps(plan))
    assert cli.main(["reconstruct", "--plan", str(plan_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: {key} must be {kind}, got {value!r}" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", [0, None, ["s.ttc"]])
def test_state_file_must_be_a_path_string(value):
    # open() reads an int as a file descriptor: 0 would read stdin.
    with pytest.raises(cli.ConfigError, match="^state_file must be str, got "):
        cli._checked_plan({"state_file": value})


def test_integer_settings_take_integral_floats_and_digit_strings():
    assert cli._plan_value(int, 1e5, "init.k1") == 100000
    assert cli._plan_value(int, "4", "--ns entry") == 4
    for value in (True, 2.5, float("inf"), float("nan"), "4.5"):
        with pytest.raises(cli.ConfigError, match="^state.n must be int, got "):
            cli._plan_value(int, value, "state.n")


_SPECTRAL = ["init.mode=spectral", "init.k1=100", "init.k2=100", "init.k3=100"]


@pytest.mark.parametrize(
    "overrides",
    [
        ["solver.alpha=NaN"],
        ["solver.eta=Infinity"],
        ["solver.trim_nu=NaN"],
        ["solver.epoch_decay=NaN"],
        ["solver.stop_rel_error=NaN"],
        ["solver.stop_move_tol=Infinity"],
        ["init.delta=NaN"],
        ["init.delta=Infinity"],
        [*_SPECTRAL, "init.mu=NaN"],
        [*_SPECTRAL, "init.nu=NaN"],
        [*_SPECTRAL, "init.nu=-1"],
        ["measurement.source=gaussian", "measurement.sigma=Infinity"],
    ],
    ids=lambda overrides: overrides[-1],
)
def test_non_finite_or_non_positive_settings_exit_config(tmp_path, capsys, overrides):
    # Each would otherwise run and fail as a numerical error, or be ignored.
    plan_path, _ = base_plan(tmp_path)
    args = ["reconstruct", "--plan", str(plan_path)]
    for item in overrides:
        args += ["--set", item]
    assert cli.main(args) == cli.EXIT_CONFIG
    key = overrides[-1].partition("=")[0].rpartition(".")[2]
    assert f"{key} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", [-3, 2**64])
@pytest.mark.parametrize("key", ["seed", "state.seed", "solver.shuffle_seed"])
def test_seed_outside_philox_key_range_exits_config(tmp_path, capsys, key, value):
    plan_path, _ = base_plan(tmp_path)
    rc = cli.main(["reconstruct", "--plan", str(plan_path), "--set", f"{key}={value}"])
    assert rc == cli.EXIT_CONFIG
    assert f"config error: {key} must be in [0, 2^64), got {value}" in capsys.readouterr().err


def test_generate_state_negative_seed_exits_config(tmp_path, capsys):
    out = tmp_path / "s.ttc"
    rc = cli.main(["generate-state", "--family", "random_mps", "--n", "4", "--seed", "-1",
                   "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert "state.seed must be in [0, 2^64), got -1" in capsys.readouterr().err
    assert not out.exists()


def _corrupt_ttr1(tmp_path, how):
    """A TTR1 of a 4-qubit GHZ coefficient tensor, damaged as ``how`` says."""
    path = tmp_path / "rec.ttr"
    serialize.write_ttr1(path, states.pure_state_coeff(states.ghz(4)))
    raw = path.read_bytes()
    if how == "truncated":
        path.write_bytes(raw[:-8])
    elif how == "trailing byte":
        path.write_bytes(raw + b"\0")
    elif how == "zero rank":
        path.write_bytes(raw[:24] + bytes(4) + raw[28:])  # magic, n, 4 dims, rank 1
    else:
        return tmp_path  # a directory
    return path


@pytest.mark.parametrize("how", ["truncated", "trailing byte", "zero rank", "directory"])
def test_evaluate_corrupt_reconstruction_exits_data(tmp_path, capsys, how):
    state_file = tmp_path / "s.ttc"
    cli.main(["generate-state", "--family", "ghz", "--n", "4", "--out", str(state_file)])
    capsys.readouterr()
    rec = _corrupt_ttr1(tmp_path, how)
    rc = cli.main(["evaluate", "--state", str(state_file), "--reconstruction", str(rec)])
    assert rc == cli.EXIT_DATA
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["state", "reconstruction"])
def test_evaluate_oversized_header_exits_data(tmp_path, capsys, which):
    # A header whose core count wraps in int64 reads as a truncated file.
    state_file = tmp_path / "s.ttc"
    cli.main(["generate-state", "--family", "ghz", "--n", "4", "--out", str(state_file)])
    capsys.readouterr()
    big = 2**32 - 1
    if which == "state":
        header = b"TTC1" + bytes([3]) + np.array([3, big, big, big, big, big], dtype="<u4").tobytes()
    else:
        header = b"TTR1" + np.array([2, big, 4, big], dtype="<u4").tobytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(header + bytes(64))
    files = {"state": state_file, "reconstruction": state_file, which: bad}
    rc = cli.main(["evaluate", "--state", str(files["state"]),
                   "--reconstruction", str(files["reconstruction"])])
    assert rc == cli.EXIT_DATA
    assert "truncated file" in capsys.readouterr().err


def test_evaluate_closes_the_reconstruction_file(tmp_path, capsys):
    state_file = tmp_path / "s.ttc"
    cli.main(["generate-state", "--family", "ghz", "--n", "4", "--out", str(state_file)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["evaluate", "--state", str(state_file),
                       "--reconstruction", str(state_file)])
        gc.collect()
    assert rc == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def _assert_failure_kept(rundir, error):
    """``rundir`` holds the trace, last iterate and failure record of ``error``."""
    meta = json.loads((rundir / "metadata.json").read_text())
    assert meta["repetitions"][-1]["failure"] == {
        "kind": type(error).__name__, "iteration": error.iteration, "cut": error.cut,
        "core": getattr(error, "core", None), "message": str(error)}
    i = meta["repetitions"][-1]["repetition"]
    rows = solvers.RunTrace.rows_excluding_wall(rundir / f"trace_rep{i:03d}.csv")
    assert int(rows[-1].split(",")[0]) == error.iteration - 1
    back = serialize.read_ttr1(rundir / f"reconstruction_rep{i:03d}.ttr")
    assert all(np.array_equal(a, b) for a, b in zip(back.cores, error.last_iterate.cores))


def test_divergent_run_exits_numeric_with_iteration(tmp_path, capsys):
    # alpha=5 blows the iterate up within a few rounds; the run stops once its
    # norm passes DIVERGED_FACTOR times that of the start, and the CLI
    # reports what the solver raises on the same plan.  The run directory
    # keeps the work, and its replay hits the same failure.
    plan_path, plan = base_plan(tmp_path, alpha=5.0, stop_rel_error=None)
    (rep,) = cli._execute_plan(plan)
    error = rep.error
    assert cli.main(["reconstruct", "--plan", str(plan_path)]) == cli.EXIT_NUMERIC
    assert type(error) is solvers.StepError and error.iteration == 4
    assert str(error).startswith("step failed at iteration 4: iterate diverged: norm ")
    assert f"numerical failure: {error}" in capsys.readouterr().err
    _assert_failure_kept(tmp_path / "run", error)
    assert cli.main(["replay", "--run-dir", str(tmp_path / "run")]) == cli.EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == "trace_rep000: identical (wall-time excluded)\n"
    assert f"numerical failure: {error}" in captured.err


def test_finite_divergence_exits_numeric_within_1000_rounds(tmp_path, capsys):
    # Random MPS n=10, bond 2; perturbed truth at 0.1; exact source, batch
    # 20, alpha=0.064.  Without the norm check this plan runs its 1000
    # rounds to a rel. error near 5e5 and exits 0.
    plan_path, plan = base_plan(tmp_path, alpha=0.064, max_iters=1000, stop_rel_error=None)
    plan["seed"] = 4
    plan["state"] = {"family": "random_mps", "n": 10, "d": 2, "rank": 2, "seed": 4}
    plan["init"] = {"mode": "perturbed_truth", "delta": 0.1}
    plan_path.write_text(json.dumps(plan))
    assert cli.main(["reconstruct", "--plan", str(plan_path)]) == cli.EXIT_NUMERIC
    assert "iterate diverged" in capsys.readouterr().err


def test_overflowing_step_exits_numeric_at_iteration_1(tmp_path, capsys):
    # A deterministic non-finite probe: noise of sigma 1e308 overflows the
    # residuals of the first step.
    plan_path, plan = base_plan(tmp_path, stop_rel_error=None)
    plan["measurement"] = {"source": "gaussian", "sigma": 1e308}
    plan_path.write_text(json.dumps(plan))
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["reconstruct", "--plan", str(plan_path)]) == cli.EXIT_NUMERIC
        (rep,) = cli._execute_plan(plan)
    assert "non-finite values at iteration 1 in core 0" in capsys.readouterr().err
    # The noise variance of sigma 1e308 is past the float range, not an error.
    assert rep.meta["init"]["noise_proxy_variance"] == np.inf
    _assert_failure_kept(tmp_path / "run", rep.error)


def test_rank_collapse_exits_numeric_with_iteration(tmp_path, capsys):
    # Ranks (2, 2) on a rank-one target with a dataset that covers every
    # entry: offline RGD converges to the target, and the second singular
    # value of a cut shrinks until the new geometry rejects it.
    plan_path, plan = base_plan(
        tmp_path, algorithm="rgd", ranks=[2, 2], dataset_size=2000, eta=0.5, alpha=None,
        max_iters=300, stop_rel_error=None,
    )
    plan["state"] = {"family": "random_mps", "n": 3, "d": 2, "rank": 1, "seed": 3}
    plan_path.write_text(json.dumps(plan))
    assert cli.main(["reconstruct", "--plan", str(plan_path)]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "step failed at iteration 58: " in err and "cut 1 is singular" in err
    (rep,) = cli._execute_plan(plan)
    assert rep.error.cut == 1
    _assert_failure_kept(tmp_path / "run", rep.error)
    assert cli.main(["replay", "--run-dir", str(tmp_path / "run")]) == cli.EXIT_NUMERIC
    assert "trace_rep000: identical" in capsys.readouterr().out


def test_failed_repetition_keeps_the_earlier_ones(tmp_path, capsys, monkeypatch):
    # The second repetition fails: the first one's files stay, and the
    # second one's trace, iterate and failure record join them.
    plan_path, plan = base_plan(tmp_path, max_iters=60, stop_rel_error=None)
    plan["repetitions"] = 2
    plan_path.write_text(json.dumps(plan))
    orgd_run, errors = solvers.orgd_run, []

    def fail_second(t0, stream, cfg, **kwargs):
        out, trace = orgd_run(t0, stream, cfg, **kwargs)
        errors.append(solvers.StepError("injected", trace.iters[-1] + 1, out, cut=2))
        if len(errors) == 1:
            return out, trace
        errors[-1].trace = trace
        raise errors[-1]

    monkeypatch.setattr(solvers, "orgd_run", fail_second)
    assert cli.main(["reconstruct", "--plan", str(plan_path)]) == cli.EXIT_NUMERIC
    assert f"numerical failure: {errors[-1]}" in capsys.readouterr().err
    rundir = tmp_path / "run"
    meta = json.loads((rundir / "metadata.json").read_text())
    assert [r["repetition"] for r in meta["repetitions"]] == [0, 1]
    assert "failure" not in meta["repetitions"][0]
    assert (rundir / "trace_rep000.csv").exists() and (rundir / "reconstruction_rep000.ttr").exists()
    _assert_failure_kept(rundir, errors[-1])


@pytest.mark.parametrize(
    "file, content",
    [("metadata.json", b"5"), ("trace_rep000.csv", b"\xff\xfe\x00iter")],
    ids=["metadata-not-an-object", "trace-not-utf8"],
)
def test_replay_of_a_corrupt_run_directory_exits_data(tmp_path, capsys, monkeypatch, file,
                                                      content):
    # Found before any repetition runs again.
    plan_path, _ = base_plan(tmp_path, max_iters=20)
    assert cli.main(["reconstruct", "--plan", str(plan_path)]) == cli.EXIT_OK
    (tmp_path / "run" / file).write_bytes(content)
    monkeypatch.setattr(solvers, "orgd_run", _no_solve)
    capsys.readouterr()
    assert cli.main(["replay", "--run-dir", str(tmp_path / "run")]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(tmp_path / "run" / file) in err


def test_infeasible_list_ranks_exit_config(tmp_path, capsys):
    # Rank 16 at cut 2 of three qubits exceeds the 4 columns right of it.
    plan_path, plan = base_plan(tmp_path, ranks=[4, 16])
    plan["state"] = {"family": "random_mps", "n": 3, "d": 2, "rank": 2, "seed": 3}
    plan_path.write_text(json.dumps(plan))
    assert cli.main(["reconstruct", "--plan", str(plan_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "rank 16 at cut 2 infeasible (bounds 16, 4)" in err


@pytest.mark.parametrize(
    "override, named",
    [
        ("solver.max_iter=5", "'solver.max_iter'"),
        ("solver.stop_rel_eror=0.5", "'solver.stop_rel_eror'"),
        ("state.bond=3", "'state.bond'"),
        ("init.detla=0.5", "'init.detla'"),
        ("measurment.source=shot", "'measurment'"),
        ("solver=3", "plan.solver must be an object"),
        ("solver.ranks=0", "solver.ranks cap must be at least 1, got 0"),
        ("solver.ranks=-2", "solver.ranks cap must be at least 1, got -2"),
        ("solver.ranks=true", "solver.ranks must be 'target', an integer cap, or a list"),
        ("solver.ranks=[4, 4]", "need 4 ranks, got 2"),
        ("state.d=0", "state.d must be at least 2, got 0"),
        ("state.d=1", "state.d must be at least 2, got 1"),
        ("state.coupling=Infinity", "state.coupling must be finite, got inf"),
        ("state.coupling=NaN", "state.coupling must be finite, got nan"),
        ("solver.epochs=0", "solver.epochs must be at least 1, got 0"),
        ("solver.epochs=-1", "solver.epochs must be at least 1, got -1"),
    ],
    ids=["max_iter", "stop_rel_eror", "bond", "detla", "measurment", "solver=3",
         "ranks=0", "ranks=-2", "ranks=true", "ranks-length", "d=0", "d=1", "coupling=inf",
         "coupling=NaN", "epochs=0", "epochs=-1"],
)
def test_plan_keys_and_rank_cap_checked(tmp_path, capsys, override, named):
    # A key the plan schema does not list, a section that is not an object, an
    # integer rank cap below 1 or given as a bool, and a value its library
    # record refuses exit 2 and name the entry.
    plan_path, _ = base_plan(tmp_path)
    args = ["reconstruct", "--plan", str(plan_path), "--set", override]
    assert cli.main(args) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err


def test_generate_state_applies_set_without_plan(tmp_path, capsys):
    # --set overrides the flags, with or without --plan.
    out = tmp_path / "ghz.ttc"
    args = ["generate-state", "--family", "ghz", "--n", "4", "--out", str(out)]
    assert cli.main(args + ["--set", "state.n=5"]) == cli.EXIT_OK
    assert serialize.read_ttc1(out).n == 5
    assert cli.main(args + ["--set", "state.bond=3"]) == cli.EXIT_CONFIG
    assert "config error: unknown plan key 'state.bond'" in capsys.readouterr().err


def test_unknown_source_rejected(tmp_path):
    plan_path, plan = base_plan(tmp_path)
    plan["measurement"] = {"source": "telepathy"}
    plan_path.write_text(json.dumps(plan))
    assert cli.main(["reconstruct", "--plan", str(plan_path)]) == cli.EXIT_CONFIG


def test_random_mpo_init_plan_runs(tmp_path):
    # The random-MPO start is an unflagged coefficient tensor, which the
    # descent left-orthogonalizes before round 1.
    plan_path, _ = base_plan(tmp_path, max_iters=200, stop_rel_error=None)
    args = ["reconstruct", "--plan", str(plan_path),
            "--set", "init.mode=random_mpo", "--set", "init.rank=2"]
    assert cli.main(args) == cli.EXIT_OK
    meta = json.loads((tmp_path / "run" / "metadata.json").read_text())
    init = meta["repetitions"][0]["init"]
    assert (init["mode"], init["rank"]) == ("random_mpo", 2)
    rows = (tmp_path / "run" / "trace_rep000.csv").read_text().splitlines()
    assert rows[-1].startswith("200,")


def test_integer_rank_cap_caps_every_cut(tmp_path):
    # Target ranks (4, 4, 4, 4) under a cap of 2.
    plan_path, _ = base_plan(tmp_path, max_iters=50, stop_rel_error=None)
    assert cli.main(["reconstruct", "--plan", str(plan_path),
                     "--set", "solver.ranks=2"]) == cli.EXIT_OK
    back = serialize.read_ttr1(tmp_path / "run" / "reconstruction_rep000.ttr")
    assert back.ranks == (2, 2, 2, 2)


def test_mpo_state_file_reconstructs_and_evaluates(tmp_path, capsys):
    # An MPO state file maps through mpo_to_coeff: it has no pure state, so
    # evaluate prints the distance and no fidelity.
    state_file = tmp_path / "rho.ttc"
    serialize.write_ttc1(state_file, mpo.mps_to_mpo(states.ghz(4)))
    plan_path, plan = base_plan(tmp_path)
    plan["state_file"] = str(state_file)
    del plan["state"]
    plan_path.write_text(json.dumps(plan))
    assert cli.main(["reconstruct", "--plan", str(plan_path)]) == cli.EXIT_OK
    rec = tmp_path / "run" / "reconstruction_rep000.ttr"
    for other, bound in ((state_file, 1e-12), (rec, 1.2e-4)):
        capsys.readouterr()
        assert cli.main(["evaluate", "--state", str(state_file),
                         "--reconstruction", str(other)]) == cli.EXIT_OK
        out = capsys.readouterr().out.split()
        assert len(out) == 2 and out[0] == "D" and float(out[1]) <= bound


def test_non_hermitian_core_mpo_state_file_exits_data(tmp_path, capsys):
    # i * rho is a valid MPO whose cores fail the Hermitian core form.
    rho = mpo.mps_to_mpo(states.ghz(4))
    state_file = tmp_path / "bad.ttc"
    serialize.write_ttc1(state_file, mpo.Mpo([1j * rho.cores[0], *rho.cores[1:]]))
    plan_path, plan = base_plan(tmp_path)
    plan["state_file"] = str(state_file)
    del plan["state"]
    plan_path.write_text(json.dumps(plan))
    assert cli.main(["reconstruct", "--plan", str(plan_path)]) == cli.EXIT_DATA
    assert cli.main(["evaluate", "--state", str(state_file),
                     "--reconstruction", str(state_file)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("does not satisfy the Hermitian core form") == 2


def test_tiny_non_hermitian_mpo_state_file_exits_data(tmp_path, capsys):
    # 1e-13 |0><1| (x) I (x) I: every entry is below the core tolerance, so
    # only a test relative to each core's own size rejects it.
    tiny = np.zeros((1, 2, 2, 1))
    tiny[0, 0, 1, 0] = 1e-13
    eye = np.eye(2).reshape(1, 2, 2, 1)
    state_file = tmp_path / "tiny.ttc"
    serialize.write_ttc1(state_file, mpo.Mpo([tiny, eye, eye]))
    ghz = tmp_path / "ghz.ttc"
    assert cli.main(["generate-state", "--family", "ghz", "--n", "3", "--out", str(ghz)]) == 0
    assert cli.main(["evaluate", "--state", str(state_file),
                     "--reconstruction", str(ghz)]) == cli.EXIT_DATA
    assert "does not satisfy the Hermitian core form" in capsys.readouterr().err


def _state_file_plan(tmp_path, state_file):
    plan_path, plan = base_plan(tmp_path)
    plan["state_file"] = str(state_file)
    del plan["state"]
    plan_path.write_text(json.dumps(plan))
    return plan_path


def test_zero_state_file_exits_data(tmp_path, capsys):
    ghz = states.ghz(4)
    state_file = tmp_path / "zero.ttc"
    serialize.write_ttc1(state_file, Mps([np.zeros_like(c) for c in ghz.cores]))
    other = tmp_path / "ghz.ttc"
    serialize.write_ttc1(other, ghz)
    plan_path = _state_file_plan(tmp_path, state_file)
    assert cli.main(["reconstruct", "--plan", str(plan_path)]) == cli.EXIT_DATA
    assert cli.main(["evaluate", "--state", str(state_file),
                     "--reconstruction", str(other)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count(f"data error: state file {state_file} holds the zero state") == 2


def test_non_finite_state_file_exits_data(tmp_path, capsys):
    cores = [c.copy() for c in states.ghz(4).cores]
    cores[1][0, 0, 0] = np.inf
    state_file = tmp_path / "inf.ttc"
    serialize.write_ttc1(state_file, Mps(cores))
    plan_path = _state_file_plan(tmp_path, state_file)
    assert cli.main(["reconstruct", "--plan", str(plan_path)]) == cli.EXIT_DATA
    assert cli.main(["evaluate", "--state", str(state_file),
                     "--reconstruction", str(state_file)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count(f"data error: state file {state_file} holds non-finite entries") == 2


def test_non_finite_reconstruction_exits_data(tmp_path, capsys):
    state_file = tmp_path / "ghz.ttc"
    serialize.write_ttc1(state_file, states.ghz(4))
    t = states.pure_state_coeff(states.ghz(4))
    cores = [c.copy() for c in t.cores]
    cores[2][0, 1, 0] = np.nan
    rec = tmp_path / "nan.ttr"
    serialize.write_ttr1(rec, tt.TtTensor(cores))
    assert cli.main(["evaluate", "--state", str(state_file),
                     "--reconstruction", str(rec)]) == cli.EXIT_DATA
    assert f"data error: reconstruction {rec} holds non-finite entries" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--family", "random_mps", "--n", "4", "--d", "0"], "state.d must be at least 2, got 0"),
        (["--family", "random_mps", "--n", "4", "--d", "1"], "state.d must be at least 2, got 1"),
        (["--family", "ising_ground", "--n", "4", "--coupling", "inf"],
         "state.coupling must be finite, got inf"),
        (["--family", "ising_ground", "--n", "4", "--coupling", "NaN"],
         "state.coupling must be finite, got nan"),
        (["--family", "ising_ground", "--n", "4", "--set", "state.coupling=-Infinity"],
         "state.coupling must be finite, got -inf"),
    ],
    ids=["d=0", "d=1", "coupling=inf", "coupling=NaN", "set-coupling=-inf"],
)
def test_generate_state_checks_exit_config(tmp_path, capsys, flags, named):
    out = tmp_path / "s.ttc"
    assert cli.main(["generate-state", *flags, "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"config error: {named}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cap", ["2.0", '"2"'])
def test_integral_rank_cap_is_an_integer_cap(tmp_path, cap):
    plan_path, _ = base_plan(tmp_path, max_iters=20, stop_rel_error=None)
    assert cli.main(["reconstruct", "--plan", str(plan_path),
                     "--set", f"solver.ranks={cap}"]) == cli.EXIT_OK
    back = serialize.read_ttr1(tmp_path / "run" / "reconstruction_rep000.ttr")
    assert back.ranks == (2, 2, 2, 2)


def test_metadata_records_the_resolved_plan(tmp_path):
    # Every default is filled in: the records', the CLI's and the ranks.
    plan_path, plan = base_plan(tmp_path, max_iters=20, stop_rel_error=None)
    del plan["solver"]["log_every"], plan["init"], plan["repetitions"]
    plan_path.write_text(json.dumps(plan))
    assert cli.main(["reconstruct", "--plan", str(plan_path)]) == cli.EXIT_OK
    meta = json.loads((tmp_path / "run" / "metadata.json").read_text())
    assert meta["plan"] == plan
    resolved = meta["resolved_plan"]
    assert resolved["state"] == {"family": "random_mps", "n": 5, "d": 2, "rank": 2,
                                 "max_bond": 16, "coupling": 1.0, "seed": 3}
    assert resolved["measurement"] == {"source": "exact"}
    assert resolved["init"] == {"mode": "perturbed_truth", "delta": 0.1}
    assert (resolved["seed"], resolved["repetitions"]) == (7, 1)
    solver = resolved["solver"]
    assert solver["ranks"] == [4, 4, 4, 4] and solver["log_every"] == 50
    assert set(solver) == cli._section_keys("solver")


def test_replay_runs_the_resolved_plan(tmp_path, monkeypatch, capsys):
    # A changed record default would change a run of the plan as given; the
    # replay of a finished run keeps the default it used.
    plan_path, plan = base_plan(tmp_path, max_iters=60, stop_rel_error=None)
    del plan["solver"]["log_every"]
    plan_path.write_text(json.dumps(plan))
    assert cli.main(["reconstruct", "--plan", str(plan_path)]) == cli.EXIT_OK
    log_every = next(f for f in dataclasses.fields(solvers.SolverConfig) if f.name == "log_every")
    monkeypatch.setattr(log_every, "default", 7)
    assert next(cli._execute_plan(plan)).trace.iters[:3] == [0, 7, 14]
    assert cli.main(["replay", "--run-dir", str(tmp_path / "run")]) == cli.EXIT_OK
    assert "trace_rep000: identical" in capsys.readouterr().out


def test_replay_falls_back_to_the_plan_as_given(tmp_path, capsys):
    # Run directories written before the resolved plan existed still replay.
    plan_path, _ = base_plan(tmp_path, max_iters=60, stop_rel_error=None)
    assert cli.main(["reconstruct", "--plan", str(plan_path)]) == cli.EXIT_OK
    meta_path = tmp_path / "run" / "metadata.json"
    meta = json.loads(meta_path.read_text())
    del meta["resolved_plan"]
    meta_path.write_text(json.dumps(meta))
    assert cli.main(["replay", "--run-dir", str(tmp_path / "run")]) == cli.EXIT_OK
    assert "trace_rep000: identical" in capsys.readouterr().out


@pytest.mark.parametrize(
    "orig, new, want",
    [(["a,b", "1,2", "3,4"], ["a,b", "1,2.5", "3,5"], "largest relative differences b 2.0e-01"),
     (["a,b", "1,2"], ["a,b", "1,2", "3,4"], "row counts 1 and 2"),
     (["a,b", "0,nan"], ["a,b", "0.0,1"], "largest relative differences a 0.0e+00, b inf")],
    ids=["columns", "rows", "nan"],
)
def test_trace_mismatch_names_columns_or_row_counts(orig, new, want):
    assert cli._trace_mismatch(orig, new) == want


@pytest.mark.parametrize("command", ["init", "reconstruct"])
@pytest.mark.parametrize("mu", [[], ["--set", "init.mu=4"]], ids=["no-mu", "mu"])
def test_spectral_init_past_the_dense_cap_exits_config(tmp_path, capsys, command, mu):
    # n=16 qubits: stage one's moment matrix is (4^6)^2 entries, above
    # tt.DENSE_CAP; that is a plan error, found before the coherence report.
    plan_path, _ = base_plan(tmp_path)
    args = [command, "--plan", str(plan_path), "--out", str(tmp_path / "out"), "--set",
            "state.n=16", *(a for item in _SPECTRAL for a in ("--set", item)), *mu]
    assert cli.main(args) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: spectral init: stage-one moment matrix needs 4096^2 entries" in err
    assert f"dense cap of {tt.DENSE_CAP} entries" in err
    assert not (tmp_path / "out").exists()


def _no_solve(*args, **kwargs):
    raise AssertionError("the run computed before its output path was checked")


@pytest.mark.parametrize(
    "args, named",
    [(["reconstruct", "--plan", "{dir}"], "{dir}"),
     (["reconstruct", "--plan", "{plan}", "--out", "{file}"], "{file}"),
     (["init", "--plan", "{plan}", "--out", "{file}", *(
         a for item in _SPECTRAL for a in ("--set", item))], "{file}"),
     (["generate-state", "--family", "ghz", "--n", "4", "--out", "{file}/g.ttc"], "{file}"),
     (["replay", "--run-dir", "{file}"], "{file}/metadata.json")],
    ids=["plan-is-a-directory", "reconstruct-out-is-a-file", "init-out-is-a-file",
         "generate-out-under-a-file", "run-dir-is-a-file"],
)
def test_path_errors_exit_data_naming_the_path_before_computing(tmp_path, capsys, monkeypatch,
                                                                args, named):
    # An unusable path is a data error that names it, found before the
    # initializer or the solver runs.
    plan_path, _ = base_plan(tmp_path)
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(solvers, "orgd_run", _no_solve)
    monkeypatch.setattr(solvers, "spectral_init", _no_solve)
    paths = {"dir": tmp_path, "plan": plan_path, "file": tmp_path / "file"}
    assert cli.main([a.format(**paths) for a in args]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert f"'{named.format(**paths)}'" in err
