"""Experiment harness: state generation, reconstruction, evaluation, replay.

Subcommands
    generate-state   write a target state as TTC1 plus a metadata record
    reconstruct      run a full plan: state -> measurements -> init -> solver
    init             run only the spectral initializer from a plan
    evaluate         relative Frobenius error / fidelity of a reconstruction
    replay           re-run a finished plan and compare traces byte-for-byte

Plans are JSON files (see README for the schema); any entry can be
overridden on the command line with ``--set path.to.key=value``.
``reconstruct`` writes each repetition's files as the repetition ends.  A
repetition whose step fails still writes its trace so far, the iterate the
failed step started from and a ``failure`` record, and the run stops there.

Exit codes: 0 ok, 2 configuration error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, manifold, measurement, mpo, serialize, solvers, states, tt

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_STREAM_SALT = 0x53544D  # distinct rng lanes within one repetition
_INIT_SALT = 0x494E49

# The plan keys that no library record owns, with their defaults; a section
# (a dict here) also takes the fields of its records in _RECORDS.
_CLI_KEYS = {
    "seed": 0, "output_dir": "run", "repetitions": 1, "log_measurements": False,
    "state_file": None,
    "state": {},
    "measurement": {"source": "exact"},
    "solver": {"algorithm": "orgd", "ranks": "target", "dataset_size": 0},
    "init": {"mode": "perturbed_truth", "delta": 0.1, "rank": 2},
}
_SOURCES = {"exact": measurement.ExactSource, "shot": measurement.ShotSource,
            "gaussian": measurement.GaussianSource}
_RECORDS = {"state": (states.StateSpec,), "measurement": tuple(_SOURCES.values()),
            "solver": (solvers.SolverConfig,), "init": (solvers.InitConfig,)}
_KINDS = {"int": int, "float": float, "float | None": float, "str": str}
# The type of each top-level plan key that no record or conversion checks.
_KEY_TYPES = {"log_measurements": bool, "output_dir": str, "state_file": str}


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


def _plan_value(kind, value, what):
    """``kind(value)`` for the plan entry ``what``; ``ConfigError`` when it does not convert.

    A bool is refused, and an ``int`` entry must be integral: an integer, an
    integral float or a digit string, never a fractional float rounded down.
    """
    try:
        if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                       and not value.is_integer()):
            raise TypeError("not a number the entry can hold")
        return kind(value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{what} must be {kind.__name__}, got {value!r}") from exc


def _seed(value, what):
    """The plan seed ``what``: an int in [0, 2^64), the Philox key range."""
    seed = _plan_value(int, value, what)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{what} must be in [0, 2^64), got {seed}")
    return seed


def _section_keys(name):
    """The keys plan section ``name`` accepts: its CLI keys and its records' fields."""
    return {*_CLI_KEYS[name], *(f.name for cls in _RECORDS[name] for f in dataclasses.fields(cls))}


def _section(plan, name):
    """Plan section ``name`` over the defaults of its CLI keys."""
    return {**_CLI_KEYS[name], **plan.get(name, {})}


def _record(cls, section, name, **given):
    """The record ``cls`` with the ``given`` fields, and every other read from ``section``.

    A field takes the key of its name, or the record's default when the key
    is absent.  Its annotation picks the conversion: ``_plan_value`` to int,
    float or str, None kept for an optional float, ``_seed`` for a seed.
    The record checks the values, and it names the field at fault first, so
    its error reads as one about the plan key ``name.field``.
    """
    for f in dataclasses.fields(cls):
        if f.name in given:
            continue
        value = section.get(f.name, f.default)
        if value is dataclasses.MISSING:
            raise ConfigError(f"plan.{name} needs {f.name!r}")
        key = f"{name}.{f.name}"
        if f.name in ("seed", "shuffle_seed"):
            given[f.name] = _seed(value, key)
        elif value is None and f.type.endswith("| None"):
            given[f.name] = None
        else:
            given[f.name] = _plan_value(_KINDS[f.type], value, key)
    try:
        return cls(**given)
    except (states.StateError, solvers.SolverError) as exc:
        raise ConfigError(f"{name}.{exc}") from exc


def _load_plan(path, overrides):
    """The plan in ``path`` (empty when None), with ``overrides`` applied."""
    plan = {}
    if path is not None:
        try:
            with open(path) as fh:
                plan = json.load(fh)
        except FileNotFoundError as exc:
            raise DataError(f"plan file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"plan is not valid JSON: {exc}") from exc
    return _checked_plan(plan, overrides)


def _checked_plan(plan, overrides=None):
    """``plan`` with the ``--set key.path=value`` items applied; unknown keys rejected."""
    if not isinstance(plan, dict):
        raise ConfigError("plan must be a JSON object")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must look like key.path=value: {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = plan
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {key!r} crosses a non-object")
        node[parts[-1]] = value
    for key, value in plan.items():
        if key not in _CLI_KEYS:
            raise ConfigError(f"unknown plan key {key!r}")
        kind = _KEY_TYPES.get(key)
        if kind is not None and not isinstance(value, kind):
            raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}")
        if key not in _RECORDS:
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"plan.{key} must be an object")
        unknown = sorted(set(value) - _section_keys(key))
        if unknown:
            raise ConfigError(f"unknown plan key '{key}.{unknown[0]}'")
    return plan


def _read_chain(read, path, what):
    """``read(path)``, whose cores must all be finite; ``DataError`` naming the file else."""
    try:
        obj = read(path)
    except (OSError, serialize.SerializationError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    if not np.isfinite(np.concatenate(obj.cores, axis=None)).all():
        raise DataError(f"{what} {path} holds non-finite entries")
    return obj


def _load_coeff(path):
    """Coefficient tensor of a TTC1 state file, and its pure ``Mps`` or None.

    An ``Mps`` maps through ``pure_state_coeff``; an MPO maps through
    ``mpo_to_coeff``, which checks the Hermitian core form.  A file with a
    non-finite entry, of the zero state or of an MPO without that form is a
    ``DataError``.
    """
    obj = _read_chain(serialize.read_ttc1, path, "state file")
    if isinstance(obj, mpo.Mps):
        coeff, psi = states.pure_state_coeff(obj), obj
    else:
        try:
            coeff, psi = mpo.mpo_to_coeff(obj), None
        except mpo.MpoError as exc:
            raise DataError(f"MPO in {path} does not satisfy the Hermitian core form") from exc
    if tt.tt_norm(coeff) == 0.0:
        raise DataError(f"state file {path} holds the zero state")
    return coeff, psi


def _target_from_plan(plan):
    """Returns (coefficient tensor, pure Mps or None, metadata, resolved state entry)."""
    if "state_file" in plan:
        target, psi = _load_coeff(plan["state_file"])
        return target, psi, {"source": plan["state_file"]}, {"state_file": plan["state_file"]}
    spec = _record(states.StateSpec, _section(plan, "state"), "state")
    psi, meta = states.make_state(spec)
    return states.pure_state_coeff(psi), psi, meta, {"state": dataclasses.asdict(spec)}


def _measurement_source(plan):
    """The plan's measurement source record and its resolved section."""
    m = _section(plan, "measurement")
    kind = m["source"]
    if not isinstance(kind, str) or kind not in _SOURCES:
        raise ConfigError(f"unknown measurement source {kind!r}")
    source = _record(_SOURCES[kind], m, "measurement")
    return source, {"source": kind, **dataclasses.asdict(source)}


def _make_stream(source, target, seed):
    """The stream of ``source``; ``ConfigError`` when the stream refuses the source."""
    try:
        return measurement.make_stream(target, source, seed ^ _STREAM_SALT)
    except measurement.MeasurementError as exc:
        raise ConfigError(f"invalid measurement plan: {exc}") from exc


def _solver_ranks(ranks, target):
    """The ranks of the plan entry ``solver.ranks`` for ``target``."""
    n = target.n
    d2 = target.mode_dims[0]
    if ranks == "target":
        return target.ranks
    if isinstance(ranks, list):
        if len(ranks) != n - 1:
            raise ConfigError(f"need {n - 1} ranks, got {len(ranks)}")
        ranks = tuple(_plan_value(int, r, "solver.ranks") for r in ranks)
        try:
            tt._check_ranks_feasible(target.mode_dims, ranks)
        except tt.TtError as exc:
            raise ConfigError(f"solver.ranks: {exc}") from exc
        return ranks
    try:
        cap = _plan_value(int, ranks, "solver.ranks")
    except ConfigError:
        raise ConfigError("solver.ranks must be 'target', an integer cap, or a list") from None
    if cap < 1:
        raise ConfigError(f"solver.ranks cap must be at least 1, got {cap}")
    return tuple(min(d2**k, d2 ** (n - k), cap) for k in range(1, n))


def _solver_config(plan, target):
    """The plan's algorithm, ``SolverConfig`` and dataset size."""
    s = _section(plan, "solver")
    algorithm = s["algorithm"]
    if algorithm not in ("orgd", "rgd", "rsgd"):
        raise ConfigError(f"unknown solver algorithm {algorithm!r}")
    cfg = _record(solvers.SolverConfig, s, "solver", ranks=_solver_ranks(s["ranks"], target))
    dataset_size = _plan_value(int, s["dataset_size"], "solver.dataset_size")
    if algorithm in ("rgd", "rsgd") and dataset_size < 1:
        raise ConfigError(f"{algorithm} needs solver.dataset_size >= 1")
    return algorithm, cfg, dataset_size


def _init_section(plan, target, ranks):
    """The plan's init section resolved for ``target`` at ``ranks``, every setting checked.

    A spectral init is first checked against the initializer's size caps,
    then takes a missing ``mu`` or ``nu`` from the target's coherence report;
    a target too large for the report's incoherence needs ``init.mu`` in the
    plan.
    """
    init = _section(plan, "init")
    mode = init["mode"]
    if mode == "perturbed_truth":
        delta = _plan_value(float, init["delta"], "init.delta")
        if not 0 <= delta < np.inf:
            raise ConfigError(f"init.delta must be finite and nonnegative, got {delta}")
        return {"mode": mode, "delta": delta}
    if mode == "random_mpo":
        return {"mode": mode, "rank": _plan_value(int, init["rank"], "init.rank")}
    if mode == "spectral":
        try:
            solvers._init_sizes(target.mode_dims, ranks)
        except solvers.InitError as exc:
            raise ConfigError(f"spectral init: {exc}") from exc
        if init.get("mu") is None or init.get("nu") is None:
            rep = tt.coherence_report(target)
            mu = None if rep.incoherence is None else rep.incoherence**2
            init.update((k, v) for k, v in {"mu": mu, "nu": rep.spikiness}.items()
                        if init.get(k) is None)
            if init["mu"] is None:
                raise ConfigError("spectral init needs init.mu: the target is too large "
                                  "for its coherence report to give the incoherence")
        return {"mode": mode, **dataclasses.asdict(_record(solvers.InitConfig, init, "init"))}
    raise ConfigError(f"unknown init mode {mode!r}")


def _initial_iterate(init, target, ranks, stream, rep_seed):
    """The start iterate of the resolved init section ``init``, and run info."""
    mode = init["mode"]
    if mode == "perturbed_truth":
        rng = measurement.make_rng(rep_seed ^ _INIT_SALT)
        pert = tt.random_tt(target.mode_dims, ranks, rng, kind="gaussian")
        pert = tt.tt_scale(init["delta"] / tt.tt_norm(pert), pert)
        base = tt.ttsvd(target, ranks) if target.ranks != ranks else target
        return tt.ttsvd(tt.tt_axpy(1.0, pert, base), ranks), {}
    if mode == "random_mpo":
        psi = states.random_mps(target.n, int(np.sqrt(target.mode_dims[0])), init["rank"],
                                seed=rep_seed ^ _INIT_SALT)
        t0 = states.pure_state_coeff(psi)
        if t0.ranks != ranks:
            t0 = tt.ttsvd(t0, ranks)
        return t0, {}
    icfg = solvers.InitConfig(**{k: v for k, v in init.items() if k != "mode"})
    return solvers.spectral_init(stream, icfg, ranks)


class _RecordingStream:
    """Stream wrapper that keeps every drawn ``(idx, y)`` batch."""

    def __init__(self, stream):
        self._inner = stream
        self.batches = []

    def draw_batch(self, batch_size):
        idx, y = self._inner.draw_batch(batch_size)
        self.batches.append((idx, y))
        return idx, y

    def log(self):
        """``(idx, y, shots)`` of every draw so far, as ``measurement.write_log`` takes them."""
        if not self.batches:
            return None
        src = self._inner.source
        shots = src.shots if isinstance(src, measurement.ShotSource) else None
        idx, y = zip(*self.batches)
        return np.concatenate(idx), np.concatenate(y), shots

    def __getattr__(self, name):
        return getattr(self._inner, name)


def cmd_generate_state(args):
    # The flags fill the plan's state section; --set overrides both.
    plan = _load_plan(args.plan, None)
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(states.StateSpec)}
    plan.setdefault("state", {}).update({k: v for k, v in flags.items() if v is not None})
    plan = _checked_plan(plan, args.set)
    psi, meta = states.make_state(_record(states.StateSpec, _section(plan, "state"), "state"))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    serialize.write_ttc1(out, psi)
    meta_record = {
        "format": "TTC1",
        "rng": measurement.RNG_ALGORITHM,
        "versions": _versions(),
        "state": meta,
    }
    with open(out.with_suffix(out.suffix + ".meta.json"), "w") as fh:
        json.dump(meta_record, fh, indent=2, sort_keys=True)
    print(f"wrote {out} ({meta['family']}, n={meta['n']})")
    return EXIT_OK


def _versions():
    import scipy

    return {"ttqst": __version__, "numpy": np.__version__, "scipy": scipy.__version__}


# One repetition of a run, as it ended: the plan as the run resolved it, the
# iterate (the start of the failed step when ``error`` is set), the trace, the
# measurement log or None, the metadata record and the ``StepError`` or None.
_Repetition = collections.namedtuple("_Repetition", "resolved iterate trace log meta error")


def _write_repetition(outdir, plan, rep, metas):
    """Writes the files of ``rep`` into ``outdir``, then ``metadata.json``.

    ``rep``'s metadata joins ``metas``, the records of the repetitions
    written before it, and ``metadata.json`` lists them all.
    """
    i = rep.meta["repetition"]
    rep.trace.to_csv(outdir / f"trace_rep{i:03d}.csv")
    serialize.write_ttr1(outdir / f"reconstruction_rep{i:03d}.ttr", rep.iterate)
    if rep.log is not None:
        measurement.write_log(outdir / f"measurements_rep{i:03d}.csv", *rep.log)
    metas.append(rep.meta)
    metadata = {
        "plan": plan,
        "resolved_plan": {**rep.resolved, "output_dir": str(outdir)},
        "rng": measurement.RNG_ALGORITHM,
        "versions": _versions(),
        "repetitions": metas,
    }
    with open(outdir / "metadata.json", "w") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True)


def _execute_plan(plan, outdir=None):
    """Runs every repetition of ``plan``, yielding a ``_Repetition`` as each ends.

    The plan is resolved first, so a configuration error stops the run
    before ``outdir``, when given, is made; the directory is made before the
    initializer or the solver runs.  A repetition whose step raises
    ``solvers.StepError`` yields its trace so far, the iterate the failed
    step started from, a ``failure`` entry in its metadata and the error;
    the run stops there.
    """
    target, psi, state_meta, resolved = _target_from_plan(plan)
    algorithm, cfg, dataset_size = _solver_config(plan, target)
    source, resolved["measurement"] = _measurement_source(plan)
    top = {**_CLI_KEYS, **plan}
    repetitions = _plan_value(int, top["repetitions"], "repetitions")
    if repetitions < 1:
        raise ConfigError("repetitions must be at least 1")
    resolved.update(seed=_seed(top["seed"], "seed"), repetitions=repetitions,
                    log_measurements=top["log_measurements"],
                    solver={"algorithm": algorithm, "dataset_size": dataset_size,
                            **dataclasses.asdict(cfg)},
                    init=_init_section(plan, target, cfg.ranks))
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
    for rep in range(repetitions):
        seed = resolved["seed"] ^ rep
        stream = _make_stream(source, target, seed)
        if top["log_measurements"]:
            stream = _RecordingStream(stream)
        t0, info = _initial_iterate(resolved["init"], target, cfg.ranks, stream, seed)
        error = None
        try:
            if algorithm == "orgd":
                out, trace = solvers.orgd_run(t0, stream, cfg, ground_truth=target,
                                              pure_target=psi)
            else:
                run = solvers.rgd_offline_run if algorithm == "rgd" else solvers.rsgd_run
                out, trace = run(t0, stream.draw_batch(dataset_size), cfg, ground_truth=target,
                                 pure_target=psi)
        except solvers.StepError as exc:
            out, trace, error = exc.last_iterate, exc.trace, exc
        meta = {
            "repetition": rep,
            "seed": seed,
            "init": {**resolved["init"], **info,
                     "noise_proxy_variance": stream.noise_proxy_variance},
            "state": state_meta,
            "iterations": trace.iters[-1],
            "samples": trace.samples[-1],
            "final_rel_error": trace.rel_error[-1],
            "final_fidelity": trace.fidelity[-1],
        }
        if error is not None:
            meta["failure"] = {"kind": type(error).__name__, "iteration": error.iteration,
                               "cut": error.cut, "core": getattr(error, "core", None),
                               "message": str(error)}
        log = stream.log() if top["log_measurements"] else None
        yield _Repetition(resolved, out, trace, log, meta, error)
        if error is not None:
            return


def cmd_reconstruct(args):
    plan = _load_plan(args.plan, args.set)
    outdir = Path(args.out or plan.get("output_dir", _CLI_KEYS["output_dir"]))
    metas = []
    for rep in _execute_plan(plan, outdir):
        _write_repetition(outdir, plan, rep, metas)
        if rep.error is not None:
            raise rep.error
        meta = rep.meta
        rel = meta["final_rel_error"]
        fid = meta["final_fidelity"]
        print(
            f"rep {meta['repetition']}: iters {meta['iterations']} "
            f"samples {meta['samples']} rel_error "
            f"{'n/a' if rel is None else f'{rel:.3e}'} fidelity "
            f"{'n/a' if fid is None else f'{fid:.6f}'}"
        )
    print(f"outputs in {outdir}")
    return EXIT_OK


def cmd_init(args):
    plan = _load_plan(args.plan, args.set)
    if _section(plan, "init")["mode"] != "spectral":
        raise ConfigError("the init subcommand requires init.mode = 'spectral'")
    target, psi, _, _ = _target_from_plan(plan)
    ranks = _solver_ranks(_section(plan, "solver")["ranks"], target)
    seed = _seed({**_CLI_KEYS, **plan}["seed"], "seed")
    stream = _make_stream(_measurement_source(plan)[0], target, seed)
    init = _init_section(plan, target, ranks)
    outdir = Path(args.out or plan.get("output_dir", _CLI_KEYS["output_dir"]))
    outdir.mkdir(parents=True, exist_ok=True)
    t0, info = _initial_iterate(init, target, ranks, stream, seed)
    serialize.write_ttr1(outdir / "t0.ttr", t0)
    rel = tt.tt_distance(t0, target) / tt.tt_norm(target)
    report = {"rel_error": rel, "samples": stream.consumed, "init": {**init, **info},
              "rng": measurement.RNG_ALGORITHM, "versions": _versions()}
    with open(outdir / "init_report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"init rel_error {rel:.4f} using {stream.consumed} samples -> {outdir}")
    return EXIT_OK


def _coeff_from_any(path):
    """Coefficient tensor of a TTR1 reconstruction or a TTC1 state file."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(4)
    except OSError as exc:
        raise DataError(f"cannot read reconstruction {path}: {exc}") from exc
    if head == b"TTR1":
        return _read_chain(serialize.read_ttr1, path, "reconstruction")
    return _load_coeff(path)[0]


def cmd_evaluate(args):
    t_ref, psi = _load_coeff(args.state)
    t_rec = _coeff_from_any(args.reconstruction)
    if t_rec.mode_dims != t_ref.mode_dims:
        raise DataError("state and reconstruction shapes do not match")
    d = tt.tt_distance(t_rec, t_ref) / tt.tt_norm(t_ref)
    line = f"D {repr(d)}"
    if psi is not None:
        # t_ref is psi's coefficient tensor: Parseval gives <psi|rho|psi>.
        f = abs(tt.tt_inner(t_rec, t_ref))
        line += f" f {repr(f)}"
    print(line)
    return EXIT_OK


def _relative_gap(a, b):
    """The relative difference of two trace fields; inf when either is not a number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return np.inf
    if x == y:
        return 0.0
    gap = abs(x - y) / max(abs(x), abs(y))
    return gap if gap == gap else np.inf  # NaN on one side, or inf against inf


def _trace_mismatch(orig, new):
    """How two traces' rows, as ``RunTrace.rows_excluding_wall`` reads them, differ.

    Each differing column with its largest relative difference, or the
    headers or row counts when those differ.
    """
    if orig[:1] != new[:1]:
        return f"headers {orig[:1]} and {new[:1]}"
    if len(orig) != len(new):
        return f"row counts {len(orig) - 1} and {len(new) - 1}"
    gaps = {}
    for row, other in zip(orig[1:], new[1:]):
        for name, a, b in zip(orig[0].split(","), row.split(","), other.split(",")):
            if a != b:
                gaps[name] = max(gaps.get(name, 0.0), _relative_gap(a, b))
    if not gaps:
        return "field counts"
    return "largest relative differences " + ", ".join(f"{k} {v:.1e}" for k, v in gaps.items())


def _trace_rows(path):
    """``RunTrace.rows_excluding_wall`` of ``path``; ``DataError`` naming it when it does not read."""
    try:
        return solvers.RunTrace.rows_excluding_wall(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read trace {path}: {exc}") from exc


def cmd_replay(args):
    rundir = Path(args.run_dir)
    meta_path = rundir / "metadata.json"
    try:
        with open(meta_path) as fh:
            metadata = json.load(fh)
    except FileNotFoundError as exc:
        raise DataError(f"no metadata.json in {rundir}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"corrupt {meta_path}: {exc}") from exc
    reps = metadata.get("repetitions") if isinstance(metadata, dict) else None
    if not reps or not isinstance(reps, list) or not all(isinstance(r, dict) for r in reps):
        raise DataError(f"{meta_path} holds no list of repetition records")
    # Older run directories echo only the plan as given.
    plans = [_checked_plan(metadata[k]) for k in ("plan", "resolved_plan") if k in metadata]
    if not plans:
        raise DataError(f"{meta_path} carries no plan echo")
    # Every original trace is read before any repetition runs again.
    origs = [_trace_rows(rundir / f"trace_rep{i:03d}.csv") for i in range(len(reps))]
    outdir = Path(args.out) if args.out else rundir / "replay"
    ok, metas = True, []
    # The replay stops where the original stopped: after its last repetition
    # recorded, or at the failure that ended it.
    for orig, orig_meta, rep in zip(origs, reps, _execute_plan(plans[-1], outdir)):
        _write_repetition(outdir, plans[0], rep, metas)
        i = rep.meta["repetition"]
        rows = _trace_rows(outdir / f"trace_rep{i:03d}.csv")
        failures = [m.get("failure") for m in (orig_meta, rep.meta)]
        same = orig == rows and failures[0] == failures[1]
        line = f"trace_rep{i:03d}: {'identical' if same else 'MISMATCH'} (wall-time excluded)"
        if orig != rows:
            line += ": " + _trace_mismatch(orig, rows)
        elif not same:
            line += f": failures {failures[0]} and {failures[1]}"
        print(line)
        ok = ok and same
        if rep.error is not None:
            raise rep.error
    return EXIT_OK if ok else EXIT_NUMERIC


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="ttqst",
        description="MPO state tomography via online Riemannian TT completion",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate-state", help="write a target state as TTC1")
    g.add_argument("--plan", help="optional plan JSON carrying a state section")
    g.add_argument("--set", action="append", help="override plan entries")
    for f in dataclasses.fields(states.StateSpec):  # one flag per state key
        g.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=_KINDS[f.type])
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate_state)

    r = sub.add_parser("reconstruct", help="run a reconstruction plan end to end")
    r.add_argument("--plan", required=True)
    r.add_argument("--set", action="append")
    r.add_argument("--out", help="output directory (defaults to plan.output_dir)")
    r.set_defaults(func=cmd_reconstruct)

    i = sub.add_parser("init", help="run the spectral initializer only")
    i.add_argument("--plan", required=True)
    i.add_argument("--set", action="append")
    i.add_argument("--out")
    i.set_defaults(func=cmd_init)

    e = sub.add_parser("evaluate", help="D and fidelity of a reconstruction")
    e.add_argument("--state", required=True, help="TTC1 state file")
    e.add_argument("--reconstruction", required=True, help="TTR1 or TTC1 file")
    e.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("replay", help="re-run a plan and compare traces")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_replay)
    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the config-error code.
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        # An OSError is a path that cannot be read or written; its message names it.
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (
        solvers.SolverError,
        manifold.ManifoldError,
        mpo.MpoError,
        tt.TtError,
        states.DmrgError,
        measurement.MeasurementError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except states.StateError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
