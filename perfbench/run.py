"""ttqst benchmark: round latency, time to solution and per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload online-n16 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One workload runs in one process, one solve at a time.  The run sets up its
inputs several times (``setup_s`` is the median), then repeats an identical
solve until the next one would end after ``--seconds``; every solve's output
is checked.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced solves with traced set-up-and-solve passes and reports
per-layer self times, call counts and the tracing overhead.
``--workload all`` runs every workload in its own child process and prints a
table.  The last line of standard output is always one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; earlier lines
give the run context, informational figures and failed checks.
"""

import os

# Pinned before numpy loads BLAS: on two cores a second BLAS thread bought nothing.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"
# Held back from tuning: a later speed claim must also hold on this seed.
HELD_OUT_SEED = 7919
# Set-up repeats: at least this many, then more while under the time budget.
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 200
SETUP_BUDGET_S = 2.0

# On a shared two-core host the same work took from 1x to over 1.6x its
# fastest time, in stretches of 0.3-4 s, and the host drifted by up to 30%
# over minutes.  The fastest round of a run moved least between runs; whole
# solve times moved with the drift, so they are printed but not gated.
END_TO_END = (
    ("setup_s", "s"),
    ("round_ms_min", "ms"),
    ("samples_to_target", "count"),
    ("peak_rss_mb", "MB"),
)


def load_library():
    """Import ttqst from this checkout's ``src/``, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "ttqst" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ttqst sources under {src}")
    sys.path.insert(0, str(src))


def per_layer_names():
    import spans

    names = []
    for span in spans.ROUND_SPANS:
        names += [(f"{span}.ms_per_round", "ms"), (f"{span}.calls", "count")]
    for span in spans.ONCE_SPANS:
        names += [(f"{span}.ms", "ms"), (f"{span}.calls", "count")]
    return names + [
        ("solve.rounds", "count"),
        ("solve.samples", "count"),
        ("trace.overhead_round_ms", "ms"),
        ("trace.overhead_solve_ms", "ms"),
    ]


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def run_context(seed):
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in PINNED_THREADS},
        "commit": git_commit(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def tail(values):
    """Highest percentile with at least ten values beyond it: ``(percentile, value)``."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return None
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def timed_solves(workload, problem, workdir, seconds):
    """Identical solves until the next one would end after ``seconds``; at least one."""
    solves = []
    start = time.perf_counter()
    while True:
        solves.append(workload.solve(problem, workdir))
        if time.perf_counter() - start + solves[-1].wall_s > seconds:
            return solves


def check_same_iterate(solves, reference, what):
    for solve in solves:
        if solve.final_bytes != reference.final_bytes:
            solve.problems.append(f"final iterate differs from the {what}")


def measure(workload, seed, seconds, workdir):
    setup_s = []
    while len(setup_s) < SETUP_MIN_REPEATS or (
        sum(setup_s) < SETUP_BUDGET_S and len(setup_s) < SETUP_MAX_REPEATS
    ):
        start = time.perf_counter()
        problem = workload.setup(seed, workdir)
        setup_s.append(time.perf_counter() - start)
    solves = timed_solves(workload, problem, workdir, seconds)
    check_same_iterate(solves[1:], solves[0], "first solve's")
    first = solves[0]
    round_ms = [1e3 * r for s in solves for r in s.round_s]
    solve_s = min(s.wall_s for s in solves)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "round_ms_min": min(round_ms),
        "samples_to_target": first.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"set-ups {len(setup_s)}, solves {len(solves)}, rounds per solve {first.rounds}, "
        f"rounds timed {len(round_ms)}",
        f"solve_s fastest {solve_s:.6g} median "
        f"{statistics.median(s.wall_s for s in solves):.6g} (wall_s_to_target on "
        f"ising-n6, reconstruct_s on cli-shot-trim-n6); samples_per_s "
        f"{first.samples / solve_s:.6g} (fastest solve)",
        f"round_ms median {statistics.median(round_ms):.6g}; fastest set-up "
        f"{min(setup_s):.6g} s",
        f"rel. error start {first.start_error!r} final {first.final_error!r}",
    ]
    high = tail(round_ms)
    if high is not None:
        notes.append(f"round_ms_tail p{high[0]:.2f} = {high[1]:.4f} ms "
                     f"(of {len(round_ms)} rounds, 10 beyond)")
    return metrics, solves, notes


def measure_traced(workload, seed, seconds, workdir):
    """Alternate untraced solves with traced set-up-and-solve passes."""
    import spans

    problem = workload.setup(seed, workdir)
    tracer = spans.Tracer()
    untraced, passes = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        untraced.append(workload.solve(problem, workdir))
        tracer.install()
        try:
            solve = workload.solve(workload.setup(seed, workdir), workdir)
        finally:
            tracer.uninstall()
        passes.append((solve, spans.self_times(tracer.take())))
        if time.perf_counter() - start + (time.perf_counter() - began) > seconds:
            break
    solves = [solve for solve, _ in passes]
    check_same_iterate(untraced[1:] + solves, untraced[0], "untraced solve's")
    calls = {name: c for name, (_, c) in passes[0][1].items()}
    for solve, times in passes[1:]:
        if {name: c for name, (_, c) in times.items()} != calls:
            solve.problems.append("span call counts differ from the first traced pass")

    first = solves[0]
    metrics = {}
    for span in spans.ROUND_SPANS + spans.ONCE_SPANS:
        self_s = sum(times.get(span, (0.0, 0))[0] for _, times in passes) / len(passes)
        if span in spans.ROUND_SPANS:
            metrics[f"{span}.ms_per_round"] = 1e3 * self_s / first.rounds
        else:
            metrics[f"{span}.ms"] = 1e3 * self_s
        metrics[f"{span}.calls"] = calls.get(span, 0)
    metrics["solve.rounds"] = first.rounds
    metrics["solve.samples"] = first.samples
    metrics["trace.overhead_round_ms"] = 1e3 * (
        min(r for s in solves for r in s.round_s) - min(r for s in untraced for r in s.round_s)
    )
    metrics["trace.overhead_solve_ms"] = 1e3 * (
        min(s.wall_s for s in solves) - min(s.wall_s for s in untraced)
    )
    notes = [f"traced passes {len(passes)}, each after an untraced solve; "
             f"rounds per solve {first.rounds}"]
    return metrics, untraced + solves, notes


def run_one(args):
    import workloads

    params = workloads.TINY[args.workload] if args.tiny else {}
    workload = workloads.WORKLOADS[args.workload](**params)
    context = run_context(args.seed)
    WORKDIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    try:
        if args.trace:
            metrics, solves, notes = measure_traced(workload, args.seed, args.seconds, workdir)
            units = dict(per_layer_names())
        else:
            metrics, solves, notes = measure(workload, args.seed, args.seconds, workdir)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run still uses it

    failed = sum(1 for s in solves if s.problems)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}{'  tiny' if args.tiny else ''}")
    print("context " + json.dumps(context, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:<40} {metrics[name]:>16.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(f"  checks: {len(solves)} solves, {failed} failed, failed_frac {failed / len(solves):g}")
    for i, solve in enumerate(solves):
        for problem in solve.problems:
            print(f"  FAILED check, solve {i}: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(solves),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_all(args):
    """Every workload in a fresh child process, one at a time, then a table."""
    import workloads

    results, contexts = {}, {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"perfbench: workload {name} exited with code {proc.returncode}")
        lines = proc.stdout.splitlines()
        results[name] = json.loads(lines[-1])
        contexts[name] = json.loads(next(
            line[len("context "):] for line in lines if line.startswith("context ")
        ))
    names = list(next(iter(results.values()))["metrics"])
    print()
    print(f"{'metric':<40} {'unit':>6} " + " ".join(f"{w:>17}" for w in results))
    for metric in names:
        unit = results[next(iter(results))]["metrics"][metric]["unit"]
        print(f"{metric:<40} {unit:>6} " + " ".join(
            f"{r['metrics'][metric]['value']:>17.6g}" for r in results.values()))
    print(f"{'failed_frac':<40} {'':>6} " + " ".join(
        f"{r['failed'] / r['attempted']:>17.6g}" for r in results.values()))
    if args.out:
        record = {w: dict(results[w], context=contexts[w]) for w in results}
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="small sizes, for the smoke check")
    ap.add_argument("--out", help="with --workload all: write the results and contexts here")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def main(argv=None):
    args = parse_args(argv)
    load_library()
    import workloads

    if args.workload not in ("all", *workloads.WORKLOADS):
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose all or one of {', '.join(workloads.WORKLOADS)}")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
