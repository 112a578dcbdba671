"""Smoke check of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Checks that BENCHMARK.json parses and keeps to its schema, that every
workload emits exactly the named metrics with their units in both trace
modes, and that the benchmark fails without a result where the library's
sources are missing.  Exits 0 when every check passes.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_spec(spec):
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    names = set()
    for group, fields in (("workloads", {"name", "why"}),
                          ("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for entry in spec.get(group, []):
            if set(entry) != fields:
                problems.append(f"{group} entry {entry} lacks or adds keys")
                continue
            if not NAME.match(entry["name"]) or entry["name"] in names:
                problems.append(f"bad or repeated name {entry['name']!r}")
            names.add(entry["name"])
            if "unit" in entry and not UNIT.match(entry["unit"]):
                problems.append(f"bad unit {entry['unit']!r}")
            if "better" in entry and entry["better"] not in ("higher", "lower"):
                problems.append(f"bad direction for {entry['name']}")
            if "bound" in entry and not 0 < entry["bound"] <= 0.25:
                problems.append(f"bound of {entry['name']} outside (0, 0.25]")
            if "why" in entry and (len(entry["why"]) > 200 or "\n" in entry["why"]):
                problems.append(f"why of {entry['name']} is not one short line")
    setup = [e for e in spec.get("end_to_end", []) if e.get("name") == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    return problems


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_run(spec, workload, trace):
    expected = {e["name"]: e["unit"] for e in spec["per_layer" if trace else "end_to_end"]}
    cmd = spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr[-400:]}"]
    result = last_json(proc.stdout)
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"{where}: last line is not a result object"]
    problems = []
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: checks failed: {proc.stdout[-800:]}")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metric names or units differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}")
    for name, m in result["metrics"].items():
        value = m.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r} is not a finite number")
    return problems


def check_bare_directory(spec):
    """Without the library's sources the benchmark must fail and print no result."""
    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR, prefix="bare-") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                                 "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    try:
        WORKDIR.rmdir()
    except OSError:
        pass  # a benchmark run still uses it
    if proc.returncode == 0 or last_json(proc.stdout) is not None:
        return ["benchmark did not fail in a directory without the library's sources"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_spec(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
    problems += check_bare_directory(spec)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
