"""The witness benchmark: one command, every metric, every session judged.

Run from the checkout root (the benchmark always works on the checkout it
lives in)::

    python3 witbench/run.py --workload scroll-tall --seed 0 --seconds 30 --trace 0

Workloads (see ``witbench/README.md``): ``scroll-tall`` and
``short-forms``.  Each run

1. makes sure the witness's trained models exist in the checkout's
   ``.witbench/models`` (``$REPRO_MODEL_DIR``), training them there on
   the first run -- outside ``setup_s``;
2. sets up the workload in a fresh interpreter that then drives the
   work ``--seconds`` sets (about that long on a 2-core machine; see
   ``workloads.run_size``), judging every session with the session
   oracle; between its scenarios it sets the workload up again in
   fresh set-up-only interpreters (``driver.SETUP_REPEATS``), and
   ``setup_s`` is the median of all these set-ups;
3. prints every metric by name and unit, the sessions attempted and
   failed, and the environment, then one JSON line: the end-to-end
   metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Every workload interpreter gets ``PYTHONHASHSEED`` from ``--seed``.  The
exit code is 0 only if every step ran; a fail-open session sets
``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

#: The checkout root: this file lives in ``<root>/witbench``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from witbench.workloads import WORKLOADS  # noqa: E402 - needs ROOT on sys.path

#: A run, model training excepted, must end within this many seconds.
RUN_BUDGET_S = 170.0
#: First-run model training may take this long.
PREPARE_BUDGET_S = 840.0


def fail(message: str, code: int = 2) -> int:
    print(f"witbench: {message}", file=sys.stderr)
    return code


def child_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["REPRO_MODEL_DIR"] = os.path.join(ROOT, ".witbench", "models")
    return env


def run_child(args: list, env: dict, timeout: float) -> dict:
    """Run ``python3 -m witbench.driver ARGS``; returns its last JSON line."""
    proc = subprocess.run(
        [sys.executable, "-m", "witbench.driver", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-20:])
        raise RuntimeError(f"workload process {args[0]} exited {proc.returncode}:\n{tail}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"workload process {args[0]} printed no result")
    return json.loads(lines[-1])


def commit() -> str:
    """The checkout's commit, when it is a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def report(result: dict, setups: list, trace: bool) -> None:
    """Print every metric by name and unit, and the session accounting."""
    print(f"workload {result['workload']}  ({result['scenarios']} scenarios, closed loop)")
    print(f"  setup_s = {statistics.median(setups):.4f} s  (median of {len(setups)}: "
          + ", ".join(f"{s:.4f}" for s in setups) + ")")
    samples = result["samples"]
    counts = {
        "frame_ms.p50": samples["frame_ms"], "frame_ms.p95": samples["frame_ms"],
        "start_ms.p50": samples["start_ms"],
        "witness_s_per_session": samples["sessions"], "sessions_per_s": samples["sessions"],
    }
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.4f} {metric['unit']}  (n={counts[name]})")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  sessions attempted = {attempted}  failed = {failed}  "
          f"failed_ratio = {failed / attempted:.4f}  fail_open = {result['fail_open']}  "
          f"false_refusals = {result['false_refusals']}")
    for session in result["sessions"]:
        if not session["ok"]:
            print(f"    FAILED {session['key']}: {session['reason']}")
    if trace:
        traced = result["traced"]
        print("  traced run (per layer):")
        for name, metric in traced["metrics"].items():
            print(f"    {name} = {metric['value']:.4f} {metric['unit']}")
        ranking = sorted(traced["stage_self_ms_per_session"].items(), key=lambda kv: -kv[1])
        print("  frame stage self ms/session: "
              + ", ".join(f"{name} {ms:.1f}" for name, ms in ranking))
        print(f"  traced sessions attempted = {traced['attempted']}  failed = "
              f"{traced['failed']}  fail_open = {traced['fail_open']}")
        if "spans_file" in traced:
            print(f"  spans: {traced['spans_file']}")
    print("  environment: " + json.dumps(result["environment"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 witbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed <= 2**32 - 1:
        return fail(f"--seed must be in [0, 2**32 - 1] (it seeds PYTHONHASHSEED), got {args.seed}")
    if args.seconds <= 0:
        return fail(f"--seconds must be positive, got {args.seconds}")

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        return fail(f"no witness sources at {os.path.join(ROOT, 'src', 'repro')}")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")

    try:
        # Models are trained under a fixed hash seed: rendering noise, and
        # so the training set, depends on it.
        run_child(["prepare"], child_env(0), PREPARE_BUDGET_S)
        result = run_child(
            ["run", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", os.path.join(ROOT, ".witbench", "out"),
             "--spawn-time", repr(time.monotonic())],
            child_env(args.seed), RUN_BUDGET_S,
        )
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        return fail(str(exc), 1)
    setups = result["setup_runs"]
    result["environment"]["commit"] = commit()

    report(result, setups, bool(args.trace))
    results_dir = os.path.join(ROOT, ".witbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    record = dict(result, seconds=args.seconds, trace=args.trace)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    if args.trace:
        measured, names = result["traced"]["metrics"], declared["per_layer"]
    else:
        measured = dict(result["metrics"])
        measured["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        names = declared["end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in measured]
    if missing:
        return fail(f"BENCHMARK.json metrics not measured: {missing}", 1)
    metrics = {m["name"]: measured[m["name"]] for m in names}
    phases = [result, result["traced"]] if args.trace else [result]
    print(json.dumps({
        "correct": all(p["fail_open"] == 0 for p in phases),
        "attempted": sum(p["attempted"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
