"""The workload process of the witness benchmark.

``witbench/run.py`` starts this module in a fresh interpreter, with
``PYTHONPATH`` at the checkout's ``src`` and ``PYTHONHASHSEED`` set from
the workload seed::

    python3 -m witbench.driver prepare
    python3 -m witbench.driver run --workload W --seed N --seconds S \
        --trace 0|1 --spawn-time T [--setup-only] [--out DIR]

``prepare`` makes sure the trained models exist in ``$REPRO_MODEL_DIR``
(training them there if missing).  ``run`` sets up one witness service,
drives the work ``--seconds`` sets and prints one JSON result line;
between scenarios it starts ``run --setup-only`` interpreters, which
only set up and report ``setup_s``.  ``--spawn-time`` is the parent's
``time.monotonic()`` just before it started this interpreter, so
``setup_s`` covers interpreter start, imports, model loading,
provisioning and page generation.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass

from witbench.oracle import intended_body, judge
from witbench.probes import Probe
from witbench.spans import frame_breakdown, layer_totals, self_times
from witbench.workloads import WORKLOADS, run_size, scenario_spec

#: Spec seed of the warm-up page, outside every workload's page corpus.
WARM_UP_SPEC_SEED = 999_999

#: Set-up-only interpreters started between the measured scenarios.
#: Set-up is half a second, mostly imports, and the machine's speed drifts
#: over a run; set-ups spread over the whole measurement, like its
#: frames, make their median a figure of the run and not of one moment.
SETUP_REPEATS = 10

#: Layers reported with calls, busy time per call and self time.
TIMED_LAYERS = (
    "sample", "diff", "locate", "pof", "track", "validate",
    "verify.text", "verify.image", "guest.paint",
)
#: Layers reported as milliseconds per call only.
PER_CALL_LAYERS = ("certify", "server.vspec", "server.verify")


# -- models ------------------------------------------------------------------


def prepare() -> int:
    """Make sure the witness's trained models exist in ``$REPRO_MODEL_DIR``."""
    model_dir = os.environ.get("REPRO_MODEL_DIR")
    if not model_dir:
        print("witbench prepare: REPRO_MODEL_DIR is not set", file=sys.stderr)
        return 2
    try:
        os.makedirs(model_dir, exist_ok=True)
        marker = os.path.join(model_dir, f".write-test-{os.getpid()}")
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("ok")
        os.remove(marker)
    except OSError as exc:
        print(
            f"witbench prepare: model directory {model_dir!r} is not writable ({exc}); "
            "the trained models cannot be stored",
            file=sys.stderr,
        )
        return 2
    from repro.core.service import WitnessConfig
    from repro.nn.zoo import get_image_model, get_text_model, model_registry_stats

    get_text_model(WitnessConfig().text_model_variant)
    get_image_model()
    print(json.dumps({"models": model_registry_stats()}))
    return 0


# -- sessions ------------------------------------------------------------------


@dataclass
class SessionResult:
    key: str
    script: str
    times: object
    verdict: object
    certified: bool | None
    error: str | None


class Bench:
    """One witness service plus the pristine scenarios of a run."""

    def __init__(self, workload, pool: list, tracing: bool = False) -> None:
        from repro.core.service import WitnessConfig, WitnessService
        from repro.crypto.ca import CertificateAuthority
        from repro.server.webserver import WebServer

        self.workload = workload
        self.pool = pool
        ca = CertificateAuthority()
        self.service = WitnessService(ca, WitnessConfig(batched=True))
        self.server = WebServer(ca)
        self.probe = Probe(tracing=tracing)
        self.service.on_frame(self.probe.on_frame)
        self._session_ids = itertools.count(1)

    def run_step(self, scenario, step: int, tag: str) -> SessionResult:
        """Drive one witnessed session (one scenario step) and judge it."""
        from repro.scenarios.scripts import run_script
        from repro.server.webserver import connect_guest

        page_id, page = scenario.pages[step]
        served_id = f"{tag}/{page_id}"
        self.server.register_page(served_id, page)
        script = scenario.spec.script
        intended = intended_body(page.form_values(), scenario.entries[step])
        session_id = next(self._session_ids)
        body = certified = server_ok = error = None
        with self.probe.session(session_id) as times:
            try:
                client = connect_guest(
                    self.server,
                    self.service,
                    served_id,
                    display=scenario.display,
                    stack=scenario.stack,
                    sampler_seed=scenario.step_sampler_seed(step),
                )
                try:
                    body = run_script(scenario, step, client.browser, client.vspec)
                    if body is not None:
                        decision = client.extension.end_session(body)
                        certified = bool(decision.certified)
                        if decision.request is not None:
                            server_ok = bool(self.server.verify(decision.request))
                finally:
                    client.close()
            except Exception as exc:  # noqa: BLE001 - a crash is a judged outcome
                error = f"{type(exc).__name__}: {exc}"
        verdict = judge(
            script,
            intended=None if script == "abandoning" else intended,
            body=body,
            certified=certified,
            server_ok=server_ok,
            error=error,
        )
        key = f"{scenario.spec.key}@{scenario.stack.name}/s{step}"
        return SessionResult(key, script, times, verdict, certified, error)


def warm_up(workload) -> None:
    """One untimed session on a throwaway service: first-call costs
    (lazy imports, arenas, glyph caches) are not charged to the run."""
    from repro.scenarios.spec import ScenarioSpec

    page = ScenarioSpec("letterbox", script="honest", seed=WARM_UP_SPEC_SEED).build()
    bench = Bench(workload, [page])
    with bench.service, bench.probe:
        bench.run_step(bench.pool[0], 0, "warm-up")


def drive(bench: Bench, seconds: float, tag: str, between=None) -> tuple:
    """Run the workload's closed loop; returns ``(results, wall_s)``.

    The amount of work is fixed by ``seconds`` (:func:`run_size`).
    ``between(k, count)``, when given, runs after scenario ``k`` of
    ``count``; its time is not part of ``wall_s``.
    """
    results = []
    wall_s = 0.0
    count = run_size(bench.workload, seconds)
    for k in range(count):
        scenario = bench.pool[k]
        begin = time.monotonic()
        for step in range(scenario.steps):
            results.append(bench.run_step(scenario, step, f"{tag}{k}"))
        wall_s += time.monotonic() - begin
        if between is not None:
            between(k, count)
    return results, wall_s


# -- metrics -------------------------------------------------------------------


def _percentile(values: list, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else float("nan")


def end_to_end(results: list, wall_s: float) -> tuple:
    """End-to-end metrics of one phase, plus the sample counts behind them."""
    completed = [r for r in results if r.error is None]
    frames = [ms for r in completed for ms in r.times.frame_ms]
    starts = [r.times.start_ms for r in completed if r.times.start_ms is not None]
    n = max(len(completed), 1)
    metrics = {
        "frame_ms.p50": (_percentile(frames, 50), "ms"),
        "frame_ms.p95": (_percentile(frames, 95), "ms"),
        "start_ms.p50": (_percentile(starts, 50), "ms"),
        "witness_s_per_session": (sum(r.times.witness_s for r in completed) / n, "s"),
        "sessions_per_s": (len(completed) / wall_s if wall_s > 0 else 0.0, "1/s"),
    }
    samples = {
        "frame_ms": len(frames),
        "start_ms": len(starts),
        "sessions": len(completed),
    }
    return metrics, samples


def per_layer(bench: Bench, results: list, untraced_p50: float) -> tuple:
    """Per-layer metrics of a traced phase; also returns the raw spans."""
    probe = bench.probe
    spans = probe.spans()
    selves = self_times(spans)
    totals = layer_totals(spans, selves)
    frames = frame_breakdown(spans, selves)
    counters = probe.counters()
    completed = [r for r in results if r.error is None]
    n = max(len(completed), 1)
    metrics: dict = {}

    def timed(prefix: str, layer: str, calls_name: str = "calls") -> None:
        calls, busy, own = totals.get(layer, (0, 0.0, 0.0))
        metrics[f"{prefix}.{calls_name}"] = (calls / n, "calls/session")
        metrics[f"{prefix}.busy_ms"] = (busy * 1e3 / calls if calls else 0.0, "ms/call")
        metrics[f"{prefix}.self_ms"] = (own * 1e3 / n, "ms/session")

    for layer in TIMED_LAYERS:
        timed(layer, layer)
    frames_total = sum(r.times.frames for r in completed)
    skipped = sum(r.times.skipped for r in completed)
    metrics["diff.skip_ratio"] = (skipped / frames_total if frames_total else 0.0, "ratio")
    v_calls = totals.get("validate", (0,))[0]
    metrics["validate.plan_units"] = (
        counters.get("validate.plan_units", 0) / v_calls if v_calls else 0.0, "units/call")
    metrics["validate.retry_rounds"] = (
        counters.get("validate.retry_rounds", 0) / v_calls if v_calls else 0.0, "rounds/call")
    for kind in ("text", "image"):
        layer = f"nn.{kind}"
        timed(layer, layer, "forwards")
        forwards = totals.get(layer, (0,))[0]
        metrics[f"{layer}.rows"] = (
            counters.get(f"{layer}.rows", 0) / forwards if forwards else 0.0, "rows/forward")
    for layer in PER_CALL_LAYERS:
        calls, busy, _own = totals.get(layer, (0, 0.0, 0.0))
        metrics[f"{layer}.ms"] = (busy * 1e3 / calls if calls else 0.0, "ms/call")
    starts = [r.times.start_ms for r in completed if r.times.start_ms is not None]
    metrics["start_ms.p50"] = (_percentile(starts, 50), "ms")
    submits = [r.times.submit_ms for r in completed if r.times.submit_ms is not None]
    metrics["submit_ms.p50"] = (_percentile(submits, 50), "ms")

    cache = bench.service.shared_cache.stats()
    lookups = cache["hits"] + cache["misses"]
    metrics["digest.hits"] = (cache["hits"] / n, "count/session")
    metrics["digest.misses"] = (cache["misses"] / n, "count/session")
    metrics["digest.hit_ratio"] = (cache["hits"] / lookups if lookups else 0.0, "ratio")
    metrics["digest.evictions"] = (cache["evictions"] / n, "count/session")
    runtime = bench.service.runtime_stats().get("runtime") or {}
    metrics["runtime.forwards"] = (runtime.get("forwards_total", 0) / n, "count/session")
    metrics["runtime.forwards_saved"] = (
        runtime.get("forwards_saved_total", 0) / n, "count/session")

    others = [other * 1e3 for _dur, other, _layers in frames]
    metrics["frame.other_ms"] = (sum(others) / len(others) if others else 0.0, "ms/frame")
    traced = [ms for r in completed for ms in r.times.frame_ms]
    traced_p50 = _percentile(traced, 50)
    metrics["trace.frame_ms.p50"] = (traced_p50, "ms")
    metrics["trace.overhead_ms"] = (traced_p50 - untraced_p50, "ms")

    # Frame stage self times, summed per layer, for the report's ranking.
    stage_self = {}
    for _dur, _other, layers in frames:
        for name, own in layers.items():
            stage_self[name] = stage_self.get(name, 0.0) + own * 1e3
    return metrics, spans, {k: v / n for k, v in sorted(stage_self.items())}


# -- the run -------------------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_version = "unknown"
    return {
        "workload_seed": seed,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads_env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def phase(bench: Bench, seconds: float, tag: str, between=None) -> tuple:
    with bench.service, bench.probe:
        return drive(bench, seconds, tag, between)


def set_up_elsewhere(args) -> float:
    """``setup_s`` of a fresh set-up-only interpreter of this run."""
    command = [
        sys.executable, "-m", "witbench.driver", "run", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        "--setup-only", "--spawn-time", repr(time.monotonic()),
    ]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def accounting(results: list) -> dict:
    """Sessions attempted and failed, as the oracle judged them."""
    return {
        "attempted": len(results),
        "failed": sum(not r.verdict.ok for r in results),
        "fail_open": sum(r.verdict.fail_open for r in results),
        "false_refusals": sum(r.verdict.false_refusal for r in results),
    }


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    count = run_size(workload, args.seconds)
    pool = [scenario_spec(workload, args.seed, k).build() for k in range(count)]
    # The measured service is provisioned as part of set-up.
    bench = Bench(workload, pool)
    setup_s = time.monotonic() - args.spawn_time
    if args.setup_only:
        bench.service.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    warm_up(workload)

    setups = [setup_s]

    def between(k: int, count: int) -> None:
        # SETUP_REPEATS set-ups, spread evenly over the scenarios.
        for _ in range(SETUP_REPEATS * (k + 1) // count - SETUP_REPEATS * k // count):
            setups.append(set_up_elsewhere(args))

    results, wall_s = phase(bench, args.seconds, "a", between)
    metrics, samples = end_to_end(results, wall_s)
    sessions = [
        {"key": r.key, "script": r.script, "certified": r.certified,
         "ok": r.verdict.ok, "fail_open": r.verdict.fail_open,
         "false_refusal": r.verdict.false_refusal, "reason": r.verdict.reason}
        for r in results
    ]
    out = {
        "workload": workload.name,
        "setup_runs": setups,
        "wall_s": wall_s,
        "scenarios": count,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
        **accounting(results),
        "sessions": sessions,
        "environment": environment(args.seed),
    }
    if args.trace:
        # A fresh service, so the traced phase starts from cold caches
        # exactly as the untraced one did.
        bench = Bench(workload, pool, tracing=True)
        traced, t_wall = phase(bench, args.seconds, "b")
        layer_metrics, spans, stage_self = per_layer(bench, traced, metrics["frame_ms.p50"][0])
        out["traced"] = {
            "wall_s": t_wall,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics.items()},
            "stage_self_ms_per_session": stage_self,
            **accounting(traced),
        }
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"spans-{workload.name}-seed{args.seed}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump([s.as_dict() for s in spans], fh)
            out["traced"]["spans_file"] = path
    print(json.dumps(out))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m witbench.driver")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("prepare", help="train the witness's models if missing")
    run_p = sub.add_parser("run", help="set up and drive one workload")
    run_p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    run_p.add_argument("--seed", type=int, required=True)
    run_p.add_argument("--seconds", type=float, required=True)
    run_p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run_p.add_argument("--spawn-time", type=float, required=True)
    run_p.add_argument("--setup-only", action="store_true")
    run_p.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.command == "prepare":
        return prepare()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
