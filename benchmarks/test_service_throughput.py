"""Service throughput: sessions/sec through one shared WitnessService.

The service-oriented redesign exists so one long-lived witness — one set
of warm models, one sealed key, one cross-session digest cache — can
cover many guests at once.  This benchmark measures it directly: N
concurrent guest sessions (one machine/browser/extension each) against a
single service, sequential vs thread-pooled, reported as sessions per
second.
"""

from benchmarks.conftest import record_metrics, record_result
from benchmarks.harness import run_fleet_sessions

#: The acceptance floor: one service must drive at least this many
#: concurrent guest sessions over one warm model set.
MIN_CONCURRENT_SESSIONS = 8


def test_service_session_throughput(benchmark, scale, text_model, image_model):
    n = max(MIN_CONCURRENT_SESSIONS, scale["perf_pages"])

    def run():
        out = {}
        for label, threads in (("sequential", 1), ("8 threads", 8)):
            fleet = run_fleet_sessions(
                n, text_model, image_model, threads=threads, batched=True
            )
            decisions, service, peak, wall = (
                fleet.decisions, fleet.service, fleet.peak_active, fleet.wall_seconds,
            )
            certified = sum(bool(d.certified) for d in decisions)
            cache = service.shared_cache
            out[label] = {
                "sessions": n,
                "certified": certified,
                "peak_active": peak,
                "wall_seconds": wall,
                "sessions_per_sec": n / wall if wall > 0 else float("inf"),
                "cache_hit_rate": cache.hit_rate if cache is not None else 0.0,
            }
            assert certified == n, f"{label}: only {certified}/{n} sessions certified"
            assert peak >= MIN_CONCURRENT_SESSIONS, (
                f"{label}: peak concurrent sessions {peak} < {MIN_CONCURRENT_SESSIONS}"
            )
        return out

    stats = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        "Service throughput: N concurrent guest sessions, one WitnessService",
        f"(one warm model set shared by all sessions; N={n})",
        "",
        f"{'mode':<12} {'sessions':>8} {'certified':>9} {'peak':>5} "
        f"{'wall (s)':>9} {'sess/s':>8} {'cache hit':>9}",
    ]
    for label, row in stats.items():
        lines.append(
            f"{label:<12} {row['sessions']:>8} {row['certified']:>9} "
            f"{row['peak_active']:>5} {row['wall_seconds']:>9.2f} "
            f"{row['sessions_per_sec']:>8.2f} {row['cache_hit_rate']:>8.1%}"
        )
    record_result("service_throughput", "\n".join(lines))
    record_metrics(
        "service_throughput",
        {
            "sessions": n,
            "sessions_per_sec_sequential": round(
                stats["sequential"]["sessions_per_sec"], 2
            ),
            "sessions_per_sec_threaded": round(
                stats["8 threads"]["sessions_per_sec"], 2
            ),
        },
    )
