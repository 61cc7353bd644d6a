"""The benchmark's workloads, generated from the workload seed.

The program under test receives only the generated scenarios
(:class:`repro.scenarios.ScenarioSpec` instances); the seed never
reaches it.  Scenario ``k`` of a workload always renders the same page
(spec seed ``k``): the page corpus is fixed, so runs at different seeds
compare like with like.  The workload seed drives everything else that
is random -- the witness's sampling schedule (``sampler_seed``) and the
rendering noise (the workload process's ``PYTHONHASHSEED``).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Stride between the sampler seeds of two workload seeds.
SEED_STRIDE = 1_000_003

#: The guest display of the paper's Table VIII/IX Jotform sessions: most
#: Jotform pages fit it without scrolling.
TABLE_IX_DISPLAY = (640, 600)


@dataclass(frozen=True)
class Workload:
    """A closed loop on one thread: the next session starts when the last ends."""

    name: str
    archetypes: tuple
    scripts: tuple
    #: Seconds one cycle of the scenario list took on a 2-core machine
    #: (sets how many cycles a run of ``--seconds`` does).
    cycle_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            # Pages 2-5x taller than the display: viewport search (locate)
            # dominates witness time.
            "scroll-tall",
            archetypes=("tall-form", "nested-scroll", "dashboard"),
            scripts=("honest", "tampered"),
            cycle_s=36.0,
        ),
        Workload(
            # Pages that fit the display: pof and diff together outweigh
            # locate; the bypass workload for a locate change.
            "short-forms",
            archetypes=("wizard", "letterbox", "mixed-stack"),
            scripts=("honest", "slow-typist", "tampered", "abandoning"),
            cycle_s=15.0,
        ),
    )
}


def scenario_spec(workload: Workload, seed: int, k: int):
    """The ``k``-th scenario of a run of ``workload`` at ``seed``.

    Archetypes are interleaved first and scripts second, so any prefix
    of a run mixes every archetype.  Jotform pages are shown on the
    Table IX display.
    """
    from repro.scenarios.spec import ScenarioSpec

    archetype = workload.archetypes[k % len(workload.archetypes)]
    script = workload.scripts[(k // len(workload.archetypes)) % len(workload.scripts)]
    sampler_seed = seed * SEED_STRIDE + k * 977
    # Jotform pages (``mixed-stack``) on the Table IX display, so they fit.
    display = TABLE_IX_DISPLAY if archetype == "mixed-stack" else None
    return ScenarioSpec(
        archetype, script=script, seed=k, sampler_seed=sampler_seed, display=display
    )


def run_size(workload: Workload, seconds: float) -> int:
    """Scenarios one run of ``--seconds`` drives: a fixed amount of work.

    A run is whole cycles of the scenario list -- as many as took about
    ``seconds`` on a 2-core machine, at least one -- so every run drives
    each (archetype, script) pair equally often and a faster or slower
    program does the same work.
    """
    cycle = len(workload.archetypes) * len(workload.scripts)
    return cycle * max(1, round(seconds / workload.cycle_s))
