"""Span records and self-time arithmetic for the traced run.

A span is one call into a layer: its name, start and end (seconds on one
monotonic clock), the index of the span that caused it (``-1`` for a
root) and the benchmark session it belongs to.  A layer's *self time* is
its span's duration minus the part of that interval its child spans
cover, so within each frame the self times of the frame and of every
span below it add up to the frame's duration.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Root span names: one witness entry call that fired a sampled frame.
FRAME = "frame"
FRAME_SKIPPED = "frame.skipped"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    session: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "session": self.session,
        }


def _covered(intervals: list) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans: list) -> list:
    """``children[i]`` lists the indices of the spans whose parent is ``i``."""
    children: list = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    return children


def self_times(spans: list) -> list:
    """Self time of every span, in the spans' own time unit."""
    children = children_of(spans)
    out = []
    for i, span in enumerate(spans):
        clipped = [
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children[i]
        ]
        out.append(span.duration - _covered(clipped))
    return out


def frame_breakdown(spans: list, selves: list | None = None) -> list:
    """Per validated frame: ``(duration, other, {layer: self time})``.

    ``other`` is the frame span's own self time -- the part of the frame no
    layer span covers.  Raises ``ValueError`` if a frame's layer self
    times plus ``other`` do not add up to its duration, which would mean
    the span tree is not nested.
    """
    if selves is None:
        selves = self_times(spans)
    children = children_of(spans)
    frames = []
    for i, span in enumerate(spans):
        if span.name != FRAME:
            continue
        layers: dict = {}
        stack = list(children[i])
        while stack:
            j = stack.pop()
            layers[spans[j].name] = layers.get(spans[j].name, 0.0) + selves[j]
            stack.extend(children[j])
        total = selves[i] + sum(layers.values())
        if abs(total - span.duration) > 1e-9 + 1e-9 * span.duration:
            raise ValueError(
                f"frame span {i}: self times sum to {total!r}, duration {span.duration!r}"
            )
        frames.append((span.duration, selves[i], layers))
    return frames


def layer_totals(spans: list, selves: list | None = None) -> dict:
    """``{name: (calls, busy, self)}`` summed over every span of a name."""
    if selves is None:
        selves = self_times(spans)
    totals: dict = {}
    for span, own in zip(spans, selves):
        calls, busy, self_time = totals.get(span.name, (0, 0.0, 0.0))
        totals[span.name] = (calls + 1, busy + span.duration, self_time + own)
    return totals
