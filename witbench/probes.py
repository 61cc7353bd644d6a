"""Witness timing and per-layer tracing, applied from outside the program.

:class:`Probe` wraps public functions of the installed ``repro`` package
for the length of a run and restores them afterwards; nothing under
``src/`` changes.

Untraced (every run) it times the witness's *entry calls* from outside --
``WitnessSession.begin_session``, ``receive_hint``, ``end_session`` and
``SimulatedClock.advance``.  The witness is the clock's only observer,
so these four calls contain every sampled frame and all witness work.
The service's public ``on_frame`` hook only tags the frame an entry call
fired as validated or skipped-unchanged.

Traced (``tracing=True``) it also records a span around each layer's
public function (see :func:`_layer_calls`).  An entry call that fired a
validated frame becomes a ``frame`` span; layer spans below it are its
stages.  Spans stay in per-thread lists until :meth:`Probe.spans`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

from witbench.spans import FRAME, FRAME_SKIPPED, Span

#: Name of an entry span that fired no frame but still contains a layer
#: call (kept so its children keep a parent).
WITNESS_CALL = "witness.call"


@dataclass
class SessionTimes:
    """Witness time charged to one benchmark session."""

    session: int
    witness_s: float = 0.0
    frames: int = 0
    skipped: int = 0
    #: Wall time (ms) of each entry call that fired a validated frame.
    frame_ms: list = field(default_factory=list)
    start_ms: float | None = None
    submit_ms: float | None = None


def _rows(args, _result) -> dict:
    return {"rows": args[1].shape[0]}


def _plan(_args, result) -> dict:
    return {
        "plan_units": result.plan_text_units + result.plan_image_pairs,
        "retry_rounds": result.text_retry_rounds,
    }


def _layer_calls() -> list:
    """``(span name, owner, attribute, witness_only, counter)`` per layer."""
    import repro.core.service as service_module
    from repro.core.caches import DifferentialDetector
    from repro.core.display import DisplayValidator
    from repro.core.interaction import InteractionTracker
    from repro.core.submission import SubmissionValidator
    from repro.core.verifiers import ImageVerifier, TextVerifier
    from repro.nn.infer import FrozenMatcher, FrozenPairMatcher
    from repro.server.webserver import WebServer
    from repro.web.browser import Browser
    from repro.web.hypervisor import Machine

    return [
        # The guest's user model also reads the framebuffer (reflective
        # validation); only the witness's samples are a witness layer.
        ("sample", Machine, "sample_framebuffer", True, None),
        ("diff", DifferentialDetector, "changed", False, None),
        ("locate", DisplayValidator, "locate_viewport", False, None),
        # The service calls the module-level names it imported.
        ("pof", service_module, "extract_pofs", False, None),
        ("pof", service_module, "check_pof_consistency", False, None),
        ("track", InteractionTracker, "on_frame", False, None),
        ("validate", DisplayValidator, "validate", False, _plan),
        ("verify.text", TextVerifier, "execute_plan", False, None),
        ("verify.image", ImageVerifier, "execute_plan", False, None),
        ("nn.text", FrozenMatcher, "forward", False, _rows),
        ("nn.image", FrozenPairMatcher, "forward", False, _rows),
        ("certify", SubmissionValidator, "certify", False, None),
        ("server.vspec", WebServer, "vspec_for", False, None),
        ("server.verify", WebServer, "verify", False, None),
        ("guest.paint", Browser, "paint", False, None),
    ]


class Probe:
    """Entry-call timing, plus layer spans when ``tracing``."""

    def __init__(self, tracing: bool = False) -> None:
        self.tracing = tracing
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._thread_spans: list = []
        self._counters: dict = {}
        self._patches: list = []

    # -- sessions and frame tags -------------------------------------------

    @contextmanager
    def session(self, session_id: int):
        """Charge entry calls on this thread to a new session record."""
        record = SessionTimes(session_id)
        self._tls.record = record
        try:
            yield record
        finally:
            self._tls.record = None

    def on_frame(self, _session, outcome) -> None:
        """``WitnessService.on_frame`` hook: tag the frame in flight."""
        frames = getattr(self._tls, "frames", None)
        if frames is not None:
            frames.append(outcome.skipped_unchanged)

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        from repro.core.service import WitnessSession
        from repro.web.hypervisor import SimulatedClock

        self._patch(WitnessSession, "begin_session", lambda fn: self._entry("begin", fn))
        self._patch(WitnessSession, "receive_hint", lambda fn: self._entry("hint", fn))
        self._patch(WitnessSession, "end_session", lambda fn: self._entry("end", fn))
        self._patch(SimulatedClock, "advance", lambda fn: self._entry("tick", fn))
        if self.tracing:
            for name, owner, attr, witness_only, counter in _layer_calls():
                self._patch(
                    owner,
                    attr,
                    lambda fn, n=name, w=witness_only, c=counter: self._layer(n, fn, w, c),
                )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Probe":
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()

    def _patch(self, owner, attr: str, make) -> None:
        own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, own))
        setattr(owner, attr, make(original))

    # -- wrappers -----------------------------------------------------------

    def _spans(self) -> list:
        spans = getattr(self._tls, "spans", None)
        if spans is None:
            spans = self._tls.spans = []
            self._tls.stack = []
            with self._lock:
                self._thread_spans.append(spans)
        return spans

    def _session_id(self) -> int:
        record = getattr(self._tls, "record", None)
        return -1 if record is None else record.session

    def _entry(self, kind: str, fn):
        tls = self._tls
        tracing = self.tracing

        def wrapper(*args, **kwargs):
            if getattr(tls, "depth", 0):
                return fn(*args, **kwargs)
            tls.depth = 1
            tls.frames = frames = []
            spans = stack = None
            index = -1
            if tracing:
                spans = self._spans()
                stack = tls.stack
                index = len(spans)
                spans.append([WITNESS_CALL, 0.0, 0.0, stack[-1] if stack else -1, self._session_id()])
                stack.append(index)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tls.depth = 0
                tls.frames = None
                validated = bool(frames) and not any(frames)
                record = getattr(tls, "record", None)
                if record is not None:
                    elapsed = t1 - t0
                    record.witness_s += elapsed
                    if kind == "begin":
                        record.start_ms = elapsed * 1e3
                    elif kind == "end":
                        record.submit_ms = elapsed * 1e3
                    record.frames += len(frames)
                    record.skipped += sum(frames)
                    if validated:
                        record.frame_ms.append(elapsed * 1e3)
                if spans is not None:
                    stack.pop()
                    span = spans[index]
                    span[1], span[2] = t0, t1
                    if frames:
                        span[0] = FRAME if validated else FRAME_SKIPPED
                    elif len(spans) == index + 1:
                        spans.pop()  # a clock tick that sampled nothing

        return wrapper

    def _layer(self, name: str, fn, witness_only: bool, counter):
        tls = self._tls

        def wrapper(*args, **kwargs):
            if witness_only and not getattr(tls, "depth", 0):
                return fn(*args, **kwargs)
            spans = self._spans()
            stack = tls.stack
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self._session_id()])
            stack.append(index)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span = spans[index]
                span[1], span[2] = t0, t1
            if counter is not None:
                counts = counter(args, result)
                with self._lock:
                    for key, value in counts.items():
                        full = f"{name}.{key}"
                        self._counters[full] = self._counters.get(full, 0) + value
            return result

        return wrapper

    # -- results ----------------------------------------------------------------

    def spans(self) -> list:
        """Every recorded span as :class:`Span`, parents re-indexed."""
        merged: list = []
        with self._lock:
            per_thread = list(self._thread_spans)
        for spans in per_thread:
            base = len(merged)
            for name, start, end, parent, session in spans:
                merged.append(Span(name, start, end, parent + base if parent >= 0 else -1, session))
        return merged

    def counters(self) -> dict:
        with self._lock:
            return dict(self._counters)
