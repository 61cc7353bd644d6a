"""The session oracle: judge every witnessed session against its script.

A session's contract depends on what the user meant to submit, not only
on which script drove it:

* a certified request must pass ``WebServer.verify``;
* a certified request whose body differs from the user's intended
  entries is *fail-open* -- the witness signed something the user never
  entered.  A tampered session is fail-open only in that case: on a page
  with nothing to tamper (wizard step 2 has neither a text field nor a
  checkbox) the tamper is a no-op and certifying is correct;
* a refused session whose body equals the intended entries is a *false
  refusal* -- an honest display the witness would not certify.  It counts
  as a failed session and is never filtered out;
* an abandoned session must reach no decision;
* a crash is a failure.

Stdlib only: the oracle sees plain values, so it is unit-testable without
building a witness.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Scripts whose user submits the form (``abandoning`` walks away).
SUBMITTING_SCRIPTS = ("honest", "slow-typist", "tampered")


@dataclass(frozen=True)
class Verdict:
    """The oracle's judgment of one session."""

    ok: bool
    fail_open: bool = False
    false_refusal: bool = False
    reason: str = ""


def intended_body(pristine_values: dict, entries: dict) -> dict:
    """The request body the user meant to submit.

    ``pristine_values`` is the served page's ``form_values()`` before any
    input; ``entries`` maps each field the script fills to its value.
    """
    body = {name: str(value) for name, value in pristine_values.items()}
    body.update((name, str(value)) for name, value in entries.items())
    return body


def body_differs(body: dict, intended: dict) -> bool:
    """Whether a submitted body differs from the intended one.

    The per-session ``session_id`` nonce is not user input and is ignored.
    """
    keys = (set(body) | set(intended)) - {"session_id"}
    return any(str(body.get(k)) != str(intended.get(k)) for k in keys)


def judge(
    script: str,
    *,
    intended: dict | None,
    body: dict | None,
    certified: bool | None,
    server_ok: bool | None,
    error: str | None = None,
) -> Verdict:
    """Judge one session.

    Args:
        script: the user script that drove the session.
        intended: the body the user meant to submit (``None`` when the
            script abandons).
        body: the body actually submitted (``None`` if none was).
        certified: the witness's decision, ``None`` when no decision was
            reached.
        server_ok: ``WebServer.verify`` on the certified request
            (``None`` when nothing was certified).
        error: the exception text if the session crashed.
    """
    if error is not None:
        return Verdict(False, reason=f"crash: {error}")
    if script == "abandoning":
        if certified is not None:
            return Verdict(False, reason="abandoned session reached a decision")
        return Verdict(True, reason="abandoned without a decision")
    if script not in SUBMITTING_SCRIPTS:
        raise ValueError(f"unknown script {script!r}")
    if certified is None or body is None or intended is None:
        return Verdict(False, reason="submitting session reached no decision")
    differs = body_differs(body, intended)
    if certified:
        if differs:
            return Verdict(
                False, fail_open=True, reason="certified a body the user did not enter"
            )
        if server_ok is not True:
            return Verdict(False, reason="certified request failed server verification")
        return Verdict(True, reason="certified the intended body")
    if differs:
        return Verdict(True, reason="refused a tampered body")
    return Verdict(False, false_refusal=True, reason="refused the intended body")
