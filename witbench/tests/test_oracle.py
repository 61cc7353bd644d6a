"""The session oracle judges outcomes against what the user intended."""

from witbench.oracle import body_differs, intended_body, judge

PRISTINE = {"first_name": "", "terms": "off", "plan": "Basic"}
ENTRIES = {"first_name": "Ana", "terms": "on"}


def intended():
    return intended_body(PRISTINE, ENTRIES)


def submitted(**changes):
    body = dict(intended(), session_id="abc123")
    body.update(changes)
    return body


def test_intended_body_overlays_entries_on_pristine_values():
    assert intended() == {"first_name": "Ana", "terms": "on", "plan": "Basic"}


def test_session_id_is_not_user_input():
    assert not body_differs(submitted(), intended())
    assert body_differs(submitted(first_name="AnX"), intended())


def test_honest_certified_and_verified_passes():
    verdict = judge("honest", intended=intended(), body=submitted(),
                    certified=True, server_ok=True)
    assert verdict.ok and not verdict.fail_open and not verdict.false_refusal


def test_synthetic_fail_open_is_flagged():
    verdict = judge("tampered", intended=intended(), body=submitted(first_name="AnX"),
                    certified=True, server_ok=True)
    assert not verdict.ok
    assert verdict.fail_open


def test_synthetic_false_refusal_is_a_failure():
    for script in ("honest", "slow-typist"):
        verdict = judge(script, intended=intended(), body=submitted(),
                        certified=False, server_ok=None)
        assert not verdict.ok
        assert verdict.false_refusal and not verdict.fail_open


def test_tampered_body_refused_passes():
    verdict = judge("tampered", intended=intended(), body=submitted(first_name="AnX"),
                    certified=False, server_ok=None)
    assert verdict.ok and not verdict.fail_open


def test_noop_tamper_certifying_the_intended_body_passes():
    # Wizard step 2 has neither a text field nor a checkbox: the tamper
    # changes nothing, so certifying the (intended) body is correct.
    verdict = judge("tampered", intended=intended(), body=submitted(),
                    certified=True, server_ok=True)
    assert verdict.ok and not verdict.fail_open


def test_certified_request_must_pass_server_verification():
    verdict = judge("honest", intended=intended(), body=submitted(),
                    certified=True, server_ok=False)
    assert not verdict.ok and not verdict.fail_open


def test_abandoned_session_must_reach_no_decision():
    assert judge("abandoning", intended=None, body=None, certified=None, server_ok=None).ok
    assert not judge("abandoning", intended=None, body=None, certified=False,
                     server_ok=None).ok


def test_crash_is_a_failure():
    verdict = judge("honest", intended=intended(), body=None, certified=None,
                    server_ok=None, error="ValueError: boom")
    assert not verdict.ok and verdict.reason.startswith("crash")
