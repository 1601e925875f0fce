import json

import pytest

from duhem.report import VerificationReport


def test_from_violation_sets_pass_flag():
    rep = VerificationReport.from_violation(
        name="demo", worst_violation=-0.5, worst_location=(0.0,), tolerance=0.0,
        samples_checked=10,
    )
    assert rep.passed
    fail = VerificationReport.from_violation(
        name="demo", worst_violation=0.5, worst_location=(0.0,), tolerance=0.0,
        samples_checked=10,
    )
    assert not fail.passed


def test_inconsistent_flag_is_rejected():
    # the record never claims a pass it cannot back up
    with pytest.raises(ValueError):
        VerificationReport(
            name="demo",
            passed=True,
            worst_violation=1.0,
            worst_location=(0.0,),
            tolerance=0.0,
            samples_checked=1,
        )
    with pytest.raises(ValueError):
        VerificationReport(
            name="demo",
            passed=False,
            worst_violation=-1.0,
            worst_location=(0.0,),
            tolerance=0.0,
            samples_checked=1,
        )


def test_json_round_trip_sorted_keys():
    rep = VerificationReport.from_violation(
        name="demo", worst_violation=-1e-3, worst_location=(1.0, 2.0),
        tolerance=1e-6, samples_checked=42, details={"model": "dahl"},
    )
    payload = json.loads(json.dumps(rep.to_dict(), sort_keys=True))
    assert payload == rep.to_dict()
    assert list(payload) == sorted(payload)
    assert payload["passed"] is True
    assert payload["details"]["model"] == "dahl"
    assert payload["samples_checked"] == 42
