import json
import math

import numpy as np
import pytest

from duhem.report import VerificationReport, _check_positive, _write_csv, worst_point


def test_pass_flag_is_derived_from_the_worst_violation():
    # no stored flag: the report passes exactly when worst <= tolerance
    for worst, tol, passed in [(1e-6, 1e-6, True), (1.5e-6, 1e-6, False),
                               (-math.inf, 0.0, True), (math.nan, 1.0, False)]:
        rep = VerificationReport(
            name="demo", worst_violation=worst, worst_location=(0.0,),
            tolerance=tol, samples_checked=1,
        )
        assert rep.passed is passed
        assert rep.to_dict()["passed"] is passed


def test_worst_point_is_the_first_maximum_in_c_order():
    assert worst_point([0.5, 2.0, -1.0, 2.0]) == ((1,), 2.0)
    v = np.array([[[0.0, 3.0], [3.0, 1.0]], [[3.0, 0.0], [2.0, 3.0]]])
    assert worst_point(v) == ((0, 0, 1), 3.0)
    assert worst_point(np.full((2, 3), -math.inf)) == ((0, 0), -math.inf)


@pytest.mark.parametrize("at", [0, 3, 5])
def test_worst_point_takes_a_nan_as_the_largest_entry(at):
    # a NaN anywhere, before or after the largest number, is the worst point
    v = np.array([1.0, 7.0, math.inf, 2.0, -3.0, 0.0])
    v[at] = math.nan
    (k,), worst = worst_point(v)
    assert k == at and math.isnan(worst)
    w = v.reshape(2, 3)
    (i, j), _ = worst_point(w)
    assert (i, j) == divmod(at, 3)
    # of two NaNs the first
    assert worst_point([1.0, math.nan, math.nan])[0] == (1,)


def test_json_round_trip_sorted_keys():
    rep = VerificationReport(
        name="demo", worst_violation=-1e-3, worst_location=(1.0, 2.0),
        tolerance=1e-6, samples_checked=42, details={"model": "dahl"},
    )
    payload = json.loads(json.dumps(rep.to_dict(), sort_keys=True))
    assert payload == rep.to_dict()
    assert list(payload) == sorted(payload)
    assert payload["passed"] is True
    assert payload["details"]["model"] == "dahl"
    assert payload["samples_checked"] == 42


def test_a_report_of_numpy_values_holds_python_types():
    # the constructor coerces, so every builder's report is plain JSON
    details = {"model": "dahl"}
    rep = VerificationReport(
        name="demo", worst_violation=np.float32(0.25),
        worst_location=np.array([1.5, -2.0], dtype=np.float32),
        tolerance=np.float64(0.5), samples_checked=np.int64(42), details=details,
    )
    assert type(rep.worst_violation) is float and rep.worst_violation == 0.25
    assert type(rep.tolerance) is float
    assert type(rep.samples_checked) is int and rep.samples_checked == 42
    assert rep.worst_location == (1.5, -2.0)
    assert all(type(x) is float for x in rep.worst_location)
    assert type(rep.details) is dict and rep.details is not details
    payload = json.loads(json.dumps(rep.to_dict()))
    assert payload["samples_checked"] == 42 and payload["worst_location"] == [1.5, -2.0]
    with pytest.raises(ValueError, match="samples_checked"):
        VerificationReport("demo", 0.0, (), 0.0, np.int64(-1))


@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, -math.inf, math.nan, np.float64(math.nan)])
def test_positive_check_names_the_argument_and_returns_a_good_value(value):
    with pytest.raises(ValueError, match=f"^width must be positive and finite, got {float(value)}$"):
        _check_positive("width", value)
    assert _check_positive("width", 5e-324) == 5e-324


def test_csv_rows_are_the_17_digit_rows_of_savetxt(tmp_path):
    # the artifacts' format as np.savetxt(fmt="%.17g") wrote it, signed
    # zero and non-finite values included
    rng = np.random.default_rng(3)
    x = rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40)
    columns = (np.arange(40), x, np.r_[x[:36], -0.0, math.inf, -math.inf, math.nan])
    _write_csv(tmp_path / "one.csv", "k,x,z", *columns)
    np.savetxt(
        tmp_path / "savetxt.csv", np.column_stack(columns), delimiter=",",
        header="k,x,z", comments="", fmt="%.17g",
    )
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()
