"""Hand-made mutants of the checks and of the crossing refinement in `src/`.

Each entry names a file under `src/duhem`, an exact snippet of it, the text
that replaces the snippet, and the tests expected to kill the mutant (pytest
node ids, relative to the root of a checkout).  Every snippet occurs exactly
once in `src/` (`tests/test_mutants.py`), so an edit that moves or rewrites a
snippet fails tier-1 until its entry follows.  `mutants/run.py` applies one
mutant per copy of the checkout and runs its tests.

A mutant that no test can notice, since it does not change any output, is
listed with `equivalent` set to why; the runner expects it to survive.
"""

MUTANTS = [
    # -- the certificates: each condition checked on one side of the curve
    {
        "name": "assumption-A-unchecked-below",
        "why": "check_assumption_A with no check below the curve",
        "file": "dissipativity.py",
        "snippet": "viol = np.where(upper, F, -F)",
        "replacement": "viol = np.where(upper, F, -np.inf)",
        "tests": ["tests/test_certificates.py::test_sign_structure_broken_below_the_curve_only_fails"],
    },
    {
        "name": "lemma1-no-margin-below",
        "why": "check_lemma1 with no margin below the curve (the f2 half)",
        "file": "curves.py",
        "snippet": "sides = np.stack((S > fan, S < fan))",
        "replacement": "sides = np.stack((S > fan, S < -math.inf))",
        "tests": ["tests/test_certificates.py::test_transversality_margin_broken_below_the_curve_only_fails"],
    },
    {
        "name": "existence-no-q2-bound",
        "why": "check_existence_conditions with no decreasing-branch bound (q2)",
        "file": "core.py",
        "snippet": "np.subtract(-lambda_bound, excess[:, 1], out=excess[:, 1])",
        "replacement": "excess[:, 1] = -math.inf",
        "tests": ["tests/test_certificates.py::test_existence_bound_broken_by_the_decreasing_branch_only_fails"],
    },
    # -- the friction certificates
    {
        "name": "lyapunov-rate-bound-tol",
        "why": "lyapunov_check with the bound dV/dt <= tol instead of -d x2^2 + tol",
        "file": "mechsim.py",
        "snippet": "rate = dv / dt + params.d * series.x2[:-1] ** 2",
        "replacement": "rate = dv / dt",
        "tests": ["tests/test_mechsim.py::test_lyapunov_check_fails_a_decay_slower_than_the_damping"],
    },
    {
        "name": "lyapunov-always-rate-row",
        "why": "lyapunov_check that always reports the rate excess",
        "file": "mechsim.py",
        "snippet": "(row,), worst = worst_point([worst_rate, worst_mono])",
        "replacement": "row, worst = 0, worst_rate",
        "tests": ["tests/test_mechsim.py::test_lyapunov_check_fails_a_rise_that_the_rate_row_passes"],
    },
    {
        "name": "port-half-supply",
        "why": "passivity_port_check against half the energy supplied",
        "file": "mechsim.py",
        "snippet": "excess = (series.v - series.v[0]) - w",
        "replacement": "excess = (series.v - series.v[0]) - 0.5 * w",
        "tests": ["tests/test_mechsim.py::test_port_check_fails_a_stored_change_above_the_supplied_energy"],
    },
    # -- the loop reports
    {
        "name": "cycle-stabilization-from-fourth-loop",
        "why": "cycle_stabilization that starts at the fourth loop instead of the third",
        "file": "dissipativity.py",
        "snippet": "np.diff(areas[2:])",
        "replacement": "np.diff(areas[3:])",
        "tests": ["tests/test_dissipativity.py::test_cycle_stabilization_reads_the_change_from_the_third_loop_to_the_fourth"],
    },
    {
        "name": "loop-orientation-abs-area",
        "why": "loop_orientation calling every |area| > tol clockwise",
        "file": "dissipativity.py",
        "snippet": "if area > LOOP_AREA_TOL:",
        "replacement": "if abs(area) > LOOP_AREA_TOL:",
        "tests": ["tests/test_dissipativity.py::test_loop_orientation_counterclockwise_parametric"],
    },
    # -- the crossing refinement (Illinois regula falsi)
    {
        "name": "refine-no-midpoint-fallback",
        "why": "a secant point outside the bracket is kept",
        "file": "integrate.py",
        "snippet": "x = np.where(inside, x, 0.5 * (r + p))",
        "replacement": "x = np.where(inside, x, x)",
        "tests": ["tests/test_curves.py::test_float_refinement_is_the_vector_refinement_bit_for_bit"],
    },
    {
        "name": "refine-no-illinois-halving",
        "why": "plain regula falsi: the retained end's residual is never halved",
        "file": "integrate.py",
        "snippet": "fr = np.where(flip | zero, gr, 0.5 * fr)",
        "replacement": "fr = np.where(flip | zero, gr, fr)",
        "tests": ["tests/test_curves.py::test_float_refinement_is_the_vector_refinement_bit_for_bit"],
    },
    {
        "name": "refine-strict-sign-test",
        "why": "<= -> < in the sign test: a zero residual at the latest point no longer keeps it",
        "file": "integrate.py",
        "snippet": "flip = gp * gx <= 0.0",
        "replacement": "flip = gp * gx < 0.0",
        "tests": ["tests/test_curves.py::test_float_refinement_is_the_vector_refinement_bit_for_bit"],
    },
    {
        "name": "refine-stop-without-a-fixed-p",
        "why": "the passes end once r is unchanged, though p still moves",
        "file": "integrate.py",
        "snippet": "fixed = _same_bits(x, p) and _same_bits(r_new, r)",
        "replacement": "fixed = _same_bits(r_new, r)",
        "tests": ["tests/test_integrate.py::test_root_finder_stops_early_only_at_a_fixed_point"],
    },
    {
        "name": "refine-float-twin-one-pass-fewer",
        "why": "the single-point refinement stops one pass before the batch's",
        "file": "curves.py",
        "snippet": "for _ in range(_REFINE_PASSES):",
        "replacement": "for _ in range(_REFINE_PASSES - 1):",
        "tests": ["tests/test_curves.py::test_float_refinement_is_the_vector_refinement_bit_for_bit"],
    },
]
