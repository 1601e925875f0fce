"""Hand-made mutants of the checks, the crossing refinement, the domain
exits of the marches, the supply march, the Dahl r = 1 array fields, the
interval slopes of a trajectory, the output-only storage in the reduced
coordinate (with the declaration it reads), the f_an term of the storage,
the single-point ride's branch integral, the friction and model
parameters, the recipe of `duhem verify` (an open loop input included),
the one CSV writer of the artifacts, the config checks of the CLI, the
counts of the signal constructors and the anhysteresis search on a band in
`src/`.

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
    {
        "name": "existence-diagonal-only-mask",
        "why": "check_existence_conditions masks only sigma1 == sigma2 on the diagonal: a repeated grid value reads 0 / 0 = NaN",
        "file": "core.py",
        "snippet": "same = sig[:, None] == sig[None, :]",
        "replacement": "same = np.eye(sig.size, dtype=bool)",
        "tests": [
            "tests/test_core.py::test_existence_conditions_mask_every_pair_of_equal_sigmas",
            "tests/test_certificates.py::test_certificates_of_random_regions_are_the_old_scans_bit_for_bit",
        ],
    },
    {
        "name": "existence-bound-may-be-infinite",
        "why": "check_existence_conditions takes lambda_bound = inf, which passes any model, and NaN",
        "file": "core.py",
        "snippet": "if not 0.0 <= lambda_bound < math.inf:",
        "replacement": "if lambda_bound < 0.0:",
        "tests": ["tests/test_core.py::test_existence_conditions_rejects_bad_inputs"],
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
    # -- the supply march: finished lanes leave it at a block boundary
    {
        "name": "supply-drop-one-block-early",
        "why": "a lane leaves the march one block before the block of its end",
        "file": "storage.py",
        "snippet": "done = end_k[live] < k0",
        "replacement": "done = end_k[live] < k0 + _SUPPLY_BLOCK",
        "tests": [
            "tests/test_storage.py::test_supply_march_evaluates_a_lane_only_to_the_end_of_its_last_block",
            "tests/test_storage.py::test_supply_march_does_not_depend_on_the_block_size",
        ],
    },
    {
        "name": "supply-dropped-minimum-left-at-0",
        "why": "a lane that leaves the march keeps a running minimum of 0",
        "file": "storage.py",
        "snippet": "minW_out[live[done]] = minW[done]",
        "replacement": "minW_out[live[done]] = 0.0",
        "tests": [
            "tests/test_storage.py::test_supply_march_does_not_depend_on_the_block_size",
            "tests/test_storage.py::test_supply_march_lanes_are_simulate",
        ],
    },
    {
        "name": "supply-exit-names-the-column",
        "why": "a domain exit names the live column instead of the lane",
        "file": "storage.py",
        "snippet": "lane = int(live[bad])",
        "replacement": "lane = bad",
        "tests": ["tests/test_storage.py::test_supply_march_domain_exit_names_the_lane_and_its_sample"],
    },
    {
        "name": "supply-branch-mask-kept-across-a-drop",
        "why": "a model that is not odd keeps the previous block's branch mask",
        "file": "storage.py",
        "snippet": "up = H[0] >= 0.0",
        "replacement": "pass",
        "tests": ["tests/test_storage.py::test_supply_march_does_not_depend_on_the_block_size"],
    },
    # -- the supply march: the lanes of the reduced form (0, 1) carry no input
    {
        "name": "supply-no-input-for-any-model",
        "why": "every model marches with the input 0.0, also one whose fields read the input",
        "file": "storage.py",
        "snippet": "odd, no_input = model.odd, model.reduced_form == (0.0, 1.0)",
        "replacement": "odd, no_input = model.odd, True",
        "tests": [
            "tests/test_storage.py::test_odd_supply_march_is_the_two_branch_march_bit_for_bit[exp_model]",
            "tests/test_storage.py::test_supply_march_lanes_are_simulate[exp_model]",
        ],
    },
    {
        "name": "dahl-array-constant-one-ulp-off",
        "why": "the array branch of Dahl r = 1 divides by fc one ulp above the float branch's",
        "file": "models.py",
        "snippet": "one, rho_a, fc_a = (np.array(v) for v in (1.0, rho, fc))",
        "replacement": "one, rho_a, fc_a = (np.array(v) for v in (1.0, rho, math.nextafter(fc, math.inf)))",
        "tests": ["tests/test_models.py::test_array_fields_return_the_numpy_values[dahl r=1]"],
    },
    {
        "name": "designed-ramp-not-clipped",
        "why": "the designed ramp runs past the horizon",
        "file": "storage.py",
        "snippet": "return [_clip_to_horizon(sig, horizon) for sig in signals]",
        "replacement": "return signals[:1] + [_clip_to_horizon(sig, horizon) for sig in signals[1:]]",
        "tests": ["tests/test_storage.py::test_designed_ramp_is_clipped_to_the_horizon"],
    },
    # -- the solver path of the anhysteresis curve
    {
        "name": "anhysteresis-nan-end-keeps-doubling",
        "why": "a window end at a NaN residual keeps moving outward",
        "file": "curves.py",
        "snippet": "np.isinf(cap_hi), np.minimum(w, hi_lim)",
        "replacement": "True, np.minimum(w, hi_lim)",
        "tests": ["tests/test_certificates.py::test_a_nan_window_end_stops_and_the_root_is_found_in_the_finite_part"],
    },
    # -- the interval slopes of a trajectory
    {
        "name": "simulate-right-slope-from-the-left-end",
        "why": "simulate keeps each substep's start slope at its right end too",
        "file": "core.py",
        "snippet": "rights.append(ks[1:])",
        "replacement": "rights.append(ks[:-1])",
        "tests": [
            "tests/test_core.py::test_simulated_interval_slopes_are_the_branch_fields_at_both_ends_bit_for_bit",
        ],
    },
    {
        "name": "simulate-left-slope-from-the-right-end",
        "why": "simulate keeps each substep's end slope at its left end too",
        "file": "core.py",
        "snippet": "lefts.append(ks[:-1])",
        "replacement": "lefts.append(ks[1:])",
        "tests": [
            "tests/test_core.py::test_simulated_interval_slopes_are_the_branch_fields_at_both_ends_bit_for_bit",
        ],
    },
    {
        "name": "simulate-held-slope-not-zero",
        "why": "a held interval gets slope 1 instead of 0 (its integral stays -0.0)",
        "file": "core.py",
        "snippet": "held = np.zeros(1)",
        "replacement": "held = np.ones(1)",
        "tests": [
            "tests/test_core.py::test_simulated_interval_slopes_are_the_branch_fields_at_both_ends_bit_for_bit",
        ],
    },
    {
        "name": "secant-slope-of-du",
        "why": "a trajectory built by hand takes du / du for its secant slope",
        "file": "core.py",
        "snippet": "np.divide(np.diff(y), du,",
        "replacement": "np.divide(du, du,",
        "tests": ["tests/test_core.py::test_trajectory_built_by_hand_has_secant_interval_slopes"],
    },
    # -- the domain exit of every march: an output NaN, +-inf or not
    #    strictly inside the band ends it, on the whole plane too
    {
        "name": "crossing-march-unguarded-on-the-whole-plane",
        "why": "the lockstep crossing march tests the band only where it has a finite edge, so a NaN lane marches the whole budget",
        "file": "curves.py",
        "snippet": "if not (lo < y_new.min() and y_new.max() < hi):",
        "replacement": "if hi < math.inf and not (lo < y_new.min() and y_new.max() < hi):",
        "tests": ["tests/test_curves.py::test_a_whole_plane_ride_that_turns_nan_exits_where_simulate_does"],
    },
    {
        "name": "float-ride-unguarded-on-the-whole-plane",
        "why": "the single-point ride tests the band only where it has a finite edge",
        "file": "curves.py",
        "snippet": "if not lo < y_new < hi:",
        "replacement": "if hi < math.inf and not lo < y_new < hi:",
        "tests": ["tests/test_curves.py::test_a_whole_plane_ride_that_turns_nan_exits_where_simulate_does"],
    },
    {
        "name": "supply-march-unguarded-on-the-whole-plane",
        "why": "the supply march tests the band only where it has a finite edge, so a NaN lane gives a NaN storage",
        "file": "storage.py",
        "snippet": "if not (lo < Z_new.min() and Z_new.max() < hi):",
        "replacement": "if hi < math.inf and not (lo < Z_new.min() and Z_new.max() < hi):",
        "tests": ["tests/test_storage.py::test_a_whole_plane_search_that_turns_nan_exits_where_simulate_does"],
    },
    {
        "name": "friction-march-lets-nan-pass",
        "why": "simulate_mech tests abs(x3) >= fc, which a NaN friction force passes",
        "file": "mechsim.py",
        "snippet": "if not abs(nc) < fc:",
        "replacement": "if abs(nc) >= fc:",
        "tests": ["tests/test_mechsim.py::test_a_nan_friction_force_ends_the_march_at_its_first_step"],
    },
    {
        "name": "friction-nan-reported-at-the-band-edge",
        "why": "simulate_mech says a NaN friction force reached the band boundary",
        "file": "mechsim.py",
        "snippet": 'reason = "became NaN" if math.isnan(nc) else "reached the band boundary"',
        "replacement": 'reason = "reached the band boundary"',
        "tests": ["tests/test_mechsim.py::test_a_nan_friction_force_is_not_reported_at_the_band_boundary"],
    },
    # -- arguments that cannot be run
    {
        "name": "model-factories-accept-non-finite-parameters",
        "why": "dahl and boucwen take NaN and +-inf parameters",
        "file": "models.py",
        "snippet": "if not math.isfinite(v):",
        "replacement": "if False:",
        "tests": [
            "tests/test_models.py::test_factories_reject_a_parameter_that_is_not_finite",
            "tests/test_cli.py::test_a_model_parameter_that_is_not_finite_is_a_config_error",
        ],
    },
    {
        "name": "lemma1-epsilon-may-be-non-finite",
        "why": "check_lemma1 with no check of epsilon: NaN or inf fails its report instead of raising",
        "file": "curves.py",
        "snippet": '    _check_positive("epsilon", epsilon)\n',
        "replacement": "",
        "tests": ["tests/test_curves.py::test_lemma_check_rejects_an_epsilon_that_is_not_finite"],
    },
    {
        "name": "curves-tau-range-unchecked",
        "why": "duhem curves leaves a tau range that misses --xi to traversing_curve (exit 1)",
        "file": "cli.py",
        "snippet": "if not args.tau_min <= p.xi <= args.tau_max:",
        "replacement": "if False:",
        "tests": ["tests/test_cli.py::test_a_tau_range_that_misses_xi_is_a_config_error"],
    },
    {
        "name": "step-may-be-infinite",
        "why": "the crossing rides' set-up with no check of the step: inf leaves no step budget, NaN fails in int()",
        "file": "curves.py",
        "snippet": '    _check_positive("step", step)\n    sigma = np.atleast_1d(',
        "replacement": "    sigma = np.atleast_1d(",
        "tests": ["tests/test_curves.py::test_marches_and_rides_reject_a_step_that_is_not_finite"],
    },
    {
        "name": "simulate-checks-the-step-per-segment-only",
        "why": "simulate reads the step only where a segment moves",
        "file": "core.py",
        "snippet": '    if step is not None:\n        _check_positive("step", step)\n',
        "replacement": "",
        "tests": ["tests/test_core.py::test_simulate_checks_the_step_before_the_first_segment"],
    },
    {
        "name": "traversing-curve-checks-the-step-per-branch-only",
        "why": "traversing_curve reads the step only where a branch moves",
        "file": "curves.py",
        "snippet": '    _check_positive("step", step)\n    if not (tau_min <= p.xi <= tau_max):',
        "replacement": "    if not (tau_min <= p.xi <= tau_max):",
        "tests": ["tests/test_curves.py::test_a_traversing_curve_checks_the_step_where_neither_branch_moves"],
    },
    {
        "name": "ride-xi-may-be-non-finite",
        "why": "the ride set-up takes an infinite xi to the step budget (OverflowError) and a NaN one to the side residual",
        "file": "curves.py",
        "snippet": '    unbounded = ~np.isfinite(xi)\n    if unbounded.any():\n        raise ValueError(points(unbounded, "whose xi is not finite"))\n',
        "replacement": "",
        "tests": ["tests/test_curves.py::test_a_ride_from_an_input_that_is_not_finite_fails_before_any_march"],
    },
    {
        "name": "traversing-curve-tau-may-be-infinite",
        "why": "traversing_curve takes an infinite tau bound to the substep count (OverflowError)",
        "file": "curves.py",
        "snippet": "    if not (math.isfinite(tau_min) and math.isfinite(tau_max)):\n",
        "replacement": "    if False:\n",
        "tests": ["tests/test_curves.py::test_a_traversing_curve_requires_finite_tau_bounds"],
    },
    {
        "name": "signal-family-span-may-be-infinite",
        "why": "SignalFamily with no check of span: NaN and inf pass",
        "file": "storage.py",
        "snippet": '        _check_positive("span", self.span)\n',
        "replacement": "",
        "tests": ["tests/test_storage.py::test_signal_family_rejects_a_span_that_is_not_positive_and_finite"],
    },
    {
        "name": "signal-family-counts-may-be-any-number",
        "why": "SignalFamily takes a float or bool n_random or seed",
        "file": "storage.py",
        "snippet": "            if not (type(v) is int and v >= 0):\n",
        "replacement": "            if not v >= 0:\n",
        "tests": ["tests/test_storage.py::test_signal_family_validation"],
    },
    {
        "name": "breakpoint-counts-may-be-any-number",
        "why": "the breakpoint range of SignalFamily and random_piecewise_linear takes float and bool counts",
        "file": "signals.py",
        "snippet": "if not (type(lo) is type(hi) is int and 2 <= lo <= hi):",
        "replacement": "if not 2 <= lo <= hi:",
        "tests": [
            "tests/test_storage.py::test_signal_family_validation",
            "tests/test_signals.py::test_each_signal_check_names_what_it_rejects[random-breakpoints-not-integer]",
            "tests/test_signals.py::test_each_signal_check_names_what_it_rejects[random-breakpoints-bool]",
        ],
    },
    {
        "name": "breakpoint-range-may-be-any-shape",
        "why": "the breakpoint range is unpacked unchecked: an int or a triple fails with the unpacking error",
        "file": "signals.py",
        "snippet": (
            "    try:\n"
            "        lo, hi = value\n"
            "    except (TypeError, ValueError):\n"
            "        lo = hi = None\n"
        ),
        "replacement": "    lo, hi = value\n",
        "tests": [
            "tests/test_storage.py::test_signal_family_validation",
            "tests/test_signals.py::test_each_signal_check_names_what_it_rejects[random-breakpoints-int]",
            "tests/test_signals.py::test_each_signal_check_names_what_it_rejects[random-breakpoints-triple]",
        ],
    },
    {
        "name": "random-breakpoints-unchecked",
        "why": (
            "random_piecewise_linear draws from n_breakpoints unchecked: (0, 0) "
            "fails with an IndexError, (1, 1) builds an input of one breakpoint"
        ),
        "file": "signals.py",
        "snippet": "    lo, hi = _check_breakpoint_range(n_breakpoints)\n",
        "replacement": "    lo, hi = n_breakpoints\n",
        "tests": [
            "tests/test_signals.py::test_each_signal_check_names_what_it_rejects[random-breakpoints-0-0]",
            "tests/test_signals.py::test_each_signal_check_names_what_it_rejects[random-breakpoints-1-1]",
            "tests/test_cli.py::test_each_cli_check_names_what_it_rejects[random-breakpoints-0-0]",
        ],
    },
    {
        "name": "config-number-may-be-infinite",
        "why": "the CLI's number check accepts inf for --step, --y0 and --tol",
        "file": "cli.py",
        "snippet": "not isinstance(value, bool)\n        and math.isfinite(value)",
        "replacement": "not isinstance(value, bool)\n        and value == value",
        "tests": [
            "tests/test_cli.py::test_a_verify_tol_that_is_not_positive_and_finite_is_a_config_error",
            "tests/test_cli.py::test_an_infinite_step_is_a_config_error",
        ],
    },
    {
        "name": "config-number-may-be-a-bool",
        "why": "the CLI's number check takes a JSON true for 1 and false for 0",
        "file": "cli.py",
        "snippet": "and not isinstance(value, bool)",
        "replacement": "",
        "tests": ["tests/test_cli.py::test_a_config_number_given_as_a_json_boolean_is_a_config_error"],
    },
    {
        "name": "bruteforce-nothing-extracted-is-minus-zero",
        "why": "a signal that extracts nothing reads -0.0 (-minW instead of 0.0 - minW)",
        "file": "storage.py",
        "snippet": "np.maximum(0.0, 0.0 - minW[a:b])",
        "replacement": "np.maximum(0.0, -minW[a:b])",
        "tests": ["tests/test_storage.py::test_a_signal_that_extracts_nothing_reads_plus_zero"],
    },
    # -- the storage by quadrature in the reduced coordinate z = a xi - b sigma
    {
        "name": "output-only-storage-on-the-other-branch",
        "why": (
            "H built on f2 below the curve and f1 above: the required supply, "
            "itself a storage function, so the dissipation reports pass it; "
            "only the agreement tests tell"
        ),
        "file": "storage.py",
        "snippet": "((model.f1, block > 0.0), (model.f2, block < 0.0))",
        "replacement": "((model.f2, block > 0.0), (model.f1, block < 0.0))",
        "tests": [
            "tests/test_storage.py::test_output_only_storage_is_the_dahl_closed_form",
            "tests/test_storage.py::test_output_only_storage_is_the_boucwen_closed_form",
            "tests/test_storage.py::test_output_only_storage_is_the_fine_ride_on_the_fig1_preset",
        ],
    },
    {
        "name": "one-variable-storage-on-the-other-branch",
        "why": (
            "with a = 1, g read at -z: for exp_example (g1(-w) = g2(w)) H "
            "built on g2 where z > 0 and g1 where z < 0, the required "
            "supply, which only the exact storage and the rides tell apart"
        ),
        "file": "storage.py",
        "snippet": "rate = a - b * g(f, nodes)",
        "replacement": "rate = a - b * g(f, (1.0 - 2.0 * a) * nodes)",
        "tests": [
            "tests/test_storage.py::test_one_variable_storage_is_the_exact_exp_storage",
            "tests/test_storage.py::test_readme_exp_ride_is_within_its_step_halving_error_of_the_exact_storage",
        ],
    },
    {
        "name": "one-variable-xi-may-be-non-finite",
        "why": "a storage with a = 1 at a NaN xi reads NaN, at no branch",
        "file": "storage.py",
        "snippet": (
            "    if a and not np.isfinite(xi).all():\n"
            '        raise ValueError(samples(~np.isfinite(xi), "whose xi is not finite"))\n'
        ),
        "replacement": "",
        "tests": ["tests/test_storage.py::test_one_variable_storage_is_its_closed_form_and_names_the_first_failing_sample"],
    },
    {
        "name": "battery-rides-a-one-variable-model",
        "why": "the dissipation battery rides exp_example's samples instead of taking the quadrature in w",
        "file": "dissipativity.py",
        "snippet": "if model.reduced_form is not None:",
        "replacement": "if model.reduced_form == (0.0, 1.0):",
        "tests": ["tests/test_dissipativity.py::test_a_one_variable_battery_takes_the_quadrature_in_w_and_no_ride"],
    },
    {
        "name": "one-variable-f-an-unchecked",
        "why": "a reduced form takes any f_an, one ulp off xi / c included",
        "file": "core.py",
        "snippet": '                pairs.append(("f_an(xi)", f_an(xi), "a xi / b", a * xi / b))\n',
        "replacement": "                pass\n",
        "tests": [
            "tests/test_models.py::test_a_one_variable_declaration_needs_f_an_to_be_xi_over_c_bit_for_bit",
            "tests/test_models.py::test_a_sigma_only_declaration_whose_field_reads_xi_is_rejected",
        ],
    },
    {
        "name": "one-variable-curve-unchecked-without-f-an",
        "why": "a reduced-form model without f_an may have g1(0) != g2(0), its curve off z = 0",
        "file": "core.py",
        "snippet": '                pairs.append(("g1(0)", g(f1, at_0), "g2(0)", g(f2, at_0)))\n',
        "replacement": "                pass\n",
        "tests": [
            "tests/test_models.py::test_a_one_variable_model_without_f_an_needs_its_fields_to_meet_at_w_0",
            "tests/test_models.py::test_a_sigma_only_model_without_f_an_needs_its_fields_to_meet_at_0",
        ],
    },
    {
        "name": "one-variable-fields-unchecked",
        "why": "a reduced form takes fields that read sigma or xi apart from z",
        "file": "core.py",
        "snippet": (
            "            pairs = [\n"
            '                ("f1(sigma, xi)", f1(sigma, xi), "g1(a xi - b sigma)", g(f1, z)),\n'
            '                ("f2(sigma, xi)", f2(sigma, xi), "g2(a xi - b sigma)", g(f2, z)),\n'
            "            ]\n"
        ),
        "replacement": "            pairs = []\n",
        "tests": ["tests/test_models.py::test_a_one_variable_declaration_whose_fields_read_more_is_rejected"],
    },
    {
        "name": "one-variable-c-may-be-any-number",
        "why": "a reduced form (1, b) takes a b that is not positive and finite",
        "file": "core.py",
        "snippet": """        _check_positive("reduced_form's b", b)\n""",
        "replacement": "",
        "tests": ["tests/test_models.py::test_a_one_variable_c_must_be_positive_and_finite"],
    },
    {
        "name": "output-only-slope-unchecked-at-sigma",
        "why": "the rate a - b g is checked at the quadrature nodes but not at the point itself",
        "file": "storage.py",
        "snippet": "bad[lanes] = ~((rate < 0.0) & (rate > -math.inf)).all(axis=1)",
        "replacement": "bad[lanes] = ~((rate < 0.0) & (rate > -math.inf))[:, :-1].all(axis=1)",
        "tests": [
            "tests/test_storage.py::test_output_only_storage_names_the_first_failing_sample",
            "tests/test_storage.py::test_one_variable_storage_is_its_closed_form_and_names_the_first_failing_sample",
        ],
    },
    {
        "name": "reduced-form-not-normalised",
        "why": "a reduced form may be any (a, b): (0, 2) or (0.5, 1) spell a coordinate twice or scale it",
        "file": "core.py",
        "snippet": "if a not in (0.0, 1.0) or a == 0.0 and b != 1.0:",
        "replacement": "if a is None:",
        "tests": ["tests/test_models.py::test_a_reduced_form_is_0_1_or_1_b"],
    },
    {
        "name": "xi-free-declaration-unchecked",
        "why": "DuhemModel skips the probe check of a reduced_form declaration",
        "file": "core.py",
        "snippet": "        if self.reduced_form is not None:\n            self._check_reduced_form()",
        "replacement": "        pass",
        "tests": [
            "tests/test_models.py::test_a_sigma_only_declaration_whose_field_reads_xi_is_rejected",
            "tests/test_models.py::test_a_one_variable_declaration_whose_fields_read_more_is_rejected",
        ],
    },
    # -- the f_an term of the storage, and the float ride's branch integral
    {
        "name": "anhysteresis-rule-without-its-length",
        "why": "the Gauss-Legendre sums of f_an are not scaled by the length lam of [0, lam]",
        "file": "storage.py",
        "snippet": "    return 0.0 + lam * sums\n",
        "replacement": "    return 0.0 + sums\n",
        "tests": [
            "tests/test_storage.py::test_anhysteresis_integrals_are_the_closed_forms_of_smooth_curves",
            "tests/test_storage.py::test_batch_route_agrees_with_quadrature_route_on_a_nonlinear_curve",
            "tests/test_storage.py::test_batch_route_agrees_with_quadrature_route",
        ],
    },
    {
        "name": "anhysteresis-integrals-zero-f-an-minus-zero",
        "why": "the batch route's integral of a zero f_an reads -0.0 at lam < 0 (lam * sums without 0.0 +)",
        "file": "storage.py",
        "snippet": "return 0.0 + lam * sums",
        "replacement": "return lam * sums",
        "tests": ["tests/test_storage.py::test_a_zero_anhysteresis_curve_integrates_to_plus_zero_in_both_routes"],
    },
    {
        "name": "float-ride-drops-the-crossing-partial-integral",
        "why": "the single-point ride's branch integral stops at the last step before the crossing",
        "file": "curves.py",
        "snippet": "        acc + hermite_partial_integral(lam, tA, tB, yA, yB, fA, fB),\n",
        "replacement": "        acc,\n",
        "tests": [
            "tests/test_curves.py::test_float_refinement_is_the_vector_refinement_bit_for_bit",
            "tests/test_curves.py::test_single_point_ride_is_the_batch_lane_bit_for_bit",
        ],
    },
    {
        "name": "single-point-crossing-residual-unchecked",
        "why": "intersect_lambda and storage_cw return a crossing whose branch value lies off the anhysteresis curve",
        "file": "curves.py",
        "snippet": "    if not mismatch <= 1e-9:\n        raise CrossingSearchError(\n            f\"crossing refinement stalled: |omega",
        "replacement": "    if False:\n        raise CrossingSearchError(\n            f\"crossing refinement stalled: |omega",
        "tests": [
            "tests/test_curves.py::test_storage_cw_fails_the_crossing_residual_check_as_intersect_lambda_does",
            "tests/test_curves.py::test_intersect_lambda_rejects_a_nan_residual",
        ],
    },
    # -- the friction parameters and the tolerance of a check
    {
        "name": "mech-params-accept-nan",
        "why": "MechParams rejects an infinite parameter but not a NaN",
        "file": "mechsim.py",
        "snippet": 'if not math.isfinite(getattr(self, name)):\n                raise ValueError(f"{name} must be finite, got',
        "replacement": 'if math.isinf(getattr(self, name)):\n                raise ValueError(f"{name} must be finite, got',
        "tests": [
            "tests/test_mechsim.py::test_params_reject_a_value_that_is_not_finite",
            "tests/test_cli.py::test_mech_rejects_a_parameter_that_is_not_finite_as_config_error",
        ],
    },
    {
        "name": "check-tol-may-be-infinite",
        "why": "the dissipation battery with no check of a given tol: inf passes any battery",
        "file": "dissipativity.py",
        "snippet": '    else:\n        _check_positive("tol", tol)\n',
        "replacement": "",
        "tests": [
            "tests/test_dissipativity.py::test_dissipation_battery_rejects_a_tol_that_is_not_positive_and_finite",
        ],
    },
    {
        "name": "lyapunov-tol-unchecked",
        "why": "lyapunov_check with no check of its tol: inf passes any series",
        "file": "mechsim.py",
        "snippet": '    _check_positive("tol", tol)\n    dt = np.diff(series.t)',
        "replacement": "    dt = np.diff(series.t)",
        "tests": ["tests/test_mechsim.py::test_mech_checks_reject_a_tol_that_is_not_positive_and_finite"],
    },
    {
        "name": "port-tol-unchecked",
        "why": "passivity_port_check with no check of its tol: inf passes any series",
        "file": "mechsim.py",
        "snippet": '    _check_positive("tol", tol)\n    if params.mode != "feedback":',
        "replacement": '    if params.mode != "feedback":',
        "tests": ["tests/test_mechsim.py::test_mech_checks_reject_a_tol_that_is_not_positive_and_finite"],
    },
    {
        "name": "mech-horizon-unchecked",
        "why": "simulate_mech with no check of its horizon: inf and NaN fail the step cap with its message",
        "file": "mechsim.py",
        "snippet": '    _check_positive("horizon", horizon)\n',
        "replacement": "",
        "tests": ["tests/test_mechsim.py::test_horizon_and_step_validation"],
    },
    {
        "name": "mech-step-unchecked",
        "why": "simulate_mech with no check of its step: 0 divides by zero, NaN fails the step cap",
        "file": "mechsim.py",
        "snippet": '    _check_positive("horizon", horizon)\n    _check_positive("step", step)\n',
        "replacement": '    _check_positive("horizon", horizon)\n',
        "tests": ["tests/test_mechsim.py::test_horizon_and_step_validation"],
    },
    {
        "name": "bruteforce-step-unchecked",
        "why": "the brute-force search with no check of its step: it rides with step NaN or inf",
        "file": "storage.py",
        "snippet": '        raise ValueError(f"horizon must be positive, got {horizon}")\n    _check_positive("step", step)\n',
        "replacement": '        raise ValueError(f"horizon must be positive, got {horizon}")\n',
        "tests": ["tests/test_storage.py::test_bruteforce_rejects_a_bad_horizon_or_step_before_any_ride"],
    },
    {
        "name": "positive-check-takes-infinity",
        "why": "the one positive-and-finite check lets inf through at every site",
        "file": "report.py",
        "snippet": "if not 0.0 < value < math.inf:",
        "replacement": "if not 0.0 < value:",
        "tests": [
            "tests/test_report.py::test_positive_check_names_the_argument_and_returns_a_good_value",
            "tests/test_core.py::test_simulate_rejects_a_step_that_is_not_finite",
            "tests/test_integrate.py::test_adaptive_simpson_rejects_a_tol_that_is_not_positive_and_finite",
        ],
    },
    {
        "name": "adaptive-simpson-tol-unchecked",
        "why": "adaptive_simpson with no check of its tolerance",
        "file": "integrate.py",
        "snippet": '    _check_positive("tol", tol)\n    if a == b:',
        "replacement": "    if a == b:",
        "tests": ["tests/test_integrate.py::test_adaptive_simpson_rejects_a_tol_that_is_not_positive_and_finite"],
    },
    # -- the recipe of `duhem verify` as one library call
    {
        "name": "verify-model-drops-the-backward-battery",
        "why": "verify_model returns six reports, without the backward dissipation battery",
        "file": "dissipativity.py",
        "snippet": '    reports.append(_aggregate("dissipation-backward-battery", [b for _, b in pairs]))\n',
        "replacement": "",
        "tests": [
            "tests/test_dissipativity.py::test_verify_model_passes_a_model_outside_the_catalog_that_is_not_odd",
            "tests/test_dissipativity.py::test_verify_model_fails_the_loop_orientation_of_the_reflected_dahl",
            "tests/test_cli.py::test_verify_writes_the_reports_and_loops_of_verify_model",
        ],
    },
    {
        "name": "aggregate-takes-the-first-run",
        "why": "a battery report is its first run instead of its worst",
        "file": "dissipativity.py",
        "snippet": "(k,), _ = worst_point([r.worst_violation - r.tolerance for r in reports])",
        "replacement": "k = 0",
        "tests": [
            "tests/test_dissipativity.py::test_aggregate_of_a_failing_and_a_passing_run_is_the_failing_run",
            "tests/test_dissipativity.py::test_aggregate_with_a_nan_run_fails_wherever_the_run_stands",
        ],
    },
    {
        "name": "boucwen-region-guard-dropped",
        "why": "duhem verify takes a Bouc-Wen region from any alpha / (beta + zeta)",
        "file": "cli.py",
        "snippet": "if not 0.0 < ratio < math.inf:",
        "replacement": "if False:",
        "tests": ["tests/test_cli.py::test_a_boucwen_model_with_no_verification_region_is_a_config_error"],
    },
    {
        "name": "verify-model-takes-an-empty-battery",
        "why": "verify_model runs its certificates on an empty battery and fails in argmax",
        "file": "dissipativity.py",
        "snippet": '    if not battery:\n        raise ValueError("battery must hold at least one input")\n',
        "replacement": "",
        "tests": ["tests/test_dissipativity.py::test_verify_model_rejects_an_empty_battery"],
    },
    {
        "name": "battery-input-with-one-breakpoint-unchecked",
        "why": "the dissipation battery simulates a one-breakpoint input and fails in argmax",
        "file": "dissipativity.py",
        "snippet": "        if sig.times.size < 2:",
        "replacement": "        if False:",
        "tests": ["tests/test_dissipativity.py::test_dissipation_battery_names_its_first_input_with_one_breakpoint"],
    },
    {
        "name": "preset-takes-params",
        "why": "duhem verify --preset replaces --params (config 'params') without a word",
        "file": "cli.py",
        "snippet": "        if cfg.params:\n",
        "replacement": "        if False:\n",
        "tests": ["tests/test_cli.py::test_a_preset_with_model_parameters_is_a_config_error"],
    },
    # -- the one CSV writer of the artifacts
    {
        "name": "csv-writes-16-digits",
        "why": "the CSV writer rounds every value to 16 significant digits",
        "file": "report.py",
        "snippet": 'row = ",".join(["{:.17g}"] * len(columns))',
        "replacement": 'row = ",".join(["{:.16g}"] * len(columns))',
        "tests": [
            "tests/test_core.py::test_trajectory_csv_roundtrip",
            "tests/test_report.py::test_csv_rows_are_the_17_digit_rows_of_savetxt",
        ],
    },
    # -- the config checks of the CLI
    {
        "name": "config-seed-accepts-a-bool",
        "why": "a config seed of true runs as seed 1",
        "file": "cli.py",
        "snippet": "isinstance(cfg.seed, bool) or ",
        "replacement": "",
        "tests": ["tests/test_cli.py::test_a_config_seed_that_is_not_a_nonnegative_integer_is_a_config_error"],
    },
    # -- the loop report of verify on an input that closes no cycle
    {
        "name": "verify-open-loop-report-passes",
        "why": "verify_model passes the loop-orientation report of a loop input that closes no cycle",
        "file": "dissipativity.py",
        "snippet": 'name="loop-orientation", worst_violation=math.inf,',
        "replacement": 'name="loop-orientation", worst_violation=-math.inf,',
        "tests": ["tests/test_cli.py::test_verify_with_a_loop_input_that_closes_no_cycle_writes_its_reports"],
    },
    # -- the counts of the signal constructors
    {
        "name": "triangle-cycles-may-be-any-number",
        "why": "triangle takes 2.5 cycles and fails in range with a TypeError",
        "file": "signals.py",
        "snippet": '    _check_count("cycles", cycles)\n',
        "replacement": "",
        "tests": [
            "tests/test_signals.py::test_each_signal_check_names_what_it_rejects[triangle-cycles-not-integer]",
            "tests/test_cli.py::test_each_cli_check_names_what_it_rejects[cycles-2.5]",
        ],
    },
    {
        "name": "sine-periods-may-be-any-number",
        "why": "sine_sampled takes 1.5 periods and fails in np.linspace with a TypeError",
        "file": "signals.py",
        "snippet": '    _check_count("periods", periods)\n',
        "replacement": "",
        "tests": [
            "tests/test_signals.py::test_each_signal_check_names_what_it_rejects[sine-periods-not-integer]",
            "tests/test_cli.py::test_each_cli_check_names_what_it_rejects[periods-1.5]",
        ],
    },
    {
        "name": "sine-n-per-period-may-be-any-number",
        "why": "sine_sampled takes 256.0 samples a period and fails in np.linspace with a TypeError",
        "file": "signals.py",
        "snippet": '    _check_count("n_per_period", n_per_period)\n',
        "replacement": "",
        "tests": ["tests/test_signals.py::test_each_signal_check_names_what_it_rejects[sine-n-per-period-not-integer]"],
    },
    # -- the anhysteresis search on a band
    {
        "name": "band-search-probes-the-domain-ends",
        "why": "the anhysteresis search limits are the band's ends, where the fields may blow up",
        "file": "curves.py",
        "snippet": (
            "    if math.isfinite(lo):\n"
            "        lo = lo + 1e-9 * (1.0 + abs(lo))\n"
            "    if math.isfinite(hi):\n"
            "        hi = hi - 1e-9 * (1.0 + abs(hi))\n"
        ),
        "replacement": "",
        "tests": ["tests/test_curves.py::test_the_anhysteresis_search_on_a_band_stays_inside_its_ends"],
    },
]
