"""Input refusals of the public entry points that no other test reaches."""

import math

import numpy as np
import pytest

from smoothlab import (
    ExperimentConfig,
    SmoothCountQuery,
    SmoothingKernel,
    character_group,
    check_calculus,
    check_majorant,
    check_pointwise_product,
    count_smooth_bigx,
    ennola_estimate,
    export_results,
    is_smooth,
    pointwise_product_chain,
    power_subgroup,
    principal_character,
    run_suite,
    saddle_alpha,
    smooth_values,
)

ONE = np.ones(1)
NAN = np.full(1, np.nan)
NOT_INTEGER = "modulus q must be an integer, got"
BELOW_ONE = "modulus q must be >= 1"
NOT_INTEGER_A = "residue a must be an integer, got"
NARROWEST = SmoothingKernel(lo=1.0, hi=1.0 + 1e-15)
TOO_NARROW = r"kernel transition too narrow for float arithmetic \(lo=1.0, hi=1.000000000000001\)"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda tmp: SmoothCountQuery(x=10, y=5, q=3, a=3), r"residue a must lie in \[0, q\)"),
        (lambda tmp: is_smooth(0, 5), "n must be a positive integer"),
        (lambda tmp: count_smooth_bigx((1, 5), 3.0), "bigx needs base >= 2 and exponent >= 1"),
        (lambda tmp: count_smooth_bigx((2, 0), 3.0), "bigx needs base >= 2 and exponent >= 1"),
        (lambda tmp: ExperimentConfig(xs=(), ys=(5.0,), qs=(3,)), "xs, ys, qs must be nonempty"),
        (lambda tmp: export_results([], "xml", tmp / "out"), "format must be 'csv' or 'json'"),
        (lambda tmp: power_subgroup(0, 2), BELOW_ONE),
        (lambda tmp: power_subgroup(-5, 2), BELOW_ONE),
        (lambda tmp: check_majorant(0, ONE, ONE, ONE, 1.0), "need 1 <= n <= "),
        (
            lambda tmp: check_majorant(1, np.ones(2), ONE, ONE, 1.0),
            "lambdas, a, big_a must all have length n",
        ),
        (lambda tmp: check_majorant(1, ONE, ONE, ONE, 0.0), "need T > 0"),
        (lambda tmp: check_majorant(1, ONE, ONE, ONE, np.nan), "and T must be finite"),
        (lambda tmp: check_majorant(1, NAN, ONE, ONE, 1.0), "and T must be finite"),
        (lambda tmp: check_majorant(1, ONE, NAN, ONE, 1.0), "and T must be finite"),
        (lambda tmp: check_majorant(1, ONE, ONE, NAN, 1.0), "and T must be finite"),
        (lambda tmp: check_calculus(0.5, np.nan), "need finite t >= 0"),
        (lambda tmp: pointwise_product_chain(1, 1.0, 0.0, 1.0), "p must be a prime >= 2"),
        (lambda tmp: pointwise_product_chain(2, 1.0, 0.0, 0.0), "need alpha > 0"),
        (lambda tmp: run_suite("nope", 1), "suite must be one of"),
        (lambda tmp: run_suite("calculus", 1, seed_base=-5), "seed base must be >= 0, got -5"),
        (lambda tmp: character_group(0), BELOW_ONE),
        (
            lambda tmp: character_group(5)[1] * character_group(7)[1],
            "can only multiply characters to the same modulus",
        ),
        (lambda tmp: SmoothCountQuery(100, 10, 3.5), f"{NOT_INTEGER} 3.5"),
        (lambda tmp: SmoothCountQuery(100, 10, 3.5, 1), f"{NOT_INTEGER} 3.5"),
        (lambda tmp: SmoothCountQuery(100, 10, True), f"{NOT_INTEGER} True"),
        (lambda tmp: smooth_values(100, 10, 2.5), f"{NOT_INTEGER} 2.5"),
        (lambda tmp: count_smooth_bigx((2, 10), 3.0, 2.5), f"{NOT_INTEGER} 2.5"),
        (lambda tmp: ennola_estimate((2, 100), 3.0, 2.5), f"{NOT_INTEGER} 2.5"),
        (lambda tmp: saddle_alpha(100, 10, 2.5), f"{NOT_INTEGER} 2.5"),
        (lambda tmp: power_subgroup(7.5, 2), f"{NOT_INTEGER} 7.5"),
        # the group of 7 (of 1) is built first, so a cached entry cannot answer 7.0 (True)
        (lambda tmp: [character_group(q) for q in (7, 7.0)], f"{NOT_INTEGER} 7.0"),
        (lambda tmp: [character_group(q) for q in (1, True)], f"{NOT_INTEGER} True"),
        (lambda tmp: principal_character(7.0), f"{NOT_INTEGER} 7.0"),
        (lambda tmp: SmoothingKernel().phi(math.nan), "kernel argument must be nonnegative"),
        (lambda tmp: pointwise_product_chain(2, math.nan, 0.0, 1.0), "chi_p must be finite"),
        (lambda tmp: pointwise_product_chain(2, 1.0, math.inf, 1.0), "t must be finite"),
        (lambda tmp: pointwise_product_chain(2, 1.0, 0.0, math.nan), "alpha must be finite"),
        (lambda tmp: check_pointwise_product(2, math.nan, 1.0, 1.0), "chi_p must be finite"),
        (lambda tmp: check_pointwise_product(2, 1.0, math.inf, 1.0), "t must be finite"),
        (lambda tmp: check_pointwise_product(2, 1.0, 1.0, math.nan), "alpha must be finite"),
        # every entry that takes a modulus refuses q in {0, -3, 2.5, True}
        (lambda tmp: SmoothCountQuery(100, 10, 0), BELOW_ONE),
        (lambda tmp: SmoothCountQuery(100, 10, -3), BELOW_ONE),
        (lambda tmp: SmoothCountQuery(100, 10, 2.5), f"{NOT_INTEGER} 2.5"),
        (lambda tmp: smooth_values(100, 10, 0), BELOW_ONE),
        (lambda tmp: smooth_values(100, 10, -3), BELOW_ONE),
        (lambda tmp: smooth_values(100, 10, True), f"{NOT_INTEGER} True"),
        (lambda tmp: count_smooth_bigx((2, 10), 3.0, 0), BELOW_ONE),
        (lambda tmp: count_smooth_bigx((2, 10), 3.0, -3), BELOW_ONE),
        (lambda tmp: count_smooth_bigx((2, 10), 3.0, True), f"{NOT_INTEGER} True"),
        (lambda tmp: ennola_estimate((2, 100), 3.0, 0), BELOW_ONE),
        (lambda tmp: ennola_estimate((2, 100), 3.0, -3), BELOW_ONE),
        (lambda tmp: ennola_estimate((2, 100), 3.0, True), f"{NOT_INTEGER} True"),
        (lambda tmp: saddle_alpha(100, 10, 0), BELOW_ONE),
        (lambda tmp: saddle_alpha(100, 10, -3), BELOW_ONE),
        (lambda tmp: saddle_alpha(100, 10, True), f"{NOT_INTEGER} True"),
        (lambda tmp: power_subgroup(-3, 2), BELOW_ONE),
        (lambda tmp: power_subgroup(2.5, 2), f"{NOT_INTEGER} 2.5"),
        (lambda tmp: power_subgroup(True, 2), f"{NOT_INTEGER} True"),
        (lambda tmp: character_group(-3), BELOW_ONE),
        (lambda tmp: character_group(2.5), f"{NOT_INTEGER} 2.5"),
        (lambda tmp: principal_character(0), BELOW_ONE),
        (lambda tmp: principal_character(-3), BELOW_ONE),
        (lambda tmp: principal_character(2.5), f"{NOT_INTEGER} 2.5"),
        (lambda tmp: principal_character(True), f"{NOT_INTEGER} True"),
        # a residue that is not an integer is refused as q is, not left to gcd
        (lambda tmp: SmoothCountQuery(x=10, y=5, q=3, a=1.5), f"{NOT_INTEGER_A} 1.5"),
        (lambda tmp: SmoothCountQuery(x=10, y=5, q=3, a=True), f"{NOT_INTEGER_A} True"),
        # the modulus is checked before the cached unit group, which cannot hash a list
        (lambda tmp: character_group([5]), rf"{NOT_INTEGER} \[5\]"),
        (lambda tmp: principal_character([5]), rf"{NOT_INTEGER} \[5\]"),
        # a transition whose closed-form coefficients pass the float range
        (lambda tmp: NARROWEST.mellin(0.5 + 1j), TOO_NARROW),
        (lambda tmp: NARROWEST.mellin_tail(0.5, 10.0), TOO_NARROW),
        (lambda tmp: NARROWEST.decay_constant(), TOO_NARROW),
    ],
    ids=[
        "residue_not_below_q", "is_smooth_zero", "bigx_base_1", "bigx_exponent_0",
        "config_empty_xs", "export_format_xml", "power_subgroup_q_0", "power_subgroup_q_minus_5",
        "majorant_n_0", "majorant_unequal_lengths", "majorant_T_0", "majorant_T_nan",
        "majorant_lambdas_nan", "majorant_a_nan", "majorant_big_a_nan", "calculus_t_nan",
        "chain_p_1", "chain_alpha_0", "suite_unknown", "suite_seed_base_negative",
        "character_group_0", "characters_of_two_moduli",
        "query_q_3.5", "query_q_3.5_residue_1", "query_q_true", "smooth_values_q_2.5",
        "bigx_q_2.5", "ennola_q_2.5", "saddle_q_2.5", "power_subgroup_q_7.5",
        "character_group_7.0", "character_group_true", "principal_character_7.0", "phi_nan",
        "chain_chi_p_nan", "chain_t_inf", "chain_alpha_nan",
        "pointwise_chi_p_nan", "pointwise_t_inf", "pointwise_alpha_nan",
        "query_q_0", "query_q_minus_3", "query_q_2.5",
        "smooth_values_q_0", "smooth_values_q_minus_3", "smooth_values_q_true",
        "bigx_q_0", "bigx_q_minus_3", "bigx_q_true",
        "ennola_q_0", "ennola_q_minus_3", "ennola_q_true",
        "saddle_q_0", "saddle_q_minus_3", "saddle_q_true",
        "power_subgroup_q_minus_3", "power_subgroup_q_2.5", "power_subgroup_q_true",
        "character_group_minus_3", "character_group_2.5",
        "principal_character_0", "principal_character_minus_3",
        "principal_character_2.5", "principal_character_true",
        "residue_1.5", "residue_true", "character_group_list", "principal_character_list",
        "narrow_kernel_mellin", "narrow_kernel_mellin_tail", "narrow_kernel_decay_constant",
    ],
)
def test_refused_with_value_error(tmp_path, call, message):
    with pytest.raises(ValueError, match=message):
        call(tmp_path)
    assert not list(tmp_path.iterdir())  # nothing is written before a refusal
