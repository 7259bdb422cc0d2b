"""Input refusals of the public entry points that no other test reaches."""

import numpy as np
import pytest

from smoothlab import (
    ExperimentConfig,
    SmoothCountQuery,
    character_group,
    check_calculus,
    check_majorant,
    count_smooth_bigx,
    export_results,
    is_smooth,
    pointwise_product_chain,
    power_subgroup,
    run_suite,
)

ONE = np.ones(1)
NAN = np.full(1, np.nan)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda tmp: SmoothCountQuery(x=10, y=5, q=3, a=3), r"residue a must lie in \[0, q\)"),
        (lambda tmp: is_smooth(0, 5), "n must be a positive integer"),
        (lambda tmp: count_smooth_bigx((1, 5), 3.0), "bigx needs base >= 2 and exponent >= 1"),
        (lambda tmp: count_smooth_bigx((2, 0), 3.0), "bigx needs base >= 2 and exponent >= 1"),
        (lambda tmp: ExperimentConfig(xs=(), ys=(5.0,), qs=(3,)), "xs, ys, qs must be nonempty"),
        (lambda tmp: export_results([], "xml", tmp / "out"), "format must be 'csv' or 'json'"),
        (lambda tmp: power_subgroup(0, 2), "modulus q must be >= 1"),
        (lambda tmp: power_subgroup(-5, 2), "modulus q must be >= 1"),
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
        (lambda tmp: character_group(0), "modulus must be a positive integer"),
        (
            lambda tmp: character_group(5)[1] * character_group(7)[1],
            "can only multiply characters to the same modulus",
        ),
    ],
    ids=[
        "residue_not_below_q", "is_smooth_zero", "bigx_base_1", "bigx_exponent_0",
        "config_empty_xs", "export_format_xml", "power_subgroup_q_0", "power_subgroup_q_minus_5",
        "majorant_n_0", "majorant_unequal_lengths", "majorant_T_0", "majorant_T_nan",
        "majorant_lambdas_nan", "majorant_a_nan", "majorant_big_a_nan", "calculus_t_nan",
        "chain_p_1", "chain_alpha_0", "suite_unknown", "suite_seed_base_negative",
        "character_group_0", "characters_of_two_moduli",
    ],
)
def test_refused_with_value_error(tmp_path, call, message):
    with pytest.raises(ValueError, match=message):
        call(tmp_path)
    assert not list(tmp_path.iterdir())  # nothing is written before a refusal
