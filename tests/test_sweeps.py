import numpy as np
import pytest

from skewbound import sweeps

CHECKS = {
    "equalities": ("sum", "product", "product_nontrivial", "three_sum", "three_product",
                   "skew_product", "skew_correction"),
    "qubit": ("triple_skew", "triple_mixed", "triple_mixed_purity", "variance_fisher",
              "variance_skew", "triple_purity", "closed_form"),
    "weakvalue": ("reconstruction", "imag", "factorization", "conjugation"),
}


def residuals(suite, seeds):
    """(check, residual) pairs of ``suite`` over verify's seed stream."""
    offset, case = sweeps.SUITES[suite]
    return [pair for seed in range(seeds)
            for pair in case(np.random.default_rng(offset + seed))]


@pytest.mark.parametrize("suite", CHECKS)
def test_every_check_runs(suite):
    # a check that raised on every case would drop out of the sweep unseen
    assert sorted({check for check, _ in residuals(suite, 20)}) == sorted(CHECKS[suite])


@pytest.mark.parametrize("suite", CHECKS)
def test_residuals_stay_at_rounding_level(suite):
    # far below tol_residual (1e-8): a rewrite that loses digits of an
    # identity shows here while verify still passes
    assert sweeps.worst_residual(suite, 100)["max_residual"] < 1e-11
