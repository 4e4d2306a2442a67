"""Random residual sweeps of the identities, for ``skewbound verify`` and the tests.

Each suite draws one case from a ``np.random.Generator`` and yields ``(check,
residual)`` per identity; a check that raises SkewboundError is skipped with the
rest of its ``try``.  The draw order fixes the case each seed gives; keep it.
"""

from __future__ import annotations

import numpy as np

from . import equalities, linalg, moments, qubit, weakvalue
from .errors import SkewboundError
from .linalg import DEFAULT_TOL, Tolerances


def equalities_case(rng: np.random.Generator, tol: Tolerances = DEFAULT_TOL):
    """Uncertainty equalities on a random state of random rank, d <= 5."""
    d = int(rng.integers(2, 6))
    rho = linalg.random_density(d, int(rng.integers(1, d + 1)), rng)
    A = linalg.random_operator(d, rng)
    B = linalg.random_operator(d, rng)
    s = float(rng.choice([0.25, 0.5, 0.75]))
    yield "sum", equalities.sum_equality(A, B, rho, tol).residual
    try:
        yield "product", equalities.product_equality(A, B, rho, tol).residual
        yield "product_nontrivial", equalities.product_equality_nontrivial(A, B, rho, tol).residual
    except SkewboundError:
        pass
    Xs = [linalg.random_hermitian(d, rng) for _ in range(3)]
    yield "three_sum", equalities.three_observable_sum_equality(*Xs, rho, tol).residual
    try:
        yield "three_product", equalities.three_observable_product_equality(*Xs, rho, tol).residual
    except SkewboundError:
        pass
    try:
        yield "skew_product", equalities.skew_product_equality(A, B, rho, s, tol).residual
        yield "skew_correction", equalities.skew_product_correction_identity(
            A, B, rho, s, tol).residual
    except SkewboundError:
        pass


def qubit_case(rng: np.random.Generator, tol: Tolerances = DEFAULT_TOL):
    """Three-direction equalities on a strictly mixed qubit away from I/2
    (where they are 0/0), and the closed-form generalized skew."""
    lam = float(rng.uniform(0.05, 0.45))
    U = linalg.haar_unitary(2, rng)
    rho = linalg.density(U @ np.diag([lam, 1 - lam]) @ U.conj().T)
    n1, n2, n3 = np.linalg.qr(rng.normal(size=(3, 3)))[0].T
    orders = [float(rng.choice([0.0, -1.0, -2.0, float("-inf")])) for _ in range(3)]
    yield "triple_skew", qubit.orthogonal_triple_skew_equality(
        n1, n2, n3, rho, orders, tol).residual
    first, second = qubit.mixed_triple_equalities(n1, n2, n3, rho, orders, tol)
    yield "triple_mixed", first.residual
    yield "triple_mixed_purity", second.residual
    yield "variance_fisher", qubit.direction_variance_fisher_identity(n1, rho, tol).residual
    yield "variance_skew", qubit.direction_variance_skew_identity(n2, rho, orders[1], tol).residual
    yield "triple_purity", qubit.triple_purity_identity(n1, n2, n3, rho).residual
    sigma = linalg.random_operator(2, rng)
    yield "closed_form", (qubit.qubit_gen_skew_closed(sigma, rho, orders[0], tol)
                          - moments.gen_skew(sigma, rho, orders[0], tol))


def weakvalue_case(rng: np.random.Generator, tol: Tolerances = DEFAULT_TOL):
    """Weak-value reconstruction of the skew information and the subsystem
    collapse identities on a full-rank state, d <= 4, in a Haar basis."""
    d = int(rng.integers(2, 5))
    rho = linalg.random_density(d, d, rng)
    A = linalg.random_hermitian(d, rng)
    s = float(rng.choice([0.3, 0.5, 0.7]))
    basis = list(linalg.haar_unitary(d, rng).T)
    rec = weakvalue.reconstruct_skew(A, rho, s, basis=basis, tol=tol)
    yield "reconstruction", rec.value - moments.wyd_skew(A, rho, s, tol)
    yield "imag", rec.imag_residual
    sub = weakvalue.subsystem_weak_values(A, rho, s, basis=basis, tol=tol)
    yield "factorization", sub.factorization_residual
    yield "conjugation", sub.conjugation_residual


# suite -> (seed offset, case generator); seed k draws from default_rng(offset + k)
SUITES = {
    "equalities": (10_000, equalities_case),
    "qubit": (20_000, qubit_case),
    "weakvalue": (30_000, weakvalue_case),
}


def worst_residual(suite: str, seeds: int, tol: Tolerances = DEFAULT_TOL) -> dict:
    """``max_residual``, the largest |residual| of ``suite`` over seeds
    0..seeds-1, and ``worst_case``, where (``"<check> seed=<k>"``, or "")."""
    offset, case = SUITES[suite]
    worst, where = 0.0, ""
    for seed in range(seeds):
        for check, residual in case(np.random.default_rng(offset + seed), tol):
            if abs(residual) > worst:
                worst, where = abs(residual), f"{check} seed={seed}"
    return {"max_residual": worst, "worst_case": where}
