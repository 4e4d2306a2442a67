"""Random residual sweeps of the identities, for ``skewbound verify`` and the tests.

Each suite draws one case at a time from a ``np.random.Generator`` (the draw
order fixes the case each seed gives; keep it) and evaluates its cases in
stacks: the cases of one dimension, in chunks of at most
``bounds._STACK_BYTES`` of state matrices, are validated with one
``density_stack`` and each identity is checked once per chunk.  A check
yields one residual per case and a mask of the cases it covers.  A check the
one-case loop ran inside a ``try`` (catching SkewboundError) is evaluated by
the identity's ``.rows`` form, and its mask drops the cases where that check,
or an earlier check of the same ``try``, failed; any other check raises as
the library does.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from . import bounds, equalities, linalg, moments, qubit, weakvalue
from .linalg import DEFAULT_TOL, Tolerances


def draw_equalities(rng: np.random.Generator) -> tuple:
    """A state of random rank, d <= 5, two Ginibre operators, s and three
    Hermitian observables."""
    d = int(rng.integers(2, 6))
    rho = linalg._ginibre_state(d, int(rng.integers(1, d + 1)), rng)
    A, B = linalg.random_operator(d, rng), linalg.random_operator(d, rng)
    s = (0.25, 0.5, 0.75)[rng.integers(3)]
    return (rho, A, B, s, *(linalg.random_hermitian(d, rng) for _ in range(3)))


def evaluate_equalities(tol: Tolerances, rho, A, B, s, X1, X2, X3):
    yield "sum", equalities.sum_equality(A, B, rho, tol).residual, None
    product, ok = equalities.product_equality.rows(A, B, rho, tol)
    yield "product", product.residual, ok
    report, also = equalities.product_equality_nontrivial.rows(A, B, rho, tol)
    yield "product_nontrivial", report.residual, ok & also
    yield "three_sum", equalities.three_observable_sum_equality(X1, X2, X3, rho, tol).residual, None
    report, ok = equalities.three_observable_product_equality.rows(X1, X2, X3, rho, tol)
    yield "three_product", report.residual, ok
    report, ok = equalities.skew_product_equality.rows(A, B, rho, s, tol)
    yield "skew_product", report.residual, ok
    report, also = equalities.skew_product_correction_identity.rows(A, B, rho, s, tol)
    yield "skew_correction", report.residual, ok & also


def draw_qubit(rng: np.random.Generator) -> tuple:
    """A strictly mixed qubit away from I/2 (where the three-direction
    equalities are 0/0), the Gaussian matrix whose Q factor's columns are an
    orthonormal triple, three mean orders and a Ginibre operator."""
    lam = float(rng.uniform(0.05, 0.45))
    U = linalg.haar_unitary(2, rng)
    rho = U @ np.diag([lam, 1 - lam]) @ U.conj().T
    G = rng.normal(size=(3, 3))
    orders = [(0.0, -1.0, -2.0, -np.inf)[rng.integers(4)] for _ in range(3)]
    return (rho, G, *orders, linalg.random_operator(2, rng))


def evaluate_qubit(tol: Tolerances, rho, G, o1, o2, o3, sigma):
    n1, n2, n3 = np.moveaxis(np.linalg.qr(G)[0], -1, 0)
    orders = [o1, o2, o3]
    yield "triple_skew", qubit.orthogonal_triple_skew_equality(
        n1, n2, n3, rho, orders, tol).residual, None
    first, second = qubit.mixed_triple_equalities(n1, n2, n3, rho, orders, tol)
    yield "triple_mixed", first.residual, None
    yield "triple_mixed_purity", second.residual, None
    yield "variance_fisher", qubit.direction_variance_fisher_identity(n1, rho, tol).residual, None
    yield "variance_skew", qubit.direction_variance_skew_identity(n2, rho, o2, tol).residual, None
    yield "triple_purity", qubit.triple_purity_identity(n1, n2, n3, rho).residual, None
    yield "closed_form", (qubit.qubit_gen_skew_closed(sigma, rho, o1, tol)
                          - moments.gen_skew(sigma, rho, o1, tol)), None


def draw_weakvalue(rng: np.random.Generator) -> tuple:
    """A full-rank state, d <= 4, a Hermitian observable, s and a Haar basis."""
    d = int(rng.integers(2, 5))
    rho = linalg._ginibre_state(d, d, rng)
    A = linalg.random_hermitian(d, rng)
    s = (0.3, 0.5, 0.7)[rng.integers(3)]
    return rho, A, s, linalg.haar_unitary(d, rng)


def evaluate_weakvalue(tol: Tolerances, rho, A, s, U):
    """Weak-value reconstruction of the skew information and the subsystem
    collapse identities in the basis of U's columns."""
    basis = list(np.moveaxis(U, -1, 0))
    rec = weakvalue.reconstruct_skew(A, rho, s, basis=basis, tol=tol)
    yield "reconstruction", rec.value - moments.wyd_skew(A, rho, s, tol), None
    yield "imag", rec.imag_residual, None
    sub = weakvalue.subsystem_weak_values(A, rho, s, basis=basis, tol=tol)
    yield "factorization", sub.factorization_residual, None
    yield "conjugation", sub.conjugation_residual, None


# seed k draws from default_rng(offset + k); draw(rng) gives a case, the state's
# matrix first, and evaluate(tol, DensityStack, *stacked fields) the checks
Suite = namedtuple("Suite", "offset draw evaluate")
SUITES = {
    "equalities": Suite(10_000, draw_equalities, evaluate_equalities),
    "qubit": Suite(20_000, draw_qubit, evaluate_qubit),
    "weakvalue": Suite(30_000, draw_weakvalue, evaluate_weakvalue),
}


def residuals(suite: str, cases, tol: Tolerances = DEFAULT_TOL):
    """``(check, case indices, residuals)`` of ``suite`` on drawn ``cases``,
    one triple per check and chunk of same-dimension cases."""
    dims = np.array([case[0].shape[-1] for case in cases])
    for d in np.unique(dims):
        group = np.flatnonzero(dims == d)
        per = max(1, bounds._STACK_BYTES // (16 * d * d))
        for start in range(0, len(group), per):
            at = group[start:start + per]
            rho, *fields = (np.array(field) for field in zip(*(cases[i] for i in at)))
            for check, res, ok in SUITES[suite].evaluate(tol, linalg.density_stack(rho), *fields):
                yield (check, at, res) if ok is None else (check, at[ok], res[ok])


def seed_residuals(suite: str, seeds: int, tol: Tolerances = DEFAULT_TOL):
    """:func:`residuals` over ``verify``'s cases, seeds 0..seeds-1."""
    offset, draw, _ = SUITES[suite]
    return residuals(suite, [draw(np.random.default_rng(offset + k)) for k in range(seeds)], tol)


def worst_residual(suite: str, seeds: int, tol: Tolerances = DEFAULT_TOL) -> dict:
    """``max_residual``, the largest |residual| of ``suite`` over seeds
    0..seeds-1, and ``worst_case``, where (``"<check> seed=<k>"``, or "").
    Cases are read in seed order and each case's checks in suite order, and
    the first of equal residuals is kept.  A non-finite residual fails: the
    first one is the worst case, with ``max_residual`` None."""
    order, rows = {}, []
    for check, seed, res in seed_residuals(suite, seeds, tol):
        rows += [(k, order.setdefault(check, len(order)), check, abs(r)) for k, r in zip(seed, res)]
    worst, where = 0.0, ""
    for seed, _, check, r in sorted(rows):
        if not np.isfinite(r):
            return {"max_residual": None, "worst_case": f"{check} seed={seed}"}
        if r > worst:
            worst, where = float(r), f"{check} seed={seed}"
    return {"max_residual": worst, "worst_case": where}
