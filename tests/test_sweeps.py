import numpy as np
import pytest

from skewbound import bounds, equalities as eq, moments, qubit, sweeps, weakvalue
from skewbound.errors import SkewboundError
from skewbound.linalg import density

CHECKS = {
    "equalities": ("sum", "product", "product_nontrivial", "three_sum", "three_product",
                   "skew_product", "skew_correction"),
    "qubit": ("triple_skew", "triple_mixed", "triple_mixed_purity", "variance_fisher",
              "variance_skew", "triple_purity", "closed_form"),
    "weakvalue": ("reconstruction", "imag", "factorization", "conjugation"),
}


def residuals(suite, seeds):
    """(check, residual) pairs of ``suite`` over verify's seed stream."""
    return [(check, r) for check, _, res in sweeps.seed_residuals(suite, seeds) for r in res]


def one_case(suite, case):
    """(check, residual) of one drawn case, built alone, from one-state library
    calls; a check that raises SkewboundError is skipped with the rest of its try."""
    case = [field[0] for field in sweeps.SUITES[suite].build(*zip(case))]
    if suite == "equalities":
        M, A, B, s, *Xs = case
        rho = density(M)
        yield "sum", eq.sum_equality(A, B, rho).residual
        try:
            yield "product", eq.product_equality(A, B, rho).residual
            yield "product_nontrivial", eq.product_equality_nontrivial(A, B, rho).residual
        except SkewboundError:
            pass
        yield "three_sum", eq.three_observable_sum_equality(*Xs, rho).residual
        try:
            yield "three_product", eq.three_observable_product_equality(*Xs, rho).residual
        except SkewboundError:
            pass
        try:
            yield "skew_product", eq.skew_product_equality(A, B, rho, s).residual
            yield "skew_correction", eq.skew_product_correction_identity(A, B, rho, s).residual
        except SkewboundError:
            pass
    elif suite == "qubit":
        M, G, *orders, sigma = case
        rho = density(M)
        n1, n2, n3 = np.linalg.qr(G)[0].T
        yield "triple_skew", qubit.orthogonal_triple_skew_equality(n1, n2, n3, rho, orders).residual
        first, second = qubit.mixed_triple_equalities(n1, n2, n3, rho, orders)
        yield "triple_mixed", first.residual
        yield "triple_mixed_purity", second.residual
        yield "variance_fisher", qubit.direction_variance_fisher_identity(n1, rho).residual
        yield "variance_skew", qubit.direction_variance_skew_identity(n2, rho, orders[1]).residual
        yield "triple_purity", qubit.triple_purity_identity(n1, n2, n3, rho).residual
        yield "closed_form", (qubit.qubit_gen_skew_closed(sigma, rho, orders[0])
                              - moments.gen_skew(sigma, rho, orders[0]))
    else:
        M, A, s, U = case
        rho = density(M)
        rec = weakvalue.reconstruct_skew(A, rho, s, basis=list(U.T))
        yield "reconstruction", rec.value - moments.wyd_skew(A, rho, s)
        yield "imag", rec.imag_residual
        sub = weakvalue.subsystem_weak_values(A, rho, s, basis=list(U.T))
        yield "factorization", sub.factorization_residual
        yield "conjugation", sub.conjugation_residual


@pytest.mark.parametrize("suite", CHECKS)
def test_every_check_runs(suite):
    # a check that raised on every case would drop out of the sweep unseen
    assert sorted({check for check, _ in residuals(suite, 20)}) == sorted(CHECKS[suite])


@pytest.mark.parametrize("suite", CHECKS)
def test_residuals_stay_at_rounding_level(suite):
    # far below tol_residual (1e-8): a rewrite that loses digits of an
    # identity shows here while verify still passes
    assert sweeps.worst_residual(suite, 100)["max_residual"] < 1e-11


@pytest.mark.parametrize("suite", CHECKS)
def test_stack_gives_each_case_its_own_residual(suite):
    # every case keeps the checks a one-case loop runs on it, and each
    # residual is that loop's to the last bit
    offset, draw, _, _ = sweeps.SUITES[suite]
    cases = [draw(np.random.default_rng(offset + k)) for k in range(60)]
    stacked = {(check, int(k)): r for check, at, res in sweeps.residuals(suite, cases)
               for k, r in zip(at, res)}
    alone = {(check, k): r for k, case in enumerate(cases) for check, r in one_case(suite, case)}
    assert stacked.keys() == alone.keys()
    assert all(stacked[key] == alone[key] for key in alone)


def test_masks_skip_what_the_loop_skips():
    # a maximally mixed state: the quotient forms' denominators vanish and
    # product_equality raises, so its check and product_nontrivial drop out
    rng = np.random.default_rng(3)
    cases = [sweeps.draw_equalities(rng) for _ in range(12)]
    d = cases[1][0].shape[-2]  # raw normals of G = I: the state G G^dag / Tr is I/d
    cases[1] = (np.stack([np.eye(d), np.zeros((d, d))]),) + cases[1][1:]
    got = sorted((check, int(k)) for check, at, _ in sweeps.residuals("equalities", cases)
                 for k in at)
    want = sorted((check, k) for k, case in enumerate(cases)
                  for check, _ in one_case("equalities", case))
    assert got == want
    assert ("product", 1) not in got and ("sum", 1) in got


def test_reduction_reports_non_finite_first(monkeypatch):
    # abs(nan) > worst is False: a NaN residual must fail, not vanish
    rows = [("sum", np.array([0, 1, 2]), np.array([1e-15, np.nan, 1e-3])),
            ("product", np.array([0, 1]), np.array([1.0, np.inf]))]
    monkeypatch.setattr(sweeps, "seed_residuals", lambda *args: iter(rows))
    assert sweeps.worst_residual("equalities", 3) == {"max_residual": None,
                                                      "worst_case": "sum seed=1"}


def test_reduction_breaks_ties_by_seed_then_check(monkeypatch):
    rows = [("a", np.array([0, 2]), np.array([1e-15, 2e-15])),
            ("b", np.array([1, 2]), np.array([-1e-16, -2e-15])),
            ("c", np.array([2]), np.array([2e-15]))]
    monkeypatch.setattr(sweeps, "seed_residuals", lambda *args: iter(rows))
    assert sweeps.worst_residual("equalities", 3) == {"max_residual": 2e-15,
                                                      "worst_case": "a seed=2"}
    zeros = [("a", np.array([0, 1]), np.zeros(2))]
    monkeypatch.setattr(sweeps, "seed_residuals", lambda *args: iter(zeros))
    assert sweeps.worst_residual("equalities", 2) == {"max_residual": 0.0, "worst_case": ""}


def test_chunks_of_stack_bytes_change_nothing(monkeypatch):
    # a dimension group is evaluated in chunks of at most _STACK_BYTES of
    # states; the chunking changes no residual and no report
    stacks = []

    def counted(matrices, *args, _validate=sweeps.linalg.density_stack):
        stacks.append(len(matrices))
        return _validate(matrices, *args)

    def sweep():
        rows = {suite: {(check, int(k)): r for check, at, res in sweeps.seed_residuals(suite, 60)
                        for k, r in zip(at, res)} for suite in CHECKS}
        return rows, {suite: sweeps.worst_residual(suite, 60) for suite in CHECKS}

    monkeypatch.setattr(sweeps.linalg, "density_stack", counted)
    whole = sweep()
    groups = len(stacks)
    monkeypatch.setattr(bounds, "_STACK_BYTES", 4096)  # 10 states of d = 5 in a chunk
    stacks.clear()
    assert sweep() == whole
    assert len(stacks) > groups
