import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewbound import (
    DEFAULT_TOL,
    DegenerateDenominator,
    DimensionMismatch,
    SkewboundError,
    std_dev,
    ZeroDeviation,
    ZeroSkew,
    deviation_skew_chain,
    density,
    intelligent_state_check,
    matrix_power,
    maximally_mixed,
    product_equality,
    product_equality_nontrivial,
    pure_state,
    random_density,
    random_hermitian,
    random_operator,
    skew_product_correction_identity,
    skew_product_equality,
    sum_equality,
    three_observable_product_equality,
    three_observable_sum_equality,
    wyd_skew,
)
from conftest import SX, SY, SZ

KET0 = pure_state([1, 0])
RHO37 = density(np.diag([0.3, 0.7]))


def _random_case(rng, hermitian=False):
    d = int(rng.integers(2, 6))
    rho = random_density(d, int(rng.integers(1, d + 1)), rng)
    make = random_hermitian if hermitian else random_operator
    return make(d, rng), make(d, rng), rho


class TestSumEquality:
    def test_pauli_case(self):
        rep = sum_equality(SX, SY, KET0)
        assert rep.lhs == pytest.approx(2.0, abs=1e-12)
        # first term of the identity: |(1/2)<i([X^dag,Y]+[X,Y^dag])>| = 2|<sz>|
        assert rep.commutator_term == pytest.approx(2.0, abs=1e-12)
        assert abs(rep.residual) < 1e-12
        assert rep.commutator_term >= 0

    def test_equal_operators(self, rng):
        A = random_operator(3, rng)
        rho = random_density(3, 2, rng)
        rep = sum_equality(A, A, rho)
        assert rep.commutator_term == pytest.approx(0.0, abs=1e-10)
        assert abs(rep.residual) < 1e-10

    def test_random_sweep(self, rng):
        for _ in range(60):
            A, B, rho = _random_case(rng)
            rep = sum_equality(A, B, rho)
            assert abs(rep.residual) < 1e-10
            assert rep.commutator_term >= -1e-12
            assert rep.correction_term >= -1e-10

    def test_sign_flip_consistency(self, rng):
        for _ in range(20):
            A, B, rho = _random_case(rng)
            rep = sum_equality(A, B, rho)
            neg = sum_equality(A, -B, rho)
            if rep.commutator_term > 1e-8:
                assert neg.sign_choice == -rep.sign_choice
            assert neg.lhs == pytest.approx(rep.lhs, abs=1e-12)

    def test_hierarchy_extraction(self, rng):
        # dropping the correction term leaves a valid lower bound
        for _ in range(30):
            A, B, rho = _random_case(rng)
            rep = sum_equality(A, B, rho)
            assert rep.commutator_term <= rep.lhs + 1e-10


class TestProductEquality:
    def test_pauli_case(self):
        rep = product_equality(SX, SY, KET0)
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert abs(rep.residual) < 1e-12

    def test_maximally_mixed_degenerate(self):
        with pytest.raises(DegenerateDenominator):
            product_equality(SX, SZ, maximally_mixed(2))

    def test_zero_deviation(self):
        with pytest.raises(ZeroDeviation):
            product_equality(SZ, SX, KET0)

    def test_random_sweep(self, rng):
        done = 0
        while done < 50:
            A, B, rho = _random_case(rng, hermitian=True)
            try:
                rep = product_equality(A, B, rho)
            except (ZeroDeviation, DegenerateDenominator):
                continue
            assert abs(rep.residual) < 1e-9
            done += 1


class TestProductNontrivial:
    def test_zero_commutator_still_tight(self):
        rep = product_equality_nontrivial(SX, SY, maximally_mixed(2))
        assert rep.commutator_term == pytest.approx(0.0, abs=1e-12)
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert abs(rep.residual) < 1e-12

    def test_equal_operators(self, rng):
        A = random_operator(4, rng)
        rho = random_density(4, 4, rng)
        rep = product_equality_nontrivial(A, A, rho)
        assert abs(rep.residual) < 1e-10

    def test_random_sweep(self, rng):
        done = 0
        while done < 50:
            A, B, rho = _random_case(rng)
            try:
                rep = product_equality_nontrivial(A, B, rho)
            except ZeroDeviation:
                continue
            assert abs(rep.residual) < 1e-9
            done += 1
            # dropping the correction term bounds from below
            assert rep.commutator_term <= rep.lhs + 1e-9


class TestThreeObservable:
    def test_pauli_triple(self):
        rep = three_observable_sum_equality(SX, SY, SZ, KET0)
        assert rep.lhs == pytest.approx(2.0, abs=1e-12)
        assert abs(rep.residual) < 1e-12

    def test_commuting_triple(self):
        rho = density(np.diag([0.2, 0.8]))
        rep = three_observable_sum_equality(SZ, SZ, SZ, rho)
        assert rep.commutator_term == pytest.approx(0.0, abs=1e-12)
        assert abs(rep.residual) < 1e-12

    def test_sum_sweep(self, rng):
        for _ in range(60):
            d = int(rng.integers(2, 5))
            rho = random_density(d, int(rng.integers(1, d + 1)), rng)
            Xs = [random_hermitian(d, rng) for _ in range(3)]
            rep = three_observable_sum_equality(*Xs, rho)
            assert abs(rep.residual) < 1e-10
            assert rep.commutator_term >= -1e-12

    def test_product_pauli(self):
        rho = density(np.diag([0.3, 0.7]))
        rep = three_observable_product_equality(SX, SY, SZ, rho)
        assert abs(rep.residual) < 1e-12

    def test_product_zero_deviation(self):
        with pytest.raises(ZeroDeviation):
            three_observable_product_equality(SX, SY, SZ, KET0)

    def test_product_sweep(self, rng):
        done = 0
        while done < 50:
            d = int(rng.integers(2, 5))
            rho = random_density(d, int(rng.integers(1, d + 1)), rng)
            Xs = [random_hermitian(d, rng) for _ in range(3)]
            try:
                rep = three_observable_product_equality(*Xs, rho)
            except ZeroDeviation:
                continue
            assert abs(rep.residual) < 1e-9
            done += 1


class TestSkewProductEquality:
    def test_pure_state_matches_product_equality(self, rng):
        # on pure states both product equalities coincide
        for _ in range(10):
            d = int(rng.integers(2, 5))
            rho = random_density(d, 1, rng)
            A, B = random_hermitian(d, rng), random_hermitian(d, rng)
            try:
                skew = skew_product_equality(A, B, rho, 0.5)
                plain = product_equality(A, B, rho)
            except (ZeroDeviation, DegenerateDenominator):
                continue
            assert skew.lhs == pytest.approx(plain.lhs, abs=1e-9)
            assert skew.rhs == pytest.approx(plain.rhs, abs=1e-8)

    def test_qubit_half(self):
        rep = skew_product_equality(SX, SY, RHO37, 0.5)
        assert abs(rep.residual) < 1e-10

    def test_s_asymmetric(self, rng):
        from skewbound import ZeroSkew

        done = 0
        while done < 40:
            A, B, rho = _random_case(rng)
            for s in (0.3, 0.7):
                try:
                    rep = skew_product_equality(A, B, rho, s)
                except (ZeroSkew, DegenerateDenominator):
                    continue
                assert abs(rep.residual) < 1e-9
                done += 1

    def test_correction_identity(self, rng):
        done = 0
        while done < 40:
            A, B, rho = _random_case(rng)
            s = float(rng.choice([0.25, 0.5, 0.75]))
            from skewbound import ZeroSkew

            try:
                rep = skew_product_correction_identity(A, B, rho, s)
            except (ZeroSkew, DegenerateDenominator):
                continue
            assert abs(rep.residual) < 1e-9
            done += 1


class TestSkewDenominator:
    """rho^s - rho, the weight of the skew product equality's Omega, is PSD
    on every valid state: its eigenvalues are lambda^s - lambda >= 0."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        d=st.integers(2, 6),
        kind=st.sampled_from(["full", "rank_deficient", "near_pure"]),
        s=st.floats(1e-3, 1 - 1e-3),
        log_eps=st.floats(-12, -2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rho_s_minus_rho_is_psd(self, d, kind, s, log_eps, seed):
        rng = np.random.default_rng(seed)
        if kind == "near_pure":
            # (1 - eps) |psi><psi| + eps I/d, eps log-uniform in [1e-12, 1e-2]
            eps = 10.0**log_eps
            rho = density((1 - eps) * random_density(d, 1, rng).matrix + eps * np.eye(d) / d)
        else:
            rank = d if kind == "full" else int(rng.integers(1, d))
            rho = random_density(d, rank, rng)
        sigma = matrix_power(rho, s) - rho.matrix
        smin = np.linalg.eigvalsh((sigma + sigma.conj().T) / 2)[0]
        assert smin >= -DEFAULT_TOL.tol_psd


class TestDeviationSkewChain:
    def test_qubit_chain(self):
        vv, ss, bound = deviation_skew_chain(SX, SY, RHO37, 0.5)
        assert vv >= ss - 1e-12
        assert ss >= bound - 1e-12

    def test_pure_state_collapse(self, rng):
        from skewbound import ZeroSkew

        done = 0
        while done < 10:
            d = int(rng.integers(2, 5))
            rho = random_density(d, 1, rng)
            A, B = random_hermitian(d, rng), random_hermitian(d, rng)
            try:
                vv, ss, bound = deviation_skew_chain(A, B, rho, 0.5)
            except (ZeroSkew, DegenerateDenominator):
                continue
            assert vv == pytest.approx(ss, abs=1e-9)
            done += 1

    def test_chain_sweep(self, rng):
        from skewbound import ZeroSkew

        done = 0
        while done < 40:
            d = int(rng.integers(2, 5))
            rho = random_density(d, int(rng.integers(1, d + 1)), rng)
            A, B = random_hermitian(d, rng), random_hermitian(d, rng)
            s = float(rng.choice([0.25, 0.5, 0.75]))
            try:
                vv, ss, bound = deviation_skew_chain(A, B, rho, s)
            except (ZeroSkew, DegenerateDenominator):
                continue
            assert vv >= ss - 1e-9
            assert ss >= bound - 1e-9
            done += 1

    def test_bound_is_the_s_skew_product(self, rng):
        # bound is sqrt(I^s(A) I^s(B)); it meets ss = sqrt(I(A) I(B)) at s = 1/2
        done = 0
        while done < 40:
            d = int(rng.integers(2, 5))
            rho = random_density(d, int(rng.integers(1, d + 1)), rng)
            A, B = random_hermitian(d, rng), random_hermitian(d, rng)
            for s in (0.3, 0.5, 0.7):
                try:
                    _, ss, bound = deviation_skew_chain(A, B, rho, s)
                except (ZeroSkew, DegenerateDenominator):
                    continue
                want = math.sqrt(wyd_skew(A, rho, s) * wyd_skew(B, rho, s))
                assert bound == pytest.approx(want, abs=1e-9)
                if s == 0.5:
                    assert ss == pytest.approx(bound, abs=1e-9)
                done += 1


class TestIntelligentStates:
    def test_spin_coherent_state_is_intelligent(self):
        # |0> saturates the sx/sy sum equality correction term
        assert intelligent_state_check(SX, SY, KET0)

    def test_generic_state_is_not(self):
        assert not intelligent_state_check(SX, SY, RHO37)

    def test_operator_of_other_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            intelligent_state_check(np.eye(3), np.eye(3), RHO37)


class TestErrorPaths:
    def test_three_observable_requires_hermitian(self):
        from skewbound import NotHermitian

        raising = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NotHermitian):
            three_observable_sum_equality(raising, SX, SY, RHO37)


# Reference copies of the direct quadratic-form evaluations that the product
# equalities used before they became rescaled sum equalities.

def _ref_centered(X, r):
    return X - np.trace(X @ r) * np.eye(X.shape[0])


def _ref_commutator(A, B, r):
    C = (A.conj().T @ B - B @ A.conj().T) + (A @ B.conj().T - B.conj().T @ A)
    return (1j * np.trace(C @ r)).real


def _ref_sign(raw):
    return +1 if abs(raw) < 1e-8 or raw > 0 else -1


def _ref_deviations(Xs, rho):
    sd = [std_dev(X, rho) for X in Xs]
    if min(sd) <= 1e-8:
        raise ZeroDeviation("reference")
    return sd


def _ref_product(A, B, rho):
    r = rho.matrix
    sA, sB = _ref_deviations((A, B), rho)
    raw = _ref_commutator(A, B, r)
    sign = _ref_sign(raw)
    R = _ref_centered(A / sA - sign * 1j * B / sB, r)
    S = _ref_centered(A / sA + sign * 1j * B / sB, r)
    den = 1 - 0.25 * (np.trace(R.conj().T @ R @ r) + np.trace(S @ S.conj().T @ r)).real
    if abs(den) < 1e-8:
        raise DegenerateDenominator("reference")
    num = sign * 0.25 * raw
    return sA * sB, num / den, sA * sB * den - num, num, den, sign


def _ref_product_nontrivial(A, B, rho):
    r = rho.matrix
    sA, sB = _ref_deviations((A, B), rho)
    raw = _ref_commutator(A, B, r)
    sign = _ref_sign(raw)
    Am, Bm = A * math.sqrt(sB / sA), B * math.sqrt(sA / sB)
    M = _ref_centered(Am - sign * 1j * Bm, r)
    N = _ref_centered(Am + sign * 1j * Bm, r)
    corr = 0.25 * (np.trace(M.conj().T @ M @ r) + np.trace(N @ N.conj().T @ r)).real
    cterm = sign * 0.25 * raw
    return sA * sB, cterm + corr, sA * sB - cterm - corr, cterm, corr, sign


def _ref_three_product(X1, X2, X3, rho):
    Xs, r = (X1, X2, X3), rho.matrix
    sd = _ref_deviations(Xs, rho)
    bracket = corr = 0.0
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        Y = 0.5 * (1j * np.trace((Xs[i] @ Xs[j] - Xs[j] @ Xs[i]) @ r)).real
        rij = _ref_sign(Y)
        bracket += rij * Y * sd[k]
        M = math.sqrt(sd[j] * sd[k] / sd[i]) * _ref_centered(Xs[i], r) - 1j * rij * math.sqrt(
            sd[k] * sd[i] / sd[j]) * _ref_centered(Xs[j], r)
        corr += np.trace(M.conj().T @ M @ r).real / 6
    lhs, rhs = sd[0] * sd[1] * sd[2], bracket / 3 + corr
    return lhs, rhs, lhs - rhs, bracket / 3, corr, +1


_FIELDS = ("lhs", "rhs", "residual", "commutator_term", "correction_term")


def _outcome(f, *args):
    """The report's fields as a tuple, or the SkewboundError subclass raised."""
    try:
        out = f(*args)
    except SkewboundError as exc:
        return type(exc)
    if isinstance(out, tuple):
        return out
    return tuple(getattr(out, name) for name in _FIELDS) + (out.sign_choice,)


def _assert_matches_reference(got, ref, quotient=False, cond=1.0):
    """Every field to 1e-12 max(1, |x|) cond and the same sign branch.  In
    the quotient form rhs = num/den carries the rounding of num and den times
    1/|den|, so rhs gets that factor too; the residual is that of the
    undivided identity lhs*den - num."""
    if isinstance(ref, type):
        assert got is ref
        return
    assert not isinstance(got, type), got
    assert got[5] == ref[5]
    amplify = 1 / abs(ref[4]) if quotient else 1.0
    for name, a, b in zip(_FIELDS, got, ref):
        scale = amplify if name == "rhs" else 1.0
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b)) * scale * cond, name


@st.composite
def _states_and_operators(draw, hermitian):
    d = draw(st.integers(2, 5))
    rank = draw(st.integers(1, d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = random_density(d, rank, rng)
    make = random_hermitian if hermitian else random_operator
    return rho, [make(d, rng) for _ in range(3)]


_PAULIS = {"x": SX, "y": SY, "z": SZ}
_PAULI_STATES = {"ket0": KET0, "mixed": maximally_mixed(2), "diag37": RHO37,
                 "ket+i": pure_state([1, 1j])}
# At scale 1e-5 a commutator average of order 1e-10 is a tie (+1) although
# the normalized operators' average is not: the sign follows the unscaled ones.
_PAULI_TIES = [
    pytest.param(*(scale * _PAULIS[c] for c in names), rho, id=f"{names}-{label}-{scale:g}")
    for label, rho in _PAULI_STATES.items()
    for names in ("xyz", "yxz", "xzy", "zzx", "xxx")
    for scale in (1.0, 1e-5)
]


class TestRescaledProductForms:
    """The product forms, computed as rescaled sum forms, agree with the
    direct quadratic-form evaluations field by field."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(case=_states_and_operators(hermitian=False))
    def test_product_forms_ginibre(self, case):
        rho, (A, B, _) = case
        _assert_matches_reference(_outcome(product_equality, A, B, rho),
                                  _outcome(_ref_product, A, B, rho), quotient=True)
        _assert_matches_reference(_outcome(product_equality_nontrivial, A, B, rho),
                                  _outcome(_ref_product_nontrivial, A, B, rho))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(case=_states_and_operators(hermitian=True))
    def test_three_observable_product(self, case):
        rho, Xs = case
        _assert_matches_reference(_outcome(three_observable_product_equality, *Xs, rho),
                                  _outcome(_ref_three_product, *Xs, rho))

    @pytest.mark.parametrize("P, Q, R, rho", _PAULI_TIES)
    def test_pauli_ties(self, P, Q, R, rho):
        _assert_matches_reference(_outcome(product_equality, P, Q, rho),
                                  _outcome(_ref_product, P, Q, rho), quotient=True)
        _assert_matches_reference(_outcome(product_equality_nontrivial, P, Q, rho),
                                  _outcome(_ref_product_nontrivial, P, Q, rho))
        _assert_matches_reference(_outcome(three_observable_product_equality, P, Q, R, rho),
                                  _outcome(_ref_three_product, P, Q, R, rho))


@st.composite
def _near_mixed_cases(draw):
    """rho = (1 - eps) I/d + eps rho0 with eps log-uniform in [1e-9, 1e-3],
    where the quotient equalities' denominators approach 0, and random
    Hermitian A and B."""
    d = draw(st.integers(2, 4))
    eps = 10.0 ** draw(st.floats(-9.0, -3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho0 = random_density(d, int(rng.integers(1, d + 1)), rng)
    rho = density((1 - eps) * np.eye(d) / d + eps * rho0.matrix)
    return rho, random_hermitian(d, rng), random_hermitian(d, rng)


class TestQuotientResidual:
    """The quotient forms report verified on every input they accept."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=_near_mixed_cases(), s=st.sampled_from([0.3, 0.5, 0.7]))
    def test_accepted_near_mixed_inputs_verify(self, case, s):
        rho, A, B = case
        for f, args in ((product_equality, (A, B, rho)),
                        (skew_product_equality, (A, B, rho, s))):
            try:
                rep = f(*args)
            except SkewboundError:
                continue
            assert rep.verified, (f.__name__, rep)


# Reference copy of the trace forms the skew product equality used before it
# became eigenbasis sums.

def _ref_skew_parts(A, B, rho, s):
    IA, IB = wyd_skew(A, rho, s), wyd_skew(B, rho, s)
    if IA <= 1e-8 or IB <= 1e-8:
        raise ZeroSkew("reference")
    rs, r1s = matrix_power(rho, s), matrix_power(rho, 1 - s)
    T = np.trace(
        ((A.conj().T @ B - B @ A.conj().T) + (A @ B.conj().T - B.conj().T @ A)) @ rs)
    E = 0.0 + 0.0j
    if abs(s - 0.5) >= 1e-14:
        E = (np.trace(r1s @ B.conj().T @ rs @ A) + np.trace(r1s @ B @ rs @ A.conj().T)
             - np.trace(r1s @ A @ rs @ B.conj().T) - np.trace(r1s @ A.conj().T @ rs @ B))
    sigma = rs - rho.matrix
    omega = (np.trace((A.conj().T @ A + A @ A.conj().T) @ sigma).real / (4 * IA)
             + np.trace((B.conj().T @ B + B @ B.conj().T) @ sigma).real / (4 * IB))
    sign = _ref_sign((1j * (T - E)).real)
    a, b = A / math.sqrt(IA), B / math.sqrt(IB)
    xi = (a + sign * 1j * b).conj().T @ rs @ (a + sign * 1j * b)
    eta = (a - sign * 1j * b) @ rs @ (a - sign * 1j * b).conj().T
    quad = np.trace((xi + eta) @ (np.eye(rho.dim) - r1s)).real
    return IA, IB, (sign * 0.25j * (T - E)).real, omega, quad, sign


def _ref_skew_product(A, B, rho, s):
    IA, IB, num, omega, quad, sign = _ref_skew_parts(A, B, rho, s)
    den = 1 + omega - 0.25 * quad
    if abs(den) < 1e-8:
        raise DegenerateDenominator("reference")
    lhs = math.sqrt(IA * IB)
    return lhs, num / den, lhs * den - num, num, den, sign


def _ref_skew_correction(A, B, rho, s):
    IA, IB, num, omega, quad, sign = _ref_skew_parts(A, B, rho, s)
    rhs = 2 + 2 * omega - 2 * num / math.sqrt(IA * IB)
    return 0.5 * quad, rhs, 0.5 * quad - rhs, num, omega, sign


_SKEW_S = [0.25, 0.3, 0.5, 0.7, 0.75]


class TestSkewEigenbasisSums:
    """The skew product equality, computed as eigenbasis sums, agrees with
    the trace forms field by field."""

    @staticmethod
    def _check(A, B, rho, s):
        # Both forms divide A and B by sqrt(I^s), so their rounding grows with
        # |A|^2/I^s(A) and |B|^2/I^s(B) alike: at I^s(B) = 5e-5 the two
        # denominators differ by 1e-11, each 5e-12 from the exact value.
        cond = max(1.0, *(np.linalg.norm(X) ** 2 / max(wyd_skew(X, rho, s), 1e-300)
                          for X in (A, B)))
        _assert_matches_reference(_outcome(skew_product_equality, A, B, rho, s),
                                  _outcome(_ref_skew_product, A, B, rho, s),
                                  quotient=True, cond=cond)
        _assert_matches_reference(_outcome(skew_product_correction_identity, A, B, rho, s),
                                  _outcome(_ref_skew_correction, A, B, rho, s), cond=cond)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=_states_and_operators(hermitian=False), s=st.sampled_from(_SKEW_S))
    def test_ginibre(self, case, s):
        rho, (A, B, _) = case
        self._check(A, B, rho, s)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=_states_and_operators(hermitian=True), s=st.sampled_from(_SKEW_S))
    def test_hermitian(self, case, s):
        rho, (A, B, _) = case
        self._check(A, B, rho, s)

    @pytest.mark.parametrize("s", _SKEW_S)
    @pytest.mark.parametrize("P, Q, R, rho", _PAULI_TIES)
    def test_pauli_ties(self, P, Q, R, rho, s):
        self._check(P, Q, rho, s)
