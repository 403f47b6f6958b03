"""Tests for the Rayleigh-Schrodinger expansion in powers of the nome.

The interaction coefficients are the closed-form divisor table (the Fourier
expansion of the shifted pair potential); the theta-quotient interaction
checks it by its O(p^{K+1}) reconstruction error.  The exact Laurent matrix
elements are checked against a torus product quadrature, band vanishing,
hermiticity, and the hand-computed N=2 first- and second-order shifts; the
assembled series is cross-validated order by order against the Bethe-Ansatz
continuation eigenvalue, which is computed by entirely different machinery.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from cmbethe.critical import continue_nome, find_admissible_critical_point
from cmbethe.errors import DegeneracyError, DomainError
from cmbethe.jack import jack_expand
from cmbethe.perturb import (
    K_MAX,
    EnergySeries,
    PotentialSeries,
    _offsets,
    _pairings,
    _states,
    band_distance,
    bethe_crosscheck,
    exact_interaction,
    matrix_element,
    potential_coeffs,
    reachable_partitions,
    rs_series,
    unperturbed_energy,
)
from cmbethe.weights import Weight, build_indexing, lambda_to_xi, root_system
from laurent_dicts import matrix_element as dict_matrix_element
from laurent_dicts import rs_coefficients as dict_rs_coefficients
from recursive_reachable import reachable_offsets
from total_convention import eigenvalue_total

H = Fraction(1, 2)
LAM_N2 = (H, -H)                      # the N=2, l=1 fundamental state
SERIES_N2 = potential_coeffs(2, 1, 2)


def partitions_of(total, N):
    """Integer partitions of ``total`` into at most N parts, padded to N."""
    import itertools
    return sorted({tuple(sorted(p, reverse=True))
                   for p in itertools.product(range(total + 1), repeat=N)
                   if sum(p) == total}, reverse=True)


class TestPotentialCoeffs:
    """The closed-form interaction coefficients."""

    def test_divisor_oracle_exact(self):
        # The shifted pair potential has the Lambert expansion
        # -8 pi^2 Sum_m p^m Sum_{d | m} d cos(2 pi d s), so the order-k,
        # harmonic-d coefficient is -8 pi^2 l(l+1) d when d | k, else 0,
        # up to the advertised K_MAX for every small (N, l)
        cases = [(2, 1, 4), (3, 2, 3)] + [
            (N, l, K_MAX) for N in (2, 3) for l in (1, 2, 3)]
        for N, l, K in cases:
            series = potential_coeffs(N, l, K)
            scale = 8 * math.pi ** 2 * l * (l + 1) * K
            for k in range(1, K + 1):
                row = series.coeffs[k - 1]
                assert len(row) == k + 1
                for d in range(k + 1):
                    exact = (-8 * math.pi ** 2 * l * (l + 1) * d
                             if d > 0 and k % d == 0 else 0.0)
                    assert abs(row[d] - exact) < 1e-9 * scale, (
                        f"N={N} l={l} c[{k}][{d}] = {row[d]} vs {exact}")

    def test_coefficients_real_and_even(self):
        # V_k is a pure cosine sum: real on real x, even in each difference
        xs = np.linspace(0.07, 0.93, 9)
        for k in (1, 2):
            vk = SERIES_N2.vk(k)
            vals = np.array([vk(np.array([x, 0.0])) for x in xs])
            flipped = np.array([vk(np.array([-x, 0.0])) for x in xs])
            assert np.max(np.abs(vals.imag)) == 0.0
            assert np.max(np.abs(vals - flipped)) < 1e-12 * np.max(
                np.abs(vals))

    def test_reconstruction_order(self):
        # |Sum_{k<=K} p^k V_k - exact| = O(p^{K+1}): halving p divides the
        # residual by about 2^{K+1}
        x = np.array([0.31, 0.74])
        for K, lo, hi in [(2, 6.0, 10.0), (3, 12.0, 20.0),
                          (K_MAX, 384.0, 640.0)]:
            series = potential_coeffs(2, 1, K)

            def resid(p):
                return abs(series.reconstruct(p, x)
                           - exact_interaction(x, p, 1))

            ratio = resid(0.05) / resid(0.025)
            assert lo < ratio < hi, f"K={K}: residual ratio {ratio}"

    def test_band_limited_shape(self):
        # order k carries harmonics d <= k only
        series = potential_coeffs(2, 1, 4)
        for k in range(1, 5):
            assert len(series.coeffs[k - 1]) == k + 1

    def test_order_guard(self):
        with pytest.raises(DomainError):
            potential_coeffs(2, 1, 9)



class TestBandDistance:
    """Half the l1 distance between sorted offset vectors."""

    def test_examples(self):
        assert band_distance(LAM_N2, LAM_N2) == 0
        assert band_distance((Fraction(3, 2), -Fraction(3, 2)), LAM_N2) == 1
        assert band_distance((Fraction(9, 2), -Fraction(9, 2)), LAM_N2) == 4
        assert band_distance((1, 1), (2, 0)) == 1

    def test_periodicity_class_guard(self):
        with pytest.raises(DomainError):
            band_distance((1, 0), LAM_N2)

    def test_unequal_totals_guard(self):
        with pytest.raises(DomainError):
            band_distance((2, 0), (1, 0))


def quadrature_element(mu, lam, k, l):
    """<psi_mu, V_k psi_lam>/(|psi_mu| |psi_lam|) by torus product
    quadrature, psi = Delta^{l+1} J^{(1/(l+1))}: an independent reference
    for the exact Laurent pairing.  The uniform n-point rule per axis is
    exact once n exceeds the per-axis Laurent span of every integrand."""
    N, w = len(mu), l + 1
    span = max(mu[0] - mu[-1], lam[0] - lam[-1])
    n = int(2 * span) + 2 * w * (N - 1) + 2 * k + 2
    axes = np.meshgrid(*[np.arange(n) / n] * N, indexing="ij")
    pts = np.stack([g.ravel() for g in axes], axis=-1)
    X = np.exp(2j * math.pi * pts)
    dw = np.ones(pts.shape[0], dtype=complex)
    for i in range(N):
        for j in range(i + 1, N):
            dw *= X[:, i] - X[:, j]
    dw = dw ** w
    alpha = Fraction(1, w)
    psi_mu = dw * jack_expand(mu, alpha).evaluate(pts)
    psi_lam = dw * jack_expand(lam, alpha).evaluate(pts)
    v = potential_coeffs(N, l, k).vk(k)(pts)
    value = np.vdot(psi_mu, v * psi_lam) / math.sqrt(
        np.vdot(psi_mu, psi_mu).real * np.vdot(psi_lam, psi_lam).real)
    assert abs(value.imag) < 1e-10 * max(1.0, abs(value))
    return float(value.real)


def n2_pool():
    """N=2 integer partitions of degree <= 6."""
    return [lam for tot in range(7) for lam in partitions_of(tot, 2)]


def _coupling_scale(l, k):
    """The largest closed-form coefficient of V_k, -8 pi^2 l(l+1) k."""
    return -8 * math.pi ** 2 * l * (l + 1) * k


class TestMatrixElement:
    """Normalized <psi_mu, V_k psi_lam> from exact Laurent coefficients."""

    def test_band_vanishing(self):
        mu = (Fraction(9, 2), -Fraction(9, 2))
        v = matrix_element(mu, LAM_N2, 1, 1)
        assert abs(v) < 1e-10, f"beyond-band element {v}"

    def test_hermiticity(self):
        mu = (Fraction(3, 2), -Fraction(3, 2))
        a = matrix_element(mu, LAM_N2, 1, 1)
        b = matrix_element(LAM_N2, mu, 1, 1)
        assert abs(a - b) < 1e-10 * max(1.0, abs(a)), f"{a} vs {b}"

    def test_diagonal_is_first_order_shift(self):
        diag = matrix_element(LAM_N2, LAM_N2, 1, 1)
        series = rs_series(LAM_N2, 2, 1, 1)
        assert abs(diag - series.coefficients[1]) < 1e-10 * abs(diag)

    def test_first_order_shift_value(self):
        # hand integral: <cos 2 pi (x1 - x2)> against |Delta^2 J|^2 gives
        # E1 = 4 pi^2 for the fundamental N=2 state
        diag = matrix_element(LAM_N2, LAM_N2, 1, 1)
        assert abs(diag - 4 * math.pi ** 2) < 1e-10, (
            f"{diag} vs {4 * math.pi ** 2}")

    def test_agrees_with_quadrature_n2(self):
        # every equal-total pair of the N=2 pool, k = 1..3
        pool = n2_pool()
        for k in (1, 2, 3):
            for mu in pool:
                for lam in pool:
                    if sum(mu) != sum(lam):
                        continue
                    exact = matrix_element(mu, lam, k, 1)
                    ref = quadrature_element(mu, lam, k, 1)
                    assert abs(exact - ref) <= 1e-12 * max(
                        abs(ref), abs(_coupling_scale(1, k))), (
                        f"k={k} {mu},{lam}: {exact} vs {ref}")

    @pytest.mark.parametrize("l", [1, 2])
    def test_agrees_with_quadrature_n3(self, l):
        # the band-2 neighbourhood of (1, 0, -1), k = 1..3
        pool = reachable_partitions((1, 0, -1), 2)
        for k in (1, 2, 3):
            for a, mu in enumerate(pool):
                for lam in pool[a:]:
                    exact = matrix_element(mu, lam, k, l)
                    ref = quadrature_element(mu, lam, k, l)
                    assert abs(exact - ref) <= 1e-12 * max(
                        abs(ref), abs(_coupling_scale(l, k))), (
                        f"l={l} k={k} {mu},{lam}: {exact} vs {ref}")

    def test_symmetry_sector_closure(self):
        # elements connect equal-total states within the band only;
        # exhaustive over N=2 integer partitions of degree <= 6
        pool = n2_pool()
        for k in (1, 2):
            for mu in pool:
                for lam in pool:
                    if sum(mu) != sum(lam):
                        continue  # guarded separately; integral is 0
                    v = matrix_element(mu, lam, k, 1)
                    if band_distance(mu, lam) > k:
                        assert abs(v) < 1e-10, (
                            f"k={k}: {mu},{lam} beyond band: {v}")

    def test_matches_dict_pairings(self):
        """Bit-identical to the rejected dict pairings on the cases above:
        the N=2 pool at k = 1..3, the N=3 band-2 pool at l = 1, 2 and the
        beyond-band N=2 pair."""
        cases = [(mu, lam, k, 1) for k in (1, 2, 3) for mu in n2_pool()
                 for lam in n2_pool() if sum(mu) == sum(lam)]
        pool = reachable_partitions((1, 0, -1), 2)
        cases += [(mu, lam, k, l) for l in (1, 2) for k in (1, 2, 3)
                  for a, mu in enumerate(pool) for lam in pool[a:]]
        cases.append(((Fraction(9, 2), -Fraction(9, 2)), LAM_N2, 1, 1))
        for mu, lam, k, l in cases:
            mu_t = tuple(Fraction(v) for v in mu)
            lam_t = tuple(Fraction(v) for v in lam)
            assert matrix_element(mu, lam, k, l) == dict_matrix_element(
                mu_t, lam_t, k, l), f"l={l} k={k} {mu},{lam}"

    @pytest.mark.parametrize("l,past_int64", [(16, False), (32, True)])
    def test_pairing_sums_exact(self, l, past_int64):
        """The pairings are summed in int64 only where no sum of products
        can pass it: at N=2 l=16 they are, at l=32 (rows times the largest
        coefficient squared past 2^63) Python ints are; both are the dict
        pairings' numbers."""
        mu, lam = (Fraction(3, 2), -Fraction(3, 2)), LAM_N2
        rows, psi = _states(tuple(_offsets(x, lam[-1]) for x in (mu, lam)), l)
        bound = len(rows) * int(np.abs(psi).max()) ** 2
        assert (bound > 2 ** 63 - 1) == past_int64
        assert matrix_element(mu, lam, 1, l) == dict_matrix_element(
            mu, lam, 1, l)

    @pytest.mark.parametrize("mu,lam", [((2, 0), (1, 0)),
                                        ((3, 1, 0), (2, 1, 0)),
                                        (LAM_N2, (Fraction(3, 2), H))])
    def test_unequal_totals_vanish(self, mu, lam):
        """States of different total degree are orthogonal under every
        V_k: the element is 0.0, not a failed look-up."""
        for k in (1, 2):
            assert matrix_element(mu, lam, k, 1) == 0.0
            assert matrix_element(lam, mu, k, 2) == 0.0


class TestReachable:
    """The coupled basis from the band structure."""

    def test_budget_one(self):
        assert set(reachable_partitions(LAM_N2, 1)) == {
            LAM_N2, (Fraction(3, 2), -Fraction(3, 2))}

    def test_budget_two(self):
        assert set(reachable_partitions(LAM_N2, 2)) == {
            LAM_N2, (Fraction(3, 2), -Fraction(3, 2)),
            (Fraction(5, 2), -Fraction(5, 2))}

    def test_members_share_class_and_total(self):
        for mu in reachable_partitions((2, 1, 0), 2):
            assert sum(mu) == 3
            assert band_distance(mu, (2, 1, 0)) <= 2

    @pytest.mark.parametrize("budget", [math.inf, math.nan, 1.5, "2", True])
    def test_non_integer_budget_refused(self, budget):
        with pytest.raises(DomainError, match="budget"):
            reachable_partitions((1, 0), budget)

    def test_negative_budget_is_empty(self):
        assert reachable_partitions((1, 0), -1) == []

    def test_matches_recursive_oracle(self):
        """The same lists in the same order as the recursive enumerator
        it replaced, on every non-increasing offset vector of N = 2..5 with
        entries 0..3 and last entry 0, and every budget 0..7 (552 cases)."""
        import itertools
        cases = 0
        for N in range(2, 6):
            for own in itertools.product(range(3, -1, -1), repeat=N):
                if list(own) != sorted(own, reverse=True) or own[-1]:
                    continue
                for budget in range(8):
                    assert reachable_partitions(own, budget) == \
                        reachable_offsets(own, budget), (own, budget)
                    cases += 1
        assert cases == 552

    @pytest.mark.parametrize("lam", [LAM_N2, (3, 1, 1), (2, 2, 1, 1),
                                     (Fraction(4, 3), Fraction(1, 3),
                                      Fraction(-2, 3))])
    def test_shifted_labels_match_oracle(self, lam):
        """Labels with a non-zero last part, integer or not: the oracle's
        offsets raised by lam_N."""
        base = Fraction(lam[-1])
        own = tuple(int(a - base) for a in lam)
        for budget in range(5):
            assert reachable_partitions(lam, budget) == [
                tuple(base + o for o in mu)
                for mu in reachable_offsets(own, budget)]


class TestRsSeries:
    """The Rayleigh-Schrodinger recursion."""

    def test_k0_is_unperturbed(self):
        series = rs_series(LAM_N2, 2, 1, 0)
        assert series.coefficients == (unperturbed_energy(LAM_N2, 2, 1),)
        assert abs(series.coefficients[0] - 9 * math.pi ** 2) < 1e-9

    def test_unperturbed_includes_center_of_mass(self):
        # E0 = 2 pi^2 (xi, xi) with xi = lam + (l+1) rho, also off the
        # traceless hyperplane
        assert abs(unperturbed_energy((2, 0), 2, 1)
                   - 20 * math.pi ** 2) < 1e-9

    def test_first_order_value(self):
        series = rs_series(LAM_N2, 2, 1, 1)
        assert abs(series.coefficients[1] - 4 * math.pi ** 2) < 1e-9

    def test_second_order_matches_hand_formula(self):
        # E2 = <lam|V2|lam> - |<mu|V1|lam>|^2 / (16 pi^2), mu the one
        # band-1 neighbor with E0 gap -16 pi^2
        series = rs_series(LAM_N2, 2, 1, 2)
        mu = (Fraction(3, 2), -Fraction(3, 2))
        off = matrix_element(mu, LAM_N2, 1, 1)
        diag2 = matrix_element(LAM_N2, LAM_N2, 2, 1)
        hand = diag2 - off ** 2 / (16 * math.pi ** 2)
        assert abs(series.coefficients[2] - hand) < 1e-8 * abs(hand), (
            f"{series.coefficients[2]} vs {hand}")

    @pytest.mark.parametrize("lam,N,l,K", [
        ((1, 0, -1), 3, 1, 5), ((1, 0, -1), 3, 2, 4), ((0, 0, 0, 0), 4, 1, 2),
        ((1, 0, 0, -1), 4, 1, 2)])
    def test_matches_dict_pairings(self, lam, N, l, K):
        """The stacked basis gives coefficients bit-identical to the
        rejected dict pairings on the rs-series benchmark items."""
        lam_t = tuple(Fraction(v) for v in lam)
        assert rs_series(lam, N, l, K).coefficients == \
            dict_rs_coefficients(lam_t, N, l, K)

    @pytest.mark.parametrize("lam,N,l,K", [
        ((1, 0, -1), 3, 1, 5), ((1, 0, -1), 3, 2, 4), ((0, 0, 0, 0), 4, 1, 2),
        ((1, 0, 0, -1), 4, 1, 2)])
    def test_pairings_symmetric(self, lam, N, l, K):
        """The raw pairings of a level are symmetric in (a, c), so every
        element matrix is (the rs-series benchmark items)."""
        basis = reachable_offsets(tuple(a - lam[-1] for a in lam), K - 1)
        norms, pairings = _pairings(*_states(tuple(basis), l), range(1, K + 1))
        assert len(norms) == len(basis) > 1
        for d, raw in pairings.items():
            assert raw.shape == (len(basis),) * 2
            assert (raw == raw.T).all(), d

    @pytest.mark.parametrize("lam,N,l,K,bits", [
        ((1, 0, -1), 3, 1, 5, [
            '0x1.634e462f60e9ap+8', '0x1.44d9d9c4eae44p+6',
            '0x1.5cf31a2c1b599p+8', '0x1.f46707021ccfbp+6',
            '0x1.f9a3885022ed1p+8', '-0x1.df7d272801572p+7']),
        ((1, 0, -1), 3, 2, 4, [
            '0x1.3bd3cc9be45dep+9', '0x1.71f81b920b83fp+8',
            '0x1.07c1e981de608p+10', '0x1.4170a7fd942a8p+9',
            '0x1.ae9fce2b5214ap+9']),
        ((0, 0, 0, 0), 4, 1, 2, [
            '0x1.8ac8bfc2dd755p+8', '0x1.0eb58acec3be3p+8',
            '0x1.556ccd5ea348bp+9']),
        ((1, 0, 0, -1), 4, 1, 2, [
            '0x1.4f910965a2a3cp+9', '0x1.6360193fe484cp+7',
            '0x1.05ce8f0e42469p+9']),
        ((0, 0, 0, 0), 4, 1, K_MAX, [
            '0x1.8ac8bfc2dd755p+8', '0x1.0eb58acec3be3p+8',
            '0x1.556ccd5ea348bp+9', '0x1.2d20f2225e452p+9',
            '0x1.fba15bc600b84p+5', '0x1.cead84109c12cp+8',
            '0x1.837d9caa130e7p+9', '0x1.eb11370a97630p+10',
            '-0x1.8951fe2ea45a6p+11']),
        ((1, 0, -1), 3, 1, 8, [
            '0x1.634e462f60e9ap+8', '0x1.44d9d9c4eae44p+6',
            '0x1.5cf31a2c1b599p+8', '0x1.f46707021ccfbp+6',
            '0x1.f9a3885022ed1p+8', '-0x1.df7d272801574p+7',
            '0x1.e36ee2e0e7958p+9', '-0x1.6d1140b85d592p+9',
            '0x1.32a59b44dbef4p+9'])])
    def test_pinned_bits(self, lam, N, l, K, bits):
        """The coefficients bit for bit as recorded before the element
        builder and the basis enumeration were rewritten (the rs-series
        benchmark items, N=4 l=1 at K_MAX and N=3 l=1 at K=8)."""
        assert [c.hex() for c in rs_series(lam, N, l, K).coefficients] == bits

    def test_coefficients_real_floats(self):
        series = rs_series(LAM_N2, 2, 1, 2)
        assert all(isinstance(c, float) for c in series.coefficients)

    def test_degenerate_level_refused(self):
        # (4,1,1) and (3,3,0) share the unperturbed level at N=3, l=1 and
        # sit two bands apart: K=3 reaches the collision, K=2 does not
        with pytest.raises(DegeneracyError):
            rs_series((4, 1, 1), 3, 1, 3)
        series = rs_series((4, 1, 1), 3, 1, 2)
        assert len(series.coefficients) == 3

    def test_degeneracy_message_prints_plain_labels(self):
        """The refusal names both levels as plain numbers, not Fraction
        reprs; K=2 reaches no collision for this label, K=4 does."""
        with pytest.raises(DegeneracyError) as err:
            rs_series((8, -1, -7), 3, 1, 4)
        message = str(err.value)
        assert "Fraction" not in message
        assert ("unperturbed level of (7, 1, -8) coincides with that of "
                "(8, -1, -7)") in message
        assert len(rs_series((8, -1, -7), 3, 1, 2).coefficients) == 3
        with pytest.raises(DegeneracyError, match=r"\(3, 3, 0\)"):
            rs_series((4, 1, 1), 3, 1, 3)

    def test_non_finite_label_refused(self):
        with pytest.raises(DomainError):
            rs_series((math.inf, 0), 2, 1, 2)

    def test_series_compatibility_guard(self):
        # the series is fixed by (N, l, K): a label of another length is
        # refused
        with pytest.raises(DomainError):
            rs_series((1, 0, -1), 2, 1, 2)

    def test_order_k_max_runs(self):
        # K = K_MAX works, and the lower orders do not depend on K
        series = rs_series(LAM_N2, 2, 1, K_MAX)
        assert len(series.coefficients) == K_MAX + 1
        low = rs_series(LAM_N2, 2, 1, 2).coefficients
        for a, b in zip(series.coefficients, low):
            assert abs(a - b) < 1e-12 * abs(b), f"{a} vs {b}"

    def test_report_shape(self):
        series = rs_series(LAM_N2, 2, 1, 2)
        rep = series.report()
        assert rep["lambda"] == [0.5, -0.5]
        assert rep["K"] == 2
        assert len(rep["E"]) == 3
        rep2 = series.report(crosscheck={"p": 0.01})
        assert rep2["crosscheck"] == {"p": 0.01}

    def test_partial_sum_horner(self):
        series = rs_series(LAM_N2, 2, 1, 2)
        e0_, e1, e2 = series.coefficients
        p = 0.01
        assert abs(series.partial_sum(p)
                   - (e0_ + p * e1 + p * p * e2)) < 1e-12 * abs(e0_)


class TestIntegerArguments:
    """N, l, K, k and budget are ints or numpy integers, never bools."""

    def test_bools_refused(self):
        with pytest.raises(DomainError, match="True"):
            rs_series((1, -1), 2, True, True)
        with pytest.raises(DomainError):
            rs_series((1,), True, 1, 1)
        with pytest.raises(DomainError):
            potential_coeffs(2, 1, True)
        with pytest.raises(DomainError):
            potential_coeffs(2, True, 2)
        with pytest.raises(DomainError):
            matrix_element(LAM_N2, LAM_N2, True, 1)
        with pytest.raises(DomainError):
            matrix_element(LAM_N2, LAM_N2, 1, True)

    def test_numpy_integers_accepted(self):
        two, one = np.int64(2), np.int32(1)
        series = rs_series(LAM_N2, two, one, two)
        assert series == rs_series(LAM_N2, 2, 1, 2)
        assert type(series.K) is int and type(series.l) is int
        assert potential_coeffs(two, one, two) == potential_coeffs(2, 1, 2)
        mu = (Fraction(3, 2), -Fraction(3, 2))
        assert matrix_element(mu, LAM_N2, one, two) == \
            matrix_element(mu, LAM_N2, 1, 2)
        assert reachable_partitions(LAM_N2, two) == \
            reachable_partitions(LAM_N2, 2)

    @pytest.mark.parametrize("value", [0, -1, 1.0, np.float64(2.0)])
    def test_out_of_range_or_float_coupling_refused(self, value):
        with pytest.raises(DomainError):
            rs_series(LAM_N2, 2, value, 2)


class TestCrossValidation:
    """The series against the Bethe-Ansatz continuation eigenvalue."""

    def test_gap_scales_as_p_cubed(self):
        series = rs_series(LAM_N2, 2, 1, 2)
        gaps = [bethe_crosscheck(series, p)["gap"] for p in (1e-2, 1e-3)]
        slope = math.log10(gaps[0] / gaps[1])
        assert slope >= 2.7, f"gaps {gaps}, slope {slope}"

    def test_finite_difference_reproduces_orders(self):
        # Richardson-extrapolated finite differences of E_BA(p) recover
        # E1 to 1% and E2 to 5%
        series = rs_series(LAM_N2, 2, 1, 2)
        e0_, e1, e2 = series.coefficients
        p = 1e-3
        ba = {q: bethe_crosscheck(series, q)["E_BA"]
              for q in (p, p / 2)}

        def f(q):
            return (ba[q] - e0_) / q

        e1_fd = 2 * f(p / 2) - f(p)
        assert abs(e1_fd - e1) < 0.01 * abs(e1), f"{e1_fd} vs {e1}"

        def g(q):
            return (ba[q] - e0_ - q * e1) / q ** 2

        e2_fd = 2 * g(p / 2) - g(p)
        assert abs(e2_fd - e2) < 0.05 * abs(e2), f"{e2_fd} vs {e2}"

    def test_crosscheck_record_fields(self):
        series = rs_series(LAM_N2, 2, 1, 1)
        rec = bethe_crosscheck(series, 1e-3)
        assert set(rec) == {"p", "E_BA", "partial_sum", "gap"}
        assert rec["gap"] == abs(rec["E_BA"] - rec["partial_sum"])

    @pytest.mark.parametrize("mode", ["partial", "total"])
    @pytest.mark.parametrize("lam,N", [((1, 0), 2), ((1, 0, -1), 3)])
    def test_endpoint_eigenvalue_matches_every_step_path(self, lam, N, mode):
        # reference: the continuation that evaluates the eigenvalue at every
        # accepted step, read at its endpoint; the crosscheck evaluates it
        # at the endpoint only and must agree bit for bit.  The "total"
        # case also measures the rejected convention (test-local) at the
        # same endpoint: the series arbitrates, it misses by far more.
        l, p = 1, 1e-2
        series = rs_series(lam, N, l, 1)
        rs, idx = root_system(N, l), build_indexing(N, l)
        xi = lambda_to_xi(Weight(list(lam)), rs)
        sigma, trig = find_admissible_critical_point(xi, rs, idx)
        xi_s = Weight([xi.exact[i] for i in sigma])
        path = continue_nome(trig, xi_s, rs, idx, p, eigenvalues=True)
        com = 2.0 * math.pi ** 2 * float(sum(series.lam)) ** 2 / N
        e_ba = path.endpoint.eigenvalue.real + com
        rec = bethe_crosscheck(series, p)
        assert rec["E_BA"] == e_ba
        assert rec["gap"] == abs(e_ba - series.partial_sum(p))
        if mode == "total":
            e_total = eigenvalue_total(path.endpoint.point, xi_s, rs,
                                       idx).real + com
            gap_total = abs(e_total - series.partial_sum(p))
            assert gap_total > 10.0 * rec["gap"], (gap_total, rec["gap"])

    def test_center_of_mass_consistency(self):
        # a non-traceless label: the continuation sees only the traceless
        # part, the series sees the full state; the crosscheck reconciles
        # them exactly, so the gap stays at the p^{K+1} scale
        series = rs_series((2, 0), 2, 1, 1)
        rec = bethe_crosscheck(series, 1e-2)
        assert rec["gap"] < 0.1, f"center-of-mass mismatch: {rec}"


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
