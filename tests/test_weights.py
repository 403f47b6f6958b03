"""Tests for the A_{N-1} weight bookkeeping and the Bethe index sets.

Covers exact-rational weight construction, lattice membership, the
admissibility gate, the lambda -> xi shift, Jack-type energies, the two
eigenvalue-limit candidates, and the combinatorial invariants of the
index data (block structure, |W| multinomial, fiber sizes, |F_w|, the
(w, f) word count the enumeration guard reads), and the word array against
the tuple enumeration it replaced (``tuple_words``).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from cmbethe.errors import DomainError, ResourceError
from cmbethe.weights import (
    BetheIndexing,
    Weight,
    admissible,
    build_indexing,
    e0,
    jack_energy,
    lambda_coords,
    lambda_to_xi,
    pairing,
    root_system,
    target_eigenvalue,
    w_count,
    weight_from_lambda_coords,
    word_count,
)
from tuple_words import word_array


class TestWeight:
    """Construction, tracelessness, exactness, lattice membership."""

    def test_canonicalized_traceless(self):
        w = Weight([1, 2, 3])
        assert abs(w.coords.sum()) < 1e-15
        assert np.allclose(w.coords, [-1.0, 0.0, 1.0])

    def test_exact_fractions_kept(self):
        w = Weight([1, 0])
        assert w.exact == (Fraction(1, 2), Fraction(-1, 2))

    def test_float_input_stays_float(self):
        w = Weight([0.3, -0.3])
        assert w.exact is None
        assert np.allclose(w.coords, [0.3, -0.3])

    @pytest.mark.parametrize("coords", [
        [math.inf, 0], [math.nan, 0], [0.5, -math.inf]])
    def test_non_finite_coordinates_refused(self, coords):
        with pytest.raises(DomainError, match="finite"):
            Weight(coords)

    def test_in_P_requires_integer_root_pairings(self):
        assert Weight([1, 0]).in_P            # differences are integers
        assert Weight([Fraction(3, 2), Fraction(-3, 2)]).in_P
        assert not Weight([0.25, -0.25]).in_P

    def test_in_P_plus_requires_dominance(self):
        assert Weight([2, 1, 0]).in_P_plus    # decreasing coordinates
        assert not Weight([0, 1, 2]).in_P_plus
        assert Weight([0, 0, 0]).in_P_plus

    def test_equality_and_hash(self):
        assert Weight([1, 0]) == Weight([Fraction(1, 2), Fraction(-1, 2)])
        assert len({Weight([1, 0]), Weight([1, 0])}) == 1


class TestRootSystem:
    """Simple roots, fundamental weights, rho_bar and their dualities."""

    def test_m_formula(self):
        for N, l in ((2, 1), (2, 3), (3, 1), (3, 2), (4, 1)):
            rs = root_system(N, l)
            assert rs.m == l * N * (N - 1) // 2, f"m({N},{l}) = {rs.m}"

    def test_fundamental_weights_dual_to_simple_roots(self):
        for N in (2, 3, 4, 5):
            rs = root_system(N, 1)
            for i in range(N - 1):
                for j in range(N - 1):
                    val = float(rs.fundamental_weights[i] @ rs.simple_roots[j])
                    expected = 1.0 if i == j else 0.0
                    assert abs(val - expected) < 1e-14, \
                        f"(Lambda_{i+1}, alpha_{j+1}) = {val} for N={N}"

    def test_rho_bar_is_sum_of_fundamental_weights(self):
        for N in (2, 3, 4):
            rs = root_system(N, 1)
            total = rs.fundamental_weights.sum(axis=0)
            assert np.allclose(rs.rho_bar.coords, total), f"rho_bar for N={N}"

    def test_rho_bar_norm(self):
        """(rho_bar, rho_bar) = N(N^2-1)/12."""
        for N in (2, 3, 4, 5, 6):
            rs = root_system(N, 1)
            val = pairing(rs.rho_bar, rs.rho_bar)
            expected = N * (N * N - 1) / 12.0
            assert abs(val - expected) < 1e-12, f"|rho_bar|^2 for N={N}: {val}"

    def test_positive_root_count(self):
        rs = root_system(4, 1)
        assert len(rs.positive_roots) == 6

    def test_cached_read_only(self):
        """One RootSystemData per (N, l), shared, so its arrays are
        read-only."""
        rs = root_system(3, 2)
        assert root_system(3, 2) is rs and root_system(3, 1) is not rs
        for a in (rs.simple_roots, rs.fundamental_weights, rs.rho_bar.coords):
            assert not a.flags.writeable

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            root_system(1, 1)
        with pytest.raises(DomainError):
            root_system(3, 0)


class TestWeightMaps:
    """lambda-coordinates, the (l+1) rho_bar shift, and the admissibility gate."""

    def test_weight_from_lambda_coords_roundtrip(self):
        w = weight_from_lambda_coords([2, 5], 3)
        assert np.allclose(lambda_coords(w), [2.0, 5.0])
        assert w.exact is not None

    def test_three_lambda_one_for_n_two(self):
        w = weight_from_lambda_coords([3], 2)
        assert w.exact == (Fraction(3, 2), Fraction(-3, 2))

    def test_lambda_to_xi_is_shift_by_l_plus_one_rho(self):
        rs = root_system(2, 1)
        lam = weight_from_lambda_coords([1], 2)
        xi = lambda_to_xi(lam, rs)
        assert xi.exact == (Fraction(3, 2), Fraction(-3, 2))

    def test_lambda_to_xi_rejects_non_dominant(self):
        rs = root_system(3, 1)
        bad = Weight([0, 1, 2])
        with pytest.raises(DomainError):
            lambda_to_xi(bad, rs)

    def test_xi_from_dominant_lambda_is_always_admissible(self):
        """The shift by (l+1) rho_bar pushes every root pairing past l."""
        for N, l in ((2, 1), (2, 4), (3, 1), (3, 2), (4, 2)):
            rs = root_system(N, l)
            lam = weight_from_lambda_coords([1] * (N - 1), N)
            xi = lambda_to_xi(lam, rs)
            assert admissible(xi, rs), f"xi for N={N}, l={l} not admissible"

    def test_admissibility_examples(self):
        rs = root_system(2, 1)
        assert admissible(weight_from_lambda_coords([3], 2), rs)
        assert not admissible(weight_from_lambda_coords([1], 2), rs)   # pairing 1 <= l
        assert not admissible(weight_from_lambda_coords([0], 2), rs)   # on a wall
        assert not admissible(Weight([0.3, -0.3]), rs)                 # not in P
        rs31 = root_system(3, 1)
        assert admissible(weight_from_lambda_coords([3, 3], 3), rs31)
        # pairing with the highest root alpha_1 + alpha_2 equals 1 + 1 <= l
        assert not admissible(weight_from_lambda_coords([1, 1], 3), rs31)

    def test_admissible_checks_all_roots_not_just_simple(self):
        rs = root_system(3, 2)
        # simple pairings 3 and 3 exceed l = 2, but the highest-root pairing
        # is 6 > 2 as well, so this one passes ...
        assert admissible(weight_from_lambda_coords([3, 3], 3), rs)
        # ... while simple pairings 3, -1 fail already in P^+ terms; use
        # (2, 3): highest-root pairing 5 > 2, simple 2 <= 2 fails.
        assert not admissible(weight_from_lambda_coords([2, 3], 3), rs)


class TestEnergies:
    """Jack-type energies and the eigenvalue-limit candidates."""

    def test_jack_energy_exact_fraction(self):
        val = jack_energy([2, 0], Fraction(1, 2))
        assert val == 8 and isinstance(val, Fraction)
        assert jack_energy(["2", "0"], "1/2") == 8

    def test_jack_energy_float(self):
        val = jack_energy([2, 0], 0.5)
        assert abs(val - 8.0) < 1e-14

    @pytest.mark.parametrize("parts,alpha", [
        ([math.inf, 0], Fraction(1, 2)), ([math.inf, 0], 0.5),
        ([math.nan, 0], 0.5), ([2, 0], math.inf), ([2, 0], 0)])
    def test_jack_energy_refuses_non_finite(self, parts, alpha):
        with pytest.raises(DomainError):
            jack_energy(parts, alpha)

    def test_jack_energy_shift_identity(self):
        """E_lam^[alpha] = |lam + rho/alpha|^2 - |rho|^2/alpha^2 for traceless lam."""
        rng = np.random.default_rng(3)
        for N in (2, 3, 4):
            rs = root_system(N, 1)
            lam = Weight(np.sort(rng.integers(0, 6, size=N))[::-1].astype(float))
            alpha = 0.5 + rng.random()
            direct = jack_energy(lam, alpha)
            shifted = lam.coords + rs.rho_bar.coords / alpha
            via_norm = float(shifted @ shifted) - pairing(rs.rho_bar, rs.rho_bar) / alpha ** 2
            assert abs(direct - via_norm) < 1e-10, f"N={N}: {direct} vs {via_norm}"

    def test_e0_value(self):
        assert abs(e0(2, 1) - 4 * math.pi ** 2) < 1e-12
        assert abs(e0(3, 1) - 16 * math.pi ** 2) < 1e-11

    def test_target_eigenvalue_matches_xi_norm(self):
        """The variant without the extra constant equals 2 pi^2 (xi, xi)."""
        for N, l, ms in ((2, 1, [1]), (2, 2, [3]), (3, 1, [1, 2]), (4, 1, [1, 1, 1])):
            rs = root_system(N, l)
            lam = weight_from_lambda_coords(ms, N)
            xi = lambda_to_xi(lam, rs)
            te = target_eigenvalue(lam, N, l)
            expected = 2 * math.pi ** 2 * pairing(xi, xi)
            assert abs(te - expected) < 1e-9, \
                f"N={N}, l={l}: {te} vs {expected}"

    def test_target_eigenvalue_variant_gap(self):
        """The rejected published variant (test-local, as in the acceptance
        arbitration) sits (pi^2/6) N(N-1) l(l+1) above the library target."""
        lam = weight_from_lambda_coords([1], 2)
        te = target_eigenvalue(lam, 2, 1)
        with_term = te + math.pi ** 2 / 6.0 * 2 * 1 * 1 * 2
        gap = math.pi ** 2 / 6.0 * 2 * 1 * 1 * 2
        assert isinstance(te, float)
        assert abs(with_term - te - gap) < 1e-12

    def test_target_eigenvalue_requires_dominant(self):
        with pytest.raises(DomainError):
            target_eigenvalue(Weight([0, 1, 2]), 3, 1)


class TestIndexing:
    """The color map c, blocks V_i, and the (w, f) word array."""

    def test_blocks_partition_and_color(self):
        bi = build_indexing(3, 2)
        assert bi.m == 6
        assert bi.p_bounds == (0, 4, 6)
        assert [list(v) for v in bi.V] == [[1, 2, 3, 4], [5, 6]]
        assert bi.c == (1, 1, 1, 1, 2, 2)

    def test_block_sizes(self):
        for N, l in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2)):
            bi = build_indexing(N, l)
            for i, blk in enumerate(bi.V, start=1):
                assert len(blk) == (N - i) * l, f"|V_{i}| for N={N}, l={l}"

    def test_w_count_formula_matches_enumeration(self):
        for N, l in ((2, 1), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2),
                     (5, 1)):
            bi = build_indexing(N, l)
            assert len(np.unique(bi.words[:, 0], axis=0)) == w_count(N, l), \
                f"|W| for N={N}, l={l}"
            words = len(bi.words)
            assert words == word_count(N, l), f"words for N={N}, l={l}"
            assert words == w_count(N, l) * math.factorial(l) ** (
                (N - 1) * (N - 2) // 2)

    def test_w_maps_have_exact_fibers(self):
        bi = build_indexing(3, 2)
        for w in np.unique(bi.words[:, 0], axis=0).tolist():
            for i, blk in enumerate(bi.V, start=1):
                labels = [w[k - 1] for k in blk]
                for j in range(i, 3):
                    assert labels.count(j) == 2, f"fiber of {j} in V_{i} for {w}"

    def test_n3_l1_explicit(self):
        bi = build_indexing(3, 1)
        assert bi.words.tolist() == [[[1, 2, 2], [0, 0, 2]],
                                     [[2, 1, 2], [0, 0, 1]]]

    def test_f_maps_color_compatible_and_injective(self):
        bi = build_indexing(4, 2)
        expected_count = math.prod(
            math.factorial(bi.l) ** (bi.N - 1 - i) for i in range(1, bi.N - 1))
        # the words run w slowest: one block of expected_count f per w
        by_w = bi.words.reshape(-1, expected_count, 2, bi.m)
        assert len(by_w) == w_count(4, 2)
        assert np.all(by_w[:, :, 0] == by_w[:, :1, 0])
        for w_f in by_w.tolist():
            w = w_f[0][0]
            for _, f in w_f[:3]:
                for i in range(2, bi.N):
                    block = bi.V[i - 1]
                    images = [f[k - 1] for k in block]
                    assert len(set(images)) == len(images), "f not injective"
                    for k in block:
                        tgt = f[k - 1]
                        assert tgt in bi.V[i - 2], "f image leaves previous block"
                        assert w[k - 1] == w[tgt - 1], "w(x) != w(f(x))"
                for k in bi.V[0]:
                    assert f[k - 1] == 0, "first block must map to t_0"

    def test_first_block_convention_for_n2(self):
        bi = build_indexing(2, 3)
        assert bi.words.tolist() == [[[1, 1, 1], [0, 0, 0]]]

    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
    def test_words_match_tuple_enumeration(self, N):
        """The word array equals the tuple enumeration, in the same order,
        at every l whose words number at most 10^5 (at N=2, one word at
        every l: up to l=32, the largest l the tests run)."""
        levels = [l for l in range(1, 33) if word_count(N, l) <= 10 ** 5]
        assert levels
        for l in levels:
            words = build_indexing(N, l).words
            assert words.dtype == np.int64
            assert np.array_equal(words, word_array(N, l)), (N, l)

    def test_words_read_only_and_not_compared(self):
        """The cached word array refuses writes, and two enumerations of
        one (N, l) are equal and hash alike without comparing it."""
        bi = build_indexing(3, 2)
        with pytest.raises(ValueError):
            bi.words[0, 1, 0] = 7
        build_indexing.cache_clear()
        again = build_indexing(3, 2)
        assert again is not bi
        assert again == bi and hash(again) == hash(bi)
        assert "words" not in repr(bi)

    def test_pair_coupling_matrix(self):
        bi = build_indexing(3, 1)
        expected = np.array([[2.0, 2.0, -1.0],
                             [2.0, 2.0, -1.0],
                             [-1.0, -1.0, 2.0]])
        assert np.array_equal(bi.pair_coupling, expected)

    def test_resource_guard(self):
        assert w_count(5, 3) > 10 ** 6
        with pytest.raises(ResourceError):
            build_indexing(5, 3)

    @pytest.mark.parametrize("N,l,words", [(4, 3, 7257600),
                                           (3, 7, 17297280)])
    def test_word_guard_refuses_before_enumerating(self, N, l, words):
        """|W| passes the guard here (33 600 and 3432), but the (w, f)
        words that enumeration would allocate do not; the refusal names
        their count and comes before any enumeration."""
        assert w_count(N, l) <= 10 ** 6 < word_count(N, l) == words
        start = time.perf_counter()
        with pytest.raises(ResourceError, match=str(words)):
            build_indexing(N, l)
        assert time.perf_counter() - start < 1.0

    def test_enumeration_cached_refusal_not(self):
        """One (N, l) is enumerated once; a refused one raises every time."""
        build_indexing.cache_clear()
        assert build_indexing(3, 2) is build_indexing(3, 2)
        for _ in range(2):
            with pytest.raises(ResourceError, match="7257600"):
                build_indexing(4, 3)
        info = build_indexing.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 3, 1)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
