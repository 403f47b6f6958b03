"""The rejected dictionary idiom for exact Laurent arithmetic, kept as test
evidence.

The library holds a Laurent polynomial as an integer exponent matrix with a
coefficient vector (``cmbethe.laurent``): one merge for every coefficient
type, shifts as index maps on a shared row index, and antisymmetric
polynomials by their chamber.  The rejected variant keys a dict by exponent
tuples and loops in Python: Delta^w one binomial factor at a time, the
Jack states and their cosine images term by term, the pairings as dict
look-ups, the D(alpha) action on every monomial of the orbit, and Alt as
the sum of all N! signed column permutations.  The tests check that both
give the same numbers, exactly where the arithmetic is exact.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from operator import add

import numpy as np

from cmbethe.jack import (_integer_partitions, _pad, dominance_leq,
                          jack_expand)
from cmbethe.perturb import (DEGENERACY_TOL, _coupling, _divisors,
                             reachable_partitions, unperturbed_energy)
from cmbethe.weights import jack_energy
from pointwise_jack import perm_sign


def distinct_perms(v):
    return sorted(set(permutations(v)))


@lru_cache(maxsize=None)
def delta_power(N, w):
    """Delta^w = Prod_{i<j} (X_i - X_j)^w, one binomial factor at a time."""
    poly = {(0,) * N: 1}
    for i, j in combinations(range(N), 2):
        for _ in range(w):
            nxt = {}
            for e, c in poly.items():
                for slot, term in ((i, c), (j, -c)):
                    f = list(e)
                    f[slot] += 1
                    f = tuple(f)
                    nxt[f] = nxt.get(f, 0) + term
            poly = {e: c for e, c in nxt.items() if c}
    return poly


def laurent_state(mu, l, shift, power):
    """Delta^power J_mu^{(1/(l+1))} times the lcm of the Jack coefficients'
    denominators, every exponent lowered by ``shift``."""
    jack = jack_expand(mu, Fraction(1, l + 1))
    scale = math.lcm(*(c.denominator for c in jack.coeffs.values()))
    psi = {}
    for nu, c in jack.coeffs.items():
        c_int = int(c * scale)
        for perm in distinct_perms(tuple(int(a - shift) for a in nu)):
            for e, dc in delta_power(len(mu), power).items():
                key = tuple(map(add, perm, e))
                psi[key] = psi.get(key, 0) + c_int * dc
    return {e: c for e, c in psi.items() if c}


def harmonic(psi, d):
    """2 Sum_{i<j} cos 2 pi d (x_i - x_j) applied to psi."""
    N = len(next(iter(psi)))
    out = {}
    for e, c in psi.items():
        for i, j in permutations(range(N), 2):
            key = list(e)
            key[i] += d
            key[j] -= d
            key = tuple(key)
            out[key] = out.get(key, 0) + c
    return out


def pairing(a, b):
    """The torus inner product: the dot product of the coefficients."""
    if len(a) > len(b):
        a, b = b, a
    return sum(c * b.get(e, 0) for e, c in a.items())


def element(psi_a, images, norm_a, norm_b, k, l):
    """raw / (2 sqrt(norm_a norm_b)) times the coupling, rounded once from
    the exact integers one element at a time (the 1/2 undoes the doubled
    cosine of ``harmonic``)."""
    raw = sum(d * pairing(psi_a, images[d]) for d in _divisors(k))
    return _coupling(l) * math.copysign(
        math.sqrt(raw * raw / (4 * norm_a * norm_b)), raw)


def matrix_element(mu, lam, k, l):
    """The normalized <psi_mu, V_k psi_lam> from dict pairings."""
    shift = lam[-1]
    psi_mu = laurent_state(mu, l, shift, l + 1)
    psi_lam = laurent_state(lam, l, shift, l + 1)
    images = {d: harmonic(psi_lam, d) for d in _divisors(k)}
    return element(psi_mu, images, pairing(psi_mu, psi_mu),
                   pairing(psi_lam, psi_lam), k, l)


def rs_coefficients(lam, N, l, K):
    """The Rayleigh-Schrodinger coefficients of ``perturb.rs_series``
    (K >= 1, a non-degenerate level) from dict pairings."""
    basis = reachable_partitions(lam, K - 1)
    i_lam = basis.index(lam)
    levels = np.array([unperturbed_energy(mu, N, l) for mu in basis])
    level0 = levels[i_lam]
    assert np.sum(np.abs(levels - level0)
                  <= DEGENERACY_TOL * max(1.0, abs(level0))) == 1
    psi = [laurent_state(mu, l, lam[-1], l + 1) for mu in basis]
    norms = [pairing(f, f) for f in psi]
    images = [{d: harmonic(f, d) for d in range(1, K + 1)} for f in psi]
    m = len(basis)
    elements = {}
    for k in range(1, K + 1):
        mat = np.empty((m, m))
        for a in range(m):
            for c in range(a, m):
                val = element(psi[a], images[c], norms[a], norms[c], k, l)
                mat[a, c] = val
                mat[c, a] = val
        elements[k] = mat
    coeffs = [level0]
    vectors = [np.eye(m)[i_lam]]
    gaps = level0 - levels
    for k in range(1, K + 1):
        driven = np.zeros(m)
        for j in range(1, k + 1):
            driven += elements[j] @ vectors[k - j]
        coeffs.append(float(driven[i_lam]))
        if k < K:
            rhs = driven.copy()
            for j in range(1, k):
                rhs -= coeffs[j] * vectors[k - j]
            new = np.zeros(m)
            mask = np.arange(m) != i_lam
            new[mask] = rhs[mask] / gaps[mask]
            vectors.append(new)
    return tuple(coeffs)


@lru_cache(maxsize=None)
def d_column(nu, inv_alpha):
    """The column of D(alpha) on m_nu: D applied to every monomial of the
    orbit, the image read at the non-increasing monomials."""
    N = len(nu)
    out = {}

    def put(key, val):
        out[key] = out.get(key, Fraction(0)) + val

    for a in distinct_perms(nu):
        put(a, Fraction(sum(ai * ai for ai in a)))
        for i in range(N):
            for j in range(i + 1, N):
                d = a[i] - a[j]
                if d <= 0:
                    continue          # the partner monomial owns this pair
                put(a, inv_alpha * d)
                swapped = list(a)
                swapped[i], swapped[j] = a[j], a[i]
                put(tuple(swapped), inv_alpha * d)
                for q in range(1, d):
                    mid = list(a)
                    mid[i] -= q
                    mid[j] += q
                    put(tuple(mid), inv_alpha * 2 * d)
    return {k: v for k, v in out.items()
            if v != 0 and k == tuple(sorted(k, reverse=True))}


def jack_coefficients(lam, alpha):
    """The monomial coefficients of J_lam^{(alpha)} for an integer
    partition lam (padded to its length), by the triangular solve on dict
    columns; keys are integer tuples."""
    N, total = len(lam), sum(lam)
    inv_alpha = 1 / Fraction(alpha)
    ideal = [_pad(nu, N) for nu in _integer_partitions(total, N)
             if dominance_leq(_pad(nu, N), lam)]
    ideal.sort(key=lambda nu: tuple(np.cumsum(nu)), reverse=True)
    energy = {nu: jack_energy([Fraction(p) for p in nu], Fraction(alpha), N)
              for nu in ideal}
    coeffs = {lam: Fraction(1)}
    for nu in ideal[1:]:
        rhs = sum((d_column(kappa, inv_alpha).get(nu, 0) * c
                   for kappa, c in coeffs.items()), Fraction(0))
        gap = energy[lam] - energy[nu]
        if gap == 0:
            assert rhs == 0, "eigenvalue collision"
        elif rhs != 0:
            coeffs[nu] = rhs / gap
    return coeffs


def alt_all_permutations(acc, xi):
    """Alt(X^xi acc) of the p = 0 expansion acc = (rows, coef) as the sum of
    its N! signed column permutations, relative to X^xi (xi the weight's
    coordinates), merged over all rows (those with a repeated entry
    included)."""
    acc_rows, acc_coef = acc
    invs = [np.argsort(p) for p in permutations(range(len(xi)))]
    rows = np.concatenate([acc_rows[:, q] + np.round(xi[q] - xi)
                           .astype(np.int64) for q in invs])
    coef = np.concatenate([perm_sign(q) * acc_coef for q in invs])
    uniq, inv = np.unique(rows, axis=0, return_inverse=True)
    inv = inv.ravel()
    return uniq, (np.bincount(inv, coef.real, len(uniq))
                  + 1j * np.bincount(inv, coef.imag, len(uniq)))


def elliptic_slots(t, idx):
    """The sigma-table slots of every (w, f) word by the Python triple loop:
    the distinct u = t_k - t_{f(k)} in order of first appearance, and the
    (a, b, u) index arrays of shape (words, m)."""
    u_index = {}
    slots = []
    for w_flat, f_flat in idx.words.tolist():
        for kk in range(idx.m):
            u_k = u_index.setdefault((kk, f_flat[kk]), len(u_index))
            slots.append((idx.c[kk] - 1, w_flat[kk], u_k))
    u = np.array([t[kk] - (0j if f == 0 else t[f - 1])
                  for kk, f in u_index], dtype=complex)
    a, b, k = np.moveaxis(np.array(slots).reshape(-1, idx.m, 3), -1, 0)
    return u, a, b, k
