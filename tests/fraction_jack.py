"""The rejected Fraction back-substitution for Jack polynomials, kept as test
evidence.

The library solves the triangular system of ``cmbethe.jack`` fraction-free:
an integer table q E and q D(alpha) per degree (1/alpha = a/q), numerators
over one common denominator, every pair column of a degree built in one
pass.  The rejected variant carries every coefficient and right-hand side
as a Fraction and builds the column of D(alpha) on m_nu, with its 1/alpha
folded in, one partition at a time on first use.  The tests check that
both give the same coefficients and refuse the same labels.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations

import numpy as np

from cmbethe.errors import DegeneracyError
from cmbethe.jack import _integer_partitions, _pad, partition
from cmbethe.laurent import merge, orbit
from cmbethe.weights import jack_energy


def d_column(nu, inv_alpha):
    """The column of D(alpha) on m_nu in the m-basis, {kappa: coefficient
    of X^kappa in D(alpha) m_nu}, diagonal included."""
    a, eye = orbit(nu), np.eye(len(nu), dtype=np.int64)
    rows, weights = [eye[:0]], [np.zeros(0, dtype=np.int64)]
    for i, j in combinations(range(len(nu)), 2):
        pos = a[a[:, i] > a[:, j]]
        d = pos[:, i] - pos[:, j]
        rep = np.repeat(np.arange(len(pos)), d)
        q = np.arange(len(rep)) - (np.cumsum(d) - d)[rep]
        r = pos[rep] - np.outer(q, eye[i] - eye[j])
        rows += [r, r - eye[i] + eye[j]]
        weights += [d[rep]] * 2
    rows, weight = merge(np.concatenate(rows), np.concatenate(weights))
    ordered = np.all(rows[:, :-1] >= rows[:, 1:], axis=1)
    col = {tuple(r): inv_alpha * w for r, w in
           zip(rows[ordered].tolist(), weight[ordered].tolist())}
    col[nu] = col.get(nu, Fraction(0)) + sum(p * p for p in nu)
    return col


@lru_cache(maxsize=64)
def degree_table(N, total, inv_alpha):
    """The degree's partitions in descending lexicographic order of prefix
    sums, their Fraction energies, and the columns, filled on first use."""
    parts = sorted((_pad(nu, N) for nu in _integer_partitions(total, N)),
                   key=lambda nu: tuple(accumulate(nu)), reverse=True)
    return parts, [jack_energy(nu, 1 / inv_alpha, N) for nu in parts], {}


def fraction_coefficients(lam, alpha):
    """{mu: c_mu} of J_lam^{(alpha)} in shifted-partition keys, by Fraction
    back-substitution; DegeneracyError at an eigenvalue collision.  Any
    non-zero rational alpha, so that negative ones reach collisions."""
    lam_t, alpha = partition(lam), Fraction(alpha)
    shift = lam_t[-1]
    mu_int = tuple(int(p - shift) for p in lam_t)
    parts, energies, columns = degree_table(len(lam_t), sum(mu_int),
                                            1 / alpha)
    start = parts.index(mu_int)
    coeffs, rhs = {}, {}
    for nu, energy in zip(parts[start:], energies[start:]):
        if nu == mu_int:
            c = Fraction(1)
        elif not rhs.get(nu):
            continue
        elif energy == energies[start]:
            raise DegeneracyError(f"eigenvalue collision E_{nu} = E_{mu_int}")
        else:
            c = rhs[nu] / (energies[start] - energy)
        coeffs[nu] = c
        if nu not in columns:
            columns[nu] = d_column(nu, 1 / alpha)
        for kappa, d in columns[nu].items():
            rhs[kappa] = rhs.get(kappa, 0) + d * c
    return {tuple(Fraction(p) + shift for p in nu): c
            for nu, c in coeffs.items()}
