"""The (w, f) words as tuples and the prefix expansion of omega_tri, kept as
test evidence.

``cmbethe.weights.build_indexing`` builds the words as one int64 array by
array operations, and ``cmbethe.states._EllipticOmega.tri_expansion``
expands the p = 0 polynomial acc by walking the suffix levels of the sigma
table.  These are the forms they replaced: the words enumerated as tuples,
one w at a time with its f maps, and acc expanded deepest slot first over
the flat word list, terms that share their first k slot choices sharing the
expanded product of the slots after them.  Tests compare each replacement
with its reference.
"""

from itertools import permutations, product

import numpy as np

from cmbethe.errors import DomainError, MembershipError
from cmbethe.elliptic import PoleError
from cmbethe.laurent import chamber, merge, orbit
from cmbethe.master import membership_F


def tuple_words(N, l):
    """(W_maps, Fw_maps): every flat w as a tuple, and for each w the
    tuple of its flat f tuples (f[k-1] = 0 on V_1)."""
    m = l * N * (N - 1) // 2
    p_bounds = [i * (2 * N - i - 1) * l // 2 for i in range(N)]
    c = [i for i in range(1, N) for _ in range(p_bounds[i - 1], p_bounds[i])]
    per_block = [list(map(tuple, orbit(np.repeat(np.arange(i, N), l))
                          .tolist())) for i in range(1, N)]
    W_maps = tuple(tuple(x for blk in combo for x in blk)
                   for combo in product(*per_block))
    Fw_maps = []
    for w in W_maps:
        # fibers[i-1][j] = ordered positions k in V_i with w_i(k) = j
        fibers = [{} for _ in range(N - 1)]
        for k in range(1, m + 1):
            fibers[c[k - 1] - 1].setdefault(w[k - 1], []).append(k)
        # f_i maps each label's fiber of V_{i+1} bijectively onto the same
        # label's fiber of V_i: one permutation per (i, label), i = 1..N-2
        blocks = [(src, fibers[i - 1][lab]) for i in range(1, N - 1)
                  for lab, src in sorted(fibers[i].items())]
        f_list = []
        for combo in product(*(permutations(dst) for _, dst in blocks)):
            flat = [0] * m
            for (src, _), image in zip(blocks, combo):
                for k, target in zip(src, image):
                    flat[k - 1] = target
            f_list.append(tuple(flat))
        Fw_maps.append(tuple(f_list))
    return W_maps, tuple(Fw_maps)


def word_array(N, l):
    """The tuple words as one (words, 2, m) int64 array, w slowest."""
    W_maps, Fw_maps = tuple_words(N, l)
    m = l * N * (N - 1) // 2
    return np.array([(w, f) for w, f_tuple in zip(W_maps, Fw_maps)
                     for f in f_tuple], dtype=np.int64).reshape(-1, 2, m)


class PrefixOmega:
    """omega_tri = X^xi Sum_r coef_r X^{rows_r} / Delta(X)^l, unnormalized,
    from the tuple words.  The (w, f) sum of Prod_k (X_{c(k)} T_k -
    X_{w(k)+1} T_{f(k)}) / (T_k - T_{f(k)}) is expanded deepest slot first:
    terms that share their first k slot choices share the expanded product
    of the slots after them."""

    def __init__(self, point, xi, rs, idx):
        if point.nome.p != 0:
            raise DomainError("omega_tri needs a p = 0 point")
        if not membership_F(point, xi, rs, idx):
            raise MembershipError("T is outside F (a factor of Phi_tri vanishes)")
        N, m = rs.N, idx.m
        self.N, self.xi, self.in_P = N, xi.coords, xi.in_P
        T = np.concatenate([[1.0 + 0j], point.to_T()])      # T[0] = T_0 = 1
        w, f = word_array(N, rs.l).transpose(1, 0, 2)
        den = np.where(np.asarray(idx.c) == 1, 1.0 + 0j, T[1:] - T[f])
        if np.any(np.abs(den) < 1e-13):
            raise PoleError("paired collision T_k = T_{f(k)}: zero denominator "
                            "in omega_tri")
        # first[k][t]: the first term with the same first k choices as term t
        first = [np.zeros(len(w), dtype=np.int64)]
        for kk in range(m):
            code = first[-1] * (N * (m + 1)) + w[:, kk] * (m + 1) + f[:, kk]
            _, head, inv = np.unique(code, return_index=True, return_inverse=True)
            first.append(head[inv])
        # rows: (representative term, exponent vector)
        keys = np.column_stack([first[m], np.zeros((len(w), N), dtype=np.int64)])
        coef = np.ones(len(w), dtype=complex)
        for kk in reversed(range(m)):
            term = keys[:, 0]
            scaled = coef / den[term, kk]
            own, other = keys.copy(), keys.copy()
            own[:, 0] = other[:, 0] = first[kk][term]
            own[:, idx.c[kk]] += 1
            other[np.arange(len(term)), 1 + w[term, kk]] += 1
            keys, coef = merge(np.concatenate([own, other]),
                               np.concatenate([scaled * T[kk + 1],
                                               -scaled * T[f[term, kk]]]))
        self.rows, self.coef = keys[:, 1:], coef

    def alt(self):
        """Alt(X^xi acc) = Delta^l Sym^(l) omega_tri by its chamber, the
        rows those of X^{xi - xi_N} acc (integers for xi in P)."""
        if not self.in_P:
            raise DomainError("antisymmetrizing omega_tri needs xi in P")
        return chamber(self.rows + np.round(self.xi - self.xi[-1])
                       .astype(np.int64), self.coef)
