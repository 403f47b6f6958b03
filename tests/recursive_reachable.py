"""The recursive enumeration of the band-reachable offsets, kept as the test
oracle.

The library reads the rs basis off the Jack degree table it solves on
(``cmbethe.perturb.reachable_partitions``): the partitions of
|lam - lam_N| + N budget boxes, lowered by budget and filtered by their l1
distance.  This is the form it replaced: a depth-first walk over the
non-increasing integer vectors of the right total, each entry bounded by the
one before it and by what the rest can still take.
"""


def reachable_offsets(offsets, budget):
    """The non-increasing integer vectors of total ``sum(offsets)`` within
    (1/2) Sum |mu_i - offsets_i| <= budget, in descending lexicographic
    order."""
    n = len(offsets)
    lo, hi = -budget, offsets[0] + budget
    found = []

    def rec(i, prev, acc, left):
        if i == n:
            if left == 0 and sum(
                    abs(a - b) for a, b in zip(acc, offsets)) <= 2 * budget:
                found.append(tuple(acc))
            return
        rem = n - i - 1
        top = min(prev, left - rem * lo)
        bot = max(lo, left - rem * prev)
        for o in range(top, bot - 1, -1):
            rec(i + 1, o, acc + [o], left - o)

    rec(0, hi, [], sum(offsets))
    return found
