"""The fixed continuation schedule, kept as test evidence.

``cmbethe.critical.continue_nome`` advances the nome under step-size
control.  This is the walk it replaced: geometric magnitudes from
FIRST_STEP = 1e-6 by x10 until within one decade of |target|, then
``linear_steps`` equal steps along the target's ray, ending on the target
itself; each nome is predicted by the same Lagrange predictor and corrected
by the same Newton without its contraction test, and a failed nome is
halved down to MIN_STEP.  Tests compare the two paths' endpoints.
"""

import numpy as np

from cmbethe.critical import (MIN_STEP, NEWTON_TOL, PREDICTOR_POINTS,
                              PathStep, _predict)
from cmbethe.elliptic import Nome
from cmbethe.errors import ConvergenceError, MembershipError
from cmbethe.master import _polish

FIRST_STEP = 1e-6


def schedule(target: complex, linear_steps: int) -> list:
    """The nomes of the walk; the last is the target itself."""
    mag = abs(target)
    if mag == 0:
        return []
    ray = target / mag
    mags = []
    s = FIRST_STEP
    while s < (mag / 10.0) * (1 + 1e-9):
        mags.append(s)
        s *= 10.0
    last = mags[-1] if mags else 0.0
    for k in range(1, linear_steps):
        mags.append(last + (mag - last) * k / linear_steps)
    return [m * ray for m in mags] + [target]


def schedule_path(trig, xi, rs, idx, target: complex, linear_steps: int = 10
                  ) -> list:
    """The accepted PathSteps of the scheduled walk from the p = 0 report
    ``trig``; ConvergenceError once a halved nome is within MIN_STEP of the
    last good one."""
    path = [PathStep(0j, trig.point, trig)]
    pending = schedule(complex(target), linear_steps)
    while pending:
        p_try, p_good = pending[0], path[-1].p
        if abs(p_try - p_good) < MIN_STEP:
            raise ConvergenceError(f"schedule stalled at p = {p_good}")
        t_seed = _predict(path[-PREDICTOR_POINTS:], p_try)
        try:
            rep = _polish(t_seed, xi, rs, idx, Nome(p=p_try), NEWTON_TOL)
            if not rep.in_F:
                raise MembershipError("corrected point left F")
        except (ConvergenceError, MembershipError):
            pending.insert(0, p_good + (p_try - p_good) / 2.0)
            continue
        path.append(PathStep(p_try, rep.point, rep))
        pending.pop(0)
    return path


def max_root_gap(a, b) -> float:
    """max |t_a - t_b| over the coordinates of two roots."""
    return float(np.max(np.abs(a.point.t - b.point.t)))
