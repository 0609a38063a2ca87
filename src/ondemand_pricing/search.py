"""The marginal-cost price iteration shared by the queue and mixture solves.

Both models meet the loss system's first-order condition with a class-specific
opportunity cost: psi_k(p_k) = cost + shadow_k(p), so each class is priced by
the loss system's price response at its own shadow price.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from .model import CustomerClass, PriceVector
from .solver import Solution, price_response

_MAX_ITERATIONS = 10_000
_PRICE_TOL = 1e-13
_RATE_ULPS = 8  # rounding allowance of the closed-form rate, in units in the last place


def marginal_cost_ascent(terms: Callable[[PriceVector], tuple[float, Sequence[float]]],
                         classes: Sequence[CustomerClass], cost: float, prices: PriceVector,
                         pinned: int | None = None) -> Solution:
    """The marginal-cost iteration from `prices`, with class `pinned` (if any)
    held at its price. `terms(prices)` returns the objective and each class's
    shadow price of a busy hour beyond `cost`.

    Each iteration steps toward the target prices, the price responses at the
    shadows. When the targets at the full step land on the other side (the
    plain map can settle into a 2-cycle), the step shrinks to the secant root
    of the gap along the line. It is then halved until the objective does not
    fall by more than its closed form's rounding. The iteration stops when the
    targets lie within _PRICE_TOL of the prices (relative to prices above 1);
    it is not converged when it reaches the cap or no step longer than that
    keeps the objective.
    """
    free = [(k, cls) for k, cls in enumerate(classes) if k != pinned]
    still = [0.0] * len(classes)  # the pinned class's gap

    def evaluate(point):
        rate, shadows = terms(point)
        gaps = still.copy()
        for k, cls in free:
            gaps[k] = price_response(cls, shadows[k], cost) - point[k]
        return point, rate, gaps

    def toward(step):  # the trial point, kept as the next iterate when accepted
        return evaluate([p + step * g for p, g in zip(prices, gaps)])

    prices, rate, gaps = evaluate(prices)
    for iteration in range(1, _MAX_ITERATIONS + 1):
        move = max(map(abs, gaps))
        tol = _PRICE_TOL * max(1.0, *prices)
        if move <= tol or not math.isfinite(move):  # not finite: the rate overflowed
            return Solution(tuple(prices), rate, iteration, (), move <= tol)
        step = 1.0
        trial, trial_rate, trial_gaps = toward(step)
        turn = sum([t * g for t, g in zip(trial_gaps, gaps)]) / sum([g * g for g in gaps])
        if turn < 0.0:
            step = 1.0 / (1.0 - turn)
            trial, trial_rate, trial_gaps = toward(step)
        while not trial_rate >= rate - _RATE_ULPS * math.ulp(rate):  # NaN falls
            step *= 0.5
            if step * move <= tol:
                return Solution(tuple(prices), rate, iteration, (), False)
            trial, trial_rate, trial_gaps = toward(step)
        prices, rate, gaps = trial, trial_rate, trial_gaps
    return Solution(tuple(prices), rate, _MAX_ITERATIONS, (), False)
