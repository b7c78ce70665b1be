"""Derivative-free simplex minimizer used by the model-fitting routines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Standard Nelder-Mead coefficients.
_REFLECT = 1.0
_EXPAND = 2.0
_CONTRACT = 0.5
_SHRINK = 0.5
# First simplex edge, relative to max(1, |x_i|); the restart uses a tenth.
_INITIAL_STEP = 0.1
# Evaluation budget shared by the first search and the restart.
_MAX_EVALS = 2000
# Stop when the spread of simplex values is within this of the best value.
_REL_TOL = 1e-10


@dataclass
class MinimizeResult:
    x: np.ndarray
    fun: float
    n_evals: int
    converged: bool


def nelder_mead(func: Callable[[np.ndarray], float], x0: np.ndarray) -> MinimizeResult:
    """
    Minimize ``func`` from ``x0`` with a Nelder-Mead simplex.

    Stops when the simplex function-value spread drops below ``_REL_TOL``
    relative to the best value, or after ``_MAX_EVALS`` evaluations.  After
    a first convergence the search restarts once from the incumbent with a
    smaller step, which guards against premature collapse of the simplex;
    the restart shares the same evaluation budget.  Deterministic for a
    given ``func`` and ``x0``.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    evals = 0

    def f(x: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        val = func(x)
        if not np.isfinite(val):
            return 1e300
        return float(val)

    if n == 0:
        return MinimizeResult(x=x0, fun=f(x0), n_evals=evals, converged=True)

    def run(start: np.ndarray, step: float) -> tuple[np.ndarray, float, bool]:
        # Row 0 is the start, row i + 1 moves coordinate i.
        simplex = np.tile(start, (n + 1, 1))
        for i in range(n):
            simplex[i + 1, i] += step * max(1.0, abs(start[i]))
        fvals = np.array([f(v) for v in simplex])

        converged = False
        while evals < _MAX_EVALS:
            order = np.argsort(fvals, kind="stable")
            simplex, fvals = simplex[order], fvals[order]
            fbest, fworst = fvals[0], fvals[-1]
            if fworst - fbest <= _REL_TOL * (abs(fbest) + _REL_TOL):
                converged = True
                break

            centroid = simplex[:-1].mean(axis=0)
            xr = centroid + _REFLECT * (centroid - simplex[-1])
            fr = f(xr)
            if fr < fvals[0]:
                xe = centroid + _EXPAND * (xr - centroid)
                fe = f(xe)
                if fe < fr:
                    simplex[-1], fvals[-1] = xe, fe
                else:
                    simplex[-1], fvals[-1] = xr, fr
            elif fr < fvals[-2]:
                simplex[-1], fvals[-1] = xr, fr
            else:
                if fr < fvals[-1]:
                    xc = centroid + _CONTRACT * (xr - centroid)
                else:
                    xc = centroid - _CONTRACT * (centroid - simplex[-1])
                fc = f(xc)
                if fc < min(fr, fvals[-1]):
                    simplex[-1], fvals[-1] = xc, fc
                else:
                    for i in range(1, n + 1):
                        simplex[i] = simplex[0] + _SHRINK * (simplex[i] - simplex[0])
                        fvals[i] = f(simplex[i])
                        if evals >= _MAX_EVALS:
                            break

        i_best = int(np.argmin(fvals))
        return simplex[i_best].copy(), float(fvals[i_best]), converged

    x_best, f_best, conv = run(x0, _INITIAL_STEP)
    if evals < _MAX_EVALS:
        x2, f2, conv2 = run(x_best, _INITIAL_STEP * 0.1)
        if f2 <= f_best:
            x_best, f_best, conv = x2, f2, conv2 or conv
    return MinimizeResult(x=x_best, fun=f_best, n_evals=evals, converged=conv)
