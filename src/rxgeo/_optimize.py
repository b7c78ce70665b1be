"""Derivative-free simplex minimizer used by the model-fitting routines."""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
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


def _centroid(rows: list[list[float]]) -> list[float]:
    """
    The mean of ``rows`` as numpy's axis-0 mean takes it, bit for bit: the
    rows added in order onto 0.0, then divided by their count.  Starting
    from 0.0 rather than the first row keeps a column of -0.0 at 0.0.
    """
    total = [0.0] * len(rows[0])
    for v in rows:
        total = list(map(add, total, v))
    return [t / len(rows) for t in total]


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

    def f(x: list[float]) -> float:
        nonlocal evals
        evals += 1
        val = func(np.array(x))
        if not math.isfinite(val):
            return 1e300
        return float(val)

    if n == 0:
        return MinimizeResult(x=x0, fun=f([]), n_evals=evals, converged=True)

    # Vertices are lists of floats and every update is the array expression
    # written element by element, so the values are those of an (n+1)xn
    # array simplex, bit for bit, without an array round trip per step.
    def run(start: list[float], step: float) -> tuple[list[float], float, bool]:
        # Vertex 0 is the start, vertex i + 1 moves coordinate i.
        simplex = [start[:] for _ in range(n + 1)]
        for i in range(n):
            simplex[i + 1][i] += step * max(1.0, abs(start[i]))
        fvals = [f(v) for v in simplex]

        converged = False
        while evals < _MAX_EVALS:
            order = sorted(range(n + 1), key=fvals.__getitem__)  # stable
            simplex = [simplex[i] for i in order]
            fvals = [fvals[i] for i in order]
            fbest, fworst = fvals[0], fvals[-1]
            if fworst - fbest <= _REL_TOL * (abs(fbest) + _REL_TOL):
                converged = True
                break

            centroid = _centroid(simplex[:-1])
            worst = simplex[-1]
            xr = [c + _REFLECT * (c - w) for c, w in zip(centroid, worst)]
            fr = f(xr)
            if fr < fvals[0]:
                xe = [c + _EXPAND * (r - c) for c, r in zip(centroid, xr)]
                fe = f(xe)
                if fe < fr:
                    simplex[-1], fvals[-1] = xe, fe
                else:
                    simplex[-1], fvals[-1] = xr, fr
            elif fr < fvals[-2]:
                simplex[-1], fvals[-1] = xr, fr
            else:
                if fr < fvals[-1]:
                    xc = [c + _CONTRACT * (r - c) for c, r in zip(centroid, xr)]
                else:
                    xc = [c - _CONTRACT * (c - w) for c, w in zip(centroid, worst)]
                fc = f(xc)
                if fc < min(fr, fvals[-1]):
                    simplex[-1], fvals[-1] = xc, fc
                else:
                    best = simplex[0]
                    for i in range(1, n + 1):
                        simplex[i] = [b + _SHRINK * (v - b) for b, v in zip(best, simplex[i])]
                        fvals[i] = f(simplex[i])
                        if evals >= _MAX_EVALS:
                            break

        i_best = min(range(n + 1), key=fvals.__getitem__)  # first minimum
        return simplex[i_best], fvals[i_best], converged

    x_best, f_best, conv = run(x0.tolist(), _INITIAL_STEP)
    if evals < _MAX_EVALS:
        x2, f2, conv2 = run(x_best, _INITIAL_STEP * 0.1)
        if f2 <= f_best:
            x_best, f_best, conv = x2, f2, conv2 or conv
    return MinimizeResult(x=np.array(x_best), fun=f_best, n_evals=evals, converged=conv)
