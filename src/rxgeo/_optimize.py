"""Minimizers used by the model-fitting routines: Levenberg-Marquardt on a
residual vector, and a derivative-free simplex for the fits it cannot finish."""

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
# Levenberg-Marquardt: an iteration cap; a stop once an accepted step lowers
# the sum of squares by at most this share of it; the first damping, relative
# to the diagonal of J'J, and its factors after an accepted and a rejected
# step; and the damping past which no step lowers the sum, so the point is a
# minimum to working precision.
_LM_MAX_ITER = 100
_LM_REL_TOL = 1e-12
_LM_DAMPING = 1e-3
_LM_DOWN = 0.1
_LM_UP = 10.0
_LM_MAX_DAMPING = 1e10
# Forward-difference Jacobian step, relative to max(1, |x_i|).
_JAC_STEP = 1.4901161193847656e-08  # sqrt of the float64 machine epsilon


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


def levenberg_marquardt(residuals: Callable[[np.ndarray], np.ndarray | None],
                        x0: np.ndarray) -> MinimizeResult | None:
    """
    Minimize the sum of squares of ``residuals(x)`` from ``x0`` by
    Levenberg-Marquardt (Marquardt 1963), with a forward-difference
    Jacobian.  ``residuals`` returns None where the point is infeasible.

    Each iteration solves the damped normal equations
    (J'J + lam diag(J'J)) step = -J'r and takes the step only when the sum
    of squares falls, so the result is never worse than ``x0``.  It stops
    once an accepted step gains at most ``_LM_REL_TOL`` of the sum, or once
    the damping passes ``_LM_MAX_DAMPING`` with no step accepted.  Returns
    None, for the caller's fallback, when it cannot finish: ``x0`` or a
    Jacobian point is infeasible, the Jacobian is not finite or has a zero
    column (a coordinate that moves no residual), the equations are
    singular, or ``_LM_MAX_ITER`` iterations pass.
    """
    x = np.array(x0, dtype=float)
    r = residuals(x)
    if r is None:
        return None
    fun = float(r @ r)
    evals = 1
    lam = _LM_DAMPING
    for _ in range(_LM_MAX_ITER):
        h = _JAC_STEP * np.maximum(1.0, np.abs(x))
        jac = np.empty((r.size, x.size))
        for i in range(x.size):
            xi = x.copy()
            xi[i] += h[i]
            ri = residuals(xi)
            if ri is None:
                return None
            jac[:, i] = (ri - r) / h[i]
        evals += x.size
        if not (np.all(np.isfinite(jac)) and np.all(jac.any(axis=0))):
            return None
        normal = jac.T @ jac
        grad = jac.T @ r
        scale = np.diag(np.diag(normal))
        while True:
            try:
                step = np.linalg.solve(normal + lam * scale, -grad)
            except np.linalg.LinAlgError:
                return None
            x_new = x + step
            r_new = residuals(x_new)
            evals += 1
            fun_new = math.inf if r_new is None else float(r_new @ r_new)
            if fun_new < fun:
                gain = fun - fun_new
                x, r, fun = x_new, r_new, fun_new
                lam *= _LM_DOWN
                if gain <= _LM_REL_TOL * fun:
                    return MinimizeResult(x=x, fun=fun, n_evals=evals, converged=True)
                break
            lam *= _LM_UP
            if lam > _LM_MAX_DAMPING:
                return MinimizeResult(x=x, fun=fun, n_evals=evals, converged=True)
    return None
