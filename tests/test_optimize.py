import numpy as np
import pytest

from rxgeo import _optimize
from rxgeo._optimize import MinimizeResult, nelder_mead

CENTER = np.array([1.0, -2.0, 0.5])
CURVATURE = np.array([[3.0, 0.5, 0.0],
                      [0.5, 2.0, 0.3],
                      [0.0, 0.3, 1.0]])  # positive definite


def quadratic(x):
    d = x - CENTER
    return float(d @ CURVATURE @ d) + 4.0


def test_converges_on_convex_quadratic():
    res = nelder_mead(quadratic, np.zeros(3))
    assert res.converged
    assert res.n_evals <= 5000
    assert np.allclose(res.x, CENTER, atol=1e-3)
    assert abs(res.fun - 4.0) < 1e-6


def test_repeat_call_is_bit_identical():
    x0 = np.array([0.3, 0.7, -1.1])
    first = nelder_mead(quadratic, x0)
    second = nelder_mead(quadratic, x0.copy())
    assert first.x.tobytes() == second.x.tobytes()
    assert first.fun == second.fun
    assert first.n_evals == second.n_evals
    assert np.array_equal(x0, [0.3, 0.7, -1.1])  # the start is not modified


def test_zero_dimensional_returns_start_after_one_evaluation():
    seen = []

    def func(x):
        seen.append(x.size)
        return 7.0

    x0 = np.zeros(0)
    res = nelder_mead(func, x0)
    assert res.x is x0
    assert (res.fun, res.n_evals, res.converged) == (7.0, 1, True)
    assert seen == [0]


def test_nonfinite_values_count_as_worst():
    # NaN away from the box |x| < 2 must not stop the search at the start
    def func(x):
        return float(x @ x) if np.all(np.abs(x) < 2.0) else float("nan")

    res = nelder_mead(func, np.array([1.5, -1.5]))
    assert res.fun < 1e-8


def reference_nelder_mead(func, x0, max_evals, rel_tol=1e-10):
    """The list-of-vertices implementation that the array simplex replaced."""
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        val = func(x)
        if not np.isfinite(val):
            return 1e300
        return float(val)

    def run(start, step):
        simplex = [start.copy()]
        for i in range(n):
            v = start.copy()
            v[i] += step * max(1.0, abs(v[i]))
            simplex.append(v)
        fvals = [f(v) for v in simplex]

        converged = False
        while evals < max_evals:
            order = np.argsort(fvals, kind="stable")
            simplex = [simplex[i] for i in order]
            fvals = [fvals[i] for i in order]
            fbest, fworst = fvals[0], fvals[-1]
            if fworst - fbest <= rel_tol * (abs(fbest) + rel_tol):
                converged = True
                break

            centroid = np.mean(simplex[:-1], axis=0)
            xr = centroid + 1.0 * (centroid - simplex[-1])
            fr = f(xr)
            if fr < fvals[0]:
                xe = centroid + 2.0 * (xr - centroid)
                fe = f(xe)
                if fe < fr:
                    simplex[-1], fvals[-1] = xe, fe
                else:
                    simplex[-1], fvals[-1] = xr, fr
            elif fr < fvals[-2]:
                simplex[-1], fvals[-1] = xr, fr
            else:
                if fr < fvals[-1]:
                    xc = centroid + 0.5 * (xr - centroid)
                else:
                    xc = centroid - 0.5 * (centroid - simplex[-1])
                fc = f(xc)
                if fc < min(fr, fvals[-1]):
                    simplex[-1], fvals[-1] = xc, fc
                else:
                    for i in range(1, n + 1):
                        simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                        fvals[i] = f(simplex[i])
                        if evals >= max_evals:
                            break

        i_best = int(np.argmin(fvals))
        return simplex[i_best], fvals[i_best], converged

    x_best, f_best, conv = run(x0, 0.1)
    if evals < max_evals:
        x2, f2, conv2 = run(x_best, 0.1 * 0.1)
        if f2 <= f_best:
            x_best, f_best, conv = x2, f2, conv2 or conv
    return MinimizeResult(x=x_best, fun=f_best, n_evals=evals, converged=conv)


def test_centroid_is_numpy_axis0_mean_bit_for_bit():
    rng = np.random.default_rng(3)
    for n in range(1, 9):
        rows = rng.choice([-0.0, 0.0, 0.1, -2.5, 1e-300, 3.0], size=(n, n))
        rows[:, 0] = -0.0  # a column of -0.0: numpy's mean gives 0.0
        rows[:, -1] = rng.normal(size=n)
        want = rows.mean(axis=0)
        got = _optimize._centroid(rows.tolist())
        assert np.array(got).tobytes() == want.tobytes(), n


def rosenbrock(x):
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


def nan_walled(x):
    return float(x @ x) if np.all(np.abs(x) < 2.0) else float("nan")


def one_dimensional(x):
    return float(np.cos(3.0 * x[0]) + 0.1 * x[0] ** 2)


@pytest.mark.parametrize("func,x0", [
    (quadratic, [0.3, 0.7, -1.1]),
    (quadratic, [1.0, -0.0, 0.5]),  # the start stays best, keeping its -0.0
    (rosenbrock, [-1.2, 0.0]),
    (nan_walled, [1.5, -1.5]),
    (nan_walled, [1.9, 1.95]),
    (one_dimensional, [2.0]),
], ids=["quadratic", "quadratic_negative_zero", "rosenbrock", "nan_walled",
        "nan_walled_at_wall", "one_dimensional"])
def test_trajectory_matches_list_simplex_at_every_budget(monkeypatch, func, x0):
    # Small budgets end the search in every branch.  Rosenbrock shrinks
    # after evaluations 13 and 19 and the start at the wall after 5, so
    # budgets 14, 20 and 6 run out between the rows of a shrink.
    for budget in [*range(1, 61), _optimize._MAX_EVALS]:
        want = reference_nelder_mead(func, np.array(x0), budget)
        monkeypatch.setattr(_optimize, "_MAX_EVALS", budget)
        got = nelder_mead(func, np.array(x0))
        assert got.x.tobytes() == want.x.tobytes(), budget
        assert (got.fun, got.n_evals, got.converged) == \
            (want.fun, want.n_evals, want.converged), budget
        assert type(got.fun) is float
