import numpy as np

from rxgeo._optimize import nelder_mead

CENTER = np.array([1.0, -2.0, 0.5])
CURVATURE = np.array([[3.0, 0.5, 0.0],
                      [0.5, 2.0, 0.3],
                      [0.0, 0.3, 1.0]])  # positive definite


def quadratic(x):
    d = x - CENTER
    return float(d @ CURVATURE @ d) + 4.0


def test_converges_on_convex_quadratic():
    res = nelder_mead(quadratic, np.zeros(3), max_evals=5000)
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
