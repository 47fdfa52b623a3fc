import math

import numpy as np

from spinpath.chsh import s_polar


def polar_angle_deviation(beta1: float, beta1_p: float, gamma: float) -> float:
    """Distance of (beta1, beta1') from the stationary polar angles, modulo
    the simultaneous pi shift of both angles and 2*pi wraps."""
    target1 = math.atan(math.cos(gamma))
    target2 = math.pi - target1
    two_pi = 2.0 * math.pi
    best = math.inf
    for k in (0, 1):
        d1 = (beta1 + k * math.pi - target1 + math.pi) % two_pi - math.pi
        d2 = (beta1_p + k * math.pi - target2 + math.pi) % two_pi - math.pi
        best = min(best, max(abs(d1), abs(d2)))
    return best


def maximize_2d(objective, lo1, hi1, lo2, hi2, coarse_step, refine_tol):
    """Brute-force maximum of a smooth scalar field over a rectangle: the
    numerical oracle for the closed-form maxima.

    objective(b1, b1p) must accept broadcasting numpy arrays.  A coarse scan
    at spacing coarse_step locates the best cell (ties resolve to the
    lexicographically smallest point, row-major argmax); repeated local grid
    bisection then shrinks the window until its half-width drops below
    refine_tol.  Returns (x1, x2, value).
    """
    n1 = max(int(math.ceil((hi1 - lo1) / coarse_step)) + 1, 2)
    n2 = max(int(math.ceil((hi2 - lo2) / coarse_step)) + 1, 2)
    g1 = np.linspace(lo1, hi1, n1)
    g2 = np.linspace(lo2, hi2, n2)
    values = objective(g1[:, None], g2[None, :])
    i, j = np.unravel_index(np.argmax(values), values.shape)
    x1, x2 = float(g1[i]), float(g2[j])

    half = max((hi1 - lo1) / (n1 - 1), (hi2 - lo2) / (n2 - 1))
    offsets = np.linspace(-1.0, 1.0, 9)
    while half > refine_tol:
        l1 = np.clip(x1 + half * offsets, lo1, hi1)
        l2 = np.clip(x2 + half * offsets, lo2, hi2)
        local = objective(l1[:, None], l2[None, :])
        i, j = np.unravel_index(np.argmax(local), local.shape)
        x1, x2 = float(l1[i]), float(l2[j])
        half *= 0.5
    return x1, x2, float(objective(x1, x2))


def grid_maximize_s(gamma: float) -> tuple:
    """Numerical maximum (beta1, beta1', S) of s_polar over
    (beta1, beta1') in [-pi, pi]^2 at alpha1' = pi/2, on a 1-degree coarse
    grid refined to 1e-7."""
    def objective(b1, b1p):
        return s_polar(math.pi / 2.0, b1, b1p, gamma)

    return maximize_2d(objective, -math.pi, math.pi, -math.pi, math.pi,
                       math.pi / 180.0, 1e-7)
