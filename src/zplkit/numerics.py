"""Low-level numerical kernels: complex error function and adaptive quadrature.

Both are self-contained so the rest of the package carries no dependency
beyond numpy.  Accuracy of the Faddeeva evaluator and its derivatives is
enforced by the tests against mpmath and, downstream, by a brute-force
convolution cross-check rather than assumed here.
"""

import numpy as np

from .errors import DomainError, QuadratureError

__all__ = ["faddeeva", "faddeeva_derivatives", "adaptive_gauss_kronrod"]

_SQRT_PI = np.sqrt(np.pi)


def _weideman_coefficients(n_terms):
    # Rational-series coefficients (Weideman's method): sample the real line
    # through a tangent map, recover Taylor coefficients of the mapped
    # function with one FFT.  Done once at import.
    m = 2 * n_terms
    idx = np.arange(-m + 1, m)
    pole = np.sqrt(n_terms / np.sqrt(2.0))
    theta = (np.pi / m) * idx
    t = pole * np.tan(0.5 * theta)
    samples = np.zeros(idx.size + 1)
    samples[1:] = np.exp(-t * t) * (pole * pole + t * t)
    coeffs = np.fft.fft(np.fft.fftshift(samples)).real / (2.0 * m)
    # highest order first, for Horner's rule
    return pole, coeffs[1:n_terms + 1][::-1].copy()


# 36 terms: within 1e-14 relative of an mpmath reference over the upper half
# plane.  34 terms miss |w(0) - 1| <= 1e-14; 35 pass it but sit at 3e-14.
_FADDEEVA_POLE, _FADDEEVA_COEFFS = _weideman_coefficients(36)


def _horner(coeffs, x):
    """Polynomial with `coeffs` (highest order first, >= 2 of them) at x,
    in place: one buffer instead of two temporaries per term."""
    out = coeffs[0] * x
    for coeff in coeffs[1:-1]:
        out += coeff
        out *= x
    out += coeffs[-1]
    return out


def faddeeva(z):
    """Scaled complex error function w(z) = exp(-z^2) erfc(-iz), Im(z) >= 0.

    Vectorized rational approximation; relative accuracy is far below 1e-12
    over the upper half plane including the real axis.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag < 0):
        raise DomainError("faddeeva requires Im(z) >= 0")
    iz = 1j * z
    inv = 1.0 / (_FADDEEVA_POLE - iz)
    poly = _horner(_FADDEEVA_COEFFS, (_FADDEEVA_POLE + iz) * inv)
    poly *= 2.0 * inv
    poly += 1.0 / _SQRT_PI
    poly *= inv
    return poly


def _asymptotic_derivative_coefficients(n_terms):
    # w(z) ~ (i/sqrt(pi)) sum_k a_k z^-(2k+1) with a_k = (2k-1)!!/2^k, so
    # w' and z w'' are polynomials in t = z^-2 with no constant term; their
    # coefficients, highest order first for Horner's rule
    a = np.cumprod([1.0] + [(2 * k - 1) / 2.0 for k in range(1, n_terms)])
    order = 2.0 * np.arange(n_terms) + 1.0
    d1 = np.append((-order * a)[::-1], 0.0) * (1j / _SQRT_PI)
    d2 = np.append((order * (order + 1.0) * a)[::-1], 0.0) * (1j / _SQRT_PI)
    return d1, d2


# Beyond |z| = 20 eight terms are within 1e-14 relative; inside, the
# recurrences scale the ~1e-14 error of w by |z|^2 and |z|^4: at most ~3e-12
# for w' and ~1e-9 for w'' (checked against mpmath).
_ASYMPTOTIC_RADIUS = 20.0
_ASYMPTOTIC_D1, _ASYMPTOTIC_D2 = _asymptotic_derivative_coefficients(8)


def faddeeva_derivatives(z, w=None):
    """(dw/dz, d^2w/dz^2); pass w = faddeeva(z) to reuse a computed value.

    Uses w' = -2 z w + 2i/sqrt(pi) and w'' = -2 w - 2 z w'.  Both cancel
    at large |z|, where w' ~ -i/(sqrt(pi) z^2) is the small difference of
    O(1) terms (relative error ~ eps |z|^2, and ~ eps |z|^4 for w''), so
    beyond |z| = 20 the asymptotic series is used instead.
    """
    z = np.asarray(z, dtype=complex)
    if w is None:
        w = faddeeva(z)
    # in place, so no temporaries beyond the two results
    wp = np.multiply(z, w)
    wp *= -2.0
    wp += 2j / _SQRT_PI
    wpp = np.multiply(z, wp)
    wpp += w
    wpp *= -2.0
    far = np.abs(z) > _ASYMPTOTIC_RADIUS
    if np.any(far):
        inv = 1.0 / z[far]
        t = inv * inv
        wp[far] = _horner(_ASYMPTOTIC_D1, t)
        wpp[far] = _horner(_ASYMPTOTIC_D2, t) * inv
    return wp, wpp


# Gauss-Kronrod 7/15 nodes and weights on [-1, 1].
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_GK_WEIGHTS_K = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
# embedded 7-point Gauss rule lives on the odd Kronrod nodes
_GK_WEIGHTS_G = np.zeros(15)
_GK_WEIGHTS_G[1::2] = [
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
]
_GK_WEIGHTS = np.stack([_GK_WEIGHTS_K, _GK_WEIGHTS_G])


def _gk15(func, lo, hi):
    """(lo, hi, K15 value, |K15 - G7|) of each panel [lo[i], hi[i]], from one
    call of `func` on the 15 nodes of every panel."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    y = func((mid[:, None] + half[:, None] * _GK_NODES).ravel())
    # vecdot takes the same BLAS dot per panel and rule as `weights @ row`,
    # so each sum keeps its bits; a (n, 15) matmul would sum in another
    # order and move integrals in the last digits
    sums = np.vecdot(np.asarray(y).reshape(-1, 1, 15), _GK_WEIGHTS)
    i_k = half * sums[:, 0]
    # |K15 - G7| is a conservative bound on the K15 error
    err = np.abs(i_k - half * sums[:, 1])
    return list(zip(lo, hi, i_k, err))


def _initial_edges(a, b, n):
    """np.linspace(a, b, n + 1), by its own formula where the step is
    nonzero, without its per-call overhead."""
    step = (b - a) / n
    if step == 0:  # linspace takes another formula then
        return np.linspace(a, b, n + 1)
    edges = np.arange(n + 1.0) * step + a
    edges[-1] = b
    return edges


def adaptive_gauss_kronrod(func, a, b, rel_tol=1e-10, abs_tol=1e-30,
                           initial_intervals=1, max_intervals=2048):
    """Integrate a vectorized callable over [a, b] by adaptive bisection.

    `func` is called once on the nodes of all initial panels, then once per
    bisection on the nodes of both halves, each time with a 1-D array.
    Returns (value, error_bound).  Raises QuadratureError instead of
    silently returning a truncated result when the tolerance is unreachable.
    """
    if not b >= a:
        raise DomainError(f"invalid integration range [{a}, {b}]")
    if b == a:
        return 0.0, 0.0
    edges = _initial_edges(a, b, initial_intervals)
    intervals = _gk15(func, edges[:-1], edges[1:])
    while True:
        total = sum(iv[2] for iv in intervals)
        total_err = sum(iv[3] for iv in intervals)
        if not np.isfinite(total):
            raise QuadratureError("integrand produced non-finite values")
        if total_err <= max(rel_tol * abs(total), abs_tol):
            return total, total_err
        if len(intervals) >= max_intervals:
            raise QuadratureError(
                f"no convergence after {len(intervals)} intervals "
                f"(error bound {total_err:.3e}, target "
                f"{max(rel_tol * abs(total), abs_tol):.3e})")
        worst = max(range(len(intervals)), key=lambda i: intervals[i][3])
        lo, hi, _, _ = intervals[worst]
        mid = 0.5 * (lo + hi)
        intervals[worst], right = _gk15(func, np.array([lo, mid]),
                                        np.array([mid, hi]))
        intervals.append(right)
