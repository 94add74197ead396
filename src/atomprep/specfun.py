"""Special functions for the barrier-matching solver.

A domain-checked exp-scaled Airy pair and a Hermite function of
arbitrary real degree, built on scipy.special's airy, airye, hyp1f1,
hyperu and rgamma.  Both take a float or an array; an array is
evaluated element by element in one call, with the same arithmetic as
a float.  The Airy pair is scipy's plain airy, scaled by exp(+/-chi), up
to s = AIRY_CEPHES_MAX = 10, and scipy's exp-scaled airye beyond: 10 is
where scipy's plain airy leaves Cephes for AMOS, and up to there the
plain pair is cheaper and at least as accurate.  The map's arguments
(s in [-0.71, 7.34]) all take the plain route.  The Hermite function is
the decaying-at-+infinity solution of Hermite's equation

    H'' - 2 x H' + 2 degree H = 0,

equal to the Hermite polynomial at non-negative integer degree.  Two
evaluation routes are used:

* x <= 0: the confluent-hypergeometric combination
      H = 2^degree sqrt(pi) [ M(-degree/2, 1/2, x^2) / Gamma((1-degree)/2)
                              - 2x M((1-degree)/2, 3/2, x^2) / Gamma(-degree/2) ]
  written with 1/Gamma (entire), so integer degrees need no special case.
  Both terms grow together for x -> -inf; no cancellation.
* x > 0: H = 2^degree U(-degree/2, 1/2, x^2) with Tricomi's U, which picks
  out the recessive (2x)^degree branch directly, climbing from a
  fractional-degree base pair by the three-term recurrence for degree > 1.
  The M route loses roughly x^2/ln(10) digits here and is unusable past
  x ~ 4.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy import special as _sp

from ._arrays import all_of, as_floats, first_failing, where
from .errors import DomainError

AIRY_ARG_MAX = 200.0
# scipy's plain airy evaluates Cephes for |s| <= 10 and AMOS beyond, at
# about 100x the cost per element; airy_scaled takes its positive side
# from the plain pair up to here and from the exp-scaled AMOS pair above.
AIRY_CEPHES_MAX = 10.0
HERMITE_DEGREE_MIN = -1.0
HERMITE_DEGREE_MAX = 30.0
HERMITE_ARG_MAX = 15.0

SQRT_PI = math.sqrt(math.pi)
# Second Kummer parameter of the four M values of the two M-route rungs.
_M_B = np.array([0.5, 1.5, 0.5, 1.5])


class ScaledAiryPair(NamedTuple):
    """Exp-scaled Airy values and the scaling exponent chi.

    For s > 0: ai = ai_e * exp(-chi), bi = bi_e * exp(+chi) with
    chi = (2/3) s^(3/2); for s <= 0 the values are unscaled and chi = 0.
    Safe far beyond the overflow range of the plain pair.
    """

    ai_e: float
    aip_e: float
    bi_e: float
    bip_e: float
    chi: float


def airy_scaled(s):
    """Exp-scaled Airy pair, usable at arbitrarily large positive s.

    s may be a float or an array; for an array every field of the pair
    is an array of its shape, with bitwise the values of float calls.
    Each element takes the route its range selects:

    * s <= 0: the plain pair with chi = 0; both Airy functions are order
      one there (scipy's scaled variant yields NaN for Ai).
    * 0 < s <= AIRY_CEPHES_MAX: the plain pair times exp(+chi) (Ai, Ai')
      and exp(-chi) (Bi, Bi').  Both products are representable, and
      scipy evaluates the plain pair with Cephes here, about 7x faster
      per element than the exp-scaled AMOS route and closer to mpmath
      (1.3e-14 against 4.9e-14 relative on (0, 10]).
    * s > AIRY_CEPHES_MAX: scipy's exp-scaled pair (AMOS), where scipy's
      plain pair takes AMOS too and soon overflows.
    """
    s = as_floats(s)
    inside = (s >= -AIRY_ARG_MAX) & (s < math.inf)
    if not all_of(inside):
        raise DomainError(
            f"airy argument finite and >= -{AIRY_ARG_MAX:g}, got {first_failing(s, inside)}"
        )
    chi = where(s > 0.0, (2.0 / 3.0) * s * np.sqrt(abs(s)), 0.0)
    near = s <= AIRY_CEPHES_MAX
    if all_of(near):  # the whole call on the Cephes route, without masking
        return ScaledAiryPair(*_cephes_scaled(s, chi), chi)
    if isinstance(s, float):
        return ScaledAiryPair(*_sp.airye(s), chi)
    pair = np.empty((4,) + s.shape)
    pair[:, near] = _cephes_scaled(s[near], chi[near])
    pair[:, ~near] = _sp.airye(s[~near])
    return ScaledAiryPair(*pair, chi)


def _cephes_scaled(s, chi):
    # np.exp and products on the float path as on the array path, so both
    # give the same bits
    ai, aip, bi, bip = _sp.airy(s)
    grow, decay = np.exp(chi), np.exp(-chi)
    return ai * grow, aip * grow, bi * decay, bip * decay


def _m_rungs(degree, x, down):
    # x <= 0 (and small positive x): H_degree and its neighbour H_degree-1
    # (down) or H_degree+1, from Kummer's M.  With t = -degree/2 the two
    # rungs need 1/Gamma at t, t + 1/2 and t + 1 (down) or t - 1/2, so
    # one factor is shared; the four M values come from one hyp1f1 call.
    # rgamma is entire: integer degrees pass straight through.
    t = -0.5 * degree
    tn = where(down, t + 0.5, t - 0.5)
    b = _M_B if isinstance(t, float) else _M_B.reshape((4,) + (1,) * t.ndim)
    m = _sp.hyp1f1(np.array([t, t + 0.5, tn, tn + 0.5]), b, x * x)
    g_t = _sp.rgamma(t)
    g_half = _sp.rgamma(t + 0.5)
    g_new = _sp.rgamma(where(down, tn + 0.5, tn))
    g_lo, g_hi = where(down, g_half, g_new), where(down, g_new, g_t)
    scale = np.exp2(degree) * SQRT_PI
    h = scale * (m[0] * g_half - 2.0 * x * m[1] * g_t)
    hn = where(down, 0.5 * scale, 2.0 * scale) * (m[2] * g_hi - 2.0 * x * m[3] * g_lo)
    return h, hn


def _u_route(degree, x):
    # x > 0: H = 2^degree U(-degree/2, 1/2, x^2), direct at low degree;
    # above degree 1, a fractional-degree base pair climbed by the
    # three-term recurrence keeps hyperu inside its reliable small-|a| range
    x2 = x * x
    climb = degree > 1.0
    base = where(climb, degree - np.floor(degree), degree)
    h1 = np.exp2(base) * _sp.hyperu(-0.5 * base, 0.5, x2)
    if not np.any(climb):
        return h1
    h0, h1 = h1, where(climb, np.exp2(base + 1.0) * _sp.hyperu(-0.5 * (base + 1.0), 0.5, x2), h1)
    n = base + 1.0
    for _ in range(int(np.max(np.floor(degree))) - 1):
        step = n < degree - 0.5
        h0, h1 = where(step, h1, h0), where(step, 2.0 * x * h1 - 2.0 * n * h0, h1)
        n = n + 1.0
    return h1


def _u_rungs(degree, x, down):
    return _u_route(degree, x), _u_route(where(down, degree - 1.0, degree + 1.0), x)


def _pair(degree, x):
    """H_degree(x) and d/dx H_degree(x) on checked arguments.

    The derivative is 2 degree H_{degree-1}; below degree 0, where
    degree - 1 would leave the domain, it is 2x H_degree - H_{degree+1}.
    The two forms are identical by the recurrence
    H_{n+1} = 2x H_n - 2n H_{n-1}.  Each element takes the M route at
    x <= 0 and the U route at x > 0.
    """
    if isinstance(degree, np.ndarray) or isinstance(x, np.ndarray):
        degree, x = np.broadcast_arrays(degree, x)
    down = degree >= HERMITE_DEGREE_MIN + 1.0
    neg = x <= 0.0
    if all_of(neg):
        h, hn = _m_rungs(degree, x, down)
    elif not np.any(neg):
        h, hn = _u_rungs(degree, x, down)
    else:
        h, hn = np.empty(x.shape), np.empty(x.shape)
        for mask, rungs in ((neg, _m_rungs), (~neg, _u_rungs)):
            h[mask], hn[mask] = rungs(degree[mask], x[mask], down[mask])
    return h, where(down, 2.0 * degree * hn, 2.0 * x * h - hn)


def _hermite_args(degree, x):
    degree, x = as_floats(degree), as_floats(x)
    ok = (HERMITE_DEGREE_MIN <= degree) & (degree <= HERMITE_DEGREE_MAX)
    ok = ok & (abs(x) <= HERMITE_ARG_MAX)
    if not all_of(ok):
        raise DomainError(
            f"hermite needs degree in [{HERMITE_DEGREE_MIN}, {HERMITE_DEGREE_MAX}] "
            f"and |x| <= {HERMITE_ARG_MAX}, got ({first_failing(degree, ok)}, {first_failing(x, ok)})"
        )
    return degree, x


def hermite_pair(degree, x):
    """(H_degree(x), d/dx H_degree(x)) in one evaluation.

    degree in [-1, 30] and |x| <= 15; either may be an array (they
    broadcast), and the results are then arrays.  Relative accuracy
    ~1e-12 away from zeros of H.  See _pair for the derivative form.
    """
    return _pair(*_hermite_args(degree, x))

