"""Resonance parameter extraction and survival probabilities.

A resolved peak in a scanned spectrum is fit with a Lorentzian
A (g/2)^2 / ((E - E0)^2 + (g/2)^2) + B over a window |E - E0| <= 5 g
(half-max bracketing, then one re-estimation pass).  The fit runs in
peak-scaled coordinates, energies measured in units of the initial width
estimate and responses relative to the peak value, so conditioning is
independent of how narrow the resonance is.  Fits run MINPACK's
Levenberg-Marquardt (lmdif) through scipy.optimize.leastsq, with no
covariance estimate: only the parameters are used.  A fit that does not
converge, or a window with a non-finite sample, raises NumericalError.
A Resonance is always such a fitted line.  An unresolved-narrow peak has
none: fit_lorentzian raises WidthUnresolvedError, and phase_slope_width
probed at the scan's resolution floor bounds its width instead.

Two lineshape diagnostics are computed on first read of the Resonance,
not by the fit, since the hold budget needs only the widths:

- fit_residual_gauss scores a Gaussian of the same parameter count on
  the final fit window;
- gamma_phase is an independent width from the matching-phase slope:
  a Breit-Wigner phase obeys theta(E0 + h) - theta(E0 - h) =
  2 atan(2h/g), so g = 2h / tan(h * slope) inverts the finite-difference
  slope exactly at any h/g.  The smooth background slope is measured
  from secants at 6-8 widths off center (with the analytic Breit-Wigner
  tail subtracted) and removed first.

Their errors (a Gaussian fit that does not converge, a nonpositive or
too steep phase slope) are raised at that first read.

Survival of the quasi-bound state is computed two ways: directly as
exp(-g t), and from the spectrum as |integral P(E) exp(iEt) dE|^2 over
a window of >= 20 widths, normalized to 1 at t = 0.  Agreement of the
two is a cross-check of the decay law, not a fit.  Both raise
DomainError for a negative, NaN or infinite time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import quad
from scipy.optimize import leastsq

from . import scattering
from ._arrays import first_failing
from .errors import DomainError, NumericalError, WidthUnresolvedError
from .potential import TrapSpec
from .scattering import Spectrum

# Fit window half-width in units of the (current) width estimate.
FIT_WINDOW_WIDTHS = 5.0
# Background-slope probe offsets for the phase-width estimator, in
# units of the fitted width.
_BG_PROBE_NEAR = 6.0
_BG_PROBE_FAR = 8.0
# Central-difference half-step for the phase slope, in widths.
_PHASE_STEP = 0.05
# Minimum Fourier half-window in units of the width.  Lorentzian tails
# cut at m widths remove a fraction 2/(pi m) of the line; with the t=0
# normalization the survival error is twice that, ~0.64/m, so m = 20
# keeps it under 1/20.
MIN_FOURIER_WINDOW = 20.0


@dataclass(frozen=True)
class Resonance:
    """Fitted Lorentzian line of one resolved quasi-bound level.

    gamma is the Lorentzian FWHM and tau = 1/gamma the lifetime.
    amplitude and background are in response units (log_amplitude stays
    finite when the peak response overflows).

    gamma_phase (the independent phase-slope width) and
    fit_residual_gauss (the Gaussian score of the final fit window) are
    computed on first read from the trap and window the record keeps,
    then cached; their NumericalError or DomainError is raised at that
    read.
    """

    e0: float
    gamma: float
    amplitude: float
    background: float
    fit_residual_lorentz: float
    log_amplitude: float
    # inputs of the lazy diagnostics: the trap, and the final fit window
    # (xi, q) in peak-scaled coordinates
    _trap: TrapSpec = field(compare=False, repr=False)
    _window: tuple[np.ndarray, np.ndarray] = field(compare=False, repr=False)

    @property
    def tau(self) -> float:
        return 1.0 / self.gamma

    @cached_property
    def gamma_phase(self) -> float:
        return phase_slope_width(self._trap, self.e0, self.gamma)

    @cached_property
    def fit_residual_gauss(self) -> float:
        return _fit(_gauss, *self._window, 1.0 / 2.3548)[1]


def _lorentz(x, a, x0, w, b):
    h = 0.5 * w
    return a * h * h / ((x - x0) ** 2 + h * h) + b


def _gauss(x, a, x0, s, b):
    return a * np.exp(-0.5 * ((x - x0) / s) ** 2) + b


def _bw_secant_slope(lo: float, hi: float, gamma: float) -> float:
    """Breit-Wigner phase secant slope over [e0 + lo*g, e0 + hi*g]."""
    return (math.atan(2.0 * hi) - math.atan(2.0 * lo)) / ((hi - lo) * gamma)


def phase_slope_width(spec: TrapSpec, e0: float, gamma_scale: float) -> float:
    """Width estimate 2/(d theta/dE) from the matching-phase slope at e0.

    gamma_scale sets the probe geometry (central difference at
    +-0.05 gamma_scale, background secants at 6-8 gamma_scale); for a
    resolved peak pass the fitted width.  The smooth background slope
    and the finite-step Breit-Wigner bias are both removed analytically.
    """

    if not 0.0 < gamma_scale < math.inf:
        raise DomainError(f"gamma_scale must be positive and finite, got {gamma_scale}")
    cap = scattering.energy_cap(spec)
    scale = gamma_scale
    # Shrink the probe pattern if the far probes leave the usable window.
    while e0 + _BG_PROBE_FAR * scale >= cap or e0 - _BG_PROBE_FAR * scale <= 0.0:
        scale *= 0.5
        if scale < 1e3 * np.finfo(float).eps * e0:
            raise DomainError(
                f"no room for phase probes around e0={e0:g} inside (0, {cap:g})"
            )

    h = _PHASE_STEP * scale
    # the central step is 0 where e0 +- h round to e0, leaving only the
    # subtracted tail term as the "slope" (a NaN e0 reaches the matcher's
    # check instead)
    if e0 - h == e0 or e0 + h == e0:
        raise DomainError(
            f"gamma_scale {gamma_scale:g} too small: probes e0 +- {h:g} round to e0={e0:g}"
        )
    near, far = _BG_PROBE_NEAR * scale, _BG_PROBE_FAR * scale
    # the six probe phases in one matching call, as (high, low) pairs
    probes = np.array([e0 + h, e0 - h, e0 + far, e0 + near, e0 - near, e0 - far])
    phase = scattering.match_amplitude(spec, probes).phase
    central, upper, lower = (
        math.remainder(d, 2.0 * math.pi) for d in phase[0::2] - phase[1::2]
    )
    slope_raw = central / (2.0 * h)
    secant_hi = upper / ((_BG_PROBE_FAR - _BG_PROBE_NEAR) * scale)
    secant_lo = lower / ((_BG_PROBE_FAR - _BG_PROBE_NEAR) * scale)
    # Remove the resonance's own tail from the background secants; the
    # tail slope uses the probe geometry's width scale.
    tail = _bw_secant_slope(_BG_PROBE_NEAR, _BG_PROBE_FAR, scale)
    background = 0.5 * (secant_hi + secant_lo) - tail

    slope = slope_raw - background
    if slope <= 0.0:
        raise NumericalError(
            f"nonpositive net phase slope {slope:g} at e0={e0:g}; not a resonance?"
        )
    arg = h * slope
    # A Breit-Wigner phase turns by 2 atan(2h/g) < pi across the central
    # step, so a steeper slope has no width to invert at this step.
    if arg >= 0.5 * math.pi:
        raise NumericalError(
            f"net phase slope {slope:g} at e0={e0:g} is too steep for the "
            f"probe step {h:g}"
        )
    return 2.0 * h / math.tan(arg)


def _fit(shape, xi, q, width0):
    """Fit shape in peak-scaled coordinates: parameters and relative residual.

    A non-finite window or a fit that does not converge raises
    NumericalError.
    """

    if not (np.isfinite(xi).all() and np.isfinite(q).all()):
        raise NumericalError("non-finite sample in the fit window")
    b0 = float(np.min(q))
    p, ier = leastsq(lambda params: shape(xi, *params) - q, (1.0 - b0, 0.0, width0, b0),
                     maxfev=20000)
    if ier not in (1, 2, 3, 4):
        raise NumericalError(
            f"{shape.__name__.lstrip('_')} fit did not converge (MINPACK info {ier})"
        )
    return p, float(np.sqrt(np.mean((shape(xi, *p) - q) ** 2))) / abs(p[0])


def fit_lorentzian(spectrum: Spectrum, peak_index: int) -> Resonance:
    """Fit one resolved peak of a scanned spectrum.

    Raises WidthUnresolvedError for unresolved-narrow peaks, carrying
    the bisection-floor bracket as an upper bound on the width, and
    DomainError for a negative or too large peak_index.  Only the two
    Lorentzian passes run here; the record's gamma_phase and
    fit_residual_gauss are computed when first read.
    """

    if not 0 <= peak_index < len(spectrum.peaks):
        raise DomainError(
            f"peak_index {peak_index} out of range ({len(spectrum.peaks)} peaks)"
        )
    peak = spectrum.peaks[peak_index]
    if not peak.resolved:
        raise WidthUnresolvedError(
            f"peak at {peak.center:.12g} is narrower than the scan resolution floor",
            width_upper_bound=peak.width_estimate,
        )

    e0, gamma = peak.center, peak.width_estimate
    for _ in range(2):  # half-max estimate, then one re-estimation pass
        # Stay inside this peak's territory: the window may otherwise
        # creep over the saddle and pick up a far taller neighbor.
        sel = spectrum.window_slice(
            max(e0 - FIT_WINDOW_WIDTHS * gamma, peak.territory[0]),
            min(e0 + FIT_WINDOW_WIDTHS * gamma, peak.territory[1]),
        )
        e = spectrum.energies[sel]
        log_r = spectrum.log_responses[sel]
        if len(e) < 8:
            raise NumericalError(
                f"only {len(e)} samples in the fit window around {e0:g}"
            )
        ref = float(np.max(log_r))
        xi = (e - e0) / gamma
        q = np.exp(log_r - ref)
        (a, x0, w, b), res_l = _fit(_lorentz, xi, q, 1.0)
        e0, gamma = e0 + float(x0) * gamma, abs(float(w)) * gamma

    a, b = float(a), float(b)
    if gamma <= 0.0 or not math.isfinite(gamma):
        raise NumericalError(f"Lorentzian fit collapsed at {e0:g}")

    log_amp = math.log(a) + ref if a > 0.0 else -math.inf
    return Resonance(
        e0=e0,
        gamma=gamma,
        amplitude=a * math.exp(ref),
        background=b * math.exp(ref),
        fit_residual_lorentz=res_l,
        log_amplitude=log_amp,
        _trap=spectrum.trap,
        _window=(xi, q),
    )


def _times(t) -> np.ndarray:
    """t as a float array; a negative, NaN or infinite time raises DomainError."""
    t = np.asarray(t, dtype=float)
    ok = (t >= 0.0) & (t < math.inf)
    if not ok.all():
        raise DomainError(f"time must be nonnegative and finite, got {first_failing(t, ok)}")
    return t


def survival_exponential(res: Resonance, t):
    """Decay-law survival exp(-gamma t); t may be a scalar or array."""

    t = _times(t)
    out = np.exp(-res.gamma * t)
    return float(out) if out.ndim == 0 else out


def survival_from_spectrum(
    spec: TrapSpec,
    res: Resonance,
    t,
    window: float = 60.0,
) -> float:
    """Survival from the spectral line: |integral P(E) e^{iEt} dE|^2.

    window is the integration half-width in units of res.gamma and must
    be at least MIN_FOURIER_WINDOW; the result is normalized to 1 at
    t = 0, which absorbs the slowly varying spectral prefactor.  The
    truncation error scales as ~0.64/window, so pass window >= 100 when
    percent-level agreement with the exponential law is needed.  The
    integrand is evaluated on demand (adaptive oscillatory quadrature),
    not from the stored scan samples.
    """

    t_arr = _times(t)
    if not MIN_FOURIER_WINDOW <= window < math.inf:
        raise DomainError(
            f"window {window:g} widths is not finite or below the minimum "
            f"{MIN_FOURIER_WINDOW:g}"
        )
    half = window * res.gamma
    lo = res.e0 - half
    hi = res.e0 + half
    cap = scattering.energy_cap(spec)
    if lo <= 0.0 or hi >= cap:
        raise DomainError(
            f"Fourier window [{lo:g}, {hi:g}] leaves the usable range (0, {cap:g})"
        )

    ref = res.log_amplitude if math.isfinite(res.log_amplitude) else 0.0

    def profile(energy: float) -> float:
        return math.exp(
            scattering.match_amplitude(spec, energy).log_response - ref
        )

    def transform(time: float) -> float:
        if time == 0.0:
            value, _ = quad(profile, lo, hi, limit=300)
            return value * value
        cos_part, _ = quad(profile, lo, hi, weight="cos", wvar=time, limit=300)
        sin_part, _ = quad(profile, lo, hi, weight="sin", wvar=time, limit=300)
        return cos_part * cos_part + sin_part * sin_part

    norm = transform(0.0)
    if norm <= 0.0 or not math.isfinite(norm):
        raise NumericalError("spectral norm integral failed")

    flat = np.atleast_1d(t_arr)
    out = np.array([transform(float(x)) / norm for x in flat])
    return float(out[0]) if t_arr.ndim == 0 else out
