"""Disk margins of SISO loops.

A disk perturbation multiplies the loop by f = disk_map(d, sigma) with
|d| < alpha.  For fixed skew sigma this sweeps a disk (or half plane, or
disk exterior) of gain/phase perturbations anchored at f = 1.  The largest alpha the loop tolerates is the
reciprocal of the peak gain of S + (sigma - 1)/2, where S is the
sensitivity; the peak frequency supplies a critical perturbation d0 on
the disk boundary, and d0 lifts to an all-pass first-order perturbation
that provably destabilizes.

Conventions used throughout:

- gamma_min/gamma_max are the real-axis intercepts disk_map(-+alpha,
  sigma) taken verbatim, so for exterior disks they are intercepts of
  the excluded region and may be negative.
- Reported guaranteed gain ranges are clipped to physical gains: lower
  end at least 0, upper end math.inf when unbounded.
- Guaranteed phase is the phi with cos(phi) = (1 + gamma_min gamma_max)
  / (gamma_min + gamma_max) = (4 - (1 + sigma^2) alpha^2) / (4 + (1 -
  sigma^2) alpha^2), in closed form phi = 2 atan(alpha / sqrt(4 - sigma^2
  alpha^2)), since tan(phi/2) = sin(phi) / (1 + cos(phi)); 2 atan(alpha/2)
  at sigma = 0.  Where the root is imaginary, on the half plane and at
  alpha = inf, phi is math.inf.

One array kernel holds these conventions: a single disk is a one-element
call of it, and a margin trace one call over the whole grid.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlgebraicLoopError,
    ConstructionError,
    InputError,
    NominalInstabilityError,
    UnsupportedCaseError,
    WellPosednessError,
)
from .lti import (
    LtiModel,
    Polynomial,
    StateSpace,
    TransferFunction,
    _as_model,
    _sensitivity,
    freq_response,
    poles,
    scalar_close,
    sensitivity_pair,
)
from .specnorm import FrequencyGrid, PeakGain, _peak_gain, default_grid

__all__ = [
    "DiskSpec",
    "DiskGeometry",
    "DiskMarginResult",
    "PerturbationLti",
    "MarginTrace",
    "NyquistExclusion",
    "VerificationReport",
    "INTERIOR_DISK",
    "HALF_PLANE",
    "EXTERIOR_DISK",
    "disk_geometry",
    "disk_map",
    "disk_map_inv",
    "disk_margin",
    "guaranteed_gm_pm",
    "gain_phase_tradeoff",
    "safe_region_curve",
    "nyquist_exclusion",
    "freq_margin_trace",
    "worst_perturbation_lti",
    "verify_destabilizing",
]

INTERIOR_DISK = "interior-disk"
HALF_PLANE = "half-plane"
EXTERIOR_DISK = "exterior-disk"


@dataclass(frozen=True)
class DiskSpec:
    """Perturbation family: radius alpha > 0 and skew sigma (0 symmetric,
    +1 sensitivity-like, -1 complementary-sensitivity-like)."""

    alpha: float
    sigma: float = 0.0

    def __post_init__(self):
        if not (self.alpha > 0.0) or math.isnan(self.sigma):
            raise InputError("disk spec needs alpha > 0 and a real sigma")


@dataclass(frozen=True)
class DiskGeometry:
    """Shape of the perturbation region in the f plane.

    kind is one of INTERIOR_DISK, HALF_PLANE, EXTERIOR_DISK.  For an
    interior disk the region is |f - center| < radius and gamma_min,
    gamma_max are its real-axis intercepts.  At the half-plane
    transition (alpha (1 + sigma) = 2) one intercept is math.inf (or
    -math.inf) and center/radius degenerate to math.inf.  For an
    exterior the region is |f - center| > radius and the intercepts
    bound the excluded disk; they are then typically negative.
    phi_max is the largest |angle f| over the region, math.inf when the
    region wraps the origin or is unbounded in angle.
    """

    gamma_min: float
    gamma_max: float
    center: float
    radius: float
    phi_max: float
    kind: str


@dataclass(frozen=True)
class PerturbationLti:
    """First-order all-pass realization of a boundary perturbation.

    delta_hat has constant modulus alpha on the axis and equals delta0
    at the construction frequency.  f_hat is its image under the disk
    map, normalized to a monic denominator.  beta is the all-pass corner
    (None for constant, real delta0)."""

    delta_hat: TransferFunction
    f_hat: TransferFunction
    beta: object


@dataclass(frozen=True)
class DiskMarginResult:
    """Largest tolerated disk at a given skew, and everything derived at it."""

    spec: DiskSpec
    omega_crit: float
    delta0: object
    f0: object
    geometry: DiskGeometry
    guaranteed_gm: tuple
    guaranteed_pm: float
    peak_gain: PeakGain


@dataclass(frozen=True, eq=False)
class MarginTrace:
    """Frequency-by-frequency margins in read-only float arrays, a row per
    grid point: alpha_of_omega (N,), gm_of_omega (N, 2) of (lo, hi) and
    pm_of_omega (N,) in radians, with the conventions of guaranteed_gm_pm
    and math.nan at the flagged samples (grid point on a pole), whose
    indices the tuple flagged lists.  Traces compare by identity."""

    grid: FrequencyGrid
    alpha_of_omega: np.ndarray
    gm_of_omega: np.ndarray
    pm_of_omega: np.ndarray
    flagged: tuple = ()


@dataclass(frozen=True)
class NyquistExclusion:
    """Disk the open-loop Nyquist plot must avoid: center and radius on
    the real axis, with intercepts (-1/gamma_min, -1/gamma_max)."""

    center: float
    radius: float
    intercepts: tuple


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of verify_destabilizing: its verdict ("pass", "fail" or
    "ill-posed"), the closed-loop pole nearest j omega0 and its distance from
    j omega0 (None and nan when ill posed, None and inf when no pole is
    compared), and messages, the notes behind the verdict."""

    verdict: str
    pole: object
    distance: float
    messages: tuple = ()


def _disk_map_terms(d, sigma, one=1.0):
    """Numerator and denominator of the disk map at d / one (numbers or Polynomials)."""
    return 2.0 * one + (1.0 - sigma) * d, 2.0 * one - (1.0 + sigma) * d


def disk_map(d, sigma):
    """Loop factor f = (2 + (1 - sigma) d) / (2 - (1 + sigma) d) of a disk
    point d; math.inf at the pole d = 2/(1 + sigma), where the denominator
    is within 1e-9 of the terms that form it (no pole at sigma = -1)."""
    num, den = _disk_map_terms(d, sigma)
    if abs(den) <= 1e-9 * (2.0 + abs((1.0 + sigma) * d)):
        return math.inf
    return num / den


def disk_map_inv(f, sigma):
    """The d with disk_map(d, sigma) = f; math.inf maps back to 2/(1 + sigma), and the
    f no finite d reaches, -(1 - sigma)/(1 + sigma), gives math.inf (same 1e-9 test)."""
    if abs(f) == math.inf:
        return math.inf if sigma == -1.0 else 2.0 / (1.0 + sigma)
    den = (1.0 + sigma) * f + (1.0 - sigma)
    if abs(den) <= 1e-9 * (abs((1.0 + sigma) * f) + abs(1.0 - sigma)):
        return math.inf
    return 2.0 * (f - 1.0) / den


def _disk_numbers(alpha, sigma):
    """The disk conventions element by element over an array of radii alpha
    at skew sigma: intercepts gmin, gmax = disk_map(-+alpha, sigma), region
    kind, reported gain interval (lo, hi) and phase phi.  Within 1e-12 of
    |alpha (1 + sigma)| = 2 the region is a half plane whose one finite
    intercept is evaluated on the edge itself (off it but inside disk_map's
    1e-9 pole test a disk has a huge finite intercept).  alpha = inf has nan
    intercepts, so the exterior rule reports (0, inf) for it.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        b = alpha * (1.0 + sigma)
        num, den = _disk_map_terms(np.multiply.outer((-1.0, 1.0), alpha), sigma)
        gmin, gmax = num / den
        # nan where the root is imaginary
        p = sigma * alpha
        phi = 2.0 * np.arctan(alpha / np.sqrt(4.0 - p * p))
    # |b| - 2 is exact near the edge
    e = np.abs(b) - 2.0
    half, interior = np.abs(e) <= 1e-12 * 2.0, e < -1e-12 * 2.0
    kind = np.where(interior, INTERIOR_DISK, EXTERIOR_DISK)
    if np.count_nonzero(half):
        a_star = 2.0 / abs(1.0 + sigma) * (1.0 - sigma)
        up, down = half & (b > 0), half & ~(b > 0)
        gmin[up], gmax[up] = (2.0 - a_star) / 4.0, math.inf
        gmin[down], gmax[down] = -math.inf, (2.0 + a_star) / 4.0
        kind[half], phi[half] = HALF_PLANE, math.inf
    # an interior disk or half plane reports [max(0, gmin), gmax]
    lo, hi = np.maximum(gmin, 0.0), gmax.copy()
    ext = ~(interior | half)
    if np.count_nonzero(ext):
        # the excluded disk sits on the real axis between the sorted
        # intercepts; report the connected admissible interval around 1
        lo_ex, hi_ex = np.minimum(gmin, gmax), np.maximum(gmin, gmax)
        lo[ext] = np.where((0.0 < hi_ex) & (hi_ex < 1.0), hi_ex, 0.0)[ext]
        hi[ext] = np.where(lo_ex > 1.0, lo_ex, math.inf)[ext]
    phi[np.isnan(phi)] = math.inf
    return gmin, gmax, kind, lo, hi, phi


def _disk_report(alpha, sigma):
    """DiskGeometry, reported (lo, hi) and phase of one disk, from one kernel call."""
    gmin, gmax, kind, lo, hi, phi = (a.item() for a in _disk_numbers(np.array([float(alpha)]), sigma))
    if kind == HALF_PLANE:
        return DiskGeometry(gmin, gmax, math.inf, math.inf, math.inf, kind), (lo, hi), phi
    center = 0.5 * (gmin + gmax)
    radius = 0.5 * abs(gmax - gmin)
    if kind == INTERIOR_DISK and 0.0 < radius < center:
        phi_max = math.asin(radius / center)
    elif kind == INTERIOR_DISK and radius == center:
        phi_max = 0.5 * math.pi
    else:
        phi_max = math.inf
    return DiskGeometry(gmin, gmax, center, radius, phi_max, kind), (lo, hi), phi


def disk_geometry(spec):
    """Region of multiplicative perturbations f reachable by a DiskSpec.

    See DiskGeometry for the field conventions.  The transition cases
    are first class: alpha (1 + sigma) = 2 gives a half plane, larger
    alpha an exterior region.
    """
    return _disk_report(spec.alpha, spec.sigma)[0]


def _interior_intercepts(x, what):
    """Intercepts of the region of a DiskSpec or a DiskMarginResult's spec, if interior."""
    g = disk_geometry(x.spec if isinstance(x, DiskMarginResult) else x)
    if g.kind != INTERIOR_DISK:
        raise UnsupportedCaseError("{} requires an interior disk, got {}".format(what, g.kind))
    return g.gamma_min, g.gamma_max


def guaranteed_gm_pm(x):
    """Guaranteed gain interval and phase rotation for a disk.

    Parameters
    ----------
    x : DiskSpec, or DiskMarginResult (returns its own numbers)

    Returns
    -------
    ((g_lo, g_hi), phi)
        Gains are clipped to [0, inf); phi is radians, math.inf when the
        disk admits no rotation bound (half plane and beyond).
    """
    if isinstance(x, DiskMarginResult):
        return x.guaranteed_gm, x.guaranteed_pm
    return _disk_report(x.alpha, x.sigma)[1:]


def _shifted_sensitivity(L, sigma):
    """S + (sigma - 1)/2 of the loop L: the sensitivity's numerator shifted
    for a transfer function, lti._sensitivity's one closure in state space;
    the one place that refuses a non-finite skew, for disk_margin,
    freq_margin_trace and build_m."""
    if not math.isfinite(sigma):
        raise InputError("the skew must be finite, got {}".format(sigma))
    L = _as_model(L).normalized()
    k = (sigma - 1.0) / 2.0
    if isinstance(L.representation, StateSpace):
        return LtiModel(_sensitivity(L.representation, k))
    r = sensitivity_pair(L)[0].representation
    return LtiModel(TransferFunction(Polynomial(np.polyadd(r.num.coeffs, k * r.den.coeffs)), r.den))


def disk_margin(L, sigma=0.0):
    """Largest disk of multiplicative perturbations the loop tolerates.

    Parameters
    ----------
    L : SISO LtiModel (positive feedback_sign is folded in first).
    sigma : skew of the disk family.

    Returns
    -------
    DiskMarginResult
        alpha_max = 1 / peak gain of S + (sigma - 1)/2, the frequency
        where the peak occurs (the lowest of distinct peaks that tie), the
        boundary perturbation delta0 = 1/(S(j w0) + (sigma - 1)/2), its
        image f0 (math.inf sentinel in the trivial case L(j w0) = 0,
        where delta0 = 2/(1 + sigma) and the loop is simply switched
        off), the region geometry, and the guaranteed classical numbers.
        After the shifted sensitivity, this is _disk_result.

    Raises
    ------
    NominalInstabilityError, WellPosednessError, InputError
    """
    L = _as_model(L).normalized()
    if not L.is_siso:
        raise InputError("disk_margin takes a SISO loop; use multiloop_margin for MIMO")
    shifted = _shifted_sensitivity(L, sigma)
    return _disk_result(shifted, sigma, _stable_poles(shifted))


def _stable_poles(shifted):
    """The poles of a shifted sensitivity S + (sigma - 1)/2, which are the
    nominal closed loop's, once proved stable; the one place that raises
    NominalInstabilityError for disk_margin, freq_margin_trace and build_m."""
    p = poles(shifted)
    if not np.all(p.real < 0.0):
        raise NominalInstabilityError("nominal closed loop is unstable")
    return p


def _disk_result(shifted, sigma, pole_set, seed=None):
    """disk_margin's result from a loop's shifted sensitivity S + (sigma - 1)/2,
    as built there or as the diagonal entry of multiloop's M, and its poles,
    proved stable by _stable_poles; multiloop passes its seed samples
    (specnorm._peak_gain) too."""
    pk = _peak_gain(shifted, pole_set, seed)
    if pk.value == 0.0:
        # loop response is identically the trivial point; margin unbounded
        spec = DiskSpec(math.inf, sigma)
        return DiskMarginResult(spec, 0.0, None, None, None, (0.0, math.inf), math.inf, pk)
    alpha = 1.0 / pk.value
    # the search's own sample: a point's value does not depend on the grid
    delta0 = 1.0 / complex(pk.response)
    f0 = disk_map(delta0, sigma)
    geometry, gm, pm = _disk_report(alpha, sigma)
    return DiskMarginResult(
        spec=DiskSpec(alpha, sigma),
        omega_crit=pk.frequency,
        delta0=delta0,
        f0=f0,
        geometry=geometry,
        guaranteed_gm=gm,
        guaranteed_pm=pm,
        peak_gain=pk,
    )


def gain_phase_tradeoff(x, gain=None, phase=None):
    """Combined gain/phase slack inside an interior disk.

    x is a DiskSpec or a DiskMarginResult, whose geometry is used.
    Exactly one of gain (> 0) or phase (radians in [0, pi)) must be
    given.  With a gain, returns the largest simultaneous rotation phi
    such that (gain, +-phi) stays in the disk, or None when the gain
    already falls outside.  With a phase, returns the admissible
    (g_low, g_high) gain interval at that rotation, or None when the
    rotation alone exhausts the disk.
    """
    gmin, gmax = _interior_intercepts(x, "gain/phase trade-off")
    if (gain is None) == (phase is None):
        raise InputError("give exactly one of gain or phase")
    p = gmin * gmax
    s = gmin + gmax
    if gain is not None:
        g = float(gain)
        if g <= 0.0:
            raise InputError("gain must be positive")
        # phi = acos(x), x = (g^2 + p) / (g s), from the exact factors 1 - x = a / (g s)
        # and 1 + x = b / (g s), which keep their digits near the gain ends
        a, b = (g - gmin) * (gmax - g), (g + gmin) * (g + gmax)
        if a * s < 0.0:
            return None
        if b * s <= 0.0:
            return math.pi
        return 2.0 * math.atan(math.sqrt(a / b))
    phi = float(phase)
    if not 0.0 <= phi < math.pi:
        raise InputError("phase must lie in [0, pi)")
    disc = (s * math.cos(phi)) ** 2 - 4.0 * p
    if disc < 0.0:
        return None
    root = math.sqrt(disc)
    g_lo = 0.5 * (s * math.cos(phi) - root)
    g_hi = 0.5 * (s * math.cos(phi) + root)
    if g_hi <= 0.0:
        return None
    return (max(0.0, g_lo), g_hi)


def safe_region_curve(spec, n=361):
    """Boundary of the perturbation region as (gain_dB, phase_deg) pairs.

    Walks disk_map(alpha e^(j theta)) for theta in [0, pi].  The map's
    pole (half-plane boundary) yields an infinite-gain sentinel row
    (math.inf, math.nan).
    """
    if n < 2:
        raise InputError("curve needs at least 2 samples")
    out = []
    for theta in np.linspace(0.0, math.pi, int(n)):
        f = disk_map(spec.alpha * cmath.exp(1j * theta), spec.sigma)
        if f == math.inf:
            out.append((math.inf, math.nan))
            continue
        mag = abs(f)
        db = -math.inf if mag == 0.0 else 20.0 * math.log10(mag)
        out.append((db, math.degrees(cmath.phase(f))))
    return out


def nyquist_exclusion(x):
    """Disk around the critical point that the Nyquist plot of L must avoid.

    x is a DiskSpec or a DiskMarginResult, whose geometry is used.
    Requires the typical interior geometry 0 < gamma_min < 1 <
    gamma_max < inf; anything else raises UnsupportedCaseError naming
    the violated precondition.  The region {-1/f} has real intercepts
    (-1/gamma_min, -1/gamma_max); for sigma = +1 it reduces to the disk
    of radius alpha centered at -1.
    """
    gmin, gmax = _interior_intercepts(x, "nyquist exclusion")
    if not 0.0 < gmin < 1.0:
        raise UnsupportedCaseError(
            "nyquist exclusion requires 0 < gamma_min < 1, got {:.6g}".format(gmin)
        )
    if not (1.0 < gmax < math.inf):
        raise UnsupportedCaseError(
            "nyquist exclusion requires 1 < gamma_max < inf, got {:.6g}".format(gmax)
        )
    i1 = -1.0 / gmin
    i2 = -1.0 / gmax
    return NyquistExclusion(
        center=0.5 * (i1 + i2),
        radius=0.5 * (i2 - i1),
        intercepts=(i1, i2),
    )


def freq_margin_trace(L, sigma=0.0, grid=None):
    """Disk margin radius and guaranteed margins frequency by frequency.

    alpha(w) = 1 / |S(jw) + (sigma - 1)/2|, in MarginTrace's arrays.  Rows
    where the evaluation hits a pole are flagged and filled with math.nan
    rather than aborting the sweep.  Rows whose alpha leaves the interior
    regime report the unbounded conventions of guaranteed_gm_pm.
    """
    L = _as_model(L).normalized()
    if not L.is_siso:
        raise InputError("freq_margin_trace takes a SISO loop")
    shifted = _shifted_sensitivity(L, sigma)
    _stable_poles(shifted)
    if grid is None:
        grid = default_grid(L)
    elif not isinstance(grid, FrequencyGrid):
        grid = FrequencyGrid(grid)
    vals, ok = freq_response(shifted, grid.points)
    alpha, lo, hi, pm = _trace_margins(np.abs(vals), ok, sigma)
    gm = np.column_stack([lo, hi])
    for a in (alpha, gm, pm):
        a.setflags(write=False)
    return MarginTrace(grid, alpha, gm, pm, tuple(np.flatnonzero(~ok).tolist()))


def _trace_margins(gains, ok, sigma):
    """alpha = 1/gain (inf at zero gain) and _disk_numbers' (lo, hi) and phase
    over a whole grid in one call; nan in all four where ok is False."""
    with np.errstate(divide="ignore", over="ignore"):
        alpha = 1.0 / gains
    lo, hi, pm = _disk_numbers(alpha, sigma)[3:]
    for a in (alpha, lo, hi, pm):
        a[~ok] = math.nan
    return alpha, lo, hi, pm


def _allpass(value, omega, what):
    """First-order all-pass g(s) = +-c (s - beta)/(s + beta) with
    g(j omega) = value; constant for real value."""
    try:
        v = complex(value)
    except (TypeError, ValueError) as e:
        raise InputError("{} must be a number".format(what)) from e
    if not 0.0 < abs(v) < math.inf:
        raise InputError("{} must be finite and nonzero".format(what))
    if abs(v.imag) <= 1e-12 * abs(v):
        return TransferFunction([v.real], [1.0]), None
    if not (omega is not None and 0.0 < float(omega) < math.inf):
        raise InputError(
            "complex {} needs a finite positive frequency; at w = 0 or w = inf it must be real".format(what)
        )
    omega = float(omega)
    c = abs(v)
    if v.imag > 0:
        sign = 1.0
        phi = cmath.phase(v)
    else:
        sign = -1.0
        phi = cmath.phase(-v)
    beta = omega * math.tan(0.5 * phi)
    num = [sign * c, -sign * c * beta]
    den = [1.0, beta]
    return TransferFunction(num, den), beta


def worst_perturbation_lti(delta0, omega0, sigma):
    """Stable all-pass LTI perturbation through a boundary point.

    Parameters
    ----------
    delta0 : complex boundary perturbation (finite and nonzero).
    omega0 : frequency where delta_hat(j omega0) must equal delta0.
        Required finite and positive when delta0 is complex.
    sigma : skew, used to map delta_hat into f_hat.

    Returns
    -------
    PerturbationLti
        delta_hat is all-pass with |delta_hat(jw)| = |delta0| for all w;
        f_hat = disk_map(delta_hat, sigma) with monic denominator.

    Raises
    ------
    ConstructionError
        If |delta0| (1 + sigma) >= 2, where f_hat turns improper or
        unstable because delta_hat(jw) sweeps through the trivial point
        2/(1 + sigma).
    """
    dhat, beta = _allpass(delta0, omega0, "delta0")
    c = abs(complex(delta0))
    if beta is not None and abs(1.0 + sigma) * c >= 2.0 * (1.0 - 1e-12):
        # delta_hat(jw) sweeps the full circle of radius c and passes
        # through the trivial point, so f_hat cannot be proper and stable
        raise ConstructionError(
            "no stable proper f_hat: |delta0| (1 + sigma) = {:.6g} reaches 2".format(
                abs(1.0 + sigma) * c
            )
        )
    if disk_map(delta0, sigma) == math.inf:
        raise ConstructionError(
            "f_hat is infinite: delta0 equals the trivial point 2/(1 + sigma)"
        )
    fnum, fden = _disk_map_terms(dhat.num, sigma, dhat.den)
    lead = fden.coeffs[0]
    f_hat = TransferFunction(fnum.coeffs / lead, fden.coeffs / lead)
    return PerturbationLti(delta_hat=dhat, f_hat=f_hat, beta=beta)


def _perturbed_poles(L, f, omega):
    """(poles, None) of the loop L closed through f, one perturbation or a
    list of one per channel, or (None, why) when that closure is ill posed.
    A PerturbationLti closes as its f_hat, a model as given, a real scalar
    (|Im f| <= 1e-12 max(1, |f|)) as f, a complex one as the all-pass through
    f at omega; an infinite one switches its loop off, a nan one is refused."""
    many = isinstance(f, list)
    factors = []
    for x in f if many else [f]:
        if isinstance(x, PerturbationLti):
            x = x.f_hat
        elif not isinstance(x, (TransferFunction, LtiModel)):
            x = complex(x)
            if cmath.isnan(x):
                return None, "a nan perturbation closes no loop"
            if cmath.isinf(x):
                return None, "an infinite perturbation switches its loop off"
            if abs(x.imag) <= 1e-12 * max(1.0, abs(x)):
                x = TransferFunction([x.real], [1.0])
            else:
                x = _allpass(x, omega, "perturbation")[0]
        factors.append(x)
    try:
        closed = scalar_close(L, factors if many else factors[0])
    except (AlgebraicLoopError, WellPosednessError) as e:
        return None, str(e)
    return poles(closed), None


def verify_destabilizing(L, f, omega0):
    """Close the loop with a perturbation and check for the promised pole.

    Parameters
    ----------
    L : SISO loop.
    f : PerturbationLti, TransferFunction, or a scalar.  A complex
        scalar is realized as a first-order all-pass through f at omega0.
    omega0 : frequency where a closed-loop pole is expected.

    Returns
    -------
    VerificationReport
        verdict "pass" when some closed-loop pole lies within
        1e-4 * max(1, omega0) of j omega0; "ill-posed" when the closure
        has no proper solution, or none at all (the w = inf form of
        destabilization), or when an infinite f switches the loop off;
        "fail" otherwise, with a note when the closure is in fact stable.
    """
    p, why = _perturbed_poles(L, f, omega0)
    if p is None:
        return VerificationReport("ill-posed", None, math.nan, (why,))
    if math.isinf(omega0):
        why = "expected an ill-posed closure at w = inf but the closure is proper"
        return VerificationReport("fail", None, math.inf, (why,))
    if p.size == 0:
        return VerificationReport("fail", None, math.inf, ("closed loop has no poles",))
    dist = np.abs(p - 1j * float(omega0))
    k = int(np.argmin(dist))
    verdict = "pass" if dist[k] <= 1e-4 * max(1.0, abs(float(omega0))) else "fail"
    messages = ()
    if verdict == "fail" and bool(np.all(p.real < 0)):
        messages = ("closed loop is stable; the perturbation does not destabilize",)
    return VerificationReport(verdict, complex(p[k]), float(dist[k]), messages)
