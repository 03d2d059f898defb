"""Simultaneous multi-loop disk margins via the structured singular value.

Perturbing several loop-break points at once with independent disk
perturbations f_i = disk.disk_map(d_i, sigma) turns the stability
question into a mu problem for the diagonally structured uncertainty
d = diag(d_i) acting on M = (I + L)^-1 + (sigma - 1)/2 I, where L is the
open loop seen from the chosen break points.  The largest simultaneous
radius is 1 over the peak of mu(M(jw)).

mu itself is only bracketed: a diagonally scaled largest singular value
from above, the spectral radius under closed-form diagonal phases from
below, with a phase ascent where those leave the bracket open; one
descent routine serves the scaling and the ascent.  The margin inherits
that bracket, [1/peak_upper, 1/peak_lower].  The peak is found as in
hinf_norm: sweep, then climb.  log sigma_max(D M D^-1) is convex in
log D (Sezginer & Overton 1990), so each step of the climb descends from
the scaling of the highest sample so far.

The plant and controller are wired by lti._io_loop into the loop seen
from every break point, and each analysis closes it with lti._close:
the same assembly scalar_close uses for its series F L.
"""

import math
from dataclasses import dataclass

import numpy as np

from .disk import (_disk_report, _disk_result, _perturbed_poles, _shifted_sensitivity, _stable_poles,
                   disk_map_inv, worst_perturbation_lti)
from .classical import _margins
from .errors import ConstructionError, InputError
from .lti import LtiModel, StateSpace, _as_model, _as_ss, _close, _io_loop, freq_response
from .specnorm import _GRID_N, _climb_peaks, _peak_seed, _pick_lowest

_RESTARTS = 5  # uniform and fixed random starts of the mu lower bound's fallback ascent

__all__ = [
    "MDeltaSystem",
    "MuResult",
    "MultiLoopResult",
    "MultiLoopVerification",
    "build_m",
    "mu_diag",
    "multiloop_margin",
    "loop_at_a_time",
    "resolve_points",
    "single_loop_margins",
    "siso_loop",
    "verify_multiloop_destabilizing",
]


@dataclass(frozen=True)
class MDeltaSystem:
    """Stable M in feedback with a diagonal perturbation of size n; poles
    are M's poles.  loop is the normalized io interconnection (the open
    loop at every break point) and points index M's channels into it."""

    M: LtiModel
    n: int
    sigma: float
    poles: np.ndarray
    loop: StateSpace
    points: list


@dataclass(frozen=True)
class MuResult:
    """Bracket on mu of a constant matrix under diagonal complex structure.

    delta_worst is the diagonal matrix built from the lower-bound phases,
    scaled so that det(I - M delta_worst) = 0 with norm 1/lower.
    converged is False when the fallback ascent of the lower bound hit
    its iteration cap; it is True when the closed-form phases closed the
    bracket."""

    upper: float
    lower: float
    delta_worst: object
    converged: bool = True


@dataclass(frozen=True)
class MultiLoopResult:
    """Simultaneous margin bracket [alpha_lower, alpha_upper].

    alpha_lower is 1 over the largest mu upper bound the search sampled,
    not certified between samples; alpha_upper comes with a certificate
    perturbation delta_worst at omega_crit, and m0 is M(j omega_crit),
    the search's own sample it was computed from.
    geometry describes the disk of radius alpha_lower (None when infinite),
    guaranteed_gm and guaranteed_pm its gains and phase.  inconclusive_gap
    is set when the bracket is wider than 10 percent.  converged is False
    when the fallback mu lower-bound ascent behind alpha_upper hit its
    cap."""

    alpha_lower: float
    alpha_upper: float
    omega_crit: float
    delta_worst: object
    m0: object
    geometry: object
    guaranteed_gm: tuple
    guaranteed_pm: float
    inconclusive_gap: bool
    converged: bool = True


@dataclass(frozen=True)
class MultiLoopVerification:
    """Outcome of verify_multiloop_destabilizing.  stable: every closed-loop
    pole lies in the open left half plane, which rounding decides at a
    certificate, whose promised pole lies on the axis: read target_distance
    there; nearest_pole and axis_distance: the pole nearest the imaginary
    axis and its distance to it (None and math.nan when the closure is ill
    posed, None and math.inf with no pole); target_distance: the distance
    from j omega to the nearest pole, when omega is given; messages: notes."""

    stable: bool
    nearest_pole: object
    axis_distance: float
    target_distance: object = None
    messages: tuple = ()


def _normalized_pair(P, K):
    """Plant and controller as state space, sign folded so the loop closes
    as u = -K y.  K = None stands for the identity."""
    P = _as_model(P)
    positive = P.feedback_sign == "positive"
    # the sign belongs to the interconnection, so it is folded into K,
    # never into the plant response itself
    Pss = _as_ss(P.representation)
    if K is None:
        if P.noutputs != P.ninputs:
            raise InputError("controller defaults to identity only for square plants")
        K = LtiModel(StateSpace(np.zeros((0, 0)), np.zeros((0, P.noutputs)),
                                np.zeros((P.noutputs, 0)), np.eye(P.noutputs)))
    else:
        K = _as_model(K)
        positive = positive or K.feedback_sign == "positive"
    Kss = _as_ss(K.representation)
    if Kss.ninputs != Pss.noutputs or Kss.noutputs != Pss.ninputs:
        raise InputError(
            "controller must map {} plant outputs to {} plant inputs".format(
                Pss.noutputs, Pss.ninputs
            )
        )
    if positive:
        Kss = StateSpace(Kss.A, Kss.B, -Kss.C, -Kss.D)
    return Pss, Kss


def siso_loop(P, K=None):
    """The SISO loop of a plant and an optional controller.

    Without a controller it is P itself, returned as given (a transfer
    function stays one).  With one, it is the loop broken at the plant
    input, signs folded as in build_m.  InputError for a non-SISO plant.
    """
    P = _as_model(P)
    if K is None:
        if not P.is_siso:
            raise InputError("this command needs a SISO loop; use the mimo command")
        return P
    if not P.is_siso:
        raise InputError("plant with controller is not SISO; use the mimo command")
    return LtiModel(_broken_loop(P, K, [0])[0])


def resolve_points(points, m, p):
    """Indices into the stacked break points [plant inputs (m); plant
    outputs (p)] for "input", "output", "io" or an explicit channel list."""
    if points == "input":
        return list(range(m))
    if points == "output":
        return list(range(m, m + p))
    if points == "io":
        return list(range(m + p))
    try:
        if isinstance(points, str):
            raise ValueError("a string names no channel list")
        sel = [int(i) for i in points]
    except (TypeError, ValueError):
        raise InputError("points must be 'input', 'output', 'io', or a channel list")
    if not sel or len(set(sel)) != len(sel):
        raise InputError("channel list must be non-empty and free of duplicates")
    if any(i < 0 or i >= m + p for i in sel):
        raise InputError(
            "channel indices must lie in [0, {}) (inputs first, then outputs)".format(m + p)
        )
    return sel


def _broken_loop(P, K, points):
    """The open loop seen from the resolved break points, every other
    break point closed, the resolved point list and the io loop."""
    Pss, Kss = _normalized_pair(P, K)
    io = _io_loop(Pss, Kss)
    sel = resolve_points(points, Pss.ninputs, Pss.noutputs)
    return _close(io, sel), sel, io


def build_m(P, K, points="input", sigma=0.0):
    """Assemble the M side of the M-Delta loop for chosen break points.

    Parameters
    ----------
    P, K : plant and controller (LtiModel or bare representations).
        K = None uses the identity, so the loop at the plant input is P
        itself.  A positive feedback_sign on either is folded into K.
    points : "input", "output", "io", or a list of channel indices into
        the stacked [inputs, outputs] break-point set.  Unlisted
        channels are closed at their nominal unity value.
    sigma : skew of the per-channel disks.

    Returns
    -------
    MDeltaSystem
        with M = (I + L_sel)^-1 + (sigma - 1)/2 I, where L_sel is the
        open loop restricted to the selected break points, its poles, the
        io interconnection and the selected points.

    Raises
    ------
    NominalInstabilityError
        If the nominal closed loop is unstable (M would be unstable).
    """
    loop, sel, io = _broken_loop(P, K, points)
    Msys = _shifted_sensitivity(LtiModel(loop), sigma)
    return MDeltaSystem(M=Msys, n=len(sel), sigma=sigma, poles=_stable_poles(Msys), loop=io, points=sel)


def _sv_and_gradient(Ms, x):
    """sigma_max(D M D^-1) with D = diag(exp(x)), and its gradient in x
    divided by sigma: |u_i|^2 - |v_i|^2 for the top singular pair."""
    U, s, Vh = np.linalg.svd(Ms * np.exp(x[:, :, None] - x[:, None, :]))
    return s[:, 0], np.abs(U[:, :, 0]) ** 2 - np.abs(Vh[:, 0, :]) ** 2


def _descend(fg, x):
    """Minimize a positive f for every row of x at once: projected gradient
    descent on log f in the box |x_i| <= 50 (wider than a phase period),
    Barzilai-Borwein step lengths, Armijo backtracking.  fg(rows, xr) gives
    f and d log f / dx at xr, the points of those rows.  A row stops once
    its gradient falls to 1e-9, f falls by no more than 1e-12 relative or
    no step decreases f; a row whose f is not finite never starts.
    Returns (x, f, settled), settled False where a row hit the cap."""
    x = np.clip(x, -50.0, 50.0)
    f, g = fg(np.arange(len(x)), x)
    step = np.ones(len(x))
    active = np.flatnonzero(np.isfinite(f) & (f > 0) & (np.max(np.abs(g), axis=1) > 1e-9))
    for _ in range(300):
        if active.size == 0:
            break
        # Armijo backtracking on the active set, halving rejected steps
        trial = np.arange(active.size)
        moved = np.zeros(active.size, dtype=bool)
        xn, fn, gn = x[active].copy(), f[active].copy(), g[active].copy()
        for _ in range(40):
            k = active[trial]
            xt = np.clip(x[k] - step[k, None] * g[k], -50.0, 50.0)
            ft, gt = fg(k, xt)
            good = ft <= f[k] * np.exp(-1e-4 * np.sum(g[k] * (x[k] - xt), axis=1))
            acc = trial[good]
            xn[acc], fn[acc], gn[acc] = xt[good], ft[good], gt[good]
            moved[acc] = True
            trial = trial[~good]
            if trial.size == 0:
                break
            step[active[trial]] *= 0.5
        # Barzilai-Borwein length for the next step of each accepted one
        sx = xn - x[active]
        sy = np.sum(sx * (gn - g[active]), axis=1)
        bb = np.where(sy > 0, np.sum(sx * sx, axis=1) / np.where(sy > 0, sy, 1.0), 2.0 * step[active])
        done = ~moved | (f[active] - fn <= 1e-12 * f[active]) | (np.max(np.abs(gn), axis=1) <= 1e-9)
        x[active], f[active], g[active] = xn, fn, gn
        step[active] = np.clip(bb, 1e-6, 1e6)
        active = active[~done]
    return x, f, ~np.isin(np.arange(len(x)), active)


def _osborne_balance(absM):
    """Log diagonal scalings that balance the off-diagonal row and column
    norms of each |M| in an (N, n, n) stack: ten Osborne sweeps.  The
    off-diagonal index sets and the |M| slices they pick are built once,
    outside the sweeps; each norm is sqrt(add.reduce(x * x)), what
    np.linalg.norm computes on a real array, bit for bit."""
    N, n, _ = absM.shape
    d = np.ones((N, n))
    offs = [np.flatnonzero(np.arange(n) != i) for i in range(n)]
    cuts = [(i, off, absM[:, i, off], absM[:, off, i]) for i, off in enumerate(offs)]
    for _ in range(10):
        for i, off, row, col in cuts:
            di, do = d[:, i:i + 1], d[:, off]
            r, c = row * di / do, col * do / di
            r, c = np.sqrt(np.add.reduce(r * r, axis=1)), np.sqrt(np.add.reduce(c * c, axis=1))
            upd = (r > 0) & (c > 0)
            d[upd, i] *= np.sqrt(c[upd] / r[upd])
    return np.log(d)


def _squares(Ms):
    """Each matrix of an (N, n, n) stack divided by its largest modulus (a
    zero matrix left as it is), the squared moduli of that quotient and
    the modulus: no square overflows or underflows where M's scale does."""
    s = np.max(np.abs(Ms), axis=(1, 2))
    A = Ms / np.where(s > 0, s, 1.0)[:, None, None]
    return A, A.real ** 2 + A.imag ** 2, s


def _mu_upper(Ms, sweep=False, x0=None):
    """inf over positive diagonal D of the largest singular value of
    D M D^-1, for every matrix of an (N, n, n) stack at once.

    For two channels the infimum has a closed form.  Scaling keeps det M,
    and sigma_max^2 = (F + sqrt(F^2 - 4 |det M|^2)) / 2 rises with the
    squared Frobenius norm F, whose scaled off-diagonal part
    |m01|^2 s + |m10|^2 / s is least at s = |m10| / |m01|; so
    log D = (t, -t) with t = log(|m10| / |m01|) / 4, clipped to the
    descent's box (0 where both entries vanish), and one SVD gives the
    bound.  For more channels it starts from Osborne balancing, or from
    the log D x0 (n,) in every row when given (the same infimum, as log
    sigma_max is convex in log D), then runs _descend over log D, with
    d log sigma / d log d_i = |u_i|^2 - |v_i|^2 (Packard & Doyle 1993);
    its box keeps D M D^-1 finite where the infimum is only approached as
    D degenerates.  Every iterate is a valid bound, so the result bounds
    mu whatever the exit.

    sweep=True serves a caller that needs only the largest bound of the
    stack and where it lies.  A row stops refining once its bound falls
    below a floor, at most the largest bound, and holds a valid but
    looser bound; rows refine independently and only fall, so the rows
    within 1e-9 of the largest bound keep their sweep=False bound and
    log D bit for bit.  With x0 (a climb stencil) the floor is
    max_k rho(M_k), as every bound is at least mu >= rho of its matrix
    (Packard & Doyle 1993).  Without x0 (the seed sweep) the rule is
    branch and bound (Balakrishnan, Boyd & Balemi 1991): every row is
    priced by a cheap upper bound at a log D, the highest-priced row is
    refined in full, the floor is 1 - 1e-9 times its bound, and only the
    rows whose price is not below the floor are refined under it; every
    other row holds its price and that log D.  Only the price and the
    refinement depend on n.  For two channels the price is the closed
    form above, on the scaled matrix divided by its largest modulus so
    that no square overflows or underflows, times 1 + 1e-6, as the
    closed form lies within about 4e-8 of the SVD (where its inner root
    cancels); the refinement is that SVD.  For more channels the price is
    ||M||_F >= sigma_max(M) >= every row and column norm of M at log D
    = 0, and a row whose Frobenius norm reaches the largest row or column
    norm of the stack (1 + 1e-12 absorbing rounding), the only rows that
    can hold the largest sigma_max, is priced by its unscaled sigma_max;
    the refinement is Osborne balancing and the descent.
    Returns the (N,) bounds and the (N, n) log D.
    """
    N, n, _ = Ms.shape
    if n == 1:
        return np.abs(Ms[:, 0, 0]), np.zeros((N, 1))
    if n == 2:
        with np.errstate(divide="ignore", invalid="ignore"):
            t = 0.25 * (np.log(np.abs(Ms[:, 1, 0])) - np.log(np.abs(Ms[:, 0, 1])))
        t = np.clip(np.nan_to_num(t, nan=0.0), -50.0, 50.0)
        x = np.stack([t, -t], axis=1)
        S = Ms * np.exp(x[:, :, None] - x[:, None, :])

        def refine(rows, floor):
            return np.linalg.svd(S[rows], compute_uv=False)[:, 0], x[rows]

        if not sweep or x0 is not None:
            return refine(np.arange(N), None)
        A, a, s = _squares(S)
        F, det = a.sum(axis=(1, 2)), np.abs(A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0])
        f = (1 + 1e-6) * s * np.sqrt(0.5 * (F + np.sqrt(np.maximum(F * F - 4.0 * det * det, 0.0))))
    else:
        def refine(rows, floor):
            # bounds and log D of the rows of the stack, each settling below floor
            def fg(k, x):
                f, g = _sv_and_gradient(Ms[rows[k]], x)
                g[f < floor] = 0.0  # _descend settles a row with a zero gradient
                return f, g

            x = _osborne_balance(np.abs(Ms[rows])) if x0 is None else np.tile(x0, (len(rows), 1))
            x, f, _ = _descend(fg, x - x.mean(axis=1, keepdims=True))
            return f, x

        # 1 - 1e-9 absorbs the rounding of both sides, so that the computed
        # largest bound, mathematically at least the floor, is never stopped
        if not sweep or x0 is not None:
            floor = (1 - 1e-9) * np.max(np.abs(np.linalg.eigvals(Ms))) if sweep else -math.inf
            return refine(np.arange(N), floor)
        _, a, s = _squares(Ms)
        f, x = s * np.sqrt(a.sum(axis=(1, 2))), np.zeros((N, n))
        svd = f * (1 + 1e-12) >= np.max(s * np.sqrt(np.maximum(a.sum(axis=1), a.sum(axis=2)).max(axis=1)))
        f[svd] = np.linalg.svd(Ms[svd], compute_uv=False)[:, 0]
    i = np.argmax(f)
    f[[i]], x[[i]] = refine(np.array([i]), -math.inf)
    floor = (1 - 1e-9) * f[i]
    # a price that is not a number is refined too
    rows = np.flatnonzero(~(f < floor) & (np.arange(N) != i))
    if rows.size:
        f[rows], x[rows] = refine(rows, floor)
    return f, x


def _inv_rho_and_gradient(M0, theta):
    """1/rho(diag(e^{j theta}) M0) for every row of theta, and its gradient
    in theta: Im(y_i x_i / y x) for the dominant eigenvalue, with x its
    right eigenvector and y the matching row of the inverse eigenvector
    basis (its pseudo-inverse where the basis is singular, as for a
    defective U M0); a gradient that is not finite is set to zero."""
    w, V = np.linalg.eig(np.exp(1j * theta)[:, :, None] * M0)
    rows = np.arange(len(theta))
    j = np.argmax(np.abs(w), axis=1)
    with np.errstate(all="ignore"):
        try:
            Y = np.linalg.inv(V)
        except np.linalg.LinAlgError:
            Y = np.linalg.pinv(V)
        yx = Y[rows, j, :] * V[rows, :, j]
        g = (yx / yx.sum(axis=1, keepdims=True)).imag
        f = 1.0 / np.abs(w[rows, j])
    g[~np.all(np.isfinite(g), axis=1)] = 0.0
    return f, g


def mu_diag(M0):
    """Bracket mu of a constant matrix under diagonal complex uncertainty.

    Parameters
    ----------
    M0 : (n, n) complex ndarray.

    Returns
    -------
    MuResult
        upper >= mu >= lower.  delta_worst is diagonal with entries of
        modulus 1/lower and satisfies det(I - M0 delta_worst) = 0 (None
        when M0 is zero).  The upper bound is the D-scaled largest
        singular value from the same batched routine the frequency sweep
        of multiloop_margin uses, run on a stack of one; it equals mu
        exactly (to rounding) for n = 2, where it is in closed form, and
        for n = 3 up to the descent's stopping tolerance, except where the
        optimal scaling leaves the largest singular value repeated and
        the descent stops short of it.  The lower bound is the spectral
        radius of U M0 for a diagonal unitary U, and it is deterministic.
        U first takes the closed-form phases angle(v_i) - angle(u_i) of
        the top singular pair at the upper bound's scaling (Packard &
        Doyle 1993); when that radius reaches upper (1 - 1e-9), it is the
        result.  Otherwise the same descent maximizes the radius over
        the phases from six starts, that one, the uniform vector and four
        fixed random ones, and converged is False when the best start
        hit the iteration cap.  multiloop_margin runs only this lower
        bound at its peak, with its highest sample's bound and scaling as
        upper.
    """
    M0 = np.atleast_2d(np.asarray(M0, dtype=complex))
    n = M0.shape[0]
    if M0.shape != (n, n):
        raise InputError("mu_diag needs a square matrix")
    if not np.all(np.isfinite(M0)):
        raise InputError("mu_diag needs finite entries")
    if np.all(M0 == 0):
        return MuResult(upper=0.0, lower=0.0, delta_worst=None, converged=True)
    (upper,), (x,) = _mu_upper(M0[None])
    return _mu_lower(M0, upper, x)


def _mu_lower(M0, upper, x):
    """mu_diag's lower bound and certificate for M0, given a D-scaled upper
    bound and its log D x; upper is returned with them."""
    # angle(v_i) - angle(u_i) of the top singular pair at the upper bound's
    # scaling, the worst case where that bound is tight
    U, _, Vh = np.linalg.svd(M0 * np.exp(x[:, None] - x[None, :]))
    theta = (-np.angle(Vh[0]) - np.angle(U[:, 0]))[None]
    f, _ = _inv_rho_and_gradient(M0, theta)
    settled = np.ones(1, dtype=bool)
    if not 1.0 / f[0] >= upper * (1 - 1e-9):
        # the bracket stays open: ascend from that start and from
        # angle(b) - angle(M0 b) for the uniform and fixed random vectors b
        n = M0.shape[0]
        z = np.random.default_rng(0).normal(size=(_RESTARTS - 1, 2, n))
        b = np.vstack([np.ones(n), z[:, 0] + 1j * z[:, 1]])
        theta = np.vstack([theta, np.angle(b) - np.angle(b @ M0.T)])
        theta, f, settled = _descend(lambda k, t: _inv_rho_and_gradient(M0, t), theta)
    best = int(np.argmin(f))
    lower = min(1.0 / f[best], upper)  # fp guard; the bounds sandwich mu
    u = np.exp(1j * theta[best])
    w = np.linalg.eigvals(u[:, None] * M0)
    lam = w[int(np.argmax(np.abs(w)))]
    delta = np.diag(u / lam) if lam != 0 else None
    return MuResult(float(upper), float(lower), delta, converged=bool(settled[best]))


def _upper_on(sys, ws, x0=None):
    """mu upper bound of M(jw) at each frequency, -inf where jw is a pole,
    the log D that gives it (0 at a pole) and the (N, n, n) stack M(jw);
    descents start from x0 when given.  Only the bounds within 1e-9 of
    the largest are those of the full descent; others may hold, looser
    but valid, a bound below _mu_upper's sweep floor (max rho with x0,
    and without it its seed sweep's one rule)."""
    vals, ok = freq_response(sys.M, ws)
    Ms = vals.reshape(-1, sys.n, sys.n)
    out, x = np.full(len(Ms), -math.inf), np.zeros((len(Ms), sys.n))
    if ok.any():
        out[ok], x[ok] = _mu_upper(Ms[ok], sweep=True, x0=x0)
    return out, x, Ms


def multiloop_margin(sys):
    """Peak-mu search giving the simultaneous disk-margin bracket.

    Parameters
    ----------
    sys : MDeltaSystem from build_m.

    Returns
    -------
    MultiLoopResult
        alpha_lower = 1/(the largest mu upper bound sampled) and
        alpha_upper = 1/(mu lower at omega_crit), with the certificate
        delta_worst; alpha_lower <= alpha_upper holds exactly.  Sweep,
        then climb, as in hinf_norm: one batched frequency response and
        upper bound on hinf_norm's peak seed (400 log-spaced points over
        the dynamics of M, and each pole's frequency), then
        specnorm._climb_peaks, each 3-point stencil descending from the
        scaling of the highest sample so far.  The seed sweep prices every
        sample and refines only those that can reach the peak (_mu_upper's
        sweep); a pruned one keeps a looser, valid bound.  The samples
        within 1e-9 of the largest bound, the ones the climb and
        _pick_lowest read, hold their full bound.  omega_crit is
        specnorm._pick_lowest of all samples; mu_diag's lower bound runs
        there with the M, bound and scaling of its first highest sample,
        so no response or descent repeats.  alpha_lower is not
        certified: a peak narrower than the spacing away from the pole
        frequencies can be missed.
    """
    # samples: the (ws, bounds, log D, M) arrays of each call, in order;
    # top: bound and log D of the first highest sample of all
    samples, top = [], [-math.inf, None]

    def bounds(ws):
        out, x, Ms = _upper_on(sys, ws, top[1])
        samples.append((ws, out, x, Ms))
        k = np.argmax(out)
        if out[k] > top[0]:
            top[:] = out[k], x[k]
        return out

    pts = _peak_seed(sys.M, 400, sys.poles)
    cand = list(zip(pts.tolist(), bounds(pts).tolist()))
    peak_ub = _climb_peaks(bounds, cand, sys.poles)
    omega_crit = _pick_lowest(cand, peak_ub)
    ws, out, xs, Ms = map(np.concatenate, zip(*samples))
    k = np.argmax(np.where(ws == omega_crit, out, -math.inf))
    ub, x, m0 = out[k], xs[k], Ms[k]

    # mu lower <= mu <= every D-scaled bound; _mu_lower clamps against the
    # sample's own bound, which keeps the bracket ordered through rounding
    mu = _mu_lower(m0, ub, x)
    alpha_lower = 1.0 / peak_ub if peak_ub > 0 else math.inf
    alpha_upper = 1.0 / mu.lower if mu.lower > 0 else math.inf
    # an infinite alpha_upper is inconclusive: inf - x > 0.1 x, and inf - inf is nan
    gap = not alpha_upper - alpha_lower <= 0.10 * alpha_lower
    geometry, gm, pm = _disk_report(alpha_lower, sys.sigma)
    return MultiLoopResult(
        alpha_lower=alpha_lower,
        alpha_upper=alpha_upper,
        omega_crit=omega_crit,
        delta_worst=mu.delta_worst,
        m0=m0,
        geometry=geometry if math.isfinite(alpha_lower) else None,
        guaranteed_gm=gm,
        guaranteed_pm=pm,
        inconclusive_gap=bool(gap),
        converged=mu.converged,
    )


def single_loop_margins(sys):
    """Loop-at-a-time (ClassicalMargins, DiskMarginResult) of each channel j
    of an MDeltaSystem, in order: classical_margins of sys.loop broken at
    sys.points[j] alone, and the disk margin of M_jj = S_j + (sigma - 1)/2,
    M's diagonal entry, with S_j the sensitivity of that same loop.  So
    no loop is rebuilt; a one-channel M is exactly the shifted
    sensitivity disk_margin builds for its loop.  Nor is a check redone:
    each loop closed at unity is the nominal closed loop build_m proved
    stable, so the rows skip classical_margins' check (_margins).  Each
    M_jj shares M's poles and so its peak seed (_log_grid reads a model
    only for transfer-function zeros, and M_jj is state space): every row
    gets that seed and the diagonal of one response of M there (on the
    modal kernel, M_jj's own up to rounding).
    """
    r = sys.M.representation
    seed = _peak_seed(sys.M, _GRID_N, sys.poles)
    vals, ok = freq_response(sys.M, seed)
    vals = vals.reshape(-1, sys.n, sys.n)
    return [(_margins(LtiModel(_close(sys.loop, [i]))),
             _disk_result(LtiModel(StateSpace(r.A, r.B[:, [j]], r.C[[j], :], r.D[[j]][:, [j]])),
                          sys.sigma, sys.poles, (seed, (vals[:, j, j], ok))))
            for j, i in enumerate(sys.points)]


def loop_at_a_time(P, K, channel, location="input", sigma=0.0):
    """Margins of one loop broken at a time, the other channels closed.

    Parameters
    ----------
    P, K : plant and controller as in build_m.
    channel : zero-based channel index at the chosen location.
    location : "input" or "output".

    Returns
    -------
    (ClassicalMargins, DiskMarginResult) of the SISO loop seen from that
    single break point: single_loop_margins of build_m at that point,
    the same as classical_margins and disk_margin of the loop.
    """
    P = _as_model(P)
    m, p = P.ninputs, P.noutputs
    if location == "input":
        size, offset = m, 0
    elif location == "output":
        size, offset = p, m
    else:
        raise InputError("location must be 'input' or 'output'")
    if not 0 <= int(channel) < size:
        raise InputError("channel must lie in [0, {})".format(size))
    return single_loop_margins(build_m(P, K, [offset + int(channel)], sigma))[0]


def _disk_family(f, omega, sigma):
    """f as worst_perturbation_lti's all-pass through f at omega, where its
    disk point is complex and the all-pass can be built; f itself otherwise."""
    try:
        pert = worst_perturbation_lti(disk_map_inv(complex(f), sigma), omega, sigma)
    except (ConstructionError, InputError):
        return f
    return f if pert.beta is None else pert


def verify_multiloop_destabilizing(P, K, points, f_list, omega=None, sigma=0.0):
    """Close every selected break point with its scalar perturbation and
    report what happened to the closed-loop poles in a MultiLoopVerification.

    Parameters
    ----------
    P, K, points : as in build_m.
    f_list : one scalar per selected channel.  Complex entries are
        realized as stable first-order sections that take the requested
        value at `omega`.
    omega : expected frequency of the induced axis pole (optional for a
        plain stable/unstable verdict with real perturbations).
    """
    loop, sel, _ = _broken_loop(P, K, points)
    if len(f_list) != len(sel):
        raise InputError("expected {} perturbations, got {}".format(len(sel), len(f_list)))
    p, why = _perturbed_poles(LtiModel(loop), [_disk_family(f, omega, sigma) for f in f_list], omega)
    if p is None:
        return MultiLoopVerification(False, None, math.nan, None, ("closure is ill posed: " + why,))
    if p.size == 0:
        return MultiLoopVerification(True, None, math.inf, None, ("closed loop has no poles",))
    k = int(np.argmin(np.abs(p.real)))
    target = None if omega is None else float(np.min(np.abs(p - 1j * float(omega))))
    return MultiLoopVerification(
        stable=bool(np.all(p.real < 0)),
        nearest_pole=complex(p[k]),
        axis_distance=float(abs(p[k].real)),
        target_distance=target,
    )
