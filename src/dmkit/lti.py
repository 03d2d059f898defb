"""Minimal LTI plumbing: polynomials, transfer functions, state space.

Everything downstream (margins, mu, the CLI) goes through this module, so
it is deliberately small and explicit.  Polynomials are stored as
coefficient arrays in descending powers of s.  SISO models keep their
transfer-function form so that sensitivity algebra stays exact at the
coefficient level; matrix models are realized to state space once, at
ingestion, and stay there.

Each primitive exists once.  freq_response evaluates every model on the
imaginary axis, and eval_freq is its one-point form.  The model alone
picks one of two state-space kernels.  A real model with at least
_MODAL_STATES states whose eigenvectors have cond(V) <= _MODAL_COND is
summed over its modes, sum_k r_k / d_k with d_k = jw - lam_k: a point is
a pole where min_k |d_k| <= n eps ||A||_F, and goes to the stacked LU
solves where eps cond(V) sum_k |r_k| (1/|d_k| + ||A||_F/|d_k|^2) exceeds
_MODAL_RTOL |value|.  The stacked LU solves of jwI - A take every point
of the other models.

A closure is well posed by one rule, the componentwise condition number
of I + D (of 1 + L(inf) for a transfer function) below 1e12 (Demmel,
SIAM J. Matrix Anal. Appl. 13(1), 1992): _close applies it to state
space, sensitivity_pair to transfer functions, and scalar_close goes
through the two.

Every state-space interconnection is _append (systems side by side) and
_close: _io_loop appends a controller and a negated plant, whose loop at
the plant inputs is siso_loop's and build_m's K P and scalar_close's F L;
a tfm appends its entries; _sensitivity closes a doubled loop once.
"""

import numpy as np

from .errors import (
    AlgebraicLoopError,
    DegreeZeroError,
    ImproperModelError,
    InputError,
    NumericalError,
    PoleOnAxisError,
    WellPosednessError,
)

# working-set budget, in bytes, of one chunk of frequencies in freq_response
_CHUNK_BYTES = 1 << 20
# state count from which freq_response sums a real model over its modes:
# below it every model keeps its stacked-LU values bit for bit
_MODAL_STATES = 16
# eigenvector condition number up to which freq_response sums a real
# model's partial fractions; companion forms, far above it, stay on the
# stacked LU solves
_MODAL_COND = 1e4
# error bound, relative to the value, above which a point of the modal
# kernel is solved by stacked LU instead
_MODAL_RTOL = 1e-10
# unit roundoff of the floats every kernel works in
_EPS = np.finfo(float).eps
# relative rank tolerance of _minreal's reachable and observable projections
_MINREAL_TOL = 1e-8

__all__ = [
    "Polynomial",
    "TransferFunction",
    "StateSpace",
    "LtiModel",
    "tf",
    "ss",
    "tfm",
    "poly_roots",
    "poles",
    "is_stable",
    "eval_freq",
    "freq_response",
    "sensitivity_pair",
    "tf_to_ss",
    "ss_to_tf",
    "scalar_close",
]


def _trim(a):
    """a without its leading zeros; [0.0] when nothing is left."""
    nz = np.flatnonzero(a)
    return a[nz[0]:] if nz.size else np.zeros(1)


def _as_coeffs(coeffs):
    a = np.atleast_1d(np.asarray(coeffs))
    if a.ndim != 1 or a.size == 0:
        raise InputError("coefficient sequence must be non-empty and one-dimensional")
    if not np.issubdtype(a.dtype, np.number):
        raise InputError("coefficients must be numeric")
    if np.iscomplexobj(a):
        a = a.astype(np.complex128)
        if np.allclose(a.imag, 0.0, atol=0.0):
            a = a.real.copy()
        return a
    return a.astype(np.float64)


class Polynomial:
    """Polynomial in s with coefficients in descending powers.

    Leading zeros are trimmed at construction, so ``coeffs[0]`` is nonzero
    for every polynomial except the zero polynomial, which is stored as
    the single coefficient ``[0.0]``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = _trim(_as_coeffs(coeffs))

    @property
    def degree(self):
        return self.coeffs.size - 1

    @property
    def is_zero(self):
        return self.coeffs.size == 1 and self.coeffs[0] == 0

    def __call__(self, s):
        return _horner(self.coeffs, s)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial(np.convolve(self.coeffs, other.coeffs))
        return Polynomial(self.coeffs * other)

    __rmul__ = __mul__

    def __add__(self, other):
        return Polynomial(np.polyadd(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return Polynomial(np.polysub(self.coeffs, other.coeffs))

    def monic(self):
        return Polynomial(self.coeffs / self.coeffs[0])

    def __repr__(self):
        return "Polynomial({})".format(np.array2string(self.coeffs, separator=", "))


def poly_roots(p):
    """Roots of a polynomial, sorted by real part then imaginary part.

    Parameters
    ----------
    p : Polynomial or array_like
        Coefficients in descending powers.

    Returns
    -------
    ndarray
        Complex roots.  Computed as companion-matrix eigenvalues.

    Raises
    ------
    DegreeZeroError
        If the polynomial has degree zero (no roots to extract).
    NumericalError
        If the eigensolver fails.
    """
    if not isinstance(p, Polynomial):
        p = Polynomial(p)
    if p.degree == 0:
        raise DegreeZeroError("degree-zero polynomial has no roots")
    try:
        r = np.roots(p.coeffs)
    except np.linalg.LinAlgError as e:
        raise NumericalError("root extraction failed: {}".format(e)) from e
    return np.sort_complex(np.atleast_1d(r))


class TransferFunction:
    """Scalar rational function num(s)/den(s).  The coefficients are the
    model's own and are not changed after construction: freq_response
    keeps their Horner table (num, den and |den|) on the model."""

    __slots__ = ("num", "den", "_table")

    def __init__(self, num, den):
        self.num = num if isinstance(num, Polynomial) else Polynomial(num)
        self.den = den if isinstance(den, Polynomial) else Polynomial(den)
        if self.den.is_zero:
            raise InputError("transfer function denominator is identically zero")
        self._table = None

    @property
    def is_proper(self):
        return self.num.degree <= self.den.degree or self.num.is_zero

    @property
    def is_strictly_proper(self):
        return self.num.degree < self.den.degree or self.num.is_zero

    def __call__(self, s):
        return self.num(s) / self.den(s)

    def __mul__(self, other):
        if isinstance(other, TransferFunction):
            return TransferFunction(self.num * other.num, self.den * other.den)
        return TransferFunction(self.num * other, self.den)

    __rmul__ = __mul__

    def __neg__(self):
        return TransferFunction(-1 * self.num, self.den)

    def poles(self):
        if self.den.degree == 0:
            return np.zeros(0, dtype=complex)
        return poly_roots(self.den)

    def zeros(self):
        if self.num.degree == 0:
            return np.zeros(0, dtype=complex)
        return poly_roots(self.num)

    def __repr__(self):
        return "TransferFunction({}, {})".format(
            np.array2string(self.num.coeffs, separator=", "),
            np.array2string(self.den.coeffs, separator=", "),
        )


def _as_matrix(x, name):
    a = np.atleast_2d(np.asarray(x))
    if not np.issubdtype(a.dtype, np.number):
        raise InputError("{} must be numeric".format(name))
    if np.iscomplexobj(a):
        return a.astype(np.complex128)
    return a.astype(np.float64)


class StateSpace:
    """State-space model (A, B, C, D).  n = 0 static gains are allowed, and
    models with states and no inputs or outputs ((n, 0) B, (0, n) C).

    The arrays are the model's own copies and are not changed after
    construction: poles and freq_response keep its eig(A) and modal data.
    """

    __slots__ = ("A", "B", "C", "D", "_eig", "_modal")

    def __init__(self, A, B, C, D):
        A = np.asarray(A, dtype=float) if np.asarray(A).size == 0 else _as_matrix(A, "A")
        if A.size == 0:
            A = A.reshape(0, 0)
        n = A.shape[0]
        # without states an empty B or C takes its shape from D; with states, its own
        B = _as_matrix(B, "B") if n or np.asarray(B).size else np.zeros((0, np.atleast_2d(D).shape[1]))
        C = _as_matrix(C, "C") if n or np.asarray(C).size else np.zeros((np.atleast_2d(D).shape[0], 0))
        D = _as_matrix(D, "D")
        if A.shape != (n, n):
            raise InputError("A must be square, got {}".format(A.shape))
        if B.shape[0] != n:
            raise InputError("B has {} rows, expected {}".format(B.shape[0], n))
        if C.shape[1] != n:
            raise InputError("C has {} columns, expected {}".format(C.shape[1], n))
        if D.shape != (C.shape[0], B.shape[1]):
            raise InputError(
                "D must be {}x{}, got {}".format(C.shape[0], B.shape[1], D.shape)
            )
        self.A, self.B, self.C, self.D = A, B, C, D
        self._eig = self._modal = None

    @property
    def nstates(self):
        return self.A.shape[0]

    @property
    def noutputs(self):
        return self.C.shape[0]

    @property
    def ninputs(self):
        return self.B.shape[1]

    def __repr__(self):
        return "StateSpace(n={}, outputs={}, inputs={})".format(
            self.nstates, self.noutputs, self.ninputs
        )


class LtiModel:
    """A loop or plant, plus the sign convention of the feedback around it.

    representation is a TransferFunction for SISO models or a StateSpace
    otherwise.  Matrix-of-transfer-function input is realized entrywise
    and block-assembled at construction; it is not kept.

    feedback_sign records how the surrounding loop is meant to be closed:
    "negative" (the convention everything downstream analyzes) or
    "positive".  normalized() folds a positive sign into the response so
    that all margin computations can assume negative feedback.
    """

    __slots__ = ("representation", "feedback_sign")

    def __init__(self, representation, feedback_sign="negative"):
        if feedback_sign not in ("negative", "positive"):
            raise InputError(
                "feedback_sign must be 'negative' or 'positive', got {!r}".format(feedback_sign)
            )
        if isinstance(representation, (list, tuple)):
            representation = _tfm_to_ss(representation)
        if not isinstance(representation, (TransferFunction, StateSpace)):
            raise InputError("representation must be a TransferFunction, StateSpace, or matrix of TransferFunctions")
        self.representation = representation
        self.feedback_sign = feedback_sign

    @property
    def noutputs(self):
        r = self.representation
        return 1 if isinstance(r, TransferFunction) else r.noutputs

    @property
    def ninputs(self):
        r = self.representation
        return 1 if isinstance(r, TransferFunction) else r.ninputs

    @property
    def is_siso(self):
        return self.noutputs == 1 and self.ninputs == 1

    def normalized(self):
        """Equivalent model under negative feedback."""
        if self.feedback_sign == "negative":
            return self
        r = self.representation
        if isinstance(r, TransferFunction):
            return LtiModel(-r, "negative")
        return LtiModel(StateSpace(r.A, r.B, -r.C, -r.D), "negative")

    def __repr__(self):
        return "LtiModel({!r}, feedback_sign={!r})".format(self.representation, self.feedback_sign)


def tf(num, den, feedback_sign="negative"):
    """Build a SISO LtiModel from numerator and denominator coefficients."""
    return LtiModel(TransferFunction(num, den), feedback_sign)


def ss(A, B, C, D, feedback_sign="negative"):
    """Build an LtiModel from state-space matrices."""
    return LtiModel(StateSpace(A, B, C, D), feedback_sign)


def tfm(entries, feedback_sign="negative"):
    """Build a matrix-of-transfer-functions LtiModel.

    Parameters
    ----------
    entries : sequence of sequences
        entries[i][j] is the TransferFunction (or (num, den) pair) from
        input j to output i.  Rows must have equal length.
    """
    return LtiModel(list(entries), feedback_sign)


def _as_model(m):
    # accept bare representations in library calls; tests and internal
    # code pass TransferFunction or StateSpace directly
    if isinstance(m, LtiModel):
        return m
    return LtiModel(m)


def _coerce_tf(entry):
    if isinstance(entry, TransferFunction):
        return entry
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        return TransferFunction(entry[0], entry[1])
    raise InputError("matrix entries must be TransferFunction or (num, den) pairs")


def _tfm_to_ss(rows):
    rows = [[_coerce_tf(e) for e in row] for row in rows]
    if not rows or not rows[0]:
        raise InputError("matrix of transfer functions must be non-empty")
    nin = len(rows[0])
    if any(len(row) != nin for row in rows):
        raise InputError("matrix rows must all have the same length")
    nout = len(rows)
    # realize each entry and place the entries side by side, row by row;
    # entry (i, j) then reaches the model through input j and output i only
    s = _append([tf_to_ss(e) for row in rows for e in row])
    B = s.B.reshape(-1, nout, nin).sum(axis=1)
    C = s.C.reshape(nout, nin, -1).sum(axis=1)
    D = s.D.reshape(nout, nin, nout, nin).sum(axis=(1, 2))
    # entrywise stacking duplicates shared dynamics; strip the exact
    # copies so closed-loop eigenvalues reflect the model, not the packing
    return _minreal(StateSpace(s.A, B, C, D))


def _invariant_basis(A, B, tol):
    """Orthonormal basis of the smallest A-invariant subspace containing range(B)."""
    n = A.shape[0]
    Q = np.zeros((n, 0))
    new = np.array(B, dtype=float, copy=True)
    for _ in range(n):
        if Q.shape[1]:
            new = new - Q @ (Q.T @ new)
            new = new - Q @ (Q.T @ new)
        u, sv, _ = np.linalg.svd(new, full_matrices=False)
        k = int(np.sum(sv > tol))
        if k == 0:
            break
        Q = np.hstack([Q, u[:, :k]])
        if Q.shape[1] >= n:
            break
        new = A @ u[:, :k]
    return Q


def _minreal(s):
    """Drop unreachable and unobservable states.

    Meant for exact structural cancellations (duplicated blocks from
    entrywise realization), not for squeezing near-cancellations out of
    physical models.  One projection onto the reachable part, then one
    onto the observable part of that, gives a minimal realization: the
    observable part of a reachable model is still reachable (Kalman
    decomposition).  s itself comes back when no state is dropped.
    """
    if s.nstates == 0:
        return s
    if np.iscomplexobj(s.A) or np.iscomplexobj(s.B) or np.iscomplexobj(s.C):
        return s
    tol = _MINREAL_TOL * max(
        1.0,
        float(np.linalg.norm(s.A, 2)),
        float(np.linalg.norm(s.B, 2)),
        float(np.linalg.norm(s.C, 2)),
    )
    Q = _invariant_basis(s.A, s.B, tol)
    A1, B1, C1 = Q.T @ s.A @ Q, Q.T @ s.B, s.C @ Q
    Qo = _invariant_basis(A1.T, C1.T, tol)
    if Qo.shape[1] == s.nstates:
        return s
    return StateSpace(Qo.T @ A1 @ Qo, Qo.T @ B1, C1 @ Qo, s.D)


def poles(m):
    """Poles of a model, by np.sort_complex: denominator roots for SISO
    transfer functions, eigenvalues of A for state space, those of a
    _large_real model from the eig(A) its modal kernel shares (_eig).
    Degree-zero denominators give an empty pole set."""
    m = _as_model(m)
    r = m.representation
    if isinstance(r, TransferFunction):
        return r.poles()
    if r.nstates == 0:
        return np.zeros(0, dtype=complex)
    try:
        p = _eig(r)[0] if _large_real(r) else np.linalg.eigvals(r.A)
    except np.linalg.LinAlgError as e:
        raise NumericalError("eigenvalue computation failed: {}".format(e)) from e
    return np.sort_complex(p)


def is_stable(m):
    """True when every pole satisfies Re p < 0."""
    return bool(np.all(poles(m).real < 0.0))


def _response_tf(r, ws):
    vals = np.empty(ws.shape, dtype=complex)
    ok = np.ones(ws.shape, dtype=bool)
    inf = np.isinf(ws)
    if r.is_strictly_proper:
        vals[inf] = 0.0
    elif r.is_proper:
        vals[inf] = r.num.coeffs[0] / r.den.coeffs[0]
    else:
        vals[inf] = np.nan
        ok[inf] = False
    fin = ~inf
    w = ws[fin]
    # num(jw), den(jw) and |den|(|w|), each bit for bit its _horner, in one
    # recurrence over r's kept table (leading zeros keep y at its start)
    if r._table is None:
        n, d = r.num.coeffs, r.den.coeffs
        table = np.zeros((max(n.size, d.size), 3, 1), dtype=complex)
        table[-n.size:, 0, 0], table[-d.size:, 1, 0], table[-d.size:, 2, 0] = n, d, np.abs(d)
        r._table = list(table)
    x = np.empty((3, w.size), dtype=complex)
    x[:2], x[2] = 1j * w, np.abs(w)
    y = np.zeros_like(x)
    for c in r._table:
        y = y * x + c
    # an overflowed |den| turns nan (inf times its zero imaginary part): fmin reads inf
    hit = np.isnan(w) | (np.abs(y[1]) <= 1e-12 * (np.fmin(y[2].real, np.inf) + 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(hit, np.nan, y[0] / y[1])
    if not np.isfinite(out).all():
        # where the recurrence overflowed, run it in z = 1/s over the table
        # reversed: num, den and |den| are s^(L-1) times its values, so the
        # ratio is theirs and the pole test scales its 1 by |z|^(L-1); a
        # point where it overflows again is flagged
        big = np.flatnonzero(~np.isfinite(y).all(axis=0) & ~np.isnan(w))
        z = 1.0 / x[:, big]
        y = np.zeros_like(z)
        with np.errstate(all="ignore"):
            for c in r._table[::-1]:
                y = y * z + c
            hit[big] = ~np.isfinite(y).all(axis=0) | (
                np.abs(y[1]) <= 1e-12 * (y[2].real + z[2].real ** (len(r._table) - 1)))
            out[big] = np.where(hit[big], np.nan, y[0] / y[1])
    vals[fin], ok[fin] = out, ~hit
    return vals, ok


def _horner(coeffs, x):
    """np.polyval(coeffs, x) bit for bit, its recurrence y = y x + c from
    y = 0, over the coefficients as Python numbers: a short grid pays for
    the arithmetic, not for numpy scalars."""
    x = np.asanyarray(x)
    y = np.zeros_like(x)
    for c in coeffs.tolist():
        y = y * x + c
    return y


def _large_real(r):
    # the model alone picks the kernel, so no value depends on the grid
    return r.nstates >= _MODAL_STATES and not any(map(np.iscomplexobj, (r.A, r.B, r.C)))


def _eig(r):
    """lam, V = np.linalg.eig(r.A), kept on r once computed; a LinAlgError
    (a non-finite A included) is raised again by the next call."""
    if r._eig is None:
        r._eig = np.linalg.eig(r.A)
    return r._eig


def _modal_form(r):
    """The modal data of the real state-space model r, computed once and
    kept on r: from lam, V = _eig(r), the eigenvalues lam, the residues
    res[i, j, k] = (C V)_ik (V^-1 B)_kj with the mode axis last, their
    largest modulus per mode, cond(V) and ||A||_F.  None when r is not
    _large_real, when cond(V) exceeds _MODAL_COND or when A is not
    finite: the stacked LU solves then evaluate every point."""
    if r._modal is None:
        r._modal = False
        if not _large_real(r):
            return None
        try:
            lam, V = _eig(r)
        except np.linalg.LinAlgError:
            return None
        cond = np.linalg.cond(V)
        if cond <= _MODAL_COND:
            res = (r.C @ V)[:, None, :] * np.linalg.solve(V, r.B).T
            r._modal = lam, res, np.abs(res).max(axis=(0, 1)), cond, np.linalg.norm(r.A)
    return r._modal or None


def _sum_modes(modal, w, D):
    """sum_k res_k / d_k + D, d_k = jw - lam_k, at every w of a chunk as an
    (N, p, m) array, nan at the poles; and the mask of the points whose
    error bound exceeds _MODAL_RTOL times the largest entry of the value,
    which go to the stacked LU solves.

    The sum runs elementwise along the contiguous mode axis, so a value
    does not depend on the other points of the chunk.  A point is a pole
    where min_k |d_k| <= n eps ||A||_F.  Its error bound,
    eps cond(V) sum_k |res_k| (1/|d_k| + ||A||_F/|d_k|^2), takes the
    rounding of the residues and, in the second term, of the eigenvalues
    themselves, which dominates within rounding distance of a pole.
    """
    lam, res, size, cond, norm = modal
    d = np.empty((w.size, lam.size), dtype=complex)
    d.real, d.imag = -lam.real, w[:, None] - lam.imag
    vals = (res / d[:, None, None, :]).sum(axis=-1) + D
    dist = np.abs(d)
    pole = dist.min(axis=1) <= lam.size * _EPS * norm
    vals[pole] = np.nan
    err = _EPS * cond * (size / dist * (1.0 + norm / dist)).sum(axis=1)
    return vals, ~pole & (err > _MODAL_RTOL * np.abs(vals).max(axis=(1, 2)))


def _response_ss(r, ws):
    p, m, n = r.noutputs, r.ninputs, r.nstates
    vals = np.empty((ws.size, p, m), dtype=complex)
    vals[...] = r.D
    # only w = +-inf reads the feedthrough; a nan pencil gives a nan value
    fin = (~np.isinf(ws)).nonzero()[0]
    if n == 0 or fin.size == 0:
        return vals, np.ones(ws.size, dtype=bool)
    modal = _modal_form(r)
    if modal is not None:
        # points per sum: the pencil diagonals, the terms and the bound's
        # temporaries, within the working-set budget
        step = max(1, _CHUNK_BYTES // (8 * n * (2 * p * m + 8)))
        guarded = np.empty(fin.size, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for k in range(0, fin.size, step):
                idx = fin[k : k + step]
                vals[idx], guarded[k : k + step] = _sum_modes(modal, ws[idx], r.D)
        fin = fin[guarded]
    # stacked LU solves the rest: every finite point of a model off the
    # modal kernel, the guarded points of one on it.  Points per solve:
    # the pencils, LAPACK's copy of them and the solutions, all complex,
    # within the working-set budget
    step = max(1, _CHUNK_BYTES // (16 * n * (2 * n + m)))
    for k in range(0, fin.size, step):
        idx = fin[k : k + step]
        M = (1j * ws[idx])[:, None, None] * np.eye(n) - r.A
        try:
            X = np.linalg.solve(M, r.B)
        except np.linalg.LinAlgError:
            # some pencil in the chunk is exactly singular; find which
            X = np.full((idx.size, n, m), np.nan + 0j)
            for i in range(idx.size):
                try:
                    X[i] = np.linalg.solve(M[i], r.B)
                except np.linalg.LinAlgError:
                    pass
        vals[idx] = r.C @ X + r.D
    ok = np.isfinite(vals).all(axis=(1, 2))
    if not ok.all():
        vals[~ok] = np.nan
    return vals, ok


def freq_response(m, ws):
    """Frequency response over a whole grid at once: the one evaluator
    every model goes through (eval_freq is its one-point form).

    Parameters
    ----------
    m : LtiModel or representation
    ws : sequence of real frequencies in rad/s (0, negative values and
        math.inf included).  At math.inf the value is the feedthrough
        (state space) or the asymptotic value (transfer function).

    Returns
    -------
    (values, ok)
        values is a complex (N,) array for SISO models and (N, p, m)
        otherwise.  ok is a boolean (N,) array, False where jw is a pole
        of the model and at w = inf for an improper transfer function;
        values hold nan there.  A transfer-function point is a pole when
        |den(jw)| <= 1e-12 (|den|(|w|) + 1), with |den| the polynomial of
        absolute coefficients.  A state-space point is a pole when, on
        the modal kernel, min_k |jw - lam_k| <= n eps ||A||_F, and on the
        stacked LU solves when the pencil jwI - A is exactly singular (a
        zero pivot); on both when the value is not finite, and at a nan
        w.  A point's value and flag do not depend on the grid.

    A transfer function is num(jw)/den(jw), with num, den and |den| in
    one Horner recurrence over a table the model keeps.  A point where
    that overflows runs it in z = 1/(jw) over the table reversed, with
    the 1 of the pole test scaled by |z|^(L-1) for a table of L rows, and
    is flagged when that overflows too.  State-space
    models take one of two kernels, chosen from the model alone (its
    state count, complex coefficients and eigenvectors), never the grid:
    - real models with at least _MODAL_STATES states whose eigenvectors
      V, from lam, V = eig(A), have cond(V) <= _MODAL_COND: the modal
      kernel.  With the residues r_k = (C V)_k (V^-1 B)_k, each point is
      the partial-fraction sum sum_k r_k / d_k + D, d_k = jw - lam_k, in
      O(n) per frequency.  Its error is bounded to first order by
      eps cond(V) sum_k |r_k| (1/|d_k| + ||A||_F/|d_k|^2), the second
      term being the rounding of the eigenvalues; a point where that
      exceeds _MODAL_RTOL times the largest entry of the value goes to
      the stacked LU solves below.
    - every other model, and those points: stacked LU solves of
      jwI - A, O(n^3) per frequency, each point's value the one numpy
      solves for its pencil alone.  This covers smaller or complex
      models and large real ones with ill-conditioned eigenvectors, such
      as the companion forms tf_to_ss builds.
    That table and eig(A) are kept on the model, whose coefficients are
    not changed after construction, so later calls and poles do not
    compute them again.  Each kernel works in chunks of at most
    _CHUNK_BYTES of working set, so memory stays flat in the grid length.
    """
    m = _as_model(m)
    ws = np.asarray(ws, dtype=float).reshape(-1)
    r = m.representation
    if isinstance(r, TransferFunction):
        return _response_tf(r, ws)
    vals, ok = _response_ss(r, ws)
    if vals.shape[1:] == (1, 1):
        return vals[:, 0, 0], ok
    return vals, ok


def eval_freq(m, w):
    """Frequency response at one point, s = jw: freq_response at [w].

    Parameters
    ----------
    m : LtiModel or representation
    w : real frequency in rad/s.  math.inf is accepted and returns the
        feedthrough (state space) or asymptotic value (transfer
        function).  Negative w is allowed; responses of real-coefficient
        models satisfy eval_freq(m, -w) == conj(eval_freq(m, w)).

    Returns
    -------
    complex scalar for SISO models, complex ndarray otherwise.

    Raises
    ------
    ImproperModelError
        At w = inf for an improper transfer function.
    PoleOnAxisError
        If jw is (numerically) a pole of the model: where freq_response
        flags the point.
    """
    m = _as_model(m)
    w = float(w)
    r = m.representation
    if np.isinf(w) and isinstance(r, TransferFunction) and not r.is_proper:
        raise ImproperModelError("improper transfer function has no value at infinite frequency")
    vals, ok = freq_response(m, [w])
    if not ok[0]:
        raise PoleOnAxisError("evaluation at w = {} hits a pole".format(w))
    return vals[0] if vals.ndim == 3 else complex(vals[0])


def tf_to_ss(t):
    """Controllable-canonical realization of a proper SISO transfer function.

    Raises ImproperModelError when deg num > deg den.
    """
    if isinstance(t, LtiModel):
        t = t.representation
    if not isinstance(t, TransferFunction):
        raise InputError("tf_to_ss expects a TransferFunction")
    if not t.is_proper:
        raise ImproperModelError("cannot realize an improper transfer function")
    den = t.den.monic()
    num = Polynomial(t.num.coeffs / t.den.coeffs[0])
    n = den.degree
    dtype = np.result_type(num.coeffs.dtype, den.coeffs.dtype)
    if n == 0:
        return StateSpace(
            np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)),
            np.array([[num.coeffs[0]]], dtype=dtype),
        )
    if num.degree == n:
        d = num.coeffs[0]
        rem = np.polysub(num.coeffs, d * den.coeffs)
    else:
        d = 0.0
        rem = num.coeffs
    rem = _trim(rem)
    b = np.zeros(n, dtype=dtype)
    b[n - rem.size :] = rem
    A = np.zeros((n, n), dtype=dtype)
    A[0, :] = -den.coeffs[1:]
    if n > 1:
        A[1:, :-1] = np.eye(n - 1)
    B = np.zeros((n, 1), dtype=dtype)
    B[0, 0] = 1.0
    C = b.reshape(1, n)
    return StateSpace(A, B, C, np.array([[d]], dtype=dtype))


def ss_to_tf(s):
    """Transfer function of a SISO state-space model.

    Uses det(sI - A + B C) = det(sI - A) (1 + C (sI - A)^-1 B), so the
    numerator comes out of two characteristic polynomials.  Leading
    numerator coefficients below the rounding level of those polynomials
    are set to zero: left in, they are spurious zeros far out on the
    frequency axis (a relative degree of 2 read as 1 in a rotated basis).
    """
    if isinstance(s, LtiModel):
        s = s.representation
    if not isinstance(s, StateSpace):
        raise InputError("ss_to_tf expects a StateSpace")
    if s.noutputs != 1 or s.ninputs != 1:
        raise InputError("ss_to_tf is defined for SISO models only")
    if s.nstates == 0:
        return TransferFunction([s.D[0, 0]], [1.0])
    # B C is rank one, so det(sI - A + g B C) - det(sI - A) = g C adj(sI - A) B;
    # g lifts B C to the size of A, so the numerator is not lost in rounding
    bc = s.B @ s.C
    g = max(1.0, np.linalg.norm(s.A) / np.linalg.norm(bc)) if bc.any() else 1.0
    eigs = np.linalg.eigvals(s.A), np.linalg.eigvals(s.A - g * bc)
    den, pert = (np.poly(e) for e in eigs)
    num_sp = np.polysub(pert, den) / g
    # coefficient k rounds at the level of the sum of products of k eigenvalue
    # magnitudes (a matrix norm would swamp real numerators of companion forms)
    scale = np.maximum(*(np.abs(np.poly(-np.abs(e))) for e in eigs))
    above = np.abs(num_sp) > 64 * s.nstates * np.finfo(float).eps * scale / g
    num_sp[: int(above.argmax()) if above.any() else s.nstates + 1] = 0.0
    num = np.polyadd(num_sp, s.D[0, 0] * den)
    return TransferFunction(num, den)


def _blkdiag(mats, dtype):
    n = sum(m.shape[0] for m in mats)
    p = sum(m.shape[1] for m in mats)
    out = np.zeros((n, p), dtype=dtype)
    i = j = 0
    for m in mats:
        out[i : i + m.shape[0], j : j + m.shape[1]] = m
        i += m.shape[0]
        j += m.shape[1]
    return out


def _append(systems):
    """The state-space systems side by side, in order: A, B, C and D each
    block-diagonal, in the dtype of all four matrices of every system."""
    dtype = np.result_type(*(x for s in systems for x in (s.A, s.B, s.C, s.D)))
    return StateSpace(*(_blkdiag([getattr(s, x) for s in systems], dtype) for x in "ABCD"))


def _io_loop(P, K):
    """Open loop seen from stacked break points [P's inputs; P's outputs]:
    L = [[0, K], [-P, 0]] for a plant P and a controller K closing as
    u = -K y.  _close of it at P's inputs is the loop K P."""
    s = _append([K, StateSpace(P.A, P.B, -P.C, -P.D)])
    order = np.r_[K.ninputs : s.ninputs, : K.ninputs]
    return StateSpace(s.A, s.B[:, order], s.C, s.D[:, order])


def _close(sys, keep):
    """Negative unity feedback around the channels of a square state-space
    loop not in keep: the loop seen from the kept break points, in order.
    With keep empty it is the autonomous closed loop.

    WellPosednessError when I + D over the closed channels is singular or
    its componentwise (Bauer-Skeel) condition number,
    kappa = rho(|(I + D)^-1| (I + |D|)), is at least 1e12 (Demmel, SIAM J.
    Matrix Anal. Appl. 13(1), 1992).  kappa is unchanged by a diagonal
    similarity T D T^-1, so a channel's units do not decide the answer;
    at one channel the test reads |1 + d| <= 1e-12 (1 + |d|).
    """
    keep = list(keep)
    other = [i for i in range(sys.noutputs) if i not in keep]
    if not other:
        return StateSpace(sys.A, sys.B[:, keep], sys.C[keep, :], sys.D[np.ix_(keep, keep)])
    Doo, eye = sys.D[np.ix_(other, other)], np.eye(len(other))
    try:
        Mi = np.linalg.inv(eye + Doo)
        # a non-finite D passes on to fail in the pole computations, as
        # before; eigvals raises on a kappa that overflows
        ill = np.isfinite(Doo).all() and np.max(
            np.abs(np.linalg.eigvals(np.abs(Mi) @ (eye + np.abs(Doo))))) >= 1e12
    except np.linalg.LinAlgError:
        ill = True
    if ill:
        raise WellPosednessError("I + D is singular, closed loop is not well posed")
    Bo, Co = sys.B[:, other], sys.C[other, :]
    Dso, Dos = sys.D[np.ix_(keep, other)], sys.D[np.ix_(other, keep)]
    return StateSpace(
        sys.A - Bo @ Mi @ Co,
        sys.B[:, keep] - Bo @ Mi @ Dos,
        sys.C[keep, :] - Dso @ Mi @ Co,
        sys.D[np.ix_(keep, keep)] - Dso @ Mi @ Dos,
    )


def sensitivity_pair(L):
    """Sensitivity and complementary sensitivity of a negative feedback loop.

    Parameters
    ----------
    L : LtiModel
        Loop transfer function.  A positive feedback_sign is folded in
        first, so the pair always refers to I + L_normalized.

    Returns
    -------
    (S, T) : pair of LtiModel
        S = (I + L)^-1 and T = L (I + L)^-1.  S + T = I holds exactly at
        the coefficient level (same denominators, complementary
        numerators; shared A, B and complementary C, D in state space).

    Raises
    ------
    AlgebraicLoopError
        If 1 + L vanishes identically (transfer functions).
    WellPosednessError
        If 1 + L(inf) is singular to rounding.  In state space that is
        _close's test on I + D.  For a transfer function it is the same
        test on the 1x1 D: the top-degree coefficient of den + num is at
        most 1e-12 times the sum of the leading coefficients of den and
        num at that degree.
    """
    L = _as_model(L).normalized()
    r = L.representation
    if isinstance(r, TransferFunction):
        cl = np.polyadd(r.den.coeffs, r.num.coeffs)
        if not cl.any():
            raise AlgebraicLoopError("1 + L is identically zero")
        top = max(r.den.degree, r.num.degree)
        scale = sum(abs(p.coeffs[0]) for p in (r.den, r.num) if p.degree == top)
        if abs(cl[0]) <= 1e-12 * scale:
            raise WellPosednessError("1 + L(inf) = 0, sensitivity is improper")
        cl = Polynomial(cl)
        return LtiModel(TransferFunction(r.den, cl)), LtiModel(TransferFunction(r.num, cl))
    S = _sensitivity(r, 0.0)
    return LtiModel(S), LtiModel(StateSpace(S.A, S.B, -S.C, np.eye(S.noutputs) - S.D))


def _sensitivity(r, k):
    """S + kI of the square state-space loop r, S = (I + r)^-1, from one
    _close: S maps v, injected at the break points, to the error
    e = v - r e, so a second, kept set of break points injects v and reads
    kv + e while r's own channels close around e."""
    if r.noutputs != r.ninputs:
        raise InputError("sensitivity needs a square loop")
    eye = np.eye(r.noutputs)
    G = StateSpace(r.A, np.hstack([np.zeros_like(r.B), r.B]), np.vstack([np.zeros_like(r.C), r.C]),
                   np.block([[k * eye, eye], [-eye, r.D]]))
    return _close(G, range(r.noutputs))


def _as_factor(f):
    # a factor keeps a state-space form; anything else is a transfer function
    if isinstance(f, (LtiModel, StateSpace)):
        f = _as_model(f)
        if not f.is_siso:
            raise InputError("perturbation factors must be scalar")
        return f.normalized().representation
    return f if isinstance(f, TransferFunction) else TransferFunction([f], [1.0])


def _as_ss(r):
    """The representation r as a StateSpace: tf_to_ss of a transfer function."""
    return tf_to_ss(r) if isinstance(r, TransferFunction) else r


def scalar_close(L, f):
    """Close the loop f * L under negative unity feedback.

    Parameters
    ----------
    L : LtiModel (any feedback_sign; normalized first)
    f : scalar, TransferFunction, SISO StateSpace or LtiModel, or a
        sequence of those
        A single factor applies to every channel.  A sequence gives one
        factor per channel of a square MIMO loop.  Complex scalars are
        allowed; the closed loop then has complex coefficients.  A
        scalar is the transfer function f/1; a state-space factor, or a
        sequence, closes the loop in state space.

    Returns
    -------
    LtiModel
        The closed-loop map f L (I + f L)^-1, suitable for pole checks.

    Raises
    ------
    AlgebraicLoopError, WellPosednessError
        As sensitivity_pair raises them for the loop f L.
    InputError
        If a factor is not scalar, or their count not the loop dimension.
    """
    L = _as_model(L).normalized()
    r = L.representation
    many = isinstance(f, (list, tuple, np.ndarray))
    factors = [_as_factor(x) for x in (f if many else [f])]
    if isinstance(r, TransferFunction) and not many and isinstance(factors[0], TransferFunction):
        return sensitivity_pair(LtiModel(factors[0] * r))[1]
    # state-space path
    r = _as_ss(r)
    p = r.noutputs
    if r.ninputs != p:
        raise InputError("scalar_close needs a square loop")
    if many and len(factors) != p:
        raise InputError("expected {} factors, got {}".format(p, len(factors)))
    F = _append([_as_ss(x) for x in factors] * (1 if many else p))
    # F(s) L(s): the loop siso_loop and build_m see at a plant's inputs
    return sensitivity_pair(LtiModel(_close(_io_loop(r, F), range(p))))[1]
