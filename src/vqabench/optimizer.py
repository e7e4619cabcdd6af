"""Derivative-free minimization with strict objective-call accounting.

The method is an unconstrained COBYLA-style linear trust region:
keep a simplex of k+1 points, interpolate a linear model of the objective on
it, and move a distance on the order of rho. Each step pivots the best
vertex (the pole) into row 0 and then makes one of three moves:

- shrink: the model predicts no finite, non-negligible descent, so rho
  halves and nothing is evaluated;
- repair: the span is rank-deficient, or a vertex lies too far from the
  pole or too close to the plane of the others, so that vertex is rebuilt
  half a radius from the pole, on the side where the model descends;
- model step: the full-radius step against the model gradient, accepted or
  rejected by actual-versus-predicted reduction (a rejection shrinks rho).

rho shrinks from ``rho_beg`` toward ``rho_end``; a run stops when rho falls
below ``rho_end`` or when the objective-call budget ``n_max`` is spent,
whichever comes first.

Every objective invocation is counted, including the calls that build the
initial simplex, so ``n_calls == len(history)`` always and never exceeds
``n_max``. Non-finite objective values are recorded as +inf and can never win
a comparison, which keeps the budget guarantee even for NaN-returning
objectives. The optimizer itself is deterministic: with a deterministic
objective, identical (initial, settings) reproduce the full history.

The loop is an ask/tell generator that yields each point to evaluate and
takes its value back, so a caller can advance many runs in lockstep;
``minimize`` with an objective drives it one call at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Simplex geometry bounds (offset lengths within BETA*rho, per-vertex extent
# at least ALPHA*rho) and the fraction of rho used by geometry-repair steps.
_ALPHA = 0.25
_BETA = 2.1
_GEOM_FRACTION = 0.5
_ACCEPT_RATIO = 0.1
_SHRINK = 0.5
# A repair's slope sign from the span's inverse is certain above this, in
# units of |span|_F * |inv|_F * |g| * |step| (see _orient_downhill).
_SIGN_GUARD = 1e4 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class OptimizerSettings:
    """Budget and trust-region radii for one optimization run.

    ``n_max`` is a hard cap on objective evaluations and doubles as the
    normalization constant of the quality diagram, so it is recorded with
    every run. ``rho_beg``/``rho_end`` are in radians for ansatz angles.
    """

    n_max: int = 1000
    rho_beg: float = 1.0
    rho_end: float = 1e-4

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError(f"n_max must be positive, got {self.n_max}")
        if not 0.0 < self.rho_end < self.rho_beg < math.inf:
            raise ValueError(
                "need 0 < rho_end < rho_beg < inf, "
                f"got rho_end={self.rho_end}, rho_beg={self.rho_beg}"
            )


@dataclass
class OptimizationResult:
    final_params: np.ndarray
    n_calls: int
    best_value: float
    history: list[float] = field(repr=False)


def minimize(objective, initial: np.ndarray, settings: OptimizerSettings):
    """Minimize a (possibly stochastic) objective over unconstrained reals.

    Returns the best evaluation seen, its value, the number of objective
    calls consumed, and the value of every call in order (``history[i]`` is
    call i + 1; non-finite values are stored as +inf).

    With ``objective`` None the search is returned as an ask/tell generator
    instead: it yields each point it wants evaluated (a copy the caller may
    keep), takes the point's value back through ``send`` and returns the
    OptimizationResult as its ``StopIteration.value``. A caller can so
    advance many searches together; driving one with ``objective`` is the
    same sequence of points and floating-point steps. The start point and
    the budget are checked (check_start) before the generator is made.
    """
    x0 = np.array(initial, dtype=np.float64)
    check_start(x0, settings)
    steps = _search(x0, settings)
    if objective is None:
        return steps
    x = next(steps)
    while True:
        try:
            x = steps.send(objective(x))
        except StopIteration as stop:
            return stop.value


def check_start(x0: np.ndarray, settings: OptimizerSettings) -> None:
    """Refuse, with ValueError, a start point that is not a finite non-empty
    vector and a budget below the k + 2 calls of its first linear model."""
    if x0.ndim != 1 or x0.size < 1:
        raise ValueError(f"initial point must be a non-empty vector, got shape {x0.shape}")
    if not np.isfinite(x0).all():
        raise ValueError("initial point must be finite")
    k = x0.size
    if settings.n_max < k + 2:
        raise ValueError(
            f"n_max={settings.n_max} too small: building the linear model over "
            f"{k} parameters takes at least {k + 2} evaluations"
        )


def _search(x0: np.ndarray, settings: OptimizerSettings):
    """The trust-region loop of ``minimize`` as an ask/tell generator."""
    k = x0.size
    history: list[float] = []
    best_x = x0.copy()
    best_f = math.inf

    def call(x: np.ndarray):
        nonlocal best_x, best_f
        value = float((yield x.copy()))
        if not math.isfinite(value):
            value = math.inf
        history.append(value)
        if value < best_f:
            best_f = value
            best_x = x.copy()
        return value

    # Initial simplex: the start point plus a rho_beg step along each coordinate.
    verts = np.tile(x0, (k + 1, 1))
    for i in range(k):
        verts[i + 1, i] += settings.rho_beg
    fvals = np.empty(k + 1)
    for i, v in enumerate(verts):
        fvals[i] = yield from call(v)

    rho = settings.rho_beg
    while len(history) < settings.n_max and rho >= settings.rho_end:
        # Pivot the best vertex (the pole) into row 0.
        b = int(fvals.argmin())
        if b != 0:
            row = verts[0].copy()
            verts[0] = verts[b]
            verts[b] = row
            fvals[0], fvals[b] = fvals[b], fvals[0]
        pole, fpole = verts[0], fvals[0]
        span = verts[1:] - pole  # row j: offset of vertex j+1

        # Choose the move. inf vertices give nan differences and models.
        with np.errstate(invalid="ignore", over="ignore"):
            df = fvals[1:] - fpole
            lengths = _norms(span, axis=1)
            inv = _inverse_or_none(span)
            if inv is None:
                j = int(lengths.argmin())
            elif lengths.max() > _BETA * rho:
                j = int(lengths.argmax())
            else:
                extents = 1.0 / _norms(inv, axis=0)  # column j: normal of vertex j+1
                j = int(extents.argmin()) if extents.min() < _ALPHA * rho else None
            if j is not None:
                # Geometry repair: rebuild vertex j+1 at half the trust radius,
                # along the null direction of a rank-deficient span, else
                # along its orthogonal-complement direction.
                if inv is None:
                    direction = np.linalg.svd(span)[2][-1]
                else:
                    direction = inv[:, j] / _norm(inv[:, j])
                x = pole + _orient_downhill(_GEOM_FRACTION * rho * direction, span, df, inv)
            else:
                # Linear model: span @ g = df. The trust-region minimizer of
                # the model is the full-radius step against g. A non-finite
                # or negligible model shrinks the radius instead.
                g = inv @ df
                gnorm = _norm(g)
                predicted = rho * gnorm
                if not math.isfinite(predicted) or predicted <= 1e-13 * max(1.0, abs(fpole)):
                    rho *= _SHRINK
                    continue
                x = pole - (rho / gnorm) * g

        fx = yield from call(x)
        if j is None:
            if fpole - fx > _ACCEPT_RATIO * predicted:
                # Good step: replace the vertex whose span coefficient the
                # step uses most, which keeps the simplex well conditioned.
                j = int(np.abs(inv.T @ (x - pole)).argmax())
            else:
                # Poor step with sound geometry: the model is trustworthy at
                # this scale, so tighten the radius; keep the point if it at
                # least improves the worst vertex.
                rho *= _SHRINK
                w = int(fvals[1:].argmax())
                if fx < fvals[w + 1]:
                    j = w
        if j is not None:
            verts[j + 1] = x
            fvals[j + 1] = fx

    return OptimizationResult(
        final_params=best_x, n_calls=len(history), best_value=best_f, history=history
    )


def _inverse_or_none(span: np.ndarray) -> np.ndarray | None:
    try:
        inv = np.linalg.inv(span)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(inv).all():
        return None
    return inv


def _orient_downhill(
    step: np.ndarray, span: np.ndarray, df: np.ndarray, inv: np.ndarray | None = None
) -> np.ndarray:
    """Flip a geometry step so the least-squares model predicts descent.

    With the span's inverse, the sign is settled without ``lstsq`` where it
    is certain: an all-zero ``df`` has zero slope, and ``g = inv @ df``
    decides when ``|g @ step|`` exceeds ``_SIGN_GUARD`` times the Frobenius
    norms of span and inverse and the norms of g and step. Both solves lie
    within a few eps * cond(span) * |g| of the exact gradient, so the guard
    leaves a margin of about 1e4; the tests check that a decided flip is
    ``lstsq``'s on spans of condition number 1 to 1e16.
    """
    if not np.isfinite(df).all():
        return step
    if inv is not None:
        if not df.any():
            return step
        g = inv @ df
        slope = float(g @ step)
        if abs(slope) > _SIGN_GUARD * _norm(span) * _norm(inv) * _norm(g) * _norm(step):
            return -step if slope > 0.0 else step
    g = np.linalg.lstsq(span, df, rcond=None)[0]
    if np.isfinite(g).all() and float(g @ step) > 0.0:
        return -step
    return step


def _norms(x: np.ndarray, axis: int) -> np.ndarray:
    """``np.linalg.norm(x, axis=axis)`` without its dispatch: the same
    squares, pairwise sums and square roots."""
    return np.sqrt(np.add.reduce(x * x, axis=axis))


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm(v)`` of a vector without its dispatch: like norm, a
    ``dot`` over a contiguous copy, since a ``dot`` over a strided view can
    sum in another order."""
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))
