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

The search is asked for points and told their values (SearchStack), and it
runs as a stack: R searches of one budget step together, each step's array
work done in single numpy calls over the stack, whose row r holds the bits
of the call on search r alone. ``minimize`` with an objective drives a
stack of one, one call at a time; a caller that advances many runs in
lockstep makes one stack of their starts (``minimize(None, starts, ...)``)
and evaluates each step's points as a batch.
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
_SIGN_GUARD = 1e4 * float(np.finfo(np.float64).eps)


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

    With ``objective`` None, ``initial`` is one start point or an ``(R, k)``
    array of R, and their searches are returned unstarted as one
    SearchStack, to be driven by ask and tell; each run's points and
    floating-point steps are those of driving its start alone with an
    objective. Each start point and the budget are checked (check_start)
    before the stack is made.
    """
    x0 = np.array(initial, dtype=np.float64)
    stack = SearchStack(x0 if objective is None and x0.ndim == 2 else x0[None], settings)
    if objective is None:
        return stack
    while True:
        (x,) = stack.ask()
        for _, result in stack.tell([objective(x)]):
            return result


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


class SearchStack:
    """R searches of one budget that step together, by ask and tell.

    ``ask`` returns the point each running search wants evaluated, one row
    per run in ``runs`` order (runs are numbered by their start points), as
    a new array the caller may keep. ``tell`` takes the values in the same
    order, None for a run whose evaluation failed, which then leaves the
    stack, and returns the runs that finished as (run, OptimizationResult)
    pairs. Every running search has made the same number of calls
    (``calls``), so the initial simplex and the budget stop are shared.

    A step's array work runs in single numpy calls over the stack (the
    ``(R, k, k)`` spans, their row lengths, one stacked ``inv``, the model
    gradients, the repair directions and the sign dot products), each giving
    row r the bits of its call on run r alone; each search then makes its
    own choices in Python floats from its row, so it steps exactly as it
    would alone. The rare paths go run by run: the ``svd`` of a
    rank-deficient span, the ``lstsq`` of a repair whose sign the inverse
    leaves uncertain, and each span's own ``inv`` when the stacked one
    raises on a singular span.
    """

    def __init__(self, starts: np.ndarray, settings: OptimizerSettings):
        starts = np.array(starts, dtype=np.float64)
        for x0 in starts:
            check_start(x0, settings)
        n, k = starts.shape
        self.settings, self.calls, self.runs = settings, 0, list(range(n))
        # Initial simplex: the start point plus a rho_beg step along each coordinate.
        self.verts = np.repeat(starts[:, None], k + 1, axis=1)
        self.verts[:, np.arange(1, k + 1), np.arange(k)] += settings.rho_beg
        self.fvals = np.empty((n, k + 1))
        self.rho = [settings.rho_beg] * n
        self.history: list[list[float]] = [[] for _ in range(n)]
        self.best_f, self.best_x = [math.inf] * n, starts.copy()
        # The asked points and their moves: ``slot`` is the vertex a repair
        # rebuilds, 0 for a model step; ``judge`` holds a model step's pole
        # value and predicted reduction, which judge it with ``inv``.
        self.x, self.slot, self.inv = starts.copy(), [0] * n, None
        self.judge: dict[int, tuple[float, float]] = {}

    def ask(self) -> np.ndarray:
        return self.x.copy()

    def tell(self, values) -> list[tuple[int, OptimizationResult]]:
        if len(values) != len(self.runs):
            raise ValueError(f"{len(self.runs)} searches need as many values, got {len(values)}")
        if None in values:
            self._keep([i for i, v in enumerate(values) if v is not None])
            values = [v for v in values if v is not None]
        fx = []
        for i, value in enumerate(values):
            value = float(value)
            if not math.isfinite(value):
                value = math.inf
            self.history[i].append(value)
            if value < self.best_f[i]:
                self.best_f[i] = value
                self.best_x[i] = self.x[i]
            fx.append(value)
        self.calls += 1
        if self.calls < self.verts.shape[1]:
            # still building the initial simplex
            self.fvals[:, self.calls - 1] = fx
            self.x = self.verts[:, self.calls].copy()
            return []
        if self.calls == self.verts.shape[1]:
            self.fvals[:, -1] = fx
        else:
            self._replace(fx)
        return self._advance()

    def _replace(self, fx: list[float]) -> None:
        """Put each evaluated point into its simplex, or not."""
        verts, fvals, slot = self.verts, self.fvals, self.slot
        good = []
        for i, (fpole, predicted) in self.judge.items():
            if fpole - fx[i] > _ACCEPT_RATIO * predicted:
                good.append(i)
                continue
            # Poor step with sound geometry: the model is trustworthy at this
            # scale, so tighten the radius; keep the point if it at least
            # improves the worst vertex.
            self.rho[i] *= _SHRINK
            worst = int(fvals[i, 1:].argmax()) + 1
            if fx[i] < fvals[i, worst]:
                slot[i] = worst
        if good:
            # Good step: replace the vertex whose span coefficient the step
            # uses most, which keeps the simplex well conditioned.
            rows = good if len(good) < len(slot) else slice(None)
            steps = self.x[rows] - verts[rows, 0]
            used = np.matmul(self.inv[rows].transpose(0, 2, 1), steps[:, :, None])[:, :, 0]
            for i, j in zip(good, np.abs(used).argmax(axis=1).tolist()):
                slot[i] = j + 1
        for i, j in enumerate(slot):
            if j:
                verts[i, j] = self.x[i]
                fvals[i, j] = fx[i]

    def _advance(self) -> list[tuple[int, OptimizationResult]]:
        """Choose each running search's next point, or finish the search:
        all of them when the budget is spent, and each whose radius is below
        rho_end, whether a rejected model step or this step's shrinks took
        it there."""
        s = self.settings
        if self.calls >= s.n_max:
            return self._finish(range(len(self.runs)))
        verts, fvals, rho, n = self.verts, self.fvals, self.rho, len(self.runs)
        # Pivot each best vertex (the pole) into row 0.
        for i, b in enumerate(fvals.argmin(axis=1).tolist()):
            if b:
                row, f = verts[i], fvals[i]
                row[0], row[b] = row[b], row[0].copy()
                f[0], f[b] = f[b], f[0]
        pole = verts[:, 0]
        span = verts[:, 1:] - verts[:, :1]  # row j: offset of vertex j+1
        with np.errstate(invalid="ignore", over="ignore"):  # inf values give nan models
            df = fvals[:, 1:] - fvals[:, :1]
            lengths = _norms(span, axis=2)
            inv, invertible = _inverses(span)
            g = np.matmul(inv, df[:, :, None])[:, :, 0]
            longest = lengths.max(axis=1).tolist()
            # Only a run with an inverse and no offset too long reads these.
            if any(ok and not longest[i] > _BETA * rho[i] for i, ok in enumerate(invertible)):
                extents = 1.0 / _norms(inv, axis=1)  # column j: normal of vertex j+1
                thinnest, thin = extents.min(axis=1).tolist(), extents.argmin(axis=1).tolist()
                gnorm, fpole = np.sqrt(_dots(g, g)).tolist(), fvals[:, 0].tolist()
            # The move: without an inverse, rebuild the shortest offset's
            # vertex; with one, the longest's if it is too long, else the
            # thinnest's if it is too thin, else take the model step.
            slot, judge, scale = [0] * n, {}, [0.0] * n
            far, stopped = [], []
            for i, ok in enumerate(invertible):
                radius = rho[i]
                while radius >= s.rho_end:
                    if not ok:
                        slot[i] = int(lengths[i].argmin()) + 1
                        break
                    if longest[i] > _BETA * radius:
                        far.append(i)
                        break
                    if thinnest[i] < _ALPHA * radius:
                        slot[i] = thin[i] + 1
                        break
                    # Linear model: span @ g = df. The trust-region minimizer
                    # of the model is the full-radius step against g. A
                    # non-finite or negligible model shrinks the radius, and
                    # the move is chosen again.
                    predicted = radius * gnorm[i]
                    if math.isfinite(predicted) and predicted > 1e-13 * max(1.0, abs(fpole[i])):
                        judge[i], scale[i] = (fpole[i], predicted), radius / gnorm[i]
                        break
                    radius *= _SHRINK
                else:
                    stopped.append(i)
                rho[i] = radius
            if far:
                widest = lengths.argmax(axis=1).tolist()
                for i in far:
                    slot[i] = widest[i] + 1
            x = pole - np.array(scale)[:, None] * g if judge else pole.copy()
            # Geometry repair: rebuild vertex j+1 at half the trust radius,
            # along the orthogonal-complement direction of an invertible span,
            # else along its null direction.
            repair = [i for i, j in enumerate(slot) if j]
            if repair:
                rows = repair if len(repair) < n else slice(None)
                direction = inv[repair, :, [slot[i] - 1 for i in repair]]
                direction /= np.sqrt(_dots(direction, direction))[:, None]
                for r, i in enumerate(repair):
                    if not invertible[i]:
                        direction[r] = np.linalg.svd(span[i])[2][-1]
                steps = np.array([_GEOM_FRACTION * rho[i] for i in repair])[:, None] * direction
                x[rows] = pole[rows] + _orient_downhill(steps, span[rows], df[rows], inv[rows], g[rows])
        self.x, self.slot, self.judge, self.inv = x, slot, judge, inv
        return self._finish(stopped)

    def _finish(self, ended) -> list[tuple[int, OptimizationResult]]:
        """Take the ``ended`` runs (positions in the stack) out of it and
        return their results."""
        if not ended:
            return []
        results = [
            (self.runs[i], OptimizationResult(
                final_params=self.best_x[i].copy(), n_calls=self.calls,
                best_value=self.best_f[i], history=self.history[i]))
            for i in ended
        ]
        ended = set(ended)
        self._keep([i for i in range(len(self.runs)) if i not in ended])
        return results

    def _keep(self, rows: list[int]) -> None:
        """Keep only the runs at positions ``rows`` of the stack."""
        for name in ("verts", "fvals", "best_x", "x", "inv"):
            if getattr(self, name) is not None:
                setattr(self, name, getattr(self, name)[rows])
        for name in ("runs", "history", "best_f", "rho", "slot"):
            setattr(self, name, [getattr(self, name)[i] for i in rows])
        self.judge = {new: self.judge[i] for new, i in enumerate(rows) if i in self.judge}


def _inverses(spans: np.ndarray) -> tuple[np.ndarray, list[bool]]:
    """Each span's inverse and whether it has a finite one: one stacked
    ``inv``, or each span's own when a singular span makes it raise."""
    try:
        inv = np.linalg.inv(spans)
    except np.linalg.LinAlgError:
        inv = np.full_like(spans, math.nan)
        for r, span in enumerate(spans):
            try:
                inv[r] = np.linalg.inv(span)
            except np.linalg.LinAlgError:
                pass
    return inv, np.logical_and.reduce(np.isfinite(inv), axis=(1, 2)).tolist()


def _orient_downhill(
    steps: np.ndarray, spans: np.ndarray, dfs: np.ndarray, invs: np.ndarray, grads: np.ndarray
) -> np.ndarray:
    """Flip each row's geometry step so the least-squares model of its span
    and ``df`` predicts descent.

    With the spans' inverses and their model gradients ``g = inv @ df``, a
    sign is settled without ``lstsq`` where it is certain: an all-zero
    ``df`` has zero slope, and g decides when ``|g @ step|`` exceeds
    ``_SIGN_GUARD`` times the Frobenius norms of span and inverse and the
    norms of g and step. Both solves lie within a few eps * cond(span) * |g|
    of the exact gradient, so the guard leaves a margin of about 1e4; the
    tests check that a decided flip is ``lstsq``'s on spans of condition
    number 1 to 1e16. A singular span's inverse and gradient are NaN
    (``_inverses``), so its slope is never certain and a sloped ``df`` goes
    to ``lstsq``. A row whose ``df`` is not finite keeps its step.
    """
    n = len(steps)
    finite = np.logical_and.reduce(np.isfinite(dfs), axis=1).tolist()
    sloped = np.logical_or.reduce(dfs, axis=1).tolist()
    slopes = _dots(grads, steps).tolist()
    mats = np.concatenate((spans.reshape(n, -1), invs.reshape(n, -1)))
    vecs = np.concatenate((grads, steps))
    span_norm, inv_norm = np.sqrt(_dots(mats, mats)).reshape(2, n)
    g_norm, step_norm = np.sqrt(_dots(vecs, vecs)).reshape(2, n)
    guards = (_SIGN_GUARD * span_norm * inv_norm * g_norm * step_norm).tolist()
    signs = []
    for r in range(n):
        flip = False
        if not finite[r] or not sloped[r]:
            pass
        elif abs(slopes[r]) > guards[r]:
            flip = slopes[r] > 0.0
        else:
            g = np.linalg.lstsq(spans[r], dfs[r], rcond=None)[0]
            flip = bool(np.isfinite(g).all() and float(g @ steps[r].copy()) > 0.0)
        signs.append(-1.0 if flip else 1.0)
    return steps * np.array(signs)[:, None]


def _norms(x: np.ndarray, axis: int) -> np.ndarray:
    """``np.linalg.norm(x, axis=axis)`` without its dispatch: the same
    squares, pairwise sums and square roots."""
    return np.sqrt(np.add.reduce(x * x, axis=axis))


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row's ``a[r].dot(b[r])``: ``np.vecdot`` calls BLAS ``ddot`` on
    each row, bit for bit as it sums two fresh vectors (``np.linalg.norm``
    of a vector calls it too). The rows are those of C-contiguous arrays
    numpy allocated, and rows of odd length are first copied into rows
    padded to an even length, so that every row starts on a 16-byte
    boundary like a fresh vector: some OpenBLAS cores (Prescott) sum a
    vector that starts off one in another order."""
    n = a.shape[1]
    if n % 2:
        pair = np.zeros((2, len(a), n + 1))
        pair[0, :, :n], pair[1, :, :n] = a, b
        a, b = pair[:, :, :n]
    return np.vecdot(a, b)
