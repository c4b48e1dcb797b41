"""Experiment harness: scans, decay fits, memory criteria, diffusion oracle.

Reproduces the three desk-scale experiments (the cross-talk separation
scan, the per-rail lifetime scan, and the 12-operation random-access
program) plus the supporting numerics: exponential fitting, efficiency
extrapolation, inverse-variance means, and a Brownian-walker Monte Carlo
estimate of the read overlap used as an independent oracle for the
closed-form model.

Each scan point runs on a fresh Memory; results are ordered by axis value.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Sequence as SeqABC

from . import engine, physics
from .core import (
    _POSITIVE,
    DomainError,
    FitResult,
    OpKind,
    Operation,
    ParamError,
    PhysicsParams,
    RailCalibration,
    Sequence,
    Trace,
    VaporMemError,
    _Value,
    _calibration,
    _fmt_number,
    _rail_table,
    _real,
    replace,
)

CROSSTALK_WRITE_RAIL_MHZ = 190.0
# the standard scan grids as (first, last, step)
CROSSTALK_GRID_MHZ = (0.0, 25.0, 1.0)
LIFETIME_GRID_US = (0.4, 11.2, 0.4)
# a scan point costs under 0.05 ms; a longer grid is a mistyped step
MAX_SCAN_POINTS = 100_000
# the oracle holds three float64 arrays of n_atoms each: 240 MB at this cap
MAX_ORACLE_ATOMS = 10**7
# check_criteria: tolerated relative deviation of an interleaved write-read
# pair, tolerated re-read excess over 1 - dep(0), tolerated empty-rail read as
# a fraction of the reference retrieval, and that reference (the
# unit-efficiency retrieval of a unit input pulse)
INTERACTION_TOL = 0.02
REREAD_TOL = 0.03
EMPTY_TOL = 0.01
REFERENCE_ENERGY = 1.0

_GN_TOL = 1e-9
_GN_MAX_ITER = 100


class FitError(VaporMemError):
    """The fit input is unusable (too few points, non-finite values,
    non-positive energies, a singular system, or a non-decaying trend)."""


class FitConvergenceError(FitError):
    """The Gauss-Newton refinement did not converge."""


class TraceMismatchError(VaporMemError):
    """The supplied trace was not produced by the supplied sequence."""


def scan_grid(first: float, last: float, step: float) -> tuple[float, ...]:
    """The points first, first + step, ... up to last, in exact decimal steps.

    Each bound is read as its shortest decimal (its repr), and every point
    is the exact first + k * step rounded once to a float, so
    ``scan_grid(0.4, 11.2, 0.4)`` ends at 11.2, not 11.200000000000001.
    A grid of more than ``MAX_SCAN_POINTS`` points, a bound that is not
    finite, a step that is not positive and first > last raise DomainError.
    """
    first, last, step = (_real(v, DomainError, "scan min, max and step must be finite")
                         for v in (first, last, step))
    if step <= 0.0:
        raise DomainError("scan step must be strictly positive")
    if first > last:
        raise DomainError("scan min must not exceed max")
    parts = [_decimal(v) for v in (first, last, step)]
    scale = min(0, *(e for _, e in parts))  # every bound is an integer / 10**-scale
    lo, hi, d = (m * 10 ** (e - scale) for m, e in parts)
    n = (hi - lo) // d + 1
    if n > MAX_SCAN_POINTS:
        raise DomainError(f"scan grid has {n} points, more than {MAX_SCAN_POINTS}")
    den = 10 ** -scale
    # int / int is correctly rounded, so each point is rounded once
    return tuple((lo + k * d) / den for k in range(n))


def _decimal(x: float) -> tuple[int, int]:
    """(m, e) with m * 10**e exactly the shortest decimal of x, its repr."""
    mantissa, _, exp = repr(x).partition("e")
    whole, _, frac = mantissa.partition(".")
    return int(whole + frac), int(exp or 0) - len(frac)


CROSSTALK_SEPARATIONS_MHZ = scan_grid(*CROSSTALK_GRID_MHZ)
LIFETIME_DELAYS_US = scan_grid(*LIFETIME_GRID_US)


class ScanResult(_Value):
    """One scan: an axis plus equally long named series of energies."""

    _fields = ("axis_name", "axis", "series")

    def __init__(self, axis_name: str, axis: tuple[float, ...],
                 series: dict[str, tuple[float, ...]]) -> None:
        self._assign(axis_name, tuple(axis), {k: tuple(v) for k, v in series.items()})
        for name, vals in self.series.items():
            if len(vals) != len(self.axis):
                raise DomainError(f"series {name!r} length differs from axis")


class CriterionCheck(_Value):
    """Outcome of one memory criterion.

    margin is the worst observed ratio divided by its tolerance, so any
    value <= 1 passes and 0 means the criterion was never stressed.
    """

    _fields = ("margin",)

    def __init__(self, margin: float) -> None:
        self._assign(margin)

    @property
    def passed(self) -> bool:
        return self.margin <= 1.0


class CriteriaReport(_Value):
    """The outcomes of the three random-access memory criteria."""

    _fields = ("interaction_free", "empty_state", "full_retrieval")

    def __init__(self, interaction_free: CriterionCheck, empty_state: CriterionCheck,
                 full_retrieval: CriterionCheck) -> None:
        self._assign(interaction_free, empty_state, full_retrieval)

    @property
    def all_pass(self) -> bool:
        return (self.interaction_free.passed and self.empty_state.passed
                and self.full_retrieval.passed)


def scan_crosstalk(params: PhysicsParams, rails_cal: Iterable[RailCalibration],
                   separations_mhz: SeqABC[float] = CROSSTALK_SEPARATIONS_MHZ) -> ScanResult:
    """Two-rail cross-talk scan against rail separation.

    For each separation: write a unit pulse on the write rail
    ``CROSSTALK_WRITE_RAIL_MHZ`` at t = 0, read the displaced neighbor at
    0.4 µs (peak1), then read the write rail itself at 0.8 µs (peak2). At
    zero separation both reads address the write rail. Unmeasured neighbor
    rails inherit the write rail's calibration. A separation that is not
    finite raises DomainError before any point runs.
    """
    base = _calibration(_rail_table(rails_cal), CROSSTALK_WRITE_RAIL_MHZ)
    separations = [_real(sep, DomainError, "separations must be finite")
                   for sep in separations_mhz]
    peak1, peak2 = [], []
    for sep in separations:
        if sep == 0.0:
            mem = engine.Memory(params, [base])
            read_rail = CROSSTALK_WRITE_RAIL_MHZ
        else:
            neighbor = replace(base, f_rail=CROSSTALK_WRITE_RAIL_MHZ + sep)
            mem = engine.Memory(params, [base, neighbor])
            read_rail = neighbor.f_rail
        mem.write(CROSSTALK_WRITE_RAIL_MHZ, 0.0, 1.0)
        peak1.append(mem.read(read_rail, 400.0))
        peak2.append(mem.read(CROSSTALK_WRITE_RAIL_MHZ, 800.0))
    return ScanResult("separation_mhz", tuple(separations),
                      {"peak1": tuple(peak1), "peak2": tuple(peak2)})


def scan_lifetime(params: PhysicsParams, rails_cal: Iterable[RailCalibration],
                  f_rail: float,
                  delays_us: SeqABC[float] = LIFETIME_DELAYS_US) -> ScanResult:
    """Retrieved energy against storage delay on one rail.

    Each point runs on a fresh memory: write a unit pulse at t = 0, read
    after the delay. Delays that are not positive and strictly
    ascending, NaN included, or whose value in ns is not a finite float
    raise DomainError before any point runs.
    """
    cal = _calibration(_rail_table(rails_cal), f_rail)
    message = "delays must be positive, strictly ascending and finite in ns"
    delays = [_real(delay, DomainError, message) for delay in delays_us]
    if not all(a < b and b * engine.NS_PER_US < math.inf
               for a, b in zip((0.0, *delays), delays)):
        raise DomainError(message)
    retrieved = []
    for delay in delays:
        mem = engine.Memory(params, [cal])
        mem.write(f_rail, 0.0, 1.0)
        retrieved.append(mem.read(f_rail, delay * engine.NS_PER_US))
    return ScanResult("delay_us", tuple(delays),
                      {"retrieved": tuple(retrieved)})


def fit_exponential(points: Iterable[tuple[float, float]]) -> FitResult:
    """Least-squares fit of y = a0 * exp(-t / tau) to (t_us, energy) points.

    Pulse-energy scans carry multiplicative uncertainty, so the fit
    minimizes relative residuals (model - y) / y. It is initialized by
    ordinary least squares on (t, ln y) and refined by Gauss-Newton until
    the relative parameter change drops below 1e-9 (at most 100
    iterations). Standard errors come from the Jacobian at the solution;
    rss is the minimized sum of squared relative residuals.

    The fit is plain Python. Each Gauss-Newton step solves the two-column
    Jacobian system by QR: modified Gram-Schmidt, larger column first,
    gives R = [[r00, r01], [0, r11]]. As in ``numpy.linalg.lstsq`` with
    ``rcond=None``, a smaller singular value of R at or below
    eps * max(n, 2) times the larger one counts as zero, and the step is
    then the minimum-norm solution along [r00, r01]. The covariance
    sigma² (JᵀJ)⁻¹ inverts the 2×2 normal matrix by LU with partial
    pivoting, in the order of LAPACK's getrf/getri: an exactly zero pivot
    is a singular system, and an inverse that overflows stays inf, which
    FitResult rejects. An inf or nan anywhere else (a sum, a residual, a
    Jacobian entry, a step) counts as an overflow. Every such failure is
    a FitError "fit failed numerically: ...".
    """
    pts = [(t, y) for t, y in points]
    if len(pts) < 3:
        raise FitError("need at least 3 points to fit")
    message = "times and energies must be finite"
    ts = [_real(t, FitError, message) for t, _ in pts]
    ys = [_real(y, FitError, message) for _, y in pts]
    if any(y <= 0.0 for y in ys):
        raise FitError("all energies must be strictly positive")
    # the relative-residual weight 1/y overflows for a subnormal energy
    if not all(math.isfinite(1.0 / y) for y in ys):
        raise FitError("relative-residual weights 1/energy must be finite")
    if all(t == ts[0] for t in ts):
        raise FitError("singular system: all times are equal")
    try:
        return _fit(ts, ys)
    except (ArithmeticError, ParamError) as exc:
        raise FitError(f"fit failed numerically: {exc}") from None


def _fit(ts: list[float], ys: list[float]) -> FitResult:
    """Log-linear start and Gauss-Newton refinement of fit_exponential."""
    n = len(ts)
    ln = [math.log(y) for y in ys]
    tbar, lbar = math.fsum(ts) / n, math.fsum(ln) / n
    dt = [t - tbar for t in ts]
    slope = _dot(dt, [v - lbar for v in ln]) / _dot(dt, dt)
    if slope >= 0.0:
        raise FitError("data does not decay")
    a0 = math.exp(lbar - slope * tbar)
    tau = -1.0 / slope

    w = [1.0 / y for y in ys]
    converged = False
    for _ in range(_GN_MAX_ITER):
        resid, jac = _linearize(ts, ys, w, a0, tau)
        d0, d1 = _lstsq_step(jac, [-r for r in resid])
        step = max(abs(d0 / a0), abs(d1 / tau))
        _check_overflow(step)
        a0 += d0
        tau += d1
        if a0 <= 0.0 or tau <= 0.0:
            raise FitError("fit left the valid parameter domain")
        if step < _GN_TOL:
            converged = True
            break
    if not converged:
        raise FitConvergenceError(
            f"no convergence after {_GN_MAX_ITER} Gauss-Newton iterations")

    resid, (j0, j1) = _linearize(ts, ys, w, a0, tau)
    rss = _dot(resid, resid)
    dof = n - 2
    sigma2 = rss / dof if dof > 0 else 0.0
    cov11 = sigma2 * _inverse_11(_dot(j0, j0), _dot(j0, j1), _dot(j1, j1))
    return FitResult(a0=a0, tau_us=tau, tau_err_us=math.sqrt(max(cov11, 0.0)), rss=rss)


def _check_overflow(*values: float) -> None:
    """An inf or nan is an overflow, as numpy's raising errstate would report."""
    if not all(map(math.isfinite, values)):
        raise ArithmeticError("overflow: a value is not finite")


def _dot(u: SeqABC[float], v: SeqABC[float]) -> float:
    """The correctly rounded dot product of two finite-product vectors."""
    terms = [a * b for a, b in zip(u, v)]
    _check_overflow(*terms)
    return math.fsum(terms)  # an overflowing sum raises OverflowError


def _linearize(ts: list[float], ys: list[float], w: list[float], a0: float,
               tau: float) -> tuple[list[float], tuple[list[float], list[float]]]:
    """Relative residuals and the two Jacobian columns (d/da0, d/dtau) at (a0, tau)."""
    model = [a0 * math.exp(-t / tau) for t in ts]
    resid = [(m - y) * wi for m, y, wi in zip(model, ys, w)]
    jac = ([(m / a0) * wi for m, wi in zip(model, w)],
           [(m * t / (tau * tau)) * wi for m, t, wi in zip(model, ts, w)])
    _check_overflow(*resid, *jac[0], *jac[1])
    return resid, jac


def _lstsq_step(jac: tuple[list[float], list[float]], b: list[float]) -> tuple[float, float]:
    """Minimum-norm least-squares solution x of [c0 c1] x = b, by QR.

    Modified Gram-Schmidt on the columns, the larger first (Golub & Van
    Loan, Matrix Computations, 4th ed., ch. 5), with the rank rule of
    ``numpy.linalg.lstsq(rcond=None)`` applied to R's singular values.
    Putting the larger column first keeps [r00, r01] the dominant row of
    R, so a rank-one step along it is the minimum-norm one.
    """
    c0, c1 = jac
    swap = math.hypot(*c1) > math.hypot(*c0)
    if swap:
        c0, c1 = c1, c0
    r00 = math.hypot(*c0)
    if r00 == 0.0:
        return 0.0, 0.0  # J = 0: every x is a solution, and 0 has the least norm
    q0 = [c / r00 for c in c0]
    r01 = _dot(q0, c1)
    v = [c - r01 * q for c, q in zip(c1, q0)]
    r11 = math.hypot(*v)
    z0 = _dot(q0, b)
    # the singular values of the triangular R; the smaller one as det / larger
    s_max = 0.5 * (math.hypot(r00 + r11, r01) + math.hypot(r00 - r11, r01))
    if (r00 / s_max) * r11 <= sys.float_info.epsilon * max(len(b), 2) * s_max:
        h = math.hypot(r00, r01)
        x0, x1 = (z0 / h) * (r00 / h), (z0 / h) * (r01 / h)
    else:
        q1 = [c / r11 for c in v]
        x1 = _dot(q1, [bi - z0 * q for bi, q in zip(b, q0)]) / r11
        x0 = (z0 - r01 * x1) / r00
    return (x1, x0) if swap else (x0, x1)


def _inverse_11(a: float, b: float, d: float) -> float:
    """Element [1, 1] of the inverse of the symmetric [[a, b], [b, d]].

    LU with partial pivoting, then the inverse, in the order of LAPACK's
    getrf and getri. A zero pivot raises ArithmeticError; a tiny one
    gives inf.
    """
    swap = abs(b) > abs(a)
    pivot, upper, lower, corner = (b, d, a, b) if swap else (a, b, b, d)
    if pivot == 0.0:
        raise ArithmeticError("Singular matrix")
    l10 = lower / pivot
    u11 = corner - l10 * upper
    if u11 == 0.0:
        raise ArithmeticError("Singular matrix")
    return -(1.0 / u11) * l10 if swap else 1.0 / u11


def extrapolate_efficiency(e_read: float, t_read_us: float, tau_us: float) -> float:
    """Internal efficiency at zero storage time from a delayed retrieval.

    Undoes the storage decay over t_read: eta = e_read * exp(t_read / tau).
    Energies are in units of the normalization pulse, so e_read needs no
    further normalization. An argument that is not finite, or an eta
    that is not a finite float, raises DomainError.
    """
    message = "energy and lifetime must be strictly positive, read time non-negative"
    e, t, tau = (_real(v, DomainError, message, lo) for v, lo in
                 ((e_read, _POSITIVE), (t_read_us, 0.0), (tau_us, _POSITIVE)))
    try:
        eta = e * math.exp(t / tau)
    except OverflowError:
        eta = math.inf
    return _real(eta, DomainError, "extrapolated efficiency must be a finite float")


def weighted_mean(values: SeqABC[float], sigmas: SeqABC[float]) -> tuple[float, float]:
    """Inverse-variance weighted mean and its standard error."""
    if len(values) != len(sigmas):
        raise DomainError("values and sigmas must have equal length")
    if not values:
        raise DomainError("need at least one value")
    sigmas = [_real(s, DomainError, "sigmas must be strictly positive", _POSITIVE, math.inf)
              for s in sigmas]
    message = "values and sigmas must be finite"
    values, sigmas = ([_real(v, DomainError, message) for v in vs] for vs in (values, sigmas))
    # s * s underflows to 0 for a tiny sigma (1/(s * s) overflows for a slightly
    # larger one) and overflows to inf for a huge one
    weights = [1.0 / (s * s) if s * s > 0.0 else math.inf for s in sigmas]
    total = sum(weights)
    if not 0.0 < total < math.inf:
        raise DomainError("weights 1/sigma² must be finite and not all zero")
    mean = sum(w * x for w, x in zip(weights, values)) / total  # inf or NaN on an overflow
    return _real(mean, DomainError, "weighted mean must be a finite float"), 1.0 / math.sqrt(total)


def random_access_sequence() -> Sequence:
    """The canonical 12-operation random-access program on four rails.

    Writes and reads interleave across all four rails over 4.4 µs; the
    190 MHz rail keeps a pulse stored while four operations run on its
    neighbors, the 210 MHz rail is re-read immediately and again much
    later, the 170 MHz rail is read before ever being written, and the
    230 MHz pulse written first is retrieved last.
    """
    us = engine.NS_PER_US
    w, r = OpKind.WRITE, OpKind.READ
    schedule = [
        (0.0, w, 230.0), (0.4, w, 210.0), (0.6, r, 210.0), (0.8, r, 210.0),
        (1.2, r, 170.0), (1.6, w, 190.0), (2.0, r, 170.0), (2.4, w, 170.0),
        (2.8, r, 170.0), (3.2, r, 210.0), (3.6, r, 190.0), (4.4, r, 230.0),
    ]
    ops = tuple(Operation(t_ns=t * us, kind=kind, f_rail=f) for t, kind, f in schedule)
    return Sequence(name="random-access", rails=(170.0, 190.0, 210.0, 230.0), ops=ops)


def check_criteria(trace: Trace, seq: Sequence, params: PhysicsParams,
                   rails_cal: Iterable[RailCalibration]) -> CriteriaReport:
    """Evaluate the three random-access memory criteria on a trace.

    interaction_free: a write's first read, when at least one operation
    ran between them and every one was on another rail, retrieves within
    ``INTERACTION_TOL`` of the analytic no-intervention prediction
    energy * eta_mem * exp(-dt / tau); a read directly after its write is
    not scored. A pump on the write's rail ends the pair unscored, since it
    is not an interaction, and so does a prediction that underflows to 0.0,
    where the ratio has no meaning. empty_state: every read of a rail holding at
    most 1e-12 just before it returns at most ``EMPTY_TOL`` of the
    reference retrieval ``REFERENCE_ENERGY``. full_retrieval: every
    immediate re-read (adjacent operations, same rail) returns at most
    (1 - dep(0)) + ``REREAD_TOL`` of the preceding read; a re-read after a
    read below ``EMPTY_TOL`` of the reference is not scored.

    The trace is replayed op by op, which verifies it belongs to the
    sequence and observes each rail's occupancy before a read; a mismatch
    raises TraceMismatchError.
    """
    if len(trace.events) != len(seq.ops):
        raise TraceMismatchError("trace length differs from sequence length")
    mem = engine.Memory(params, rails_cal)
    threshold = (1.0 - physics.depletion_fraction(0.0, params)) + REREAD_TOL
    worst_interaction = worst_empty = worst_reread = 0.0
    pending: dict[float, int] = {}  # rail -> index of its write not yet read or pumped
    prev_kind, prev_rail, prev_out = None, None, 0.0
    for i, (op, ev) in enumerate(zip(seq.ops, trace.events)):
        if (ev.t_ns, ev.kind, ev.f_rail) != (op.t_ns, op.kind, op.f_rail):
            raise TraceMismatchError("trace event does not match its operation")
        empty = op.kind is OpKind.READ and not mem.stored_on(op.f_rail) > 1e-12
        out = mem.apply(op)
        if abs(out - ev.out_energy) > 1e-9 * max(1.0, abs(out)):
            raise TraceMismatchError("trace energies do not match a replay")
        if op.kind is OpKind.WRITE:
            pending[op.f_rail] = i
        elif op.kind is OpKind.PUMP:
            pending.pop(op.f_rail, None)
        else:
            iw = pending.pop(op.f_rail, None)
            # an op on this rail since the write would have ended the pair, so
            # every op between the two is on another rail
            if iw is not None and i > iw + 1:
                write, cal = seq.ops[iw], mem._rail(op.f_rail)
                dt_us = (op.t_ns - write.t_ns) / engine.NS_PER_US
                predicted = write.energy * cal.eta_mem * math.exp(-dt_us / cal.tau_us)
                if predicted > 0.0:
                    worst_interaction = max(worst_interaction, abs(out / predicted - 1.0))
            if empty:
                worst_empty = max(worst_empty, out / REFERENCE_ENERGY)
            if ((prev_kind, prev_rail) == (OpKind.READ, op.f_rail)
                    and prev_out >= EMPTY_TOL * REFERENCE_ENERGY):
                worst_reread = max(worst_reread, out / prev_out)
        prev_kind, prev_rail, prev_out = op.kind, op.f_rail, out
    return CriteriaReport(
        CriterionCheck(worst_interaction / INTERACTION_TOL),
        CriterionCheck(worst_empty / EMPTY_TOL),
        CriterionCheck(worst_reread / threshold))


def monte_carlo_overlap(params: PhysicsParams, n_atoms: int, d_um: float,
                        t_us: float, seed: int) -> float:
    """``monte_carlo_overlaps`` at the one point (d_um, t_us)."""
    return monte_carlo_overlaps(params, n_atoms, [(d_um, t_us)], seed)[0]


def monte_carlo_overlaps(params: PhysicsParams, n_atoms: int,
                         points: Iterable[tuple[float, float]], seed: int) -> tuple[float, ...]:
    """Brownian-walker estimates of the read overlap at each (d_um, t_us) of points, in order.

    For each point, samples atom positions from the initial Gaussian (std
    sigma0 per axis), advances each by an independent Gaussian step of
    per-axis variance 2 D t, and returns the mean read sampling weight at
    displacement d normalized by the coaxial mean over the same advanced
    cloud. The estimator is therefore exactly 1 at d = 0 and consistent
    with overlap_factor(d, spread_variance_um2(sigma0², t, D), params),
    both in ``physics``.

    Every point re-seeds the generator with seed, and the draw order is
    fixed (x origins, y origins, x steps, y steps), so each estimate is
    bit-reproducible for a given (seed, n_atoms, d, t) and does not depend
    on the other points. Points that share a time share one cloud: it is
    drawn once per distinct time, into three preallocated arrays, and
    each displacement's weights reuse one buffer.

    n_atoms below 1000, above ``MAX_ORACLE_ATOMS`` or not a whole number,
    a seed that is negative or not an integer, a negative or NaN time, and
    a displacement or time that is not finite raise DomainError before
    anything is drawn.
    """
    import numpy as np

    # an infinite count, or one past a float, is more than the cap
    count = _real(n_atoms, DomainError, f"{_fmt_number(n_atoms)} atoms is not a whole number",
                  -math.inf, math.inf)
    if count < 1000:
        raise DomainError("need at least 1e3 atoms for a meaningful estimate")
    if count > MAX_ORACLE_ATOMS:
        raise DomainError(f"{_fmt_number(n_atoms)} atoms are more than {MAX_ORACLE_ATOMS}")
    if not count.is_integer():
        raise DomainError(f"{_fmt_number(n_atoms)} atoms is not a whole number")
    if not isinstance(seed, (int, np.integer)):
        raise DomainError(f"seed {seed!r} is not an integer")
    if seed < 0:
        raise DomainError(f"seed {seed} is negative; it must be a non-negative integer")
    points = [(d, _real(t, DomainError, "time must be non-negative", 0.0, math.inf))
              for d, t in points]
    message = "displacements and times must be finite"
    points = [(_real(d, DomainError, message), _real(t, DomainError, message)) for d, t in points]
    diff = physics.diffusion_coefficient(params)
    # the per-axis step of each distinct time, in order of first appearance
    steps = {t: math.sqrt(physics.spread_variance_um2(0.0, t, diff)) for _, t in points}
    two_v = 2.0 * physics.read_sampling_variance_um2(params)
    n = int(count)
    x, y, w = np.empty(n), np.empty(n), np.empty(n)
    means = {}
    for t, step in steps.items():
        # normal(0, s) is 0.0 + s * z on the standard-normal stream
        rng = np.random.default_rng(seed)
        rng.standard_normal(out=x)
        x *= params.sigma0
        rng.standard_normal(out=y)
        y *= params.sigma0
        if t > 0.0:
            rng.standard_normal(out=w)
            w *= step
            x += w
            rng.standard_normal(out=w)
            w *= step
            y += w
        y *= y  # y² from here on, shared by every displacement
        # d = 0 is the normalization: (x - 0.0) ** 2 equals x * x
        for d in {0.0, *(d for d, p_t in points if p_t == t)}:
            np.subtract(x, d, out=w)
            w **= 2
            w += y
            np.negative(w, out=w)
            w /= two_v
            np.exp(w, out=w)
            means[d, t] = np.mean(w)
    return tuple(float(means[d, t] / means[0.0, t]) for d, t in points)
