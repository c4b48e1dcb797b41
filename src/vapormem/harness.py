"""Experiment harness: scans, decay fits, memory criteria, diffusion oracle.

Reproduces the three desk-scale experiments (the cross-talk separation
scan, the per-rail lifetime scan, and the 12-operation random-access
program) plus the supporting numerics: exponential fitting, efficiency
extrapolation, inverse-variance means, and a Brownian-walker Monte Carlo
estimate of the read overlap used as an independent oracle for the
closed-form model.

Scan points are independent (one fresh Memory per point) and could be
evaluated in parallel; results are ordered by axis value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence as SeqABC

import numpy as np

from . import engine, physics
from .core import (
    DomainError,
    FitResult,
    OpKind,
    Operation,
    PhysicsParams,
    RailCalibration,
    Sequence,
    Trace,
    UnknownRailError,
    VaporMemError,
)

CROSSTALK_WRITE_RAIL_MHZ = 190.0
CROSSTALK_SEPARATIONS_MHZ = tuple(float(k) for k in range(0, 26))
LIFETIME_DELAYS_US = tuple((k * 400) / 1000 for k in range(1, 29))
# check_criteria: tolerated relative deviation of an interleaved write-read
# pair, tolerated re-read excess over 1 - dep(0), and the reference retrieval
# (the unit-efficiency retrieval of a unit input pulse)
INTERACTION_TOL = 0.02
REREAD_TOL = 0.03
REFERENCE_ENERGY = 1.0

_GN_TOL = 1e-9
_GN_MAX_ITER = 100


class FitError(VaporMemError):
    """The fit input is unusable (too few points, non-positive energies,
    a singular system, or a non-decaying trend)."""


class FitConvergenceError(FitError):
    """The Gauss-Newton refinement did not converge."""


class TraceMismatchError(VaporMemError):
    """The supplied trace was not produced by the supplied sequence."""


@dataclass(frozen=True)
class ScanResult:
    """One scan: an axis plus equally long named series of energies."""

    axis_name: str
    axis: tuple[float, ...]
    series: dict[str, tuple[float, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "axis", tuple(self.axis))
        object.__setattr__(self, "series",
                           {k: tuple(v) for k, v in self.series.items()})
        for name, vals in self.series.items():
            if len(vals) != len(self.axis):
                raise DomainError(f"series {name!r} length differs from axis")


@dataclass(frozen=True)
class CriterionCheck:
    """Outcome of one memory criterion.

    margin is the worst observed ratio divided by its tolerance, so any
    value <= 1 passes and 0 means the criterion was never stressed.
    """

    passed: bool
    margin: float


@dataclass(frozen=True)
class CriteriaReport:
    interaction_free: CriterionCheck
    empty_state: CriterionCheck
    full_retrieval: CriterionCheck

    @property
    def all_pass(self) -> bool:
        return (self.interaction_free.passed and self.empty_state.passed
                and self.full_retrieval.passed)


def _find_cal(rails_cal: Iterable[RailCalibration], f_rail: float) -> RailCalibration:
    for cal in rails_cal:
        if cal.f_rail == f_rail:
            return cal
    raise UnknownRailError(f"no calibration for rail {f_rail} MHz")


def scan_crosstalk(params: PhysicsParams, rails_cal: Iterable[RailCalibration],
                   separations_mhz: SeqABC[float] = CROSSTALK_SEPARATIONS_MHZ) -> ScanResult:
    """Two-rail cross-talk scan against rail separation.

    For each separation: write a unit pulse on the write rail
    ``CROSSTALK_WRITE_RAIL_MHZ`` at t = 0, read the displaced neighbor at
    0.4 µs (peak1), then read the write rail itself at 0.8 µs (peak2). At
    zero separation both reads address the write rail. Unmeasured neighbor
    rails inherit the write rail's calibration.
    """
    base = _find_cal(tuple(rails_cal), CROSSTALK_WRITE_RAIL_MHZ)
    peak1, peak2 = [], []
    for sep in separations_mhz:
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
    return ScanResult("separation_mhz", tuple(float(s) for s in separations_mhz),
                      {"peak1": tuple(peak1), "peak2": tuple(peak2)})


def scan_lifetime(params: PhysicsParams, rails_cal: Iterable[RailCalibration],
                  f_rail: float,
                  delays_us: SeqABC[float] = LIFETIME_DELAYS_US) -> ScanResult:
    """Retrieved energy against storage delay on one rail.

    Each point runs on a fresh memory: pump, write a unit pulse at t = 0,
    read after the delay.
    """
    cal = _find_cal(tuple(rails_cal), f_rail)
    prev = 0.0
    for d in delays_us:
        if d <= prev:
            raise DomainError("delays must be positive and strictly ascending")
        prev = d
    retrieved = []
    for delay in delays_us:
        mem = engine.Memory(params, [cal])
        mem.pump(f_rail, 0.0)
        mem.write(f_rail, 0.0, 1.0)
        retrieved.append(mem.read(f_rail, delay * engine.NS_PER_US))
    return ScanResult("delay_us", tuple(float(d) for d in delays_us),
                      {"retrieved": tuple(retrieved)})


def fit_exponential(points: Iterable[tuple[float, float]]) -> FitResult:
    """Least-squares fit of y = a0 * exp(-t / tau) to (t_us, energy) points.

    Pulse-energy scans carry multiplicative uncertainty, so the fit
    minimizes relative residuals (model - y) / y. It is initialized by
    ordinary least squares on (t, ln y) and refined by Gauss-Newton until
    the relative parameter change drops below 1e-9 (at most 100
    iterations). Standard errors come from the Jacobian at the solution;
    rss is the minimized sum of squared relative residuals.
    """
    pts = [(float(t), float(y)) for t, y in points]
    if len(pts) < 3:
        raise FitError("need at least 3 points to fit")
    ts = np.array([t for t, _ in pts])
    ys = np.array([y for _, y in pts])
    if np.any(ys <= 0.0):
        raise FitError("all energies must be strictly positive")
    if np.all(ts == ts[0]):
        raise FitError("singular system: all times are equal")

    ln = np.log(ys)
    tbar, lbar = ts.mean(), ln.mean()
    sxx = float(np.sum((ts - tbar) ** 2))
    slope = float(np.sum((ts - tbar) * (ln - lbar))) / sxx
    if slope >= 0.0:
        raise FitError("data does not decay")
    a0 = math.exp(lbar - slope * tbar)
    tau = -1.0 / slope

    w = 1.0 / ys
    converged = False
    for _ in range(_GN_MAX_ITER):
        model = a0 * np.exp(-ts / tau)
        resid = (model - ys) * w
        jac = np.column_stack(((model / a0) * w, (model * ts / (tau * tau)) * w))
        delta, *_ = np.linalg.lstsq(jac, -resid, rcond=None)
        step = max(abs(delta[0] / a0), abs(delta[1] / tau))
        a0 += float(delta[0])
        tau += float(delta[1])
        if a0 <= 0.0 or tau <= 0.0:
            raise FitError("fit left the valid parameter domain")
        if step < _GN_TOL:
            converged = True
            break
    if not converged:
        raise FitConvergenceError(
            f"no convergence after {_GN_MAX_ITER} Gauss-Newton iterations")

    model = a0 * np.exp(-ts / tau)
    resid = (model - ys) * w
    jac = np.column_stack(((model / a0) * w, (model * ts / (tau * tau)) * w))
    rss = float(resid @ resid)
    dof = len(pts) - 2
    sigma2 = rss / dof if dof > 0 else 0.0
    cov = sigma2 * np.linalg.inv(jac.T @ jac)
    return FitResult(a0=float(a0), tau_us=float(tau),
                     tau_err_us=float(math.sqrt(max(cov[1, 1], 0.0))),
                     rss=rss)


def extrapolate_efficiency(e_read: float, t_read_us: float, tau_us: float,
                           e_norm: float = 1.0) -> float:
    """Internal efficiency at zero storage time from a delayed retrieval.

    Undoes the storage decay over t_read and normalizes to the
    normalization-pulse energy: eta = (e_read / e_norm) * exp(t_read / tau).
    """
    if e_read <= 0.0 or tau_us <= 0.0 or e_norm <= 0.0:
        raise DomainError("energies and lifetime must be strictly positive")
    if t_read_us < 0.0:
        raise DomainError("read time must be non-negative")
    return (e_read / e_norm) * math.exp(t_read_us / tau_us)


def weighted_mean(values: SeqABC[float], sigmas: SeqABC[float]) -> tuple[float, float]:
    """Inverse-variance weighted mean and its standard error."""
    if len(values) != len(sigmas):
        raise DomainError("values and sigmas must have equal length")
    if not values:
        raise DomainError("need at least one value")
    if any(s <= 0.0 for s in sigmas):
        raise DomainError("sigmas must be strictly positive")
    weights = [1.0 / (s * s) for s in sigmas]
    total = sum(weights)
    mean = sum(w * x for w, x in zip(weights, values)) / total
    return mean, 1.0 / math.sqrt(total)


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
                   rails_cal: Iterable[RailCalibration], *,
                   empty_tol: float = 0.01) -> CriteriaReport:
    """Evaluate the three random-access memory criteria on a trace.

    interaction_free: every write-to-read pair with intervening operations
    on other rails retrieves within ``INTERACTION_TOL`` of the analytic
    no-intervention prediction. empty_state: every read of a rail holding
    no live component returns at most ``empty_tol`` of the reference
    retrieval ``REFERENCE_ENERGY``. full_retrieval: every immediate re-read
    (adjacent operations, same rail) returns at most
    (1 - dep(0)) + ``REREAD_TOL`` of the preceding read, re-reads of empty
    rails excluded.

    The trace is replayed to verify it belongs to the sequence and to
    observe per-read occupancy; a mismatch raises TraceMismatchError.
    """
    rails_cal = tuple(rails_cal)
    if len(trace.events) != len(seq.ops):
        raise TraceMismatchError("trace length differs from sequence length")
    mem = engine.Memory(params, rails_cal)
    outs: list[float] = []
    live_before: list[bool | None] = []
    for op, ev in zip(seq.ops, trace.events):
        if (ev.t_ns, ev.kind, ev.f_rail) != (op.t_ns, op.kind, op.f_rail):
            raise TraceMismatchError("trace event does not match its operation")
        if op.kind is OpKind.READ:
            live_before.append(mem.stored_on(op.f_rail) > 1e-12)
        else:
            live_before.append(None)
        out = mem.apply(op)
        if abs(out - ev.out_energy) > 1e-9 * max(1.0, abs(out)):
            raise TraceMismatchError("trace energies do not match a replay")
        outs.append(out)

    # interaction-free: write -> first read pairs that bracket foreign ops
    worst_interaction = 0.0
    for rail in seq.rails:
        pending: int | None = None
        for i, op in enumerate(seq.ops):
            if op.f_rail != rail:
                continue
            if op.kind is OpKind.WRITE:
                pending = i
            elif op.kind is OpKind.READ and pending is not None:
                iw, ir = pending, i
                pending = None
                foreign = any(seq.ops[j].f_rail != rail for j in range(iw + 1, ir))
                if not foreign:
                    continue
                cal = _find_cal(rails_cal, rail)
                dt_us = (seq.ops[ir].t_ns - seq.ops[iw].t_ns) / engine.NS_PER_US
                predicted = seq.ops[iw].energy * cal.eta_mem * math.exp(-dt_us / cal.tau_us)
                worst_interaction = max(worst_interaction,
                                        abs(outs[ir] / predicted - 1.0))

    # empty state: reads of rails with no live component
    worst_empty = 0.0
    for i, op in enumerate(seq.ops):
        if op.kind is OpKind.READ and live_before[i] is False:
            worst_empty = max(worst_empty, outs[i] / REFERENCE_ENERGY)

    # full retrieval: immediate re-reads of a just-read rail
    worst_reread = 0.0
    threshold = (1.0 - physics.depletion_fraction(0.0, params)) + REREAD_TOL
    for i in range(1, len(seq.ops)):
        a, b = seq.ops[i - 1], seq.ops[i]
        if (a.kind is OpKind.READ and b.kind is OpKind.READ
                and a.f_rail == b.f_rail
                and outs[i - 1] >= empty_tol * REFERENCE_ENERGY):
            worst_reread = max(worst_reread, outs[i] / outs[i - 1])

    interaction = CriterionCheck(worst_interaction <= INTERACTION_TOL,
                                 worst_interaction / INTERACTION_TOL)
    empty = CriterionCheck(worst_empty <= empty_tol, worst_empty / empty_tol)
    reread = CriterionCheck(worst_reread <= threshold, worst_reread / threshold)
    return CriteriaReport(interaction, empty, reread)


def monte_carlo_overlap(params: PhysicsParams, n_atoms: int, d_um: float,
                        t_us: float, seed: int) -> float:
    """Brownian-walker estimate of the read overlap at displacement d, time t.

    Samples atom positions from the initial Gaussian (std sigma0 per
    axis), advances each by an independent Gaussian step of per-axis
    variance 2 D t, and returns the mean read sampling weight at
    displacement d normalized by the coaxial mean over the same advanced
    cloud. The estimator is therefore exactly 1 at d = 0 and consistent
    with overlap_factor(d, spread_variance(sigma0², t, D)).

    The draw order is fixed (x origins, y origins, x steps, y steps), so
    the result is bit-reproducible for a given (seed, n_atoms, d, t).
    """
    if n_atoms < 1000:
        raise DomainError("need at least 1e3 atoms for a meaningful estimate")
    if t_us < 0.0:
        raise DomainError("time must be non-negative")
    rng = np.random.default_rng(seed)
    n = int(n_atoms)
    x = rng.normal(0.0, params.sigma0, n)
    y = rng.normal(0.0, params.sigma0, n)
    if t_us > 0.0:
        diff = physics.diffusion_coefficient(params)
        step = math.sqrt(2.0 * diff * 100.0 * t_us)
        x = x + rng.normal(0.0, step, n)
        y = y + rng.normal(0.0, step, n)
    v = physics.read_sampling_variance_um2(params)
    w_d = np.exp(-(((x - d_um) ** 2) + y * y) / (2.0 * v))
    w_0 = np.exp(-((x * x) + y * y) / (2.0 * v))
    return float(np.mean(w_d) / np.mean(w_0))
