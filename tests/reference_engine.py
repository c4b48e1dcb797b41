"""The README's memory model restated plainly, as a reference for the engine.

One function per op kind acts on a dict of rail -> [amplitude, birth_ns,
drawn, a_birth], oldest write first: the amplitude stored on the rail,
the time of its write, what off-rail reads have drawn from it, and the
amplitude it was stored with. ``physics`` gives the constants of the
model (beam positions, depletion fractions, D and the read sampling
variance); every per-op expression is written out here, in the
engine's floating-point order, and nothing is shared with
``vapormem.engine``. ``run`` returns one TraceEvent per op, so a test can
compare them with ``==`` on every float.
"""

import math

from vapormem import physics
from vapormem.core import OpKind, TraceEvent


class Model:
    """What the ops read and never change: parameters, calibrations and constants."""

    def __init__(self, params, rails):
        self.params = params
        self.cal = {c.f_rail: c for c in rails}
        self.x = {f: physics.rail_position_um(f, params) for f in self.cal}
        self.diff = physics.diffusion_coefficient(params)
        self.v_read = physics.read_sampling_variance_um2(params)

    def distance(self, f_a, f_b):
        return abs(self.x[f_a] - self.x[f_b])


def _deplete(model, stored, f_op, fidelity):
    """Scale every component by 1 - fidelity * dep(d); drop those left at exactly 0.0."""
    for f, slot in stored.items():
        slot[0] = slot[0] * (1.0 - fidelity * physics.depletion_fraction(
            model.distance(f_op, f), model.params))
    for f in [f for f, slot in stored.items() if slot[0] == 0.0]:
        del stored[f]


def write(model, stored, op):
    """Deplete as a read does (dep(0) = 1 empties the rail), then store eta_write of the pulse."""
    _deplete(model, stored, op.f_rail, 1.0)
    kept = op.energy * model.cal[op.f_rail].eta_write
    stored[op.f_rail] = [kept, op.t_ns, 0.0, kept]
    return op.energy - kept


def read(model, stored, op):
    """Sum each component's amplitude * eta_read * exp(-age / tau) * overlap.

    The overlap is exp(-d² / (2 (s2 + v))) with s2 = sigma0² + 2 D age.
    A component on another rail gives at most max(a_birth - A_after * decay
    - drawn, 0), A_after its amplitude after this read's depletion, and
    what it gives is added to its drawn.
    """
    p = model.params
    eta_read = model.cal[op.f_rail].eta_read
    retrieved = 0.0
    for f, slot in stored.items():
        amplitude, birth_ns, drawn, a_birth = slot
        d = model.distance(op.f_rail, f)
        slot[0] = amplitude * (1.0 - physics.depletion_fraction(d, p))
        age_us = (op.t_ns - birth_ns) / 1000.0
        decay = math.exp(-age_us / model.cal[f].tau_us)
        s2 = p.sigma0 ** 2 + 2.0 * model.diff * 100.0 * age_us
        term = amplitude * eta_read * decay * math.exp(-(d * d) / (2.0 * (s2 + model.v_read)))
        if f != op.f_rail:
            term = min(term, max(a_birth - slot[0] * decay - drawn, 0.0))
            slot[2] = drawn + term
        retrieved += term
    for f in [f for f, slot in stored.items() if slot[0] == 0.0]:
        del stored[f]
    return retrieved


def pump(model, stored, op):
    """Deplete with the pump's fidelity; nothing is retrieved."""
    _deplete(model, stored, op.f_rail, model.params.pump_fidelity)
    return 0.0


OPS = {OpKind.WRITE: write, OpKind.READ: read, OpKind.PUMP: pump}


def run(params, rails, seq):
    """The trace events of seq on a memory with these parameters and calibrations."""
    model, stored, events = Model(params, rails), {}, []
    for op in seq.ops:
        out = OPS[op.kind](model, stored, op)
        slot = stored.get(op.f_rail)
        events.append(TraceEvent(op.t_ns, op.kind, op.f_rail, out,
                                 0.0 if slot is None else slot[0]))
    return events
