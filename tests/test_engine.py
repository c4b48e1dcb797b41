import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vapormem import cli, engine, harness, physics, seqlang
from vapormem.core import (
    DomainError,
    DuplicateRailError,
    OpKind,
    Operation,
    OutOfBandError,
    RailCalibration,
    Sequence,
    TimeOrderError,
    UnknownRailError,
    default_params,
    default_rails,
)

P = default_params()
RAILS = default_rails()
US = engine.NS_PER_US

# independently recomputed trace of the canonical 12-op program
# (flat arithmetic oracle, not the engine)
CANONICAL_TRACE_ENERGIES = [
    (0.0, OpKind.WRITE, 230.0, 0.4),
    (400.0, OpKind.WRITE, 210.0, 0.37550020016016017),
    (600.0, OpKind.READ, 210.0, 0.3675556145427057),
    (800.0, OpKind.READ, 210.0, 0.0006347480722667755),
    (1200.0, OpKind.READ, 170.0, 6.993717977786548e-23),
    (1600.0, OpKind.WRITE, 190.0, 0.4083920216900384),
    (2000.0, OpKind.READ, 170.0, 0.00035176350610692037),
    (2400.0, OpKind.WRITE, 170.0, 0.434314575050762),
    (2800.0, OpKind.READ, 170.0, 0.29267367210087747),
    (3200.0, OpKind.READ, 210.0, 0.004442484977213342),
    (3600.0, OpKind.READ, 190.0, 0.2416675656306121),
    (4400.0, OpKind.READ, 230.0, 0.06627391223322651),
]


# SHA-256 of the trace CSV of random_program(random.Random(0), 2000), recorded
# with each component's variance computed from its age (the per-op increment it
# replaced moved 81 of the 4000 outputs, by at most 1.44e-14 relative)
PINNED_TRACE_SHA256 = "d079c824638e24df0999ab025d16b04f85475b24fa8eebf40800676b3e3a65bc"

# SHA-256 of cli.waveform_csv of the default render (1 ns period) of the trace of
# random_program(random.Random(1), 200), recorded with the age-derived variance;
# the windowed renderer matches the full-span one bit for bit (TestRenderWindows)
PINNED_WAVEFORM_SHA256 = "b79cc170f9953db1b96d1cc21c7c849deeee980e75f799255c1d1ec9b416d551"


def fresh():
    return engine.Memory(P, RAILS)


def random_program(rng: random.Random, n_ops: int) -> Sequence:
    """Validator-clean program on the default rails: 45 % writes, 45 % reads, 10 % pumps."""
    rails = tuple(c.f_rail for c in RAILS)
    kinds = (OpKind.WRITE, OpKind.READ, OpKind.PUMP)
    ops, t = [], 0.0
    for _ in range(n_ops):
        kind = rng.choices(kinds, weights=(9, 9, 2))[0]
        energy = rng.uniform(0.1, 2.0) if kind is OpKind.WRITE else 1.0
        ops.append(Operation(t, kind, rng.choice(rails), energy))
        t += rng.randint(48, 400)
    return Sequence("random", rails, tuple(ops))


class TestConstruction:
    def test_starts_empty(self):
        mem = fresh()
        assert len(mem.rails) == 4
        assert mem.components == []
        assert mem.t_now_ns == 0.0

    def test_duplicate_rail_rejected(self):
        cal = RAILS[0]
        with pytest.raises(DuplicateRailError):
            engine.Memory(P, [cal, cal])

    def test_out_of_band_rail_rejected(self):
        bad = RailCalibration(260.0, 3.0, 0.1, 0.3)
        with pytest.raises(OutOfBandError):
            engine.Memory(P, [bad])

    def test_needs_a_rail(self):
        with pytest.raises(DomainError):
            engine.Memory(P, [])


class TestPump:
    def test_empties_addressed_rail(self):
        mem = fresh()
        mem.write(190.0, 0.0, 1.0)
        mem.pump(190.0, 400.0)
        # a component is dropped only when its amplitude is exactly 0.0
        assert mem.components == []
        assert mem.stored_on(190.0) == 0.0

    def test_noop_on_empty_memory(self):
        mem = fresh()
        mem.pump(190.0, 0.0)
        assert mem.components == []

    def test_distant_component_untouched(self):
        mem = fresh()
        mem.write(230.0, 0.0, 1.0)
        before = mem.components[0].amplitude
        mem.pump(190.0, 400.0)  # 1350 um away
        assert abs(mem.components[0].amplitude / before - 1.0) < 1e-6

    def test_partial_fidelity(self):
        p = dataclasses.replace(P, pump_fidelity=0.75)
        mem = engine.Memory(p, RAILS)
        mem.write(190.0, 0.0, 1.0)
        before = mem.components[0].amplitude
        mem.pump(190.0, 400.0)
        assert mem.components[0].amplitude == pytest.approx(0.25 * before, rel=1e-12)


class TestWrite:
    def test_split_on_rail_230(self):
        mem = fresh()
        leak = mem.write(230.0, 0.0, 1.0)
        assert mem.components[0].amplitude == pytest.approx(0.6, abs=1e-15)
        assert leak == pytest.approx(0.4, abs=1e-15)

    def test_component_geometry(self):
        mem = fresh()
        mem.write(190.0, 100.0, 1.0)
        c = mem.components[0]
        assert c.x_center == physics.rail_position_um(190.0, P)
        assert c.s2 == P.sigma0 ** 2
        assert c.t_birth_ns == 100.0
        assert c.tau_us == 5.4

    @given(energy=st.floats(1e-6, 1e3))
    def test_energy_accounting_exact(self, energy):
        mem = fresh()
        leak = mem.write(190.0, 0.0, energy)
        assert leak + mem.components[0].amplitude == energy

    def test_zero_energy_rejected(self):
        with pytest.raises(DomainError):
            fresh().write(190.0, 0.0, 0.0)

    def test_second_write_fully_depletes_first(self):
        mem = fresh()
        mem.write(190.0, 0.0, 1.0)
        mem.write(190.0, 400.0, 1.0)
        # the first component was zeroed exactly, so only the second remains
        [c] = mem.components
        assert c.t_birth_ns == 400.0
        assert c.amplitude == pytest.approx(math.sqrt(0.35), rel=1e-12)

    def test_unknown_rail(self):
        with pytest.raises(UnknownRailError):
            fresh().write(195.0, 0.0, 1.0)

    def test_infinite_amplitude_depleted_on_rail_rejected(self):
        # the write refuses an infinite energy, so no infinite amplitude is
        # stored for a later depletion to turn into NaN (inf * (1 - dep(0)))
        mem = fresh()
        with pytest.raises(DomainError, match="finite and strictly positive"):
            mem.write(190.0, 0.0, math.inf)
        assert mem.components == []

    def test_nan_energy_rejected(self):
        mem = fresh()
        with pytest.raises(DomainError, match="finite and strictly positive"):
            mem.write(190.0, 0.0, math.nan)
        assert mem.components == []


class TestRead:
    def test_standard_storage_experiment(self):
        mem = fresh()
        mem.write(190.0, 0.0, 1.0)
        out = mem.read(190.0, 0.4 * US)
        assert out == pytest.approx(0.35 * math.exp(-0.4 / 5.4), rel=1e-12)
        assert out == pytest.approx(0.3250110170626131, rel=1e-12)

    def test_immediate_reread_is_negligible(self):
        mem = fresh()
        mem.write(190.0, 0.0, 1.0)
        first = mem.read(190.0, 0.4 * US)
        second = mem.read(190.0, 0.8 * US)
        assert second <= 1e-2 * first
        assert second == 0.0  # single rail: full on-rail depletion

    def test_never_written_rail_returns_nothing(self):
        mem = engine.Memory(P, [c for c in RAILS if c.f_rail in (170.0, 230.0)])
        mem.write(230.0, 0.0, 1.0)
        assert mem.read(170.0, 0.4 * US) <= 1e-6

    def test_uses_read_rail_efficiency(self):
        # component on 190 read from 210: eta_read of the 210 rail applies
        mem = fresh()
        mem.write(190.0, 0.0, 1.0)
        out = mem.read(210.0, 0.4 * US)
        d = abs(physics.rail_position_um(210.0, P) - physics.rail_position_um(190.0, P))
        s2 = physics.spread_variance_um2(P.sigma0 ** 2, 0.4, physics.diffusion_coefficient(P))
        expect = (math.sqrt(0.35) * math.sqrt(0.39) * math.exp(-0.4 / 5.4)
                  * physics.overlap_factor(d, s2, P))
        assert out == pytest.approx(expect, rel=1e-12)

    def test_neighbor_read_leaves_stored_component(self):
        mem = fresh()
        mem.write(190.0, 0.0, 1.0)
        before = mem.components[0].amplitude
        mem.read(210.0, 0.4 * US)  # 675 um away
        after = mem.components[0].amplitude
        assert abs(after / before - 1.0) <= 0.01

    def test_time_order_enforced(self):
        mem = fresh()
        mem.write(190.0, 400.0, 1.0)
        with pytest.raises(TimeOrderError):
            mem.read(190.0, 399.0)
        mem.read(190.0, 400.0)  # same instant is allowed by the engine

    def test_nan_time_rejected_and_clock_kept(self):
        mem = fresh()
        mem.write(190.0, 1000.0, 1.0)
        for t_ns in (math.nan, math.inf):
            with pytest.raises(TimeOrderError, match="not finite"):
                mem.read(190.0, t_ns)
            with pytest.raises(TimeOrderError, match="not finite"):
                mem.write(190.0, t_ns, 1.0)
            assert mem.t_now_ns == 1000.0
        with pytest.raises(TimeOrderError):
            mem.read(190.0, 0.0)
        assert mem.read(190.0, 1400.0) > 0.0  # the stored component was kept too


class TestStateEvolution:
    def test_composability_of_advance(self):
        # a component's variance follows from its age alone, so moving the
        # clock in steps gives the same bits as one move; the off-rail read
        # samples the variance (an on-rail overlap is exp(-0) at any variance)
        direct = fresh()
        direct.write(190.0, 0.0, 1.0)
        a_off = direct.read(230.0, 1.0 * US)
        a = direct.read(190.0, 2.0 * US)

        stepped = fresh()
        stepped.write(190.0, 0.0, 1.0)
        stepped.advance(0.3 * US)
        stepped.advance(0.7 * US)
        b_off = stepped.read(230.0, 1.0 * US)
        stepped.advance(1.3 * US)
        b = stepped.read(190.0, 2.0 * US)
        assert b_off == a_off
        assert b == a

    def test_variance_only_grows(self):
        mem = fresh()
        mem.write(190.0, 0.0, 1.0)
        seen = [mem.components[0].s2]
        for t in (0.4, 1.0, 2.0, 5.0):
            mem.advance(t * US)
            seen.append(mem.components[0].s2)
        assert all(b > a for a, b in zip(seen, seen[1:]))

    def test_no_operation_increases_amplitudes(self):
        rng = np.random.default_rng(0)
        mem = fresh()
        t = 0.0
        for _ in range(60):
            t += float(rng.integers(48, 600))
            rail = float(rng.choice([170.0, 190.0, 210.0, 230.0]))
            # birth times are unique here; a dropped component counts as 0.0
            before = {c.t_birth_ns: c.amplitude for c in mem.components}
            kind = rng.integers(0, 3)
            if kind == 0:
                mem.write(rail, t, 1.0)
            elif kind == 1:
                mem.read(rail, t)
            else:
                mem.pump(rail, t)
            after = {c.t_birth_ns: c.amplitude for c in mem.components}
            assert after.keys() - before.keys() == ({t} if kind == 0 else set())
            assert all(after.get(k, 0.0) <= a for k, a in before.items())


STEPS = st.lists(st.tuples(
    st.sampled_from(list(OpKind)),
    st.sampled_from([c.f_rail for c in RAILS]),
    st.integers(48, 3000),
    st.floats(1e-3, 10.0),
), max_size=80)


def steps_program(steps) -> Sequence:
    """Validator-clean program on the default rails from drawn (kind, rail, gap, energy)."""
    ops, t = [], 0
    for kind, rail, gap, energy in steps:
        ops.append(Operation(float(t), kind, rail, energy if kind is OpKind.WRITE else 1.0))
        t += gap
    seq = Sequence("random", tuple(c.f_rail for c in RAILS), tuple(ops))
    assert seqlang.validate(seq, P) == []
    return seq


def assert_state_derived_from_rail_and_age(seq: Sequence) -> None:
    """After every op, each component's variance is sigma0² + 2 D age, exactly,
    and its centre and lifetime are those of the rail it was written on."""
    diff = physics.diffusion_coefficient(P)
    cals = {c.f_rail: c for c in RAILS}
    written_on = {}
    mem = fresh()
    for op in seq.ops:
        mem.apply(op)
        if op.kind is OpKind.WRITE:
            written_on[op.t_ns] = op.f_rail
        for c in mem.components:
            age_us = (mem.t_now_ns - c.t_birth_ns) / US
            assert c.s2 == physics.spread_variance_um2(P.sigma0 ** 2, age_us, diff)
            rail = written_on[c.t_birth_ns]
            assert c.x_center == physics.rail_position_um(rail, P)
            assert c.tau_us == cals[rail].tau_us


class TestPool:
    @given(steps=STEPS)
    def test_at_most_one_live_component_per_rail(self, steps):
        seq = steps_program(steps)
        mem = fresh()
        for op in seq.ops:
            mem.apply(op)
            assert len(mem.components) <= len(mem.rails)
            assert all(c.amplitude > 0.0 for c in mem.components)

    @given(steps=STEPS)
    def test_variance_follows_age(self, steps):
        assert_state_derived_from_rail_and_age(steps_program(steps))

    def test_variance_follows_age_on_long_program(self):
        assert_state_derived_from_rail_and_age(random_program(random.Random(0), 2000))

    def test_long_random_program_trace_is_pinned(self):
        seq = random_program(random.Random(0), 2000)
        csv = cli.trace_csv(engine.run_sequence(fresh(), seq))
        assert hashlib.sha256(csv.encode()).hexdigest() == PINNED_TRACE_SHA256


class TestRunSequence:
    def test_canonical_program_matches_hand_computation(self):
        trace = engine.run_sequence(fresh(), harness.random_access_sequence())
        assert len(trace) == 12
        for ev, (t, kind, f, out) in zip(trace, CANONICAL_TRACE_ENERGIES):
            assert ev.t_ns == t and ev.kind is kind and ev.f_rail == f
            assert ev.out_energy == pytest.approx(out, rel=1e-9, abs=1e-30)

    def test_stored_after_bookkeeping(self):
        trace = engine.run_sequence(fresh(), harness.random_access_sequence())
        assert trace.events[0].stored_after == pytest.approx(0.6, abs=1e-15)
        assert trace.events[2].stored_after == 0.0  # read empties its rail
        assert trace.events[4].stored_after == 0.0  # never-written rail

    def test_deterministic(self):
        seq = harness.random_access_sequence()
        assert engine.run_sequence(fresh(), seq) == engine.run_sequence(fresh(), seq)

    def test_empty_sequence(self):
        trace = engine.run_sequence(fresh(), Sequence("empty", (), ()))
        assert len(trace) == 0

    def test_switching_time_violation_aborts(self):
        seq = Sequence("tight", (190.0,), (
            Operation(0.0, OpKind.WRITE, 190.0),
            Operation(47.0, OpKind.READ, 190.0),
        ))
        mem = fresh()
        with pytest.raises(seqlang.ValidationFailure) as err:
            engine.run_sequence(mem, seq)
        assert any(d.code == "E001" for d in err.value.diagnostics)
        assert mem.components == []  # aborted before the first operation

    def test_pump_events_record_zero_energy(self):
        seq = Sequence("p", (190.0,), (Operation(0.0, OpKind.PUMP, 190.0),))
        trace = engine.run_sequence(fresh(), seq)
        assert trace.events[0].out_energy == 0.0


class TestRenderWaveform:
    def test_pulse_area_equals_energy(self):
        seq = Sequence("one", (190.0,), (
            Operation(0.0, OpKind.WRITE, 190.0),
            Operation(2000.0, OpKind.READ, 190.0),
        ))
        trace = engine.run_sequence(fresh(), seq)
        read_energy = trace.events[1].out_energy
        only_read = dataclasses.replace(trace, events=(trace.events[1],))
        t, y = engine.render_waveform(only_read, 1.0, span_ns=4000.0)
        trapezoid = getattr(np, "trapezoid", getattr(np, "trapz", None))
        assert trapezoid(y, t) == pytest.approx(read_energy, rel=1e-3)

    def test_empty_trace_is_flat(self):
        from vapormem.core import Trace
        t, y = engine.render_waveform(Trace(()), 1.0)
        assert np.all(y == 0.0)
        assert len(t) == len(y) > 0

    def test_resolved_pulses(self):
        from vapormem.core import Trace, TraceEvent
        trace = Trace((
            TraceEvent(1000.0, OpKind.READ, 190.0, 1.0, 0.0),
            TraceEvent(1400.0, OpKind.READ, 190.0, 1.0, 0.0),
        ))
        t, y = engine.render_waveform(trace, 1.0, span_ns=2400.0)
        valley = y[np.argmin(np.abs(t - 1200.0))]
        assert valley < 1e-6 * y.max()

    def test_noise_floor(self):
        from vapormem.core import Trace
        t, y = engine.render_waveform(Trace(()), 1.0,
                                      noise_floor=1e-4, span_ns=100.0)
        assert np.all(y == 1e-4)

    def test_bad_period(self):
        from vapormem.core import Trace
        for period in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                engine.render_waveform(Trace(()), period)

    @pytest.mark.parametrize("span", [-5.0, math.nan, math.inf])
    def test_bad_span(self, span):
        from vapormem.core import Trace
        with pytest.raises(DomainError):
            engine.render_waveform(Trace(()), 1.0, span_ns=span)

    @pytest.mark.parametrize("span,period,count", [
        (1e7 + 1, 1.0, "10000001"),
        (5600.0, 1e-9, "5600000000000"),
        (1e300, 1e-10, "inf"),  # the quotient overflows a float
    ])
    def test_sample_count_capped(self, span, period, count):
        from vapormem.core import Trace
        with pytest.raises(DomainError, match=f"^waveform has {count} samples, more than "
                                              f"{engine.MAX_WAVEFORM_SAMPLES}$"):
            engine.render_waveform(Trace(()), period, span_ns=span)

    @pytest.mark.parametrize("floor", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_bad_noise_floor(self, floor):
        from vapormem.core import Trace
        with pytest.raises(DomainError):
            engine.render_waveform(Trace(()), 1.0,
                                   noise_floor=floor, span_ns=100.0)

    def test_negative_zero_floor_renders_positive_zero(self):
        from vapormem.core import Trace, TraceEvent
        trace = Trace((TraceEvent(100.0, OpKind.READ, 190.0, 0.5, 0.0),))
        t, y = engine.render_waveform(trace, 1.0,
                                      noise_floor=-0.0, span_ns=5000.0)
        assert not np.any(np.signbit(y))
        ref = full_span_render(trace, 1.0, -0.0, 5000.0)
        assert np.array_equal(y.view(np.int64), ref.view(np.int64))


def full_span_render(trace, period, floor, span):
    """The renderer before pulse windows: every pulse is added over the whole span."""
    n = int(np.ceil(span / period))
    t = np.arange(n) * period
    y = np.full(n, float(floor))
    sigma = engine.SIGNAL_FWHM_NS / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    norm = 1.0 / (sigma * np.sqrt(2.0 * np.pi))
    for ev in trace.events:
        if ev.out_energy > 0.0:
            y += ev.out_energy * norm * np.exp(-((t - ev.t_ns) ** 2) / (2.0 * sigma * sigma))
    return y


class TestRenderWindows:
    """Pulses added only where they are nonzero give the full-span render bit for bit."""

    @staticmethod
    def events_trace(span, rng):
        from vapormem.core import Trace, TraceEvent
        times = [0.0, span, span - 0.5, 1e-3, rng.uniform(0.0, span), rng.uniform(0.0, span)]
        times += [rng.uniform(-600.0, span + 600.0) for _ in range(6)]
        events = [TraceEvent(t, OpKind.READ, 190.0, rng.choice([1.0, 0.4, 1e-12, 3.7e-5, 0.0]), 0.0)
                  for t in times]
        return Trace(tuple(events))

    @pytest.mark.parametrize("period", [1.0, 0.1, 0.37, 2.5, 7.0])
    @pytest.mark.parametrize("floor", [0.0, 0.003, 1e-5])
    @pytest.mark.parametrize("span", [0.0, 3.0, 450.0, 5000.0])
    def test_matches_full_span_render(self, period, floor, span):
        trace = self.events_trace(span, random.Random(f"{period}/{floor}/{span}"))
        t, y = engine.render_waveform(trace, period,
                                      noise_floor=floor, span_ns=span)
        ref = full_span_render(trace, period, floor, span)
        assert np.array_equal(t, np.arange(len(ref)) * period)
        assert np.array_equal(y.view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_engine_trace_matches_full_span_render(self, seed):
        trace = engine.run_sequence(fresh(), random_program(random.Random(seed), 60))
        span = trace.events[-1].t_ns + 600.0
        for period, floor in ((1.0, 0.0), (0.37, 0.003)):
            _, y = engine.render_waveform(trace, period, noise_floor=floor)
            ref = full_span_render(trace, period, floor, span)
            assert np.array_equal(y.view(np.int64), ref.view(np.int64))

    def test_waveform_csv_is_pinned(self):
        trace = engine.run_sequence(fresh(), random_program(random.Random(1), 200))
        csv = cli.waveform_csv(*engine.render_waveform(trace, 1.0))
        assert hashlib.sha256(csv.encode()).hexdigest() == PINNED_WAVEFORM_SHA256
