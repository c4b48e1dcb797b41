import hashlib
import math
import random
from array import array
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import reference_engine
from vapormem import cli, core, engine, harness, physics, seqlang
from vapormem.core import (
    DomainError,
    DuplicateRailError,
    OpKind,
    Operation,
    OutOfBandError,
    ParamError,
    RailCalibration,
    Sequence,
    TimeOrderError,
    UnknownRailError,
    VaporMemError,
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
# the windowed renderer matches the full-span one bit for bit (TestRenderWindows).
# This is what the numpy renderer wrote on its C-library exp path, i.e. under
# NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"; the render now uses
# math.exp and writes these bytes on every host
PINNED_WAVEFORM_SHA256 = "9f19ccf2ee010bd4ff4861a632d6682e3c38757466ac3f6deeeb43495d50796e"


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
        # stored_on raises UnknownRailError for a rail with no calibration
        assert [mem.stored_on(c.f_rail) for c in RAILS] == [0.0] * 4
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

    @pytest.mark.parametrize("change,quantity", [
        (dict(t_cell=1e308), "diffusion coefficient"),
        (dict(w_control=1e308), "read sampling variance"),
        # each position is finite, but d² between 170 and 230 MHz is not: a
        # read of a component spread to variance inf would compute inf / inf
        (dict(pos_per_mhz=1e153), "squared distance between rails 170 and 230 MHz"),
    ])
    def test_overflowing_constant_rejected_at_construction(self, change, quantity):
        # each is computed once per memory, not on every read
        with pytest.raises(DomainError, match=quantity):
            engine.Memory(core.replace(P, **change), RAILS)


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
        p = core.replace(P, pump_fidelity=0.75)
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
        # the snapshot holds the stored state; a read sees the component centred
        # on its rail, with its rail's lifetime and the variance of its age
        mem = fresh()
        mem.write(190.0, 100.0, 1.0)
        amplitude = mem.stored_on(190.0)
        assert amplitude == math.sqrt(0.35)
        assert mem.components == [core.SpinWaveComponent(amplitude, 100.0)]
        s2 = physics.spread_variance_um2(P.sigma0 ** 2, 1.0, physics.diffusion_coefficient(P))
        d = abs(physics.rail_position_um(210.0, P) - physics.rail_position_um(190.0, P))
        expected = (amplitude * RAILS[2].eta_read * math.exp(-1.0 / 5.4)
                    * physics._overlap(d, s2, physics.read_sampling_variance_um2(P)))
        assert expected > 0.0
        assert mem.read(210.0, 1100.0) == expected

    @given(energy=st.floats(1e-6, 1e3))
    def test_energy_accounting_exact(self, energy):
        mem = fresh()
        leak = mem.write(190.0, 0.0, energy)
        assert leak + mem.components[0].amplitude == energy

    def test_zero_energy_rejected(self):
        # the Operation the write builds refuses it, before the memory changes
        mem = fresh()
        with pytest.raises(ParamError, match="strictly positive"):
            mem.write(190.0, 0.0, 0.0)
        assert mem.components == []

    def test_second_write_fully_depletes_first(self):
        mem = fresh()
        mem.write(190.0, 0.0, 1.0)
        mem.write(190.0, 400.0, 1.0)
        # the first component was zeroed exactly, so only the second remains
        [c] = mem.components
        assert c.t_birth_ns == 400.0
        assert c.amplitude == pytest.approx(math.sqrt(0.35), rel=1e-12)

    def test_unknown_rail(self):
        # write, read and pump print the sentence of E003
        sentence = r"^rail 195 MHz has no calibration \(calibrated rails: 170, 190, 210, 230 MHz\)$"
        for method in ("write", "read", "pump"):
            with pytest.raises(UnknownRailError, match=sentence):
                getattr(fresh(), method)(195.0, 0.0)

    def test_infinite_amplitude_depleted_on_rail_rejected(self):
        # the write refuses an infinite energy, so no infinite amplitude is
        # stored for a later depletion to turn into NaN (inf * (1 - dep(0)))
        mem = fresh()
        with pytest.raises(ParamError, match="^operation energy must be finite$"):
            mem.write(190.0, 0.0, math.inf)
        assert mem.components == []

    def test_nan_energy_rejected(self):
        mem = fresh()
        with pytest.raises(ParamError, match="^operation energy must be finite$"):
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
        # the Operation each builds owns the time's bounds; the memory, its clock
        for t_ns in (math.nan, math.inf):
            with pytest.raises(ParamError, match="time must be finite"):
                mem.read(190.0, t_ns)
            with pytest.raises(ParamError, match="time must be finite"):
                mem.write(190.0, t_ns, 1.0)
            assert mem.t_now_ns == 1000.0
        with pytest.raises(TimeOrderError):
            mem.read(190.0, 0.0)
        assert mem.read(190.0, 1400.0) > 0.0  # the stored component was kept too

    def test_spread_past_a_float_reads_with_overlap_one(self):
        # under d0 = 4e303 a component 2 us old has variance inf, the limit in
        # which the displaced read's overlap exp(-d² / (2 (s2 + v))) is 1.0.
        # That term (0.431 x stored) is more than has left the home mode, so
        # the read returns what has (0.310 x)
        mem = engine.Memory(HOT, RAILS)
        mem.write(190.0, 0.0, 1.0)
        stored = mem.stored_on(190.0)
        decay = math.exp(-2.0 / RAILS[1].tau_us)
        d = abs(physics.rail_position_um(210.0, HOT) - physics.rail_position_um(190.0, HOT))
        home = stored * (1.0 - physics.depletion_fraction(d, HOT))
        assert stored * RAILS[2].eta_read * decay > stored - home * decay
        assert mem.read(210.0, 2000.0) == stored - home * decay
        assert mem.t_now_ns == 2000.0

    def test_signal_radius_sets_the_initial_variance(self):
        # sigma0 follows w_signal: a 300 um signal beam starts components at 150 um
        p = core.replace(P, w_signal=300.0)
        assert p.sigma0 == 150.0
        mem = engine.Memory(p, RAILS)
        mem.write(190.0, 0.0, 1.0)
        amplitude = mem.stored_on(190.0)
        age_us = 0.4
        s2 = 150.0 ** 2 + 2.0 * physics.diffusion_coefficient(p) * 100.0 * age_us
        d = abs(physics.rail_position_um(210.0, p) - physics.rail_position_um(190.0, p))
        expected = (amplitude * RAILS[2].eta_read * math.exp(-age_us / 5.4)
                    * math.exp(-(d * d) / (2.0 * (s2 + physics.read_sampling_variance_um2(p)))))
        assert expected > 0.0
        assert mem.read(210.0, age_us * US) == expected


class TestOffRailReads:
    # uncapped, a spreading component's overlap with a neighbour's read grows,
    # and these two programs returned 5.39 x and 7.77 x what was stored
    @example(f_read=210, n_reads=1999, gap_ns=48.0)
    @example(f_read=208, n_reads=1999, gap_ns=48.0)
    @given(f_read=st.integers(194, 214), n_reads=st.integers(1, 400),
           gap_ns=st.sampled_from([10.0, 48.0, 200.0]))
    def test_reads_return_at_most_what_was_stored(self, f_read, n_reads, gap_ns):
        # 10 ns is below the switching time, so the ops go to the memory directly
        neighbour = core.replace(RAILS[2], f_rail=float(f_read))
        mem = engine.Memory(P, (RAILS[1], neighbour))
        mem.write(190.0, 0.0, 1.0)
        stored = mem.stored_on(190.0)
        out = [mem.read(float(f_read), k * gap_ns) for k in range(1, n_reads + 1)]
        assert math.fsum(out) <= math.nextafter(stored, math.inf)

    def test_reads_after_the_largest_writes_sum_to_a_float(self):
        # under d0 = 1e12, writes of 1.7e308 on the four rails, then a read on
        # 190 MHz: uncapped, its terms summed past a float
        energy = "17" + "0" * 307
        seq = seqlang.parse("SEQUENCE s\nRAILS 170MHz 190MHz 210MHz 230MHz\n"
                            + "".join(f"AT {100 * i}ns WRITE {f}MHz {energy}\n"
                                      for i, f in enumerate((170, 190, 210, 230)))
                            + "AT 500ns READ 190MHz\n")
        trace = engine.run_sequence(engine.Memory(core.replace(P, d0=1e12), RAILS), seq)
        assert all(math.isfinite(ev.out_energy) and math.isfinite(ev.stored_after)
                   for ev in trace)
        # what was stored sums past a float too, so it is summed exactly
        stored = sum(Fraction(ev.stored_after) for ev in trace if ev.kind is OpKind.WRITE)
        assert Fraction(trace.events[-1].out_energy) <= stored


class TestStateEvolution:
    def test_variance_only_grows(self):
        # a pump on 230 MHz, 1350 um away, moves the clock and depletes nothing
        diff = physics.diffusion_coefficient(P)
        mem = fresh()
        mem.write(190.0, 0.0, 1.0)
        seen = []
        for t in (0.0, 0.4, 1.0, 2.0, 5.0):
            mem.pump(230.0, t * US)
            [c] = mem.components
            age_us = (mem.t_now_ns - c.t_birth_ns) / US
            seen.append(physics.spread_variance_um2(P.sigma0 ** 2, age_us, diff))
        assert seen[0] == P.sigma0 ** 2
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

    # each op's Operation checks its time, then (a write) its energy; then the
    # memory checks the rail, then the clock. 200 MHz is in band but
    # uncalibrated, -1.0 is no energy, 500 ns is past. The pump on 230 MHz
    # sets the clock to 1000 ns and leaves 190 MHz's pulse
    @pytest.mark.parametrize("method, args, error", [
        ("write", (200.0, 500.0, -1.0), ParamError),
        ("write", (190.0, 500.0, -1.0), ParamError),
        ("write", (190.0, 500.0, 1.0), TimeOrderError),
        ("read", (200.0, 500.0), UnknownRailError),
        ("read", (190.0, 500.0), TimeOrderError),
        ("pump", (200.0, 500.0), UnknownRailError),
        ("pump", (190.0, 500.0), TimeOrderError),
        ("write", (200.0, 500.0, 1.0), UnknownRailError),
        ("write", (200.0, -1.0, 1.0), ParamError),
        # an int past a float is no time or energy, and a sentence that
        # names it as a rail prints its digits
        ("read", (190.0, 10**400), ParamError),
        ("write", (190.0, 1500.0, 10**400), ParamError),
        ("write", (10**400, 0.0), UnknownRailError),
        ("stored_on", (10**400,), UnknownRailError),
        # and one past the 4300 digits that str() of an int prints
        ("write", (10**5000, 0.0), UnknownRailError),
        ("stored_on", (10**5000,), UnknownRailError),
    ])
    def test_failed_op_raises_in_check_order_and_changes_nothing(self, method, args, error):
        mem = fresh()
        mem.write(190.0, 0.0, 1.0)
        mem.pump(230.0, 1000.0)
        before = {c.f_rail: mem.stored_on(c.f_rail) for c in RAILS}
        with pytest.raises(VaporMemError) as raised:
            getattr(mem, method)(*args)
        assert type(raised.value) is error
        assert mem.t_now_ns == 1000.0
        assert {c.f_rail: mem.stored_on(c.f_rail) for c in RAILS} == before
        assert before[190.0] > 0.0


# a Fraction past a float, whose sentences name it by its 5001 digits, more
# than the 4300 that str() of an int prints; and a finite Decimal past a
# float, which float() rounds to inf, named by its 401 digits
FRACTION_PAST_A_FLOAT = Fraction(10**5000)
DIGITS_5001 = "1" + "0" * 5000
DECIMAL_PAST_A_FLOAT = Decimal("1e400")
DIGITS_401 = "1" + "0" * 400


@pytest.mark.parametrize("call, digits", [
    (lambda: fresh().write(FRACTION_PAST_A_FLOAT, 0.0), DIGITS_5001),
    (lambda: fresh().stored_on(FRACTION_PAST_A_FLOAT), DIGITS_5001),
    (lambda: harness.scan_lifetime(P, RAILS, FRACTION_PAST_A_FLOAT, [1.0]), DIGITS_5001),
    (lambda: fresh().write(DECIMAL_PAST_A_FLOAT, 0.0), DIGITS_401),
    (lambda: fresh().stored_on(DECIMAL_PAST_A_FLOAT), DIGITS_401),
    (lambda: harness.scan_lifetime(P, RAILS, DECIMAL_PAST_A_FLOAT, [1.0]), DIGITS_401),
    # a Decimal infinity or NaN is no number past a float, and reads as a float's
    (lambda: fresh().write(Decimal("-Infinity"), 0.0), "-inf"),
    (lambda: fresh().stored_on(Decimal("NaN")), "nan"),
], ids=["write", "stored_on", "scan_lifetime", "decimal-write", "decimal-stored_on",
        "decimal-scan_lifetime", "decimal-infinity", "decimal-nan"])
def test_fraction_past_a_float_is_an_unknown_rail(call, digits):
    with pytest.raises(UnknownRailError, match=f"^rail {digits} MHz has no calibration "):
        call()


def test_fraction_past_a_float_is_out_of_band():
    for rail, digits in [(FRACTION_PAST_A_FLOAT, DIGITS_5001), (DECIMAL_PAST_A_FLOAT, DIGITS_401),
                         (-DECIMAL_PAST_A_FLOAT, "-" + DIGITS_401), (Decimal("Infinity"), "inf"),
                         (Decimal("NaN"), "nan")]:
        seq = Sequence("s", (rail,), ())
        assert [(d.code, d.line, d.message) for d in seqlang.validate(seq, P)] == [
            ("E002", 0, f"rail {digits} MHz outside deflector band [150, 250] MHz")]


DEFAULT_MHZ = [c.f_rail for c in RAILS]


def op_steps(rail):
    """Up to 80 drawn (kind, rail, gap to the next op in ns, write energy)."""
    return st.lists(st.tuples(st.sampled_from(list(OpKind)), rail, st.integers(48, 3000),
                              st.floats(1e-3, 10.0)), max_size=80)


STEPS = op_steps(st.sampled_from(DEFAULT_MHZ))
# steps that may also address any whole MHz in the band
NEIGHBOUR_STEPS = op_steps(st.sampled_from(DEFAULT_MHZ) | st.integers(150, 250).map(float))


def steps_program(steps) -> Sequence:
    """Program from drawn (kind, rail, gap, energy) on the default rails and
    every rail a step names, which validate accepts: rails closer than 20 MHz
    get W001 and nothing else."""
    ops, t = [], 0
    for kind, rail, gap, energy in steps:
        ops.append(Operation(float(t), kind, rail, energy if kind is OpKind.WRITE else 1.0))
        t += gap
    rails = tuple(sorted({*DEFAULT_MHZ, *(rail for _, rail, _, _ in steps)}))
    seq = Sequence("random", rails, tuple(ops))
    assert {d.code for d in seqlang.validate(seq, P)} <= {"W001"}
    return seq


def calibrations(seq: Sequence) -> tuple[RailCalibration, ...]:
    """The default calibrations, and for each other rail of seq its nearest default rail's."""
    return RAILS + tuple(core.replace(min(RAILS, key=lambda c: abs(c.f_rail - f)), f_rail=f)
                         for f in seq.rails if f not in DEFAULT_MHZ)


def assert_trace_equals_reference(params, seq: Sequence) -> None:
    """run_sequence gives, float for float, the trace of tests/reference_engine.py."""
    rails = calibrations(seq)
    trace = engine.run_sequence(engine.Memory(params, rails), seq)
    assert list(trace) == reference_engine.run(params, rails, seq)


# direct-call arguments: good values, values each check refuses, and floats
# of every kind; 200 MHz is in band but uncalibrated, 500 ns is before the clock
ARG_RAILS = st.sampled_from([*DEFAULT_MHZ, 200.0, math.nan, 10**400]) | st.floats()
ARG_TIMES = st.sampled_from([1000.0, 1500.0, 500.0, -1.0, math.nan, math.inf,
                             10**400, 2000]) | st.floats()
ARG_ENERGIES = st.sampled_from([1.0, 0.0, -1.0, math.nan, math.inf, -math.inf,
                                10**400, 3]) | st.floats()


class TestOnePath:
    @example(kind=OpKind.WRITE, f_rail=190.0, t_ns=math.nan, energy=1.0)
    @given(kind=st.sampled_from(list(OpKind)), f_rail=ARG_RAILS, t_ns=ARG_TIMES,
           energy=ARG_ENERGIES)
    def test_direct_call_is_apply_of_its_operation(self, kind, f_rail, t_ns, energy):
        # write, read and pump build an Operation and apply it, so on twin
        # memories they raise or return as apply does and leave the same state
        def outcome(call):
            mem = fresh()
            mem.write(190.0, 0.0, 1.0)
            mem.pump(230.0, 1000.0)
            try:
                value = call(mem)
            except VaporMemError as exc:
                value = type(exc)
            return value, mem.t_now_ns, [mem.stored_on(f) for f in DEFAULT_MHZ]

        extra = (energy,) if kind is OpKind.WRITE else ()
        direct = outcome(lambda mem: getattr(mem, kind.value.lower())(f_rail, t_ns, *extra))
        applied = outcome(lambda mem: mem.apply(Operation(t_ns, kind, f_rail, *extra)))
        if kind is OpKind.PUMP and applied[0] == 0.0:
            applied = (None, *applied[1:])  # pump returns None where apply gives 0.0
        assert direct == applied


class TestPool:
    @given(steps=STEPS)
    def test_at_most_one_live_component_per_rail(self, steps):
        seq = steps_program(steps)
        mem = fresh()
        for op in seq.ops:
            mem.apply(op)
            assert len(mem.components) <= len(RAILS)
            assert all(c.amplitude > 0.0 for c in mem.components)

    # The reference computes each read's variance from the component's age,
    # so equal traces show the engine carries no other variance state. Rails
    # off the four get a copy of the nearest one's calibration, and the pump
    # fidelity is drawn. The examples: an off-rail cap that binds at the 78th
    # read; then the same drain cut by a pump or a write on the read rail,
    # neither of which may draw from the 190 MHz component's budget
    @example(steps=[(OpKind.WRITE, 190.0, 200, 1.0)] + [(OpKind.READ, 210.0, 200, 1.0)] * 79,
             fidelity=1.0)
    @example(steps=[(OpKind.WRITE, 190.0, 200, 1.0)] + [(OpKind.READ, 210.0, 200, 1.0)] * 70
             + [(OpKind.PUMP, 210.0, 200, 1.0)] + [(OpKind.READ, 210.0, 200, 1.0)] * 9,
             fidelity=1.0)
    @example(steps=[(OpKind.WRITE, 190.0, 200, 1.0)] + [(OpKind.READ, 210.0, 200, 1.0)] * 77
             + [(OpKind.WRITE, 230.0, 200, 1.0)] + [(OpKind.READ, 210.0, 200, 1.0)] * 2,
             fidelity=1.0)
    @given(steps=NEIGHBOUR_STEPS, fidelity=st.sampled_from([1.0, 0.0]) | st.floats(0.0, 1.0))
    def test_variance_follows_age(self, steps, fidelity):
        assert_trace_equals_reference(core.replace(P, pump_fidelity=fidelity),
                                      steps_program(steps))

    def test_variance_follows_age_on_long_program(self):
        assert_trace_equals_reference(P, random_program(random.Random(0), 2000))

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

    def test_warning_does_not_block(self):
        # rails 8 MHz apart get W001 only; with a calibration for 198 MHz,
        # made from 190 MHz's, the memory runs the program
        seq = seqlang.parse("SEQUENCE close\nRAILS 190MHz 198MHz\n"
                            "AT 0ns WRITE 190MHz\nAT 400ns READ 198MHz\n")
        assert [d.code for d in seqlang.validate(seq, P)] == ["W001"]
        rails = RAILS + (core.replace(RAILS[1], f_rail=198.0),)
        trace = engine.run_sequence(engine.Memory(P, rails), seq)
        assert [(ev.kind, ev.f_rail) for ev in trace] == [
            (OpKind.WRITE, 190.0), (OpKind.READ, 198.0)]
        assert trace.events[1].out_energy > 0.0

    def test_pump_events_record_zero_energy(self):
        seq = Sequence("p", (190.0,), (Operation(0.0, OpKind.PUMP, 190.0),))
        trace = engine.run_sequence(fresh(), seq)
        assert trace.events[0].out_energy == 0.0


# d0 = 4e303 keeps D and 2 D finite; a component's variance overflows once it
# is between 1097.5 and 1097.6 ns old
HOT = core.replace(P, d0=4e303)


def assert_runs_as_stepped(mem: engine.Memory, rails, seq: Sequence) -> None:
    """run_sequence accepts the program, and its events are the values that
    applying the ops one by one to an equal memory, built from mem's
    parameters and the given rails, gives."""
    stepped = engine.Memory(mem.params, rails)
    expected = [(stepped.apply(op), stepped.stored_on(op.f_rail)) for op in seq.ops]
    assert seqlang.validate(seq, mem.params, rails) == []
    trace = engine.run_sequence(mem, seq)
    assert [(ev.out_energy, ev.stored_after) for ev in trace] == expected


class TestDiagnose:
    def test_every_code_has_its_severity(self):
        # 140 MHz is outside the band and uncalibrated, 198 MHz is 8 MHz from
        # 190 MHz, and the two ops are 20 ns apart
        seq = seqlang.parse("SEQUENCE s\nRAILS 140MHz 190MHz 198MHz\n"
                            "AT 0ns WRITE 190MHz\nAT 20ns READ 190MHz\n")
        diags = seqlang.validate(seq, P, RAILS)
        assert {d.code: d.severity for d in diags} == {
            "E001": "error", "E002": "error", "E003": "error", "W001": "warning"}
        with pytest.raises(AttributeError):
            diags[0].severity = "warning"
        assert core.fields(diags[0]) == ("code", "line", "message")

    @given(rails=st.lists(st.sampled_from([140.0, 170.0, 190.0, 198.0, 210.0, 230.0, 260.0]),
                          min_size=1, max_size=4, unique=True),
           gaps=st.lists(st.sampled_from([20.0, 47.0, 48.0, 400.0]), max_size=5))
    def test_severity_is_error_exactly_for_e_codes(self, rails, gaps):
        times = [0.0]
        for gap in gaps:
            times.append(times[-1] + gap)
        seq = Sequence("s", tuple(rails), tuple(
            Operation(t, OpKind.WRITE, rails[k % len(rails)]) for k, t in enumerate(times)))
        for diags in (seqlang.validate(seq, P), seqlang.validate(seq, P, RAILS)):
            for d in diags:
                assert d.severity in ("error", "warning")
                assert (d.severity == "error") == d.code.startswith("E")

    def test_python_built_sequence_reports_line_0(self):
        seq = Sequence("s", (190.0, 198.0), (Operation(0.0, OpKind.WRITE, 190.0),))
        diags = seqlang.validate(seq, P, RAILS)
        assert [(d.code, d.line) for d in diags] == [("E003", 0), ("W001", 0)]

    def test_every_uncalibrated_rail_on_the_rails_line(self):
        cals = [c for c in RAILS if c.f_rail in (170.0, 230.0)]
        seq = seqlang.parse("SEQUENCE s\n# on line 3\nRAILS 190MHz 170MHz 210.5MHz\n")
        assert [(d.code, d.line, d.message) for d in seqlang.validate(seq, P, cals)] == [
            ("E003", 3, f"rail {f} MHz has no calibration (calibrated rails: 170, 230 MHz)")
            for f in ("190", "210.5")]

    @pytest.mark.parametrize("t_read", [1097.0, 1097.5, 1097.6, 2000.0])
    def test_read_either_side_of_the_variance_overflow_runs(self, t_read):
        seq = Sequence("late", (190.0, 210.0), (
            Operation(0.0, OpKind.WRITE, 190.0),
            Operation(400.0, OpKind.PUMP, 210.0),
            Operation(t_read, OpKind.READ, 210.0),
        ))
        mem = engine.Memory(HOT, RAILS)
        assert_runs_as_stepped(mem, RAILS, seq)
        assert mem.t_now_ns == t_read

    def test_read_long_after_the_first_write_runs(self):
        # the last read comes 2.1 us after the first write, but the component
        # it sees was written 100 ns before it
        seq = seqlang.parse("SEQUENCE s\nRAILS 190MHz\nAT 0ns WRITE 190MHz\n"
                            "AT 100ns READ 190MHz\nAT 2us WRITE 190MHz\n"
                            "AT 2100ns READ 190MHz\n")
        assert_runs_as_stepped(engine.Memory(HOT, RAILS), RAILS, seq)

    def test_snapshot_of_components_too_old_for_a_read(self):
        # a valid program (no read) leaves a component whose spread variance
        # would overflow; the snapshot holds stored state only, so it is taken
        seq = seqlang.parse("SEQUENCE s\nRAILS 190MHz 210MHz\nAT 0ns WRITE 190MHz\n"
                            "AT 5us WRITE 210MHz\n")
        mem = engine.Memory(HOT, RAILS)
        engine.run_sequence(mem, seq)
        with pytest.raises(DomainError, match="spread variance"):
            physics.spread_variance_um2(HOT.sigma0 ** 2, 5.0, physics.diffusion_coefficient(HOT))
        assert mem.stored_on(190.0) > 0.0
        assert mem.components == [core.SpinWaveComponent(mem.stored_on(190.0), 0.0),
                                  core.SpinWaveComponent(mem.stored_on(210.0), 5000.0)]


class TestRenderWaveform:
    def test_pulse_area_equals_energy(self):
        seq = Sequence("one", (190.0,), (
            Operation(0.0, OpKind.WRITE, 190.0),
            Operation(2000.0, OpKind.READ, 190.0),
        ))
        trace = engine.run_sequence(fresh(), seq)
        read_energy = trace.events[1].out_energy
        only_read = core.replace(trace, events=(trace.events[1],))
        t, y = engine.render_waveform(only_read, 1.0, span_ns=4000.0)
        trapezoid = getattr(np, "trapezoid", getattr(np, "trapz", None))
        assert trapezoid(y, t) == pytest.approx(read_energy, rel=1e-3)

    def test_returns_float64_buffers_numpy_views_without_copy(self):
        from vapormem.core import Trace, TraceEvent
        trace = Trace((TraceEvent(100.0, OpKind.READ, 190.0, 0.5, 0.0),))
        for buf in engine.render_waveform(trace, 1.0, span_ns=300.0):
            assert isinstance(buf, array) and buf.typecode == "d" and len(buf) == 300
            assert np.shares_memory(np.asarray(buf), buf)

    def test_empty_trace_is_flat(self):
        from vapormem.core import Trace
        t, y = engine.render_waveform(Trace(()), 1.0)
        assert np.all(np.asarray(y) == 0.0)
        assert len(t) == len(y) > 0

    def test_resolved_pulses(self):
        from vapormem.core import Trace, TraceEvent
        trace = Trace((
            TraceEvent(1000.0, OpKind.READ, 190.0, 1.0, 0.0),
            TraceEvent(1400.0, OpKind.READ, 190.0, 1.0, 0.0),
        ))
        t, y = engine.render_waveform(trace, 1.0, span_ns=2400.0)
        valley = y[np.argmin(np.abs(np.asarray(t) - 1200.0))]
        assert valley < 1e-6 * np.asarray(y).max()

    def test_noise_floor(self):
        from vapormem.core import Trace
        t, y = engine.render_waveform(Trace(()), 1.0,
                                      noise_floor=1e-4, span_ns=100.0)
        assert np.all(np.asarray(y) == 1e-4)

    def test_bad_period(self):
        from vapormem.core import Trace
        for period in (0.0, -1.0, math.nan, math.inf, 10**400):
            with pytest.raises(DomainError, match="^sample period must be finite and strictly"):
                engine.render_waveform(Trace(()), period)

    def test_period_that_is_zero_as_a_float(self):
        # above 0 as a Fraction, 0.0 as a float: the sample count divided by it
        from vapormem.core import Trace
        with pytest.raises(DomainError, match="^sample period must be finite and strictly"):
            engine.render_waveform(Trace(()), Fraction(1, 10**400))

    def test_fraction_period_renders_its_float_grid(self):
        from vapormem.core import Trace, TraceEvent
        trace = Trace((TraceEvent(100.0, OpKind.READ, 190.0, 0.5, 0.0),))
        t, y = engine.render_waveform(trace, Fraction(7, 10), span_ns=700.0)
        t_ref, y_ref = engine.render_waveform(trace, 0.7, span_ns=700.0)
        assert t.tobytes() == t_ref.tobytes() and y.tobytes() == y_ref.tobytes()

    def test_times_are_float_i_times_period(self):
        # float(i) * p for every sample, on both of _time_axis's paths, with n
        # one below, at and one past a chunk; each call's (n, period) differs
        # from the one before, so the one-entry cache never serves it
        from vapormem.core import Trace
        chunk = engine._RENDER_CHUNK
        for p in (1.0, 1, Fraction(1), 0.37, 2.5, Fraction(7, 10)):
            for n in (chunk - 1, chunk, chunk + 1):
                misses = engine._time_axis.cache_info().misses
                t, _ = engine.render_waveform(Trace(()), p, span_ns=(n - 0.5) * float(p))
                assert engine._time_axis.cache_info().misses == misses + 1
                assert t.tobytes() == array("d", [float(i) * p for i in range(n)]).tobytes()

    def test_editing_times_leaves_the_next_render_alone(self):
        from vapormem.core import Trace
        t, _ = engine.render_waveform(Trace(()), 1.0, span_ns=300.0)
        t[0], t[299] = -0.0, math.inf
        again, _ = engine.render_waveform(Trace(()), 1.0, span_ns=300.0)
        assert again.tobytes() == array("d", range(300)).tobytes()

    @pytest.mark.parametrize("period, span, floor", [
        (Fraction(1, 10**400), 100.0, 0.0), (math.nan, 100.0, 0.0), (1.0, math.inf, 0.0),
        (1.0, 100.0, -1.0), (1.0, 1e7 + 1, 0.0), (1e-9, 5600.0, 0.0)])
    def test_refused_render_builds_no_axis(self, period, span, floor):
        from vapormem.core import Trace
        before = engine._time_axis.cache_info()
        with pytest.raises(DomainError):
            engine.render_waveform(Trace(()), period, noise_floor=floor, span_ns=span)
        assert engine._time_axis.cache_info() == before

    @pytest.mark.parametrize("span", [-5.0, math.nan, math.inf,
                                      pytest.param(10**400, id="10**400")])
    def test_bad_span(self, span):
        from vapormem.core import Trace
        with pytest.raises(DomainError, match="^waveform span must be finite and non-negative$"):
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

    @pytest.mark.parametrize("floor", [math.nan, math.inf, -math.inf, -1.0, -1e-300,
                                       pytest.param(10**400, id="10**400")])
    def test_bad_noise_floor(self, floor):
        from vapormem.core import Trace
        with pytest.raises(DomainError, match="^noise floor must be finite and non-negative$"):
            engine.render_waveform(Trace(()), 1.0,
                                   noise_floor=floor, span_ns=100.0)

    def test_negative_zero_floor_renders_positive_zero(self):
        from vapormem.core import Trace, TraceEvent
        trace = Trace((TraceEvent(100.0, OpKind.READ, 190.0, 0.5, 0.0),))
        t, y = engine.render_waveform(trace, 1.0,
                                      noise_floor=-0.0, span_ns=5000.0)
        assert not np.any(np.signbit(y))
        ref = full_span_render(trace, 1.0, -0.0, 5000.0)
        assert np.array_equal(np.asarray(y).view(np.int64), ref.view(np.int64))


    @pytest.mark.parametrize("period, floor, span, message", [
        (Decimal("NaN"), 0.0, None, "sample period must be finite and strictly positive"),
        (1.0, Decimal("NaN"), None, "noise floor must be finite and non-negative"),
        (1.0, 0.0, Decimal("NaN"), "waveform span must be finite and non-negative"),
    ], ids=["period", "floor", "span"])
    def test_decimal_nan_gets_the_named_error(self, period, floor, span, message):
        from vapormem.core import Trace
        with pytest.raises(DomainError, match=f"^{message}$"):
            engine.render_waveform(Trace(()), period, noise_floor=floor, span_ns=span)

    @pytest.mark.parametrize("span", ["1", "450"])
    def test_decimal_span_renders_as_its_float(self, span):
        from vapormem.core import Trace, TraceEvent
        trace = Trace((TraceEvent(100.0, OpKind.READ, 190.0, 0.5, 0.0),))
        t, y = engine.render_waveform(trace, 1.0, noise_floor=Decimal("0.003"),
                                      span_ns=Decimal(span))
        t_ref, y_ref = engine.render_waveform(trace, 1.0, noise_floor=0.003, span_ns=float(span))
        assert t.tobytes() == t_ref.tobytes() and y.tobytes() == y_ref.tobytes()

def full_span_render(trace, period, floor, span):
    """The renderer without pulse windows: every pulse is added to every sample.

    One sample at a time, in event order, each Gaussian by ``math.exp``.
    """
    sigma = engine.SIGNAL_FWHM_NS / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    pulses = [(ev.t_ns, ev.out_energy * norm) for ev in trace.events if ev.out_energy > 0.0]
    y = []
    for i in range(math.ceil(span / period)):
        ti = i * period
        yi = float(floor)
        for t0, scale in pulses:
            d = ti - t0
            yi += scale * math.exp(-(d * d) / (2.0 * sigma * sigma))
        y.append(yi)
    return np.array(y)


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
        assert np.array_equal(np.asarray(y).view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_engine_trace_matches_full_span_render(self, seed):
        trace = engine.run_sequence(fresh(), random_program(random.Random(seed), 60))
        span = trace.events[-1].t_ns + 600.0
        for period, floor in ((1.0, 0.0), (0.37, 0.003)):
            _, y = engine.render_waveform(trace, period, noise_floor=floor)
            ref = full_span_render(trace, period, floor, span)
            assert np.array_equal(np.asarray(y).view(np.int64), ref.view(np.int64))

    def test_waveform_csv_is_pinned(self):
        trace = engine.run_sequence(fresh(), random_program(random.Random(1), 200))
        csv = cli.waveform_csv(*engine.render_waveform(trace, 1.0))
        assert hashlib.sha256(csv.encode()).hexdigest() == PINNED_WAVEFORM_SHA256

    # (centre, energy) on the 1 ns grid, a window reaching about 425 ns each way.
    # Over a 6000 ns span: 0, 200 and 300 clipped at sample 0 and overlapping;
    # 1500, 2500, 3500 and 4800 isolated, with 2500 and 4800 repeating 1500's
    # energy (a built window reused) and 3500 not; 3700 overlapping 3500; 5800
    # isolated and 5900 overlapping, both clipped at the span with the same
    # offset and different lengths; 6300 past the span but reaching into it;
    # 2**53 and beyond, and -2**53, with no sample in reach; 5000 with no
    # energy. Over 500 ns, 200 and 300 are clipped at both ends: the same
    # length at different offsets.
    GRID_PULSES = [(0.0, 1.0), (200.0, 0.4), (300.0, 0.4), (1500.0, 1.0), (2500.0, 1.0),
                   (3500.0, 0.4), (3700.0, 0.4), (4800.0, 1.0), (5000.0, 0.0), (5800.0, 0.37),
                   (5900.0, 0.37), (6300.0, 1.0), (2.0 ** 53, 1.0), (2.0 ** 53 + 2.0, 0.4),
                   (2.0 ** 60, 1.0), (-2.0 ** 53, 1.0)]

    @pytest.mark.parametrize("period", [1.0, 1])
    @pytest.mark.parametrize("floor", [-0.0, 0.0, 0.003])
    @pytest.mark.parametrize("order", ["time", "reversed"])
    @pytest.mark.parametrize("span", [6000.0, 500.0])
    def test_whole_ns_centres_match_full_span_render(self, period, floor, order, span):
        from vapormem.core import Trace, TraceEvent
        pulses = self.GRID_PULSES if order == "time" else self.GRID_PULSES[::-1]
        trace = Trace(tuple(TraceEvent(t0, OpKind.READ, 190.0, e, 0.0) for t0, e in pulses))
        t, y = engine.render_waveform(trace, period, noise_floor=floor, span_ns=span)
        ref = full_span_render(trace, period, floor, span)
        assert np.array_equal(t, np.arange(len(ref), dtype=float))
        assert np.array_equal(np.asarray(y).view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("centre", [math.inf, -math.inf, 700, 2**53, Fraction(1401, 2),
                                        Fraction(700), -0.0, 0.0, 700.5],
                             ids=["inf", "-inf", "int", "int-2**53", "fraction-half",
                                  "fraction-whole", "-0.0", "0.0", "float-half"])
    def test_centre_of_any_type_matches_full_span_render(self, centre):
        from vapormem.core import Trace, TraceEvent
        trace = Trace(tuple(TraceEvent(t0, OpKind.READ, 190.0, e, 0.0)
                            for t0, e in [(200.0, 0.4), (centre, 1.0), (1400.0, 0.4)]))
        _, y = engine.render_waveform(trace, 1.0, noise_floor=0.003, span_ns=1600.0)
        ref = full_span_render(trace, 1.0, 0.003, 1600.0)
        assert np.array_equal(np.asarray(y).view(np.int64), ref.view(np.int64))
