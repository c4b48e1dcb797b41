import math
from fractions import Fraction

import pytest
from hypothesis import example, given, reject, strategies as st

from corpus import CANONICAL, DOCUMENTS
from vapormem import core
from vapormem.core import (
    DuplicateRailError,
    OpKind,
    Operation,
    OutOfBandError,
    ParamError,
    Sequence,
    default_params,
)
from vapormem.physics import rail_position_um
from vapormem.seqlang import (
    MIN_CROSSTALK_FREE_SEPARATION_MHZ,
    Diagnostic,
    ParseError,
    format_sequence,
    parse,
    validate,
)

P = default_params()


@st.composite
def any_sequences(draw):
    """Sequences with any name, any rails and any finite energies, on or off the text."""
    name = draw(st.one_of(st.from_regex(r"[A-Za-z0-9_.-]{1,8}", fullmatch=True),
                          st.text(max_size=6)))
    rails = draw(st.lists(st.floats(), max_size=4))
    n_ops = draw(st.integers(0, 6)) if rails else 0
    ops, t = [], draw(st.floats(0.0, 1e6))
    for _ in range(n_ops):
        kind = draw(st.sampled_from(list(OpKind)))
        energy = draw(st.floats(allow_nan=False, allow_infinity=False))
        if kind is OpKind.WRITE:
            energy = abs(energy) or 1.0
        ops.append(Operation(t, kind, draw(st.sampled_from(rails)), energy))
        t += draw(st.floats(1e-3, 1e6))
    try:
        return Sequence(name, tuple(rails), tuple(ops))
    except DuplicateRailError:  # 0.0 and -0.0, or a rail drawn twice
        reject()

# 401 digits: a float of them overflows to inf
HUGE = "1" + "0" * 400

# every ParseError site: document, message, line, column; columns count
# characters, so a tab or any Unicode whitespace is one column
PARSE_ERRORS = [
    ("AT 0ns WRITE 190MHz\n", "expected SEQUENCE header", 1, 1),
    ("\t\tSEQUENCE\n", "SEQUENCE takes exactly one name", 1, 3),
    ("# c\nSEQUENCE a b\r\n", "SEQUENCE takes exactly one name", 2, 1),
    ("SEQUENCE s\r\n  SEQUENCE t\r\n", "duplicate SEQUENCE header", 2, 3),
    ("SEQUENCE s\nRAILS 190MHz\n\x0bRAILS 210MHz\n", "duplicate RAILS directive", 3, 2),
    ("SEQUENCE s\nRAILS # none\n", "RAILS needs at least one frequency", 2, 1),
    ("SEQUENCE s\nRAILS\u3000190\n", "malformed frequency '190'", 2, 7),
    ("SEQUENCE s\nRAILS 190MHz\x1f190MHz\n", "rail 190MHz declared twice", 2, 14),
    ("SEQUENCE s\nRAILS 190MHz\nAT 0ns WRITE\r\n",
     "expected AT <time> <verb> <freq> [energy]", 3, 1),
    ("SEQUENCE s\nRAILS 190MHz\n\tAT 0ms WRITE 190MHz\n", "malformed time '0ms'", 3, 5),
    ("SEQUENCE s\nRAILS 190MHz\nAT 0ns STORE 190MHz # x\n", "unknown operation 'STORE'", 3, 8),
    ("SEQUENCE s\nRAILS 190MHz\nAT  0ns\x0bWRITE 190Mhz\n",
     "malformed frequency '190Mhz'", 3, 15),
    ("SEQUENCE s\nRAILS 190MHz\nAT 0ns WRITE 210MHz\n",
     "operation on undeclared rail 210MHz", 3, 14),
    ("SEQUENCE s\nAT 0ns READ 190MHz", "operation on undeclared rail 190MHz", 2, 13),
    # tokens after ones already resolved to a declared rail
    ("SEQUENCE s\nRAILS 190MHz\nAT 0ns WRITE 190MHz\nAT 48ns READ 190.0MHz\n"
     "AT 96ns READ 190MHz\n AT 144ns READ 230MHz\n",
     "operation on undeclared rail 230MHz", 6, 16),
    ("SEQUENCE s\nRAILS 190MHz\nAT 0ns WRITE 190.0MHz\nAT 48ns READ 190.0MHz\n"
     "AT 96ns PUMP 190.0MHZ\n", "malformed frequency '190.0MHZ'", 5, 14),
    ("SEQUENCE s\nRAILS 190MHz\nAT 0ns READ 190MHz 0.5\n", "only WRITE takes an energy", 3, 20),
    ("SEQUENCE s\nRAILS 190MHz\nAT 0ns WRITE 190MHz 1e3\n", "malformed energy '1e3'", 3, 21),
    ("SEQUENCE s\nRAILS 190MHz\nAT 0ns WRITE 190MHz 0.0\u3000\n",
     "write energy must be strictly positive", 3, 21),
    ("SEQUENCE s\nRAILS 190MHz\nAT 1us WRITE 190MHz\r\nAT 999.5ns READ 190MHz\r\n",
     "operation time does not increase", 4, 4),
    ("SEQUENCE s\nRAILS 190MHz\n  HELLO there\n", "unknown directive 'HELLO'", 3, 3),
    ("# only\r\n\t\n", "missing SEQUENCE header", 1, 1),
    (f"SEQUENCE s\nRAILS 190MHz {HUGE}MHz\n", "frequency is too large", 2, 14),
    (f"SEQUENCE s\nRAILS 190MHz\nAT {HUGE}ns READ 190MHz\n", "time is too large", 3, 4),
    (f"SEQUENCE s\nRAILS 190MHz\nAT 0ns READ 190MHz\nAT {HUGE}us READ 190MHz\n",
     "time is too large", 4, 4),
    (f"SEQUENCE s\nRAILS 190MHz\nAT 0ns PUMP {HUGE}MHz\n", "frequency is too large", 3, 13),
    (f"SEQUENCE s\nRAILS 190MHz\nAT 0ns WRITE 190MHz {HUGE}\n", "energy is too large", 3, 21),
]

# short numbers, and numbers of 301 to 421 digits, which overflow a float
FUZZ_NUMBER = st.one_of(
    st.from_regex(r"[0-9]{1,4}(\.[0-9]{1,3})?", fullmatch=True),
    st.builds(lambda d, n: str(d) + "0" * n, st.integers(1, 9), st.integers(300, 420)),
)
FUZZ_FREQ = st.one_of(st.sampled_from(["190", "210"]), FUZZ_NUMBER)
FUZZ_OP = st.builds(
    "AT {}{} {}".format, FUZZ_NUMBER, st.sampled_from(["ns", "us"]),
    st.one_of(st.builds("WRITE {}MHz {}".format, FUZZ_FREQ, st.one_of(st.just(""), FUZZ_NUMBER)),
              st.builds("{} {}MHz".format, st.sampled_from(["READ", "PUMP"]), FUZZ_FREQ)))
FUZZ_TOKEN = st.one_of(
    st.sampled_from(["SEQUENCE", "RAILS", "AT", "WRITE", "READ", "PUMP", "190MHz", "#"]),
    st.builds("{}{}".format, FUZZ_NUMBER, st.sampled_from(["", "ns", "us", "MHz"])),
    st.text(max_size=4),
)
# arbitrary text, lines of grammar tokens, and programs of one to three operations
FUZZ_TEXT = st.one_of(
    st.text(),
    st.lists(st.lists(FUZZ_TOKEN, max_size=6).map(" ".join), max_size=8).map("\n".join),
    st.builds("SEQUENCE s\nRAILS 190MHz {}MHz\n{}".format, FUZZ_FREQ,
              st.lists(FUZZ_OP, min_size=1, max_size=3).map("\n".join)),
)


class TestParse:
    def test_reference_document(self):
        seq = parse("SEQUENCE s\nRAILS 190MHz\nAT 0us WRITE 190MHz\nAT 0.4us READ 190MHz")
        assert seq.name == "s"
        assert seq.rails == (190.0,)
        assert len(seq.ops) == 2
        assert seq.ops[0] == Operation(0.0, OpKind.WRITE, 190.0)
        assert seq.ops[1] == Operation(400.0, OpKind.READ, 190.0)

    def test_microsecond_conversion_is_exact(self):
        seq = parse("SEQUENCE s\nRAILS 190MHz\nAT 0.4us WRITE 190MHz")
        assert seq.ops[0].t_ns == 400.0
        seq = parse("SEQUENCE s\nRAILS 190MHz\nAT 0.123us WRITE 190MHz")
        assert seq.ops[0].t_ns == 123.0

    def test_default_energy(self):
        seq = parse("SEQUENCE s\nRAILS 190MHz\nAT 0ns WRITE 190MHz")
        assert seq.ops[0].energy == 1.0

    def test_explicit_energy(self):
        seq = parse("SEQUENCE s\nRAILS 190MHz\nAT 0ns WRITE 190MHz 0.25")
        assert seq.ops[0].energy == 0.25

    def test_source_lines_recorded(self):
        seq = parse(CANONICAL)
        assert seq.rails_line == 2
        assert seq.src_lines == tuple(range(3, 15))

    def test_empty_input_is_missing_header(self):
        with pytest.raises(ParseError, match="missing SEQUENCE header"):
            parse("")
        with pytest.raises(ParseError, match="missing SEQUENCE header"):
            parse("# only a comment\n\n")

    def test_op_before_rails_is_undeclared(self):
        with pytest.raises(ParseError, match="undeclared rail") as err:
            parse("SEQUENCE s\nAT 400ns READ 190MHz")
        assert err.value.line == 2

    def test_duplicate_rails_directive(self):
        with pytest.raises(ParseError, match="duplicate RAILS"):
            parse("SEQUENCE s\nRAILS 190MHz\nRAILS 210MHz\n")

    def test_duplicate_header(self):
        with pytest.raises(ParseError, match="duplicate SEQUENCE"):
            parse("SEQUENCE a\nSEQUENCE b\n")

    def test_lowercase_keywords_rejected(self):
        with pytest.raises(ParseError):
            parse("SEQUENCE s\nRAILS 190MHz\nAT 0ns write 190MHz")
        with pytest.raises(ParseError):
            parse("sequence s\n")

    def test_energy_only_on_write(self):
        with pytest.raises(ParseError, match="only WRITE"):
            parse("SEQUENCE s\nRAILS 190MHz\nAT 0ns READ 190MHz 0.5")

    def test_zero_energy_rejected(self):
        with pytest.raises(ParseError, match="strictly positive"):
            parse("SEQUENCE s\nRAILS 190MHz\nAT 0ns WRITE 190MHz 0")

    @pytest.mark.parametrize("doc,fragment", [
        ("SEQUENCE s\nRAILS 190\n", "malformed frequency"),
        ("SEQUENCE s\nRAILS 190MHz\nAT 0 WRITE 190MHz", "malformed time"),
        ("SEQUENCE s\nRAILS 190MHz\nAT 0ms WRITE 190MHz", "malformed time"),
        ("SEQUENCE s\nRAILS 190MHz\nAT 0ns STORE 190MHz", "unknown operation"),
        ("SEQUENCE s\nRAILS 190MHz\nAT 0ns WRITE 190MHz x", "malformed energy"),
        ("SEQUENCE s\nRAILS 190MHz\nAT 0ns WRITE", "expected AT"),
        ("SEQUENCE s\nHELLO\n", "unknown directive"),
        ("SEQUENCE s\nRAILS\n", "at least one frequency"),
        ("SEQUENCE\n", "exactly one name"),
    ])
    def test_syntax_errors(self, doc, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse(doc)

    def test_non_increasing_time_rejected_with_line(self):
        with pytest.raises(ParseError, match="does not increase") as err:
            parse("SEQUENCE s\nRAILS 190MHz\nAT 400ns WRITE 190MHz\nAT 400ns READ 190MHz")
        assert err.value.line == 4

    def test_error_columns_point_at_token(self):
        with pytest.raises(ParseError) as err:
            parse("SEQUENCE s\nRAILS 190MHz\nAT 0ns READ 210MHz")
        assert err.value.line == 3
        assert err.value.col == 13  # start of the frequency token

    @pytest.mark.parametrize("doc,message,line,col", PARSE_ERRORS,
                             ids=[m for _, m, _, _ in PARSE_ERRORS])
    def test_every_error_site_located(self, doc, message, line, col):
        with pytest.raises(ParseError) as err:
            parse(doc)
        assert str(err.value) == f"line {line}, col {col}: {message}"
        assert (err.value.line, err.value.col) == (line, col)

    @example(text=f"SEQUENCE s\nRAILS 190MHz\nAT {HUGE}ns READ 190MHz\n")
    @given(text=FUZZ_TEXT)
    def test_parse_yields_finite_values_or_parse_error(self, text):
        try:
            seq = parse(text)
        except ParseError:
            return
        assert all(math.isfinite(f) for f in seq.rails)
        assert all(math.isfinite(op.t_ns) and math.isfinite(op.f_rail)
                   and math.isfinite(op.energy) for op in seq.ops)
        # parse owns the per-op checks; the public constructors, which re-run
        # them, must accept what it built and build the same values
        assert all(core.replace(op) == op for op in seq.ops)
        assert Sequence(seq.name, seq.rails, seq.ops) == seq

    def test_one_rail_spelled_several_ways(self):
        seq = parse("SEQUENCE s\nRAILS 190MHz 0210.0MHz\nAT 0ns WRITE 190.0MHz\n"
                    "AT 48ns READ 190MHz\nAT 96ns WRITE 210MHz\nAT 144ns READ 190.00MHz\n"
                    "AT 192ns READ 190.0MHz\n")
        assert seq == Sequence("s", (190.0, 210.0), (
            Operation(0.0, OpKind.WRITE, 190.0),
            Operation(48.0, OpKind.READ, 190.0),
            Operation(96.0, OpKind.WRITE, 210.0),
            Operation(144.0, OpKind.READ, 190.0),
            Operation(192.0, OpKind.READ, 190.0),
        ))

    def test_whitespace_comments_and_crlf(self):
        doc = ("# header comment\r\n\tSEQUENCE\x0bws # name\r\n"
               "RAILS 190MHz\u3000210MHz\r\n\r\n"
               "\x1fAT 0ns WRITE 190MHz#no space before the comment\r\n"
               "AT 0.4us\tREAD 190.0MHz\r\n"
               "AT 800ns WRITE 210MHz 0.25\r\n")
        seq = parse(doc)
        assert seq == Sequence("ws", (190.0, 210.0), (
            Operation(0.0, OpKind.WRITE, 190.0),
            Operation(400.0, OpKind.READ, 190.0),
            Operation(800.0, OpKind.WRITE, 210.0, 0.25),
        ))
        assert seq.src_lines == (5, 6, 7)
        assert seq.rails_line == 3

    # the 40-digit time lies just above a midpoint between doubles; rounding it
    # to 28 digits first lands on the midpoint and rounds it to even, down
    @example(number="9007199254740993.0000000000000000000001", unit="ns")
    @example(number="0.0000000000000000000000000000001", unit="us")
    @given(number=st.from_regex(r"[0-9]{1,45}(\.[0-9]{1,45})?", fullmatch=True),
           unit=st.sampled_from(["ns", "us"]))
    def test_times_convert_through_decimal(self, number, unit):
        seq = parse(f"SEQUENCE s\nRAILS 190MHz\nAT {number}{unit} WRITE 190MHz\n")
        expected = float(Fraction(number) * (1000 if unit == "us" else 1))
        assert seq.ops[0].t_ns.hex() == expected.hex()


class TestFormat:
    def test_times_rendered_in_integer_ns(self):
        seq = parse("SEQUENCE s\nRAILS 190MHz\nAT 0.4us READ 190MHz")
        assert "AT 400ns READ 190MHz" in format_sequence(seq)
        # an integer in [1e15, 1e16) has a repr that ends in .0
        big = Sequence("s", (190.0,), (Operation(1234567890123456.0, OpKind.READ, 190.0),))
        text = format_sequence(big)
        assert "AT 1234567890123456ns READ 190MHz" in text
        assert parse(text) == big

    def test_default_energy_elided(self):
        seq = parse("SEQUENCE s\nRAILS 190MHz\nAT 0ns WRITE 190MHz 1\nAT 400ns READ 190MHz")
        text = format_sequence(seq)
        assert "AT 0ns WRITE 190MHz\n" in text

    def test_explicit_energy_kept(self):
        seq = parse("SEQUENCE s\nRAILS 190MHz\nAT 0ns WRITE 190MHz 0.25")
        assert "WRITE 190MHz 0.25" in format_sequence(seq)

    def test_fractional_time_kept(self):
        seq = parse("SEQUENCE s\nRAILS 190MHz\nAT 12.5ns WRITE 190MHz")
        assert "AT 12.5ns" in format_sequence(seq)

    def test_rail_order_preserved(self):
        seq = parse("SEQUENCE s\nRAILS 230MHz 170MHz\nAT 0ns WRITE 230MHz")
        assert "RAILS 230MHz 170MHz" in format_sequence(seq)

    def test_emits_unix_newlines(self):
        seq = parse("SEQUENCE crlf\r\nRAILS 190MHz\r\nAT 0ns WRITE 190MHz\r\n")
        assert "\r" not in format_sequence(seq)

    # the round-trip property's own check calls float() on a rail, which an
    # int past a float overflows, so these are not its examples
    @pytest.mark.parametrize("rail,name", [(10**5000, "1" + "0" * 5000),
                                           (-10**5000, "-1" + "0" * 5000)],
                             ids=["10**5000", "-10**5000"])
    def test_rail_past_a_float_is_refused_by_its_digits(self, rail, name):
        with pytest.raises(ParamError, match=f"^rail {name} is not a finite non-negative float$"):
            format_sequence(Sequence("s", (rail,), ()))


class TestRoundTrip:
    @pytest.mark.parametrize("doc", DOCUMENTS, ids=lambda d: d.split("\n", 1)[0][9:].strip())
    def test_corpus_fixpoint(self, doc):
        once = parse(doc)
        again = parse(format_sequence(once))
        assert again == once
        # and the canonical rendering is itself a fixed point
        assert format_sequence(again) == format_sequence(once)

    @given(data=st.data())
    def test_generated_sequences_round_trip(self, data):
        n_rails = data.draw(st.integers(1, 5))
        rails = data.draw(st.lists(
            st.floats(1.0, 1e4).map(lambda f: round(f, 3)),
            min_size=n_rails, max_size=n_rails, unique_by=lambda f: f))
        n_ops = data.draw(st.integers(0, 8))
        gaps = data.draw(st.lists(st.floats(1.0, 1e5), min_size=n_ops, max_size=n_ops))
        kinds = data.draw(st.lists(st.sampled_from(list(OpKind)),
                                   min_size=n_ops, max_size=n_ops))
        idx = data.draw(st.lists(st.integers(0, n_rails - 1),
                                 min_size=n_ops, max_size=n_ops))
        energies = data.draw(st.lists(st.floats(1e-3, 1e3),
                                      min_size=n_ops, max_size=n_ops))
        ops, t = [], 0.0
        for gap, kind, i, energy in zip(gaps, kinds, idx, energies):
            t += gap
            ops.append(Operation(t, kind, rails[i],
                                 energy if kind is OpKind.WRITE else 1.0))
        seq = Sequence("generated", tuple(rails), tuple(ops))
        assert parse(format_sequence(seq)) == seq

    # a read's energy is ignored, so it does not print; '#' starts a comment, a
    # space splits the header, and the grammar has no sign and no nan
    @example(Sequence("s", (190.0,), (Operation(0.0, OpKind.READ, 190.0, 5.0),)))
    @example(Sequence("a#b", (190.0,), ()))
    @example(Sequence("a b", (190.0,), ()))
    @example(Sequence("s", (-5.0,), ()))
    @example(Sequence("s", (math.nan,), ()))
    # an int no float equals would parse back as its nearest float
    @example(Sequence("s", (190.0,), (Operation(2**53 + 1, OpKind.READ, 190.0),)))
    @example(Sequence("s", (190.0,), (Operation(0.0, OpKind.WRITE, 190.0, 2**53 + 1),)))
    @example(Sequence("s", (2**53 + 1,), ()))
    @given(seq=any_sequences())
    def test_every_sequence_round_trips_or_is_refused(self, seq):
        holdable = (seq.name != "" and "#" not in seq.name
                    and not any(c.isspace() for c in seq.name)
                    and all(0.0 <= f < math.inf and float(f) == f for f in seq.rails)
                    and all(float(op.t_ns) == op.t_ns and float(op.energy) == op.energy
                            for op in seq.ops))
        if holdable:
            assert parse(format_sequence(seq)) == seq
        else:
            with pytest.raises(ParamError):
                format_sequence(seq)


class TestValidate:
    def _two_op_seq(self, dt_ns):
        return parse("SEQUENCE s\nRAILS 190MHz\n"
                     f"AT 0ns WRITE 190MHz\nAT {dt_ns}ns READ 190MHz")

    def test_switching_time_boundary(self):
        assert [d.code for d in validate(self._two_op_seq(47), P)] == ["E001"]
        assert validate(self._two_op_seq(48), P) == []

    def test_e001_reported_on_late_op_line(self):
        diag = validate(self._two_op_seq(47), P)[0]
        assert diag.severity == "error"
        assert diag.line == 4

    def test_spacing_checked_across_rails(self):
        seq = parse("SEQUENCE s\nRAILS 170MHz 230MHz\n"
                    "AT 0ns WRITE 170MHz\nAT 40ns WRITE 230MHz")
        assert [d.code for d in validate(seq, P)] == ["E001"]

    def test_out_of_band_rail(self):
        seq = parse("SEQUENCE s\nRAILS 260MHz\nAT 0ns WRITE 260MHz")
        diags = validate(seq, P)
        assert [d.code for d in diags] == ["E002"]
        assert diags[0].message == "rail 260 MHz outside deflector band [150, 250] MHz"

    @pytest.mark.parametrize("f_center,f_rail", [(200.0, 260.0), (200.25, 140.5), (1e22, 1e3)])
    def test_e002_is_the_sentence_of_the_band_check(self, f_center, f_rail):
        p = core.replace(P, f_center=f_center)
        diags = validate(Sequence("s", (f_rail,), ()), p)
        with pytest.raises(OutOfBandError) as raised:
            rail_position_um(f_rail, p)
        assert [(d.code, d.message) for d in diags] == [("E002", str(raised.value))]

    def test_close_rails_warn(self):
        seq = parse("SEQUENCE s\nRAILS 190MHz 198MHz\n"
                    "AT 0ns WRITE 190MHz\nAT 400ns READ 198MHz")
        diags = validate(seq, P)
        assert [d.code for d in diags] == ["W001"]
        assert diags[0].severity == "warning"

    def test_20mhz_separation_is_clean(self):
        assert MIN_CROSSTALK_FREE_SEPARATION_MHZ == 20.0
        seq = parse("SEQUENCE s\nRAILS 170MHz 190MHz 210MHz 230MHz\n"
                    "AT 0ns WRITE 170MHz\nAT 200ns READ 170MHz\n"
                    "AT 400ns WRITE 230MHz\nAT 600ns READ 230MHz")
        assert validate(seq, P) == []

    def test_canonical_program_is_clean(self):
        assert validate(parse(CANONICAL), P) == []

    def test_insensitive_to_comments_and_whitespace(self):
        bare = "SEQUENCE s\nRAILS 190MHz\nAT 0ns WRITE 190MHz\nAT 47ns READ 190MHz"
        decorated = ("# top\nSEQUENCE s\n\n  RAILS   190MHz  # rails\n\n"
                     "AT 0ns  WRITE 190MHz\nAT 47ns READ   190MHz # tight\n")
        a = validate(parse(bare), P)
        b = validate(parse(decorated), P)
        assert [(d.code, d.message) for d in a] == [(d.code, d.message) for d in b]

    def test_diagnostic_lines_point_into_source(self):
        text = ("SEQUENCE s\n# comment\nRAILS 190MHz 260MHz\n\n"
                "AT 0ns WRITE 190MHz\nAT 30ns READ 260MHz\n")
        diags = validate(parse(text), P)
        lines = {d.code: d.line for d in diags}
        assert lines["E002"] == 3  # the RAILS directive line
        assert lines["E001"] == 6  # the too-close operation line

    def test_programmatic_sequences_report_line_zero(self):
        seq = Sequence("s", (260.0,), (Operation(0.0, OpKind.WRITE, 260.0),))
        assert all(d.line == 0 for d in validate(seq, P))

    def test_diagnostic_is_a_value(self):
        assert Diagnostic("E001", 4, "x") == Diagnostic("E001", 4, "x")
