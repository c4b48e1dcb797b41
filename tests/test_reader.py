"""The sequence reader's plain-line path against its general per-line reader.

``seqlang.Reader`` reads a plain op line (``AT <digits>ns <VERB>
<freq>MHz[ <energy>]``, single spaces, no comment, a rail token already
seen, an increasing time, a good energy) with one regex match, and every
other line with the general reader. Appending `` #`` to every line sends
every line to the general reader without changing what it means, so each
program must read the same either way: the same Sequence, or the same
ParseError, and the same ``vapormem validate`` output.
"""

import contextlib
import io
import os
import random
import tempfile

import pytest
from hypothesis import Phase, find, given, settings

from corpus import CANONICAL, DOCUMENTS
from programs import programs
from vapormem import core, engine, seqlang
from vapormem.cli import main
from vapormem.seqlang import ParseError, Reader, parse, validate

P = core.default_params()
# a memory with no calibration for 230 MHz, nor for the rails not in the
# defaults, so programs that declare them get E003
NO_230 = [cal for cal in core.default_rails() if cal.f_rail != 230.0]


def off_the_plain_path(text: str) -> str:
    """The program with `` #`` after every line: no line is plain, none changes."""
    return "\n".join(line + " #" for line in text.split("\n"))


def parsed(text: str):
    """What parse makes of a text: the sequence and its line metadata, or its error."""
    try:
        seq = parse(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.col
    return seq, seq.src_lines, seq.rails_line


def validated(text: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``vapormem validate`` on a file holding text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.seq")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", path])
    return code, out.getvalue(), err.getvalue()


class TestPlainPath:
    @given(text=programs())
    def test_parse_reads_plain_lines_as_the_general_reader_does(self, text):
        assert parsed(text) == parsed(off_the_plain_path(text))

    @given(text=programs())
    def test_validate_reads_plain_lines_as_the_general_reader_does(self, text):
        # the file is read with its line endings as "\n", so the comment is
        # appended to the lines the reader sees
        seen = text.replace("\r\n", "\n").replace("\r", "\n")
        assert validated(text) == validated(off_the_plain_path(seen))

    @pytest.mark.parametrize("doc", DOCUMENTS, ids=lambda d: d.split("\n", 1)[0][9:].strip())
    def test_corpus(self, doc):
        assert parsed(doc) == parsed(off_the_plain_path(doc))
        assert validated(doc) == validated(off_the_plain_path(doc))

    def test_plain_lines_take_the_plain_path(self, monkeypatch):
        matched = []

        class Counting:
            def fullmatch(self, line):
                m = plain.fullmatch(line)
                matched.append(m is not None)
                return m

        plain = seqlang._PLAIN_OP_RE
        monkeypatch.setattr(seqlang, "_PLAIN_OP_RE", Counting())
        # 12 plain op lines; the header and RAILS line are not op lines
        assert len(parse(CANONICAL).ops) == 12
        assert matched.count(True) == 12

    def test_reader_rows_are_parse_ops(self):
        reader = Reader(CANONICAL)
        rows = list(reader)
        seq = parse(CANONICAL)
        assert [(line, op.t_ns, op.kind, op.f_rail, op.energy)
                for line, op in zip(seq.src_lines, seq.ops)] == rows
        assert (reader.name, tuple(reader.rails), reader.rails_line) == (
            seq.name, seq.rails, seq.rails_line)


class TestValidateBuildsNoOperation:
    # a clean program, and one with an E001, an E003 and a W001
    @pytest.mark.parametrize("doc", [CANONICAL, "SEQUENCE tight\nRAILS 190MHz 198MHz\n"
                                     "AT 0ns WRITE 190MHz 0.5\nAT 47ns READ 190MHz\n"],
                             ids=["clean", "diagnosed"])
    def test_validate_builds_no_operation_or_sequence(self, monkeypatch, doc):
        def refuse(self, *args, **kwargs):
            raise AssertionError(f"validate built a {type(self).__name__}")

        want = validated(doc)
        assert want[0] == (doc != CANONICAL) and not want[2]
        monkeypatch.setattr(core.Operation, "__init__", refuse)
        monkeypatch.setattr(core.Sequence, "__init__", refuse)
        monkeypatch.setattr(engine.Memory, "__init__", refuse)
        assert validated(doc) == want


class TestOneOwnerOfTheDiagnostics:
    @given(text=programs())
    def test_diagnose_reads_a_reader_as_it_reads_parse(self, text):
        try:
            seq = parse(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as raised:
                validate(Reader(text), P, NO_230)
            assert (str(raised.value), raised.value.line, raised.value.col) == (
                str(exc), exc.line, exc.col)
            return
        diags = validate(Reader(text), P, NO_230)
        assert diags == validate(seq, P, NO_230)
        assert validate(seq, P) == [d for d in diags if d.code != "E003"]

    def test_e003_comes_with_the_other_codes(self):
        text = ("SEQUENCE s\nRAILS 140MHz 190MHz 198MHz 230MHz\n"
                "AT 0ns WRITE 190MHz\nAT 20ns READ 190MHz\n")
        diags = validate(Reader(text), P, NO_230)
        assert [(d.code, d.line) for d in diags] == [
            ("E002", 2), ("E003", 2), ("E003", 2), ("E003", 2), ("W001", 2), ("E001", 4)]
        assert diags == validate(parse(text), P, NO_230)

    def test_a_rail_calibrated_twice_is_refused_as_a_memory_refuses_it(self):
        twice = [*NO_230, NO_230[1]]
        with pytest.raises(core.DuplicateRailError) as built:
            engine.Memory(P, twice)
        # the calibrations are checked before the program is read
        for program in (parse(CANONICAL), Reader(CANONICAL), Reader("not a program\n")):
            with pytest.raises(core.DuplicateRailError) as checked:
                validate(program, P, twice)
            assert str(checked.value) == str(built.value) == "rail 190 MHz declared twice"


def read(text: str):
    """(the Sequence, or None for a ParseError, and its validator codes)."""
    try:
        seq = parse(text)
    except ParseError:
        return None, set()
    return seq, {d.code for d in validate(seq, P, core.default_rails())}


# each kind of program the text-level properties must see, told by (the
# Sequence or None, its codes under the default calibrations, the text)
KINDS = {
    "clean-with-energy-0.5": lambda seq, codes, text: (
        seq is not None and not codes and 0.5 in seq.energy),
    "E001-gap": lambda seq, codes, text: "E001" in codes,
    "E002-out-of-band": lambda seq, codes, text: "E002" in codes,
    "E003-in-band": lambda seq, codes, text: "E003" in codes and "E002" not in codes,
    "us-CRLF-comment-tab-or-u3000": lambda seq, codes, text: (
        seq is not None and any(token.endswith("us") for token in text.split())
        and "\r\n" in text and "#" in text and ("\t" in text or "\u3000" in text)),
    "ParseError": lambda seq, codes, text: seq is None,
}


class TestPrograms:
    @pytest.mark.parametrize("kind", KINDS.values(), ids=KINDS)
    def test_programs_draws_each_kind(self, kind):
        # the first program found, not shrunk: shrinking one takes up to minutes
        find(programs(), lambda text: kind(*read(text), text), random=random.Random(0),
             settings=settings(database=None, max_examples=2000, phases=[Phase.generate]))
