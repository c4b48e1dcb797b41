"""Parser, formatter and static validator for sequence files.

The file format is line oriented, UTF-8, with ``#`` starting a comment
that runs to the end of the line and blank lines ignored. ``\\n`` and
``\\r\\n`` line endings are both accepted; the formatter emits ``\\n``.

    file   := header line*
    header := "SEQUENCE" name
    line   := rails | op
    rails  := "RAILS" freq+
    op     := "AT" time verb freq [number]
    time   := number("ns" | "us")
    verb   := "WRITE" | "READ" | "PUMP"
    freq   := number "MHz"

Keywords are case sensitive and uppercase. Times are stored in ns
(1 us = 1000 ns, converted exactly). The optional trailing number on a
WRITE is the pulse energy; it defaults to 1.0 and the formatter omits it
at that value. Rails must be declared before any operation uses them.

Validation is separate from parsing: :func:`parse` enforces the grammar
and the constructor-level invariants (monotonic times, declared rails),
while :func:`validate` is the one owner of the diagnostics for the
physical rules: switching time, deflector band, a calibrated rail and
rail separation. It reports a rail with no calibration (E003) only when
it is given the rail calibrations.

Every document is read by :class:`Reader`, in one pass that yields each
operation as a row ``(lineno, t_ns, kind, f_rail, energy)``. A plain
line, ``AT <digits>ns <VERB> <freq>MHz[ <energy>]`` with single spaces
and no comment, is read by one ``fullmatch`` of ``_PLAIN_OP_RE`` when its
frequency token already names a declared rail, its time is finite and
increases, and its energy, if any, is on a WRITE and finite and
positive. Any other line falls back to the general per-line reader, so
every ParseError keeps its message, line, column and order. ``parse``
keeps the rows as the columns of its Sequence and builds no Operation;
:func:`validate` reads a Sequence's time column, or takes a Reader and
reads the rows itself, so ``vapormem validate`` builds no Sequence.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Iterator
from itertools import repeat
from operator import itemgetter

from . import physics
from .core import (
    OpKind,
    OutOfBandError,
    ParamError,
    PhysicsParams,
    RailCalibration,
    Sequence,
    UnknownRailError,
    VaporMemError,
    _Value,
    _calibration,
    _float,
    _fmt_number,
    _rail_table,
    _real,
)

# declared rails closer than this warn about cross-talk (W001)
MIN_CROSSTALK_FREE_SEPARATION_MHZ = 20.0

_NUMBER = r"[0-9]+(?:\.[0-9]+)?"
# a number token, read whole by one fullmatch: groups (number, unit), the
# unit empty for a bare number; _number checks the unit against its caller's
_NUMBER_RE = re.compile(rf"({_NUMBER})(ns|us|MHz|)")
# a plain op line, read whole by one fullmatch: groups (digits, verb, freq
# token, energy or None); compiled here, not on first use, as is the above
_PLAIN_OP_RE = re.compile(rf"AT ([0-9]+)ns (WRITE|READ|PUMP) (\S+MHz)(?: ({_NUMBER}))?")

_VERBS = {"WRITE": OpKind.WRITE, "READ": OpKind.READ, "PUMP": OpKind.PUMP}


class ParseError(VaporMemError):
    """Syntax or structural error in a sequence document."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class ValidationFailure(VaporMemError):
    """Raised when a sequence with error-severity diagnostics is executed."""

    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        listing = "; ".join(f"{d.code} line {d.line}: {d.message}" for d in self.diagnostics)
        super().__init__(f"sequence failed validation: {listing}")


class Diagnostic(_Value):
    """One validator finding. E-codes block execution, W-codes do not.

    ``severity`` is read from the code, "error" or "warning". Codes:
        E001  operations closer than the deflector switching time
        E002  declared rail outside the deflector band
        E003  declared rail with no calibration
        W001  declared rails closer than the cross-talk-free separation

    All four come from :func:`validate`. E002's message is the
    OutOfBandError sentence of ``physics._require_in_band``, the one band
    check, and E003's the UnknownRailError sentence of
    ``core._calibration``, the memory's calibration lookup; E003 is
    reported only when ``validate`` is given the rail calibrations.
    """

    _fields = ("code", "line", "message")

    def __init__(self, code: str, line: int, message: str) -> None:
        self._assign(code, line, message)

    @property
    def severity(self) -> str:
        return "error" if self.code.startswith("E") else "warning"


def _col(line: str, k: int) -> int:
    """1-based column of the k-th whitespace-separated token of a line.

    Only called to locate a ParseError; ``\\S+`` and ``str.split()`` agree
    on what whitespace is.
    """
    return [m.start() + 1 for m in re.finditer(r"\S+", line)][k]


def _number(tok: str, units: tuple, what: str, lineno: int, line: str, k: int) -> float:
    """A number token's value, correctly rounded once; a time's is in ns.

    ``units`` are the units the caller accepts, ``""`` for none. A token not
    a number in one of them, or whose value is past a float, raises
    ParseError naming ``what`` at the column of the line's k-th token.
    1 us = 1000 ns exactly: a us token's decimal point moves three digits
    right in the string itself, so float() sees the exact ns value.
    """
    m = _NUMBER_RE.fullmatch(tok)
    if m is None or m[2] not in units:
        raise ParseError(f"malformed {what} {tok!r}", lineno, _col(line, k))
    number, unit = m.groups()
    if unit == "us":
        whole, _, frac = number.partition(".")
        frac = frac.ljust(3, "0")
        number = f"{whole}{frac[:3]}.{frac[3:]}"
    value = float(number)
    if math.isinf(value):
        raise ParseError(f"{what} is too large", lineno, _col(line, k))
    return value


class Reader:
    """One streamed pass over a sequence document: the one reader of its lines.

    Iterating yields each operation as a row ``(lineno, t_ns, kind, f_rail,
    energy)``, in order, and raises ParseError at the first line
    :func:`parse` refuses. ``name``, ``rails`` and ``rails_line`` are set
    as their lines are read: once the rows are exhausted they describe the
    whole document, and the rails are complete before the first row, since
    an operation's rail must already be declared. Each iteration reads the
    text again from its start.

    A plain line (see the module docstring) is read by one match of
    ``_PLAIN_OP_RE``; every other line by the general reader below, which
    reports each error at its own line and column, and which would give a
    plain line the same row.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.name: str | None = None
        self.rails: list[float] = []
        self.rails_line: int | None = None

    def __iter__(self) -> Iterator[tuple[int, float, OpKind, float, float]]:
        self.name, self.rails, self.rails_line = None, [], None
        rails = self.rails
        rail_of: dict[str, float] = {}  # frequency token -> the declared rail it names
        prev_t = -math.inf
        inf = math.inf
        plain = _PLAIN_OP_RE.fullmatch

        for lineno, raw in enumerate(self.text.split("\n"), start=1):
            m = plain(raw)
            if m is not None:
                t, verb, ftok, etok = m.groups()
                t_ns = float(t)
                f_rail = rail_of.get(ftok)
                energy = 1.0 if etok is None else float(etok)
                if (f_rail is not None and prev_t < t_ns < inf and 0.0 < energy < inf
                        and (etok is None or verb == "WRITE")):
                    prev_t = t_ns
                    yield lineno, t_ns, _VERBS[verb], f_rail, energy
                    continue

            hash_at = raw.find("#")
            line = raw if hash_at < 0 else raw[:hash_at]
            tokens = line.split()
            if not tokens:
                continue
            word = tokens[0]

            if self.name is None:
                if word != "SEQUENCE":
                    raise ParseError("expected SEQUENCE header", lineno, _col(line, 0))
                if len(tokens) != 2:
                    raise ParseError("SEQUENCE takes exactly one name", lineno, _col(line, 0))
                self.name = tokens[1]
                continue

            if word == "SEQUENCE":
                raise ParseError("duplicate SEQUENCE header", lineno, _col(line, 0))

            if word == "RAILS":
                if self.rails_line is not None:
                    raise ParseError("duplicate RAILS directive", lineno, _col(line, 0))
                if len(tokens) < 2:
                    raise ParseError("RAILS needs at least one frequency", lineno, _col(line, 0))
                for k, tok in enumerate(tokens[1:], start=1):
                    f = _number(tok, ("MHz",), "frequency", lineno, line, k)
                    if f in rails:
                        raise ParseError(f"rail {tok} declared twice", lineno, _col(line, k))
                    rails.append(f)
                    rail_of[tok] = f
                self.rails_line = lineno
                continue

            if word == "AT":
                if len(tokens) not in (4, 5):
                    raise ParseError("expected AT <time> <verb> <freq> [energy]",
                                     lineno, _col(line, 0))
                t_ns = _number(tokens[1], ("ns", "us"), "time", lineno, line, 1)
                kind = _VERBS.get(tokens[2])
                if kind is None:
                    raise ParseError(f"unknown operation {tokens[2]!r}", lineno, _col(line, 2))
                ftok = tokens[3]
                f_rail = rail_of.get(ftok)
                if f_rail is None:
                    f_rail = _number(ftok, ("MHz",), "frequency", lineno, line, 3)
                    if f_rail not in rails:
                        raise ParseError(f"operation on undeclared rail {ftok}",
                                         lineno, _col(line, 3))
                    rail_of[ftok] = f_rail
                energy = 1.0
                if len(tokens) == 5:
                    if kind is not OpKind.WRITE:
                        raise ParseError("only WRITE takes an energy", lineno, _col(line, 4))
                    energy = _number(tokens[4], ("",), "energy", lineno, line, 4)
                    if energy <= 0.0:
                        raise ParseError("write energy must be strictly positive",
                                         lineno, _col(line, 4))
                if t_ns <= prev_t:
                    raise ParseError("operation time does not increase", lineno, _col(line, 1))
                prev_t = t_ns
                yield lineno, t_ns, kind, f_rail, energy
                continue

            raise ParseError(f"unknown directive {word!r}", lineno, _col(line, 0))

        if self.name is None:
            raise ParseError("missing SEQUENCE header", 1)


def parse(text: str) -> Sequence:
    """Parse a sequence document into a Sequence.

    Raises ParseError with line/column information on any grammar
    violation, on a number too large for a float, on a missing or
    duplicate header or RAILS directive, on an operation that uses an
    undeclared rail, and on non-increasing times.

    The lines are read by :class:`Reader`, which checks every value
    ``Operation`` checks first, so a bad one is reported at its line and
    column: a plain line's values as it matches them, and any other number
    token in its one reader, ``_number``. A frequency token resolves through a table of
    the tokens already seen to name a declared rail; only a token not in it
    is matched, converted and looked up, so an undeclared one always gets
    its own error. Its rows become the Sequence's columns as they are
    read; ``Sequence.ops`` builds the Operations on first access.
    """
    reader = Reader(text)
    lines, times, kinds, rails, energies = [], [], [], [], []
    for lineno, t_ns, kind, f_rail, energy in reader:
        lines.append(lineno)
        times.append(t_ns)
        kinds.append(kind)
        rails.append(f_rail)
        energies.append(energy)
    return Sequence._of_columns(reader.name, tuple(reader.rails), tuple(times), tuple(kinds),
                                tuple(rails), tuple(energies), tuple(lines), reader.rails_line)


def format_sequence(seq: Sequence) -> str:
    """Canonical text rendering; parse(format_sequence(s)) equals s.

    Times are printed in ns, as integers when exact; the default write
    energy 1.0 is omitted. A sequence the text cannot hold raises
    ParamError: one whose name is not one whitespace-free token without
    ``#``, or with a rail that is not a finite non-negative float. A rail
    is kept as given, and the text is parsed to floats, so a rail that no
    float equals (``2**53 + 1``) is refused too; an Operation's time and
    energy are floats already.
    """
    name = seq.name
    if not (isinstance(name, str) and "#" not in name and name.split() == [name]):
        raise ParamError(f"sequence name {name!r} is not one token without '#'")
    for f in seq.rails:
        message = f"rail {_fmt_number(f)} is not a finite non-negative float"
        if _real(f, ParamError, message, 0.0) != f:
            raise ParamError(message)
    lines = [f"SEQUENCE {name}"]
    if seq.rails:
        lines.append("RAILS " + " ".join(f"{_fmt_number(f)}MHz" for f in seq.rails))
    for t_ns, kind, f_rail, energy in zip(seq.t_ns, seq.kind, seq.f_rail, seq.energy):
        parts = [f"AT {_fmt_number(t_ns)}ns", kind.value, f"{_fmt_number(f_rail)}MHz"]
        if kind is OpKind.WRITE and energy != 1.0:
            parts.append(_fmt_number(energy))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def validate(program: Sequence | Reader, p: PhysicsParams,
             rails: Iterable[RailCalibration] | None = None) -> list[Diagnostic]:
    """Every diagnostic of a program, sorted by line then code: the one owner of all four codes.

    ``program`` is a Sequence, or a :class:`Reader` that this call reads,
    raising its ParseError; an empty list means the program is clean.
    ``rails`` are the calibrations a memory would be built from, checked
    first as ``engine.Memory`` checks them (a rail given twice raises
    DuplicateRailError); each declared rail with none is an E003 in the
    memory's no-calibration sentence. With no ``rails`` there is no E003.
    A line the program does not know, in a Sequence built in Python or for
    a program with no RAILS line, is line 0.
    """
    cals = None if rails is None else _rail_table(rails)
    if isinstance(program, Reader):
        times = map(itemgetter(0, 1), program)
    else:
        times = zip(program.src_lines or repeat(0), program.t_ns)
    diags: list[Diagnostic] = []
    prev = -math.inf  # the first op has no predecessor: its gap is inf
    for line, t_ns in times:
        dt = t_ns - prev
        if dt < p.t_switch:
            diags.append(Diagnostic("E001", line,
                                    f"{_fmt_number(dt)} ns between operations is below the "
                                    f"{_fmt_number(p.t_switch)} ns switching time"))
        prev = t_ns

    # read once the times are exhausted, when a Reader has read its whole document
    rails_line = program.rails_line or 0
    for f in program.rails:
        try:
            physics._require_in_band(f, p)
        except OutOfBandError as exc:
            diags.append(Diagnostic("E002", rails_line, str(exc)))
        if cals is not None:
            try:
                _calibration(cals, f)
            except UnknownRailError as exc:
                diags.append(Diagnostic("E003", rails_line, str(exc)))

    # W001 measures the rails that are finite floats; E002 names every other
    rails_sorted = sorted(x for x in map(_float, program.rails) if math.isfinite(x))
    for a, b in zip(rails_sorted, rails_sorted[1:]):
        if b - a < MIN_CROSSTALK_FREE_SEPARATION_MHZ:
            diags.append(Diagnostic("W001", rails_line, f"rails {_fmt_number(a)} and "
                                    f"{_fmt_number(b)} MHz are separated by {_fmt_number(b - a)} "
                                    f"MHz, below the cross-talk-free "
                                    f"{_fmt_number(MIN_CROSSTALK_FREE_SEPARATION_MHZ)} MHz"))

    diags.sort(key=lambda d: (d.line, d.code))
    return diags
