"""The one Hypothesis strategy for sequence program text."""

from decimal import Decimal

from hypothesis import strategies as st

# the four calibrated rails, then other rails in the deflector band and out of it
RAILS = ["170", "190", "210", "230", "140", "180", "198", "200", "255", "300", "190.5"]
GAPS = [48, 100, 400, 1000, 1250]  # ns between ops, none below the switching time
HUGE = "1" + "0" * 400  # 401 digits, past a float
ENERGIES = ["0.5", "1", "2", "2.25", "007.25"]
BAD_ENERGIES = ["0", "0.0", "1e3", HUGE]
SEPARATORS = [" ", "  ", "\t", "\u3000"]
QUIET_LINES = ["", "  ", "\r", "# generated", "# AT 0ns READ 190MHz"]
BAD_LINES = ["HELLO", "AT 5ns", "RAILS 190MHz", "SEQUENCE t", "WAIT 5ns"]


def _one_in(draw, n: int) -> bool:
    """True about once in n draws, never for n = 0.

    Hypothesis draws the ends of a range more often, so the mark is inside it.
    """
    return n > 0 and draw(st.integers(0, n - 1)) == n // 2


def _spellings(f: str) -> list[str]:
    """The tokens naming a rail of f MHz, its plain one first."""
    point = "" if "." in f else "."
    return [f"{f}MHz", f"0{f}MHz", f"{f}{point}0MHz", f"{f}{point}00MHz"]


@st.composite
def programs(draw) -> str:
    """A program of one to four rails and up to 16 more lines, most of them ops.

    One program in three is written plainly (``AT <t>ns <VERB> <f>MHz[
    <energy>]``, single spaces, no comment); in the others, now and then or
    often, a part is spelled another way: ``us`` or padded times, another
    spelling of a rail, tabs, ``\\u3000`` or extra spaces, comments, blank
    lines, ``\\r`` line ends. Likewise one program in three has no fault,
    and the others now and then or often have one: a line or token the
    reader refuses, a time that does not increase, or a value the validator
    refuses (a gap below the 48 ns switching time, a rail out of the band or
    with no calibration). Examples shrink toward plain, clean text.
    """
    def pick(items):
        return draw(st.sampled_from(items))

    # a part is spelled another way about once in `odd` draws, and a fault
    # drawn about once in `bad`: never, now and then, or often
    odd, bad = pick([0, 12, 2]), pick([0, 60, 20])

    def odd_or(plain, others):
        return pick(others) if _one_in(draw, odd) else plain

    def bad_or(good, faults):
        return pick(faults) if _one_in(draw, bad) else good

    # one program with faults in two draws its rails from all of RAILS, and
    # its gaps from those below the switching time too
    wide = bad > 0 and draw(st.booleans())
    rails = draw(st.lists(st.sampled_from(RAILS if wide else RAILS[:4]),
                          min_size=1, max_size=4, unique=True))
    gaps = [1, 20, *GAPS] if wide else GAPS
    lines = [pick(QUIET_LINES)] if _one_in(draw, odd) else []
    if not _one_in(draw, bad):  # else no header
        lines.append(odd_or("SEQUENCE s", ["SEQUENCE s # c", " SEQUENCE\ts"]))
    if not _one_in(draw, bad):  # else no RAILS line
        declared = rails + bad_or([], [rails[:1]])  # or one rail declared twice
        lines.append("RAILS " + odd_or(" ", SEPARATORS).join(f"{f}MHz" for f in declared))
    t = None  # the last op's time
    for _ in range(draw(st.integers(0, 16))):
        if _one_in(draw, odd):
            lines.append(pick(QUIET_LINES))
            continue
        if _one_in(draw, bad):
            lines.append(pick(BAD_LINES))
            continue
        t = pick([0, 1, 20, *GAPS]) if t is None else bad_or(
            t + pick(gaps), [max(0, t - 5), t])  # or a time that does not increase
        time = odd_or(f"{t}ns", [f"0{t}ns", f"{t}.0ns", f"{t // 1000}.{t % 1000:03d}us",
                                 f"{Decimal(t) / 1000}us"])
        f = pick(rails)
        # or an undeclared, misspelled or malformed rail
        rail = bad_or(odd_or(f"{f}MHz", _spellings(f)[1:]),
                      [*_spellings(pick(RAILS)), "250MHz", "190Mhz"])
        verb = bad_or(pick(["WRITE", "READ", "PUMP"]), ["STORE", "write"])
        tokens = ["AT", bad_or(time, [f"{HUGE}ns"]), verb, rail]
        if verb == "WRITE" and draw(st.booleans()):
            tokens.append(pick(ENERGIES))
        tokens += bad_or([], [[e] for e in BAD_ENERGIES + ENERGIES])  # or one energy too many
        lines.append(odd_or("", [" ", "\t"]) + odd_or(" ", SEPARATORS).join(tokens)
                     + odd_or("", [" # note", "#x"]) + odd_or("", ["\r", " ", "\t"]))
    return "\n".join(lines) + pick(["\n", "", "\r\n"])
