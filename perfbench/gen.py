"""Seeded generator of validator-clean sequence programs.

Every program uses a subset of the four calibrated rails (170/190/210/230
MHz, the only rails ``vapormem run`` accepts), keeps consecutive
operations at least the 48 ns deflector switching time apart, and mixes
operation kinds by fixed counts per block rather than by independent
draws. Fixed counts keep the engine's work (the component pool grows by
one per WRITE) and the renderer's work (one pulse per event with energy)
nearly the same from seed to seed, so a change of seed changes the
program but not the cost being measured.

The seed picks the order of kinds inside each block, the rails, the gaps
and the optional write energies. The same seed gives the same text.
"""

from __future__ import annotations

import random

RAILS_MHZ = (170, 190, 210, 230)
T_SWITCH_NS = 48
GAPS_NS = (48, 100, 400)

# The canonical 12-operation random-access program, as in the paper's
# random-access experiment and ``harness.random_access_sequence()``.
RANDOM_ACCESS = """\
SEQUENCE random-access
RAILS 170MHz 190MHz 210MHz 230MHz
AT 0ns WRITE 230MHz
AT 400ns WRITE 210MHz
AT 600ns READ 210MHz
AT 800ns READ 210MHz
AT 1200ns READ 170MHz
AT 1600ns WRITE 190MHz
AT 2000ns READ 170MHz
AT 2400ns WRITE 170MHz
AT 2800ns READ 170MHz
AT 3200ns READ 210MHz
AT 3600ns READ 190MHz
AT 4400ns READ 230MHz
"""


def _kinds(rng: random.Random, n_ops: int, block: int,
           mix: dict[str, int]) -> list[str]:
    """Operation kinds in blocks of ``block`` ops holding exactly ``mix``."""
    if sum(mix.values()) != block:
        raise ValueError("mix counts must add up to the block size")
    kinds: list[str] = []
    while len(kinds) < n_ops:
        chunk = [k for k, count in mix.items() for _ in range(count)]
        rng.shuffle(chunk)
        kinds.extend(chunk)
    return kinds[:n_ops]


def _text(name: str, rails, lines: list[str]) -> str:
    head = [f"SEQUENCE {name}", "RAILS " + " ".join(f"{f}MHz" for f in rails)]
    return "\n".join(head + lines) + "\n"


def long_run(seed: int, n_ops: int = 800) -> str:
    """Dense engine-bound program: 24 WRITE, 25 READ and 1 PUMP per 50 ops.

    Gaps are drawn from {48, 100, 400} ns.
    """
    rng = random.Random(f"long-run:{seed}")
    kinds = _kinds(rng, n_ops, 50, {"WRITE": 24, "READ": 25, "PUMP": 1})
    lines, t = [], 0
    for i, kind in enumerate(kinds):
        if i:
            t += rng.choice(GAPS_NS)
        lines.append(f"AT {t}ns {kind} {rng.choice(RAILS_MHZ)}MHz")
    return _text(f"long-run-{seed}", RAILS_MHZ, lines)


def bulk_parse(seed: int, n_ops: int = 30_000) -> str:
    """Parse-bound program for ``validate``: 45 % WRITE, 45 % READ, 10 % PUMP.

    A third of the writes carry an explicit energy, so the optional energy
    token of the grammar is parsed too.
    """
    rng = random.Random(f"bulk-parse:{seed}")
    kinds = _kinds(rng, n_ops, 20, {"WRITE": 9, "READ": 9, "PUMP": 2})
    lines, t = [], 0
    for i, kind in enumerate(kinds):
        if i:
            t += rng.choice(GAPS_NS)
        line = f"AT {t}ns {kind} {rng.choice(RAILS_MHZ)}MHz"
        if kind == "WRITE" and rng.random() < 1 / 3:
            line += f" {rng.choice(('0.25', '0.5', '0.75'))}"
        lines.append(line)
    return _text(f"bulk-parse-{seed}", RAILS_MHZ, lines)


def sparse_render(seed: int, n_ops: int = 200, last_ns: int = 399_984) -> str:
    """Render-bound program: ``n_ops`` ops spread over ``last_ns`` ns.

    The first op is a WRITE at 0 ns and the last op sits exactly at
    ``last_ns``, so the waveform span, and with it the sample count, is the
    same for every seed. Interior times are distinct multiples of the
    switching time. Kinds after the first: 45 % WRITE, 45 % READ, 10 % PUMP.
    """
    if last_ns % T_SWITCH_NS:
        raise ValueError("last_ns must be a multiple of the switching time")
    rng = random.Random(f"sparse-render:{seed}")
    slots = range(T_SWITCH_NS, last_ns, T_SWITCH_NS)
    times = [0] + sorted(rng.sample(slots, n_ops - 2)) + [last_ns]
    kinds = ["WRITE"] + _kinds(rng, n_ops - 1, 20, {"WRITE": 9, "READ": 9, "PUMP": 2})
    lines = [f"AT {t}ns {kind} {rng.choice(RAILS_MHZ)}MHz"
             for t, kind in zip(times, kinds)]
    return _text(f"sparse-render-{seed}", RAILS_MHZ, lines)


def write_checked(path: str, text: str) -> int:
    """Write a program after checking it parses and validates with no diagnostic.

    Returns its number of operations. Raises ValueError on any diagnostic,
    so a generator defect never reaches the program under test.
    """
    from vapormem import cli, seqlang

    params, _ = cli.configured(None)
    seq = seqlang.parse(text)
    diags = seqlang.validate(seq, params)
    if diags:
        raise ValueError(f"generated program is not validator-clean: {diags[0]}")
    if not set(seq.rails) <= {float(f) for f in RAILS_MHZ}:
        raise ValueError("generated program uses an uncalibrated rail")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return len(seq.ops)
