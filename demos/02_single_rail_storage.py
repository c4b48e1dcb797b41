"""A single write/read/read storage experiment, rendered as a detector trace.

Writing a unit pulse stores eta_write of it and leaks the rest straight
through the cell. Reading 0.4 us later retrieves most of the stored
energy; a second read right after comes back empty, showing the first
read emptied the rail. The rendered waveform (out/single_rail_wave.csv)
is what the detector in the signal path would see.
"""

import os

from vapormem import Memory, default_params, default_rails, parse, run_sequence
from vapormem.cli import trace_csv, waveform_csv
from vapormem.engine import render_waveform

PROGRAM = """\
SEQUENCE single-rail
RAILS 190MHz
AT 0ns WRITE 190MHz
AT 400ns READ 190MHz
AT 800ns READ 190MHz
"""

here = os.path.dirname(os.path.abspath(__file__))
outdir = os.path.join(here, "out")
os.makedirs(outdir, exist_ok=True)

params = default_params()
seq = parse(PROGRAM)
trace = run_sequence(Memory(params, default_rails()), seq)

print("t_ns   kind   out_energy")
for ev in trace:
    print(f"{ev.t_ns:6.0f} {ev.kind.value:6} {ev.out_energy:.6f}")
print()
print("the write leaks 1 - eta_write of the input pulse,")
print("the first read retrieves eta_mem * exp(-0.4/5.4) of it,")
print("and the second read confirms the rail is empty.")

with open(os.path.join(outdir, "single_rail_trace.csv"), "w") as fh:
    fh.write(trace_csv(trace))
t, y = render_waveform(trace, sample_period_ns=1.0, noise_floor=1e-5)
with open(os.path.join(outdir, "single_rail_wave.csv"), "w") as fh:
    fh.write(waveform_csv(t, y))
print(f"\nwrote {outdir}/single_rail_trace.csv and single_rail_wave.csv")
