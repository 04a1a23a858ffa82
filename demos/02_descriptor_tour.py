"""A tour of the 55 per-frame descriptors and the 110-dim aggregate.

Contrasts two motion styles that look alike in energy but differ in how
their joints travel: straight-ahead walking vs recirculating sway.

Run:  python3 demos/02_descriptor_tour.py
"""

import numpy as np

from labankit import (
    FEATURE_NAMES_110,
    FRAME_FEATURE_NAMES,
    RegimeSpec,
    aggregate,
    frame_matrix,
    generate,
    slice_fragments,
)
from labankit.descriptors import windowed_directness

# Directness on a hand-built track: chord length over traveled path,
# here at the middle frame of each track.
line = np.outer(np.arange(60), [0.03, 0.0, 0.0])
theta = np.linspace(0, 2 * np.pi, 60)
loop = np.stack([0.5 * np.cos(theta), np.zeros(60), 0.5 * np.sin(theta)], axis=1)
print("directness of a straight track :", f"{windowed_directness(line, 15)[30]:.3f}")
print("directness of a closed loop    :", f"{windowed_directness(loop, 30)[30]:.3f}")


def clip_and_first_fragment(regime, name):
    """A 10 s clip, and the rows of its per-frame matrix that its first 5 s
    fragment covers: descriptors are defined on the whole sequence, and a
    fragment's features aggregate its rows (as extract does)."""
    seq = generate(RegimeSpec(regime, duration_s=10.0, seed=1), source_id=name)
    rows = frame_matrix(seq.positions, seq.fps)[slice_fragments(seq)[0]]
    return seq, rows


# The per-frame matrix over the first fragment of each style.
walk, walk_rows = clip_and_first_fragment(0, "walk")
_, sway_rows = clip_and_first_fragment(2, "sway")

names = list(FRAME_FEATURE_NAMES)
for label, matrix in (("walk", walk_rows), ("sway", sway_rows)):
    print(f"\n{label}: per-frame matrix {matrix.shape}  "
          f"(T frames x {len(names)} descriptors)")
    for family in ("effort.flow", "effort.space", "effort.time", "effort.weight",
                   "kin.pelvis.directness", "trajectory.net_displacement"):
        col = matrix[:, names.index(family)]
        print(f"  {family:<28} mean {col.mean():9.3f}   std {col.std():8.3f}")

# Aggregation to the 110-dim vector every classifier consumes, here of the
# whole walk clip taken as one fragment.
vector = aggregate(frame_matrix(walk.positions, walk.fps))
print(f"\naggregate vector: {vector.shape[0]} values "
      f"({len(names)} means then {len(names)} stds)")
print("first five names:", ", ".join(FEATURE_NAMES_110[:5]))
print("vector is deterministic: same clip, same bits, every run")
