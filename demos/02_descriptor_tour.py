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
    windowed_directness,
)

# Directness on a hand-built track: chord length over traveled path,
# here at the middle frame of each track.
line = np.outer(np.arange(60), [0.03, 0.0, 0.0])
theta = np.linspace(0, 2 * np.pi, 60)
loop = np.stack([0.5 * np.cos(theta), np.zeros(60), 0.5 * np.sin(theta)], axis=1)
print("directness of a straight track :", f"{windowed_directness(line, 15)[30]:.3f}")
print("directness of a closed loop    :", f"{windowed_directness(loop, 30)[30]:.3f}")


def first_fragment(regime, name):
    """The (positions, fps) of a clip's first 5 s fragment."""
    seq = generate(RegimeSpec(regime, seed=1), source_id=name)
    _, positions = slice_fragments(seq)[0]
    return positions, seq.fps


# The full per-frame matrix for one fragment of each style.
walk = first_fragment(0, "walk")
sway = first_fragment(2, "sway")

names = list(FRAME_FEATURE_NAMES)
for label, frag in (("walk", walk), ("sway", sway)):
    matrix = frame_matrix(*frag)
    print(f"\n{label}: per-frame matrix {matrix.shape}  "
          f"(T frames x {len(names)} descriptors)")
    for family in ("effort.flow", "effort.space", "effort.time", "effort.weight",
                   "kin.pelvis.directness", "trajectory.net_displacement"):
        col = matrix[:, names.index(family)]
        print(f"  {family:<28} mean {col.mean():9.3f}   std {col.std():8.3f}")

# Aggregation to the 110-dim vector every classifier consumes.
vector = aggregate(frame_matrix(*walk))
print(f"\naggregate vector: {vector.shape[0]} values "
      f"({len(names)} means then {len(names)} stds)")
print("first five names:", ", ".join(FEATURE_NAMES_110[:5]))
print("vector is deterministic: same fragment, same bits, every run")
