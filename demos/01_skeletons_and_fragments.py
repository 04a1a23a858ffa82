"""Skeleton files, validation, and fragment slicing.

Generates a synthetic walking sequence, round-trips it through the JSON
skeleton format, and cuts it into classification-ready fragments.

Run:  python3 demos/01_skeletons_and_fragments.py
"""

import tempfile
from pathlib import Path

from labankit import RegimeSpec, generate, load_sequence, save_sequence, slice_fragments

# A 12-second walking clip (regime 0) at 30 fps.
sequence = generate(RegimeSpec(regime=0, duration_s=12.0, seed=7), source_id="walk_demo")
print(f"generated {sequence.source_id!r}: {sequence.frame_count} frames "
      f"({sequence.duration_s:.1f} s at {sequence.fps:.0f} fps), tier {sequence.tier}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "walk.json"
    save_sequence(sequence, path)
    loaded = load_sequence(path)
    identical = (loaded.positions == sequence.positions).all()
    print(f"saved {path.stat().st_size / 1024:.0f} KiB, reload bit-exact: {identical}")

# Non-overlapping 5 s fragments: the unit every later stage consumes.
fragments = slice_fragments(sequence, length_s=5.0, stride_s=5.0)
print(f"\n{len(fragments)} fragments of 5 s (trailing 2 s remainder discarded):")
for f in fragments:  # a slice of the clip's frames: sequence.positions[f]
    print(f"  frames [{f.start:3d}, {f.stop:3d})  "
          f"tier {sequence.tier}  duration {(f.stop - f.start) / sequence.fps:.1f} s")

# Overlapping slicing for denser coverage.
dense = slice_fragments(sequence, length_s=5.0, stride_s=2.5)
print(f"\nwith a 2.5 s stride the same clip yields {len(dense)} overlapping fragments")
