"""End-to-end evaluation: synth -> extract -> cross-validated reports.

Builds a small four-regime dataset, evaluates the classifier on the
four-way, three-way, and binary tasks, then repeats on a harder blended
dataset to show the ordinal confusion structure (errors sit next to the
diagonal). Mirrors the CLI chain:

  labankit synth --out-dir data --per-regime 40
  labankit extract --manifest data/manifest.jsonl --out features.csv
  labankit evaluate --features features.csv --task four_way --out report.json

Run:  python3 demos/04_end_to_end_evaluation.py
"""

import numpy as np

from labankit import (
    RegimeSpec,
    cross_validate,
    fragment_features,
    generate,
    get_task,
    render_confusion,
    slice_fragments,
)


def build_dataset(per_regime, blend, duration=5.0):
    rows, tiers = [], []
    for regime in range(4):
        for i in range(per_regime):
            seq = generate(RegimeSpec(regime, duration_s=duration,
                                      seed=regime * 10_000 + i, blend=blend))
            for _, positions in slice_fragments(seq):
                rows.append(fragment_features(positions, seq.fps))
                tiers.append(regime)
    return np.asarray(rows), np.asarray(tiers)


print("building the easy dataset (pure regimes, 40 fragments per tier)...")
X, tiers = build_dataset(per_regime=40, blend=0.0)

for task_name in ("four_way", "three_way", "binary"):
    report = cross_validate(X, tiers, get_task(task_name), k=5, seed=0)
    print(f"  {task_name:<10} accuracy {report.accuracy:6.1%}   "
          f"macro-F1 {report.macro_f1:.3f}   rows {report.n_rows}")

print("\nbuilding the hard dataset (blend 0.85: adjacent regimes overlap)...")
Xh, tiersh = build_dataset(per_regime=40, blend=0.85)
report = cross_validate(Xh, tiersh, get_task("four_way"), k=5, seed=0)
print()
print(render_confusion(report))

confusion = report.confusion
adjacent = sum(confusion[i, j] for i in range(4) for j in range(4) if abs(i - j) == 1)
far = sum(confusion[i, j] for i in range(4) for j in range(4) if abs(i - j) > 1)
print(f"\nerrors on adjacent tiers: {adjacent}, on non-adjacent tiers: {far}")
print("the ordinal structure survives even when the classes overlap")
