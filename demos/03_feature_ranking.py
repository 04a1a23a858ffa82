"""Kruskal-Wallis feature ranking: which descriptors discriminate?

Builds a binary dataset (direct locomotion vs recirculating sway, blended
for within-class variety) and ranks all 110 features by H. The path-
directness family should dominate the top of the table.

Run:  python3 demos/03_feature_ranking.py
"""

import numpy as np

from labankit import (
    FEATURE_NAMES_110,
    RegimeSpec,
    fragment_features,
    generate,
    get_task,
    kruskal_wallis,
    rank_features,
    remap_task,
    slice_fragments,
)

# The statistic itself, on a textbook example: three ordered groups.
h = kruskal_wallis(np.arange(1.0, 10.0)[:, None], np.repeat([0, 1, 2], 3))[0]
print(f"H for {{1,2,3}} vs {{4,5,6}} vs {{7,8,9}}: {h:.1f} (fully ordered groups)")

rows, tiers = [], []
for regime in (0, 2):
    for i in range(40):
        seq = generate(RegimeSpec(regime, seed=regime * 1000 + i, blend=0.6))
        fragments = slice_fragments(seq)
        # As extract does: one call per sequence, one row per fragment.
        vectors = fragment_features(seq.positions, seq.fps, fragments)
        rows.extend(vectors)
        tiers += [regime] * len(vectors)
X = np.asarray(rows)
labels, mask = remap_task(tiers, get_task("binary"))
print(f"\ndataset: {X.shape[0]} fragments, binary task "
      f"({int((labels == 0).sum())} direct vs {int((labels == 1).sum())} indirect)")

ranking = rank_features(X[mask], labels, FEATURE_NAMES_110)
print("\ntop 10 features by Kruskal-Wallis H:")
print(f"  {'rank':>4}  {'H':>8}  feature")
for rank, (name, score) in enumerate(ranking[:10], start=1):
    tag = "  <- directness family" if (".directness" in name
                                       or name.startswith("effort.space")) else ""
    print(f"  {rank:>4}  {score:8.2f}  {name}{tag}")

constant_tail = [name for name, score in ranking if score == 0.0]
print(f"\n{len(constant_tail)} feature(s) carry no signal at all (H = 0)")
