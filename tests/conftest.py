import numpy as np
import pytest

from labankit import fragment_features

JOINTS = 24


def rest_positions(n_frames, joints=JOINTS):
    """A plausible static standing pose repeated for n_frames."""
    rng = np.random.default_rng(7)
    pose = rng.uniform(-0.5, 0.5, size=(joints, 3))
    pose[:, 1] += 1.0
    return np.repeat(pose[None], n_frames, axis=0)


def wiggle_positions(n_frames, fps=30.0, seed=0, joints=JOINTS):
    """Smooth band-limited multi-joint motion (sum of low-frequency sinusoids)."""
    rng = np.random.default_rng(seed)
    t = np.arange(n_frames) / fps
    pose = rng.uniform(-0.5, 0.5, size=(joints, 3))
    pose[:, 1] += 1.0
    amp = rng.uniform(0.05, 0.25, size=(joints, 3))
    freq = rng.uniform(0.3, 1.8, size=(joints, 3))
    phase = rng.uniform(0, 2 * np.pi, size=(joints, 3))
    osc = amp * np.sin(2 * np.pi * freq * t[:, None, None] + phase)
    return pose[None] + osc


def extract_vectors(seq, fragments):
    """The (len(fragments), 110) vectors of seq's slice_fragments cut as
    extract computes them: one fragment_features call on the sequence."""
    return fragment_features(seq.positions, seq.fps, [start for start, _ in fragments],
                             len(fragments[0][1]))


@pytest.fixture
def wiggle_fragment():
    """A 150-frame fragment, sampled at 30 fps."""
    return wiggle_positions(150)
