import re

import numpy as np
import pytest

JOINTS = 24

# An integer past float64's range: float() of it overflows.
HUGE_INT = 10**400


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


def write_huge_fps(path):
    """Save a 200-frame sequence 'huge' at the path, skeleton JSON or the
    container by its suffix, then set its fps to HUGE_INT in the file."""
    from labankit import SkeletonSequence, save_sequence
    save_sequence(SkeletonSequence("huge", 30.0, rest_positions(200), tier=0), path)
    data = re.sub(rb'"fps": ?30\.0', b'"fps": %d' % HUGE_INT, path.read_bytes(), count=1)
    path.write_bytes(data)
    return path


@pytest.fixture
def wiggle_fragment():
    """A 150-frame fragment, sampled at 30 fps."""
    return wiggle_positions(150)
