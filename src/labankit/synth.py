"""Deterministic synthetic skeleton generator with four movement regimes.

The regimes form an ordinal family standing in for labeled motion data:

  * R0 locomotion -- straight-line walking with gait-like limb swing;
    direct paths, moderate energy.
  * R1 staccato -- sparse fast limb relocations and hops; sudden, high
    acceleration and jerk, direct strokes.
  * R2 sway-loop -- root and hands riding closed horizontal loops;
    sustained, recirculating, strongly indirect.
  * R3 undulation -- slow low-amplitude pelvis-centered sway; low energy,
    pelvis-led.

Regimes map one-to-one onto tiers 0-3. A blend > 0 crossfades each
sequence toward a random neighbor on the ordinal axis, producing datasets
where adjacent tiers genuinely overlap. Every draw is keyed to the spec
seed, so equal specs yield bit-identical sequences; regime parameters are
drawn independently of fps, so the same seed describes the same motion at
any frame rate.

R1's limb strokes and hops are evaluated against a running sum over
events: each frame adds the event in progress, if any, to the end values
of the events before it, so a build takes time linear in clip length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .skeleton import MIN_FRAGMENT_SECONDS, SMPL_JOINT_COUNT, SkeletonSequence, _check_number

N_REGIMES = 4

# Rough humanoid rest pose: offsets from the pelvis, T-pose arms, meters.
_BASE_OFFSETS = np.array([
    (0.00, 0.00, 0.00),    # 0  pelvis
    (0.09, -0.06, 0.00),   # 1  hip_l
    (-0.09, -0.06, 0.00),  # 2  hip_r
    (0.00, 0.12, 0.00),    # 3  spine1
    (0.10, -0.45, 0.00),   # 4  knee_l
    (-0.10, -0.45, 0.00),  # 5  knee_r
    (0.00, 0.25, 0.00),    # 6  spine2
    (0.10, -0.85, 0.00),   # 7  ankle_l
    (-0.10, -0.85, 0.00),  # 8  ankle_r
    (0.00, 0.38, 0.00),    # 9  spine3
    (0.10, -0.92, 0.10),   # 10 foot_l
    (-0.10, -0.92, 0.10),  # 11 foot_r
    (0.00, 0.50, 0.00),    # 12 neck
    (0.06, 0.46, 0.00),    # 13 collar_l
    (-0.06, 0.46, 0.00),   # 14 collar_r
    (0.00, 0.65, 0.00),    # 15 head
    (0.18, 0.45, 0.00),    # 16 shoulder_l
    (-0.18, 0.45, 0.00),   # 17 shoulder_r
    (0.45, 0.44, 0.00),    # 18 elbow_l
    (-0.45, 0.44, 0.00),   # 19 elbow_r
    (0.70, 0.44, 0.00),    # 20 wrist_l
    (-0.70, 0.44, 0.00),   # 21 wrist_r
    (0.78, 0.44, 0.00),    # 22 hand_l
    (-0.78, 0.44, 0.00),   # 23 hand_r
])

_PELVIS_HEIGHT = 0.95

# Limb chains with per-joint motion scale (proximal joints move less).
_ARM_L = ((18, 0.5), (20, 0.9), (22, 1.0))
_ARM_R = ((19, 0.5), (21, 0.9), (23, 1.0))
_LEG_L = ((4, 0.4), (7, 0.9), (10, 1.0))
_LEG_R = ((5, 0.4), (8, 0.9), (11, 1.0))

# Joints that ride pelvis bob and sway during gait (everything but the legs).
_UPPER_BODY = (0, 1, 2, 3, 6, 9, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23)

_HEAD_CHAIN = ((12, 0.6), (13, 0.4), (14, 0.4), (15, 1.0))

# Independent rng streams per spec seed.
_STREAM_REGIME = 11
_STREAM_BLEND = 7
_STREAM_NOISE = 99

# R1 event timing, seconds: a stroke's transition and a hop's pulse, and
# the range of gaps between successive starts. Each minimum gap exceeds
# its window, so no two windows of a kind overlap, which _events needs.
_STROKE_S = 0.12
_STROKE_GAP_S = (0.4, 0.7)
_HOP_S = 0.25
_HOP_GAP_S = (0.9, 1.4)


@dataclass(frozen=True)
class RegimeSpec:
    """Parameters of one generated sequence."""

    regime: int
    duration_s: float = 5.0
    fps: float = 30.0
    noise_amp: float = 0.005
    seed: int = 0
    blend: float = 0.0

    def __post_init__(self):
        _check_number(self.regime, "regime", (">=", 0), ("<", N_REGIMES), integer=True)
        _check_number(self.duration_s, "duration_s", (">=", MIN_FRAGMENT_SECONDS))
        _check_number(self.fps, "fps", (">=", 10), ("<=", 120))
        _check_number(self.duration_s * self.fps, "duration_s * fps")
        _check_number(self.noise_amp, "noise_amp", (">=", 0))
        _check_number(self.blend, "blend", (">=", 0), ("<", 1))
        _check_number(self.seed, "seed", (">=", 0), integer=True)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *key])


def _jitter(rng: np.random.Generator, value: float, spread: float = 0.12) -> float:
    return value * (1.0 + rng.uniform(-spread, spread))


def _raised_cosine(u: np.ndarray) -> np.ndarray:
    """Step from 0 to 1 over u in [0, 1]; exactly 0 at 0 and 1 at 1."""
    return 0.5 * (1.0 - np.cos(np.pi * u))


def _sin2(u: np.ndarray) -> np.ndarray:
    """Out-and-back bump over u in [0, 1]; sin(pi)^2 = 1.5e-32 at 1, not 0."""
    return np.sin(np.pi * u) ** 2


def _events(s: np.ndarray, starts: list[float], amounts: np.ndarray,
            width: float, shape) -> np.ndarray:
    """(T, k) track: the sum over events e, in event order, of
    amounts[e] * shape(u), where u = clip((s - starts[e]) / width, 0, 1).

    Windows never overlap, so a frame is past every earlier event, inside
    at most the latest one that has started, and before the later ones,
    which add +-0.0. It therefore holds the running sum of the earlier
    events' end values, amounts * shape(1), plus its latest event's
    term: the same floats as adding one full-length array per event.
    """
    starts = np.asarray(starts)
    ends = amounts * shape(np.ones(1))
    prefix = np.cumsum(np.concatenate([np.zeros((1, amounts.shape[1])), ends]), axis=0)
    latest = np.searchsorted(starts, s, side="right") - 1
    started = latest >= 0
    e = latest[started]
    u = np.clip((s[started] - starts[e]) / width, 0.0, 1.0)
    total = np.zeros((len(s), amounts.shape[1]))
    total[started] = prefix[e] + shape(u)[:, None] * amounts[e]
    return total


def _rest_pose(n_frames: int) -> np.ndarray:
    pose = _BASE_OFFSETS + np.array([0.0, _PELVIS_HEIGHT, 0.0])
    return np.repeat(pose[None, :, :], n_frames, axis=0)


def _burst_schedule(rng: np.random.Generator, duration: float,
                    first: tuple[float, float], gap: tuple[float, float]) -> list[float]:
    times = []
    t = rng.uniform(*first)
    while t < duration:
        times.append(t)
        t += rng.uniform(*gap)
    return times


def _locomotion(s: np.ndarray, duration: float, rng: np.random.Generator) -> np.ndarray:
    """R0: straight walk; joints advance monotonically with gait oscillation."""
    speed = _jitter(rng, 1.0)
    gait_hz = _jitter(rng, 1.1)
    stride = _jitter(rng, 0.18, 0.2)
    swing = _jitter(rng, 0.12, 0.2)
    lift = _jitter(rng, 0.04, 0.2)
    bob = _jitter(rng, 0.015, 0.2)
    heading = rng.uniform(0.0, 2.0 * math.pi)

    forward = np.array([math.sin(heading), 0.0, math.cos(heading)])
    lateral = np.array([math.cos(heading), 0.0, -math.sin(heading)])
    up = np.array([0.0, 1.0, 0.0])

    pos = _rest_pose(len(s))
    pos += (speed * s)[:, None, None] * forward

    phase = 2.0 * math.pi * gait_hz * s
    legs = ((np.sin(phase), _LEG_L), (np.sin(phase + math.pi), _LEG_R))
    for osc, chain in legs:
        step = np.clip(osc, 0.0, None) ** 2
        for joint, scale in chain:
            pos[:, joint] += (stride * scale * osc)[:, None] * forward
            pos[:, joint] += (lift * scale * step)[:, None] * up
    arms = ((np.sin(phase + math.pi), _ARM_L), (np.sin(phase), _ARM_R))
    for osc, chain in arms:
        for joint, scale in chain:
            pos[:, joint] += (swing * scale * osc)[:, None] * forward

    ride = (bob * np.sin(2.0 * phase))[:, None] * up + \
           (0.03 * np.sin(phase))[:, None] * lateral
    for joint in _UPPER_BODY:
        pos[:, joint] += ride
    return pos


def _staccato(s: np.ndarray, duration: float, rng: np.random.Generator) -> np.ndarray:
    """R1: sparse fast limb relocations and hops from a standing base."""
    reach = _jitter(rng, 0.45, 0.2)
    hop_amp = _jitter(rng, 0.07, 0.2)

    pos = _rest_pose(len(s))
    for chain in (_ARM_L, _ARM_R, _LEG_L, _LEG_R):
        times = _burst_schedule(rng, duration - _STROKE_S, (0.1, 0.5), _STROKE_GAP_S)
        targets = rng.uniform(-1.0, 1.0, size=(len(times), 3)) * reach
        targets[:, 1] *= 0.5  # strokes stay mostly horizontal
        deltas = np.diff(targets, axis=0, prepend=0.0)
        displacement = _events(s, times, deltas, _STROKE_S, _raised_cosine)
        for joint, scale in chain:
            pos[:, joint] += scale * displacement

    hops = _burst_schedule(rng, duration - _HOP_S, (0.5, 1.0), _HOP_GAP_S)
    pos[:, :, 1] += _events(s, hops, np.full((len(hops), 1), hop_amp), _HOP_S, _sin2)
    return pos


def _sway_loop(s: np.ndarray, duration: float, rng: np.random.Generator) -> np.ndarray:
    """R2: whole body rides a horizontal loop; hands and feet trace their own."""
    root_radius = _jitter(rng, 0.30, 0.15)
    root_hz = _jitter(rng, 0.70, 0.1)
    hand_radius = _jitter(rng, 0.22, 0.15)
    hand_hz = _jitter(rng, 0.80, 0.1)
    foot_radius = _jitter(rng, 0.04, 0.2)
    head_radius = _jitter(rng, 0.06, 0.2)
    root_phase = rng.uniform(0.0, 2.0 * math.pi)
    hand_phase = rng.uniform(0.0, 2.0 * math.pi)

    def loop(radius, hz, phase):
        angle = 2.0 * math.pi * hz * s + phase
        track = np.zeros((len(s), 3))
        track[:, 0] = radius * (np.cos(angle) - math.cos(phase))
        track[:, 2] = radius * (np.sin(angle) - math.sin(phase))
        return track

    pos = _rest_pose(len(s))
    pos += loop(root_radius, root_hz, root_phase)[:, None, :]

    for chain, phase in ((_ARM_L, hand_phase), (_ARM_R, hand_phase + math.pi)):
        orbit = loop(hand_radius, hand_hz, phase)
        for joint, scale in chain:
            pos[:, joint] += scale * orbit
    for chain, phase in ((_LEG_L, root_phase + 0.5 * math.pi),
                         (_LEG_R, root_phase + 1.5 * math.pi)):
        orbit = loop(foot_radius, root_hz, phase)
        for joint, scale in chain:
            pos[:, joint] += scale * orbit
    head_orbit = loop(head_radius, root_hz, root_phase + math.pi)
    for joint, scale in _HEAD_CHAIN:
        pos[:, joint] += scale * head_orbit
    return pos


# Damping of the pelvis oscillation along the body in R3: extremities
# counter-anchor, so the pelvis leads.
_UNDULATION_DAMP = np.zeros(SMPL_JOINT_COUNT)
_UNDULATION_DAMP[[22, 23, 20, 21, 10, 11, 7, 8]] = 0.65
_UNDULATION_DAMP[[18, 19, 4, 5]] = 0.45
_UNDULATION_DAMP[[12, 13, 14, 15, 16, 17]] = 0.30
_UNDULATION_DAMP[[3, 6, 9]] = 0.15


def _undulation(s: np.ndarray, duration: float, rng: np.random.Generator) -> np.ndarray:
    """R3: slow low-amplitude pelvis-centered sway, limbs trailing."""
    amp = np.array([
        _jitter(rng, 0.05, 0.2),
        _jitter(rng, 0.06, 0.2),
        _jitter(rng, 0.08, 0.2),
    ])
    hz = np.array([
        _jitter(rng, 0.30, 0.15),
        _jitter(rng, 0.25, 0.15),
        _jitter(rng, 0.35, 0.15),
    ])
    phase = rng.uniform(0.0, 2.0 * math.pi, size=3)

    osc = amp * np.sin(2.0 * math.pi * hz * s[:, None] + phase)  # (T, 3)
    pos = _rest_pose(len(s))
    pos += osc[:, None, :] * (1.0 - _UNDULATION_DAMP)[None, :, None]
    return pos


_REGIME_BUILDERS = (_locomotion, _staccato, _sway_loop, _undulation)


def _regime_positions(regime: int, s: np.ndarray, duration: float, seed: int) -> np.ndarray:
    rng = _rng(seed, _STREAM_REGIME, regime)
    return _REGIME_BUILDERS[regime](s, duration, rng)


def generate(spec: RegimeSpec, source_id: str | None = None) -> SkeletonSequence:
    """Generate one sequence; bit-identical for equal specs.

    With blend > 0 the sequence is built at an ordinal coordinate
    u = regime + U(-blend, blend) by crossfading the two neighboring
    regimes, while the label stays the spec regime.
    """
    n_frames = int(round(spec.duration_s * spec.fps))
    s = np.arange(n_frames) / spec.fps

    u = float(spec.regime)
    if spec.blend > 0.0:
        u += _rng(spec.seed, _STREAM_BLEND).uniform(-spec.blend, spec.blend)
        u = min(max(u, 0.0), float(N_REGIMES - 1))

    low = min(int(math.floor(u)), N_REGIMES - 2)
    weight = u - low
    if weight < 1e-12:
        positions = _regime_positions(low, s, spec.duration_s, spec.seed)
    elif weight > 1.0 - 1e-12:
        positions = _regime_positions(low + 1, s, spec.duration_s, spec.seed)
    else:
        positions = (1.0 - weight) * _regime_positions(low, s, spec.duration_s, spec.seed) \
            + weight * _regime_positions(low + 1, s, spec.duration_s, spec.seed)

    if spec.noise_amp > 0.0:
        noise = _rng(spec.seed, _STREAM_NOISE).normal(0.0, spec.noise_amp, positions.shape)
        positions = positions + noise

    if source_id is None:
        source_id = f"synth_r{spec.regime}_seed{spec.seed}"
    return SkeletonSequence(
        source_id=source_id,
        fps=spec.fps,
        positions=positions,
        tier=spec.regime,
    )
