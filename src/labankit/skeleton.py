"""Skeleton sequences, fragment slicing, and dataset manifests.

The input unit is a 24-joint SMPL skeleton trajectory in world meters
(gravity along -y, floor at y = 0), stored one sequence per file: skeleton
JSON, the interchange format, or the binary container (SKELETON_SUFFIX).
Fragments are fixed-length windows of a sequence, each a slice of its
frames; they are the unit that the descriptor and classification stages
operate on, labeled by their sequence.
"""

from __future__ import annotations

import json
import math
import operator
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path

import numpy as np

SMPL_JOINT_COUNT = 24

# SMPL 24-joint convention. Indices into the second positions axis.
SMPL_JOINT_NAMES = (
    "pelvis", "hip_l", "hip_r", "spine1", "knee_l", "knee_r", "spine2",
    "ankle_l", "ankle_r", "spine3", "foot_l", "foot_r", "neck",
    "collar_l", "collar_r", "head", "shoulder_l", "shoulder_r",
    "elbow_l", "elbow_r", "wrist_l", "wrist_r", "hand_l", "hand_r",
)

VALID_TIERS = (0, 1, 2, 3)

# Fragments shorter than this are not meaningful units of classification.
MIN_FRAGMENT_SECONDS = 3.0

_DURATION_TOL = 1e-9

# A path with this suffix holds the binary container: one JSON header line
# ({"format_version", "source_id", "fps", "tier", "shape"}), then the
# positions as C-order little-endian float64. Any other suffix is JSON.
SKELETON_SUFFIX = ".skel"
SKELETON_FORMAT_VERSION = 1


class SkeletonError(ValueError):
    """A value or an input file breaks labankit's contract: a parameter is
    not the number it must be, or an input file (skeleton, manifest, model,
    config echo, feature CSV) cannot be read, is not UTF-8 text, is not the
    JSON object it must hold or breaks its format."""


@contextmanager
def _reading(path):
    """Raise an OSError or a UnicodeDecodeError from reading the file at
    path, or from decoding its bytes, as one SkeletonError "<path>: <reason>".
    Its JSON is parsed after the read, by _parse_json."""
    try:
        yield
    except OSError as exc:
        raise SkeletonError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise SkeletonError(f"{path}: not UTF-8 text: {exc}") from exc


def _json_object(value, where, keys=()) -> dict:
    """Refuse a parsed JSON value that is not an object, or that lacks one
    of keys, as "<where>: <reason>"; return it."""
    if not isinstance(value, dict):
        raise SkeletonError(f"{where}: expected a JSON object, got {type(value).__name__}")
    for key in keys:
        if key not in value:
            raise SkeletonError(f"{where}: missing key {key!r}")
    return value


def _parse_json(text: str, where, keys=()) -> dict:
    """The JSON object in text, holding keys; "<where>: invalid JSON: ..." for
    any text the parser refuses, too many digits and too deep nesting included."""
    try:
        value = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SkeletonError(f"{where}: invalid JSON: {exc}") from exc
    return _json_object(value, where, keys)


def _json_numbers(value, shape: tuple, where: str):
    """Refuse a parsed JSON value that is not lists nested to shape (a length
    per level, None for any) around numbers, naming the first bad entry by
    its index path from where, as in "frames[4][9][2]". A JSON true is not
    a number and "0.5" is not one, though np.asarray reads both as numbers,
    and an integer must fit in 64 bits, as np.asarray reads no larger one
    as a number."""
    if shape:
        length, *inner = shape
        if not isinstance(value, list) or length not in (None, len(value)):
            got = f"{len(value)} entries" if isinstance(value, list) else repr(value)
            want = "a list" if length is None else f"a list of {length} entries"
            raise SkeletonError(f"{where} must be {want}, got {got}")
        for i, item in enumerate(value):
            if inner or type(item) is not float:  # a float leaf is a number
                _json_numbers(item, inner, f"{where}[{i}]")
    elif type(value) is not float and not (type(value) is int and -2**63 <= value < 2**64):
        what = "an integer within 64 bits" if type(value) is int else "a number"
        raise SkeletonError(f"{where} must be {what}, got {value!r}")


def _is_integer(value) -> bool:
    """A Python or NumPy integer; bool is not one here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


_BOUNDS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


def _check_number(value, name: str, *bounds, integer: bool = False):
    """Return value if it is an integer (with integer) or a finite number and
    meets every (op, limit) of bounds, op a key of _BOUNDS; otherwise raise
    "<name> must be <first broken rule>, got <value!r>". Python and NumPy
    scalars count, bool does not, and an integer past float64's range is not
    finite."""
    real = isinstance(value, (float, np.floating))
    if not (_is_integer(value) or real and not integer):
        rule = "an integer" if integer else "a number"
    # math.isfinite overflows on a huge int, and float32 on float64's max.
    elif not (math.isfinite(value) if real
              else integer or -sys.float_info.max <= value <= sys.float_info.max):
        rule = "finite"
    else:
        rule = next((f"{op} {limit}" for op, limit in bounds
                     if not _BOUNDS[op](value, limit)), None)
        if rule is None:
            return value
    raise SkeletonError(f"{name} must be {rule}, got {value!r}")


def _validate_tier(tier, context: str) -> int:
    if not _is_integer(tier):
        raise SkeletonError(f"{context}: tier must be an integer in {VALID_TIERS}, got {tier!r}")
    tier = int(tier)
    if tier not in VALID_TIERS:
        raise SkeletonError(f"{context}: tier {tier} not in {VALID_TIERS}")
    return tier


def _check_str(value, what: str):
    if not isinstance(value, str):
        raise SkeletonError(f"{what} must be a string, got {value!r}")


def _check_fps(fps, context: str) -> float:
    return float(_check_number(fps, f"{context}: fps", (">", 0)))


def _check_positions(positions: np.ndarray, context: str, stacked: bool = False):
    """Refuse positions that are not a finite (T, 24, 3) array of integers
    or floats; stacked admits axes of stacked sequences between time and
    joints."""
    if positions.dtype.kind not in "iuf":
        raise SkeletonError(f"{context}: positions must be integers or floats, "
                            f"got dtype {positions.dtype}")
    if (positions.ndim < 3 if stacked else positions.ndim != 3) or positions.shape[-1] != 3:
        axes = ", with any stacked axes between T and the joints" if stacked else ""
        raise SkeletonError(f"{context}: positions must have shape "
                            f"(T, {SMPL_JOINT_COUNT}, 3){axes}, got {positions.shape}")
    if positions.shape[-2] != SMPL_JOINT_COUNT:
        raise SkeletonError(
            f"{context}: joint count {positions.shape[-2]} != {SMPL_JOINT_COUNT}"
        )
    if 0 in positions.shape[1:-2]:
        raise SkeletonError(f"{context}: positions have an empty stacked axis, "
                            f"shape {positions.shape}")
    if not np.isfinite(positions).all():
        t, *sequence, j = np.argwhere(~np.isfinite(positions).all(axis=-1))[0]
        where = f", sequence {', '.join(map(str, sequence))}" if sequence else ""
        raise SkeletonError(f"{context}: non-finite coordinate at frame {t}{where}, "
                            f"joint {j}")


@dataclass(frozen=True)
class SkeletonSequence:
    """A time-indexed array of 24 world-space 3D joint positions.

    positions has shape (T, 24, 3) in meters; fps is the sampling rate.
    tier, when present, is the ordinal class label in {0, 1, 2, 3}.
    Instances are immutable and safe to share across threads: positions is
    a read-only copy of the array passed in.
    """

    source_id: str
    fps: float
    positions: np.ndarray
    tier: int | None = None

    def __post_init__(self):
        _check_str(self.source_id, "sequence source_id")
        context = f"sequence {self.source_id!r}"
        object.__setattr__(self, "fps", _check_fps(self.fps, context))
        positions = np.asarray(self.positions)
        _check_positions(positions, context)
        positions = positions.astype(np.float64)
        object.__setattr__(self, "positions", positions)
        if positions.shape[0] < 2:
            raise SkeletonError(f"{context}: need at least 2 frames, got {positions.shape[0]}")
        if self.tier is not None:
            object.__setattr__(self, "tier", _validate_tier(self.tier, context))
        positions.setflags(write=False)

    @property
    def frame_count(self) -> int:
        return self.positions.shape[0]

    @property
    def duration_s(self) -> float:
        return self.frame_count / self.fps


def _sequence_from(path: Path, source_id, fps, positions, tier) -> SkeletonSequence:
    try:
        return SkeletonSequence(source_id=source_id, fps=fps, positions=positions, tier=tier)
    except SkeletonError as exc:
        raise SkeletonError(f"{path}: {exc}") from exc


def load_sequence(path) -> SkeletonSequence:
    """Load and validate one skeleton file, in the container if the path ends
    in SKELETON_SUFFIX and as skeleton JSON otherwise.

    JSON layout: {"source_id": str, "fps": number, "tier": int|null,
    "frames": [[[x, y, z] * 24], ...]} with coordinates in meters.
    """
    path = Path(path)
    if path.suffix == SKELETON_SUFFIX:
        return _load_container(path)
    with _reading(path):
        text = path.read_text(encoding="utf-8")
    raw = _parse_json(text, path, ("source_id", "fps", "frames"))
    frames = raw["frames"]
    if not isinstance(frames, list) or not frames:
        raise SkeletonError(f"{path}: 'frames' must be a non-empty list")

    # Fast path: a well-formed file converts directly to a (T, 24, 3) array of
    # integers or floats; the dtype is inferred, so a string or bool coordinate
    # is not parsed or cast into a number. Only walk the structure to locate
    # the offending entry on failure. Inference promotes a bool mixed with
    # numbers to a number, so when the text holds a JSON true or false, the
    # coordinates' types are checked for a bool as well.
    try:
        positions = np.asarray(frames)
    except (TypeError, ValueError):
        positions = None
    if (positions is None or positions.dtype.kind not in "iuf"
            or positions.shape[1:] != (SMPL_JOINT_COUNT, 3)
            or ("true" in text or "false" in text)
            and bool in set(map(type, chain.from_iterable(chain.from_iterable(frames))))):
        _json_numbers(frames, (None, SMPL_JOINT_COUNT, 3), f"{path}: frames")

    return _sequence_from(path, raw["source_id"], raw["fps"], positions, raw.get("tier"))


def _load_container(path: Path) -> SkeletonSequence:
    with _reading(path), open(path, "rb") as fh:
        header_line = fh.readline().decode("utf-8")
        body = fh.read()
    where = f"{path}: header line"
    header = _parse_json(header_line, where)
    version = header.get("format_version")
    if version != SKELETON_FORMAT_VERSION:
        raise SkeletonError(f"{path}: unsupported skeleton format version {version!r} "
                            f"(expected {SKELETON_FORMAT_VERSION})")
    _json_object(header, where, ("source_id", "fps", "tier", "shape"))
    shape = header["shape"]
    if not (isinstance(shape, list) and len(shape) == 3
            and all(type(n) is int and n >= 0 for n in shape)
            and shape[1:] == [SMPL_JOINT_COUNT, 3]):
        raise SkeletonError(f"{path}: shape must be [T, {SMPL_JOINT_COUNT}, 3] with "
                            f"T a non-negative integer, got {shape!r}")
    if len(body) != 8 * math.prod(shape):
        raise SkeletonError(f"{path}: body has {len(body)} bytes, expected "
                            f"{8 * math.prod(shape)} for shape {shape}")
    positions = np.frombuffer(body, "<f8").reshape(shape)
    return _sequence_from(path, header["source_id"], header["fps"], positions,
                          header["tier"])


def save_sequence(seq: SkeletonSequence, path) -> None:
    """Write a sequence in the container if the path ends in SKELETON_SUFFIX
    and as skeleton JSON otherwise; load_sequence round-trips both bit-exactly."""
    path = Path(path)
    if path.suffix == SKELETON_SUFFIX:
        header = {"format_version": SKELETON_FORMAT_VERSION, "source_id": seq.source_id,
                  "fps": seq.fps, "tier": seq.tier, "shape": list(seq.positions.shape)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("ascii") + b"\n")
            fh.write(seq.positions.astype("<f8", copy=False).tobytes())
        return
    payload = {
        "source_id": seq.source_id,
        "fps": seq.fps,
        "tier": seq.tier,
        "frames": seq.positions.tolist(),
    }
    # json.dumps takes the C encoder; json.dump would run the pure-Python
    # iterencode. Both produce the same text.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, separators=(",", ":")))


def slice_fragments(seq: SkeletonSequence, length_s: float = 5.0,
                    stride_s: float = 5.0) -> list[slice]:
    """Cut a sequence into fixed-length fragments, each a slice(start, stop)
    of its frames, ordered by start frame: seq.positions[f] is a fragment's
    frames, and fragment_features(seq.positions, seq.fps, fragments) their
    features.

    Fragments are round(length_s * fps) frames at stride round(stride_s * fps);
    a trailing remainder shorter than one fragment is discarded. A sequence
    shorter than one fragment yields an empty list, and a stride longer than
    the sequence yields its first fragment only.
    """
    _check_number(length_s, "length_s", (">=", MIN_FRAGMENT_SECONDS))
    _check_number(stride_s, "stride_s", (">", 0))

    # Each frame count is capped one past the sequence, where any longer
    # count, an infinite product's included, cuts the same slices.
    cap = seq.frame_count + 1
    n_frames = int(round(min(length_s * seq.fps, cap)))
    # round() can land half a frame under the 3 s floor at fractional fps.
    min_frames = math.ceil(min(MIN_FRAGMENT_SECONDS * seq.fps - _DURATION_TOL, cap))
    n_frames = max(n_frames, min_frames)
    stride = max(1, int(round(min(stride_s * seq.fps, cap))))
    return [slice(start, start + n_frames)
            for start in range(0, seq.frame_count - n_frames + 1, stride)]


@dataclass(frozen=True)
class ManifestEntry:
    """One labeled skeleton file; path may be given as a str or PathLike."""

    path: Path
    source_id: str
    tier: int

    def __post_init__(self):
        if not isinstance(self.path, (str, os.PathLike)):
            raise SkeletonError(f"manifest entry path must be a string, got {self.path!r}")
        object.__setattr__(self, "path", Path(self.path))
        _check_str(self.source_id, "manifest entry source_id")
        object.__setattr__(self, "tier", _validate_tier(
            self.tier, f"manifest entry {self.source_id!r}"))


@dataclass(frozen=True)
class DatasetManifest:
    """An ordered collection of (file, source_id, tier) entries."""

    entries: tuple[ManifestEntry, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        seen = set()
        for entry in self.entries:
            if entry.source_id in seen:
                raise SkeletonError(f"duplicate source_id {entry.source_id!r} in manifest")
            seen.add(entry.source_id)

    def __len__(self) -> int:
        return len(self.entries)


def load_manifest(path) -> DatasetManifest:
    """Read a JSON-lines manifest: one {"path": str, "tier": int} per line.

    An optional "source_id" key overrides the default (the path stem).
    Relative paths resolve against the manifest's directory.
    """
    path = Path(path)
    base = path.parent
    entries = []
    with _reading(path):
        lines = path.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        record = _parse_json(line, f"{path}:{lineno}", ("path", "tier"))
        # The default id is the path stem; str() only lets a non-string
        # path reach ManifestEntry, which rejects it.
        try:
            entry = ManifestEntry(
                path=record["path"], tier=record["tier"],
                source_id=record.get("source_id", Path(str(record["path"])).stem))
        except SkeletonError as exc:
            raise SkeletonError(f"{path}:{lineno}: {exc}") from None
        # An absolute entry path replaces base.
        entries.append(replace(entry, path=base / entry.path))
    return DatasetManifest(tuple(entries))


def save_manifest(manifest: DatasetManifest, path) -> None:
    """Write a manifest as JSON lines, with paths relative to the output file."""
    path = Path(path)
    base = path.parent.resolve()
    lines = []
    for entry in manifest.entries:
        try:
            rel = entry.path.resolve().relative_to(base)
            record: dict = {"path": str(rel), "tier": entry.tier}
        except ValueError:
            record = {"path": str(entry.path), "tier": entry.tier}
        if entry.source_id != entry.path.stem:
            record["source_id"] = entry.source_id
        lines.append(json.dumps(record, separators=(", ", ": ")))
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def balance_dataset(manifest: DatasetManifest, per_class: int, seed: int) -> DatasetManifest:
    """Seeded uniform subsample of exactly per_class entries per tier.

    Selected entries keep their original manifest order, which makes the
    operation idempotent on an already-balanced manifest.
    """
    _check_number(per_class, "per_class", (">=", 1), integer=True)
    _check_number(seed, "seed", (">=", 0), integer=True)
    if not manifest.entries:
        raise SkeletonError("manifest has no entries")
    by_tier: dict[int, list[int]] = {}
    for i, entry in enumerate(manifest.entries):
        by_tier.setdefault(entry.tier, []).append(i)
    rng = np.random.default_rng(seed)
    keep: list[int] = []
    for tier, indices in sorted(by_tier.items()):
        if len(indices) < per_class:
            raise SkeletonError(
                f"tier {tier} has {len(indices)} entries, fewer than per_class={per_class}"
            )
        chosen = rng.choice(len(indices), size=per_class, replace=False)
        keep.extend(indices[int(c)] for c in chosen)
    return DatasetManifest(tuple(manifest.entries[i] for i in sorted(keep)))

