"""Task remapping, stratified cross-validation, and classification reports."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .classifier import TrainConfig, predict, train
from .skeleton import VALID_TIERS


@dataclass(frozen=True)
class TaskSpec:
    """Maps the four ordinal tiers onto a classification task's labels.

    mapping sends each of the VALID_TIERS to a class id, or to None for
    tiers the task drops entirely.
    """

    kind: str
    mapping: dict[int, int | None]

    def __post_init__(self):
        if set(self.mapping) != set(VALID_TIERS):
            raise ValueError(f"task {self.kind!r}: mapping must cover exactly the tiers "
                             f"{VALID_TIERS}, got {list(self.mapping)}")
        kept = sorted({v for v in self.mapping.values() if v is not None})
        if not kept or kept != list(range(len(kept))):
            raise ValueError(
                f"task {self.kind!r}: mapped classes must be contiguous from 0, got {kept}"
            )

    @property
    def class_count(self) -> int:
        return len({v for v in self.mapping.values() if v is not None})


TASKS: dict[str, TaskSpec] = {
    "four_way": TaskSpec("four_way", {0: 0, 1: 1, 2: 2, 3: 3}),
    # Tier 1 sits between everyday and suggestive motion; the three-way
    # task drops it.
    "three_way": TaskSpec("three_way", {0: 0, 1: None, 2: 1, 3: 2}),
    # SFW = tiers {0, 1}, NSFW = tiers {2, 3}.
    "binary": TaskSpec("binary", {0: 0, 1: 0, 2: 1, 3: 1}),
}


def get_task(kind: str) -> TaskSpec:
    try:
        return TASKS[kind]
    except KeyError:
        raise ValueError(
            f"unknown task {kind!r}; expected one of {sorted(TASKS)}"
        ) from None


def remap_task(tiers, task: TaskSpec) -> tuple[np.ndarray, np.ndarray]:
    """Remap tier labels for a task.

    Returns (labels, mask): mask flags the kept rows of the input, and
    labels holds the task class ids of exactly those rows, in order.
    """
    tiers = np.asarray(tiers)
    for t in np.unique(tiers):
        # Compared by value, so that 1.5 is not truncated to tier 1.
        if t not in VALID_TIERS:
            raise ValueError(f"unknown tier value {t}")
    mapped = np.array([
        -1 if task.mapping[int(t)] is None else task.mapping[int(t)]
        for t in tiers
    ])
    mask = mapped >= 0
    return mapped[mask], mask


def stratified_kfold(labels, k: int, seed: int) -> np.ndarray:
    """Assign each row a fold id in [0, k), stratified by class.

    Rows of each class are shuffled with the seed and dealt round-robin,
    so per-class fold sizes differ by at most one.
    """
    labels = np.asarray(labels)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    rng = np.random.default_rng(seed)
    folds = np.empty(labels.shape[0], dtype=np.int64)
    for c in np.unique(labels):
        rows = np.flatnonzero(labels == c)
        if rows.size < k:
            raise ValueError(
                f"class {c} has {rows.size} rows, fewer than k={k} folds"
            )
        shuffled = rng.permutation(rows)
        folds[shuffled] = np.arange(rows.size) % k
    return folds


def confusion_matrix(y_true, y_pred, class_count: int) -> np.ndarray:
    """Counts with rows = true class, columns = predicted class."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have equal length")
    for name, arr in (("true", y_true), ("predicted", y_pred)):
        if arr.size and (arr.min() < 0 or arr.max() >= class_count):
            raise ValueError(f"{name} label out of range [0, {class_count})")
    matrix = np.zeros((class_count, class_count), dtype=np.int64)
    np.add.at(matrix, (y_true, y_pred), 1)
    return matrix


def _ratio(num, den) -> np.ndarray:
    """num / den elementwise, with 0 wherever den <= 0."""
    den = np.asarray(den)
    return np.where(den > 0, num / np.where(den > 0, den, 1), 0.0)


def macro_f1(confusion: np.ndarray) -> float:
    """Unweighted mean of per-class F1; a class with P + R = 0 scores 0."""
    confusion = np.asarray(confusion, dtype=np.float64)
    if confusion.ndim != 2 or confusion.shape[0] != confusion.shape[1]:
        raise ValueError(f"confusion matrix must be square, got {confusion.shape}")
    tp = np.diag(confusion)
    precision = _ratio(tp, confusion.sum(axis=0))
    recall = _ratio(tp, confusion.sum(axis=1))
    return float(np.mean(_ratio(2 * precision * recall, precision + recall)))


@dataclass(frozen=True)
class EvalReport:
    """Pooled out-of-fold metrics plus per-fold accuracies.

    The confusion matrix pools every held-out prediction; accuracy is its
    trace over the evaluated row count. mean_fold_accuracy is the
    unweighted mean of the per-fold accuracies (both conventions are
    reported).
    """

    task: str
    k: int
    seed: int
    n_rows: int
    class_count: int
    accuracy: float
    mean_fold_accuracy: float
    macro_f1: float
    fold_accuracies: tuple[float, ...]
    per_class_recall: tuple[float, ...]
    confusion: np.ndarray
    confusion_row_normalized: np.ndarray
    predictions: np.ndarray
    labels: np.ndarray
    folds: np.ndarray

    def to_dict(self) -> dict:
        """JSON-ready fields in declaration order; arrays become nested lists."""
        items = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {name: v.tolist() if isinstance(v, np.ndarray) else v for name, v in items}


def cross_validate(X, tiers, task: TaskSpec, k: int = 5,
                   config: TrainConfig | None = None, seed: int = 0) -> EvalReport:
    """Stratified k-fold cross-validation of the logistic classifier.

    Each fold's model is trained purely on its training rows (the
    standardizer is fitted inside train precisely so that no held-out
    statistics can leak), and every row is predicted exactly once, by
    the model that never saw it.
    """
    config = config or TrainConfig()
    X = np.asarray(X, dtype=np.float64)
    labels, mask = remap_task(tiers, task)
    kept = X[mask]
    if labels.size == 0:
        raise ValueError(f"task {task.kind!r} keeps no rows")
    folds = stratified_kfold(labels, k, seed)

    predictions = np.empty(labels.size, dtype=np.int64)
    fold_accuracies = []
    for f in range(k):
        test = folds == f
        model = train(kept[~test], labels[~test], config)
        fold_pred = predict(model, kept[test])
        predictions[test] = fold_pred
        fold_accuracies.append(float((fold_pred == labels[test]).mean()))

    c = task.class_count
    confusion = confusion_matrix(labels, predictions, c)
    row_sums = confusion.sum(axis=1)
    recall = _ratio(np.diag(confusion), row_sums)

    return EvalReport(
        task=task.kind,
        k=k,
        seed=seed,
        n_rows=int(labels.size),
        class_count=c,
        accuracy=float(np.trace(confusion) / labels.size),
        mean_fold_accuracy=float(np.mean(fold_accuracies)),
        macro_f1=macro_f1(confusion),
        fold_accuracies=tuple(fold_accuracies),
        per_class_recall=tuple(float(r) for r in recall),
        confusion=confusion,
        confusion_row_normalized=_ratio(confusion, row_sums[:, None]),
        predictions=predictions,
        labels=labels,
        folds=folds,
    )


def render_confusion(report: EvalReport) -> str:
    """Plain-text confusion matrix, rows = true class, row-normalized percents."""
    c = report.class_count
    lines = [
        f"{report.task} confusion matrix ({report.k}-fold CV, "
        f"{report.n_rows} rows; rows = true, cols = predicted)",
    ]
    header = "          " + "".join(f"{f'pred {j}':>14}" for j in range(c)) + f"{'recall':>10}"
    lines.append(header)
    for i in range(c):
        cells = "".join(
            f"{report.confusion[i, j]:>6} ({report.confusion_row_normalized[i, j] * 100:4.1f}%)"
            for j in range(c)
        )
        lines.append(f"true {i:<5}" + cells + f"{report.per_class_recall[i] * 100:>9.1f}%")
    lines.append(
        f"accuracy {report.accuracy * 100:.1f}%   "
        f"macro-F1 {report.macro_f1:.3f}   "
        f"fold accuracies " + " ".join(f"{a * 100:.1f}%" for a in report.fold_accuracies)
    )
    return "\n".join(lines)
