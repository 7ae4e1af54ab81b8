"""Per-epoch records of a distributed training run.

:class:`LedgerDelta` is what one stretch of the program added to the
ledger, :class:`EpochStats` one epoch's result plus its delta,
:class:`DistTrainHistory` the run's list of them beside the delta of the
fit's set-up -- including the array form a checkpoint stores the epochs
in (:meth:`DistTrainHistory.to_arrays` /
:meth:`DistTrainHistory.extend_from_arrays`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.comm.tracker import Category

__all__ = ["LedgerDelta", "EpochStats", "DistTrainHistory"]


@dataclass(frozen=True)
class LedgerDelta:
    """What one stretch of the program (an epoch, a set-up) added to the
    ledger, exactly.

    ``seconds_by_category`` is the bulk-synchronous **wall clock** added
    (slowest rank per step, per Fig. 3's convention);
    ``bytes_by_category`` sums exact bytes over all ranks;
    ``max_rank_comm_bytes`` is the paper's per-process metric.
    """

    seconds_by_category: Dict[str, float]
    bytes_by_category: Dict[str, int]
    max_rank_comm_bytes: int

    @property
    def modeled_seconds(self) -> float:
        return sum(self.seconds_by_category.values())

    @property
    def dcomm_bytes(self) -> int:
        return self.bytes_by_category[Category.DCOMM]

    @property
    def scomm_bytes(self) -> int:
        return self.bytes_by_category[Category.SCOMM]

    @property
    def comm_bytes(self) -> int:
        """Total network traffic over all ranks (scomm + dcomm + trpose)."""
        return sum(self.bytes_by_category[c] for c in Category.COMM)


@dataclass(frozen=True)
class EpochStats(LedgerDelta):
    """One training epoch's result plus its exact ledger delta."""

    epoch: int
    loss: float
    train_accuracy: float


@dataclass
class DistTrainHistory:
    """Per-epoch records of one distributed training run.

    ``setup`` is the ledger delta of the fit's ``setup()``: the one-time
    ``A^T H^0`` aggregation when the fit brought a new feature matrix,
    all zeros when it reused the last one.  It is charged outside every
    epoch's delta.
    """

    epochs: List[EpochStats] = field(default_factory=list)
    setup: Optional[LedgerDelta] = None

    @property
    def losses(self) -> List[float]:
        return [e.loss for e in self.epochs]

    @property
    def final_loss(self) -> float:
        if not self.epochs:
            raise ValueError("no epochs recorded")
        return self.epochs[-1].loss

    def _selected(self, skip_first: bool) -> List[EpochStats]:
        picked = self.epochs[1:] if skip_first and len(self.epochs) > 1 else self.epochs
        if not picked:
            raise ValueError("no epochs recorded")
        return picked

    def mean_breakdown(self, skip_first: bool = False) -> Dict[str, float]:
        """Mean per-epoch wall seconds per category (a Fig. 3 bar).

        ``skip_first=True`` drops epoch 0, which includes one-time
        distribution warm-up in real systems.
        """
        picked = self._selected(skip_first)
        return {
            c: sum(e.seconds_by_category[c] for e in picked) / len(picked)
            for c in Category.ALL
        }

    def mean_epoch_seconds(self, skip_first: bool = False) -> float:
        picked = self._selected(skip_first)
        return sum(e.modeled_seconds for e in picked) / len(picked)

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The history as the named arrays a checkpoint stores
        (per-category columns in :data:`Category.ALL` order)."""
        stats = self.epochs
        ncat = len(Category.ALL)
        return {
            "loss": np.asarray([s.loss for s in stats], dtype=np.float64),
            "acc": np.asarray([s.train_accuracy for s in stats],
                              dtype=np.float64),
            "seconds": np.asarray(
                [[s.seconds_by_category[c] for c in Category.ALL]
                 for s in stats], dtype=np.float64
            ).reshape(len(stats), ncat),
            "bytes": np.asarray(
                [[s.bytes_by_category[c] for c in Category.ALL]
                 for s in stats], dtype=np.int64
            ).reshape(len(stats), ncat),
            "maxrank": np.asarray([s.max_rank_comm_bytes for s in stats],
                                  dtype=np.int64),
            "epoch": np.asarray([s.epoch for s in stats], dtype=np.int64),
        }

    def extend_from_arrays(self, hist: Mapping[str, np.ndarray],
                           nepochs: int) -> None:
        """Append the first ``nepochs`` epochs of a :meth:`to_arrays`
        record."""
        for i in range(nepochs):
            seconds = {c: float(hist["seconds"][i, j])
                       for j, c in enumerate(Category.ALL)}
            nbytes = {c: int(hist["bytes"][i, j])
                      for j, c in enumerate(Category.ALL)}
            self.epochs.append(EpochStats(
                epoch=int(hist["epoch"][i]),
                loss=float(hist["loss"][i]),
                train_accuracy=float(hist["acc"][i]),
                seconds_by_category=seconds,
                bytes_by_category=nbytes,
                max_rank_comm_bytes=int(hist["maxrank"][i]),
            ))
