"""The paper's closed-form per-epoch communication costs (Section IV).

Each function returns the modeled per-process communication time (seconds)
and words for one epoch of L-layer GNN training, exactly as derived in the
paper:

* 1D (Section IV-A.5)::

      T = L * (3 lg P * alpha + (edgecut_P(A) f + n f + f^2) * beta)

  symmetric case (IV-A.6)::

      T = L * (3 lg P * alpha + (2 edgecut_P(A) f + f^2) * beta)

  transposing variant (IV-A.7) adds ``2 alpha P^2 + 2 beta nnz/P``.

* 2D (Section IV-C.5)::

      T = L * ((5 sqrt(P) + 3 lg P) alpha
               + (8 n f / sqrt(P) + 2 nnz / sqrt(P) + f^2) beta)

* 3D (Section IV-D.5)::

      T = L * (4 P^(1/3) alpha + (2 nnz / P^(2/3) + 12 n f / P^(2/3)) beta)

* 1.5D (our derivation, following Section IV-B / [20], replication c)::

      T = L * (2 q lg q alpha
               + (2 n f / c + 4 n f c / P + f^2) beta),   q = P / c

All word counts use the convention of the paper: a "word" is one matrix
element; ``f`` is the average feature-vector width over layers.  The
``beta`` passed in is **seconds per word** -- convert from a byte-based
profile with ``profile.beta * word_bytes``.

These are the **paper's** closed forms: ``L`` SpMM sweeps each way per
epoch, the average width ``f``.  They are kept as the paper states them
and nothing that prices an *executed* epoch reads them -- the executed
epoch (and the simulator, hence Figures 2 / 3) runs ``L - 1`` sweeps each
way at steady state plus one ``A^T H^0`` aggregation per feature matrix
(:meth:`repro.dist.base.DistAlgorithm._install_features`), so its dense
terms are smaller than ``L *`` the per-layer term by the two layer-1
sweeps.  Nor is the executed 1D all-gather the paper's: it ships each
block's exported rows (those another block reads), ``|E|`` rows in all,
between the ``edgecut_P(A)`` rows one process reads and the ``n`` the
full gather moves; the 1.5D slab broadcasts likewise ship the exported
rows of the ``q`` groups' blocks, not ``n f / c`` words.

These formulas drive the analytic full-scale reproduction (the real
Reddit/Amazon/Protein sizes from Table VI), the 1D-vs-2D-vs-3D scaling
bench, and the crossover bench behind the paper's "competitive when
sqrt(p) >= 5" claim (Section VI-d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.config import MachineProfile

__all__ = [
    "CommEstimate",
    "words_1d",
    "words_1d_symmetric",
    "words_1d_transpose",
    "words_15d",
    "words_2d",
    "words_3d",
    "ratio_1d_over_2d",
    "crossover_p_2d_vs_1d",
]


@dataclass(frozen=True)
class CommEstimate:
    """Per-process, per-epoch communication estimate."""

    algorithm: str
    words: float      # bandwidth-term words moved per process per epoch
    messages: float   # latency-term message count per process per epoch

    def seconds(self, profile: MachineProfile,
                word_bytes: Optional[int] = None) -> float:
        wb = profile.word_bytes if word_bytes is None else word_bytes
        return self.messages * profile.alpha + self.words * wb * profile.beta


def _lg(p: float) -> float:
    return math.log2(p) if p > 1 else 0.0


def _default_edgecut(n: int, p: int) -> float:
    """Random-partition expectation: ``n (P-1)/P`` (Section IV-A.1)."""
    return n * (p - 1) / p


def words_1d(
    n: int, nnz: int, f: float, layers: int, p: int,
    edgecut: Optional[float] = None,
) -> CommEstimate:
    """1D block-row algorithm, general (directed) case (Section IV-A.5)."""
    if p < 1:
        raise ValueError(f"P must be >= 1, got {p}")
    ec = _default_edgecut(n, p) if edgecut is None else edgecut
    words = layers * (ec * f + n * f + f * f)
    messages = layers * 3 * _lg(p)
    return CommEstimate("1d", words, messages)


def words_1d_symmetric(
    n: int, nnz: int, f: float, layers: int, p: int,
    edgecut: Optional[float] = None,
) -> CommEstimate:
    """Symmetric case: outer product traded for block-row (Section IV-A.6)."""
    ec = _default_edgecut(n, p) if edgecut is None else edgecut
    words = layers * (2 * ec * f + f * f)
    messages = layers * 3 * _lg(p)
    return CommEstimate("1d-sym", words, messages)


def words_1d_transpose(
    n: int, nnz: int, f: float, layers: int, p: int,
    edgecut: Optional[float] = None,
) -> CommEstimate:
    """Transposing variant (Section IV-A.7): symmetric-case cost plus the
    per-epoch transposition ``2 alpha p^2 + 2 beta nnz/P``."""
    base = words_1d_symmetric(n, nnz, f, layers, p, edgecut)
    return CommEstimate(
        "1d-trans",
        base.words + 2 * nnz / p,
        base.messages + 2 * p * p,
    )


def words_15d(
    n: int, nnz: int, f: float, layers: int, p: int, c: int
) -> CommEstimate:
    """1.5D block row with replication ``c`` (our Section IV-B derivation).

    Per layer and per process: broadcasts deliver ``n f / c`` words (only
    the layer's share of stages), fiber all-reduces cost ``2 n f c / P``,
    and the pattern runs twice (forward + symmetric backward) plus the
    ``f^2`` gradient all-reduce.  ``c = 1`` recovers the symmetric 1D cost
    with ``edgecut = n`` (broadcast implementation).
    """
    if c < 1 or p % c != 0:
        raise ValueError(f"replication {c} must divide P={p}")
    q = p // c
    words = layers * (2 * n * f / c + 4 * n * f * c / p + f * f)
    messages = layers * 2 * q * max(1.0, _lg(q))
    return CommEstimate(f"1.5d(c={c})", words, messages)


def words_2d(n: int, nnz: int, f: float, layers: int, p: int) -> CommEstimate:
    """Block 2D / SUMMA algorithm (Section IV-C.5)."""
    sp = math.sqrt(p)
    words = layers * (8 * n * f / sp + 2 * nnz / sp + f * f)
    messages = layers * (5 * sp + 3 * _lg(p))
    return CommEstimate("2d", words, messages)


def words_3d(n: int, nnz: int, f: float, layers: int, p: int) -> CommEstimate:
    """Block 3D / Split-SpMM algorithm (Section IV-D.5)."""
    p23 = p ** (2.0 / 3.0)
    p13 = p ** (1.0 / 3.0)
    words = layers * (2 * nnz / p23 + 12 * n * f / p23)
    messages = layers * 4 * p13
    return CommEstimate("3d", words, messages)


def ratio_1d_over_2d(n: int, nnz: int, f: float, layers: int, p: int) -> float:
    """Words(1D) / Words(2D) under the paper's simplifying assumptions.

    Section IV-C.5: with random partitioning (edgecut ~ n), ``nnz ~ n f``
    (``d ~ f``) and negligible ``f``, "the 2D algorithm would only move
    (10 / 2 sqrt(p)) = (5 / sqrt(p))-th of the data moved by the 1D
    algorithm" -- i.e. this ratio approaches ``sqrt(p) / 5``.
    """
    w1 = words_1d(n, nnz, f, layers, p).words
    w2 = words_2d(n, nnz, f, layers, p).words
    return w1 / w2


def crossover_p_2d_vs_1d(
    n: int, nnz: int, f: float, layers: int, p_max: int = 4096
) -> Optional[int]:
    """Smallest square P where 2D moves fewer words than 1D.

    The paper: "our 2D implementation will only be competitive with 1D
    approaches when sqrt(p) >= 5" (Section VI-d), i.e. P ~ 25.
    """
    p = 1
    while p * p <= p_max:
        pp = p * p
        if words_2d(n, nnz, f, layers, pp).words < words_1d(
            n, nnz, f, layers, pp
        ).words:
            return pp
        p += 1
    return None
