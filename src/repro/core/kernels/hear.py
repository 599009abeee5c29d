"""The hear kernel: "who heard ≥ 1 beep" over the CSR pattern.

The beeping model's entire communication step is the boolean
neighborhood aggregation ``heard = (A @ beeps) > 0``.  Every predicate
the engines evaluate — reception, the blocked test inside ``I_t``, the
dominated test inside ``S_t`` and legality — is an instance of it, so
one :class:`HearKernel` covers all of them:

``hear(active)``
    ``(n,)`` bool → ``(n,)`` bool: vertices with an active neighbor.
``hear_rows(rows, out=None)``
    ``(R, n)`` bool → ``(R, n)`` bool, **C-contiguous**, row ``r``
    independent of every other row (the batched replicas).

Both read the canonical CSR adjacency of the graph's
:class:`~repro.core.kernels.structure.GraphStructure`; the kernel hides
that format from the engines and owns the scratch buffers it reuses
across rounds.

One row runs scipy's single-vector int32 product, ``> 0``.  A block of
``R ≥ 2`` rows is *replica-packed*: in chunks of at most 64 rows, bit
``r`` of vertex ``v``'s word is ``rows[r, v]``; the words are gathered
along ``csr.indices`` and OR-reduced per CSR row (``reduceat``), and the
result is unpacked into the output block.  Nothing is counted, so
nothing can overflow at any degree.

**Pattern contract.**  The OR-gather reads only the sparsity pattern,
so it equals ``(A @ x) > 0`` exactly when every stored entry is
positive.  Every structure the repository builds stores all-ones int32
data (fresh builds and incrementally patched CSRs alike), and
:meth:`GraphStructure.from_csr` rejects a foreign matrix with a stored
entry ≤ 0 and stores positive weights as that same pattern.  ``tests/test_kernels.py`` checks both entry points against
an edge-list oracle across word widths, chunk boundaries, empty rows
and ≥ 8 graph families.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np
import numpy.typing as npt

from .structure import GraphStructure

__all__ = ["HearKernel"]

BoolVector = npt.NDArray[np.bool_]
BoolMatrix = npt.NDArray[np.bool_]
Words = npt.NDArray[Any]

try:  # scipy's C kernel, minus the ~10 µs/call Python dispatch tax
    from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
except ImportError:  # pragma: no cover - future scipy layout changes
    _csr_matvec = None

#: Replicas packed into one word: the widest unsigned integer.
_CHUNK = 64

#: Word types by width.  The narrow ones hold OR-ed bits, never counts,
#: so no width can overflow (RPR302 guards summed small dtypes).  They
#: pay: with uint64 words for every chunk, a (16, 2**16) block takes
#: 7.2–7.5 ms against 3.6–4.3 ms and a (32, 2**15) block 4.3–4.5 against
#: 2.5–3.1 ms (ER mean degree 8, 2-vCPU host), because pack, gather and
#: reduce move 4× or 2× the bytes; ``bench/run.py`` ``sweep-large``
#: throughput falls 17.6 % (median of six pairs).
_WORD_TYPES = (np.uint8, np.uint16, np.uint32, np.uint64)  # repro: allow[RPR302]


def _word_type(h: int) -> Any:
    """The narrowest word type with ≥ ``h`` bits (``h ≤ 64``)."""
    return next(w for w in _WORD_TYPES if h <= 8 * np.dtype(w).itemsize)


class _Words:
    """Scratch for one word width, sliced to the chunk height.

    ``wide`` holds the per-row shifted bits on the way in and the
    per-row masked bits on the way out; ``gathered`` carries one trailing
    zero so ``reduceat`` may start a run at ``nnz`` (empty rows at the
    end of the id space).
    """

    def __init__(self, word: Any, n: int, nnz: int):
        bits = 8 * np.dtype(word).itemsize
        self.shifts = np.arange(bits, dtype=word).reshape(bits, 1)
        self.bit_table = np.left_shift(word(1), self.shifts)
        self.wide: Words = np.empty((bits, n), dtype=word)
        self.words: Words = np.empty(n, dtype=word)
        self.gathered: Words = np.zeros(nnz + 1, dtype=word)
        self.heard: Words = np.empty(n, dtype=word)


class _PackedHear:
    """The replica-packed OR-gather over one CSR pattern.

    ``starts`` are the CSR row starts as ``reduceat`` offsets and
    ``empty`` the rows with no stored entry, whose ``reduceat`` value is
    the next row's first word and must be zeroed.
    """

    def __init__(self, csr: Any):
        self.indices = csr.indices
        self.n = int(csr.shape[0])
        indptr = csr.indptr
        self.starts = indptr[:-1].astype(np.intp)
        self.empty = np.flatnonzero(indptr[1:] == indptr[:-1])
        self._scratch: Dict[Any, _Words] = {}

    def hear(self, rows: BoolMatrix, out: BoolMatrix) -> None:
        """One chunk of ≤ 64 rows: pack, gather, OR-reduce, unpack."""
        h = rows.shape[0]
        word = _word_type(h)
        scratch = self._scratch.get(word)
        if scratch is None:
            scratch = _Words(word, self.n, self.indices.size)
            self._scratch[word] = scratch
        wide = scratch.wide[:h]
        np.left_shift(rows, scratch.shifts[:h], out=wide, dtype=word)
        np.bitwise_or.reduce(wide, axis=0, out=scratch.words)
        gathered = scratch.gathered
        np.take(scratch.words, self.indices, out=gathered[:-1])
        heard = scratch.heard
        np.bitwise_or.reduceat(gathered, self.starts, out=heard)
        if self.empty.size:
            heard[self.empty] = 0
        np.bitwise_and(heard, scratch.bit_table[:h], out=wide)
        np.not_equal(wide, 0, out=out)


class HearKernel:
    """Hear against one graph structure.

    ``hear`` and one-row blocks compute ``adjacency.dot(mask) > 0``
    through a reused int32 accumulator; ``hear_rows`` packs blocks of
    ``R ≥ 2`` replicas into words and ORs them along the CSR pattern
    (module docstring), writing a C-contiguous output with no trailing
    copy.
    """

    def __init__(self, structure: GraphStructure):
        self.structure = structure
        self.n = structure.n
        #: Reused int32 cast of an ``(n,)`` activity mask and the
        #: product's accumulator (cast-on-store: the counts are exact).
        self._active_i32: npt.NDArray[np.int32] = np.empty(
            structure.n, dtype=np.int32
        )
        self._counts: npt.NDArray[np.int32] = np.empty(
            structure.n, dtype=np.int32
        )
        #: Built on the first multi-row call: a service rebind only ever
        #: hears one row and never pays for it.
        self._packed: Optional[_PackedHear] = None

    def _hear_one(self, active: BoolVector, out: Optional[BoolVector]) -> BoolVector:
        """The single-vector product, ``> 0`` (into ``out`` if given)."""
        csr = self.structure.csr
        np.copyto(self._active_i32, active)
        if _csr_matvec is None:
            counts = csr.dot(self._active_i32)
        else:
            counts = self._counts
            counts.fill(0)
            _csr_matvec(
                self.n, self.n, csr.indptr, csr.indices, csr.data,
                self._active_i32, counts,
            )
        return np.greater(counts, 0, out=out)  # type: ignore[no-any-return]

    def hear(self, active: BoolVector) -> BoolVector:
        """``(n,)`` bool mask of vertices with ≥ 1 active neighbor."""
        return self._hear_one(active, None)

    def hear_rows(
        self, rows: BoolMatrix, out: Optional[BoolMatrix] = None
    ) -> BoolMatrix:
        """Row-wise :meth:`hear` over an ``(R, n)`` block, C-contiguous.

        ``out`` (optional, ``(R, n)`` bool, C-contiguous) receives the
        result in place — the batched engine reuses one buffer per round.
        A one-row block takes the single-vector product; taller blocks
        run the packed OR-gather in chunks of at most 64 rows.
        """
        if out is None:
            out = np.empty(rows.shape, dtype=bool)
        k = rows.shape[0]
        if k == 1:
            self._hear_one(rows[0], out[0])
            return out
        packed = self._packed
        if packed is None:
            packed = self._packed = _PackedHear(self.structure.csr)
        for lo in range(0, k, _CHUNK):
            hi = min(lo + _CHUNK, k)
            packed.hear(rows[lo:hi], out[lo:hi])
        return out
