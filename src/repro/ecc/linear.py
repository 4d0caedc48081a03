"""Systematic linear block codes over GF(2).

The paper's Section II-C recaps the standard construction: an (n, k) linear
block code is defined by a generator matrix ``G = [I_k | -A^T]`` and a
parity-check matrix ``H = [A | I_{n-k}]`` (over GF(2) the sign is
irrelevant).  Encoding multiplies the k-bit data vector by G; checking
multiplies the n-bit codeword by H to obtain the (n−k)-bit *syndrome*; a zero
syndrome means "no error", and for single-error-correcting codes each
non-zero syndrome identifies a unique flip position.

:class:`SystematicLinearCode` implements this machinery generically.  The
Hamming and BCH classes build their ``A`` submatrices and reuse everything
here, which is exactly the property ECiM exploits: row ``j`` of ``A^T`` tells
which parity bits must be toggled when data bit ``j`` changes
(Section IV-C, "Generating Hamming Codes in Memory").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.ecc import gf2
from repro.errors import CodeConstructionError

__all__ = ["DecodeResult", "SystematicLinearCode"]


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of decoding one received word.

    ``corrected`` is the full corrected codeword, ``data`` its systematic
    (message) part, ``error_positions`` the indices that were flipped, and
    ``detected_uncorrectable`` is True when the syndrome was non-zero but did
    not match any correctable error pattern.
    """

    corrected: np.ndarray
    data: np.ndarray
    error_positions: Tuple[int, ...]
    detected_uncorrectable: bool = False

    @property
    def error_detected(self) -> bool:
        return bool(self.error_positions) or self.detected_uncorrectable

    @property
    def error_corrected(self) -> bool:
        return bool(self.error_positions) and not self.detected_uncorrectable


class SystematicLinearCode:
    """An (n, k) systematic linear block code defined by its ``A`` submatrix.

    Parameters
    ----------
    a_matrix:
        The (n−k) × k binary submatrix from Equation (1) of the paper.
        Column ``j`` of ``A`` lists which check symbols cover data bit ``j``.
    name:
        Human-readable name used in reports (e.g. ``"Hamming(7,4)"``).

    The codeword layout is systematic with the data bits first:
    ``codeword = [data | checks]``, matching ``G = [I_k | A^T]`` and
    ``H = [A | I_{n-k}]``.
    """

    def __init__(self, a_matrix: Sequence, name: Optional[str] = None) -> None:
        a = gf2.as_gf2(a_matrix)
        if a.ndim != 2:
            raise CodeConstructionError("A must be a 2-D matrix")
        n_minus_k, k = a.shape
        if n_minus_k <= 0 or k <= 0:
            raise CodeConstructionError("A must have positive dimensions")
        self._a = a
        self._k = int(k)
        self._n = int(k + n_minus_k)
        self._name = name or f"LinearCode({self._n},{self._k})"
        self._generator = gf2.hstack([gf2.identity(self._k), a.T])
        self._parity_check = gf2.hstack([a, gf2.identity(n_minus_k)])
        self._syndrome_table = self._build_single_error_syndrome_table()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def _build_single_error_syndrome_table(self) -> Dict[Tuple[int, ...], int]:
        """Map each single-bit-error syndrome to the flipped position.

        Positions whose syndromes collide (which happens when the code's
        minimum distance is below 3) are dropped from the table; decoding a
        collision then reports "detected but uncorrectable".
        """
        table: Dict[Tuple[int, ...], int] = {}
        collisions = set()
        # The syndrome of a single error at ``position`` is H's column there.
        for position, column in enumerate(self._parity_check.T.tolist()):
            syndrome = tuple(column)
            if syndrome in table or syndrome in collisions:
                collisions.add(syndrome)
                table.pop(syndrome, None)
            else:
                table[syndrome] = position
        return table

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Codeword length."""
        return self._n

    @property
    def k(self) -> int:
        """Number of data (message) bits."""
        return self._k

    @property
    def n_parity(self) -> int:
        """Number of check symbols (n − k)."""
        return self._n - self._k

    @property
    def name(self) -> str:
        return self._name

    @property
    def rate(self) -> float:
        """Code rate k / n."""
        return self._k / self._n

    @property
    def generator_matrix(self) -> np.ndarray:
        """G = [I_k | A^T] (copy)."""
        return self._generator.copy()

    @property
    def parity_check_matrix(self) -> np.ndarray:
        """H = [A | I_{n-k}] (copy)."""
        return self._parity_check.copy()

    @property
    def a_matrix(self) -> np.ndarray:
        """The (n−k) × k submatrix A (copy)."""
        return self._a.copy()

    def single_error_syndrome_table(self) -> Dict[Tuple[int, ...], int]:
        """Syndrome → flipped-position map for every correctable single-bit
        error (copy).

        Syndromes that collide between positions are absent — decoding them
        reports "detected but uncorrectable".  This is the exact table
        :meth:`decode` consults, exposed so alternative decoders (the tape
        engine's dense LUT) derive from one implementation instead of
        re-deriving the collision semantics.
        """
        return dict(self._syndrome_table)

    def is_single_error_correcting(self) -> bool:
        """True if every single-bit error has a unique, non-zero syndrome."""
        if len(self._syndrome_table) != self._n:
            return False
        zero = tuple([0] * self.n_parity)
        return zero not in self._syndrome_table

    def minimum_distance(self, max_enumeration_bits: int = 16) -> int:
        """Exact minimum distance by codeword enumeration (small k only)."""
        if self._k > max_enumeration_bits:
            raise CodeConstructionError(
                f"refusing to enumerate 2^{self._k} codewords; "
                "minimum_distance is intended for small codes"
            )
        best = self._n
        for data in gf2.all_binary_vectors(self._k):
            if not data.any():
                continue
            word = self.encode(data)
            best = min(best, gf2.weight(word))
        return best

    # ------------------------------------------------------------------ #
    # Encoding / decoding
    # ------------------------------------------------------------------ #
    def _check_data(self, data: Sequence[int]) -> np.ndarray:
        vector = gf2.as_gf2(data)
        if vector.ndim != 1 or vector.shape[0] != self._k:
            raise CodeConstructionError(
                f"{self._name} expects {self._k} data bits, got shape {vector.shape}"
            )
        return vector

    def _check_word(self, word: Sequence[int]) -> np.ndarray:
        vector = gf2.as_gf2(word)
        if vector.ndim != 1 or vector.shape[0] != self._n:
            raise CodeConstructionError(
                f"{self._name} expects {self._n} codeword bits, got shape {vector.shape}"
            )
        return vector

    def parity_bits(self, data: Sequence[int]) -> np.ndarray:
        """Check symbols for a data vector: ``A @ data`` over GF(2)."""
        return gf2.gf2_matvec(self._a, self._check_data(data))

    def encode(self, data: Sequence[int]) -> np.ndarray:
        """Systematic codeword ``[data | parity]``."""
        data_vec = self._check_data(data)
        return np.concatenate([data_vec, gf2.gf2_matvec(self._a, data_vec)]).astype(np.uint8)

    def syndrome(self, word: Sequence[int]) -> np.ndarray:
        """Syndrome ``H @ word`` over GF(2)."""
        return gf2.gf2_matvec(self._parity_check, self._check_word(word))

    def decode(self, word: Sequence[int]) -> DecodeResult:
        """Correct up to one bit error (syndrome decoding).

        A zero syndrome returns the word unchanged; a syndrome matching a
        single-bit error flips that bit; any other syndrome is reported as
        detected-but-uncorrectable (the word is returned unchanged so the
        caller can decide how to recover).
        """
        received = self._check_word(word)
        syndrome = tuple(int(b) for b in self.syndrome(received))
        if not any(syndrome):
            return DecodeResult(
                corrected=received.copy(),
                data=received[: self._k].copy(),
                error_positions=(),
            )
        position = self._syndrome_table.get(syndrome)
        if position is None:
            return DecodeResult(
                corrected=received.copy(),
                data=received[: self._k].copy(),
                error_positions=(),
                detected_uncorrectable=True,
            )
        corrected = received.copy()
        corrected[position] ^= 1
        return DecodeResult(
            corrected=corrected,
            data=corrected[: self._k].copy(),
            error_positions=(position,),
        )

    def extract_data(self, word: Sequence[int]) -> np.ndarray:
        """Message part of a codeword (systematic codes allow direct access)."""
        return self._check_word(word)[: self._k].copy()

    # ------------------------------------------------------------------ #
    # ECiM-facing helpers
    # ------------------------------------------------------------------ #
    def parity_bits_affected_by(self, data_bit: int) -> Tuple[int, ...]:
        """Indices of the check symbols covering ``data_bit``.

        This is row ``data_bit`` of ``A^T`` (equivalently, column ``data_bit``
        of ``A``), i.e. exactly the set of parity bits ECiM must XOR-update
        when that data bit is produced by a computation (Section IV-C).
        """
        if not 0 <= data_bit < self._k:
            raise CodeConstructionError(
                f"data bit index {data_bit} outside 0..{self._k - 1}"
            )
        column = self._a[:, data_bit]
        return tuple(int(i) for i in np.flatnonzero(column))

    def average_parity_updates_per_data_bit(self) -> float:
        """Mean number of check symbols covering a data bit.

        Each covered check symbol costs ECiM one in-array XOR (two gate
        steps), so this is the key per-gate metadata cost driver.
        """
        return float(self._a.sum()) / self._k

    def update_parity_for_bit_change(
        self, parity: Sequence[int], data_bit: int
    ) -> np.ndarray:
        """Incrementally update check symbols after ``data_bit`` toggled.

        Because the code is linear, flipping one data bit flips exactly the
        check symbols in its ``A`` column — no access to the other data bits
        is needed.  This mirrors the in-memory parity update of ECiM and is
        used by tests to cross-validate the in-array implementation.
        """
        parity_vec = gf2.as_gf2(parity)
        if parity_vec.shape[0] != self.n_parity:
            raise CodeConstructionError(
                f"expected {self.n_parity} parity bits, got {parity_vec.shape[0]}"
            )
        updated = parity_vec.copy()
        for index in self.parity_bits_affected_by(data_bit):
            updated[index] ^= 1
        return updated

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self._name} n={self._n} k={self._k}>"
