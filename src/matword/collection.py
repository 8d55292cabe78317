"""A named, dimension-checked family of nonnegative square matrices."""

from dataclasses import dataclass, field

import numpy as np

from . import numeric, spectral
from .exceptions import DimensionMismatch, InvalidLetter, ParseError


@dataclass(frozen=True)
class MatrixCollection:
    """The finite family {A_1, ..., A_N} every analysis runs over.

    Names double as word letters on the command line, so each must be a
    single character.  Matrices are stored read-only, so the spectral
    results derived from them (each letter's eigendecomposition, the
    common eigensystem, periods) are computed once per collection and
    shared; those results hold read-only arrays.
    """

    names: tuple
    matrices: tuple
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.names) == 0:
            raise ParseError("collection must contain at least one matrix")
        if len(self.names) != len(self.matrices):
            raise ParseError("names and matrices differ in length")
        if len(set(self.names)) != len(self.names):
            raise ParseError(f"duplicate matrix names in {self.names}")
        for name in self.names:
            if not (isinstance(name, str) and len(name) == 1 and name.isalnum()):
                raise ParseError(
                    f"matrix name {name!r} is not a single alphanumeric letter"
                )
        mats = []
        n = None
        for name, M in zip(self.names, self.matrices):
            M = numeric.require_square(np.asarray(M, dtype=np.float64), what=name)
            numeric.require_finite(M, what=name)
            if n is None:
                n = M.shape[0]
            elif M.shape[0] != n:
                raise DimensionMismatch(
                    f"matrix {name} is {M.shape[0]}x{M.shape[0]}, expected {n}x{n}"
                )
            M = M.copy()
            M.setflags(write=False)
            mats.append(M)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "matrices", tuple(mats))

    @property
    def n(self):
        return self.matrices[0].shape[0]

    @property
    def N(self):
        return len(self.matrices)

    def __len__(self):
        return self.N

    def __getitem__(self, letter):
        """Matrix for a 0-based letter index or a name."""
        return self.matrices[self.letter_index(letter)]

    def _memoised(self, key, compute):
        """``compute()``, run once per ``key``, which names the computation
        and every argument that affects it.  A raising call stores
        nothing, so it raises again when repeated."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute()
            return value

    def _spectrum(self, index):
        """The memoised :func:`~matword.spectral._eig` of a letter's matrix."""
        return self._memoised(("eig", index), lambda: spectral._eig(
            self.matrices[index], vectors=True))

    def _eigenpairs(self, index):
        """:func:`~matword.spectral.eigendecompose` of the matrix at a
        0-based letter index, as a tuple, from its :meth:`_spectrum`."""
        return self._memoised(("eigendecompose", index), lambda: tuple(
            spectral._pairs(self.matrices[index], *self._spectrum(index))))

    def letter_index(self, letter):
        if isinstance(letter, str):
            try:
                return self.names.index(letter)
            except ValueError:
                raise InvalidLetter(f"unknown matrix name {letter!r}") from None
        idx = int(letter)
        if not 0 <= idx < self.N:
            raise InvalidLetter(f"letter index {idx} outside [0, {self.N})")
        return idx
