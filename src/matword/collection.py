"""A named, dimension-checked family of nonnegative square matrices."""

from dataclasses import dataclass

import numpy as np

from . import numeric
from .exceptions import DimensionMismatch, InvalidLetter, ParseError


@dataclass(frozen=True)
class MatrixCollection:
    """The finite family {A_1, ..., A_N} every analysis runs over.

    Names double as word letters on the command line, so each must be a
    single character.  Matrices are stored read-only.
    """

    names: tuple
    matrices: tuple

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
