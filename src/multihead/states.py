"""State specification for the two superposition families.

A state is fully determined by the seed amplitude, the head count N, and
whether the N coherent heads are combined as a statistical mixture
(incoherent family) or as an amplitude-level superposition (coherent
family, the generalized cat states).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import InvalidInputError
from .roots import PolarAmplitude


class Family(enum.Enum):
    INCOHERENT = "incoherent"
    COHERENT = "coherent"

    @classmethod
    def parse(cls, text: str) -> "Family":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise InvalidInputError(
                f"family must be 'incoherent' or 'coherent', got {text!r}"
            ) from None


@dataclass(frozen=True)
class StateSpec:
    """Seed amplitude, head count and superposition family of one state."""

    alpha: PolarAmplitude
    n_heads: int
    family: Family

    def __post_init__(self):
        if not isinstance(self.n_heads, int) or self.n_heads < 1:
            raise InvalidInputError(
                f"head count must be a positive integer, got {self.n_heads!r}"
            )
        if not isinstance(self.family, Family):
            raise InvalidInputError(f"unknown family {self.family!r}")

    @property
    def is_coherent(self) -> bool:
        return self.family is Family.COHERENT
