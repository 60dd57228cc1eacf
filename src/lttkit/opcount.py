"""Scalar-multiplication counter threaded through the numeric kernels.

Counts multiplications in the active field only (one complex product is one
multiplication, one rational product is one multiplication). Additions,
negations and divisions are not counted.

This is the field-operation model, not a measure of bit work: an exact
l.t.T. product of length n counts its n(n+1)/2 coefficient products,
whichever kernel forms them. ``series.ltt_matvec_naive`` forms each one;
``series.ltt_matvec_kronecker`` gets them all from four big-integer
multiplies of a quarter of the size (four-point Kronecker substitution).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class OpCounter:
    mults: int = 0

    def add(self, count: int) -> None:
        self.mults += count
