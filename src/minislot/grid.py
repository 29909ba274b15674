"""Mini-slot resource grids: pilot patterns, element classes, alphabets.

A mini-slot spans T in {2, 4, 7} OFDM symbols over K subcarriers. The
pilot-assisted scheme places all-ones pilots on one or two pilot-carrying
symbols at every delta_sub-th subcarrier starting from k = 0; differential
schemes carry a reference column/row instead of pilots. Every other symbol
reuses the estimates of its nearest preceding pilot symbol
(source_pilot_symbols); the symbols that reuse one pilot symbol form its
pilot window. class_map is the one definition of that geometry: its classes
partition the K x T grid, and their counts drive the data-symbol accounting
and, on the first pilot window, the estimation-MSE averages in chanest.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PA",
    "FDDI",
    "TDDI",
    "SCHEMES",
    "MINI_SLOT_LENGTHS",
    "ReClass",
    "PilotPattern",
    "MiniSlotGrid",
    "Constellation",
    "psk",
    "qam",
    "default_constellation",
    "standard_pattern",
    "PA_CLASSES",
    "source_pilot_symbols",
    "class_map",
    "data_symbol_count",
]

PA = "PA"
FDDI = "FDDi"
TDDI = "TDDi"
SCHEMES = (PA, FDDI, TDDI)

MINI_SLOT_LENGTHS = (2, 4, 7)


class ReClass(enum.IntEnum):
    """Resource-element class; class_map holds these as int8 codes."""

    PILOT = 0
    LINEAR_DATA = 1
    EDGE_DATA = 2
    REGION_A = 3
    REGION_B = 4
    EDGE_REGION_B = 5
    DIFF_REFERENCE = 6
    DIFF_DATA = 7


@dataclass(frozen=True)
class PilotPattern:
    """Pilot geometry: the pilot-carrying symbols (1-based) and the pilot
    subcarrier spacing delta_sub. Every other symbol reuses its nearest
    preceding pilot symbol (source_pilot_symbols), which also fixes the pilot
    windows: the first is the symbols that reuse symbol 1.
    """

    pilot_symbols: tuple
    delta_sub: int

    def __post_init__(self):
        if len(self.pilot_symbols) < 1:
            raise ValueError("need at least one pilot-carrying symbol")
        if self.delta_sub < 1:
            raise ValueError("delta_sub must be >= 1")
        object.__setattr__(self, "pilot_symbols", tuple(sorted(self.pilot_symbols)))


@dataclass(frozen=True)
class MiniSlotGrid:
    """K x T resource grid, with a pilot pattern for the coherent scheme."""

    n_subcarriers: int
    n_symbols: int
    pattern: PilotPattern | None = None

    def __post_init__(self):
        if self.n_symbols not in MINI_SLOT_LENGTHS:
            raise ValueError(f"mini-slot length must be one of {MINI_SLOT_LENGTHS}")
        if self.n_subcarriers < 2:
            raise ValueError("need K > 1 subcarriers")
        if self.pattern is not None:
            p = self.pattern
            if self.n_subcarriers % p.delta_sub != 0:
                raise ValueError("delta_sub must divide K")
            if any(t < 1 or t > self.n_symbols for t in p.pilot_symbols):
                raise ValueError("pilot symbol indices must lie in [1, T]")


def standard_pattern(n_symbols: int, high_mobility: bool, delta_sub: int) -> PilotPattern:
    """Standard pilot placement for the T = 2 / 4 / 7 mini-slots.

    A single pilot symbol leads the slot except in the high-mobility 7-symbol
    case, where a second pilot symbol sits at t = 5 (the middle of the slot).
    """
    if n_symbols not in MINI_SLOT_LENGTHS:
        raise ValueError(f"mini-slot length must be one of {MINI_SLOT_LENGTHS}")
    if n_symbols == 7 and high_mobility:
        return PilotPattern(pilot_symbols=(1, 5), delta_sub=delta_sub)
    return PilotPattern(pilot_symbols=(1,), delta_sub=delta_sub)


# PA class of an element by (symbol role, subcarrier role): symbols carry
# pilots or reuse the preceding pilot symbol's estimates; subcarriers are
# pilots, linearly interpolated, or extrapolated past the last pilot.
_PA_CLASSES = np.array([
    [ReClass.PILOT, ReClass.LINEAR_DATA, ReClass.EDGE_DATA],
    [ReClass.REGION_A, ReClass.REGION_B, ReClass.EDGE_REGION_B],
], dtype=np.int8)
PA_CLASSES = tuple(ReClass(c) for c in _PA_CLASSES.flat)


def source_pilot_symbols(grid: MiniSlotGrid) -> np.ndarray:
    """The pilot symbol whose estimates each symbol uses: a (T,) int array,
    entry t - 1 the nearest pilot-carrying symbol s <= t (s = t on the pilot
    symbols themselves). Symbol 1 must carry pilots."""
    if grid.pattern is None:
        raise ValueError("pilot-assisted estimation needs a pilot pattern")
    pilots = np.array(grid.pattern.pilot_symbols)
    if pilots[0] != 1:
        raise ValueError("symbol 1 must carry pilots: no earlier pilot symbol to reuse")
    t = np.arange(1, grid.n_symbols + 1)
    return pilots[np.searchsorted(pilots, t, side="right") - 1]


def class_map(grid: MiniSlotGrid, scheme: str) -> np.ndarray:
    """The class of every resource element: a (K, T) int8 array of ReClass
    codes, row k the 0-based subcarrier, column t - 1 the 1-based symbol t.

    Pilot-assisted grids split into pilots, linearly interpolated data and
    edge-extrapolated data (past the last pilot subcarrier) on pilot-carrying
    symbols, and region A (pilot subcarriers), region B (interpolated
    subcarriers) and edge region B (extrapolated subcarriers) on the symbols
    that reuse estimates in time. Differential grids have a reference column
    (FDDi, k = 0) or row (TDDi, t = 1).
    """
    K, T = grid.n_subcarriers, grid.n_symbols
    if scheme in (FDDI, TDDI):
        cmap = np.full((K, T), ReClass.DIFF_DATA, dtype=np.int8)
        if scheme == FDDI:
            cmap[0, :] = ReClass.DIFF_REFERENCE
        else:
            cmap[:, 0] = ReClass.DIFF_REFERENCE
        return cmap
    if scheme != PA:
        raise ValueError(f"unknown scheme {scheme!r}")
    t_role = (source_pilot_symbols(grid) != np.arange(1, T + 1)).astype(np.intp)
    delta_sub = grid.pattern.delta_sub
    k_role = np.ones(K, dtype=np.intp)
    k_role[::delta_sub] = 0  # pilots anchored at k = 0, step delta_sub
    k_role[K - delta_sub + 1:] = 2  # past the last pilot, k = K - delta_sub
    return _PA_CLASSES[t_role[None, :], k_role[:, None]]


def data_symbol_count(grid: MiniSlotGrid, scheme: str) -> int:
    """Available data symbols N for one scheme on this grid: every element
    of class_map that is neither a pilot nor a differential reference."""
    cmap = class_map(grid, scheme)
    return int(np.count_nonzero((cmap != ReClass.PILOT) & (cmap != ReClass.DIFF_REFERENCE)))


# ---------------------------------------------------------------------------
# Constellations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constellation:
    """Unit-average-power symbol alphabet."""

    kind: str  # 'psk' or 'qam'
    order: int
    points: np.ndarray

    def __post_init__(self):
        if self.order < 2 or (self.order & (self.order - 1)) != 0:
            raise ValueError("constellation order must be a power of 2")


def psk(order: int) -> Constellation:
    """M-PSK alphabet exp(j*2*pi*m/M), m = 0..M-1."""
    pts = np.exp(2j * np.pi * np.arange(order) / order)
    return Constellation(kind="psk", order=order, points=pts)


def qam(order: int) -> Constellation:
    """Square M-QAM with odd-integer coordinates, normalized to unit power."""
    side = int(round(np.sqrt(order)))
    if side * side != order:
        raise ValueError("QAM order must be a perfect square")
    levels = np.arange(-(side - 1), side, 2, dtype=float)  # -(side-1) .. side-1
    re, im = np.meshgrid(levels, levels)
    pts = (re + 1j * im).ravel()
    xi = 2.0 * (order - 1) / 3.0  # average power of the raw lattice
    return Constellation(kind="qam", order=order, points=pts / np.sqrt(xi))


def default_constellation(scheme: str, order: int) -> Constellation:
    """Alphabet convention: differential schemes ride PSK phases by
    construction; the coherent scheme uses square QAM when one exists
    (QPSK and 4-QAM are the same set) and falls back to PSK otherwise.
    """
    if scheme in (FDDI, TDDI):
        return psk(order)
    side = int(round(np.sqrt(order)))
    if side * side == order:
        return qam(order)
    return psk(order)
