"""Resource grid classes and constellations."""

import numpy as np
import pytest

from minislot.grid import (
    FDDI,
    MINI_SLOT_LENGTHS,
    PA,
    SCHEMES,
    TDDI,
    Constellation,
    MiniSlotGrid,
    PilotPattern,
    ReClass,
    class_map,
    data_symbol_count,
    default_constellation,
    psk,
    qam,
    source_pilot_symbols,
    standard_pattern,
)


def make_grid(K=64, T=2, delta_sub=2, high_mobility=False):
    return MiniSlotGrid(K, T, standard_pattern(T, high_mobility, delta_sub))


def test_standard_pattern_placement():
    assert standard_pattern(2, False, 2) == PilotPattern((1,), 2)
    assert standard_pattern(4, False, 2) == PilotPattern((1,), 2)
    assert standard_pattern(7, False, 4) == PilotPattern((1,), 4)
    # only the 7-symbol slot grows a second pilot symbol under high mobility
    assert standard_pattern(7, True, 2) == PilotPattern((1, 5), 2)
    assert standard_pattern(2, True, 2) == PilotPattern((1,), 2)
    assert standard_pattern(4, True, 2) == PilotPattern((1,), 2)


def test_grid_validation():
    with pytest.raises(ValueError):
        MiniSlotGrid(64, 3)  # 3 is not a mini-slot length
    with pytest.raises(ValueError):
        MiniSlotGrid(64, 2, PilotPattern((1,), 3))  # 3 does not divide 64
    with pytest.raises(ValueError):
        MiniSlotGrid(64, 2, PilotPattern((5,), 2))  # symbol outside slot
    with pytest.raises(ValueError):
        class_map(make_grid(), "DPSK")
    with pytest.raises(ValueError):
        class_map(MiniSlotGrid(64, 2), PA)  # no pattern


def test_pilot_count():
    """lambda_p = K / delta_sub pilots on the pilot-carrying symbol."""
    for K, T, delta_sub, want in ((64, 2, 2, 32), (64, 2, 4, 16), (256, 4, 2, 128)):
        pilots = class_map(make_grid(K, T, delta_sub), PA)[:, 0] == ReClass.PILOT
        assert np.count_nonzero(pilots) == want


def _cls(cmap, k, t):
    """Class of element (k, t) of a class map; k is 0-based, t is 1-based."""
    return ReClass(cmap[k, t - 1])


def test_classify_pa_t2():
    cmap = class_map(make_grid(64, 2, 2), PA)
    assert cmap.shape == (64, 2)
    assert _cls(cmap, 0, 1) is ReClass.PILOT
    assert _cls(cmap, 2, 1) is ReClass.PILOT
    assert _cls(cmap, 1, 1) is ReClass.LINEAR_DATA
    # last pilot at k = 62, so k = 63 extrapolates
    assert _cls(cmap, 63, 1) is ReClass.EDGE_DATA
    assert _cls(cmap, 62, 1) is ReClass.PILOT
    assert _cls(cmap, 61, 1) is ReClass.LINEAR_DATA
    # non-pilot symbol: A on pilot subcarriers, B on interpolated ones,
    # edge B past the last pilot
    assert _cls(cmap, 0, 2) is ReClass.REGION_A
    assert _cls(cmap, 2, 2) is ReClass.REGION_A
    assert _cls(cmap, 1, 2) is ReClass.REGION_B
    assert _cls(cmap, 63, 2) is ReClass.EDGE_REGION_B


def test_classify_pa_wider_spacing():
    cmap = class_map(make_grid(64, 4, 4), PA)
    # pilots at k = 0, 4, ..., 60; edge = k in {61, 62, 63}
    for k in (61, 62, 63):
        assert _cls(cmap, k, 1) is ReClass.EDGE_DATA
    assert _cls(cmap, 60, 1) is ReClass.PILOT
    assert _cls(cmap, 59, 1) is ReClass.LINEAR_DATA


def test_classify_pa_two_pilot_symbols():
    cmap = class_map(make_grid(64, 7, 2, high_mobility=True), PA)
    for t in (1, 5):
        assert _cls(cmap, 0, t) is ReClass.PILOT
        assert _cls(cmap, 63, t) is ReClass.EDGE_DATA
    for t in (2, 3, 4, 6, 7):
        assert _cls(cmap, 0, t) is ReClass.REGION_A
        assert _cls(cmap, 1, t) is ReClass.REGION_B


def test_source_pilot_symbols():
    """Each symbol reuses its nearest preceding pilot symbol."""
    assert source_pilot_symbols(make_grid(64, 4, 2)).tolist() == [1, 1, 1, 1]
    assert source_pilot_symbols(make_grid(64, 7, 2, high_mobility=True)).tolist() == [
        1, 1, 1, 1, 5, 5, 5]
    with pytest.raises(ValueError):
        source_pilot_symbols(MiniSlotGrid(64, 4, PilotPattern((2,), 2)))
    with pytest.raises(ValueError):
        source_pilot_symbols(MiniSlotGrid(64, 4))  # no pattern


def test_classify_differential():
    grid = make_grid(64, 2)
    fddi, tddi = class_map(grid, FDDI), class_map(grid, TDDI)
    for t in (1, 2):
        assert _cls(fddi, 0, t) is ReClass.DIFF_REFERENCE
        assert _cls(fddi, 5, t) is ReClass.DIFF_DATA
    for k in (0, 17, 63):
        assert _cls(tddi, k, 1) is ReClass.DIFF_REFERENCE
        assert _cls(tddi, k, 2) is ReClass.DIFF_DATA


def test_classification_partitions_grid():
    """Every element gets one class, and N matches the independent count
    formulas for each scheme."""
    rng = np.random.default_rng(11)
    for _ in range(12):
        K = int(rng.choice([16, 64, 128]))
        T = int(rng.choice(MINI_SLOT_LENGTHS))
        delta_sub = int(rng.choice([1, 2, 4, 8]))
        high = bool(rng.integers(0, 2))
        grid = MiniSlotGrid(K, T, standard_pattern(T, high, delta_sub))
        expect = {
            # data = everything except pilots / the reference column or row
            PA: K * T - K // delta_sub * len(grid.pattern.pilot_symbols),
            FDDI: (K - 1) * T,
            TDDI: K * (T - 1),
        }
        for scheme in SCHEMES:
            cmap = class_map(grid, scheme)
            assert cmap.shape == (K, T)
            assert set(np.unique(cmap)) <= set(ReClass)
            assert data_symbol_count(grid, scheme) == expect[scheme]


def test_data_symbol_counts_standard_cases():
    grid2 = make_grid(64, 2, 2)
    assert data_symbol_count(grid2, PA) == 64 * 2 - 32
    assert data_symbol_count(grid2, FDDI) == 63 * 2
    assert data_symbol_count(grid2, TDDI) == 64 * 1
    grid7 = make_grid(64, 7, 2, high_mobility=True)
    assert data_symbol_count(grid7, PA) == 64 * 7 - 2 * 32
    assert data_symbol_count(grid7, FDDI) == 63 * 7
    assert data_symbol_count(grid7, TDDI) == 64 * 6


def test_psk_points():
    c = psk(4)
    assert c.order == 4
    assert np.allclose(np.abs(c.points), 1.0)
    assert c.points[0] == pytest.approx(1.0)
    # eighth roots of unity, distinct
    c8 = psk(8)
    assert len(np.unique(np.round(c8.points, 12))) == 8
    assert np.mean(np.abs(c8.points) ** 2) == pytest.approx(1.0, abs=1e-15)


def test_qam_points():
    c = qam(16)
    assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-14)
    # unnormalized coordinates are the odd integers -3, -1, 1, 3
    raw = c.points * np.sqrt(2 * 15 / 3)
    assert set(np.round(raw.real).astype(int)) == {-3, -1, 1, 3}
    with pytest.raises(ValueError):
        qam(8)  # not a square
    with pytest.raises(ValueError):
        Constellation("psk", 3, np.ones(3))  # not a power of 2


def test_default_constellations():
    assert default_constellation(FDDI, 4).kind == "psk"
    assert default_constellation(TDDI, 8).kind == "psk"
    assert default_constellation(PA, 16).kind == "qam"
    assert default_constellation(PA, 8).kind == "psk"  # no square 8-QAM here
    assert default_constellation(PA, 4).kind == "qam"
