from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from whirlknight import (
    KNIGHT_STEPS,
    BoardGeometry,
    Cell,
    build_digraph,
    ccw_cross,
    crosses_axis_ray,
    is_ccw,
)

from oracles import KNIGHT_DELTAS, board_cells, ccw_oracle, ray_cross_oracle


def knight_pairs(n):
    geom = BoardGeometry(n)
    for i in range(n):
        for j in range(n):
            for di, dj in KNIGHT_DELTAS:
                v = Cell(i + di, j + dj)
                if geom.on_board(v):
                    yield Cell(i, j), v


class TestKnightSteps:
    def test_exactly_eight_in_row_major_order(self):
        steps = list(KNIGHT_STEPS)
        assert len(steps) == 8
        assert steps == sorted(steps)
        assert (1, -2) in steps and (-2, -1) in steps

    def test_defining_property(self):
        assert all(s.di**2 + s.dj**2 == 5 for s in KNIGHT_STEPS)

    def test_all_distinct(self):
        assert len(set(KNIGHT_STEPS)) == 8


class TestBoardGeometry:
    @pytest.mark.parametrize("bad", [2, 0, -1, 3.0, "6"])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(ValueError):
            BoardGeometry(bad)

    @pytest.mark.parametrize("n", [*range(3, 41), 61, 101])
    def test_index_numbers_the_vertices_row_major(self, n):
        geom = BoardGeometry(n)
        assert all(geom.index(c) == k for k, c in enumerate(board_cells(n)))

    @pytest.mark.parametrize("n", [*range(3, 41), 61, 101])
    def test_digraph_lists_vertices_in_index_order(self, n):
        assert build_digraph(n).vertices == tuple(board_cells(n))
        assert BoardGeometry(n).vertex_count == len(board_cells(n))

    @pytest.mark.parametrize("n,cell", [
        pytest.param(4, (0, 4), id="off the board"),
        pytest.param(4, (4, 0), id="below the board"),
        pytest.param(4, (-1, 0), id="negative row"),
        pytest.param(4, (0, -1), id="negative column"),
        pytest.param(5, (2, 2), id="odd centre"),
        pytest.param(101, (50, 50), id="large odd centre"),
        pytest.param(6, (0.5, 1), id="float row"),
        pytest.param(6, (True, 0), id="bool row"),
        pytest.param(6, (1, 2.0), id="integral float column"),
    ])
    def test_index_rejects_non_vertices(self, n, cell):
        with pytest.raises(ValueError) as exc:
            BoardGeometry(n).index(Cell(*cell))
        assert str(exc.value) == f"{cell} is not a vertex of the n={n} digraph"

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cell_inverts_index(self, n):
        geom = BoardGeometry(n)
        nv = n * n - n % 2
        assert all(geom.index(geom.cell(k)) == k for k in range(nv))
        assert all(geom.cell(geom.index(v)) == v for v in board_cells(n))
        assert all(type(geom.cell(k)) is Cell for k in range(nv))

    @pytest.mark.parametrize("n,k", [
        pytest.param(4, -1, id="negative"),
        pytest.param(4, 16, id="past the last cell"),
        pytest.param(5, 24, id="odd: past the last vertex"),
        pytest.param(12, 144, id="even: n squared"),
        pytest.param(4, 1.0, id="float"),
        pytest.param(4, True, id="bool"),
        pytest.param(4, "3", id="string"),
    ])
    def test_cell_rejects_non_vertex_indices(self, n, k):
        with pytest.raises(ValueError) as exc:
            BoardGeometry(n).cell(k)
        assert str(exc.value) == f"{k!r} is not a vertex index of the n={n} digraph"


class TestIsCcw:
    def test_fig_style_ccw_example(self):
        geom = BoardGeometry(4)
        assert is_ccw(geom, Cell(2, 2), Cell(0, 1))

    def test_antisymmetric_reverse(self):
        geom = BoardGeometry(4)
        assert not is_ccw(geom, Cell(0, 1), Cell(2, 2))

    def test_sharpness_arc_n12(self):
        assert is_ccw(BoardGeometry(12), Cell(3, 4), Cell(5, 5))

    def test_rejects_non_knight_pairs(self):
        geom = BoardGeometry(4)
        with pytest.raises(ValueError):
            is_ccw(geom, Cell(0, 0), Cell(1, 1))
        with pytest.raises(ValueError):
            is_ccw(geom, Cell(0, 0), Cell(-1, 2))

    @pytest.mark.parametrize("n", range(4, 31, 2))
    def test_even_boards_never_tie(self, n):
        geom = BoardGeometry(n)
        for u, v in knight_pairs(n):
            assert ccw_cross(geom, u, v) != 0

    @pytest.mark.parametrize("n", range(3, 31))
    def test_antisymmetry_exhaustive(self, n):
        geom = BoardGeometry(n)
        for u, v in knight_pairs(n):
            cross = ccw_cross(geom, u, v)
            if cross != 0:
                assert is_ccw(geom, u, v) != is_ccw(geom, v, u)
            else:
                assert not is_ccw(geom, u, v) and not is_ccw(geom, v, u)

    @given(
        st.integers(min_value=3, max_value=40),
        st.integers(min_value=0, max_value=39),
        st.integers(min_value=0, max_value=39),
        st.sampled_from(KNIGHT_DELTAS),
    )
    def test_matches_rational_oracle(self, n, i, j, step):
        geom = BoardGeometry(n)
        u = Cell(i % n, j % n)
        v = Cell(u.i + step[0], u.j + step[1])
        if geom.on_board(v):
            assert is_ccw(geom, u, v) == ccw_oracle(n, u, v)


class TestCrossingWeight:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_east_arcs_never_cross(self, n, dg):
        h = n // 2
        for a in dg(n).arcs:
            if a.tail.j >= h and a.head.j >= h:
                assert a.w == 0

    @pytest.mark.parametrize("n", [4, 6, 10, 14])
    def test_crossing_implies_straddle(self, n):
        geom = BoardGeometry(n)
        q = Fraction(n - 1, 2)
        for u, v in knight_pairs(n):
            if crosses_axis_ray(geom, u, v, "north"):
                assert (u.j - q) * (v.j - q) < 0


class TestPivotColumnFacts:
    """Exhaustive check of the flank-column crossing facts, n <= 30."""

    @pytest.mark.parametrize("n", range(4, 31, 2))
    def test_in_arcs_of_west_column(self, n, dg):
        h = n // 2
        g = dg(n)
        checked = 0
        for i in range(h - 1):
            w = Cell(i, h - 1)
            for a in g.in_arcs(w):
                assert a.tail.j in (h, h + 1)
                assert a.w == 1
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("n", range(4, 31, 2))
    def test_out_arcs_of_east_column(self, n, dg):
        h = n // 2
        g = dg(n)
        checked = 0
        for i in range(h - 1):
            w = Cell(i, h)
            for a in g.out_arcs(w):
                assert a.head.j in (h - 1, h - 2)
                assert a.w == 1
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("n", range(4, 31, 2))
    def test_ccw_in_step_census(self, n):
        # The inequality itself singles out the same four steps for every
        # eligible cell, independent of board edges.
        geom = BoardGeometry(n)
        h = n // 2
        expected = {(1, -2), (-1, -2), (2, -1), (-2, -1)}
        for i in range(h - 1):
            w = Cell(i, h - 1)
            got = {
                (di, dj)
                for di, dj in KNIGHT_DELTAS
                if ccw_cross(geom, Cell(w.i - di, w.j - dj), w) > 0
            }
            assert got == expected

    @pytest.mark.parametrize("n", range(8, 31, 2))
    def test_sharpness_witness(self, n):
        geom = BoardGeometry(n)
        h = n // 2
        u, w = Cell(h - 3, h - 2), Cell(h - 1, h - 1)
        assert is_ccw(geom, u, w)
        assert u.j == h - 2 < h


class TestAxisRays:
    @pytest.mark.parametrize("ray", ["north", "east", "south", "west"])
    @pytest.mark.parametrize("n", [4, 6, 12])
    def test_matches_oracle_even(self, n, ray):
        geom = BoardGeometry(n)
        for u, v in knight_pairs(n):
            assert crosses_axis_ray(geom, u, v, ray) == ray_cross_oracle(n, u, v, ray)

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    def test_north_matches_oracle_odd(self, n):
        # every knight pair, CCW or not, so the half-open rule meets the oracle
        geom = BoardGeometry(n)
        for u, v in knight_pairs(n):
            assert crosses_axis_ray(geom, u, v, "north") == ray_cross_oracle(n, u, v, "north")

    def test_odd_boards_north_only(self):
        geom = BoardGeometry(3)
        assert crosses_axis_ray(geom, Cell(0, 1), Cell(2, 0), "north")
        with pytest.raises(ValueError):
            crosses_axis_ray(geom, Cell(0, 1), Cell(2, 0), "east")

    def test_tail_on_ray_counts_head_does_not(self):
        geom = BoardGeometry(3)
        assert crosses_axis_ray(geom, Cell(0, 1), Cell(2, 0), "north")
        assert not crosses_axis_ray(geom, Cell(2, 2), Cell(0, 1), "north")

    def test_unknown_ray_rejected(self):
        with pytest.raises(ValueError):
            crosses_axis_ray(BoardGeometry(4), Cell(2, 2), Cell(0, 1), "up")
