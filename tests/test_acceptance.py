"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  All arithmetic assertions are exact (integers and Fractions);
time limits are generous wall-clock budgets asserted with perf_counter.
"""

import time
from contextlib import contextmanager

from whirlknight import (
    Cell,
    build_n3_certificate,
    build_t1,
    build_t2,
    check_reduction,
    coil_interval,
    coil_of_cover,
    crosses_axis_ray,
    enumerate_cycle_covers,
    is_ccw,
    lp_feasible,
    parity_census,
    search_tour,
    verify_certificate,
    verify_tour,
)
from whirlknight.geometry import ccw_cross
from whirlknight.tours import SearchStats


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number}: FAIL  {description}")
        raise
    print(f"\nACCEPTANCE {number}: PASS  {description}")


def test_criterion_1_t1_certificates(dg):
    with criterion(1, "T1 family valid, RHS=1, max LHS=0 for n in {6,14,22,30}"):
        for n in (6, 14, 22, 30):
            start = time.perf_counter()
            report = verify_certificate(dg(n), build_t1(n))
            elapsed = time.perf_counter() - start
            assert report.valid
            assert report.rhs == 1
            assert report.max_lhs == 0
            assert not report.violations
            assert elapsed < 1.0


def test_criterion_2_t2_certificates(dg):
    with criterion(2, "T2 family valid, RHS=1 for n in {4,12,20,28}; n=4 sums exact"):
        for n in (4, 12, 20, 28):
            start = time.perf_counter()
            cert = build_t2(n)
            report = verify_certificate(dg(n), cert)
            elapsed = time.perf_counter() - start
            assert report.valid
            assert report.rhs == 1
            assert elapsed < 1.0
        n4 = build_t2(4)
        assert n4.sum_alpha() == 0
        assert n4.sum_beta() == 3


def test_criterion_3_parity_identity():
    with criterion(3, "parity census: odd - even = 2m+1 for m = 0..50"):
        for m in range(51):
            even, odd = parity_census(8 * m + 4)
            assert odd - even == 2 * m + 1


def test_criterion_4_pivot_column_sweep(dg):
    with criterion(4, "flank-column crossing facts, step census, sharpness; n <= 30"):
        start = time.perf_counter()
        four_steps = {(1, -2), (-1, -2), (2, -1), (-2, -1)}
        for n in range(4, 31, 2):
            g = dg(n)
            geom = g.geometry
            h = n // 2
            for i in range(h - 1):  # i <= h - 2
                west = Cell(i, h - 1)
                for a in g.in_arcs(west):
                    assert a.tail.j in (h, h + 1)
                    assert a.w == 1
                census = {
                    (di, dj)
                    for di in (-2, -1, 1, 2)
                    for dj in (-2, -1, 1, 2)
                    if di * di + dj * dj == 5
                    and ccw_cross(geom, Cell(west.i - di, west.j - dj), west) > 0
                }
                assert census == four_steps
                east = Cell(i, h)
                for a in g.out_arcs(east):
                    assert a.head.j in (h - 1, h - 2)
                    assert a.w == 1
            if n >= 8:
                u, w = Cell(h - 3, h - 2), Cell(h - 1, h - 1)
                assert is_ccw(geom, u, w)
                assert u.j == h - 2 < h
        assert time.perf_counter() - start < 10.0


def test_criterion_5_lp_decisions(dg):
    with criterion(5, "LP infeasible at c=n/2 in residues 4,6; feasible at 16,18"):
        for n, c in ((3, 2), (4, 2), (6, 3), (12, 6), (14, 7), (20, 10), (22, 11)):
            start = time.perf_counter()
            decision = lp_feasible(dg(n), c)
            elapsed = time.perf_counter() - start
            assert not decision.feasible
            if n % 2 == 0:
                assert decision.min_coil >= n // 2 + 1  # dual bound from RHS = 1
            assert elapsed < 5.0
        for n, c in ((16, 8), (18, 9)):
            start = time.perf_counter()
            decision = lp_feasible(dg(n), c)
            elapsed = time.perf_counter() - start
            assert decision.feasible
            assert elapsed < 5.0


def test_criterion_6_n3_fixture(dg):
    with criterion(6, "n=3: unique cover = unique tour, coil 3, certificate valid"):
        g = dg(3)
        covers = enumerate_cycle_covers(g)
        assert len(covers) == 1
        assert len(covers[0].cycles(g)) == 1  # the unique cover is one 8-cycle
        assert coil_of_cover(g, covers[0]) == 3
        tour = verify_tour(g, covers[0].cycles(g)[0])
        assert tour.coil == 3
        found = search_tour(g, budget=1000)
        assert found is not None and set(found.cells) == set(tour.cells)
        report = verify_certificate(g, build_n3_certificate())
        assert report.valid and report.rhs == 1
        assert not lp_feasible(g, 2).feasible


def test_criterion_7_brute_force_oracle_equivalence(dg):
    with criterion(7, "n=3..7: enumerated coil range equals coil_interval; rays agree"):
        start = time.perf_counter()
        for n in range(3, 8):
            g = dg(n)
            geom = g.geometry
            iv = coil_interval(g)
            covers = enumerate_cycle_covers(g)
            coils = [coil_of_cover(g, cov) for cov in covers]
            assert min(coils) == iv.min_coil
            assert max(coils) == iv.max_coil
            rays = ("north",) if n % 2 else ("north", "east", "south", "west")
            for cov in covers:
                totals = {
                    ray: sum(
                        crosses_axis_ray(geom, a.tail, a.head, ray) for a in map(g.arc, cov.arcs)
                    )
                    for ray in rays
                }
                assert len(set(totals.values())) == 1
        assert time.perf_counter() - start < 60.0


def test_criterion_8_tour_to_lp_reduction(dg):
    with criterion(8, "every produced or verified tour passes check_reduction"):
        g3 = dg(3)
        tours = [search_tour(g3, budget=1000)]
        g6 = dg(6)
        tours.append(search_tour(g6, budget=200_000))
        tours.append(search_tour(g6, coil_target=5, budget=200_000))
        g8 = dg(8)
        tours.append(search_tour(g8, budget=300_000))
        for g, tour in zip((g3, g6, g6, g8), tours):
            assert tour is not None
            reverified = verify_tour(g, tour.cells)
            assert reverified == tour
            assert check_reduction(g, tour)


def test_criterion_9_negative_search(dg):
    with criterion(9, "search cannot find the certified-impossible (6,3) tour"):
        stats = SearchStats()
        result = search_tour(dg(6), coil_target=3, budget=10**7, stats=stats)
        assert result is None
        # the branch space closed far below budget, so no larger budget
        # could change the answer
        assert stats.exhausted and stats.nodes < 10**6
        for n in (6, 8):
            g = dg(n)
            tour = search_tour(g, budget=300_000)
            if tour is not None:
                assert verify_tour(g, tour.cells) == tour
                iv = coil_interval(g)
                assert iv.min_coil <= tour.coil <= iv.max_coil
