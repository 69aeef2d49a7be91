import hashlib
import json
import random
import re
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import whirlknight.tours as tours
from oracles import tour_coils_oracle
from whirlknight import (
    SearchStats,
    Tour,
    WhirlDigraph,
    check_reduction,
    coil_interval,
    coil_of_cover,
    crosses_axis_ray,
    enumerate_cycle_covers,
    search_tour,
    tour_from_json,
    tour_to_json,
    verify_tour,
    winding_by_ray,
)

N3_CYCLE = [(0, 0), (2, 1), (0, 2), (1, 0), (2, 2), (0, 1), (2, 0), (1, 2)]


class TestVerifyTour:
    def test_n3_cycle_valid_with_coil_3(self, dg):
        tour = verify_tour(dg(3), N3_CYCLE)
        assert tour.coil == 3
        assert len(tour.cells) == 8

    def test_rotation_of_cycle_also_valid(self, dg):
        tour = verify_tour(dg(3), N3_CYCLE[3:] + N3_CYCLE[:3])
        assert tour.coil == 3

    def test_reversed_cycle_rejected_at_first_step(self, dg):
        with pytest.raises(ValueError, match="not an arc"):
            verify_tour(dg(3), list(reversed(N3_CYCLE)))

    def test_missing_vertex_rejected(self, dg):
        g = dg(4)
        cells = list(g.vertices)[:15]
        with pytest.raises(ValueError, match="missing"):
            verify_tour(g, cells)

    def test_missing_vertex_message_lists_cells(self, dg):
        g = dg(4)
        with pytest.raises(ValueError, match=r"1 vertices missing, e\.g\. \[\(3, 3\)\]$"):
            verify_tour(g, list(g.vertices)[:15])

    def test_repeat_rejected(self, dg):
        with pytest.raises(ValueError, match="twice"):
            verify_tour(dg(3), N3_CYCLE[:7] + [N3_CYCLE[0]])

    def test_non_vertex_rejected(self, dg):
        for bad in [(1, 1), 5, (0,), (0, 0, 1)]:  # the odd centre, then non-pairs
            message = f"^{re.escape(str(bad))} is not a vertex of the n=3 digraph$"
            with pytest.raises(ValueError, match=message):
                verify_tour(dg(3), N3_CYCLE[:7] + [bad])
            with pytest.raises(ValueError, match=message):
                check_reduction(dg(3), Tour(cells=(*N3_CYCLE[:7], bad), coil=3))


class TestWinding:
    def test_north_ray_equals_coil(self, dg):
        g = dg(3)
        tour = verify_tour(g, N3_CYCLE)
        assert winding_by_ray(g, tour, "north") == tour.coil == 3

    def test_odd_board_rejects_other_rays(self, dg):
        g = dg(3)
        tour = verify_tour(g, N3_CYCLE)
        for ray in ("east", "south", "west"):
            with pytest.raises(ValueError):
                winding_by_ray(g, tour, ray)

    def test_unknown_ray(self, dg):
        g = dg(3)
        tour = verify_tour(g, N3_CYCLE)
        with pytest.raises(ValueError):
            winding_by_ray(g, tour, "north-east")

    @pytest.mark.parametrize("ray", ["north", "east"])
    def test_tour_of_another_board_rejected(self, ray, dg):
        t6 = search_tour(dg(6), coil_target=5, budget=100_000)
        assert winding_by_ray(dg(6), t6, ray) == 5
        with pytest.raises(ValueError, match="^not Hamiltonian: 28 vertices missing"):
            winding_by_ray(dg(8), t6, ray)

    def test_steps_that_are_not_arcs_rejected(self, dg):
        with pytest.raises(ValueError, match="not an arc"):
            winding_by_ray(dg(3), Tour(tuple(reversed(N3_CYCLE)), 3))

    def test_n4_covers_ray_invariant(self, dg):
        g = dg(4)
        geom = g.geometry
        for cover in enumerate_cycle_covers(g):
            totals = {
                ray: sum(crosses_axis_ray(geom, a.tail, a.head, ray) for a in map(g.arc, cover.arcs))
                for ray in ("north", "east", "south", "west")
            }
            assert len(set(totals.values())) == 1

    def test_n6_argmin_cover_east_equals_north(self, dg):
        g = dg(6)
        geom = g.geometry
        cover = coil_interval(g).argmin
        arcs = [g.arc(a) for a in cover.arcs]
        north = sum(crosses_axis_ray(geom, a.tail, a.head, "north") for a in arcs)
        east = sum(crosses_axis_ray(geom, a.tail, a.head, "east") for a in arcs)
        assert north == east

    def test_found_tour_all_rays_agree(self, dg):
        g = dg(6)
        tour = search_tour(g, budget=200_000)
        assert tour is not None
        counts = {winding_by_ray(g, tour, ray) for ray in ("north", "east", "south", "west")}
        assert counts == {tour.coil}


class TestSearch:
    def test_n3_unique_tour(self, dg):
        tour = search_tour(dg(3), budget=8)
        assert tour is not None and tour.coil == 3
        assert set(tour.cells) == set(dg(3).vertices)

    def test_leaves_recursion_limit_alone(self, dg):
        # A recursive search at n = 30 (V = 900) would need a limit above the default;
        # the explicit stack leaves the limit as it is.
        before = sys.getrecursionlimit()
        assert before < 1100
        search_tour(dg(30), budget=10)
        assert sys.getrecursionlimit() == before

    def test_n3_needs_budget(self, dg):
        stats = SearchStats()
        assert search_tour(dg(3), budget=3, stats=stats) is None
        assert not stats.exhausted  # ran out of budget, not of branches

    def test_n6_coil3_exhausts_without_result(self, dg):
        stats = SearchStats()
        result = search_tour(dg(6), coil_target=3, budget=10**7, stats=stats)
        assert result is None
        assert stats.exhausted  # the whole space closed below budget
        assert stats.nodes < 10**4

    def test_n4_no_tour_exists(self, dg):
        stats = SearchStats()
        assert search_tour(dg(4), budget=10**6, stats=stats) is None
        assert stats.exhausted

    def test_n6_open_search_finds_point_interval_tour(self, dg):
        g = dg(6)
        tour = search_tour(g, budget=200_000)
        assert tour is not None
        iv = coil_interval(g)
        assert iv.min_coil <= tour.coil <= iv.max_coil
        assert check_reduction(g, tour)

    @pytest.mark.parametrize("n", [3, 6, 8])
    def test_empirical_coil_bounds_logged_not_asserted(self, n, dg):
        # The n/2 <= coil <= n window is an unproved empirical observation:
        # violations are findings to report, never test failures.
        tour = search_tour(dg(n), budget=300_000)
        if tour is not None and not (n / 2 <= tour.coil <= n):
            warnings.warn(
                f"FINDING: n={n} tour with coil {tour.coil} outside [n/2, n]",
                stacklevel=1,
            )

    def test_n6_coil_target_5_found_and_exact(self, dg):
        tour = search_tour(dg(6), coil_target=5, budget=200_000)
        assert tour is not None and tour.coil == 5

    def test_determinism(self, dg):
        g = dg(6)
        a = search_tour(g, budget=50_000, seed=7)
        b = search_tour(g, budget=50_000, seed=7)
        assert a == b

    def test_seed_zero_deterministic(self, dg):
        g = dg(6)
        assert search_tour(g, budget=50_000) == search_tour(g, budget=50_000)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_odd_boards_agree_with_cover_enumeration(self, n, dg):
        """A tour is found exactly at the coils of the one-cycle covers; elsewhere the space is exhausted."""
        g = dg(n)
        tour_coils = {coil_of_cover(g, cv) for cv in enumerate_cycle_covers(g) if len(cv.cycles(g)) == 1}
        iv = coil_interval(g)
        for target in [None, *range(iv.min_coil - 1, iv.max_coil + 2)]:
            stats = SearchStats()
            tour = search_tour(g, coil_target=target, budget=100_000, stats=stats)
            expect = bool(tour_coils) if target is None else target in tour_coils
            assert (tour is not None) == expect, target
            if tour is None:
                assert stats.exhausted, target
            else:
                assert tour.coil in tour_coils and target in (None, tour.coil)

    def test_bad_budget(self, dg):
        for budget, message in [
            (0, "budget must be >= 1"),
            (2.5, "budget must be an integer, got 2.5"),
            (True, "budget must be an integer, got True"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                search_tour(dg(3), budget=budget)

    @pytest.mark.parametrize("target", [5.5, 5.0, True])
    def test_non_int_coil_target_rejected(self, dg, target):
        # Unchecked, 5.5 exhausts the n = 6 space (a "no tour" proof drawn from a
        # float), 5.0 finds a tour and True searches for coil 1.
        stats = SearchStats()
        with pytest.raises(ValueError, match=f"^coil count must be an integer, got {target}$"):
            search_tour(dg(6), coil_target=target, stats=stats)
        assert stats.nodes == 0

    @pytest.mark.parametrize("seed", [1.5, 7.0, True])
    def test_non_int_seed_rejected(self, dg, seed):
        # Unchecked, each seeds the shuffle: 1.5 by its hash, 7.0 as seed 7, True as seed 1.
        stats = SearchStats(nodes=5)
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed}$"):
            search_tour(dg(6), seed=seed, stats=stats)
        assert stats == SearchStats(nodes=5)  # untouched: no node was expanded

    def test_reused_stats_describe_the_last_search(self, dg):
        stats = SearchStats()
        assert search_tour(dg(6), coil_target=3, stats=stats) is None
        assert stats == SearchStats(nodes=497, exhausted=True, max_depth=29)
        assert search_tour(dg(8), coil_target=6, budget=10, stats=stats) is None
        assert stats == SearchStats(nodes=10, exhausted=False, max_depth=10)

    def test_progress_callback_fires(self, dg, monkeypatch):
        monkeypatch.setattr(tours, "_PROGRESS_EVERY", 100)
        seen = []
        stats = SearchStats()
        search_tour(
            dg(6),
            coil_target=3,
            budget=10**5,
            progress=lambda nodes, depth: seen.append((nodes, depth)),
            stats=stats,
        )
        assert [n for n, _ in seen] == list(range(100, stats.nodes + 1, 100))
        assert all(1 <= depth <= 36 for _, depth in seen)

    def test_needs_no_recursion_limit(self, dg, monkeypatch):
        def refuse(limit):
            raise AssertionError(f"search_tour set the recursion limit to {limit}")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        stats = SearchStats()
        tour = search_tour(dg(6), budget=30_000, stats=stats)
        assert (stats.nodes, stats.exhausted) == (135, False)
        assert hashlib.sha256(tour_to_json(6, tour).encode()).hexdigest()[:16] == "c20236dee5245bbd"

    def test_closing_arc_must_meet_the_target_exactly(self):
        # One Hamiltonian cycle 0 -> 1 -> ... -> 7 -> 0 of coil 0, plus a crossing
        # chord 6 -> 0: the coil bound stays 1 up to the last vertex, so only the
        # closing-arc test tells target 1 from the cycle's coil 0.
        tail, head = (*range(8), 6), (*range(1, 8), 0, 0)
        g = WhirlDigraph(3, tail, head, (0,) * 8 + (1,))
        assert search_tour(g, coil_target=0).coil == 0
        stats = SearchStats()
        assert search_tour(g, coil_target=1, stats=stats) is None
        assert stats.exhausted

    def test_parallel_arcs_count_the_first_arc(self):
        # The cycle 0 -> 1 -> ... -> 7 -> 0 has coil 0, plus a crossing arc 3 -> 4
        # parallel to its step 3 -> 4.  verify_tour counts a step with its pair's
        # first arc, so no tour has coil 1.
        g = WhirlDigraph(3, (*range(8), 3), (*range(1, 8), 0, 4), (0,) * 8 + (1,))
        stats = SearchStats()
        assert search_tour(g, coil_target=1, stats=stats) is None
        assert stats.exhausted
        assert search_tour(g, coil_target=0).coil == 0

    @pytest.mark.parametrize(
        "tail, head, w, message",
        [
            # One Hamiltonian cycle whose verify_tour coil is 2: the 0/1 coil prune would call it exhausted.
            (tuple(range(8)), (*range(1, 8), 0), (0,) * 7 + (2,), "weight is not 0 or 1"),
            ((0,), (9,), (5,), "not a vertex index in range\\(8\\)"),  # would raise IndexError
            ((-1,), (0,), (0,), "not a vertex index"),
            ((0, 1), (1,), (0, 0), "differ in length: tail 2, head 1, w 2"),
            ((0,), (1,), (0, 1), "differ in length: tail 1, head 1, w 2"),
        ],
        ids=["w=2", "head=9", "tail=-1", "short head", "long w"],
    )
    def test_bad_columns_rejected_before_any_node(self, tail, head, w, message):
        stats = SearchStats(nodes=5)
        with pytest.raises(ValueError, match=message):
            search_tour(WhirlDigraph(3, tail, head, w), coil_target=2, stats=stats)
        assert stats.nodes == 5  # untouched: no node was expanded

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_agrees_with_the_tour_oracle(self, data):
        """On random 8-vertex column digraphs, a tour is found exactly at the oracle's coils."""
        arc = st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 1))
        planted = data.draw(st.booleans())  # random arcs alone rarely hold a Hamiltonian cycle
        arcs = data.draw(st.lists(arc, min_size=0 if planted else 8, max_size=22 if planted else 30))
        if planted:
            order = [0, *data.draw(st.permutations(range(1, 8)))]
            weights = data.draw(st.lists(st.integers(0, 1), min_size=8, max_size=8))
            cycle = [(order[i], order[(i + 1) % 8], weights[i]) for i in range(8)]
            arcs = data.draw(st.permutations(arcs + cycle))
        g = WhirlDigraph(3, *map(tuple, zip(*arcs)))
        coils = tour_coils_oracle(8, arcs)
        for target in [None, *range(9)]:
            for seed in (0, 1):
                # 10**5 is more than the 13 700 paths from one vertex of 8: budget to spare.
                stats = SearchStats()
                tour = search_tour(g, coil_target=target, budget=10**5, seed=seed, stats=stats)
                assert (tour is not None) == (bool(coils) if target is None else target in coils)
                if tour is None:
                    assert stats.exhausted
                else:
                    assert tour.coil in coils and target in (None, tour.coil)

    @pytest.mark.parametrize("budget,exhausted", [(516, False), (517, True)])
    def test_exhausted_needs_budget_to_spare(self, dg, budget, exhausted):
        # The n = 6, coil 4 space closes on its 516th node.
        stats = SearchStats()
        assert search_tour(dg(6), coil_target=4, budget=budget, stats=stats) is None
        assert (stats.nodes, stats.exhausted) == (516, exhausted)

    # (n, coil_target, seed, nodes, exhausted, sha256 prefix of tour_to_json), budget 30 000.
    PINNED = [
        (6, None, 0, 135, False, "c20236dee5245bbd"),
        (6, None, 7, 166, False, "c20236dee5245bbd"),
        (6, None, 12345, 135, False, "c20236dee5245bbd"),
        (6, 5, 0, 135, False, "c20236dee5245bbd"),
        (6, 5, 7, 162, False, "c20236dee5245bbd"),
        (6, 5, 12345, 135, False, "c20236dee5245bbd"),
        (6, 4, 0, 516, True, None),
        (6, 4, 7, 516, True, None),
        (6, 4, 12345, 516, True, None),
        (8, None, 0, 11164, False, "eb9bb46993628772"),
        (8, None, 7, 26926, False, "783efde628634cca"),
        (8, None, 12345, 11502, False, "0be521995d55b902"),
        (8, 7, 0, 9770, False, "eb9bb46993628772"),
        (8, 7, 7, 16388, False, "4276b52b13e51857"),
        (8, 7, 12345, 9908, False, "eb9bb46993628772"),
    ]

    @pytest.mark.parametrize("n,coil,seed,nodes,exhausted,digest", PINNED)
    def test_search_order_is_pinned(self, n, coil, seed, nodes, exhausted, digest, dg):
        stats = SearchStats()
        tour = search_tour(dg(n), coil_target=coil, budget=30_000, seed=seed, stats=stats)
        assert (stats.nodes, stats.exhausted) == (nodes, exhausted)
        got = tour and hashlib.sha256(tour_to_json(n, tour).encode()).hexdigest()[:16]
        assert got == digest

    # (n, coil_target, seed, nodes, exhausted, sha256 prefix of tour_to_json,
    # sha256 prefix of the space-joined depth at every node), budget 12 000: the
    # perfbench search queries, then odd boards and a coil target past n = 8.
    # Where no tour is found, only the depth trace shows that the nodes are
    # visited in the same order.
    PINNED_TRACES = [
        (6, None, 0, 135, False, "c20236dee5245bbd", "72bbae7199819b80"),
        (6, None, 7, 166, False, "c20236dee5245bbd", "fd410aa3f4910e94"),
        (6, None, 12345, 135, False, "c20236dee5245bbd", "8856e8c042b34589"),
        (6, 5, 0, 135, False, "c20236dee5245bbd", "72bbae7199819b80"),
        (6, 5, 7, 162, False, "c20236dee5245bbd", "995d5e989cd451aa"),
        (6, 5, 12345, 135, False, "c20236dee5245bbd", "8856e8c042b34589"),
        (8, None, 0, 11164, False, "eb9bb46993628772", "d35403584c2597cd"),
        (8, None, 7, 12000, False, None, "5fe24c7ed1c9e22f"),
        (8, None, 12345, 11502, False, "0be521995d55b902", "db7814e7544d0618"),
        (8, 7, 0, 9770, False, "eb9bb46993628772", "003d87129b36ab30"),
        (8, 7, 7, 12000, False, None, "56760d64966d797e"),
        (8, 7, 12345, 9908, False, "eb9bb46993628772", "98635d60293bfdae"),
        (8, 6, 0, 12000, False, None, "da98ca9809e1650f"),
        (8, 6, 7, 12000, False, None, "53197f31a1a54c7b"),
        (8, 6, 12345, 12000, False, None, "750808cc4e170dcb"),
        (10, None, 0, 12000, False, None, "9ee3256a2e46ceae"),
        (10, None, 7, 12000, False, None, "a8a7966794d07ccd"),
        (10, None, 12345, 12000, False, None, "c2bc5230efae3766"),
        (12, None, 0, 12000, False, None, "09e059114c13a037"),
        (12, None, 7, 12000, False, None, "decdfc19598d0c02"),
        (12, None, 12345, 12000, False, None, "e342947eb5e850c2"),
        (16, None, 0, 12000, False, None, "f98c86cdcc8ae56c"),
        (16, None, 7, 12000, False, None, "b822342f793302b2"),
        (16, None, 12345, 12000, False, None, "76674601633d09ce"),
        (5, None, 0, 10, True, None, "dd2781c8a4e8f311"),
        (5, None, 7, 10, True, None, "dd2781c8a4e8f311"),
        (5, 4, 0, 10, True, None, "dd2781c8a4e8f311"),
        (5, 4, 7, 10, True, None, "dd2781c8a4e8f311"),
        (7, None, 0, 83, False, "3db9a0eaf7255c50", "54014537be221a18"),
        (7, None, 7, 58, False, "3db9a0eaf7255c50", "575b6eb2e56ca3cc"),
        (7, 6, 0, 12000, False, None, "8ba0a8b11a7f5ccf"),
        (7, 6, 7, 12000, False, None, "3995613a025c6fd6"),
        (9, None, 0, 12000, False, None, "dbb256aafb351c9b"),
        (9, None, 7, 12000, False, None, "965d44597ce16307"),
        (9, 7, 0, 12000, False, None, "bf830b7e210bb541"),
        (9, 7, 7, 12000, False, None, "455aabb92ecb0272"),
        (10, 8, 0, 12000, False, None, "28ddd928cbf2c738"),
        (10, 8, 7, 12000, False, None, "c3e9596d088c1408"),
    ]

    @pytest.mark.parametrize("n,coil,seed,nodes,exhausted,digest,trace", PINNED_TRACES)
    def test_depth_trace_is_pinned(self, n, coil, seed, nodes, exhausted, digest, trace, dg, monkeypatch):
        monkeypatch.setattr(tours, "_PROGRESS_EVERY", 1)
        depths = []
        stats = SearchStats()
        tour = search_tour(dg(n), coil_target=coil, budget=12_000, seed=seed, stats=stats,
                           progress=lambda _, depth: depths.append(depth))
        assert (stats.nodes, stats.exhausted) == (nodes, exhausted)
        got = tour and hashlib.sha256(tour_to_json(n, tour).encode()).hexdigest()[:16]
        assert got == digest
        assert hashlib.sha256(" ".join(map(str, depths)).encode()).hexdigest()[:16] == trace
        assert len(depths) == nodes and max(depths) == stats.max_depth

    @staticmethod
    def _column_digraph(k):
        """A random 8-vertex column digraph drawn by random.Random(k): every fourth one plants a
        Hamiltonian cycle, and each holds a self-loop, a parallel arc and weights 0 and 1."""
        rng = random.Random(k)
        arcs = [(rng.randrange(8), rng.randrange(8), rng.randrange(2)) for _ in range(rng.randint(8, 40))]
        if k % 4 == 0:
            order = [0, *rng.sample(range(1, 8), 7)]
            arcs += [(order[i], order[(i + 1) % 8], rng.randrange(2)) for i in range(8)]
        v = rng.randrange(8)
        t, h, _ = rng.choice(arcs)
        arcs += [(v, v, 1), (t, h, rng.randrange(2)), (h, t, 0)]
        rng.shuffle(arcs)
        return WhirlDigraph(3, *map(tuple, zip(*arcs)))

    def test_sweep_is_pinned(self, dg, monkeypatch):
        """One digest over every node of a sweep of searches pins each visit and backtrack:
        the boards n = 3..12 at c in n-3..n+3 and at no target, and 200 random column digraphs."""
        monkeypatch.setattr(tours, "_PROGRESS_EVERY", 1)
        digest = hashlib.sha256()

        def run(g, coil, seed):
            stats = SearchStats()
            tour = search_tour(g, coil_target=coil, budget=4000, seed=seed, stats=stats,
                               progress=lambda nodes, depth: digest.update(b"%d,%d;" % (nodes, depth)))
            digest.update(repr((stats, tour)).encode())

        for n in range(3, 13):
            for coil in [None, *range(n - 3, n + 4)]:
                for seed in (0, 7, 2**31 - 1):
                    run(dg(n), coil, seed)
        for k in range(200):
            g = self._column_digraph(k)
            for coil in (None, 0, 2, 4):
                for seed in (0, 7):
                    run(g, coil, seed)
        assert digest.hexdigest()[:16] == "915ac5ada24a064d"

    def test_leaves_the_global_random_state_alone(self, dg):
        # n = 8 at seed 7 shuffles at many nodes: a search draws only from its own random.Random(seed).
        before = random.getstate()
        stats = SearchStats()
        search_tour(dg(8), budget=2000, seed=7, stats=stats)
        assert stats.nodes == 2000
        assert random.getstate() == before

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=1, max_value=2**31))
    def test_any_seed_returns_valid_tour_or_none(self, dg, seed):
        tour = search_tour(dg(6), budget=50_000, seed=seed)
        if tour is not None:
            assert verify_tour(dg(6), tour.cells) == tour


class TestEnumerate:
    def test_n3_exactly_one_cover(self, dg):
        covers = enumerate_cycle_covers(dg(3))
        assert len(covers) == 1
        assert coil_of_cover(dg(3), covers[0]) == 3

    def test_n4_unique_cover_is_not_hamiltonian(self, dg):
        g = dg(4)
        covers = enumerate_cycle_covers(g)
        assert len(covers) == 1
        assert len(covers[0].cycles(g)) > 1
        assert coil_of_cover(g, covers[0]) == 4

    # (n, covers, sha256 prefix of every cover's (tail, head) cells, in order).
    @pytest.mark.parametrize("n,count,digest", [
        (3, 1, "069d82f595ea33a3"),
        (4, 1, "cb48fb4bcfba6a2f"),
        (5, 1, "7019ceca81d33369"),
        (6, 16, "41922ab556162fdc"),
        (7, 289, "a43101d4b5286152"),
    ])
    def test_covers_and_their_order_are_pinned(self, dg, n, count, digest):
        g = dg(n)
        covers = enumerate_cycle_covers(g)
        cells = [[[*a.tail, *a.head] for a in map(g.arc, c.arcs)] for c in covers]
        assert len(covers) == count
        assert hashlib.sha256(json.dumps(cells).encode()).hexdigest()[:16] == digest

    def test_large_boards_guarded(self, dg):
        with pytest.raises(ValueError):
            enumerate_cycle_covers(dg(8))


class TestTourSerialization:
    def test_round_trip(self, dg):
        g = dg(3)
        tour = verify_tour(g, N3_CYCLE)
        text = tour_to_json(3, tour)
        n, cells, coil = tour_from_json(text)
        assert n == 3 and coil == tour.coil and verify_tour(g, cells) == tour
        assert tour_to_json(n, verify_tour(g, cells)) == text

    def test_plain_pair_cells_write_the_same_bytes(self, dg):
        tour = verify_tour(dg(3), N3_CYCLE)
        assert tour_to_json(3, Tour(tuple(N3_CYCLE), tour.coil)) == tour_to_json(3, tour)

    @pytest.mark.parametrize("n,nv", [(4, 16), (8, 64)])
    def test_rejects_another_board_s_n(self, n, nv, dg):
        tour = verify_tour(dg(3), N3_CYCLE)  # its 8 cells fit only the n = 3 board
        with pytest.raises(ValueError, match=f"^the tour has 8 cells, the n={n} board has {nv} vertices$"):
            tour_to_json(n, tour)

    def test_coil_is_optional(self, dg):
        doc = json.loads(tour_to_json(3, verify_tour(dg(3), N3_CYCLE)))
        del doc["coil"]
        assert tour_from_json(json.dumps(doc))[2] is None
        doc["coil"] = None  # null is not an absent key
        with pytest.raises(ValueError, match=r"^malformed tour JSON: coil must be an integer, got None$"):
            tour_from_json(json.dumps(doc))

    @pytest.mark.parametrize("bad", [0.9, False, "0"], ids=["float", "bool", "string"])
    def test_rejects_non_integer(self, bad, dg):
        # 0.9, false and "0" all read as 0 through int().
        doc = json.loads(tour_to_json(3, verify_tour(dg(3), N3_CYCLE)))
        assert doc["cells"][0][0] == 0
        doc["cells"][0][0] = bad
        with pytest.raises(ValueError, match="integer"):
            tour_from_json(json.dumps(doc))

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            tour_from_json('{"n": 3}')
        with pytest.raises(ValueError):
            tour_from_json('{"n": 3, "cells": [[0, "x"]]}')
