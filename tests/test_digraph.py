import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whirlknight import (
    Cell,
    WhirlDigraph,
    build_digraph,
    build_t1,
    check_reduction,
    coil_interval,
    digraph_from_json,
    digraph_to_json,
    lp_feasible,
    search_tour,
    verify_certificate,
    verify_tour,
)
from whirlknight.render import digraph_spec, render

from oracles import KNIGHT_DELTAS, arcs_oracle, board_cells, weight_oracle


class TestBuildDigraph:
    def test_n3_fixture(self, dg):
        g = dg(3)
        assert len(g.vertices) == 8
        assert Cell(1, 1) not in g.vertices
        # unique cycle cover: every vertex has exactly one in- and out-arc
        assert all(len(g.out_arcs(v)) == 1 for v in g.vertices)
        assert all(len(g.in_arcs(v)) == 1 for v in g.vertices)

    def test_n4_vertex_count(self, dg):
        assert len(dg(4).vertices) == 16

    def test_n4_arc_count_against_double_loop_oracle(self, dg):
        oracle = arcs_oracle(4)
        assert len(oracle) == 24  # frozen before the build
        assert len(dg(4).arcs) == len(oracle)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 16, 20])
    def test_arc_set_matches_oracle(self, n, dg):
        got = {(a.tail, a.head, a.w) for a in dg(n).arcs}
        expected = {(Cell(*u), Cell(*v), weight_oracle(n, u, v)) for u, v in arcs_oracle(n)}
        assert got == expected

    @pytest.mark.parametrize("bad", [2, 1, 0, -4])
    def test_rejects_small_boards(self, bad):
        with pytest.raises(ValueError):
            build_digraph(bad)

    def test_arc_ids_dense_and_ordered(self, dg):
        g = dg(6)
        assert [a.id for a in g.arcs] == list(range(len(g.arcs)))
        tails = [g.geometry.index(a.tail) for a in g.arcs]
        assert tails == sorted(tails)


class TestAdjacency:
    def test_n6_out_arcs_of_0_3_all_cross(self, dg):
        arcs = dg(6).out_arcs(Cell(0, 3))
        assert arcs and all(a.w == 1 for a in arcs)

    def test_n3_every_vertex_one_out_arc(self, dg):
        g = dg(3)
        assert [len(g.out_arcs(v)) for v in g.vertices] == [1] * 8

    def test_n4_out_degrees_match_per_vertex_oracle(self, dg):
        g = dg(4)
        per_vertex = {}
        for u, v in arcs_oracle(4):
            per_vertex[u] = per_vertex.get(u, 0) + 1
        for v in g.vertices:
            assert len(g.out_arcs(v)) == per_vertex.get(tuple(v), 0)

    def test_unknown_vertex_rejected(self, dg):
        with pytest.raises(ValueError):
            dg(3).out_arcs(Cell(1, 1))
        with pytest.raises(ValueError):
            dg(4).in_arcs(Cell(4, 0))

    def test_adjacency_ids_consistent(self, dg):
        g = dg(8)
        for k, v in enumerate(g.vertices):
            assert all(g.arcs[a].tail == v for a in g.out_adj[k])
            assert all(g.arcs[a].head == v for a in g.in_adj[k])

    def test_replace_derives_adjacency_again(self):
        g = build_digraph(6)
        assert g.out_adj and g.in_adj and g.vertices and g.arcs  # cached on g
        flipped = dataclasses.replace(g, w=tuple(1 - x for x in g.w))
        assert not {"vertices", "out_adj", "in_adj", "arcs"} & vars(flipped).keys()
        assert flipped.out_adj == g.out_adj and flipped.out_adj is not g.out_adj
        assert flipped != g and g == build_digraph(6) and hash(g) == hash(build_digraph(6))
        reversed_ = dataclasses.replace(g, tail=g.head, head=g.tail)
        assert reversed_.out_adj == g.in_adj and reversed_.in_adj == g.out_adj

    @pytest.mark.parametrize("n", range(3, 13))
    def test_columns_match_arcs(self, n, dg):
        g = dg(n)
        assert len(g.tail) == len(g.head) == len(g.w) == len(g.arcs)
        for a in g.arcs:
            assert a.tail is g.vertices[g.tail[a.id]]
            assert a.head is g.vertices[g.head[a.id]]
            assert g.w[a.id] == a.w
            assert g.arc(a.id) == a

    @pytest.mark.parametrize("n", [5, 6])
    def test_arc_between_matches_scan(self, n, dg):
        g = dg(n)
        pairs = [
            (u, Cell(u.i + di, u.j + dj))
            for u in g.vertices
            for di, dj in KNIGHT_DELTAS
            if Cell(u.i + di, u.j + dj) in g.vertices
        ]
        assert len(pairs) == 2 * len(g.arcs)  # every knight pair is an arc one way
        for u, v in pairs:
            scan = [a.id for a in g.arcs if a.tail == u and a.head == v]
            if scan:
                assert g.step_arcs([(u, v)]) == scan
            else:
                with pytest.raises(ValueError, match="not an arc"):
                    g.step_arcs([(u, v)])


def _violations(g):
    report = verify_certificate(g, dataclasses.replace(build_t1(g.n), gamma=0))
    assert report.violations
    return report


def _search_and_verify(g):
    return verify_tour(g, search_tour(g, budget=200_000).cells)


def _check_reduction(g):
    tour = search_tour(g, budget=200_000)
    assert check_reduction(g, tour)
    return tour


PACKAGE_PATHS = {
    "build_digraph": lambda g: None,
    "coil_interval": coil_interval,
    "lp_feasible": lambda g: lp_feasible(g, 5),
    "lp_infeasible": lambda g: lp_feasible(g, 3),
    "verify_certificate_violations": _violations,
    "search_and_verify_tour": _search_and_verify,
    "check_reduction": _check_reduction,
    "json_round_trip": lambda g: digraph_from_json(digraph_to_json(g)),
    "render_digraph": lambda g: render(digraph_spec(g)),
}


@pytest.mark.parametrize("path", PACKAGE_PATHS)
def test_package_paths_build_no_arc_records(path):
    # The columns are the digraph; the Arc records exist only on request, and
    # only serialisation and rendering read the vertex tuple.
    g = build_digraph(6)
    out = PACKAGE_PATHS[path](g)
    assert "arcs" not in vars(g)
    if path not in ("json_round_trip", "render_digraph"):
        assert "vertices" not in vars(g)
    if isinstance(out, WhirlDigraph):
        assert "arcs" not in vars(out)
    assert g.geometry is g.geometry  # built once per digraph


class TestCoilWeights:
    def test_n3_exactly_three_crossing_arcs(self, dg):
        assert sum(dg(3).w) == 3

    def test_n6_total_matches_ray_oracle(self, dg):
        g = dg(6)
        oracle_total = sum(weight_oracle(6, u, v) for u, v in arcs_oracle(6))
        assert oracle_total == 14  # frozen before the build
        assert sum(g.w) == oracle_total

    @pytest.mark.parametrize("n", [4, 6, 10])
    def test_east_arcs_have_zero_weight(self, n, dg):
        h = n // 2
        for a in dg(n).arcs:
            if a.tail.j >= h and a.head.j >= h:
                assert a.w == 0

    def test_vector_aligned_with_arc_ids(self, dg):
        g = dg(6)
        assert all(g.w[a.id] == a.w for a in g.arcs)


class TestInvariants:
    @pytest.mark.parametrize("n", range(4, 31))
    def test_degree_positivity(self, n, dg):
        g = dg(n)
        assert all(g.out_adj[k] for k in range(len(g.vertices)))
        assert all(g.in_adj[k] for k in range(len(g.vertices)))

    @pytest.mark.parametrize("n", range(3, 13))
    def test_quarter_turn_automorphism(self, n, dg):
        g = dg(n)
        arcset = {(a.tail, a.head) for a in g.arcs}
        rotated = {
            (Cell(t.j, n - 1 - t.i), Cell(h.j, n - 1 - h.i)) for t, h in arcset
        }
        assert rotated == arcset

    def test_no_self_loops_or_duplicates(self, dg):
        g = dg(12)
        pairs = [(a.tail, a.head) for a in g.arcs]
        assert len(set(pairs)) == len(pairs)
        assert all(t != h for t, h in pairs)

    @pytest.mark.parametrize("n", [3, 4, 9])
    def test_vertex_counts(self, n, dg):
        assert len(dg(n).vertices) == n * n - (n % 2)


class TestSerialization:
    @pytest.mark.parametrize("n", [3, 4, 6, 11])
    def test_round_trip_identical(self, n, dg):
        g = dg(n)
        text = digraph_to_json(g)
        g2 = digraph_from_json(text)
        assert g2 == g
        assert digraph_to_json(g2) == text  # bit-exact

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=3, max_value=10))
    def test_round_trip_any_n(self, n):
        g = build_digraph(n)
        assert digraph_from_json(digraph_to_json(g)) == g

    def test_rejects_tampered_weight(self, dg):
        doc = json.loads(digraph_to_json(dg(4)))
        doc["arcs"][0]["w"] = 1 - doc["arcs"][0]["w"]
        with pytest.raises(ValueError):
            digraph_from_json(json.dumps(doc))

    def test_rejects_missing_arc(self, dg):
        doc = json.loads(digraph_to_json(dg(4)))
        doc["arcs"].pop()
        with pytest.raises(ValueError):
            digraph_from_json(json.dumps(doc))

    @pytest.mark.parametrize("bad", [0.9, False, "0"], ids=["float", "bool", "string"])
    def test_rejects_non_integer(self, bad, dg):
        # 0 < 0.9 < 1 is no weight at all, and False == 0 would match the canonical arc.
        doc = json.loads(digraph_to_json(dg(4)))
        arc = next(a for a in doc["arcs"] if a["w"] == 0)
        arc["w"] = bad
        with pytest.raises(ValueError, match="integer"):
            digraph_from_json(json.dumps(doc))

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            digraph_from_json('{"n": 4}')

    def test_small_board_keeps_the_board_message(self):
        # Whatever the vertex list holds, n < 3 is reported as a bad board side.
        with pytest.raises(ValueError, match="board side must be an integer >= 3, got 2"):
            digraph_from_json('{"n": 2, "vertices": [], "arcs": []}')

    def test_short_vertex_list_rejected_before_building(self, monkeypatch):
        # The vertex count alone contradicts n, so no 10**10-cell board may be built.
        def forbidden(n):
            pytest.fail(f"build_digraph({n}) called for a file with no vertices")

        monkeypatch.setattr("whirlknight.digraph.build_digraph", forbidden)
        with pytest.raises(ValueError, match="vertex list does not match"):
            digraph_from_json('{"n": 100000, "vertices": [], "arcs": []}')

    def test_vertices_row_major(self, dg):
        assert list(dg(5).vertices) == [Cell(*c) for c in board_cells(5)]

    def test_json_bytes_are_pinned(self):
        # Generated by the geometry-predicate build; the grid build must match it byte for byte.
        digest = hashlib.sha256()
        for n in [*range(3, 41), 61, 62, 63, 101, 102]:
            digest.update(digraph_to_json(build_digraph(n)).encode())
        assert digest.hexdigest() == "8882be96e4efec5c9a44a0bc00bbdfb3238166ee97ed4550981674dbcbeeef62"
