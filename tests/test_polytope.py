import dataclasses
import hashlib
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import whirlknight.polytope as polytope
from whirlknight import (
    Cell,
    CycleCover,
    FractionalAssignment,
    NoCycleCoverError,
    WhirlDigraph,
    build_t1,
    build_t2,
    certificate_to_json,
    check_reduction,
    coil_interval,
    coil_of_cover,
    enumerate_cycle_covers,
    lp_decision_to_json,
    lp_feasible,
    search_tour,
    validate_assignment,
    verify_certificate,
)
from whirlknight.cli import main

from oracles import arcs_oracle, board_cells, interval_oracle, lp_rows_oracle, weight_oracle

# Interval endpoints frozen from the independent scipy matching oracle
# before the solver was written.
FROZEN_INTERVALS = {
    3: (3, 3),
    4: (4, 4),
    6: (5, 5),
    12: (8, 12),
    14: (9, 13),
    16: (8, 16),
    18: (9, 17),
    20: (12, 20),
    22: (13, 21),
}

# (min_coil, max_coil) for every n = 3..60, computed before the most-coil
# solve started from the least-coil cover.
PINNED_INTERVALS = {
    3: (3, 3), 4: (4, 4), 5: (4, 4), 6: (5, 5), 7: (5, 7), 8: (6, 8), 9: (6, 8), 10: (7, 9),
    11: (7, 11), 12: (8, 12), 13: (8, 12), 14: (9, 13), 15: (9, 15), 16: (8, 16), 17: (10, 16),
    18: (9, 17), 19: (9, 19), 20: (12, 20), 21: (12, 20), 22: (13, 21), 23: (13, 23), 24: (12, 24),
    25: (12, 24), 26: (13, 25), 27: (15, 27), 28: (16, 28), 29: (16, 28), 30: (17, 29), 31: (17, 31),
    32: (16, 32), 33: (18, 32), 34: (17, 33), 35: (19, 35), 36: (20, 36), 37: (20, 36), 38: (21, 37),
    39: (21, 39), 40: (20, 40), 41: (22, 40), 42: (21, 41), 43: (21, 43), 44: (24, 44), 45: (24, 44),
    46: (25, 45), 47: (25, 47), 48: (24, 48), 49: (24, 48), 50: (25, 49), 51: (27, 51), 52: (28, 52),
    53: (28, 52), 54: (29, 53), 55: (29, 55), 56: (28, 56), 57: (30, 56), 58: (29, 57), 59: (31, 59),
    60: (32, 60),
}


def assert_certified(g, cert, c):
    """Checked here arc by arc, not by verify_certificate: LHS <= 0 everywhere, RHS = 1 at c."""
    assert cert.n == g.n and cert.c == c
    assert set(cert.alpha) | set(cert.beta) <= set(g.vertices)
    for a in g.arcs:
        assert cert.alpha.get(a.head, 0) + cert.beta.get(a.tail, 0) + cert.gamma * a.w <= 0
    assert sum(cert.alpha.values()) + sum(cert.beta.values()) + c * cert.gamma == 1


def assert_endpoints_certified(g, iv):
    """Both endpoints proved extreme: nothing below min_coil, nothing above max_coil."""
    assert_certified(g, iv.below, iv.min_coil - 1)
    assert_certified(g, iv.above, iv.max_coil + 1)


class TestCoilInterval:
    def test_n3_point_interval(self, dg):
        iv = coil_interval(dg(3))
        assert (iv.min_coil, iv.max_coil) == (3, 3)

    @pytest.mark.parametrize("n", [3, 4, 6, 12, 14, 16, 18])
    def test_frozen_values(self, n, dg):
        iv = coil_interval(dg(n))
        assert (iv.min_coil, iv.max_coil) == FROZEN_INTERVALS[n]

    @pytest.mark.parametrize("n", [6, 12, 16, 30, 40])
    def test_against_scipy_oracle(self, n, dg):
        g = dg(n)
        iv = coil_interval(g)
        assert (iv.min_coil, iv.max_coil) == interval_oracle(n)
        assert_endpoints_certified(g, iv)
        oracle_arcs, cells = set(arcs_oracle(n)), board_cells(n)
        for cover, coil in ((iv.argmin, iv.min_coil), (iv.argmax, iv.max_coil)):
            steps = [(tuple(a.tail), tuple(a.head)) for a in map(g.arc, cover.arcs)]
            assert set(steps) <= oracle_arcs
            assert sorted(t for t, _ in steps) == sorted(h for _, h in steps) == sorted(cells)
            assert sum(weight_oracle(n, t, h) for t, h in steps) == coil

    def test_n100_endpoints_certified(self, dg):
        # n = 100 is 4 mod 8: the t2 certificate forbids c = 50, so min_coil > 50.
        g = dg(100)
        iv = coil_interval(g)
        assert_endpoints_certified(g, iv)
        assert iv.min_coil > 50
        assert verify_certificate(g, build_t2(100)).valid

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 14])
    def test_witness_covers_attain_endpoints(self, n, dg):
        g = dg(n)
        iv = coil_interval(g)
        assert coil_of_cover(g, iv.argmin) == iv.min_coil
        assert coil_of_cover(g, iv.argmax) == iv.max_coil

    @pytest.mark.parametrize("bad", ["lhs", "rhs"])
    def test_failed_certificate_is_an_assertion(self, bad, dg, monkeypatch):
        import whirlknight.polytope as polytope

        solve = polytope._min_cost_matching

        def perturbed(*args):
            row_arc, u, v = solve(*args)
            if bad == "lhs":
                v[0] += 1  # some arc into vertex 0 gets LHS 1
            else:
                u[0] -= 1  # still LHS <= 0, but RHS drops to 0
            return row_arc, u, v

        monkeypatch.setattr(polytope, "_min_cost_matching", perturbed)
        with pytest.raises(AssertionError, match="no certificate"):
            coil_interval(dg(6))

    def test_positive_lhs_alone_fails_the_proof(self, dg, monkeypatch):
        solve = polytope._min_cost_matching

        def perturbed(*args):
            row_arc, u, v = solve(*args)
            v[0] += 1  # the cover arc into vertex 0 gets LHS 1 ...
            u[0] -= 1  # ... and RHS stays 1
            return row_arc, u, v

        monkeypatch.setattr(polytope, "_min_cost_matching", perturbed)
        message = "potentials give no certificate at c=4: valid=False rhs=1 max_lhs=1"
        with pytest.raises(AssertionError, match=f"^{message}$"):
            coil_interval(dg(6))

    @pytest.mark.parametrize("n", range(3, 41))
    def test_lazy_certificates_pass_the_verifier(self, n, dg):
        g = dg(n)
        iv = coil_interval(g)
        assert iv.below is iv.below and iv.above is iv.above  # built once
        for cert, c in ((iv.below, iv.min_coil - 1), (iv.above, iv.max_coil + 1)):
            report = verify_certificate(g, cert)
            assert cert.c == c
            assert report.valid and report.rhs == 1 and report.max_lhs == 0

    def test_lp_builds_only_the_certificate_it_returns(self, dg, monkeypatch):
        built, verified = [], []
        post_init = polytope.FarkasCertificate.__post_init__
        verify = verify_certificate

        def counting_post_init(cert):
            built.append(cert.c)
            post_init(cert)

        def counting_verify(*args):
            verified.append(args)
            return verify(*args)

        monkeypatch.setattr(polytope.FarkasCertificate, "__post_init__", counting_post_init)
        monkeypatch.setattr("whirlknight.certificates.verify_certificate", counting_verify)
        monkeypatch.setattr(polytope, "verify_certificate", counting_verify, raising=False)
        g = dg(12)
        assert lp_feasible(g, 9).feasible
        assert (built, verified) == ([], [])
        assert not lp_feasible(g, 5).feasible
        assert (built, verified) == ([5], [])

    def test_deterministic(self, dg):
        a = coil_interval(dg(12))
        b = coil_interval(dg(12))
        assert a.argmin.arcs == b.argmin.arcs
        assert a.argmax.arcs == b.argmax.arcs

    def test_every_interval_is_pinned(self, dg):
        intervals = {}
        for n in range(3, 61):
            iv = coil_interval(dg(n))
            intervals[n] = (iv.min_coil, iv.max_coil)
        assert intervals == PINNED_INTERVALS

    def test_least_coil_solve_is_pinned(self, dg):
        # The least-coil solve starts cold, so its cover and potentials (the
        # below certificate's columns) keep the bytes they had before the
        # most-coil solve was warm-started.
        digest = hashlib.sha256()
        for n in range(3, 41):
            iv = coil_interval(dg(n))
            digest.update(repr((n, iv.argmin.arcs, iv.columns[-1])).encode())
        assert digest.hexdigest() == "13d2b7071ea9932fdc84a53f8c46853125995c20ae85218d9c0267702adaacd4"

    def test_most_coil_solve_starts_from_the_least_coil_cover(self, dg, monkeypatch):
        solve, starts = polytope._min_cost_matching, []

        def recording(out_adj, head, cost, start=None):
            starts.append(start)
            return solve(out_adj, head, cost, start)

        monkeypatch.setattr(polytope, "_min_cost_matching", recording)
        iv = coil_interval(dg(14))
        assert starts == [None, iv.argmin.arcs]

    @pytest.mark.parametrize("tail,head", [((-1, 0), (0, 1)), ((0, 1), (1, -1)), ((0, 8), (1, 0)), ((0, 1), (8, 0))])
    def test_arc_end_out_of_range_raises_before_any_solve(self, tail, head, monkeypatch):
        # A negative end would index from the back of the adjacency lists.
        monkeypatch.setattr(polytope, "_min_cost_matching", None)
        with pytest.raises(ValueError, match=r"^an arc end is not a vertex index in range\(8\)$"):
            coil_interval(WhirlDigraph(3, tail, head, (0, 0)))

    def test_no_cover_raises(self, dg):
        g = dg(3)
        dropped = len(g.arcs) - 1
        crippled = WhirlDigraph(n=3, tail=g.tail[:dropped], head=g.head[:dropped], w=g.w[:dropped])
        with pytest.raises(NoCycleCoverError):
            coil_interval(crippled)


class TestLpFeasible:
    @pytest.mark.parametrize("n,c", [(3, 2), (4, 2), (6, 3), (12, 6), (14, 7)])
    def test_known_infeasible_cases(self, n, c, dg):
        assert not lp_feasible(dg(n), c).feasible

    @pytest.mark.parametrize("n,c", [(3, 3), (16, 8), (18, 9)])
    def test_feasible_cases(self, n, c, dg):
        decision = lp_feasible(dg(n), c)
        assert decision.feasible and decision.witness is not None
        assert decision.certificate is None

    @pytest.mark.parametrize("side,k", [("min", -2), ("min", -1), ("max", 1), ("max", 2)])
    @pytest.mark.parametrize("n", range(3, 23))
    def test_infeasible_decision_is_certified(self, n, side, k, dg, tmp_path, capsys):
        g = dg(n)
        iv = coil_interval(g)
        c = (iv.min_coil if side == "min" else iv.max_coil) + k
        decision = lp_feasible(g, c)
        assert not decision.feasible and decision.certificate.c == c
        report = verify_certificate(g, decision.certificate)
        assert report.valid and report.rhs == abs(k)
        path = tmp_path / "lp.json"
        path.write_text(certificate_to_json(decision.certificate))
        assert main(["cert", "verify", "--family", "file", "--in", str(path)]) == 0
        assert capsys.readouterr().out.startswith(f"valid=true rhs={abs(k)} ")

    def test_point_interval_witness(self, dg):
        decision = lp_feasible(dg(3), 3)
        assert all(v == 1 for v in decision.witness.x.values())
        validate_assignment(dg(3), decision.witness, 3)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=8, max_value=12))
    def test_witness_exact_for_any_feasible_c(self, c):
        from whirlknight import build_digraph

        g = build_digraph(12)
        decision = lp_feasible(g, c)
        assert decision.feasible and decision.certificate is None
        validate_assignment(g, decision.witness, c)  # zero residual or it raises

    def test_witness_lambda_exact_fraction(self, dg):
        g = dg(12)
        decision = lp_feasible(g, 9)  # interval [8, 12], lam = 3/4
        values = set(decision.witness.x.values())
        assert values <= {Fraction(3, 4), Fraction(1, 4), Fraction(1)}

    @pytest.mark.parametrize("c", [8, 9, 12])
    def test_witness_keys_and_value_types_are_pinned(self, c, dg):
        # Keys: argmin's arcs, then argmax's arcs not already in it, each cover
        # only if its coefficient is nonzero.  Every value is a Fraction.
        g = dg(12)
        iv = coil_interval(g)
        lam = Fraction(12 - c, 4)
        covers = [cov for cov, coef in ((iv.argmin, lam), (iv.argmax, 1 - lam)) if coef]
        x = lp_feasible(g, c).witness.x
        assert list(x) == list(dict.fromkeys(a for cov in covers for a in cov.arcs))
        assert all(type(v) is Fraction for v in x.values())
        for a, v in x.items():
            assert v == lam * (a in iv.argmin.arcs) + (1 - lam) * (a in iv.argmax.arcs)

    @pytest.mark.parametrize("c", [3.5, 10.5, True])
    def test_non_int_c_rejected_before_solving(self, c, dg, monkeypatch):
        def refuse(g):
            raise AssertionError("solved the LP")

        monkeypatch.setattr(polytope, "coil_interval", refuse)
        with pytest.raises(ValueError, match=rf"^coil count must be an integer, got {c!r}$"):
            lp_feasible(dg(14), c)

    def test_infeasible_has_no_witness(self, dg):
        assert lp_feasible(dg(6), 3).witness is None

    def test_decision_json(self, dg):
        text = lp_decision_to_json(lp_feasible(dg(6), 3))
        assert text == '{"n":6,"c":3,"feasible":false,"min_coil":5,"max_coil":5}\n'

    @pytest.mark.parametrize("n", [4, 6, 12, 14])
    def test_dual_bound_from_certificate(self, n, dg):
        cert = build_t1(n) if n % 8 == 6 else build_t2(n)
        assert verify_certificate(dg(n), cert).valid
        bound = cert.sum_alpha() + cert.sum_beta()
        iv = coil_interval(dg(n))
        assert iv.min_coil >= bound == n // 2 + 1


class TestCoilOfCover:
    def test_n3_unique_cover(self, dg):
        g = dg(3)
        assert coil_of_cover(g, CycleCover(arcs=tuple(range(len(g.w))))) == 3

    def test_rotated_cover_matches_recount_oracle(self, dg):
        g = dg(6)
        base = coil_interval(g).argmin
        steps = sorted(
            (Cell(a.tail.j, 5 - a.tail.i), Cell(a.head.j, 5 - a.head.i))
            for a in map(g.arc, base.arcs)
        )
        rot = CycleCover(arcs=tuple(g.step_arcs(steps)))
        recount = sum(weight_oracle(6, t, h) for t, h in steps)
        assert coil_of_cover(g, rot) == recount

    def test_rejects_partial_cover(self, dg):
        g = dg(3)
        with pytest.raises(ValueError, match="7 arcs for 8 vertices"):
            coil_of_cover(g, CycleCover(arcs=tuple(range(len(g.w) - 1))))

    @pytest.mark.parametrize("where", ["negative", "past the end"])
    def test_rejects_unknown_arc_id(self, where, dg):
        g = dg(3)
        arcs = list(range(len(g.w)))
        arcs[-1] = -1 if where == "negative" else len(g.w)
        with pytest.raises(ValueError, match="does not leave"):
            coil_of_cover(g, CycleCover(arcs=tuple(arcs)))

    def test_rejects_non_arc_step(self, dg):
        g = dg(3)
        arcs = list(range(len(g.w)))  # at n = 3, arc k is the one out-arc of vertex k
        arcs[0], arcs[1] = arcs[1], arcs[0]
        with pytest.raises(ValueError, match="does not leave"):
            coil_of_cover(g, CycleCover(arcs=tuple(arcs)))

    @pytest.mark.parametrize("bad", [True, 0.0])
    def test_rejects_non_int_arc_id(self, bad, dg):
        # At n = 3 arc 1 leaves vertex 1 and arc 0 leaves vertex 0, so only the type is wrong.
        g = dg(3)
        arcs = list(coil_interval(g).argmin.arcs)
        arcs[int(bad)] = bad
        with pytest.raises(ValueError, match=f"^arc id must be an integer, got {bad!r}$"):
            coil_of_cover(g, CycleCover(arcs=tuple(arcs)))

    def test_rejects_non_permutation(self, dg):
        g = dg(6)
        arcs = list(coil_interval(g).argmin.arcs)
        k = next(k for k, out in enumerate(g.out_adj) if len(out) > 1)
        # Any other out-arc of k enters a head that another vertex's arc already takes.
        arcs[k] = next(a for a in g.out_adj[k] if a != arcs[k])
        with pytest.raises(ValueError, match="not a permutation"):
            coil_of_cover(g, CycleCover(arcs=tuple(arcs)))

    @pytest.mark.parametrize("edit,message", [
        ("second out-arc of a row", "not a permutation"),
        ("arc of another row", "does not leave vertex"),
        ("short", "15 arcs for 16 vertices"),
    ])
    def test_cycles_rejects_an_invalid_cover(self, edit, message, dg):
        g = dg(4)
        arcs = list(enumerate_cycle_covers(g)[0].arcs)
        if edit == "second out-arc of a row":
            k = next(k for k, out in enumerate(g.out_adj) if len(out) > 1)
            arcs[k] = next(a for a in g.out_adj[k] if a != arcs[k])
        elif edit == "arc of another row":
            arcs[0], arcs[1] = arcs[1], arcs[0]
        else:
            arcs.pop()
        with pytest.raises(ValueError, match=message):
            CycleCover(arcs=tuple(arcs)).cycles(g)


class TestCheckReduction:
    def test_n3_tour_satisfies_all_rows(self, dg):
        g = dg(3)
        tour = search_tour(g, budget=100)
        assert tour.coil == 3
        assert check_reduction(g, tour)

    def test_two_cycle_cover_rejected(self, dg):
        g = dg(4)
        cover = enumerate_cycle_covers(g)[0]
        assert len(cover.cycles(g)) > 1
        cyc = cover.cycles(g)[0]

        class FakeTour:
            cells = tuple(cyc)
            coil = 0

        with pytest.raises(ValueError):
            check_reduction(g, FakeTour())

    def test_wrong_coil_field_fails(self, dg):
        g = dg(3)
        tour = search_tour(g, budget=100)

        class Mislabeled:
            cells = tour.cells
            coil = tour.coil + 1

        assert not check_reduction(g, Mislabeled())
        assert not check_reduction(g, dataclasses.replace(tour, coil=float(tour.coil)))
        assert not check_reduction(g, dataclasses.replace(tour, coil=Fraction(tour.coil)))


class TestIntervalConsistency:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_enumerated_covers_within_interval(self, n, dg):
        g = dg(n)
        iv = coil_interval(g)
        covers = enumerate_cycle_covers(g)
        assert len(covers) == {3: 1, 4: 1, 5: 1, 6: 16, 7: 289}[n]
        coils = {coil_of_cover(g, cov) for cov in covers}
        assert min(coils) == iv.min_coil
        assert max(coils) == iv.max_coil

    @pytest.mark.parametrize("n", [n for n in range(4, 31, 2) if n % 8 in (4, 6)])
    def test_certificate_interval_agreement(self, n, dg):
        # both certificate families force the coil functional past n/2
        assert n // 2 < coil_interval(dg(n)).min_coil

    @pytest.mark.parametrize("n,c", [(16, 8), (18, 9)])
    def test_tour_carrying_boards_are_lp_feasible(self, n, c, dg):
        assert coil_interval(dg(n)).min_coil <= c


class TestAssignmentValidation:
    def test_box_violation(self, dg):
        bad = FractionalAssignment(x={0: Fraction(3, 2)})
        with pytest.raises(ValueError):
            validate_assignment(dg(3), bad, 3)

    def test_degree_violation(self, dg):
        g = dg(3)
        bad = FractionalAssignment(x={a.id: Fraction(1, 2) for a in g.arcs})
        with pytest.raises(ValueError):
            validate_assignment(g, bad, 3)

    @pytest.mark.parametrize("where", ["negative", "past the end"])
    def test_unknown_arc_id(self, where, dg):
        g = dg(3)
        aid = -1 if where == "negative" else len(g.w)
        with pytest.raises(ValueError, match=f"unknown arc id {aid}$"):
            validate_assignment(g, FractionalAssignment(x={aid: Fraction(1)}), 3)

    def test_float_values_rejected(self, dg):
        # A 1e-17 extra arc vanishes from float row sums but not from exact ones.
        g = dg(6)
        iv = coil_interval(g)
        extra = next(a for a in range(len(g.w)) if a not in iv.argmin.arcs)
        x = {**dict.fromkeys(iv.argmin.arcs, 1.0), extra: 1e-17}
        exact = FractionalAssignment(x={a: Fraction(v) for a, v in x.items()})
        with pytest.raises(ValueError, match="^degree rows at "):
            validate_assignment(g, exact, iv.min_coil)
        with pytest.raises(ValueError, match=r"value 1\.0 is not an int or Fraction$"):
            validate_assignment(g, FractionalAssignment(x=x), iv.min_coil)

    @pytest.mark.parametrize("x,message", [
        ({True: Fraction(1)}, r"^arc id must be an integer, got True$"),
        ({0.0: Fraction(1)}, r"^arc id must be an integer, got 0\.0$"),
        ({0: True}, r"^arc 0 value True is not an int or Fraction$"),
        ({0: 0.5}, r"^arc 0 value 0\.5 is not an int or Fraction$"),
    ])
    def test_non_exact_entries_rejected(self, x, message, dg):
        with pytest.raises(ValueError, match=message):
            validate_assignment(dg(3), FractionalAssignment(x=x), 3)

    @pytest.mark.parametrize("kind", [float, Fraction, bool])
    def test_non_int_coil_rejected(self, kind, dg):
        # The n = 6 argmin indicator meets every row at c = min_coil = 5 (and at 1 for bool).
        g = dg(6)
        iv = coil_interval(g)
        indicator = FractionalAssignment(x=dict.fromkeys(iv.argmin.arcs, 1))
        validate_assignment(g, indicator, iv.min_coil)
        c = kind(iv.min_coil)
        with pytest.raises(ValueError, match=f"^coil count must be an integer, got {re.escape(repr(c))}$"):
            validate_assignment(g, indicator, c)

    @pytest.mark.parametrize("x,message", [
        ({0: Fraction(3, 2), 1: 0.5}, r"^arc 0 value 3/2 violates the box bounds$"),
        ({8: Fraction(1), 0: Fraction(3, 2)}, r"^unknown arc id 8$"),
        ({0: Fraction(1), 1: Fraction(-1, 3), 2: "1"}, r"^arc 1 value -1/3 violates the box bounds$"),
    ])
    def test_first_bad_entry_is_reported(self, x, message, dg):
        with pytest.raises(ValueError, match=message):
            validate_assignment(dg(3), FractionalAssignment(x=x), 3)

    def test_degree_row_message_with_mixed_denominators(self, dg):
        # The n = 6 argmin indicator (int values) plus arc 2 (vertex 1 -> 14) at 1/2.
        g = dg(6)
        assert (g.tail[2], g.head[2]) == (1, 14)
        x = {**dict.fromkeys(coil_interval(g).argmin.arcs, 1), 2: Fraction(1, 2)}
        with pytest.raises(ValueError, match=r"^degree rows at \(0, 1\) sum to in=1, out=3/2$"):
            validate_assignment(g, FractionalAssignment(x=x), 5)

    def test_coil_row_message_with_mixed_denominators(self, dg):
        # 1/3 argmin + 2/3 argmax at n = 12 meets every degree row; its coil is 8/3 + 24/3.
        g = dg(12)
        iv = coil_interval(g)
        x = dict.fromkeys(iv.argmin.arcs, Fraction(1, 3))
        for a in iv.argmax.arcs:
            x[a] = 1 if a in x else Fraction(2, 3)
        with pytest.raises(ValueError, match=r"^coil row sums to 32/3, expected 11$"):
            validate_assignment(g, FractionalAssignment(x=x), 11)

    @settings(max_examples=200, deadline=None)
    @given(
        picks=st.lists(st.tuples(st.integers(0, 15), st.integers(1, 6)), min_size=2, max_size=3),
        edit=st.sampled_from(["none", "shift", "drop", "add", "coil"]),
        where=st.integers(0, 10**6),
        delta=st.sampled_from([Fraction(1, 2), Fraction(-1, 3), Fraction(1, 6), Fraction(-1, 6), Fraction(-1), 1]),
    )
    def test_agrees_with_row_sum_oracle(self, dg, picks, edit, where, delta):
        # A convex combination of n = 6 covers (all of coil 5) with mixed
        # denominators, then at most one entry changed, dropped or added, or c moved.
        g = dg(6)
        covers = enumerate_cycle_covers(g)
        total = sum(m for _, m in picks)
        x = {}
        for k, m in picks:
            for a in covers[k].arcs:
                x[a] = x.get(a, 0) + Fraction(m, total)
        keys = list(x)
        c = 5
        if edit == "shift":
            x[keys[where % len(keys)]] += delta
        elif edit == "drop":
            del x[keys[where % len(keys)]]
        elif edit == "add":
            spare = [a for a in range(len(g.w)) if a not in x]
            x[spare[where % len(spare)]] = delta
        elif edit == "coil":
            c += 1 if delta > 0 else -1
        steps = [((tuple(g.arc(a).tail), tuple(g.arc(a).head), g.w[a]), v) for a, v in x.items()]
        try:
            validate_assignment(g, FractionalAssignment(x=x), c)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == lp_rows_oracle(6, steps, c)

    def test_integer_values_accepted(self, dg):
        g = dg(3)
        validate_assignment(g, FractionalAssignment(x={a: 1 for a in range(len(g.w))}), 3)

    def test_coil_row_violation(self, dg):
        g = dg(3)
        full = FractionalAssignment(x={a.id: Fraction(1) for a in g.arcs})
        with pytest.raises(ValueError):
            validate_assignment(g, full, 2)
        validate_assignment(g, full, 3)


class TestMatchingSolver:
    """Fuzz the in-package sparse matching against scipy on general instances."""

    @staticmethod
    def check_against_scipy(trial_seed, offset):
        """A random instance with costs offset + 0..6 on a random arc mask.

        A feasible instance is solved twice: cold, and started from a
        perfect matching of the same mask under other random costs.
        """
        import numpy as np
        from scipy.optimize import linear_sum_assignment

        from whirlknight.polytope import _min_cost_matching

        rng = np.random.default_rng(trial_seed)
        n = int(rng.integers(1, 25))
        cost = offset + rng.integers(0, 7, size=(n, n)).astype(np.int64)
        mask = rng.random((n, n)) < rng.uniform(0.15, 1.0)
        big = 1 << 30
        sci = np.where(mask, cost, big)
        rows, cols = linear_sum_assignment(sci)
        feasible = sci[rows, cols].max() < big
        out_adj, head, arc_cost = [], [], []
        for i in range(n):
            js = np.flatnonzero(mask[i]).tolist()
            out_adj.append(list(range(len(head), len(head) + len(js))))
            head += js
            arc_cost += [int(cost[i, j]) for j in js]
        try:
            solved = _min_cost_matching(out_adj, head, arc_cost)
        except NoCycleCoverError:
            assert not feasible
            return
        assert feasible
        other = np.where(mask, rng.integers(0, 7, size=(n, n)), big)
        start = [out_adj[i][int(mask[i, :j].sum())] for i, j in zip(*linear_sum_assignment(other))]
        assert sorted(head[a] for a in start) == list(range(n))
        for row_arc, u, v in (solved, _min_cost_matching(out_adj, head, arc_cost, start)):
            assert all(row_arc[i] in out_adj[i] for i in range(n))
            assert sorted(head[a] for a in row_arc) == list(range(n))
            total = sum(arc_cost[a] for a in row_arc)
            assert total == int(sci[rows, cols].sum())
            # the potentials are dual-feasible with zero gap
            for i in range(n):
                assert all(arc_cost[a] - u[i] - v[head[a]] >= 0 for a in out_adj[i])
            assert sum(u) + sum(v) == total

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_agrees_with_scipy(self, trial_seed):
        self.check_against_scipy(trial_seed, 0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=5))
    def test_agrees_with_scipy_when_every_cost_is_positive(self, trial_seed, offset):
        # The first phase then raises every row potential by the least cost.
        self.check_against_scipy(trial_seed, offset)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=-5, max_value=-1))
    def test_agrees_with_scipy_on_signed_costs(self, trial_seed, offset):
        # Costs down to -5, as the most-coil solve's -w: every row potential starts below 0.
        self.check_against_scipy(trial_seed, offset)

    @pytest.mark.parametrize(
        "out_adj,head",
        [([[], [], []], []), ([[0, 1, 2], [3, 4, 5], []], [0, 1, 2, 0, 1, 2])],
        ids=["no-arcs", "one-arcless-row"],
    )
    def test_unmatchable_row_raises(self, out_adj, head):
        with pytest.raises(NoCycleCoverError, match="no cycle cover exists"):
            polytope._min_cost_matching(out_adj, head, [1] * len(head))
