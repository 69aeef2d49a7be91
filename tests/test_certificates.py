import dataclasses
import functools
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import whirlknight
from whirlknight import (
    FAMILIES,
    Arc,
    BoardGeometry,
    Cell,
    FarkasCertificate,
    WhirlDigraph,
    build_digraph,
    build_n3_certificate,
    build_t1,
    build_t2,
    certificate_from_json,
    certificate_to_json,
    lp_feasible,
    parity_census,
    verify_certificate,
)
from whirlknight import certificates
from whirlknight.certificates import _candidates, _check_columns

from oracles import board_cells, step_arcs_oracle

T1_SIZES = [6, 14, 22, 30]
T2_SIZES = [4, 12, 20, 28]


def plain_report(g, cert):
    """(rhs, max_lhs, valid, violations) by the per-arc definition, one arc at a time."""
    cells = g.vertices
    alpha = [cert.alpha.get(v, 0) for v in cells]
    beta = [cert.beta.get(v, 0) for v in cells]
    lhs, violations = [], []
    for a in range(len(g.w)):
        x = alpha[g.head[a]] + beta[g.tail[a]] + cert.gamma * g.w[a]
        lhs.append(x)
        if x > 0:
            violations.append((Arc(cells[g.tail[a]], cells[g.head[a]], g.w[a], a), x))
    rhs = sum(alpha) + sum(beta) + cert.c * cert.gamma
    return (rhs, max(lhs, default=0), not violations and rhs >= 1, violations)


class TestVerify:
    def test_t1_n6_valid_rhs_one(self, dg):
        report = verify_certificate(dg(6), build_t1(6))
        assert report.valid and report.rhs == 1

    def test_t2_n4_exact_sums(self, dg):
        cert = build_t2(4)
        report = verify_certificate(dg(4), cert)
        assert report.valid and report.rhs == 1
        assert cert.sum_alpha() == 0 and cert.sum_beta() == 3

    def test_all_zero_certificate_invalid(self, dg):
        zero = FarkasCertificate(n=6, c=3, alpha={}, beta={}, gamma=0)
        report = verify_certificate(dg(6), zero)
        assert not report.valid and report.rhs == 0 and report.max_lhs == 0

    def test_board_size_mismatch(self, dg):
        with pytest.raises(ValueError):
            verify_certificate(dg(4), build_t1(6))

    def test_off_board_support(self, dg):
        with pytest.raises(ValueError):
            verify_certificate(dg(4), FarkasCertificate(n=4, c=2, alpha={Cell(4, 0): 1}, beta={}, gamma=-1))

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    @pytest.mark.parametrize("n,cell", [(4, Cell(0, 4)), (4, Cell(-1, 0)), (5, Cell(2, 2)), (6, Cell(0.5, 1)),
                                        (6, 5), (6, (0,)), (6, (0, 0, 1))])
    def test_non_vertex_support_message(self, n, cell, field, dg):
        support = {"alpha": {}, "beta": {}, field: {cell: 1}}
        shown = str(tuple(cell) if isinstance(cell, Cell) else cell)
        with pytest.raises(ValueError, match=rf"^{field} support cell {re.escape(shown)} is not a vertex$"):
            verify_certificate(dg(n), FarkasCertificate(n=n, c=2, gamma=-1, **support))

    def test_float_entry_below_float_resolution_rejected(self):
        # In floats RHS would round to 1.0; exactly it is 1 - 10**-17 < 1.
        t1 = build_t1(6)
        with pytest.raises(ValueError, match=r"^beta entry at \(5, 5\) must be an integer, got -1e-17$"):
            dataclasses.replace(t1, beta={**t1.beta, Cell(5, 5): -1e-17})

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    @pytest.mark.parametrize("x", [1.0, True, Fraction(1)])
    def test_non_int_entry_rejected(self, x, field):
        support = {"alpha": {}, "beta": {}, field: {Cell(0, 0): x}}
        with pytest.raises(ValueError, match=rf"^{field} entry at \(0, 0\) must be an integer, got "):
            FarkasCertificate(n=6, c=3, gamma=-1, **support)

    @pytest.mark.parametrize("field,x", [("c", 3.0), ("c", 3.5), ("gamma", True), ("gamma", -1.0)])
    def test_non_int_c_or_gamma_rejected(self, field, x):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {x!r}$"):
            dataclasses.replace(build_t1(6), **{field: x})

    def test_finds_all_violations(self, dg):
        g = dg(4)
        # gamma = +1 turns every crossing arc into a violation
        cert = FarkasCertificate(n=4, c=0, alpha={}, beta={}, gamma=1)
        report = verify_certificate(g, cert)
        assert len(report.violations) == sum(g.w)
        assert not report.valid
        ids = [a.id for a, _ in report.violations]
        assert ids == sorted(ids)

    def test_matches_a_plain_arc_loop_on_column_digraphs(self):
        """Any int weights, self-loops and parallel arcs: the report is the per-arc definition's, exactly."""
        cells = list(map(BoardGeometry(3).cell, range(8)))
        entries, gammas, weights = [0, 1, -1, 5, -10**25], [0, 1, -1, 7, -10**20], [0, 1, 2, -3, 10**30]
        seen = set()
        for k in range(200):
            rng = random.Random(k)
            m = rng.randint(0, 30)
            tail = tuple(rng.randrange(8) for _ in range(m))
            head = tuple(rng.randrange(8) for _ in range(m))
            w = tuple(rng.choice(weights) for _ in range(m))
            alpha = [rng.choice(entries) for _ in range(8)]
            beta = [rng.choice(entries) for _ in range(8)]
            gamma, c = rng.choice(gammas), rng.choice([0, 1, 3, -2, 10**26, -10**26])
            cert = FarkasCertificate(n=3, c=c, alpha=dict(zip(cells, alpha)), beta=dict(zip(cells, beta)), gamma=gamma)
            g = WhirlDigraph(3, tail, head, w)
            expected = plain_report(g, cert)
            report = verify_certificate(g, cert)
            assert (report.rhs, report.max_lhs, report.valid, list(report.violations)) == expected, k
            seen.add((report.valid, bool(expected[3]), m > 0))
        assert seen == {(False, False, False), (True, False, False), (False, False, True),
                        (True, False, True), (False, True, True)}  # every kind of report, with and without arcs

    @pytest.mark.parametrize("n,build", [(6, build_t1), (12, build_t2), (14, build_t1)])
    def test_flipped_weights_match_a_plain_arc_loop(self, n, build):
        """A replaced w derives its own crossing arcs: no seed of the built digraph is read."""
        g = build_digraph(n)
        flipped = dataclasses.replace(g, w=tuple(1 - x for x in g.w))
        cert = build(n)
        for gamma in (cert.gamma, 0, 1, 3):
            c = dataclasses.replace(cert, gamma=gamma)
            report = verify_certificate(flipped, c)
            assert (report.rhs, report.max_lhs, report.valid, list(report.violations)) == plain_report(flipped, c)

    @pytest.mark.parametrize("n", [14, 20, 102])
    def test_reads_only_the_arc_columns(self, n):
        g = build_digraph(n)
        cert = build_t1(n) if n % 8 == 6 else build_t2(n)
        assert verify_certificate(g, cert).valid
        assert verify_certificate(g, dataclasses.replace(cert, gamma=0)).violations
        assert not {"vertices", "out_adj", "in_adj", "arcs"} & vars(g).keys()


@functools.lru_cache(maxsize=None)
def oracle_arcs(n):
    """(tail cell, head cell, w) of every arc, in arc-id order, from the package-free oracle."""
    cells = board_cells(n)
    return tuple((cells[t], cells[h], w) for t, h, w in step_arcs_oracle(n))


def oracle_report(cert):
    """(rhs, max_lhs, valid, violations) of cert on the oracle's arcs, one arc at a time."""
    lhs, violations = [], []
    for a, (t, h, w) in enumerate(oracle_arcs(cert.n)):
        x = cert.alpha.get(h, 0) + cert.beta.get(t, 0) + cert.gamma * w
        lhs.append(x)
        if x > 0:
            violations.append((Arc(Cell(*t), Cell(*h), w, a), x))
    rhs = sum(cert.alpha.values()) + sum(cert.beta.values()) + cert.c * cert.gamma
    return (rhs, max(lhs, default=0), not violations and rhs >= 1, violations)


def both_paths(g, cert):
    """The report tuple of the full scan and of the candidate ids, each forced, on a built g."""
    nv = g.geometry.vertex_count
    alpha, beta = [0] * nv, [0] * nv
    for support, col in ((cert.alpha, alpha), (cert.beta, beta)):
        for v, x in support.items():
            col[g.geometry.index(v)] = x
    reports = (_check_columns(g, alpha, beta, cert.gamma, cert.c),
               _check_columns(g, alpha, beta, cert.gamma, cert.c, _candidates(g, cert)))
    return [(r.rhs, r.max_lhs, r.valid, list(r.violations)) for r in reports]


class TestSparseCheck:
    """A built digraph's certificate check may read only the candidate arcs; the report is the full scan's."""

    @pytest.mark.parametrize("n", [n for n in range(4, 201) if n % 8 in (4, 6)])
    def test_family_boards_match_the_full_scan(self, n):
        g = build_digraph(n)  # not kept for the session, as dg would
        cert = build_t1(n) if n % 8 == 6 else build_t2(n)
        for gamma in (cert.gamma, 0, 1, 3):
            c = dataclasses.replace(cert, gamma=gamma)
            full, sparse = both_paths(g, c)
            assert sparse == full
            report = verify_certificate(g, c)
            assert (report.rhs, report.max_lhs, report.valid, list(report.violations)) == full
            if n < 40:
                assert full == oracle_report(c)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 10, 13, 16, 21, 30, 31, 39, 40, 47, 60])
    def test_random_supports_match_the_full_scan(self, n, dg):
        g = dg(n)
        cells = list(map(g.geometry.cell, range(g.geometry.vertex_count)))
        seen = set()
        for k in range(12):
            rng = random.Random(1000 * n + k)
            size = rng.choice([0, 1, rng.randrange(len(cells) + 1), len(cells)])
            support = rng.sample(cells, size)
            cut = rng.randrange(size + 1)
            alpha = {v: rng.choice([-2, -1, 1, 2]) for v in support[:cut]}
            beta = {v: rng.choice([-2, -1, 1, 2]) for v in rng.sample(support, size - cut)}
            cert = FarkasCertificate(n=n, c=rng.randrange(-3, 2 * n), alpha=alpha, beta=beta,
                                     gamma=rng.choice([-1, 0, 1, 3]))
            full, sparse = both_paths(g, cert)
            assert sparse == full, k
            if n < 40:
                assert full == oracle_report(cert), k
            seen.add((full[2], bool(full[3])))
        assert (False, True) in seen  # violations are compared, not only their absence

    @pytest.mark.parametrize("n", [5, 6])
    def test_max_lhs_reads_zero_only_from_an_arc_outside_the_candidates(self, n, dg):
        g = dg(n)
        everywhere = {g.geometry.cell(k): -1 for k in range(g.geometry.vertex_count)}
        cert = FarkasCertificate(n=n, c=0, alpha=everywhere, beta={}, gamma=0)
        assert _candidates(g, cert) == list(range(len(g.w)))  # every arc enters some alpha cell
        assert [r[1] for r in both_paths(g, cert)] == [-1, -1]
        corner = FarkasCertificate(n=n, c=0, alpha={Cell(0, 0): -1}, beta={}, gamma=0)
        assert len(_candidates(g, corner)) < len(g.w)
        assert [r[1] for r in both_paths(g, corner)] == [0, 0]

    def test_the_rule_reads_candidates_on_t1_from_n_38(self, monkeypatch, dg):
        calls = []
        monkeypatch.setattr(certificates, "_candidates", lambda g, cert: calls.append(g.n) or _candidates(g, cert))
        for n in range(4, 103):
            if n % 8 in (4, 6):
                verify_certificate(dg(n), build_t1(n) if n % 8 == 6 else build_t2(n))
        assert calls == list(range(38, 103, 8))

    def test_without_the_layout_fact_the_full_scan_runs(self, monkeypatch, dg):
        g, cert = dg(102), build_t1(102)
        h = g.geometry.index(next(iter(cert.alpha)))
        last = g.geometry.vertex_count - 1
        copies = {
            "replaced": dataclasses.replace(g),
            "by hand": WhirlDigraph(g.n, g.tail, g.head, g.w),
            # one more arc, last in tail order, from the last cell into an alpha cell: no knight step
            "extra arc": WhirlDigraph(g.n, (*g.tail, last), (*g.head, h), (*g.w, 0)),
        }
        calls = []
        monkeypatch.setattr(certificates, "_candidates", lambda g, cert: calls.append(g) or _candidates(g, cert))
        assert g.knight_runs and verify_certificate(g, cert).valid and calls == [g]
        for name, copy in copies.items():
            assert not copy.knight_runs, name
            report = verify_certificate(copy, cert)
            assert (report.rhs, report.max_lhs, report.valid, list(report.violations)) == plain_report(copy, cert), name
        assert calls == [g]
        assert not verify_certificate(copies["extra arc"], cert).valid
        assert both_paths(copies["extra arc"], cert)[1][2]  # the candidates alone miss the extra arc


class TestT1Family:
    def test_n6_supports(self):
        cert = build_t1(6)
        assert cert.alpha == {Cell(0, 2): 1, Cell(1, 2): 1}  # N_in
        assert cert.beta == {Cell(0, 3): 1, Cell(1, 3): 1}  # N_out

    def test_n14_support_rows_and_columns(self):
        cert = build_t1(14)
        assert {c.i for c in cert.alpha} == {c.i for c in cert.beta} == {0, 1, 4, 5}
        assert {c.j for c in cert.alpha} == {6}
        assert {c.j for c in cert.beta} == {7}

    @pytest.mark.parametrize("n", T1_SIZES)
    def test_support_sizes(self, n):
        cert = build_t1(n)
        assert len(cert.alpha) == len(cert.beta) == (n + 2) // 4
        assert set(cert.alpha.values()) == set(cert.beta.values()) == {1}

    @pytest.mark.parametrize("n", T1_SIZES)
    def test_valid_with_rhs_exactly_one(self, n, dg):
        report = verify_certificate(dg(n), build_t1(n))
        assert report.valid and report.rhs == 1

    @pytest.mark.parametrize("n", T1_SIZES)
    def test_tight_some_arc_attains_zero(self, n, dg):
        assert verify_certificate(dg(n), build_t1(n)).max_lhs == 0

    @pytest.mark.parametrize("n", T1_SIZES)
    def test_counting_identity(self, n):
        cert = build_t1(n)
        assert cert.sum_alpha() + cert.sum_beta() - cert.c == 1

    @pytest.mark.parametrize("n", [4, 8, 12, 5, 7])
    def test_wrong_residue_rejected(self, n):
        with pytest.raises(ValueError):
            build_t1(n)

    @pytest.mark.parametrize("n", T1_SIZES)
    def test_block_arc_exclusion(self, n, dg):
        cert = build_t1(n)
        for a in dg(n).arcs:
            assert not (a.tail in cert.beta and a.head in cert.alpha)


class TestT2Family:
    def test_n4_exact_entries(self):
        cert = build_t2(4)
        assert cert.alpha == {Cell(0, 1): 1, Cell(0, 2): -1}
        assert cert.beta == {Cell(0, 2): 1, Cell(0, 3): 1, Cell(1, 2): 1}
        assert cert.gamma == -1 and cert.c == 2

    def test_n12_triangle_size(self):
        assert sum(parity_census(12)) == 21  # h(h+1)/2 at h=6

    @pytest.mark.parametrize("n", T2_SIZES)
    def test_triangle_split_by_parity(self, n):
        # Even triangle cells carry alpha = -1; odd ones beta = +1 (blocks aside).
        h = n // 2
        tri = {Cell(i, j) for i in range(h) for j in range(h, n) if i + j <= n - 1}
        cert = build_t2(n)
        blocks = {Cell(r, j) for r in range(0, h, 4) for j in (h - 1, h)}
        even = {c for c, x in cert.alpha.items() if x == -1}
        odd = {c for c in cert.beta if c not in blocks}
        assert even == {c for c in tri if (c.i + c.j) % 2 == 0}
        assert odd == {c for c in tri if (c.i + c.j) % 2 == 1}
        assert (len(even), len(odd)) == parity_census(n)

    def test_n12_block_rows(self):
        assert {c.i for c, x in build_t2(12).alpha.items() if x == 1} == {0, 4}

    def test_block_cells(self):
        # (r, h-1) carries alpha = +1; (r, h) is the one cell with both alpha and beta.
        cert = build_t2(12)
        heads = {c for c, x in cert.alpha.items() if x == 1}
        tails = {c for c in cert.beta if c in cert.alpha}
        assert heads | tails == {Cell(0, 5), Cell(0, 6), Cell(4, 5), Cell(4, 6)}
        assert all(cert.beta[c] == 1 and cert.alpha[c] == -1 for c in tails)

    def test_shared_cell_keeps_both_fields(self):
        cert = build_t2(4)
        assert cert.alpha[Cell(0, 2)] == -1 and cert.beta[Cell(0, 2)] == 1

    @pytest.mark.parametrize("n", T2_SIZES)
    def test_valid_with_rhs_exactly_one(self, n, dg):
        report = verify_certificate(dg(n), build_t2(n))
        assert report.valid and report.rhs == 1

    @pytest.mark.parametrize("n", T2_SIZES)
    def test_tight_some_arc_attains_zero(self, n, dg):
        assert verify_certificate(dg(n), build_t2(n)).max_lhs == 0

    @pytest.mark.parametrize("n", [6, 8, 16, 3, 9])
    def test_wrong_residue_rejected(self, n):
        with pytest.raises(ValueError):
            build_t2(n)

    @pytest.mark.parametrize("n", T2_SIZES)
    def test_block_arc_exclusion(self, n, dg):
        cert = build_t2(n)
        heads = {c for c, x in cert.alpha.items() if x == 1}  # (r, h-1), r in R
        tails = {c for c in cert.beta if c in cert.alpha}  # (r, h), r in R
        for a in dg(n).arcs:
            assert not (a.tail in tails and a.head in heads)


class TestParityCensus:
    @pytest.mark.parametrize("n,m", [(4, 0), (12, 1), (20, 2), (28, 3)])
    def test_identity(self, n, m):
        even, odd = parity_census(n)
        assert odd - even == 2 * m + 1

    def test_n20_against_row_strip_oracle(self):
        # Row i of the triangle is a strip of length h - i starting at
        # column h; count parities per strip directly.
        n, h = 20, 10
        even = odd = 0
        for i in range(h):
            for j in range(h, h + (h - i)):
                if (i + j) % 2 == 0:
                    even += 1
                else:
                    odd += 1
        assert parity_census(20) == (even, odd)

    def test_wrong_residue(self):
        with pytest.raises(ValueError):
            parity_census(6)


class TestSizeLimit:
    def test_triangle_families_reject_n_above_the_limit_before_the_walk(self, monkeypatch):
        # A limit of 11 makes n = 12 too large, so the check runs on a small board.
        monkeypatch.setattr("whirlknight.geometry._MAX_SIDE", 11)
        assert build_t1(14).n == 14  # O(n), so t1 has no limit

        def refuse(*cell):
            raise AssertionError(f"walked the triangle at {cell}")

        monkeypatch.setattr("whirlknight.certificates.Cell", refuse)
        for family in (build_t2, parity_census):
            with pytest.raises(ValueError, match=r"^board side must be at most 11, got 12$"):
                family(12)


class TestN3Certificate:
    def test_valid_against_digraph(self, dg):
        report = verify_certificate(dg(3), build_n3_certificate())
        assert report.valid

    def test_rhs_arithmetic(self):
        cert = build_n3_certificate()
        assert cert.sum_alpha() + cert.sum_beta() + cert.c * cert.gamma == 1

    def test_same_multipliers_fail_at_c3(self, dg):
        cert = dataclasses.replace(build_n3_certificate(), c=3)
        report = verify_certificate(dg(3), cert)
        assert not report.valid and report.rhs == 0


def _uncrossed(g, a):
    """A copy of g whose arc a has crossing weight 0."""
    return dataclasses.replace(g, w=g.w[:a] + (0,) + g.w[a + 1:])


class TestT1FactsBroken:
    """Each of the paper's facts (a)-(c) broken on one arc of the n = 14 digraph.

    t1's LHS on an arc is [head in N_in] + [tail in N_out] - w, so the
    verifier must report exactly the broken arc, with LHS 1.
    """

    def test_fact_a_arc_into_n_in_does_not_cross(self, dg):
        g, n_in = dg(14), build_t1(14).alpha
        a = next(a for a, h in enumerate(g.head) if g.vertices[h] in n_in)
        broken = _uncrossed(g, a)
        assert verify_certificate(broken, build_t1(14)).violations == ((broken.arc(a), 1),)

    def test_fact_b_arc_out_of_n_out_does_not_cross(self, dg):
        g, n_out = dg(14), build_t1(14).beta
        a = next(a for a, t in enumerate(g.tail) if g.vertices[t] in n_out)
        broken = _uncrossed(g, a)
        assert verify_certificate(broken, build_t1(14)).violations == ((broken.arc(a), 1),)

    def test_fact_c_arc_from_n_out_to_n_in(self, dg):
        g, t1 = dg(14), build_t1(14)
        t, h, a = g.geometry.index(min(t1.beta)), g.geometry.index(min(t1.alpha)), len(g.tail)
        broken = WhirlDigraph(n=14, tail=g.tail + (t,), head=g.head + (h,), w=g.w + (1,))
        assert verify_certificate(broken, t1).violations == ((broken.arc(a), 1),)
        # The appended arc's tail comes early in tail order; derived adjacency still lists it last.
        assert broken.out_adj[t] == g.out_adj[t] + (a,)
        assert broken.in_adj[h] == g.in_adj[h] + (a,)


class TestSoundness:
    @pytest.mark.parametrize("n", [4, 6, 12, 14])
    def test_valid_certificate_implies_lp_infeasible(self, n, dg):
        cert = build_t1(n) if n % 8 == 6 else build_t2(n)
        assert verify_certificate(dg(n), cert).valid
        assert not lp_feasible(dg(n), n // 2).feasible


class TestSerialization:
    @pytest.mark.parametrize(
        "cert", [build_t1(6), build_t1(14), build_t2(4), build_t2(12), build_n3_certificate()]
    )
    def test_round_trip(self, cert):
        text = certificate_to_json(cert)
        back = certificate_from_json(text)
        assert back == cert
        assert certificate_to_json(back) == text

    def test_entries_sorted_row_major(self):
        text = certificate_to_json(build_t2(12))
        doc = json.loads(text)
        assert doc["alpha"] == sorted(doc["alpha"])
        assert doc["beta"] == sorted(doc["beta"])

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            certificate_from_json('{"n": 4, "c": 2}')

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    def test_rejects_repeated_cell(self, field):
        # A later entry must not silently overwrite an earlier one.
        doc = json.loads(certificate_to_json(build_t1(6)))
        i, j, _ = doc[field][0]
        doc[field].insert(0, [i, j, 7])
        with pytest.raises(ValueError, match="twice"):
            certificate_from_json(json.dumps(doc))

    @pytest.mark.parametrize("bad", [1.9, True, "1"], ids=["float", "bool", "string"])
    def test_rejects_non_integer(self, bad):
        # 1.9, true and "1" all read as 1 through int(), i.e. as the valid t1.
        doc = json.loads(certificate_to_json(build_t1(6)))
        assert doc["alpha"][0][2] == 1
        doc["alpha"][0][2] = bad
        with pytest.raises(ValueError, match="integer"):
            certificate_from_json(json.dumps(doc))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=3))
    def test_round_trip_t2_any_m(self, m):
        cert = build_t2(8 * m + 4)
        assert certificate_from_json(certificate_to_json(cert)) == cert


class TestGoldenFamilies:
    # sha256 over certificate_to_json(build_<family>(n)) for every n <= 200 in a
    # family's class (t2: n mod 8 = 4, t1: n mod 8 = 6), in increasing n.
    GOLDEN = "3da591d947986d62062532a9aef483c309899fd61b706516bca98798b6ebff90"

    def test_json_matches_recorded_hash(self):
        digest = hashlib.sha256()
        for n, name in sorted((n, name) for name, r in FAMILIES.items() for n in range(r, 201, 8)):
            digest.update(certificate_to_json(getattr(whirlknight, f"build_{name}")(n)).encode())
        assert digest.hexdigest() == self.GOLDEN


class TestFamilyTable:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_every_family_has_a_builder(self, name):
        assert callable(getattr(whirlknight, f"build_{name}"))

    def test_a_family_is_one_entry_and_one_builder(self, tmp_path):
        # A copy of the package with family zz added by those two edits alone: the CLI
        # takes --family zz and the package exports build_zz.
        package = tmp_path / "whirlknight"
        shutil.copytree(Path(whirlknight.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
        init, certificates = package / "__init__.py", package / "certificates.py"
        table = 'FAMILIES = {"t1": 6, "t2": 4}'
        assert table in init.read_text()
        init.write_text(init.read_text().replace(table, 'FAMILIES = {"t1": 6, "t2": 4, "zz": 4}'))
        certificates.write_text(certificates.read_text() + "\n\ndef build_zz(n):\n    return build_t2(n)\n")

        def run(*argv):
            return subprocess.run([sys.executable, "-B", *argv], env=dict(os.environ, PYTHONPATH=str(tmp_path)),
                                  capture_output=True, text=True, timeout=120)

        verify = run("-m", "whirlknight.cli", "cert", "verify", "--family", "zz", "--n", "12")
        assert verify.returncode == 0, verify.stderr
        assert verify.stdout == "valid=true rhs=1 max_lhs=0 violations=0\n"
        built = run("-c", "import whirlknight; assert whirlknight.build_zz(12).c == 6")
        assert built.returncode == 0, built.stderr

    @pytest.mark.parametrize("build,n,message", [
        (build_t1, 12, "expected n = 6 (mod 8) with n >= 6, got 12"),
        (build_t2, 6, "expected n = 4 (mod 8) with n >= 4, got 6"),
        (parity_census, 6, "expected n = 4 (mod 8) with n >= 4, got 6"),
    ])
    def test_residue_message(self, build, n, message):
        with pytest.raises(ValueError) as exc:
            build(n)
        assert str(exc.value) == message
