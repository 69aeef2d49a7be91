import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whirlknight import (
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

T1_SIZES = [6, 14, 22, 30]
T2_SIZES = [4, 12, 20, 28]


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
    @pytest.mark.parametrize("n,cell", [(4, Cell(0, 4)), (4, Cell(-1, 0)), (5, Cell(2, 2)), (6, Cell(0.5, 1))])
    def test_non_vertex_support_message(self, n, cell, field, dg):
        support = {"alpha": {}, "beta": {}, field: {cell: 1}}
        with pytest.raises(ValueError, match=rf"^{field} support cell \({cell.i}, {cell.j}\) is not a vertex$"):
            verify_certificate(dg(n), FarkasCertificate(n=n, c=2, gamma=-1, **support))

    def test_finds_all_violations(self, dg):
        g = dg(4)
        # gamma = +1 turns every crossing arc into a violation
        cert = FarkasCertificate(n=4, c=0, alpha={}, beta={}, gamma=1)
        report = verify_certificate(g, cert)
        assert len(report.violations) == sum(g.w)
        assert not report.valid
        ids = [a.id for a, _ in report.violations]
        assert ids == sorted(ids)

    @pytest.mark.parametrize("n", [14, 20])
    def test_reads_only_the_arc_columns(self, n):
        g = build_digraph(n)
        cert = build_t1(n) if n % 8 == 6 else build_t2(n)
        assert verify_certificate(g, cert).valid
        assert verify_certificate(g, dataclasses.replace(cert, gamma=0)).violations
        assert not {"vertices", "out_adj", "in_adj", "arcs"} & vars(g).keys()


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
    # sha256 over certificate_to_json(build_t1 or build_t2(n)) for every n <= 200
    # with n mod 8 in {4, 6}, in increasing n.
    GOLDEN = "3da591d947986d62062532a9aef483c309899fd61b706516bca98798b6ebff90"

    def test_json_matches_recorded_hash(self):
        digest = hashlib.sha256()
        for n in range(4, 201):
            build = {4: build_t2, 6: build_t1}.get(n % 8)
            if build is not None:
                digest.update(certificate_to_json(build(n)).encode())
        assert digest.hexdigest() == self.GOLDEN
