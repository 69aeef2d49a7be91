import hashlib
from dataclasses import replace

import pytest

from whirlknight import (
    Cell,
    Tour,
    build_n3_certificate,
    build_t1,
    build_t2,
    coil_interval,
    search_tour,
)
from whirlknight.render import (
    RenderSpec,
    board_spec,
    certificate_spec,
    digraph_spec,
    render,
    tour_spec,
)


class TestDeterminism:
    def test_ascii_byte_stable(self, dg):
        spec = digraph_spec(dg(6), "ascii")
        assert render(spec) == render(spec)

    def test_svg_byte_stable(self):
        spec = certificate_spec(build_t1(14), "svg")
        assert render(spec) == render(spec)

    def test_tour_render_stable(self, dg):
        g = dg(6)
        tour = search_tour(g, budget=200_000)
        spec = tour_spec(g, tour, "svg")
        assert render(spec) == render(spec)


class TestBoard:
    def test_empty_n4_grid_with_pivot(self):
        out = render(board_spec(4, "ascii"))
        lines = out.splitlines()
        assert len(lines) == 5  # 4 rows plus the pivot marker line
        assert lines[0] == ". .|. ."
        assert lines[2].strip() == "+"

    def test_empty_n4_svg_pivot_centred(self):
        out = render(board_spec(4, "svg"))
        # pivot at (1.5, 1.5) cells = margin + 1.5 * 40 + 20 = 100 px
        assert '<circle cx="100" cy="100" r="5"' in out
        assert "stroke-dasharray" in out

    def test_odd_board_marks_centre(self):
        out = render(board_spec(3, "ascii"))
        assert "#" in out.splitlines()[1]


class TestCertificates:
    def test_t1_n14_two_blocks_flanking_pivot(self):
        out = render(certificate_spec(build_t1(14), "ascii"))
        lines = out.splitlines()
        # rows 0,1,4,5 carry A in column 6 and B in column 7; row 2 carries neither
        for i in (0, 1, 4, 5):
            tokens = lines[i].replace("|", " ").split()
            assert tokens[6] == "A."
            assert tokens[7] == ".B"
        assert "A" not in lines[2] and "B" not in lines[2]

    def test_t1_n14_svg_support_cells(self):
        out = render(certificate_spec(build_t1(14), "svg"))
        # alpha fill for (0, 6): x = 20 + 6*40 = 260, y = 20
        assert '<rect x="260" y="20" width="40" height="40" fill="#1f5fa8"/>' in out
        # beta inset for (5, 7): x = 20 + 7*40 + 4 = 304, y = 20 + 5*40 + 4 = 224
        assert '<rect x="304" y="224"' in out

    def test_t2_n12_alpha_triangle_and_blocks(self):
        out = render(certificate_spec(build_t2(12), "ascii"))
        lines = out.splitlines()
        row0 = lines[0].replace("|", " ").split()
        row4 = lines[4].replace("|", " ").split()
        # dark-alpha block cells in column h-1 = 5 at rows 0 and 4
        assert row0[5].startswith("A")
        assert row4[5].startswith("A")
        # triangle even cells carry lowercase a (alpha = -1), e.g. (0, 6)
        assert row0[6].startswith("a")

    def test_n3_certificate_column(self):
        out = render(certificate_spec(build_n3_certificate(), "ascii"))
        lines = out.splitlines()
        assert all(lines[i].replace("|", " ").split()[0] == "A." for i in range(3))


class TestValidationAndErrors:
    def test_off_board_cells_rejected(self):
        spec = RenderSpec(n=4, cert=({Cell(4, 0): 1}, {}))
        with pytest.raises(ValueError):
            render(spec)

    def test_off_board_arc_rejected(self):
        spec = RenderSpec(n=4, arcs=((Cell(0, 0), Cell(-1, 2), 0),))
        with pytest.raises(ValueError):
            render(spec)

    @pytest.mark.parametrize("fmt", ["ascii", "svg"])
    @pytest.mark.parametrize("spec", [
        RenderSpec(4, path=(Cell(0.5, 1),)),
        RenderSpec(5, cert=({Cell(2, 2): 1}, {})),
        RenderSpec(5, arcs=((Cell(0, 1), Cell(2, 2), 0),)),
        RenderSpec(4, path=(5,)),
        RenderSpec(4, cert=({(0, 0, 1): 1}, {})),
    ], ids=["fractional-path-cell", "alpha-at-odd-centre", "arc-into-odd-centre",
            "int-path-cell", "three-coordinate-alpha-cell"])
    def test_non_vertex_cells_rejected(self, spec, fmt):
        with pytest.raises(ValueError, match="is not a vertex"):
            render(replace(spec, format=fmt))

    @pytest.mark.parametrize("fmt", ["ascii", "svg"])
    def test_plain_tuple_cells_draw_as_cells(self, fmt, dg):
        cert = build_t2(12)
        plain = replace(cert, alpha={tuple(c): x for c, x in cert.alpha.items()},
                        beta={tuple(c): x for c, x in cert.beta.items()})
        assert render(certificate_spec(plain, fmt)) == render(certificate_spec(cert, fmt))
        spec = tour_spec(dg(6), search_tour(dg(6), budget=200_000), fmt)
        plain = replace(spec, arcs=tuple((tuple(t), tuple(h), w) for t, h, w in spec.arcs),
                        path=tuple(map(tuple, spec.path)))
        assert render(plain) == render(spec)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render(RenderSpec(n=4, format="png"))


class TestDigraphAndTourViews:
    def test_digraph_ascii_shows_out_degrees(self, dg):
        out = render(digraph_spec(dg(3), "ascii"))
        lines = out.splitlines()
        assert lines[0].split("|")[0].strip() == "1"  # every n=3 vertex has out-degree 1
        assert "#" in lines[1]

    def test_tour_ascii_numbers_every_cell(self, dg):
        g = dg(3)
        tour = search_tour(g, budget=100)
        out = render(tour_spec(g, tour, "ascii"))
        numbers = {tok for tok in out.replace("|", " ").split() if tok.strip(".#")}
        assert {str(k).rjust(2).strip() for k in range(8)} <= {n.strip() for n in numbers}

    def test_tour_svg_has_crossing_arcs_in_red(self, dg):
        g = dg(3)
        tour = search_tour(g, budget=100)
        out = render(tour_spec(g, tour, "svg"))
        assert out.count('stroke="#cc2222"') == 3  # coil 3
        assert out.count('stroke="#222222"') == 5

    def test_tour_of_another_digraph_rejected(self, dg):
        t6 = search_tour(dg(6), coil_target=5, budget=100_000)
        with pytest.raises(ValueError, match="^not Hamiltonian"):
            tour_spec(dg(8), t6)
        reversed_t3 = Tour(tuple(reversed(search_tour(dg(3), budget=100).cells)), 3)
        with pytest.raises(ValueError, match="not an arc"):
            tour_spec(dg(3), reversed_t3)

    def test_digraph_svg_arrow_markers(self, dg):
        out = render(digraph_spec(dg(4), "svg"))
        assert out.count("marker-end") == 24  # one per arc


class TestGoldenBytes:
    # sha256 over the ASCII then SVG output of each spec below, in order.
    GOLDEN = "fcac26e1e75c8c890c0565828d45afee9ca5831e9e576f875c65e705fc3e4a8f"

    def test_output_matches_recorded_hash(self, dg):
        specs = []
        for n in range(3, 15):  # odd boards included
            specs += [board_spec(n), digraph_spec(dg(n))]
        certs = (build_t1(14), build_t2(12), build_n3_certificate(), coil_interval(dg(6)).below)
        specs += [certificate_spec(cert) for cert in certs]
        specs += [tour_spec(dg(n), search_tour(dg(n), budget=200_000)) for n in (3, 6)]
        digest = hashlib.sha256()
        for spec in specs:
            for fmt in ("ascii", "svg"):
                digest.update(render(replace(spec, format=fmt)).encode())
        assert digest.hexdigest() == self.GOLDEN
