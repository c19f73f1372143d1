import ast
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddgon import highprec
from oddgon.shear import (
    LEFT,
    RIGHT,
    build_vertex_guide,
    cylinder_width,
    decompose_cylinders,
    identity_sum,
    side_vertex,
    telescoping_identity,
    verify_reassembly,
)
from oddgon.surface import LOWER, UPPER, build_surface

ODD_NS = list(range(5, 23, 2))
SIDES = [(polygon, side) for polygon in (UPPER, LOWER) for side in (RIGHT, LEFT)]

thetas = st.floats(min_value=0.011, max_value=math.pi - 0.011)
ks = st.integers(min_value=1, max_value=12)


@given(thetas, ks)
@settings(max_examples=300)
def test_telescoping_identity_holds(theta, k):
    lhs, rhs = telescoping_identity(theta, k)
    assert abs(lhs - rhs) < 1e-10


@given(thetas, ks)
@settings(max_examples=300)
def test_identity_sum_holds(theta, k):
    lhs, rhs = identity_sum(theta, k)
    assert abs(lhs - rhs) < 1e-10


def test_identities_agree_with_high_precision_oracle():
    for theta in (0.1, 0.7, 1.3, 2.9):
        for k in (1, 3, 7, 12):
            lhs, rhs = telescoping_identity(theta, k)
            olhs, orhs = highprec.telescoping_sides(theta, k)
            assert abs(lhs - float(olhs)) < 1e-12
            assert abs(rhs - float(orhs)) < 1e-12
            lhs, rhs = identity_sum(theta, k)
            olhs, orhs = highprec.identity_sum_sides(theta, k)
            assert abs(lhs - float(olhs)) < 1e-12
            assert abs(rhs - float(orhs)) < 1e-12


def test_identity_rejects_bad_domain():
    with pytest.raises(ValueError):
        telescoping_identity(0.0, 3)
    with pytest.raises(ValueError):
        telescoping_identity(0.5, 0)
    with pytest.raises(ValueError):
        identity_sum(math.pi, 2)


@pytest.mark.parametrize("n", ODD_NS)
def test_all_cylinders_share_the_modulus(n):
    s = build_surface(n)
    cyls = decompose_cylinders(s)
    assert len(cyls) == (n - 1) // 2
    want = float(highprec.shear_coefficient(n))
    for c in cyls:
        assert abs(c.modulus - want) < 1e-10
        assert c.width > 0 and c.height > 0


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_cylinder_widths_match_band_slices(n):
    s = build_surface(n)
    for c in decompose_cylinders(s):
        assert abs(c.width - cylinder_width(s, c.index)) < 1e-12
        # width is constant across the cylinder, not just at mid-height
        for at in (0.1, 0.5, 0.9):
            assert abs(cylinder_width(s, c.index, at=at) - c.width) < 1e-9


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_cylinder_intervals_tile_the_surface_height(n):
    s = build_surface(n)
    cyls = sorted(decompose_cylinders(s), key=lambda c: c.y_interval[0])
    assert abs(cyls[0].y_interval[0]) < 1e-12
    for a, b in zip(cyls, cyls[1:]):
        assert abs(a.y_interval[1] - b.y_interval[0]) < 1e-12
    assert abs(cyls[-1].y_interval[1] - s.apex()[1]) < 1e-12


@pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
def test_sheared_x_closed_form_routes_agree(n):
    m = (n - 1) // 2
    for polygon, side in SIDES:
        family = f"{polygon}_{side}"  # highprec's name for a side's vertices
        for k in range(m + 1):
            closed = float(highprec.sheared_x_closed_form(family, n, k))
            via_matrix = float(highprec.sheared_x_via_matrix(family, n, k))
            assert abs(closed - via_matrix) < 1e-11


@pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
def test_side_vertices_match_summation_formulas(n):
    s = build_surface(n)
    for polygon, side in SIDES:
        for k in range((n - 1) // 2 + 1):
            got = side_vertex(s, polygon, side, k)
            ox, oy = highprec.vertex(f"{polygon}_{side}", n, k)
            assert abs(got[0] - float(ox)) < 1e-11
            assert abs(got[1] - float(oy)) < 1e-11


@pytest.mark.parametrize("n", ODD_NS)
def test_reassembly(n):
    rep = verify_reassembly(build_surface(n), tol=1e-8)
    assert rep.passed, f"n={n}: residual {rep.max_residual} at {rep.worst}"
    assert rep.y_preserved
    assert rep.max_residual < 1e-8


@pytest.mark.parametrize("n", [5, 9, 13])
def test_guide_marks_every_level_on_both_sides(n):
    guide = build_vertex_guide(build_surface(n))
    m = (n - 1) // 2
    seen = {(p.polygon, p.side, p.level) for p in guide}
    assert len(seen) == len(guide)  # no duplicates
    for polygon in ("upper", "lower"):
        for side in ("left", "right"):
            for level in range(m + 1):
                assert (polygon, side, level) in seen


def test_highprec_imports_only_mpmath():
    # the oracle stays free of float code: no module of the float
    # implementation, and not math, may be imported into it
    tree = ast.parse(Path(highprec.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"__future__", "mpmath"}
