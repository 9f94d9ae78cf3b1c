"""Metric, region, and symmetry primitives."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxicassini.core import (
    GeometryError,
    Point,
    PointGroup,
    RegionId,
    distance_product,
    distance_products,
    foci_frame,
    midpoint,
    standardize,
    taxicab_distance,
)
from references import classify_region, closer_to, placed

# Dyadic rationals keep every sum, difference, and halving exact in floats,
# so the property tests can assert equality without tolerances.
dyadic = st.integers(-320, 320).map(lambda k: k / 16.0)
dyadic_points = st.builds(Point, dyadic, dyadic)
# Zeros of both signs, the least subnormals and small integers.
tiny = st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 2.0, -2.0))
tiny_points = st.builds(Point, tiny, tiny)
# Plain floats of the campaigns' range, and signed magnitudes 1e-6 .. 1e9 of
# the scale-stress regime.
kernel_coordinate = st.one_of(
    st.floats(-20.0, 20.0),
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from((-1.0, 1.0)), st.floats(-6.0, 9.0)),
)
kernel_points = st.builds(Point, kernel_coordinate, kernel_coordinate)


class TestPoint:
    @pytest.mark.parametrize(
        "x1,x2,text",
        [
            (float("nan"), 0.0, "(nan, 0.0)"),
            (0.0, float("inf"), "(0.0, inf)"),
            (-math.inf, 2, "(-inf, 2)"),
            (1, math.nan, "(1, nan)"),
        ],
    )
    def test_rejects_non_finite(self, x1, x2, text):
        with pytest.raises(GeometryError) as info:
            Point(x1, x2)
        assert str(info.value) == f"coordinates must be finite, got {text}"

    @pytest.mark.parametrize("name", ["x1", "x2", "x3"])
    def test_frozen(self, name):
        p = Point(1.0, 2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, 3.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(p, name)
        assert p == Point(1.0, 2.0)

    def test_equality_and_hash_by_value(self):
        assert Point(1.0, 2.0) == Point(1.0, 2.0)
        assert hash(Point(1.0, 2.0)) == hash(Point(1.0, 2.0))
        assert len({Point(1.0, 2.0), Point(1.0, 2.0), Point(1, 2)}) == 1
        assert Point(1.0, 2.0) != Point(2.0, 1.0)
        assert Point(1.0, 2.0) != (1.0, 2.0)

    def test_repr(self):
        assert repr(Point(1.5, -2.0)) == "Point(x1=1.5, x2=-2.0)"
        assert repr(Point(0.1, 1e-300)) == "Point(x1=0.1, x2=1e-300)"

    def test_int_arguments_are_kept(self):
        p = Point(4, -1)
        assert (p.x1, p.x2) == (4, -1)
        assert type(p.x1) is int
        assert repr(p) == "Point(x1=4, x2=-1)"

    def test_copies_round_trip(self):
        p = Point(1.5, -2.0)
        assert dataclasses.replace(p, x2=3) == Point(1.5, 3)
        with pytest.raises(GeometryError):
            dataclasses.replace(p, x1=math.inf)
        assert copy.deepcopy(p) == p
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            q = pickle.loads(pickle.dumps(p, protocol))
            assert type(q) is Point and repr(q) == repr(p)

    def test_iteration_and_coord(self):
        p = Point(3.0, -4.0)
        assert tuple(p) == (3.0, -4.0)
        assert p.coord(1) == 3.0
        assert p.coord(2) == -4.0
        for axis in (0, 3, -1, 1.5):
            with pytest.raises(GeometryError, match="axis must be 1 or 2"):
                p.coord(axis)


class TestDistance:
    def test_known_value(self):
        assert taxicab_distance(Point(8, 3), Point(-8, -3)) == 22.0

    def test_zero_iff_equal(self):
        assert taxicab_distance(Point(1.5, -2.0), Point(1.5, -2.0)) == 0.0
        assert taxicab_distance(Point(1.5, -2.0), Point(1.5, -1.0)) == 1.0

    @given(dyadic_points, dyadic_points)
    def test_symmetry(self, a, b):
        assert taxicab_distance(a, b) == taxicab_distance(b, a)

    @given(dyadic_points, dyadic_points, dyadic_points)
    def test_triangle_inequality(self, a, b, c):
        assert taxicab_distance(a, c) <= taxicab_distance(a, b) + taxicab_distance(b, c)

    @given(dyadic_points, dyadic_points, dyadic_points)
    def test_translation_invariance(self, a, b, t):
        shifted = taxicab_distance(
            Point(a.x1 + t.x1, a.x2 + t.x2), Point(b.x1 + t.x1, b.x2 + t.x2)
        )
        assert shifted == taxicab_distance(a, b)


class TestDistanceProduct:
    def test_known_value(self):
        assert distance_product(Point(4, 1), Point(-4, -1), 0.0, 0.0) == 25.0
        assert distance_product(Point(4, 1), Point(-4, -1), 4.0, 1.0) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        kernel_points,
        kernel_points,
        st.lists(st.tuples(kernel_coordinate, kernel_coordinate), min_size=1, max_size=30),
    )
    def test_array_equals_scalar(self, a, b, coords):
        # One kernel serves scalar and array callers, so each element of an
        # array call must be the scalar call on that element's floats, in
        # the elementwise and in the broadcast row-by-column layout.
        x1 = np.array([c[0] for c in coords])
        x2 = np.array([c[1] for c in coords])
        elementwise = distance_product(a, b, x1, x2)
        table = distance_product(a, b, x1, x2[:, None])
        for k in range(x1.size):
            scalar = distance_product(a, b, float(x1[k]), float(x2[k]))
            assert isinstance(scalar, float)
            assert repr(float(elementwise[k])) == repr(scalar)
            for j in range(x2.size):
                expected = distance_product(a, b, float(x1[k]), float(x2[j]))
                assert repr(float(table[j, k])) == repr(expected)

    @given(dyadic_points, dyadic_points, dyadic_points)
    def test_matches_taxicab_distances(self, a, b, x):
        assert distance_product(a, b, x.x1, x.x2) == taxicab_distance(x, a) * taxicab_distance(x, b)


def _bits(value) -> list[str]:
    return [repr(float(v)) for v in np.ravel(value)]


class TestDistanceProducts:
    # Pairs drawn from a few foci, so foci repeat within and across pairs;
    # equal-valued foci built separately are shared too.
    pairs_of_foci = st.lists(kernel_points, min_size=1, max_size=4).flatmap(
        lambda foci: st.lists(
            st.tuples(st.sampled_from(foci), st.sampled_from(foci)).map(
                lambda ab: (ab[0], Point(ab[1].x1, ab[1].x2))
            ),
            min_size=1,
            max_size=8,
        )
    )

    @settings(max_examples=200, deadline=None)
    @given(pairs_of_foci, kernel_coordinate, kernel_coordinate)
    def test_python_floats_equal_single_pair_calls(self, pairs, x1, x2):
        products = distance_products(pairs, x1, x2)
        assert len(products) == len(pairs)
        for (a, b), product in zip(pairs, products):
            single = distance_product(a, b, x1, x2)
            assert isinstance(product, float)
            assert repr(product) == repr(single)

    @settings(max_examples=200, deadline=None)
    @given(
        pairs_of_foci,
        st.lists(st.tuples(kernel_coordinate, kernel_coordinate), min_size=1, max_size=20),
    )
    def test_arrays_equal_single_pair_calls(self, pairs, coords):
        # Elementwise columns, and the grid layout: a row of x1 against a
        # column of x2.
        x1 = np.array([c[0] for c in coords])
        x2 = np.array([c[1] for c in coords])
        for c1, c2 in ((x1, x2), (x1, x2[:, None]), (x1[:3], x2[:, None])):
            products = distance_products(pairs, c1, c2)
            for (a, b), product in zip(pairs, products):
                single = distance_product(a, b, c1, c2)
                assert product.shape == single.shape == np.broadcast(c1, c2).shape
                assert _bits(product) == _bits(single)

    def test_each_distinct_focus_computed_once(self):
        class CountingAxis(float):
            subtractions = 0

            def __sub__(self, other):
                CountingAxis.subtractions += 1
                return float(self) - other

        p, q, g_plus, g_minus = Point(4, 1), Point(-4, -1), Point(-1, -4), Point(1, 4)
        pairs = [(p, q), (p, g_plus), (p, g_minus), (q, g_plus), (q, g_minus), (g_plus, g_minus)]
        products = distance_products(pairs, CountingAxis(0.5), 0.25)
        assert CountingAxis.subtractions == 4
        assert products == [distance_product(a, b, 0.5, 0.25) for a, b in pairs]


class TestSignsAndHalfPlanes:
    def test_closer_to_tie_is_inclusive(self):
        a, b = Point(1, 0), Point(-1, 0)
        assert closer_to(a, b, Point(0, 0))
        assert closer_to(b, a, Point(0, 0))

    @given(dyadic_points, dyadic_points, dyadic_points)
    def test_closer_to_matches_distances(self, a, b, x):
        assert closer_to(a, b, x) == (taxicab_distance(x, a) <= taxicab_distance(x, b))


class TestFociFrame:
    def test_centered_instance(self):
        frame = foci_frame(Point(4, 1), Point(-4, -1))
        assert frame.c1 == Point(4, -1)
        assert frame.c2 == Point(-4, 1)
        assert frame.g_plus == Point(-1, -4)
        assert frame.g_minus == Point(1, 4)

    def test_wide_instance(self):
        frame = foci_frame(Point(8, 3), Point(-8, -3))
        assert frame.g_plus == Point(-3, -8)
        assert frame.g_minus == Point(3, 8)

    def test_offset_instance(self):
        frame = foci_frame(Point(1, 2), Point(4, 3))
        assert frame.g_plus == Point(3, 4)
        assert frame.g_minus == Point(2, 1)
        assert frame.c1 == Point(1, 3)
        assert frame.c2 == Point(4, 2)

    @given(dyadic_points, dyadic_points)
    def test_guide_complements_lie_on_guide_lines(self, p, q):
        frame = foci_frame(p, q)
        # g+ is on the slope +1 line through p and the slope -1 line through q.
        assert frame.g_plus.x1 - p.x1 == frame.g_plus.x2 - p.x2
        assert frame.g_plus.x1 - q.x1 == -(frame.g_plus.x2 - q.x2)
        assert frame.g_minus.x1 - p.x1 == -(frame.g_minus.x2 - p.x2)
        assert frame.g_minus.x1 - q.x1 == frame.g_minus.x2 - q.x2


class TestClassifyRegion:
    foci = Point(4, 1), Point(-4, -1)

    @pytest.mark.parametrize(
        "x,region",
        [
            (Point(10, 10), RegionId.QUADRANT_P),
            (Point(10, 0), RegionId.STRIP_P_C1),
            (Point(10, -10), RegionId.QUADRANT_C1),
            (Point(0, 10), RegionId.STRIP_P_C2),
            (Point(0, 0), RegionId.CENTRAL_RECTANGLE),
            (Point(0, -10), RegionId.STRIP_Q_C1),
            (Point(-10, 10), RegionId.QUADRANT_C2),
            (Point(-10, 0), RegionId.STRIP_Q_C2),
            (Point(-10, -10), RegionId.QUADRANT_Q),
        ],
    )
    def test_interior_points_get_one_region(self, x, region):
        assert classify_region(*self.foci, x) == frozenset({region})

    def test_focus_is_a_four_corner(self):
        regions = classify_region(*self.foci, Point(4, 1))
        assert regions == frozenset(
            {
                RegionId.QUADRANT_P,
                RegionId.STRIP_P_C1,
                RegionId.STRIP_P_C2,
                RegionId.CENTRAL_RECTANGLE,
            }
        )

    def test_collapsed_frame_keeps_identities(self):
        regions = classify_region(Point(5, 0), Point(-5, 0), Point(0, 0))
        assert regions == frozenset(
            {
                RegionId.STRIP_P_C2,
                RegionId.CENTRAL_RECTANGLE,
                RegionId.STRIP_Q_C1,
            }
        )

    @given(dyadic_points, dyadic_points, dyadic_points)
    def test_every_point_is_covered(self, p, q, x):
        assert classify_region(p, q, x)


class TestPointGroup:
    def test_basis_images(self):
        images = {g: (g.apply(1.0, 0.0), g.apply(0.0, 1.0)) for g in PointGroup}
        assert images[PointGroup.IDENTITY] == ((1, 0), (0, 1))
        assert images[PointGroup.ROT90] == ((0, 1), (-1, 0))
        assert images[PointGroup.ROT180] == ((-1, 0), (0, -1))
        assert images[PointGroup.ROT270] == ((0, -1), (1, 0))
        assert images[PointGroup.FLIP_X1] == ((-1, 0), (0, 1))
        assert images[PointGroup.FLIP_X2] == ((1, 0), (0, -1))
        assert images[PointGroup.FLIP_DIAG] == ((0, 1), (1, 0))
        assert images[PointGroup.FLIP_ANTIDIAG] == ((0, -1), (-1, 0))

    def test_inverse(self):
        # Brute force: the inverse is the one element that undoes g on both
        # basis vectors, which pin down a signed permutation.
        basis = [(1.0, 0.0), (0.0, 1.0)]
        for g in PointGroup:
            undo = [h for h in PointGroup if all(h.apply(*g.apply(*e)) == e for e in basis)]
            assert undo == [g.inverse()]

    def test_determinant(self):
        # The sign of the 2x2 matrix whose columns are the basis images.
        for g in PointGroup:
            (a11, a21), (a12, a22) = g.apply(1.0, 0.0), g.apply(0.0, 1.0)
            assert g.determinant == a11 * a22 - a12 * a21
        assert {g for g in PointGroup if g.determinant == 1} == {
            PointGroup.IDENTITY,
            PointGroup.ROT90,
            PointGroup.ROT180,
            PointGroup.ROT270,
        }

    def test_rotation_order(self):
        def power(k, x):
            for _ in range(k):
                x = PointGroup.ROT90.apply(*x)
            return x

        for x in [(1.0, 0.0), (0.0, 1.0), (2.5, -3.25)]:
            assert power(2, x) == PointGroup.ROT180.apply(*x)
            assert power(3, x) == PointGroup.ROT270.apply(*x)
            assert power(4, x) == x

    @given(dyadic_points)
    def test_elements_preserve_distance(self, x):
        origin = Point(0.0, 0.0)
        for g in PointGroup:
            y = Point(*g.apply(x.x1, x.x2))
            assert taxicab_distance(y, origin) == taxicab_distance(x, origin)


class TestMidpoint:
    def test_halves_the_sum(self):
        # (p + q) / 2, not p / 2 + q / 2: a halved least subnormal rounds
        # to zero.
        assert repr(midpoint(Point(5e-324, 1.0), Point(5e-324, 2.0))) == repr(Point(5e-324, 1.5))


class TestStandardize:
    # standardize returns the element G and the standard focus p'; a
    # standard-frame point x is placed in the input frame at G^-1(x) + m,
    # m the midpoint, which the references write from G's value alone.

    def test_known_pair(self):
        element, p_std = standardize(Point(1, 2), Point(3, 4))
        assert element is PointGroup.ROT180
        assert p_std == Point(1, 1)
        assert placed(element.inverse(), Point(2, 3), p_std) == Point(1, 2)
        assert placed(element.inverse(), Point(2, 3), Point(-1, -1)) == Point(3, 4)

    def test_already_standard_gets_identity(self):
        element, p_std = standardize(Point(4, 1), Point(-4, -1))
        assert element is PointGroup.IDENTITY
        assert p_std == Point(4, 1)

    def test_coincident_foci(self):
        element, p_std = standardize(Point(2, -7), Point(2, -7))
        assert element is PointGroup.IDENTITY
        assert p_std == Point(0, 0)
        assert placed(element.inverse(), Point(2, -7), p_std) == Point(2, -7)

    @given(tiny_points, tiny_points)
    def test_element_is_the_first_to_put_the_difference_in_the_octant(self, p, q):
        # Not the half-difference: (p - q) / 2 rounds a difference of the
        # least subnormal to a zero, losing its sign and its order.
        def in_octant(u):
            return u[0] >= u[1] >= 0

        first = next(g for g in PointGroup if in_octant(g.apply(p.x1 - q.x1, p.x2 - q.x2)))
        element, p_std = standardize(p, q)
        assert element is first
        assert p_std.x1 >= p_std.x2 >= 0

    @pytest.mark.parametrize(
        "p, q",
        [((-5e-324, 1.0), (-0.0, 1.0)), ((1.0, -5e-324), (1.0, -0.0)), ((0.0, 1.0), (5e-324, 1.0))],
    )
    def test_foci_the_least_subnormal_apart(self, p, q):
        element, _ = standardize(Point(*p), Point(*q))
        u1, u2 = element.apply(p[0] - q[0], p[1] - q[1])
        assert u1 > u2 == 0

    @given(dyadic_points, dyadic_points)
    def test_octant_normal_form(self, p, q):
        # Dyadic sums and halvings are exact, and no coordinate is -0.0, so
        # the standard foci are p - m and q - m mapped by the element, and
        # placing them back gives p and q bit for bit.
        element, p_std = standardize(p, q)
        q_std = Point(-p_std.x1, -p_std.x2)
        m = Point((p.x1 + q.x1) / 2, (p.x2 + q.x2) / 2)
        assert p_std.x1 >= p_std.x2 >= 0
        assert p_std == placed(element, Point(0.0, 0.0), Point(p.x1 - m.x1, p.x2 - m.x2))
        assert q_std == placed(element, Point(0.0, 0.0), Point(q.x1 - m.x1, q.x2 - m.x2))
        back = element.inverse()
        assert repr(placed(back, m, p_std)) == repr(p)
        assert repr(placed(back, m, q_std)) == repr(q)
