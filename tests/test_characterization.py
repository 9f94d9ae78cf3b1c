"""Filled-set predicates, guide-family identities, boundary witnesses."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taxicassini import characterization
from taxicassini.campaign import (
    CampaignResult,
    random_spec,
    run_identity_campaign,
    run_identity_campaigns,
)
from taxicassini.cassini import CassiniSpec
from taxicassini.characterization import (
    IdentityMode,
    IdentityReport,
    boundary_check,
    grid_points,
    sampling_box,
    verify_identities,
    verify_identity,
)
from taxicassini.core import (
    GeometryError,
    Point,
    distance_product,
    distance_products,
    taxicab_distance,
)

from references import reference_guide_complements

dyadic = st.integers(-320, 320).map(lambda k: k / 16.0)
dyadic_points = st.builds(Point, dyadic, dyadic)
dyadic_radius = st.integers(1, 640).map(lambda k: k / 16.0)
dyadic_specs = st.builds(CassiniSpec, dyadic_points, dyadic_points, dyadic_radius)

SPEC = CassiniSpec(Point(4, 1), Point(-4, -1), 6.0)
# The origin is at taxicab distance 5 from p, q, g+ and g-, so every product
# there equals r^2 = 25: it lies in none of the open sets.
ON_EVERY_SET = (CassiniSpec(Point(4, 1), Point(-4, -1), 5.0), Point(0, 0))


def filled_contains(spec, x):
    """Strict membership in the open filled set L(p, q; r); empty for r = 0."""
    return taxicab_distance(x, spec.p) * taxicab_distance(x, spec.q) < spec.r * spec.r


def family_memberships(spec, x):
    """Memberships in L(p,g+), L(p,g-), L(q,g+) and L(q,g-), in that order,
    with the reference guide complements."""
    return [
        filled_contains(CassiniSpec(focus, complement, spec.r), x)
        for focus in (spec.p, spec.q)
        for complement in reference_guide_complements(spec.p, spec.q)
    ]


# The guide-family combinations, on the memberships pp, pm, qp and qm of one
# point in L(p,g+), L(p,g-), L(q,g+) and L(q,g-).
def union_of_intersections(pp, pm, qp, qm):
    """Membership in [L(p,g+) n L(p,g-)] u [L(q,g+) n L(q,g-)]."""
    return (pp and pm) or (qp and qm)


def intersection_of_unions(pp, pm, qp, qm):
    """Membership in [L(p,g+) u L(q,g+)] n [L(p,g-) u L(q,g-)]."""
    return (pp or qp) and (pm or qm)


def cross_families(pp, pm, qp, qm):
    """Membership in the two cross-pairings of the guide family.

    First component: [L(p,g+) u L(q,g-)] n [L(p,g-) u L(q,g+)], a superset
    of L(p,q;r) equal to L(p,q;r) u L(g+,g-;r).  Second component:
    [L(p,g+) n L(q,g-)] u [L(p,g-) n L(q,g+)], a subset of L(p,q;r) equal
    to L(p,q;r) n L(g+,g-;r).
    """
    return (pp or qm) and (pm or qp), (pp and qm) or (pm and qp)


def violated(in_pq, members, in_gg):
    """Whether each mode's identity fails at a point with these memberships
    in L(p,q), the guide family and L(g+,g-): for CROSS_SUBSETS only the two
    subset directions, for the other modes any inequality."""
    first, second = cross_families(*members)
    return {
        IdentityMode.UNION_OF_INTERSECTIONS: union_of_intersections(*members) != in_pq,
        IdentityMode.INTERSECTION_OF_UNIONS: intersection_of_unions(*members) != in_pq,
        IdentityMode.CROSS_SUBSETS: (in_pq and not first) or (second and not in_pq),
        IdentityMode.CROSS_EQUALITIES: first != (in_pq or in_gg) or second != (in_pq and in_gg),
    }


def guide_pair_contains(spec, x):
    """Membership in L(g+, g-; r), built from the reference guide complements."""
    return filled_contains(CassiniSpec(*reference_guide_complements(spec.p, spec.q), spec.r), x)


class TestFilledContains:
    def test_strictness(self):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 5.0)
        # The origin has product exactly r^2 = 25: on the set, not in the
        # open filled region.
        assert not filled_contains(spec, Point(0, 0))
        assert filled_contains(CassiniSpec(Point(4, 1), Point(-4, -1), 6.0), Point(0, 0))

    def test_foci_belong_for_positive_radius(self):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 1.0)
        assert filled_contains(spec, spec.p)
        assert filled_contains(spec, spec.q)


class TestPointwiseIdentities:
    """Each guide-family combination must agree with the filled set at
    every point; dyadic inputs make all products exact so the set
    identities hold at machine level with no tolerance band."""

    @settings(max_examples=300, deadline=None)
    @given(dyadic_specs, dyadic_points)
    @example(*ON_EVERY_SET)
    def test_union_of_intersections(self, spec, x):
        members = family_memberships(spec, x)
        assert union_of_intersections(*members) == filled_contains(spec, x)

    @settings(max_examples=300, deadline=None)
    @given(dyadic_specs, dyadic_points)
    @example(*ON_EVERY_SET)
    def test_intersection_of_unions(self, spec, x):
        members = family_memberships(spec, x)
        assert intersection_of_unions(*members) == filled_contains(spec, x)

    @settings(max_examples=300, deadline=None)
    @given(dyadic_specs, dyadic_points)
    @example(*ON_EVERY_SET)
    def test_cross_family_sandwich_and_equalities(self, spec, x):
        first, second = cross_families(*family_memberships(spec, x))
        in_pq = filled_contains(spec, x)
        # Subset directions: second <= filled <= first.
        assert not (second and not in_pq)
        assert not (in_pq and not first)
        # Exact forms: the slack on either side is the guide-complement set.
        assert first == (in_pq or guide_pair_contains(spec, x))
        assert second == (in_pq and guide_pair_contains(spec, x))

    @settings(max_examples=300, deadline=None)
    @given(dyadic_specs, dyadic_points)
    @example(*ON_EVERY_SET)
    def test_scalar_predicates_match_one_point_sample(self, spec, x):
        # The pointwise references share no code with verify_identities; on
        # a one-point sample each mode counts a mismatch exactly when the
        # references find its identity violated at a counted point.
        expected = violated(
            filled_contains(spec, x), family_memberships(spec, x), guide_pair_contains(spec, x)
        )
        for mode, report in verify_identities(spec, x.x1, x.x2, band=0.0).items():
            assert report.trials == 1
            counted = report.skipped_boundary_band == 0
            assert report.mismatches == int(counted and expected[mode])

    def test_every_membership_pattern(self, monkeypatch):
        # The identities hold at every real point, so real samples cannot
        # tell one mode's combination from another's.  Stand-in products put
        # a one-point sample in each pattern of membership in the six sets,
        # L(p,q), the guide family and L(g+,g-), at least r^2/2 from r^2.
        target = SPEC.r * SPEC.r
        for pattern in itertools.product((False, True), repeat=6):
            products = [np.array([target / 2 if bit else 2 * target]) for bit in pattern]
            monkeypatch.setattr(
                characterization, "distance_products", lambda pairs, x1, x2: products
            )
            in_pq, *members, in_gg = pattern
            expected = violated(in_pq, members, in_gg)
            for mode, report in verify_identities(SPEC, 0.0, 0.0, band=0.0).items():
                assert (report.mismatches, report.skipped_boundary_band) == (int(expected[mode]), 0)


class TestSamplers:
    def test_sampling_box(self):
        center, half = sampling_box(SPEC)
        assert center == Point(0, 0)
        assert half == taxicab_distance(Point(4, 1), Point(-4, -1)) + 6.0 + 1.0

    def test_grid_points_shape_and_corners(self):
        x1, x2 = grid_points(SPEC, 20)
        assert x1.shape == (20,)
        assert x2.shape == (20, 1)
        for axis in (x1, x2):
            assert axis.min() == -17.0
            assert axis.max() == 17.0

    def test_grid_axes_broadcast_to_meshgrid_order(self):
        # Row by row with x1 fastest: the order of the former (n*n, 2) array.
        x1, x2 = grid_points(CassiniSpec(Point(4, 1), Point(-3, 2.5), 2.0), 7)
        mx, my = np.meshgrid(x1, x2.ravel())
        assert np.array_equal(materialise(x1, x2), np.column_stack([mx.ravel(), my.ravel()]))


class TestVerifyIdentity:
    def test_zero_mismatches_on_reference_instances(self):
        for r in (3.0, 5.0, 6.0):
            spec = CassiniSpec(Point(4, 1), Point(-4, -1), r)
            x1, x2 = grid_points(spec, 50)
            for mode in IdentityMode:
                report = verify_identity(spec, mode, x1, x2)
                assert report.mismatches == 0
                assert report.trials == 2500
                assert report.skipped_boundary_band + report.trials >= 2500

    def test_wide_band_skips_everything(self):
        x1, x2 = grid_points(SPEC, 20)
        report = verify_identity(SPEC, IdentityMode.UNION_OF_INTERSECTIONS, x1, x2, band=1e30)
        assert report.mismatches == 0
        assert report.skipped_boundary_band == 400
        assert math.isinf(report.worst_residual)

    @pytest.mark.parametrize("band", [-1e-9, math.nan, math.inf])
    def test_bad_band_rejected(self, band):
        # An infinite band would skip every point and report no mismatch.
        x1, x2 = grid_points(SPEC, 16)
        for mode in IdentityMode:
            with pytest.raises(GeometryError, match="band"):
                verify_identity(SPEC, mode, x1, x2, band=band)

    def test_worst_residual_is_min_counted_margin(self):
        x1, x2 = grid_points(SPEC, 40)
        report = verify_identity(SPEC, IdentityMode.CROSS_EQUALITIES, x1, x2)
        assert report.worst_residual > 1e-9

    @pytest.mark.parametrize("r", [-3.0, 1e200])
    def test_radius_outside_the_spec_domain_never_reaches_a_check(self, monkeypatch, r):
        # Neither radius may reach a check: a negative r would be checked as
        # |r|, and an r whose square overflows would give a nan worst
        # residual.  The spec rejects both before any product is taken.
        calls = []
        monkeypatch.setattr(characterization, "distance_products", calls.append)
        x1, x2 = grid_points(CassiniSpec(Point(1, 0), Point(-1, 0), 1.0), 4)
        with pytest.raises(GeometryError, match="radius"):
            verify_identity(
                CassiniSpec(Point(1e200, 0), Point(-1e200, 0), r),
                IdentityMode.CROSS_SUBSETS,
                x1,
                x2,
            )
        assert calls == []


class TestBoundaryCheck:
    def test_interior_point_has_no_outside_witness(self):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 6.0)
        assert not boundary_check(spec, Point(0, 0))

    def test_far_point_has_no_inside_witness(self):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 6.0)
        assert not boundary_check(spec, Point(50, 50))

    def test_curve_point_passes(self):
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 3.0)
        assert boundary_check(spec, Point(3.5, 0.5))

    def test_pinch_segment_point_passes(self):
        # On the flat segment at the critical radius every nearby
        # non-inside probe lies on the set itself, which must count as an
        # outside witness.
        spec = CassiniSpec(Point(4, 1), Point(-4, -1), 5.0)
        assert boundary_check(spec, Point(0, 0))

    def test_invalid_inputs(self):
        with pytest.raises(GeometryError):
            boundary_check(CassiniSpec(Point(4, 1), Point(-4, -1), 0.0), Point(0, 0))


def materialise(x1, x2):
    """The sample of broadcasting coordinates as an (N, 2) point array."""
    return np.column_stack([axis.ravel() for axis in np.broadcast_arrays(x1, x2)])


def reference_verify_identity(spec, mode, points, band=1e-9):
    """An independent one-mode identity check on an (N, 2) point array: its
    own five or six products from the reference guide complements, the set
    combinations written out, margins over every set the mode involves."""
    if not (math.isfinite(band) and band >= 0):
        raise GeometryError(f"band must be finite and nonnegative, got {band!r}")
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    x1, x2 = pts[:, 0], pts[:, 1]
    p, q = spec.p, spec.q
    g_plus, g_minus = reference_guide_complements(p, q)
    target = spec.r * spec.r
    pairs = [(p, q), (p, g_plus), (p, g_minus), (q, g_plus), (q, g_minus)]
    if mode is IdentityMode.CROSS_EQUALITIES:
        pairs.append((g_plus, g_minus))
    involved = [distance_product(a, b, x1, x2) for a, b in pairs]
    inside = [f < target for f in involved]
    in_pq, pp, pm, qp, qm = inside[:5]
    cross_union = (pp | qm) & (pm | qp)
    cross_intersection = (pp & qm) | (pm & qp)
    if mode is IdentityMode.UNION_OF_INTERSECTIONS:
        bad = in_pq != ((pp & pm) | (qp & qm))
    elif mode is IdentityMode.INTERSECTION_OF_UNIONS:
        bad = in_pq != ((pp | qp) & (pm | qm))
    elif mode is IdentityMode.CROSS_SUBSETS:
        bad = (in_pq & ~cross_union) | (cross_intersection & ~in_pq)
    else:
        in_gg = inside[5]
        bad = (cross_union != (in_pq | in_gg)) | (cross_intersection != (in_pq & in_gg))
    scale = max(1.0, target)
    margins = np.min(np.abs(np.stack(involved) - target), axis=0) / scale
    skipped = margins <= band
    counted = ~skipped
    return IdentityReport(
        trials=pts.shape[0],
        mismatches=int(np.count_nonzero(bad & counted)),
        skipped_boundary_band=int(np.count_nonzero(skipped)),
        worst_residual=float(margins[counted].min()) if counted.any() else math.inf,
    )


def reference_identity_campaign(mode, trials=200, grid_n=100, seed=42, band=1e-9):
    """One campaign per mode, each drawing its own specs and grids."""
    rng = np.random.default_rng(seed)
    mismatches = skipped = points_total = 0
    worst = math.inf
    for _ in range(trials):
        spec = random_spec(rng)
        pts = materialise(*grid_points(spec, grid_n))
        report = reference_verify_identity(spec, mode, pts, band)
        mismatches += report.mismatches
        skipped += report.skipped_boundary_band
        points_total += report.trials
        worst = min(worst, report.worst_residual)
    return CampaignResult(points_total, mismatches, skipped, worst)


# Small coordinates, and signed magnitudes log-uniform over 1e-6..1e9.
scaled = st.builds(
    lambda sign, exponent: sign * 10.0**exponent, st.sampled_from([-1.0, 1.0]), st.floats(-6, 9)
)
coordinates = st.one_of(st.floats(-20, 20), scaled)
spec_points = st.builds(Point, coordinates, coordinates)
radii = st.one_of(st.floats(0, 40), scaled.map(abs))
specs = st.builds(CassiniSpec, spec_points, spec_points, radii)
samples = st.one_of(
    st.tuples(st.just("grid"), st.integers(2, 12)),
    st.tuples(st.just("random"), st.integers(1, 150), st.integers(0, 2**32 - 1)),
)
bands = st.sampled_from([0.0, 1e-9, 1e-4, 1e30])
# Grid property specs: the campaigns' range, exact dyadic inputs, and the
# scale-stress magnitudes.
grid_coordinates = st.one_of(st.floats(-20, 20), dyadic, scaled)
grid_spec_points = st.builds(Point, grid_coordinates, grid_coordinates)
grid_radii = st.one_of(st.floats(0, 40), dyadic_radius, scaled.map(abs))
grid_specs = st.builds(CassiniSpec, grid_spec_points, grid_spec_points, grid_radii)

# The product of L(g+,g-) equals one of the five other products at every
# point in exact arithmetic, so its gap sets the worst margin of
# CROSS_EQUALITIES only through roundoff.  Here it does, on the 3 x 3 grid:
# 0.07658276605971634 against 0.07658276605971648 for the other modes.
GG_SETS_WORST = CassiniSpec(
    Point(-3.7557140176565063, 1.162417502970512),
    Point(-2.287933172380341, -1.1484767577372756),
    1.820898948573911,
)


def sample_points(spec, sample):
    if sample[0] == "grid":
        return grid_points(spec, sample[1])
    # Seeded uniform (count,) columns x1 and x2 over the sampling box.
    _, count, seed = sample
    rng = np.random.default_rng(seed)
    center, half = sampling_box(spec)
    return tuple(rng.uniform(c - half, c + half, count) for c in center)


class TestVerifyIdentities:
    @settings(max_examples=300, deadline=None)
    @given(specs, samples, bands)
    @example(GG_SETS_WORST, ("grid", 3), 0.0)
    @example(GG_SETS_WORST, ("grid", 3), 1e-9)
    def test_matches_reference(self, spec, sample, band):
        x1, x2 = sample_points(spec, sample)
        reports = verify_identities(spec, x1, x2, band)
        assert list(reports) == list(IdentityMode)
        pts = materialise(x1, x2)
        for mode, report in reports.items():
            assert repr(report) == repr(reference_verify_identity(spec, mode, pts, band))

    @settings(max_examples=150, deadline=None)
    @given(grid_specs, st.integers(2, 64), st.sampled_from([0.0, 1e-9, 1e-4]))
    def test_grid_axes_match_reference_on_materialised_grid(self, spec, n, band):
        # The verifier broadcasts the grid's axes; the reference gets the
        # n*n points written out.
        x1, x2 = grid_points(spec, n)
        reports = verify_identities(spec, x1, x2, band)
        assert [report.trials for report in reports.values()] == [n * n] * len(IdentityMode)
        pts = materialise(x1, x2)
        for mode, report in reports.items():
            assert repr(report) == repr(reference_verify_identity(spec, mode, pts, band))

    def test_gg_gap_example_sets_cross_equalities_worst(self):
        spec = GG_SETS_WORST
        reports = verify_identities(spec, *grid_points(spec, 3), 0.0)
        worsts = [report.worst_residual for report in reports.values()]
        assert worsts[:3] == [0.07658276605971648] * 3
        assert worsts[3] == 0.07658276605971634

    def test_one_product_per_involved_pair(self, monkeypatch):
        # One kernel call names each of the six sets' pairs once; their foci
        # are p, q, g+ and g-, so the kernel computes four distance fields.
        calls = []

        def counting(pairs, x1, x2):
            calls.append(list(pairs))
            return distance_products(pairs, x1, x2)

        monkeypatch.setattr(characterization, "distance_products", counting)
        p, q = SPEC.p, SPEC.q
        g_plus, g_minus = reference_guide_complements(p, q)
        verify_identities(SPEC, *grid_points(SPEC, 16))
        assert calls == [
            [(p, q), (p, g_plus), (p, g_minus), (q, g_plus), (q, g_minus), (g_plus, g_minus)]
        ]

    def test_empty_sample_counts_nothing(self):
        # Every point of an empty sample is "skipped", so no margin is
        # counted and the worst residual is inf, as for a fully skipped one.
        for mode in IdentityMode:
            report = verify_identity(SPEC, mode, np.empty(0), np.empty(0))
            assert report == IdentityReport(
                trials=0, mismatches=0, skipped_boundary_band=0, worst_residual=math.inf
            )

    def test_coordinates_that_do_not_broadcast_rejected(self):
        with pytest.raises(GeometryError, match="do not broadcast"):
            verify_identity(SPEC, IdentityMode.CROSS_SUBSETS, np.zeros(3), np.zeros(4))

    def test_single_point_as_scalars(self):
        report = verify_identity(SPEC, IdentityMode.CROSS_EQUALITIES, 0.5, -0.25)
        reference = reference_verify_identity(SPEC, IdentityMode.CROSS_EQUALITIES, [[0.5, -0.25]])
        assert repr(report) == repr(reference)
        assert report.trials == 1

    def test_mixed_non_finite_sample_rejected(self):
        x1, x2 = [0.0, math.nan, math.inf, 1.0], [0.0, 0.0, 1.0, 2.0]
        with pytest.raises(GeometryError, match="finite"):
            verify_identity(SPEC, IdentityMode.CROSS_SUBSETS, x1, x2)

    @pytest.mark.parametrize("mode", list(IdentityMode))
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_rejected(self, mode, axis, value):
        # Such points used to count as agreements, with a nan worst residual.
        pts = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]])
        pts[1, axis] = value
        x1, x2 = pts[:, 0], pts[:, 1]
        with pytest.raises(GeometryError, match="finite"):
            verify_identities(SPEC, x1, x2)
        with pytest.raises(GeometryError, match="finite"):
            verify_identity(SPEC, mode, x1, x2)
        # A grid's axes are checked too, before any field is built.
        gx1, gx2 = grid_points(SPEC, 4)
        axes = [gx1, gx2.copy()]
        axes[axis].flat[2] = value
        with pytest.raises(GeometryError, match="finite"):
            verify_identities(SPEC, *axes)

    @pytest.mark.parametrize(
        "p, q",
        [(Point(1e155, 0), Point(-1e155, 0)), (Point(1.5e307, -1.5e307), Point(0, 0))],
        ids=["wide-foci", "g-plus-is-p"],
    )
    def test_overflowing_products_rejected(self, p, q):
        # Every product of the first spec overflowed to inf behind six numpy
        # warnings, so every set was empty and each mode passed vacuously
        # with worst_residual inf.  The second spec's g+ is p, so a member
        # spec L(p, g+) used to reject it before any product was formed.
        spec = CassiniSpec(p, q, 1.0)
        x1, x2 = grid_points(spec, 16)
        with pytest.raises(GeometryError) as info:
            verify_identities(spec, x1, x2)
        assert str(info.value) == f"{spec}: a distance product overflows on the identity sample"

    def test_overflowing_sample_point_rejected(self):
        # The spec is small, but the sample point's distances overflow.
        with pytest.raises(GeometryError, match="overflows"):
            verify_identities(SPEC, [1e308, 0.0], [-1e308, 0.0])


class TestIdentityCampaigns:
    def test_fused_campaign_matches_per_mode_reference(self):
        fused = run_identity_campaigns(trials=20, seed=7)
        reference = {mode: reference_identity_campaign(mode, 20, seed=7) for mode in IdentityMode}
        assert repr(fused) == repr(reference)
        for mode in IdentityMode:
            assert run_identity_campaign(mode, trials=20, seed=7) == fused[mode]
