"""Moving value evaluation against a straightforward reference evaluator."""

from __future__ import annotations

import math
import random

import pytest

from geomedia import (
    GeoPoint,
    InterpolationMode,
    MovingDouble,
    MovingPoint,
    TimeInterval,
)
from geomedia.errors import BadQueryError, NotASampleError
from geomedia.temporal import MAX_TIME, MIN_TIME

from conftest import T0, T1, T2


# -- reference oracle ------------------------------------------------------------
# Deliberately naive: linear scan over samples, no bisection, no shared code
# with the implementation under test.

def reference_at(times, values, mode, t):
    assert times[0] <= t <= times[-1]
    for i, ti in enumerate(times):
        if ti == t:
            return values[i]
    if mode == "discrete":
        raise AssertionError("discrete lookup off-sample")
    prev = max(i for i, ti in enumerate(times) if ti < t)
    if mode == "stepwise":
        return values[prev]
    f = (t - times[prev]) / (times[prev + 1] - times[prev])
    a, b = values[prev], values[prev + 1]
    if isinstance(a, tuple):
        return tuple(x + (y - x) * f for x, y in zip(a, b))
    return a + (b - a) * f


def make_mp(times, coords, mode=InterpolationMode.LINEAR):
    return MovingPoint(tuple(times), tuple(GeoPoint(*c) for c in coords), mode)


@pytest.fixture
def reference_mp(moving_point_doc):
    return moving_point_doc.payload


class TestMovingPointAt:
    def test_exact_sample(self, reference_mp):
        assert reference_mp.at(T1) == GeoPoint(160.0, 60.0, 12.0)

    def test_linear_midpoint(self, reference_mp):
        p = reference_mp.at(T0 + 500)
        assert (p.lon, p.lat, p.alt) == pytest.approx((155.0, 55.0, 11.0), abs=1e-9)

    def test_before_extent(self, reference_mp):
        with pytest.raises(BadQueryError, match="outside extent"):
            reference_mp.at(T0 - 1000)

    def test_after_extent(self, reference_mp):
        with pytest.raises(BadQueryError, match="outside extent"):
            reference_mp.at(T2 + 1)

    def test_discrete_rejects_off_sample(self):
        mp = make_mp([0, 1000], [(0, 0), (1, 1)], InterpolationMode.DISCRETE)
        assert mp.at(1000) == GeoPoint(1, 1)
        with pytest.raises(NotASampleError):
            mp.at(500)

    def test_stepwise_holds_last(self):
        mp = make_mp([0, 1000, 2000], [(0, 0), (1, 1), (2, 2)], InterpolationMode.STEPWISE)
        assert mp.at(999) == GeoPoint(0, 0)
        assert mp.at(1000) == GeoPoint(1, 1)
        assert mp.at(1999) == GeoPoint(1, 1)

    def test_no_alt_stays_none(self):
        mp = make_mp([0, 1000], [(0, 0), (1, 1)])
        assert mp.at(500).alt is None


class TestMovingDoubleAt:
    def test_reference_values(self, moving_double_doc):
        md = moving_double_doc.payload
        assert md.at(T0 + 500) == 5.0
        assert md.at(T1) == 9.0
        with pytest.raises(BadQueryError, match="outside extent"):
            md.at(T0 - 1000)

    def test_linear(self):
        md = MovingDouble((0, 1000), (2.0, 4.0))
        assert md.at(250) == pytest.approx(2.5, abs=1e-12)

    def test_discrete_rejects_off_sample(self):
        md = MovingDouble((0, 1000), (2.0, 4.0), InterpolationMode.DISCRETE)
        assert md.at(1000) == 4.0
        with pytest.raises(NotASampleError):
            md.at(500)

    def test_stepwise_holds_last(self):
        md = MovingDouble((0, 1000, 2000), (1.0, 3.0, 7.0), InterpolationMode.STEPWISE)
        assert md.at(999) == 1.0
        assert md.at(1000) == 3.0
        assert md.at(2000) == 7.0

    def test_after_extent(self):
        md = MovingDouble((0, 1000), (2.0, 4.0))
        with pytest.raises(BadQueryError, match="outside extent"):
            md.at(1001)

    def test_vertices_follow_track(self):
        assert MovingDouble((0, 1000), (2.0, 4.0)).vertices() == ()
        track = (GeoPoint(0, 0), GeoPoint(1, 1))
        assert MovingDouble((0, 1000), (2.0, 4.0), track=track).vertices() == track


class TestConstruction:
    def test_needs_samples(self):
        with pytest.raises(ValueError):
            MovingPoint((), ())

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            make_mp([0, 0], [(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            make_mp([0, -1], [(0, 0), (1, 1)])

    def test_mixed_altitudes_rejected(self):
        with pytest.raises(ValueError):
            MovingPoint((0, 1), (GeoPoint(0, 0, 5.0), GeoPoint(1, 1)))

    def test_track_length_checked(self):
        with pytest.raises(ValueError):
            MovingDouble((0, 1), (1.0, 2.0), track=(GeoPoint(0, 0),))

    def test_coordinate_ranges(self):
        with pytest.raises(ValueError):
            GeoPoint(181, 0)
        with pytest.raises(ValueError):
            GeoPoint(0, -91)

    def test_points_length_checked(self):
        with pytest.raises(ValueError):
            MovingPoint((0, 1), (GeoPoint(0, 0),))

    def test_values_length_checked(self):
        with pytest.raises(ValueError):
            MovingDouble((0, 1), (1.0,))

    def test_mode_given_by_name(self):
        mp = make_mp([0, 1000], [(0, 0), (1, 1)], "stepwise")
        assert mp.mode is InterpolationMode.STEPWISE
        assert MovingDouble((0, 1), (1, 2), "discrete").mode is InterpolationMode.DISCRETE

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            make_mp([0, 1000], [(0, 0), (1, 1)], "cubic")

    @pytest.mark.parametrize("times", [(1.5, 2), (0, 2**63), ("0", "1")],
                             ids=["float", "past-int64", "str"])
    def test_non_int64_time_rejected(self, times):
        with pytest.raises(ValueError, match="timestamps must be 64-bit integers"):
            MovingPoint(times, (GeoPoint(0, 0), GeoPoint(1, 1)))
        with pytest.raises(ValueError, match="timestamps must be 64-bit integers"):
            MovingDouble(times, (1.0, 2.0))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, value):
        # the codec refuses such a value, so a store holding one would not load
        with pytest.raises(ValueError, match="values must be finite numbers"):
            MovingDouble((0, 1), (1.0, value))

    @pytest.mark.parametrize("times", [(MIN_TIME - 1, 0), (0, MAX_TIME + 1)],
                             ids=["year-0", "year-10000"])
    def test_time_outside_iso_years_rejected(self, times):
        with pytest.raises(ValueError, match="timestamps must lie in years 1-9999"):
            MovingPoint(times, (GeoPoint(0, 0), GeoPoint(1, 1)))
        with pytest.raises(ValueError, match="timestamps must lie in years 1-9999"):
            MovingDouble(times, (1.0, 2.0))
        assert MovingDouble((MIN_TIME, MAX_TIME), (1.0, 2.0)).time_extent() == TimeInterval(
            MIN_TIME, MAX_TIME)

    def test_point_and_double_on_one_timeline_never_equal(self):
        mp = MovingPoint((T0, T1), (GeoPoint(0, 0), GeoPoint(1, 1)))
        md = MovingDouble((T0, T1), (0.0, 1.0), mp.mode, mp.points)
        assert (mp.time_column, mp.lons, mp.lats, mp.alts) == (
            md.time_column, md.lons, md.lats, md.alts)
        assert mp != md and md != mp

    def test_times_and_values_read_back_as_tuples(self):
        times, coords = [T0, T1, T2], [(0, 0), (1, 1), (2, 2)]
        mp = make_mp(times, coords)
        md = MovingDouble(iter(times), [5, 9.5, 6])
        assert type(mp.times) is type(md.times) is type(md.values) is tuple
        assert mp.times == md.times == (T0, T1, T2)
        assert md.values == (5.0, 9.5, 6.0)
        assert all(type(v) is float for v in md.values)

    def test_equal_tracks_hash_equal(self):
        coords = [(0, 0), (1, 1), (2, 2)]
        a, b = make_mp([T0, T1, T2], coords), make_mp((T0, T1, T2), coords)
        assert a == b and hash(a) == hash(b)
        assert a != make_mp([T0, T1, T2 + 1], coords)
        c, d = MovingDouble((T0, T1), (1, 2)), MovingDouble([T0, T1], [1.0, 2.0])
        assert c == d and hash(c) == hash(d)
        assert c != MovingDouble((T0, T1), (1.0, 2.5))


class TestTimeInterval:
    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            TimeInterval(10, 5)

    def test_contains_is_closed(self):
        iv = TimeInterval(10, 20)
        assert iv.contains(10) and iv.contains(15) and iv.contains(20)
        assert not iv.contains(9) and not iv.contains(21)

    def test_instant_contains_only_itself(self):
        iv = TimeInterval(7, 7)
        assert iv.contains(7)
        assert not iv.contains(6) and not iv.contains(8)

    @pytest.mark.parametrize("a, b, want", [
        ((0, 10), (10, 20), True),   # touching at one end
        ((0, 10), (11, 20), False),  # one millisecond apart
        ((0, 100), (40, 60), True),  # nested
        ((0, 10), (5, 5), True),     # instant inside
        ((0, 10), (-5, -5), False),  # instant before
        ((3, 3), (3, 3), True),      # equal instants
    ])
    def test_overlaps_is_closed_and_symmetric(self, a, b, want):
        x, y = TimeInterval(*a), TimeInterval(*b)
        assert x.overlaps(y) is want
        assert y.overlaps(x) is want


class TestTimeExtent:
    def test_reference_listing(self, reference_mp):
        assert reference_mp.time_extent() == TimeInterval(T0, T2)

    def test_single_sample_degenerate(self):
        mp = make_mp([42], [(0, 0)])
        extent = mp.time_extent()
        assert extent.start == extent.end == 42

    def test_moving_double(self, moving_double_doc):
        assert moving_double_doc.payload.time_extent() == TimeInterval(T0, T2)


class TestHeading:
    def test_due_north(self):
        mp = make_mp([0, 1000], [(0, 0), (0, 1)])
        assert mp.heading_at(500) == pytest.approx(0.0, abs=1e-9)

    def test_due_east(self):
        mp = make_mp([0, 1000], [(0, 0), (1, 0)])
        assert mp.heading_at(500) == pytest.approx(90.0, abs=1e-9)

    def test_reference_segment_bearing(self, reference_mp):
        # forward azimuth of (160,60)->(170,60), frozen from the oracle formula
        assert reference_mp.heading_at(T1 + 500) == pytest.approx(85.66712604792849, abs=1e-9)

    def test_vertex_uses_outgoing_segment(self):
        mp = make_mp([0, 1000, 2000], [(0, 0), (0, 1), (1, 1)])
        assert mp.heading_at(1000) == pytest.approx(mp.heading_at(1500), abs=1e-9)

    def test_final_vertex_uses_incoming_segment(self):
        mp = make_mp([0, 1000], [(0, 0), (0, 1)])
        assert mp.heading_at(1000) == pytest.approx(0.0, abs=1e-9)

    def test_zero_length_segment_inherits(self):
        mp = make_mp([0, 1000, 2000], [(0, 0), (0, 1), (0, 1)])
        assert mp.heading_at(1500) == pytest.approx(0.0, abs=1e-9)

    def test_degenerate(self):
        with pytest.raises(BadQueryError, match="heading undefined for a single-sample track"):
            make_mp([0], [(0, 0)]).heading_at(0)
        with pytest.raises(BadQueryError, match="all track points are identical"):
            make_mp([0, 1000], [(2, 2), (2, 2)]).heading_at(500)

    def test_out_of_range(self):
        mp = make_mp([0, 1000], [(0, 0), (0, 1)])
        with pytest.raises(BadQueryError, match="outside extent"):
            mp.heading_at(-1)


def random_track(rng, mode, n=None, with_alt=False):
    n = n or rng.randint(1, 12)
    times = sorted(rng.sample(range(0, 10_000_000, 7), n))
    coords = []
    for _ in range(n):
        alt = rng.uniform(-100, 1000) if with_alt else None
        coords.append(GeoPoint(rng.uniform(-179, 179), rng.uniform(-89, 89), alt))
    return MovingPoint(tuple(times), tuple(coords), mode)


class TestAgainstReferenceEvaluator:
    @pytest.mark.parametrize("mode", list(InterpolationMode))
    def test_moving_point_matches_oracle(self, mode):
        rng = random.Random(f"mp-{mode.value}")
        for _ in range(300):
            mp = random_track(rng, mode, with_alt=rng.random() < 0.5)
            if mode is InterpolationMode.DISCRETE:
                t = rng.choice(mp.times)
            elif rng.random() < 0.3:
                t = rng.choice(mp.times)
            else:
                t = rng.randint(mp.times[0], mp.times[-1])
            got = mp.at(t)
            want = reference_at(
                mp.times,
                [(p.lon, p.lat) if p.alt is None else (p.lon, p.lat, p.alt) for p in mp.points],
                mode.value,
                t,
            )
            have = (got.lon, got.lat) if got.alt is None else (got.lon, got.lat, got.alt)
            assert have == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("mode", list(InterpolationMode))
    def test_moving_double_matches_oracle(self, mode):
        rng = random.Random(f"md-{mode.value}")
        for _ in range(300):
            n = rng.randint(1, 12)
            times = sorted(rng.sample(range(0, 1_000_000), n))
            values = tuple(rng.uniform(-50, 50) for _ in range(n))
            md = MovingDouble(tuple(times), values, mode)
            t = rng.choice(times) if (mode is InterpolationMode.DISCRETE or rng.random() < 0.3) \
                else rng.randint(times[0], times[-1])
            assert md.at(t) == pytest.approx(reference_at(times, values, mode.value, t), abs=1e-9)

    def test_samples_reproduced_exactly_by_every_mode(self):
        rng = random.Random("exact")
        for mode in InterpolationMode:
            mp = random_track(rng, mode, n=8)
            for t, p in zip(mp.times, mp.points):
                assert mp.at(t) == p

    def test_linear_midpoint_is_mean(self):
        rng = random.Random("midpoint")
        for _ in range(100):
            mp = random_track(rng, InterpolationMode.LINEAR, n=5)
            i = rng.randrange(4)
            if (mp.times[i] + mp.times[i + 1]) % 2:
                continue
            mid = (mp.times[i] + mp.times[i + 1]) // 2
            got = mp.at(mid)
            assert got.lon == pytest.approx((mp.points[i].lon + mp.points[i + 1].lon) / 2, abs=1e-9)
            assert got.lat == pytest.approx((mp.points[i].lat + mp.points[i + 1].lat) / 2, abs=1e-9)

    def test_stepwise_constant_between_samples(self):
        rng = random.Random("step")
        mp = random_track(rng, InterpolationMode.STEPWISE, n=6)
        for i in range(5):
            for t in range(mp.times[i], mp.times[i + 1]):
                if rng.random() < 0.01:
                    assert mp.at(t) == mp.points[i]

    def test_bbox_contains_all_interpolated_positions(self):
        from geomedia import spatial_bbox

        rng = random.Random("bbox")
        mp = random_track(rng, InterpolationMode.LINEAR, n=10)
        min_lon, min_lat, max_lon, max_lat = spatial_bbox(mp)
        for _ in range(1000):
            t = rng.randint(mp.times[0], mp.times[-1])
            p = mp.at(t)
            assert min_lon - 1e-9 <= p.lon <= max_lon + 1e-9
            assert min_lat - 1e-9 <= p.lat <= max_lat + 1e-9
