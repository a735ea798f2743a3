import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radcal.geometry import sph2cart
from radcal.reflector import (
    ClusterParams,
    EmptyAfterFilter,
    FilterParams,
    NoClusters,
    RadarFrame,
    dbscan,
    extract_reflector,
    filter_returns,
    _radius_neighbors,
)


def frame_of(returns):
    return RadarFrame(timestamp_s=0.0, returns=returns)


def ret(r=10.0, az=0.0, el=0.0, v=0.0, rcs=20.0):
    return (r, az, el, v, rcs)


def dbscan_reference(points, eps, min_pts):
    """O(n^2) DBSCAN with the same deterministic seeding and expansion order."""
    n = len(points)
    dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    neighbors = [np.flatnonzero(dist[i] <= eps) for i in range(n)]
    core = [len(nb) >= min_pts for nb in neighbors]
    labels = np.full(n, -1, dtype=int)
    cid = 0
    for i in range(n):
        if labels[i] != -1 or not core[i]:
            continue
        labels[i] = cid
        queue = [i]
        while queue:
            j = queue.pop(0)
            for k in neighbors[j]:
                if labels[k] == -1:
                    labels[k] = cid
                    if core[k]:
                        queue.append(k)
        cid += 1
    return labels


def partition_signature(labels):
    """Cluster member sets plus the noise set, independent of cluster numbering."""
    clusters = {}
    noise = set()
    for i, lbl in enumerate(labels):
        if lbl < 0:
            noise.add(i)
        else:
            clusters.setdefault(lbl, set()).add(i)
    return {frozenset(v) for v in clusters.values()}, noise


def labels_from_result(n, clusters, noise):
    labels = np.full(n, -1, dtype=int)
    for cid, cluster in enumerate(clusters):
        labels[cluster] = cid
    assert sorted(noise) == sorted(np.flatnonzero(labels == -1))
    return labels


class TestRadarFrame:
    @pytest.mark.parametrize(
        "row, message",
        [
            ((math.nan, 0.0, 0.0, 0.0, 20.0), "finite"),
            ((10.0, 0.0, 0.0, math.inf, 20.0), "finite"),
            ((-1.0, 0.0, 0.0, 0.0, 20.0), "range must be >= 0, got -1.0"),
            ((10.0, -3.2, 0.0, 0.0, 20.0), r"azimuth must be in \(-pi, pi\], got -3.2"),
            ((10.0, 3.2, 0.0, 0.0, 20.0), "azimuth"),
            ((10.0, 0.0, 1.6, 0.0, 20.0), r"elevation must be in \[-pi/2, pi/2\], got 1.6"),
            ((10.0, 0.0, -1.6, 0.0, 20.0), "elevation"),
        ],
    )
    def test_each_rule_checked_on_any_row(self, row, message):
        with pytest.raises(ValueError, match=message):
            frame_of([ret(), row, ret()])

    def test_closed_ends_accepted_and_minus_pi_stored_as_pi(self):
        rows = [ret(r=0.0), ret(az=-math.pi), ret(az=math.pi, el=math.pi / 2), ret(el=-math.pi / 2)]
        returns = frame_of(rows).returns
        assert returns["az_rad"].tolist() == [0.0, math.pi, math.pi, 0.0]
        assert returns["el_rad"].tolist() == [0.0, 0.0, math.pi / 2, -math.pi / 2]

    def test_rows_and_columns_agree(self):
        rows = [ret(r=5.0, rcs=30.0), ret(r=6.0, v=0.25)]
        frame = RadarFrame(1.0, rows)
        assert frame.returns.tolist() == rows
        assert frame == RadarFrame(1.0, np.array(rows)) == RadarFrame(1.0, frame.returns)
        assert frame != RadarFrame(2.0, rows)
        assert not frame.returns.flags.writeable
        assert len(RadarFrame(1.0, []).returns) == 0


class TestFilter:
    def test_table_defaults_keep_static_bright_return(self):
        kept = filter_returns(frame_of([ret(r=10.0, v=0.1, rcs=20.0)]), FilterParams())
        assert len(kept) == 1

    def test_below_min_range_dropped(self):
        with pytest.raises(EmptyAfterFilter):
            filter_returns(frame_of([ret(r=2.9, v=0.0, rcs=50.0)]), FilterParams())

    def test_velocity_boundary_is_strict(self):
        with pytest.raises(EmptyAfterFilter):
            filter_returns(frame_of([ret(r=10.0, v=0.5, rcs=20.0)]), FilterParams())

    def test_range_bounds_inclusive(self):
        kept = filter_returns(
            frame_of([ret(r=3.0), ret(r=15.0)]), FilterParams()
        )
        assert len(kept) == 2

    def test_rcs_boundary_is_strict(self):
        with pytest.raises(EmptyAfterFilter):
            filter_returns(frame_of([ret(rcs=10.0)]), FilterParams())

    def test_subset_order_preserved_idempotent(self):
        rng = np.random.default_rng(0)
        returns = [
            ret(
                r=rng.uniform(0, 20),
                az=rng.uniform(-1, 1),
                v=rng.uniform(-2, 2),
                rcs=rng.uniform(-5, 40),
            )
            for _ in range(200)
        ]
        frame = frame_of(returns)
        kept = filter_returns(frame, FilterParams())
        assert all(k in returns for k in kept.tolist())
        positions = [returns.index(k) for k in kept.tolist()]
        assert positions == sorted(positions)
        again = filter_returns(frame_of(kept), FilterParams())
        assert np.array_equal(again, kept)

    def test_mask_matches_per_return_rule(self):
        # values on and beside every bound, against the gates one return at a time
        params = FilterParams()
        rows = [
            ret(r=r, v=v, rcs=rcs)
            for r in (2.999, 3.0, 9.0, 15.0, 15.001)
            for v in (-0.5, -0.499, 0.0, 0.499, 0.5)
            for rcs in (10.0, 10.001)
        ]
        expected = [
            row for row in rows
            if params.r_min <= row[0] <= params.r_max
            and abs(row[3]) < params.v_th
            and row[4] > params.rho_min
        ]
        assert filter_returns(frame_of(rows), params).tolist() == expected

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FilterParams(r_min=5.0, r_max=5.0)
        with pytest.raises(ValueError):
            FilterParams(v_th=0.0)


class TestDbscan:
    def test_two_well_separated_groups(self):
        rng = np.random.default_rng(1)
        group_a = np.array([0.0, 0.0, 0.0]) + rng.uniform(-0.025, 0.025, (5, 3))
        group_b = np.array([10.0, 0.0, 0.0]) + rng.uniform(-0.025, 0.025, (5, 3))
        points = np.vstack([group_a, group_b])
        clusters, noise = dbscan(points, ClusterParams(eps=0.3, min_pts=3))
        assert len(clusters) == 2
        assert noise == []
        signature, _ = partition_signature(labels_from_result(10, clusters, noise))
        expected = dbscan_reference(points, 0.3, 3)
        assert signature == partition_signature(expected)[0]

    def test_all_isolated_points_are_noise(self):
        points = np.array([[float(i) * 2.0, 0.0, 0.0] for i in range(10)])
        clusters, noise = dbscan(points, ClusterParams(eps=0.3, min_pts=3))
        assert clusters == []
        assert sorted(noise) == list(range(10))

    def test_min_pts_one_clusters_everything(self):
        points = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
        clusters, noise = dbscan(points, ClusterParams(eps=0.1, min_pts=1))
        assert len(clusters) == 2 and noise == []

    def test_matches_reference_on_random_clouds(self):
        rng = np.random.default_rng(2)
        for trial in range(30):
            n = int(rng.integers(2, 301))
            points = rng.uniform(0.0, 5.0, (n, 3))
            eps = float(rng.uniform(0.1, 1.2))
            min_pts = int(rng.integers(1, 8))
            clusters, noise = dbscan(points, ClusterParams(eps=eps, min_pts=min_pts))
            ours = labels_from_result(n, clusters, noise)
            reference = dbscan_reference(points, eps, min_pts)
            assert partition_signature(ours) == partition_signature(reference), (
                f"trial {trial}: eps={eps}, min_pts={min_pts}"
            )

    def test_partition_covers_exactly_once(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(0.0, 2.0, (120, 3))
        params = ClusterParams(eps=0.4, min_pts=4)
        clusters, noise = dbscan(points, params)
        seen = sorted(i for c in clusters for i in c) + sorted(noise)
        assert sorted(seen) == list(range(120))
        # every cluster contains at least one core point
        for cluster in clusters:
            has_core = False
            for i in cluster:
                n_neigh = int(
                    (np.linalg.norm(points - points[i], axis=1) <= params.eps).sum()
                )
                if n_neigh >= params.min_pts:
                    has_core = True
                    break
            assert has_core

    def test_permutation_invariant_up_to_relabeling(self):
        rng = np.random.default_rng(4)
        points = rng.uniform(0.0, 2.0, (80, 3))
        params = ClusterParams(eps=0.35, min_pts=3)
        clusters, noise = dbscan(points, params)
        base_sig = partition_signature(labels_from_result(80, clusters, noise))
        for _ in range(5):
            perm = rng.permutation(80)
            c2, n2 = dbscan(points[perm], params)
            sig2, noise2 = partition_signature(labels_from_result(80, c2, n2))
            # map back through the permutation
            mapped = {frozenset(int(perm[i]) for i in group) for group in sig2}
            mapped_noise = {int(perm[i]) for i in noise2}
            assert mapped == base_sig[0] and mapped_noise == base_sig[1]


@st.composite
def clouds(draw):
    """(points, eps, min_pts) with duplicates and pairs at and just beyond eps.

    On a dyadic grid, p + eps is exact, so such pairs are exactly eps apart.
    """
    if draw(st.booleans()):
        eps = draw(st.integers(1, 32)) / 16.0
        coord = st.integers(-64, 64).map(lambda i: i / 16.0)
    else:
        eps = draw(st.floats(1e-3, 3.0))
        coord = st.floats(-20.0, 20.0, allow_nan=False)
    points = draw(st.lists(st.tuples(coord, coord, coord), max_size=40))
    kinds = st.sampled_from(["dup", "eps", "ulp"])
    derived = draw(
        st.lists(st.tuples(st.integers(0, 10**6), kinds, st.integers(0, 2)), max_size=12)
    )
    for index, kind, axis in derived:
        if not points:
            break
        p = list(points[index % len(points)])
        if kind == "eps":
            p[axis] += eps
        elif kind == "ulp":
            p[axis] = float(np.nextafter(p[axis] + eps, np.inf))
        points.append(tuple(p))
    return np.array(points, dtype=float).reshape(-1, 3), eps, draw(st.integers(1, 5))


class TestRadiusSearchProperties:
    @settings(max_examples=300)
    @given(clouds())
    @example((np.empty((0, 3)), 0.3, 3))
    @example((np.array([[1.0, 2.0, 3.0]]), 0.3, 1))
    # eps + 1e-217 rounds to eps, but the two points sit two eps-cells apart
    @example((np.array([[0.0, -1e-217, 0.0], [0.0, 0.3, 0.0]]), 0.3, 2))
    def test_matches_quadratic_reference(self, cloud):
        points, eps, min_pts = cloud
        dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
        indptr, indices = _radius_neighbors(points, eps)
        assert [indices[a:b].tolist() for a, b in zip(indptr, indptr[1:])] == [
            np.flatnonzero(row <= eps).tolist() for row in dist
        ]
        clusters, noise = dbscan(points, ClusterParams(eps=eps, min_pts=min_pts))
        labels = labels_from_result(len(points), clusters, noise)
        assert np.array_equal(labels, dbscan_reference(points, eps, min_pts))

    def test_pair_at_exactly_eps_is_a_neighbor(self):
        points = np.array([[0.25, 0.5, 0.0], [0.25, 0.5, 0.75]])
        clusters, noise = dbscan(points, ClusterParams(eps=0.75, min_pts=2))
        assert [c.tolist() for c in clusters] == [[0, 1]] and noise == []
        points[1, 2] = np.nextafter(0.75, 1.0)
        clusters, noise = dbscan(points, ClusterParams(eps=0.75, min_pts=2))
        assert clusters == [] and noise == [0, 1]


def position(row):
    """The radar-frame position of a ret() row."""
    return sph2cart(*row[:3])


# Every return of a singleton-cluster frame is its own cluster.
SINGLETONS = ClusterParams(eps=0.3, min_pts=1)


class TestSelection:
    """extract_reflector's choice of cluster: highest mean RCS, then
    smaller mean range, then the cluster seeded first."""

    def test_argmax_mean_rcs(self):
        returns = [ret(az=-0.3, rcs=12.0), ret(az=0.0, rcs=30.0), ret(az=0.3, rcs=18.0)]
        center = extract_reflector(frame_of(returns), cluster_params=SINGLETONS)
        assert np.array_equal(center, position(returns[1]))

    def test_single_cluster(self):
        returns = [ret(r=7.0, az=0.1, rcs=15.0)]
        center = extract_reflector(frame_of(returns), cluster_params=SINGLETONS)
        assert np.array_equal(center, position(returns[0]))

    def test_tie_breaks_to_smaller_mean_range(self):
        far, near = ret(r=10.0, rcs=20.0), ret(r=4.0, rcs=20.0)
        for returns in ([far, near], [near, far]):
            center = extract_reflector(frame_of(returns), cluster_params=SINGLETONS)
            assert np.array_equal(center, position(near))

    def test_full_tie_goes_to_first_cluster(self):
        # mirrored azimuths: the same mean RCS and, bit for bit, the same range
        left, right = ret(az=0.2, rcs=20.0), ret(az=-0.2, rcs=20.0)
        for returns in ([left, right], [right, left]):
            center = extract_reflector(frame_of(returns), cluster_params=SINGLETONS)
            assert np.array_equal(center, position(returns[0]))

    def test_no_clusters(self):
        returns = [ret(r=5.0, az=0.0), ret(r=10.0, az=0.5)]
        with pytest.raises(NoClusters):
            extract_reflector(frame_of(returns))


class TestLocate:
    """extract_reflector's center: the winning cluster's strongest return."""

    def test_argmax_rcs(self):
        returns = [ret(r=5.0, rcs=12.0), ret(r=5.1, rcs=25.0), ret(r=5.2, rcs=13.0)]
        assert np.array_equal(extract_reflector(frame_of(returns)), position(returns[1]))

    def test_singleton(self):
        returns = [ret(r=7.0, az=0.1, el=-0.05, rcs=33.0)]
        center = extract_reflector(frame_of(returns), cluster_params=SINGLETONS)
        assert np.array_equal(center, position(returns[0]))

    def test_tie_goes_to_lowest_index(self):
        returns = [ret(r=5.0, rcs=20.0), ret(r=5.1, rcs=25.0), ret(r=5.2, rcs=25.0)]
        assert np.array_equal(extract_reflector(frame_of(returns)), position(returns[1]))

    def test_only_members_count(self):
        # the strongest return, 1, is DBSCAN noise beyond eps of the cluster
        returns = [ret(r=5.0, rcs=20.0), ret(r=12.0, rcs=40.0),
                   ret(r=5.1, rcs=24.0), ret(r=5.2, rcs=24.0)]
        assert np.array_equal(extract_reflector(frame_of(returns)), position(returns[2]))


class TestExtract:
    def blob(self, center, rng, n=5, apex_rcs=38.0):
        r, az, el = (
            float(np.linalg.norm(center)),
            math.atan2(center[1], center[0]),
            math.asin(center[2] / np.linalg.norm(center)),
        )
        returns = [(r, az, el, 0.0, apex_rcs)]
        for _ in range(n - 1):
            p = center + rng.normal(0, 0.03, 3)
            rr = float(np.linalg.norm(p))
            returns.append(
                (
                    rr,
                    math.atan2(p[1], p[0]),
                    math.asin(p[2] / rr),
                    0.0,
                    float(rng.uniform(30, 35)),
                )
            )
        return returns

    def clutter(self, rng, n=50, rcs_max=9.5):
        return [
            (
                float(rng.uniform(0.5, 20)),
                float(rng.uniform(-1, 1)),
                float(rng.uniform(-0.4, 0.4)),
                float(rng.uniform(-2, 2)),
                float(rng.uniform(-5, rcs_max)),
            )
            for _ in range(n)
        ]

    def test_blob_recovered_among_clutter(self):
        rng = np.random.default_rng(5)
        center = np.array([8.0, 1.0, 0.5])
        frame = frame_of(self.blob(center, rng) + self.clutter(rng))
        found = extract_reflector(frame)
        assert np.linalg.norm(found - center) < 1e-9

    def test_all_moving_returns_not_found(self):
        returns = [ret(v=2.0), ret(v=-1.0), ret(v=0.6)]
        with pytest.raises(EmptyAfterFilter):
            extract_reflector(frame_of(returns))

    def test_isolated_survivors_not_found(self):
        returns = [
            ret(r=5.0, az=0.0, rcs=30.0),
            ret(r=10.0, az=0.5, rcs=30.0),
            ret(r=14.0, az=-0.5, rcs=30.0),
        ]
        with pytest.raises(NoClusters):
            extract_reflector(frame_of(returns))

    def test_brightest_blob_wins(self):
        rng = np.random.default_rng(6)
        strong = np.array([8.0, 1.0, 0.0])
        weak = np.array([6.0, -1.5, 0.2])
        frame = frame_of(
            self.blob(strong, rng, apex_rcs=38.0)
            + [
                (
                    float(np.linalg.norm(p)),
                    math.atan2(p[1], p[0]),
                    math.asin(p[2] / np.linalg.norm(p)),
                    0.0,
                    float(rng.uniform(18, 22)),
                )
                for p in weak + rng.normal(0, 0.03, (5, 3))
            ]
        )
        found = extract_reflector(frame)
        assert np.linalg.norm(found - strong) < 0.01

    def test_invariant_to_low_rcs_clutter_anywhere(self):
        rng = np.random.default_rng(7)
        center = np.array([9.0, -0.5, 0.3])
        base_frame = frame_of(self.blob(center, rng))
        baseline = extract_reflector(base_frame)
        for trial in range(5):
            extra = self.clutter(np.random.default_rng(100 + trial), n=80)
            noisy = frame_of(base_frame.returns.tolist() + extra)
            assert np.array_equal(extract_reflector(noisy), baseline)
