import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselab.space import (
    _quasi_triangle_constant,
    build_explicit_space,
    build_grid_space,
    doubling_constant,
    space_from_descriptor,
    space_from_json,
    space_to_descriptor,
    space_to_json,
)


def oracle_doubling(metric, masses):
    """Independent brute force: dense radius probe including plateau interiors."""
    n = len(masses)
    masses = np.asarray(masses, dtype=float)
    breakpoints = sorted({0.0} | {float(d) for d in np.unique(metric)}
                         | {float(d) / 2 for d in np.unique(metric)})
    probes = list(breakpoints)
    probes += [(a + b) / 2 for a, b in zip(breakpoints, breakpoints[1:])]
    probes.append(breakpoints[-1] * 2 + 1)
    best = 1.0
    for x in range(n):
        for r in probes:
            inner = masses[metric[x] <= r].sum()
            outer = masses[metric[x] <= 2 * r].sum()
            best = max(best, outer / inner)
    return best


def reference_doubling(space):
    """The sorted-candidate scan the ball-index scan replaced: every
    radius in {0} + {d} + {d/2} from each center, deduplicated by
    np.unique, with both ball masses looked up in the prefix row."""
    best = 1.0
    for x in range(space.n):
        _, d, prefix = space._sorted_row(x)
        cand = np.unique(np.concatenate([[0.0], d, 0.5 * d]))
        inner = prefix[np.searchsorted(d, cand, side="right") - 1]
        outer = prefix[np.searchsorted(d, 2.0 * cand, side="right") - 1]
        best = max(best, float(np.max(outer / inner)))
    return best


def quasi_triangle_loops(metric):
    """Triple-loop oracle: max of d(x, y) / (d(x, z) + d(z, y)), at least 1."""
    n = metric.shape[0]
    best = 1.0
    for x in range(n):
        for y in range(n):
            dxy = metric[x, y]
            if dxy <= 0.0:
                continue
            for z in range(n):
                denom = metric[x, z] + metric[z, y]
                if denom > 0.0:
                    ratio = dxy / denom
                    if ratio > best:
                        best = ratio
    return best


class TestGridSpace:
    def test_single_point(self):
        sp = build_grid_space(1, [1.0])
        assert sp.n == 1
        assert sp.a0 == 1.0
        assert doubling_constant(sp) == 1.0

    def test_uniform_n8_metric(self):
        sp = build_grid_space(8)
        assert sp.metric[0, 7] == pytest.approx(7 / 8)
        assert sp.total_mass == 8.0
        assert sp.a0 == 1.0

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            build_grid_space(3)
        with pytest.raises(ValueError):
            build_grid_space(0)
        with pytest.raises(ValueError):
            build_grid_space(4, [1.0, 2.0, 0.0, 1.0])


class TestBalls:
    def test_radius_zero(self):
        sp = build_grid_space(8)
        b = sp.ball(3, 0.0)
        assert b.members.tolist() == [3]

    def test_uniform_n8_radius_3_8(self):
        sp = build_grid_space(8)
        b = sp.ball(0, 3 / 8)
        assert b.members.tolist() == [0, 1, 2, 3]

    def test_radius_at_least_diameter(self):
        sp = build_grid_space(8)
        assert sp.ball(5, 1.0).members.tolist() == list(range(8))

    def test_mass_monotone_in_radius(self):
        sp = build_grid_space(16, np.arange(1, 17, dtype=float))
        radii = np.linspace(0, 1.2, 60)
        for x in range(16):
            vals = sp.ball_mass(x, radii)
            assert np.all(np.diff(vals) >= 0)

    def test_ball_mass_rejects_negative_radius(self):
        sp = build_grid_space(8)
        with pytest.raises(ValueError, match="nonnegative"):
            sp.ball_mass(0, -0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            sp.ball_mass(0, np.array([0.0, 0.25, -0.1]))

    def test_ball_mass_rejects_nan_radius(self):
        sp = build_grid_space(8)
        with pytest.raises(ValueError, match="nonnegative"):
            sp.ball_mass(0, np.nan)
        with pytest.raises(ValueError, match="nonnegative"):
            sp.ball_mass(0, np.array([0.0, np.nan, 0.25]))

    def test_ball_rejects_nan_radius(self):
        sp = build_grid_space(8)
        with pytest.raises(ValueError, match="nonnegative"):
            sp.ball(0, np.nan)
        with pytest.raises(ValueError, match="nonnegative"):
            sp.ball(0, float("nan"))

    def test_ball_mass_matches_member_sum(self):
        sp = build_grid_space(8, [1, 2, 3, 4, 5, 6, 7, 8])
        for x in range(8):
            for r in sp.realized_distances(x):
                b = sp.ball(x, float(r))
                assert sp.ball_mass(x, float(r)) == pytest.approx(sp.mass_of(b.members))


class TestDoublingConstant:
    # oracle values frozen from oracle_doubling (independent dense probe):
    # the supremum over all radii is realized on breakpoints {d, d/2}

    def test_masses_1212(self):
        sp = build_grid_space(4, [1, 2, 1, 2])
        expected = oracle_doubling(sp.metric, sp.masses)
        assert expected == 5.0  # frozen: inner {2} mass 1, outer {1,2,3} mass 5
        assert doubling_constant(sp) == expected

    def test_uniform_n8(self):
        sp = build_grid_space(8)
        expected = oracle_doubling(sp.metric, sp.masses)
        assert expected == 3.0  # frozen
        assert 2.0 <= doubling_constant(sp) <= 3.0
        assert doubling_constant(sp) == expected

    def test_two_point_heavy(self):
        metric = np.array([[0.0, 1.0], [1.0, 0.0]])
        sp = build_explicit_space(metric, [1.0, 1e6])
        # light point, r=1/2: inner mass 1, outer (r=1) mass 1+1e6
        assert doubling_constant(sp) == 1.0 + 1e6
        assert oracle_doubling(sp.metric, sp.masses) == 1.0 + 1e6

    def test_random_grids_match_oracle(self):
        rng = np.random.default_rng(7)
        for n in (2, 4, 8, 16):
            masses = np.exp(rng.uniform(-1, 1, size=n))
            sp = build_grid_space(n, masses)
            assert doubling_constant(sp) == pytest.approx(
                oracle_doubling(sp.metric, sp.masses), rel=1e-12
            )


    @pytest.mark.parametrize("kind", ["unit", "uniform", "lognormal"])
    @pytest.mark.parametrize("n", [1, 2, 4, 64, 256, 2048])
    def test_grids_equal_the_sorted_candidate_scan(self, n, kind):
        rng = np.random.default_rng(n)
        masses = {"unit": np.ones(n),
                  "uniform": rng.uniform(0.1, 3.0, size=n),
                  "lognormal": rng.lognormal(0.0, 1.5, size=n)}[kind]
        sp = build_grid_space(n, masses)
        assert doubling_constant(sp) == reference_doubling(sp)

    @pytest.mark.parametrize("kind", ["plane", "plane-squared", "cycle"])
    def test_explicit_spaces_equal_the_sorted_candidate_scan(self, kind):
        # plane distances rarely tie; squared they form a quasi-metric;
        # cycle distances tie everywhere and d/2 is often a distance too,
        # so both balls grow at the same radius
        rng = np.random.default_rng(11)
        n = 40
        if kind == "cycle":
            k = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
            metric = np.minimum(k, n - k).astype(float)
        else:
            pts = rng.uniform(size=(n, 2))
            metric = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
            metric = metric ** (2.0 if kind == "plane-squared" else 1.0)
        sp = build_explicit_space(metric, rng.lognormal(0.0, 1.0, size=n))
        assert doubling_constant(sp) == reference_doubling(sp)


class TestQuasiTriangle:
    def test_grid_is_metric(self):
        sp = build_grid_space(16)
        assert sp.a0 == 1.0

    @pytest.mark.parametrize("n", [1, 2, 16, 64])
    def test_grid_metric_scans_to_one(self, n):
        # grid spaces take a0 = 1 without a runtime check; the exact
        # triple scan confirms it
        sp = build_grid_space(n)
        assert np.all(np.diff(sp.positions) > 0)
        assert _quasi_triangle_constant(sp.metric) == 1.0

    def test_snowflake_square(self):
        # d = euclidean^2 on three collinear points violates the plain
        # triangle inequality; its minimal a0 is 2 on {0, 1, 2} in R
        pts = np.array([0.0, 1.0, 2.0])
        metric = (pts[:, None] - pts[None, :]) ** 2
        sp = build_explicit_space(metric, [1, 1, 1])
        assert sp.a0 == pytest.approx(2.0)

    def test_scan_matches_triple_loop(self):
        above_one = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 11))
            pts = rng.uniform(size=(n, 2))
            power = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
            metric = np.linalg.norm(pts[:, None] - pts[None, :],
                                    axis=-1) ** power
            sp = build_explicit_space(metric, rng.uniform(0.5, 2.0, size=n))
            assert sp.a0 == quasi_triangle_loops(sp.metric)
            above_one += sp.a0 > 1.0
        assert above_one >= 20

    def test_declared_a0_spot_check(self):
        pts = np.array([0.0, 1.0, 2.0])
        metric = (pts[:, None] - pts[None, :]) ** 2
        with pytest.raises(ValueError, match="a0 violated"):
            build_explicit_space(metric, [1, 1, 1], a0=1.0)
        sp = build_explicit_space(metric, [1, 1, 1], a0=2.0)
        assert sp.a0 == 2.0

    @pytest.mark.parametrize("a0", [float("nan"), float("inf"), 0.5])
    def test_declared_a0_must_be_finite_and_at_least_one(self, a0):
        pts = np.array([0.0, 1.0, 2.0])
        metric = np.abs(pts[:, None] - pts[None, :])
        with pytest.raises(ValueError, match="a0 must be a finite number"):
            build_explicit_space(metric, [1, 1, 1], a0=a0)

    def test_rejects_asymmetric(self):
        metric = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            build_explicit_space(metric, [1, 1])

    def test_rejects_zero_off_diagonal(self):
        metric = np.zeros((2, 2))
        with pytest.raises(ValueError, match="requires x=y"):
            build_explicit_space(metric, [1, 1])
        # one zero pair among positive distances
        metric = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0],
                           [1.0, 2.0, 0.0]])
        with pytest.raises(ValueError, match="requires x=y"):
            build_explicit_space(metric, [1, 1, 1])


@st.composite
def random_point_spaces(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    power = draw(st.sampled_from([1.0, 2.0]))
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 1, size=(n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    eucl = np.sqrt((diff**2).sum(axis=2))
    if np.min(eucl + np.eye(n)) <= 1e-6:
        eucl += (1 - np.eye(n)) * 1e-3
    metric = eucl**power
    masses = np.exp(rng.uniform(-1, 1, size=n))
    return metric, masses


@settings(max_examples=40, deadline=None)
@given(random_point_spaces())
def test_doubling_equals_the_sorted_candidate_scan(data):
    metric, masses = data
    sp = build_explicit_space(metric, masses)
    assert doubling_constant(sp) == reference_doubling(sp)


@settings(max_examples=40, deadline=None)
@given(random_point_spaces())
def test_quasi_metric_axioms_hold(data):
    metric, masses = data
    sp = build_explicit_space(metric, masses)
    n = sp.n
    assert np.array_equal(sp.metric, sp.metric.T)
    assert np.all(np.diag(sp.metric) == 0)
    assert sp.a0 >= 1.0
    # exhaustive triple check against the computed constant
    for x in range(n):
        for y in range(n):
            for z in range(n):
                assert sp.metric[x, y] <= sp.a0 * (sp.metric[x, z] + sp.metric[z, y]) * (
                    1 + 1e-12
                )
    assert doubling_constant(sp) >= 1.0


@settings(max_examples=25, deadline=None)
@given(random_point_spaces(), st.integers(min_value=0, max_value=10**6))
def test_ball_membership_monotone(data, salt):
    metric, masses = data
    sp = build_explicit_space(metric, masses)
    x = salt % sp.n
    radii = sorted(sp.realized_distances(x).tolist())
    prev = set()
    for r in radii:
        cur = set(sp.ball(x, r).members.tolist())
        assert prev <= cur
        assert x in cur
        prev = cur


def assert_balls_match_brute_force(sp):
    for x in range(sp.n):
        order, radii, ends = sp.balls(x)
        assert np.array_equal(radii, np.unique(sp.metric[x]))
        assert radii[0] == 0.0
        for r, end in zip(radii, ends):
            members = np.flatnonzero(sp.metric[x] <= r)
            assert np.array_equal(np.sort(order[:end]), members)
            assert sp.ball_mass(x, r) == pytest.approx(
                sp.mass_of(members), rel=1e-12)


def test_explicit_rows_equal_the_dense_tables():
    # the order, sorted-distance and prefix-mass tables explicit spaces
    # once kept, rebuilt whole; coarse rounding makes many ties
    rng = np.random.default_rng(4)
    for n in (1, 2, 7, 30):
        pts = rng.uniform(size=(n, 2))
        metric = np.round(np.linalg.norm(pts[:, None] - pts[None, :],
                                         axis=-1) * 4) / 4
        metric += 0.25 * (1.0 - np.eye(n))
        masses = rng.lognormal(0.0, 1.0, size=n)
        sp = build_explicit_space(metric, masses)
        order = np.argsort(metric, axis=1, kind="stable")
        dists = np.take_along_axis(metric, order, axis=1)
        prefix = np.cumsum(masses[order], axis=1)
        assert n < 7 or len(np.unique(metric)) < n * (n - 1) // 2
        for x in range(n):
            row = sp._sorted_row(x)
            assert np.array_equal(row[0], order[x])
            assert np.array_equal(row[1], dists[x])
            assert np.array_equal(row[2], prefix[x])


def test_balls_on_weighted_grid():
    sp = build_grid_space(16, masses=np.linspace(0.5, 3.0, 16))
    assert_balls_match_brute_force(sp)
    order, radii, ends = sp.balls(5)
    assert order[:ends[0]].tolist() == [5]
    assert ends[-1] == 16


@settings(max_examples=25, deadline=None)
@given(random_point_spaces())
def test_balls_on_random_spaces(data):
    metric, masses = data
    assert_balls_match_brute_force(build_explicit_space(metric, masses))


class TestDescriptors:
    def test_grid_round_trip(self):
        sp = build_grid_space(4, [1, 2, 1, 2])
        desc = space_to_descriptor(sp)
        assert desc == {"kind": "grid", "n": 4, "masses": [1.0, 2.0, 1.0, 2.0]}
        sp2 = space_from_descriptor(desc)
        assert np.array_equal(sp2.masses, sp.masses)
        assert np.array_equal(sp2.metric, sp.metric)
        assert space_to_descriptor(sp2) == desc

    def test_decimal_string_masses_bit_exact(self):
        desc = {"kind": "grid", "n": 4, "masses": ["0.1", "2.5", "1", "0.2"]}
        sp = space_from_descriptor(desc)
        out = space_to_descriptor(sp)
        assert out["masses"] == [0.1, 2.5, 1.0, 0.2]
        again = space_from_json(space_to_json(sp))
        assert again.masses.tolist() == sp.masses.tolist()
        # textual round trip is stable from the first dump onward
        assert space_to_json(again) == space_to_json(sp)

    def test_explicit_round_trip(self):
        pts = np.array([0.0, 0.3, 1.0])
        metric = np.abs(pts[:, None] - pts[None, :])
        sp = build_explicit_space(metric, [1.0, 0.5, 2.0])
        text = space_to_json(sp)
        sp2 = space_from_json(text)
        assert np.array_equal(sp2.metric, sp.metric)
        assert space_to_json(sp2) == text

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown space kind"):
            space_from_descriptor({"kind": "torus", "n": 2, "masses": [1, 1]})

    def test_json_is_ascii_sorted(self):
        sp = build_grid_space(2)
        text = space_to_json(sp)
        assert text == json.dumps(json.loads(text), sort_keys=True)
