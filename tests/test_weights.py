"""Weight characteristics, Orlicz norms, presets."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselab.dyadic import build_standard_lattice
from sparselab import weights
from sparselab.space import build_grid_space
from sparselab.weights import (
    ExponentConfig,
    avg,
    astar_from_duals,
    bmo_norm,
    component_hruscev_constant,
    component_wilson_constant,
    conjugate_exponent,
    dual_weight,
    fractional_apq_constant,
    fujii_wilson_constant,
    fujii_wilson_single,
    hruscev_constant,
    joint_astar_constant,
    luxemburg_norm,
    make_weight,
    muckenhoupt_ap,
    young_expl,
    young_identity,
    young_llogl,
    young_power_log,
)

STEP8 = np.array([1.0, 1, 1, 1, 2, 2, 2, 2])

class LLogLConjugate:
    """Convex conjugate of t(1 + log+ t): flat to 1, linear to 2, then
    exponential.  A test-local gauge: luxemburg_norm reads only .value."""

    @staticmethod
    def value(t):
        t = np.asarray(t, dtype=np.float64)
        return np.where(t <= 1.0, 0.0,
                        np.where(t <= 2.0, t - 1.0,
                                 np.exp(np.minimum(t, 700.0) - 2.0)))


def lat8():
    return build_standard_lattice(build_grid_space(8))


def oracle_a2(lattice, w):
    best = 0.0
    sp = lattice.space
    for cid, mass in enumerate(lattice.mass.tolist()):
        mem = lattice.members(cid)
        mean = math.fsum(w[i] * sp.masses[i] for i in mem) / mass
        dual = math.fsum(sp.masses[i] / w[i] for i in mem) / mass
        best = max(best, mean * dual)
    return best


def oracle_luxemburg(space, members, f, phi):
    members = np.asarray(members, dtype=np.intp)
    vals = np.abs(np.asarray(f, dtype=np.float64)[members])
    mass = space.masses[members]
    total = mass.sum()

    def mean_phi(lam):
        return float(np.dot(phi.value(vals / lam), mass)) / total

    lams = np.geomspace(1e-6, 1e6, 2401)
    feas = np.array([mean_phi(l) <= 1.0 for l in lams])
    idx = int(np.argmax(feas))
    lo, hi = lams[idx - 1], lams[idx]
    for _ in range(4):
        grid = np.linspace(lo, hi, 1001)
        feas = np.array([mean_phi(l) <= 1.0 for l in grid])
        idx = int(np.argmax(feas))
        lo, hi = grid[idx - 1], grid[idx]
    return hi


class TestExponentConfig:
    def test_derived_eta(self):
        cfg = ExponentConfig(2, (2, 2), 4 / 3)
        assert cfg.eta == pytest.approx(0.25, abs=1e-15)
        assert cfg.q0 == pytest.approx(4 / 7)
        assert cfg.theta == 1.0
        assert cfg.beta == pytest.approx(1.5)

    def test_eta_assertion(self):
        ExponentConfig(1, (2,), 2, eta=0.0)
        with pytest.raises(ValueError):
            ExponentConfig(1, (2,), 2, eta=0.1)

    def test_eta_range(self):
        with pytest.raises(ValueError):
            ExponentConfig(1, (4,), 2)  # eta = -1/4
        with pytest.raises(ValueError):
            ExponentConfig(1, (1,), 0.5)  # eta = -1 wraps below zero

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            ExponentConfig(2, (2,), 2)
        with pytest.raises(ValueError):
            ExponentConfig(1, (0.5,), 1)

    def test_conjugates(self):
        assert conjugate_exponent(2) == 2
        assert conjugate_exponent(1) == math.inf
        assert conjugate_exponent(4) == pytest.approx(4 / 3)
        assert conjugate_exponent(math.inf) == 1.0


class TestAverages:
    def test_avg_plain(self):
        sp = build_grid_space(4)
        assert avg(sp, [0, 1, 2, 3], [1, 2, 3, 4]) == 2.5

    def test_avg_power(self):
        sp = build_grid_space(2)
        assert avg(sp, [0, 1], [3, 4], p=2.0) == pytest.approx(
            math.sqrt(12.5))

    def test_avg_uses_abs(self):
        sp = build_grid_space(2)
        assert avg(sp, [0, 1], [-3, 3]) == 3.0


class TestClassicalConstants:
    def test_a2_step_frozen(self):
        lat = lat8()
        val = muckenhoupt_ap(lat, STEP8, 2)
        assert val == pytest.approx(1.125, abs=1e-12)
        assert val == pytest.approx(oracle_a2(lat, STEP8), rel=1e-12)

    def test_a2_detail_names_root(self):
        lat = lat8()
        val, cid = muckenhoupt_ap(lat, STEP8, 2, detail=True)
        assert lat.gen[cid] == 0

    def test_a1_step_frozen(self):
        assert muckenhoupt_ap(lat8(), STEP8, 1) == pytest.approx(1.5)

    def test_constant_weight_gives_one(self):
        lat = lat8()
        for p in (1, 1.5, 2, 4):
            assert muckenhoupt_ap(lat, np.full(8, 3.0), p) == pytest.approx(
                1.0, abs=1e-12)

    def test_dual_weight_involution(self):
        w = np.exp(np.random.default_rng(0).uniform(-1, 1, 8))
        for p in (1.5, 2.0, 3.0):
            again = dual_weight(dual_weight(w, p), conjugate_exponent(p))
            assert np.allclose(again, w, rtol=1e-12)

    def test_rejects_bad_weight(self):
        lat = lat8()
        with pytest.raises(ValueError):
            muckenhoupt_ap(lat, np.zeros(8), 2)
        with pytest.raises(ValueError):
            muckenhoupt_ap(lat, np.ones(4), 2)


class TestJointConstants:
    @pytest.mark.parametrize("m,p,q", [
        (1, (2.0,), 2.0),
        (1, (1.0,), 2.0),
        (2, (2.0, 2.0), 2.0),
        (2, (2.0, 4.0), 4 / 3),
        (3, (2.0, 3.0, 6.0), 1.5),
    ])
    def test_identity_between_forms(self, m, p, q):
        lat = lat8()
        rng = np.random.default_rng(42)
        ws = [np.exp(rng.uniform(-1, 1, 8)) for _ in range(m)]
        u = np.prod([w ** (q / pi) for w, pi in zip(ws, p)], axis=0)
        lhs = fractional_apq_constant(
            lat, [w ** (1 / pi) for w, pi in zip(ws, p)], p, q,
            u=u ** (1 / q)) ** q
        rhs = joint_astar_constant(lat, ws, p, q)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_duals_form_matches(self):
        lat = lat8()
        rng = np.random.default_rng(3)
        p, q = (2.0, 4.0), 4 / 3
        ws = [np.exp(rng.uniform(-1, 1, 8)) for _ in range(2)]
        u = np.prod([w ** (q / pi) for w, pi in zip(ws, p)], axis=0)
        sigmas = [dual_weight(w, pi) for w, pi in zip(ws, p)]
        assert astar_from_duals(lat, u, sigmas, p, q) == pytest.approx(
            joint_astar_constant(lat, ws, p, q), rel=1e-12)

    def test_astar_scaling_law(self):
        lat = lat8()
        rng = np.random.default_rng(9)
        ws = [np.exp(rng.uniform(-1, 1, 8)) for _ in range(2)]
        u = np.exp(rng.uniform(-1, 1, 8))
        base = joint_astar_constant(lat, ws, (2, 2), 2, u=u)
        scaled = joint_astar_constant(lat, ws, (2, 2), 2, u=3.0 * u)
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)

    def test_astar_endpoint_p1_frozen(self):
        # q=2, single weight with p=1: sup <w^2> (min w)^(-2)
        val = joint_astar_constant(lat8(), [STEP8], (1.0,), 2.0)
        assert val == pytest.approx(2.5, abs=1e-12)

    def test_default_u_matches_explicit(self):
        lat = lat8()
        rng = np.random.default_rng(5)
        ws = [np.exp(rng.uniform(-1, 1, 8)) for _ in range(2)]
        p, q = (2.0, 2.0), 2.0
        u = np.prod([w ** (q / pi) for w, pi in zip(ws, p)], axis=0)
        assert joint_astar_constant(lat, ws, p, q) == pytest.approx(
            joint_astar_constant(lat, ws, p, q, u=u), rel=1e-14)

    def test_constant_weights_give_one(self):
        lat = lat8()
        ones = np.ones(8)
        assert joint_astar_constant(lat, [ones, ones], (2, 2), 2) == \
            pytest.approx(1.0, abs=1e-12)
        assert fractional_apq_constant(lat, [ones], (2,), 2) ** 2 == \
            pytest.approx(1.0, abs=1e-12)


class TestLimitingConstants:
    def test_fujii_single_frozen(self):
        assert fujii_wilson_single(lat8(), STEP8) == pytest.approx(
            7 / 6, rel=1e-12)

    def test_fujii_multilinear_frozen(self):
        val = fujii_wilson_constant(lat8(), [STEP8, STEP8], (2, 2), 2)
        assert val == pytest.approx(1.25, rel=1e-12)

    def test_hruscev_single_frozen(self):
        val = hruscev_constant(lat8(), [STEP8], (1.0,), 1.0)
        assert val == pytest.approx(1.5 / math.sqrt(2), rel=1e-12)

    def test_hruscev_multilinear_frozen(self):
        val = hruscev_constant(lat8(), [STEP8, STEP8], (2, 2), 2)
        assert val == pytest.approx(1.125, rel=1e-12)

    def test_unit_weights_give_one(self):
        lat = lat8()
        ones = np.ones(8)
        assert fujii_wilson_single(lat, ones) == pytest.approx(1.0)
        assert hruscev_constant(lat, [ones], (1.0,), 1.0) == \
            pytest.approx(1.0)

    def test_component_wilson_trivial_when_q_small(self):
        lat = lat8()
        val = component_wilson_constant(lat, STEP8, [STEP8, STEP8],
                                        (4, 4), 1.0, 1.0, 0)
        assert val == 1.0

    def test_component_wilson_unit_weights(self):
        lat = lat8()
        ones = np.ones(8)
        val = component_wilson_constant(lat, ones, [ones, ones],
                                        (4, 4), 2.0, 1.0, 0)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_component_wilson_step_at_least_one(self):
        lat = lat8()
        val = component_wilson_constant(lat, STEP8, [STEP8, STEP8],
                                        (4, 4), 2.0, 1.0, 1)
        assert val >= 1.0

    def test_component_wilson_needs_room(self):
        lat = lat8()
        with pytest.raises(ValueError):
            component_wilson_constant(lat, STEP8, [STEP8], (1.5,), 3.0,
                                      2.0, 0)

    def test_component_hruscev_unit_weights(self):
        lat = lat8()
        ones = np.ones(8)
        val = component_hruscev_constant(lat, ones, [ones, ones],
                                         (2, 2), 2.0, 1.0, 0)
        assert val == pytest.approx(1.0, rel=1e-12)


class TestBmo:
    def test_indicator_frozen(self):
        b = np.array([0.0, 0, 0, 0, 1, 1, 1, 1])
        assert bmo_norm(lat8(), b) == pytest.approx(0.5, abs=1e-12)

    def test_weighted_frozen(self):
        b = np.array([0.0, 0, 0, 0, 1, 1, 1, 1])
        assert bmo_norm(lat8(), b, weight=np.full(8, 2.0)) == \
            pytest.approx(0.25, abs=1e-12)

    def test_constant_symbol_vanishes(self):
        assert bmo_norm(lat8(), np.full(8, 7.0)) == 0.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(11)
        b = rng.normal(size=8)
        lat = lat8()
        assert bmo_norm(lat, b) == pytest.approx(
            bmo_norm(lat, b + 5.0), rel=1e-9)


def root_gauge(sp, f, phi):
    """Gauge norm of f on the root cube, i.e. over the whole space."""
    return luxemburg_norm(build_standard_lattice(sp), f, phi)[0]


class TestOrlicz:
    def test_llogl_frozen_bracket(self):
        sp = build_grid_space(4)
        norm = root_gauge(sp, [1, 2, 4, 8], young_llogl(1.0))
        assert 4.0 < norm < 5.0
        oracle = oracle_luxemburg(sp, range(4), [1, 2, 4, 8],
                                  young_llogl(1.0))
        assert norm == pytest.approx(oracle, rel=1e-8)

    def test_zero_function(self):
        sp = build_grid_space(4)
        assert root_gauge(sp, np.zeros(4), young_llogl(1.0)) == 0.0

    def test_nan_reads_nan(self):
        sp = build_grid_space(4)
        gauge = luxemburg_norm(build_standard_lattice(sp), [1, np.nan, 2, 3],
                               young_llogl(1.0))
        # root {0..3}, {0, 1}, {2, 3}, then the four points
        assert np.array_equal(np.isnan(gauge),
                              [True, True, False, False, True, False, False])
        assert gauge[2] > 0 and gauge[3] == 1.0 and gauge[6] > 0

    def test_identity_gauge_is_mean(self):
        sp = build_grid_space(8)
        rng = np.random.default_rng(2)
        f = np.abs(rng.normal(size=8))
        norm = root_gauge(sp, f, young_identity())
        assert norm == pytest.approx(f.mean(), rel=1e-9)

    def test_expl_constant_frozen(self):
        sp = build_grid_space(4)
        norm = root_gauge(sp, np.ones(4), young_expl(1.0))
        assert norm == pytest.approx(1.0 / math.log(2.0), rel=1e-9)

    def test_homogeneity(self):
        sp = build_grid_space(8)
        rng = np.random.default_rng(4)
        f = np.abs(rng.normal(size=8)) + 0.1
        phi = young_llogl(2.0)
        a = root_gauge(sp, f, phi)
        b = root_gauge(sp, 3.0 * f, phi)
        assert b == pytest.approx(3.0 * a, rel=1e-8)

    @pytest.mark.parametrize("phi", [young_identity(), young_llogl(1.0)],
                             ids=["identity", "llogl1"])
    def test_ends_of_the_float_range(self, phi):
        # each cube is searched at a top in [1/2, 1) and scaled back, so
        # neither a subnormal nor a near-overflow constant leaves the
        # float range; a constant c has gauge c for both gauges
        lat = build_standard_lattice(build_grid_space(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = luxemburg_norm(lat, [5e-324, 5e-324], phi)
            huge = luxemburg_norm(lat, [1e308, 1e308], phi)
        assert np.array_equal(tiny, np.full(3, 5e-324))
        assert np.all(np.isfinite(huge)) and np.all(huge >= 1e308)
        assert huge == pytest.approx(np.full(3, 1e308), rel=1e-9)

    def test_scaling_keeps_the_unscaled_bits(self):
        # on ordinary data the scaled search reads exactly the gauge of
        # the search on the values as given
        lat = build_standard_lattice(build_grid_space(64))
        rng = np.random.default_rng(42)
        for phi in (young_identity(), young_llogl(1.0), young_llogl(2.0),
                    young_expl(1.0), LLogLConjugate()):
            for scale in (1e-6, 1.0, 3e4):
                f = scale * np.abs(rng.normal(size=64))
                vals = np.abs(np.broadcast_to(f, lat.point_to_cube.shape))
                live = np.ones(len(lat.gen), dtype=bool)
                with np.errstate(over="ignore"):
                    want = weights._gauge_search(lat, vals, phi, live)
                assert np.array_equal(luxemburg_norm(lat, f, phi), want)

    def test_subset_members(self):
        sp = build_grid_space(8)
        f = np.array([9.0, 9, 1, 1, 1, 1, 9, 9])
        lat = build_standard_lattice(sp, shift=2)
        cid = lat.generations[1][1]
        assert lat.members(cid).tolist() == [2, 3, 4, 5]
        inner = luxemburg_norm(lat, f, young_identity())[cid]
        assert inner == pytest.approx(1.0, rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_conjugate_pairing(self, seed):
        sp = build_grid_space(8)
        rng = np.random.default_rng(seed)
        f = np.abs(rng.normal(size=8)) + 1e-3
        g = np.abs(rng.normal(size=8)) + 1e-3
        mem = range(8)
        lhs = avg(sp, mem, f * g)
        rhs = 2.0 * root_gauge(sp, f, young_llogl(1.0)) * \
            root_gauge(sp, g, LLogLConjugate())
        assert lhs <= rhs * (1 + 1e-9)

    def test_pairing_equality_for_constants(self):
        sp = build_grid_space(4)
        f = np.full(4, 3.0)
        g = np.full(4, 5.0)
        lhs = avg(sp, range(4), f * g)
        rhs = 2.0 * root_gauge(sp, f, young_llogl(1.0)) * \
            root_gauge(sp, g, LLogLConjugate())
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_power_log_reduces_to_llogl(self):
        phi_a = young_power_log(1.0, 1.0)
        phi_b = young_llogl(1.0)
        t = np.geomspace(0.01, 100, 50)
        assert np.allclose(phi_a.value(t), phi_b.value(t), rtol=1e-12)

    def test_composition_domination(self):
        # Phi_r(Phi_r(t)) <= (r+1)^r Phi_{2r}(t) sampled on a log grid
        for r in (1.0, 2.0):
            phi_r = young_llogl(r)
            phi_2r = young_llogl(2 * r)
            t = np.geomspace(1e-3, 1e4, 400)
            lhs = phi_r.value(phi_r.value(t))
            rhs = (r + 1) ** r * phi_2r.value(t)
            assert np.all(lhs <= rhs * (1 + 1e-12))


class TestPresets:
    def test_const(self):
        sp = build_grid_space(8)
        assert np.array_equal(make_weight(sp, "const"), np.ones(8))

    def test_step(self):
        sp = build_grid_space(8)
        assert np.array_equal(make_weight(sp, "step"), STEP8)

    def test_power(self):
        sp = build_grid_space(4)
        w = make_weight(sp, "power:2")
        assert w == pytest.approx(((np.arange(4) + 1) / 4.0) ** 2)
        assert np.all(w > 0)

    def test_random_deterministic(self):
        sp = build_grid_space(8)
        a = make_weight(sp, "random:13")
        b = make_weight(sp, "random:13")
        c = make_weight(sp, "random:14")
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.all(a > 0)

    def test_unknown_raises(self):
        sp = build_grid_space(8)
        with pytest.raises(ValueError):
            make_weight(sp, "zigzag")
