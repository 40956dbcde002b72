"""Check registry: hand oracles, batteries, reproducibility, errors."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselab import verify
from sparselab.dyadic import (build_standard_lattice, random_sparse_family,
                              select_witnesses, verify_sparse)
from sparselab.operators import (MultiIndexPair, fractional_integral,
                                 fractional_maximal, sparse_endpoint,
                                 sparse_first_order, sparse_higher_order)
from sparselab.space import build_grid_space
from sparselab.verify import (CAOPRO_RATIO_BASELINE, CheckReport, CheckSpec,
                              REGISTRY, _fold, _operator_norm_lower,
                              _ratio, _violates, astar_gate_values,
                              kolmogorov_chain_values, registry_ids,
                              run_check, young_composition_margin)
from sparselab.weights import (ExponentConfig, astar_from_duals,
                               holder_sides, young_llogl)

ALL_IDS = [
    "bloom_iterated",
    "bloom_maximal",
    "bmo_lemmas",
    "caopro_norm_transfer",
    "dyadic_maximal",
    "dyadicsum_equiv",
    "endpoint_weak",
    "holder_eq",
    "kolmogorov_sum",
    "m_vs_i",
    "sharp_maximal_commutator",
    "testing_lemma",
    "thm_astar_chain",
]


class TestRegistry:
    def test_all_ids_present(self):
        assert registry_ids() == ALL_IDS

    def test_modes_frozen(self):
        modes = {cid: REGISTRY[cid].mode for cid in REGISTRY}
        assert modes == {
            "holder_eq": "exact",
            "dyadic_maximal": "explicit-constant",
            "thm_astar_chain": "explicit-constant",
            "dyadicsum_equiv": "ratio-monitor",
            "kolmogorov_sum": "ratio-monitor",
            "testing_lemma": "explicit-constant",
            "endpoint_weak": "ratio-monitor",
            "m_vs_i": "explicit-constant",
            "bmo_lemmas": "ratio-monitor",
            "caopro_norm_transfer": "ratio-monitor",
            "bloom_maximal": "ratio-monitor",
            "bloom_iterated": "ratio-monitor",
            "sharp_maximal_commutator": "ratio-monitor",
        }

    def test_unknown_id_lists_valid_ids(self):
        with pytest.raises(ValueError) as err:
            run_check(CheckSpec("no_such_check"))
        message = str(err.value)
        assert "no_such_check" in message
        assert "holder_eq" in message
        assert "bloom_iterated" in message

    def test_zero_trials_takes_registry_default(self):
        report = run_check(CheckSpec("holder_eq", trials=0))
        assert report.trials == REGISTRY["holder_eq"].default_trials

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trials must be >= 0"):
            run_check(CheckSpec("holder_eq", trials=-5))


class TestReports:
    @pytest.mark.parametrize("lhs,rhs,bad", [
        (1.0, 1.0, False), (1.0 + 1e-12, 1.0, False), (1.1, 1.0, True),
        (0.0, 0.0, False), (math.nan, 1.0, True), (1.0, math.nan, True),
        (math.inf, 1.0, True), (math.inf, math.inf, True),
        (1.0, math.inf, True), (-math.inf, 0.0, True)])
    def test_violates_counts_nan(self, lhs, rhs, bad):
        assert _violates(lhs, rhs) is bad

    @pytest.mark.parametrize("acc,value,pick,want", [
        (1.0, 2.0, max, 2.0), (2.0, 1.0, max, 2.0), (1.0, math.nan, max, None),
        (math.nan, 2.0, max, None), (1.0, math.inf, max, math.inf),
        (1.0, 0.5, min, 0.5), (1.0, math.nan, min, None),
        (math.nan, 0.5, min, None)])
    def test_fold_keeps_nan(self, acc, value, pick, want):
        got = _fold(acc, value, pick)
        assert math.isnan(got) if want is None else got == want

    def test_nan_trial_ratio_fails_the_check(self, monkeypatch):
        # one NaN entry of the maximal function in trial 1 makes that
        # trial's ratio NaN; it must fail the check and set worst_ratio
        calls = []

        def poisoned(space, fs, eta=0.0):
            out = fractional_maximal(space, fs, eta=eta)
            calls.append(None)
            if len(calls) == 2:
                out[3] = math.nan
            return out

        monkeypatch.setattr(verify, "fractional_maximal", poisoned)
        report = run_check(CheckSpec("m_vs_i", trials=3))
        assert [f["trial"] for f in report.failures] == [1]
        assert report.failures[0]["point"] == 3
        assert math.isnan(report.worst_ratio)

    def test_pass_iff_failures_empty(self):
        clean = CheckReport("x", "exact", 3)
        assert clean.passed
        dirty = CheckReport("x", "exact", 3, failures=[{"trial": 0}])
        assert not dirty.passed

    def test_descriptor_is_json_safe_and_runtime_opt_in(self):
        report = run_check(CheckSpec("holder_eq", trials=3))
        desc = report.to_descriptor()
        json.dumps(desc)
        assert "runtime_seconds" not in desc
        timed = report.to_descriptor(include_runtime=True)
        assert timed["runtime_seconds"] >= 0.0


def _zero(*args, **kwargs):
    return 0.0


class TestZeroDenominators:
    @pytest.mark.parametrize("lhs,rhs,want", [
        (2.0, 4.0, 0.5), (0.0, 0.0, 0.0), (1e-13, 0.0, 0.0),
        (-1e-13, 0.0, 0.0), (1.0, 0.0, math.inf), (math.nan, 0.0, None),
        (1.0, math.nan, None), (math.nan, 1.0, None),
        (math.inf, 0.0, math.inf)])
    def test_ratio_convention(self, lhs, rhs, want):
        got = _ratio(lhs, rhs)
        assert math.isnan(got) if want is None else got == want

    @pytest.mark.parametrize("sides,worst,failed", [
        ((0.0, 0.0), 0.0, []), ((1.0, 0.0), math.inf, [0, 1])])
    def test_holder_zero_rhs_is_recorded(self, monkeypatch, sides, worst,
                                         failed):
        monkeypatch.setattr(verify, "holder_sides", lambda *args: sides)
        report = run_check(CheckSpec("holder_eq", trials=2))
        assert report.worst_ratio == worst
        assert [f["trial"] for f in report.failures] == failed
        assert all(f["seed"] == 1 and f["n"] == 16 for f in report.failures)

    @pytest.mark.parametrize("check_id,name,worst", [
        ("dyadic_maximal", "_lp_norm", 0.0),
        # every ratio is 0, so 1 / ratio_inf is inf
        ("dyadicsum_equiv", "_lp_norm", math.inf),
        # rhs = 0 under a positive lhs
        ("testing_lemma", "astar_from_duals", math.inf)])
    def test_zero_factor_ratios(self, monkeypatch, check_id, name, worst):
        monkeypatch.setattr(verify, name, _zero)
        assert run_check(CheckSpec(check_id, trials=2)).worst_ratio == worst

    def test_dyadicsum_zero_ratio_inf_fails(self, monkeypatch):
        monkeypatch.setattr(verify, "_lp_norm", _zero)
        report = run_check(CheckSpec("dyadicsum_equiv", trials=2))
        assert report.details["ratio_inf"] == 0.0
        assert report.passed is False
        assert report.failures == [{"trial": "ratio-inf", "ratio_inf": 0.0}]

    def test_bmo_zero_functions_do_not_raise(self, monkeypatch):
        monkeypatch.setattr(verify, "_random_function",
                            lambda rng, n, floor=0.0: np.zeros(n))
        report = run_check(CheckSpec("bmo_lemmas", trials=1))
        assert report.details["upper_gauge_constant"] == 0.0
        assert report.details["lower_bound_worst"] == 0.0

    def test_bmo_zero_gauge_fails_the_lower_bound(self, monkeypatch):
        monkeypatch.setattr(verify, "luxemburg_norm",
                            lambda lattice, f, phi: np.zeros(
                                len(lattice.cubes)))
        report = run_check(CheckSpec("bmo_lemmas", trials=1))
        assert report.details["lower_bound_worst"] == math.inf
        assert {f["part"] for f in report.failures} == {"mean below gauge"}


class TestHolderCheck:
    def test_all_ones_equality(self):
        space = build_grid_space(8)
        members = np.array([2, 3, 5])
        ones = np.ones(8)
        lhs, rhs = holder_sides(space, members, [ones, ones],
                                (2.0, 4.0), 1.0)
        assert lhs == pytest.approx(3.0, rel=1e-12)
        assert rhs == pytest.approx(3.0, rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_all_ones_equality_random_sets(self, seed):
        rng = np.random.default_rng(seed)
        space = build_grid_space(16)
        m = int(rng.integers(1, 4))
        p = tuple(float(rng.choice((1.5, 2.0, 4.0))) for _ in range(m))
        q = 1.0 / (sum(1.0 / v for v in p) * float(rng.uniform(0.3, 1.0)))
        size = int(rng.integers(1, 17))
        members = np.sort(rng.choice(16, size=size, replace=False))
        ones = np.ones(16)
        lhs, rhs = holder_sides(space, members, [ones] * m, p, q)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_battery_clean(self):
        report = run_check(CheckSpec("holder_eq"))
        assert report.passed
        assert report.worst_ratio <= 1.0 + 1e-10


class TestDyadicMaximalCheck:
    def test_n32_battery_clean(self):
        report = run_check(CheckSpec("dyadic_maximal",
                                     space=build_grid_space(32), seed=1))
        assert report.trials == 500
        assert report.passed
        assert report.worst_ratio <= 1.0


class TestAstarChain:
    def test_hand_gate_rows(self):
        sides, _ = astar_gate_values()
        assert sides["lhs"] == pytest.approx(math.sqrt(17.0), rel=1e-12)
        assert sides["astar"] == pytest.approx(1.0, rel=1e-12)
        assert sides["cb"] == pytest.approx(2.0, rel=1e-12)
        pairings = {row["cube"]: row["pairing"] for row in sides["rows"]}
        assert sorted(pairings.values()) == pytest.approx([3.0, 5.0, 8.0],
                                                          rel=1e-12)
        per_cube = sorted((row["lhs"], row["rhs"]) for row in sides["rows"])
        assert per_cube[0] == pytest.approx((1.5, 1.5), rel=1e-12)
        assert per_cube[1] == pytest.approx((7.5, 7.5), rel=1e-12)
        assert per_cube[2] == pytest.approx((8.0, 8.0), rel=1e-12)
        assert sides["g_sum"] == pytest.approx(16.5, rel=1e-12)
        assert sides["slot_sums"][0] == pytest.approx(4.5, rel=1e-12)
        assert sides["c_explicit"] == pytest.approx(8.0, rel=1e-12)
        assert sides["composed_rhs"] == pytest.approx(8.0 * math.sqrt(6.0),
                                                      rel=1e-12)

    def test_default_battery_clean(self):
        report = run_check(CheckSpec("thm_astar_chain", trials=200))
        assert report.trials == 200
        assert report.passed
        assert report.details["gate"] == "passed"
        assert report.explicit_constant == pytest.approx(16.0 * math.sqrt(2))

    def test_endpoint_target_config(self):
        cfg = ExponentConfig(2, (2.0, 2.0), 1.0, gamma=1.0)
        report = run_check(CheckSpec("thm_astar_chain", config=cfg,
                                     trials=50))
        assert report.passed

    def test_sub_one_gamma(self):
        cfg = ExponentConfig(2, (2.0, 2.0), 2.0, gamma=0.5)
        report = run_check(CheckSpec("thm_astar_chain", config=cfg,
                                     trials=50))
        assert report.passed


class TestDyadicsumEquiv:
    def test_battery_two_sided(self):
        report = run_check(CheckSpec("dyadicsum_equiv"))
        assert report.passed
        sup, inf = report.details["ratio_sup"], report.details["ratio_inf"]
        assert 0.0 < inf <= sup < math.inf
        assert report.worst_ratio == pytest.approx(max(sup, 1.0 / inf))

    def test_refinement_drift_within_factor_two(self):
        coarse = run_check(CheckSpec("dyadicsum_equiv",
                                     space=build_grid_space(16)))
        fine = run_check(CheckSpec("dyadicsum_equiv",
                                   space=build_grid_space(64)))
        drift = fine.worst_ratio / coarse.worst_ratio
        assert 0.5 <= drift <= 2.0


class TestKolmogorovSum:
    def test_chain_is_partial_geometric_series(self):
        chain = kolmogorov_chain_values(16, 0.25, 0.25)
        expected = math.fsum(0.5 ** (k * 0.5) for k in range(5))
        assert chain["ratio"] == pytest.approx(expected, rel=1e-12)
        assert chain["ratio"] == pytest.approx(2.8106601717798214, rel=1e-12)
        assert chain["partial_sum"] == pytest.approx(chain["ratio"],
                                                     rel=1e-12)
        assert chain["geometric_bound"] == pytest.approx(3.414213562373095,
                                                         rel=1e-12)
        assert chain["proof_bound"] == pytest.approx(4.0, rel=1e-12)
        assert chain["ratio"] < chain["geometric_bound"]

    def test_battery_holds_proof_constant(self):
        report = run_check(CheckSpec("kolmogorov_sum"))
        assert report.passed
        assert math.isfinite(report.worst_ratio)
        assert report.details["worst_vs_proof_constant"] <= 1.0 + 1e-10


class TestTestingLemma:
    def test_constant_one_regime_clean(self):
        report = run_check(CheckSpec("testing_lemma"))
        assert report.passed
        assert report.details["asserting"] is True
        assert report.explicit_constant == 1.0
        assert report.worst_ratio <= 1.0 + 1e-10

    def test_chain_refutes_constant_one_above_gamma(self):
        # nested chain, all-ones data: the stacked sum squares to 83
        # while the plain tail is 31, so the ratio exceeds one
        space = build_grid_space(16)
        lattice = build_standard_lattice(space)
        ids = [gen[0] for gen in lattice.generations]
        family = select_witnesses(lattice, ids, 0.5)
        ones = np.ones(16)
        astar = astar_from_duals(lattice, ones, [ones, ones],
                                 (4.0, 4.0), 2.0)
        assert astar == pytest.approx(1.0, rel=1e-12)
        stacked = np.zeros(16)
        tail = 0.0
        for cid in family.cube_ids:
            mem = lattice.cube(cid).members
            stacked[mem] += 1.0
            tail += float(np.sum(space.masses[mem]))
        lhs_sq = float(np.sum(stacked ** 2 * space.masses))
        assert lhs_sq == pytest.approx(83.0, rel=1e-12)
        assert tail == pytest.approx(31.0, rel=1e-12)
        assert math.sqrt(lhs_sq) > math.sqrt(tail)

    def test_above_gamma_monitored_not_asserted(self):
        cfg = ExponentConfig(2, (4.0, 4.0), 2.0, gamma=1.0)
        report = run_check(CheckSpec("testing_lemma", config=cfg,
                                     trials=20))
        assert report.passed
        assert report.details["asserting"] is False
        assert report.explicit_constant is None
        assert report.details["worst_dual_ratio"] > 0.0

    def test_wrong_slot_count_rejected(self):
        cfg = ExponentConfig(3, (2.0, 2.0, 2.0), 1.0)
        with pytest.raises(ValueError, match="two-slot"):
            run_check(CheckSpec("testing_lemma", config=cfg))


class TestEndpointWeak:
    def test_young_composition_margins(self):
        for r in (1.0, 2.0, 3.0):
            margin = young_composition_margin(r)
            assert margin["violations"] == 0
            assert margin["bound"] == pytest.approx((r + 1.0) ** r)
            assert margin["max_ratio"] <= 1.0

    def test_young_spot_value(self):
        phi = young_llogl(1.0)
        inner = phi.value(math.e)
        assert inner == pytest.approx(2.0 * math.e, rel=1e-12)
        lhs = phi.value(inner)
        assert lhs == pytest.approx(2.0 * math.e * (2.0 + math.log(2.0)),
                                    rel=1e-12)
        rhs = 2.0 * young_llogl(2.0).value(math.e)
        assert rhs == pytest.approx(8.0 * math.e, rel=1e-12)
        assert lhs < rhs

    def test_battery_finite(self):
        report = run_check(CheckSpec("endpoint_weak"))
        assert report.passed
        assert math.isfinite(report.worst_ratio)
        assert len(report.details["young_margins"]) == 3
        assert report.explicit_constant == pytest.approx(64.0)


class TestMaximalVsIntegral:
    def test_point_mass_equality(self):
        # one point mass in each slot: the smallest ball through the
        # mass realizes both the sup and the dominant kernel term, so
        # the two sides agree exactly with constant m^(m - eta)
        space = build_grid_space(4)
        spike = np.zeros(4)
        spike[0] = 1.0
        fs = [spike, spike]
        maximal = fractional_maximal(space, fs, eta=1.0)
        integral = fractional_integral(space, fs, 1.0)
        np.testing.assert_allclose(
            maximal, [1.0, 1.0 / 3.0, 0.25, 0.25], rtol=1e-12)
        np.testing.assert_allclose(
            integral, [0.5, 1.0 / 6.0, 0.125, 0.125], rtol=1e-12)
        np.testing.assert_allclose(maximal, 2.0 * integral, rtol=1e-12)

    def test_battery_clean(self):
        report = run_check(CheckSpec("m_vs_i"))
        assert report.passed
        assert report.worst_ratio <= 1.0 + 1e-10


class TestBmoLemmas:
    def test_battery_clean_with_empirical_constants(self):
        report = run_check(CheckSpec("bmo_lemmas"))
        assert report.passed
        assert report.details["lower_bound_worst"] <= 1.0 + 1e-10
        for key in ("upper_gauge_constant", "oscillation_constant",
                    "exponential_gauge_constant",
                    "product_split_constant"):
            assert math.isfinite(report.details[key])
            assert report.details[key] > 0.0


class TestOscillationForm:
    def test_single_cube_constant_output(self):
        space = build_grid_space(4)
        lattice = build_standard_lattice(space)
        family = select_witnesses(lattice, [lattice.generations[0][0]], 0.5)
        ones = np.ones(4)
        symbol = np.array([1.0, -1.0, 1.0, -1.0])
        out = sparse_endpoint(
            family, [ones, ones], tau=(0,), eta=0.0, r=1.0,
            symbols=[symbol, ones], osc_slots=(0,), scales=[3.0, 5.0])
        np.testing.assert_allclose(out, np.full(4, 5.0), rtol=1e-8)

    def test_oscillation_outside_tau_rejected(self):
        space = build_grid_space(4)
        lattice = build_standard_lattice(space)
        family = select_witnesses(lattice, [lattice.generations[0][0]], 0.5)
        ones = np.ones(4)
        with pytest.raises(ValueError, match="inside tau"):
            sparse_endpoint(family, [ones, ones], tau=(0,),
                            symbols=[ones, ones], osc_slots=(1,))


class TestNormEstimator:
    def test_single_slot_linear_matches_svd(self):
        rng = np.random.default_rng(3)
        space = build_grid_space(8)
        kernel = rng.uniform(0.1, 1.0, size=(8, 8))
        w = rng.uniform(0.5, 2.0, size=8)
        u = rng.uniform(0.5, 2.0, size=8)
        mass = space.masses
        scaled = (np.sqrt(u * mass)[:, None] * kernel /
                  np.sqrt(w * mass)[None, :])
        exact = float(np.linalg.svd(scaled, compute_uv=False)[0])
        est = _operator_norm_lower(
            space, lambda fs: kernel @ fs[0], 1, [w], (2.0,), u, 2.0,
            np.random.default_rng(0), starts=2, rounds=4)
        assert est <= exact * (1.0 + 1e-9)
        assert est >= 0.95 * exact


def _per_probe_norm_lower(space, apply_fn, m, in_weights, p, out_weight, q,
                          rng, starts=2, rounds=3):
    """Reference: _operator_norm_lower with each slot kernel stacked from n
    single-column probes."""
    n = space.n
    mass = space.masses
    basis = np.eye(n)
    best = 0.0
    for _ in range(starts):
        fs = []
        for i in range(m):
            f = np.abs(rng.standard_normal(n)) + 1e-3
            fs.append(f / verify._lp_norm(space, f, in_weights[i], p[i]))
        best = max(best, verify._lp_norm(space, apply_fn(fs), out_weight, q))
        for _ in range(rounds):
            for i in range(m):
                cols = []
                for y in range(n):
                    probe = list(fs)
                    probe[i] = basis[y]
                    cols.append(apply_fn(probe))
                kernel = np.stack(cols, axis=1)
                out = kernel @ fs[i]
                lifted = np.where(out > 0, out, 0.0) ** (q - 1.0)
                grad = kernel.T @ (lifted * out_weight * mass)
                dens = np.maximum(grad, 0.0) / (in_weights[i] * mass)
                if p[i] == 1.0:
                    f_new = np.zeros(n)
                    f_new[int(np.argmax(dens))] = 1.0
                else:
                    f_new = dens ** (1.0 / (p[i] - 1.0))
                nrm = verify._lp_norm(space, f_new, in_weights[i], p[i])
                if nrm > 0:
                    fs[i] = f_new / nrm
            best = max(best, verify._lp_norm(space, apply_fn(fs),
                                             out_weight, q))
    return best


class TestBatchedNormEstimator:
    """One identity-block call per slot kernel gives the same estimate,
    bit for bit, as n single-column probes."""

    def test_probe_chunks_keep_the_report(self, monkeypatch):
        # the identity goes in fixed column chunks; columns are
        # independent, so the chunk width cannot move any number
        spec = CheckSpec("caopro_norm_transfer", space=build_grid_space(16),
                         trials=2)
        want = run_check(spec).to_descriptor()
        monkeypatch.setattr(verify, "_PROBE_COLUMNS", 5)
        assert run_check(spec).to_descriptor() == want

    def _setup(self, m):
        rng = np.random.default_rng(21)
        masses = rng.uniform(0.5, 2.0, 16)
        lattice = build_standard_lattice(build_grid_space(16, masses))
        family = random_sparse_family(lattice, rng)
        weights = [rng.uniform(0.5, 2.0, 16) for _ in range(m + 1)]
        bs = [rng.standard_normal(16) for _ in range(m)]
        return lattice.space, family, weights[:m], weights[m], bs

    def _assert_same(self, space, fn, cfg, ins, out, **probe):
        new = _operator_norm_lower(space, fn, cfg.m, ins, cfg.p, out, cfg.q,
                                   np.random.default_rng(5), **probe)
        ref = _per_probe_norm_lower(space, fn, cfg.m, ins, cfg.p, out, cfg.q,
                                    np.random.default_rng(5), **probe)
        assert new > 0
        assert new == ref

    @pytest.mark.parametrize("tau", [(0,), (0, 1)])
    def test_caopro_commutator(self, tau):
        cfg = ExponentConfig(2, (2.0, 2.0), 2.0)
        space, family, ins, out, bs = self._setup(cfg.m)

        def commutator(fs):
            return sparse_first_order(family, fs, bs, tau, tau, eta=cfg.eta,
                                      r=1.0)

        self._assert_same(space, commutator, cfg, ins, out)

    @pytest.mark.parametrize("preset", verify._BLOOM_ITER_PRESETS)
    def test_bloom_iterated_oscillated(self, preset):
        cfg = ExponentConfig(4, (2.0,) * 4, 2.0)
        space, family, ins, out, bs = self._setup(cfg.m)
        pair = MultiIndexPair(*preset, preset[2])

        def oscillated(fs):
            return sparse_higher_order(family, fs, bs, pair, eta=cfg.eta,
                                       r=1.0)

        self._assert_same(space, oscillated, cfg, ins, out, starts=1,
                          rounds=2)


class TestRandomFamilies:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_always_witness_sparse(self, seed):
        space = build_grid_space(16)
        lattice = build_standard_lattice(space)
        family = random_sparse_family(lattice,
                                       np.random.default_rng(seed))
        assert verify_sparse(family).ok
        assert family.delta == 0.5

    def test_families_realize_nesting(self):
        space = build_grid_space(16)
        lattice = build_standard_lattice(space)
        leaves = set(lattice.generations[-1])
        nested = 0
        for seed in range(30):
            family = random_sparse_family(lattice,
                                           np.random.default_rng(seed))
            gens = {lattice.cube(cid).gen for cid in family.cube_ids}
            if len(gens) > 1 and set(family.cube_ids) - leaves:
                nested += 1
        assert nested > 10


class TestReproducibility:
    @pytest.mark.parametrize("check_id", ["dyadicsum_equiv",
                                          "kolmogorov_sum"])
    def test_rerun_bit_identical(self, check_id):
        first = run_check(CheckSpec(check_id)).to_descriptor()
        second = run_check(CheckSpec(check_id)).to_descriptor()
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)

    def test_seed_matters(self):
        one = run_check(CheckSpec("dyadicsum_equiv", seed=1))
        two = run_check(CheckSpec("dyadicsum_equiv", seed=2))
        assert one.worst_ratio != two.worst_ratio


class TestHeavyMonitors:
    def test_caopro_under_baseline(self):
        report = run_check(CheckSpec("caopro_norm_transfer"))
        assert report.passed
        assert report.worst_ratio <= CAOPRO_RATIO_BASELINE
        assert report.worst_ratio > 0.0

    def test_bloom_maximal_runs(self):
        report = run_check(CheckSpec("bloom_maximal", trials=3))
        assert report.passed
        assert math.isfinite(report.worst_ratio)
        json.dumps(report.to_descriptor())

    def test_bloom_iterated_runs(self):
        report = run_check(CheckSpec("bloom_iterated", trials=2))
        assert report.passed
        assert math.isfinite(report.worst_ratio)

    def test_sharp_maximal_nonvacuous(self):
        report = run_check(CheckSpec("sharp_maximal_commutator", trials=4))
        assert report.passed
        assert report.worst_ratio > 0.0
