"""Acceptance battery: one test per criterion, each with its stated
tolerance and wall-clock budget."""

import json
import math
import time

import numpy as np
import pytest

from sparselab.domination import (augment_sparse, certificate_lhs,
                                  certificate_rhs, cz_construct,
                                  verify_domination)
from sparselab.dyadic import (build_shifted_adjacent, build_standard_lattice,
                              random_sparse_family, verify_sparse)
from sparselab.operators import (MultiIndexPair, commutator_integral,
                                 sparse_first_order, sparse_higher_order,
                                 sparse_operator)
from sparselab.space import build_grid_space
from sparselab.verify import (CheckSpec, _P_CHOICES, _gate_mismatches,
                              astar_gate_values, run_check,
                              young_composition_margin)
from sparselab.weights import (ExponentConfig, conjugate_exponent,
                               fractional_apq_constant, holder_sides,
                               joint_astar_constant)

TOL = 1e-10
EXACT = 1e-12


def _budget(t0, limit, label):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"{label} took {elapsed:.1f}s (budget {limit}s)"
    return elapsed


def test_criterion_1_lattice_axioms():
    t0 = time.perf_counter()
    for n in (2, 4, 8, 16, 32, 64, 128, 256):
        space = build_grid_space(n)
        lattice = build_standard_lattice(space)
        lattice.check_invariants()
        total = float(space.masses.sum())
        for gen in lattice.generations:
            joined = np.sort(np.concatenate([lattice.members(cid)
                                             for cid in gen]))
            assert np.array_equal(joined, np.arange(n))
            assert sum(lattice.mass[gen].tolist()) == total
            for cid in gen:
                parent = lattice.parent.item(cid)
                if parent >= 0:
                    assert set(lattice.members(cid)) <= \
                        set(lattice.members(parent))
    _budget(t0, 5.0, "criterion 1")


def test_criterion_2_sparseness_of_emitted_families():
    t0 = time.perf_counter()
    space = build_grid_space(32)
    systems = build_shifted_adjacent(space, 1)
    pair = MultiIndexPair(k=(1,), t=(0,), tau=(), tau_ell=(0,))
    lattice = systems.lattices[0]
    runs = 0
    for seed in range(60):
        rng = np.random.default_rng((seed, 5))
        fs = [np.abs(rng.standard_normal(32))]
        bs = [rng.standard_normal(32)]
        cert = cz_construct(space, systems, fs, bs, pair, 0.0)
        assert cert.families
        for fam in cert.families:
            assert verify_sparse(fam).ok
        runs += 1
    for seed in range(40):
        rng = np.random.default_rng((seed, 6))
        family = random_sparse_family(lattice, rng)
        assert verify_sparse(family).ok
        augmented, _ = augment_sparse(family, rng.standard_normal(32))
        assert verify_sparse(augmented).ok
        runs += 1
    assert runs >= 100
    _budget(t0, 60.0, "criterion 2")


def test_criterion_3_dyadic_maximal_bound():
    t0 = time.perf_counter()
    assert set(_P_CHOICES) == {1.5, 2.0, 4.0}
    report = run_check(CheckSpec("dyadic_maximal",
                                 space=build_grid_space(32), trials=500,
                                 seed=1))
    assert report.trials == 500
    assert report.failures == []
    assert report.worst_ratio <= 1.0 + TOL
    _budget(t0, 10.0, "criterion 3")


def test_criterion_4_holder_step():
    t0 = time.perf_counter()
    report = run_check(CheckSpec("holder_eq", trials=500, seed=1))
    assert report.failures == []
    assert report.worst_ratio <= 1.0 + TOL
    # constant weights achieve equality
    for n, members in ((8, np.arange(8)), (16, np.array([1, 4, 9, 10]))):
        space = build_grid_space(n)
        ones = np.ones(n)
        lhs, rhs = holder_sides(space, members, [ones, ones, ones],
                                (2.0, 4.0, 4.0), 1.0)
        assert abs(lhs - rhs) <= TOL * rhs
    _budget(t0, 10.0, "criterion 4")


def test_criterion_5_astar_chain_with_explicit_constant():
    t0 = time.perf_counter()
    sides, expected = astar_gate_values()
    assert _gate_mismatches(sides, expected) == []
    configs = [
        ExponentConfig(1, (2.0,), 2.0, gamma=1.0),        # (m, eta) = (1, 0)
        ExponentConfig(2, (2.0, 2.0), 1.0, gamma=1.0),    # (2, 0)
        ExponentConfig(2, (2.0, 2.0), 4.0 / 3.0, gamma=1.0),  # (2, 1/4)
        ExponentConfig(2, (2.0, 2.0), 2.0, gamma=1.0),    # (2, 1/2)
    ]
    expected_eta = [0.0, 0.0, 0.25, 0.5]
    for cfg, eta in zip(configs, expected_eta):
        assert cfg.eta == pytest.approx(eta, abs=EXACT)
        formula = 2.0 ** ((cfg.m - cfg.eta) * cfg.theta
                          * (cfg.beta * cfg.q - 1.0))
        formula *= (cfg.q / cfg.theta)
        for pi in cfg.p:
            formula *= conjugate_exponent(pi) ** cfg.theta
        report = run_check(CheckSpec("thm_astar_chain", config=cfg,
                                     trials=200, seed=1))
        assert report.failures == [], (cfg.m, eta)
        assert report.explicit_constant == pytest.approx(formula,
                                                         rel=EXACT)
    _budget(t0, 120.0, "criterion 5")


def test_criterion_6_pointwise_domination_certificates():
    t0 = time.perf_counter()
    space = build_grid_space(16)
    systems = build_shifted_adjacent(space, 1)
    combos = [
        (1, (0,), 0.0),
        (1, (1,), 0.0),
        (2, (0, 0), 0.25),
        (2, (1, 1), 0.0),
        (2, (2, 1), 0.25),
    ]
    for m, k, eta in combos:
        tau_ell = tuple(i for i, ki in enumerate(k) if ki > 0)
        pair = MultiIndexPair(k=k, t=(0,) * m, tau=(), tau_ell=tau_ell)
        for seed in range(10):
            rng = np.random.default_rng((seed, 5, m, *k))
            fs = [np.abs(rng.standard_normal(16)) for _ in range(m)]
            bs = [rng.standard_normal(16) for _ in range(m)]
            cert = cz_construct(space, systems, fs, bs, pair, eta)
            lhs = certificate_lhs(space, fs, bs, pair, eta)
            rhs = certificate_rhs(space, cert.families, fs, bs, pair, eta)
            verdict = verify_domination(cert, lhs, rhs)
            assert verdict["pass"], (m, k, seed, verdict["violations"][:1])
    _budget(t0, 300.0, "criterion 6")


def test_criterion_7_structural_identities():
    t0 = time.perf_counter()
    space = build_grid_space(16)
    lattice = build_standard_lattice(space)
    p = (2.0, 4.0)
    q = 2.0
    for seed in range(100):
        rng = np.random.default_rng((seed, 3))
        family = random_sparse_family(lattice, rng)
        f = np.abs(rng.standard_normal(16)) + 0.1
        g = np.abs(rng.standard_normal(16)) + 0.1
        b = rng.standard_normal(16)
        eta = float(rng.uniform(0.0, 0.9))

        # reduction chain: trivial higher-order form equals the
        # first-order form with no symbols equals the basic form
        higher = sparse_higher_order(
            family, [f, g], [b, b],
            MultiIndexPair(k=(1, 0), t=(0, 0), tau=(), tau_ell=(0,)),
            eta=eta)
        first = sparse_first_order(family, [f, g], [b, b], tau=(),
                                   tau_ell=(), eta=eta)
        basic = sparse_operator(family, [f, g], eta=eta, p0=1.0,
                                gamma=1.0)
        scale = float(np.max(basic)) or 1.0
        assert np.max(np.abs(higher - first)) <= EXACT * scale
        assert np.max(np.abs(first - basic)) <= EXACT * scale

        # normalized-average vs unnormalized-norm characteristic
        ws = [np.exp(rng.uniform(-1.0, 1.0, size=16)) for _ in range(2)]
        u = np.exp(rng.uniform(-1.0, 1.0, size=16))
        star = joint_astar_constant(lattice, ws, p, q, u=u)
        rooted = [w ** (1.0 / pi) for w, pi in zip(ws, p)]
        frac = fractional_apq_constant(lattice, rooted, p, q,
                                       u=u ** (1.0 / q)) ** q
        assert abs(star - frac) <= 1e-10 * frac

        # self-adjointness of the one-slot basic form
        af = sparse_operator(family, [f])
        ag = sparse_operator(family, [g])
        left = float(np.dot(af * g, space.masses))
        right = float(np.dot(f * ag, space.masses))
        assert abs(left - right) <= EXACT * max(left, 1.0)

        # constant symbols kill every oscillation form
        const = np.full(16, float(rng.uniform(-2.0, 2.0)))
        osc1 = sparse_first_order(family, [f, g], [const, const],
                                  tau=(0,), tau_ell=(0,))
        osc2 = sparse_higher_order(
            family, [f, g], [const, const],
            MultiIndexPair(k=(1, 1), t=(1, 0), tau=(0, 1),
                           tau_ell=(0, 1)))
        ci = commutator_integral(space, [f, g], [const, const], (1, 0),
                                 eta)
        assert np.max(np.abs(osc1)) <= EXACT * scale
        assert np.max(np.abs(osc2)) <= EXACT * scale
        assert np.max(np.abs(ci)) <= EXACT * max(scale, 1.0)
    _budget(t0, 10.0, "criterion 7")


def test_criterion_8_endpoint_young_chain():
    t0 = time.perf_counter()
    for r in (1.0, 2.0, 3.0):
        margin = young_composition_margin(r)
        assert margin["violations"] == 0
        assert margin["bound"] == (r + 1.0) ** r
        assert margin["max_ratio"] <= 1.0 + TOL
    first = run_check(CheckSpec("endpoint_weak",
                                space=build_grid_space(32), seed=1))
    assert first.passed
    assert math.isfinite(first.worst_ratio) and first.worst_ratio > 0.0
    again = run_check(CheckSpec("endpoint_weak",
                                space=build_grid_space(32), seed=1))
    assert again.to_descriptor() == first.to_descriptor()
    other = run_check(CheckSpec("endpoint_weak",
                                space=build_grid_space(32), seed=2))
    assert math.isfinite(other.worst_ratio)
    _budget(t0, 30.0, "criterion 8")


def test_criterion_9_ratio_monitor_regressions():
    t0 = time.perf_counter()
    monitors = ("dyadicsum_equiv", "kolmogorov_sum", "bloom_maximal",
                "bloom_iterated", "sharp_maximal_commutator")
    for cid in monitors:
        coarse = run_check(CheckSpec(cid, space=build_grid_space(16),
                                     seed=1))
        assert coarse.passed, cid
        assert math.isfinite(coarse.worst_ratio) and \
            coarse.worst_ratio > 0.0, cid
        rerun = run_check(CheckSpec(cid, space=build_grid_space(16),
                                    seed=1))
        assert json.dumps(rerun.to_descriptor(), sort_keys=True) == \
            json.dumps(coarse.to_descriptor(), sort_keys=True), cid
        fine = run_check(CheckSpec(cid, space=build_grid_space(64),
                                   seed=1))
        assert fine.passed, cid
        drift = fine.worst_ratio / coarse.worst_ratio
        assert drift <= 2.0, (cid, drift)
        assert drift > 0.25, (cid, drift)
    _budget(t0, 600.0, "criterion 9")
