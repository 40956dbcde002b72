"""Stopping-time construction, certificates, augmentation, coverage."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparselab.domination as dom
from sparselab.dyadic import (
    SparseFamily,
    WitnessSelectionError,
    build_shifted_adjacent,
    build_standard_lattice,
    verify_sparse,
)
from sparselab.domination import (
    DominationCertificate,
    DominationError,
    augment_sparse,
    certificate_rhs,
    coverage_audit,
    cz_construct,
    verify_domination,
)
from sparselab.operators import MultiIndexPair
from sparselab.space import build_grid_space
from sparselab.weights import avg


# -- oracles (independent re-summation, written before the frozen values) ----

def oracle_commutator_m1(space, f, b, power, eta):
    """Direct double loop for m=1: sum_y K(x,y)^(eta-1)(b(x)-b(y))^k f(y)."""
    n = space.n
    out = []
    for x in range(n):
        terms = []
        for y in range(n):
            kern = space.ball_mass(x, space.metric[x, y]) ** (eta - 1)
            terms.append(kern * (b[x] - b[y]) ** power
                         * f[y] * space.masses[y])
        out.append(math.fsum(terms))
    return np.array(out)


def oracle_plain_rhs_m1(space, family, f, eta):
    """sum over cubes containing x of mass^eta <|f|>_Q, by direct fsum."""
    out = []
    for x in range(space.n):
        terms = []
        for cid in family.cube_ids:
            mem = family.lattice.members(cid)
            mass = family.lattice.mass.item(cid)
            if x not in mem:
                continue
            mean = math.fsum(abs(f[i]) * space.masses[i]
                             for i in mem) / mass
            terms.append(mass ** eta * mean)
        out.append(math.fsum(terms))
    return np.array(out)


def oracle_rhs_m2_k10(space, family, fs, bs, eta):
    """Hand-expanded tau/t sum for m=2, k=(1,0), tau_ell={0}.

    Subsets tau in {(), (0,)}; t_0 in {0, 1}.  Terms per cube:
    2 <|f1|><|f2|> (tau empty, both t_0), |b1(x)-b1_Q| <|f1|><|f2|>,
    and <|f1 (b1-b1_Q)|><|f2|>.
    """
    f1, f2 = fs
    b1 = bs[0]
    out = []
    for x in range(space.n):
        terms = []
        for cid in family.cube_ids:
            mem = family.lattice.members(cid)
            if x not in mem:
                continue
            mass = family.lattice.mass.item(cid)
            m1 = math.fsum(abs(f1[i]) * space.masses[i] for i in mem) / mass
            m2 = math.fsum(abs(f2[i]) * space.masses[i] for i in mem) / mass
            bq = math.fsum(b1[i] * space.masses[i] for i in mem) / mass
            mosc = math.fsum(abs(f1[i] * (b1[i] - bq)) * space.masses[i]
                             for i in mem) / mass
            coeff = mass ** eta
            terms.append(coeff * 2.0 * m1 * m2)
            terms.append(coeff * abs(b1[x] - bq) * m1 * m2)
            terms.append(coeff * mosc * m2)
        out.append(math.fsum(terms))
    return np.array(out)


def oracle_augment_constant(lat, family_ids, b):
    """Empirical C recomputed from scratch over the given family."""
    sp = lat.space
    oscs = {}
    bqs = {}
    for cid in family_ids:
        mem = lat.members(cid)
        bq = math.fsum(b[i] * sp.masses[i] for i in mem) / lat.mass.item(cid)
        bqs[cid] = bq
        oscs[cid] = math.fsum(abs(b[i] - bq) * sp.masses[i]
                              for i in mem) / lat.mass.item(cid)
    best = 0.0
    for cid in family_ids:
        inside = set(lat.members(cid).tolist())
        for x in lat.members(cid):
            num = abs(b[x] - bqs[cid])
            den = math.fsum(
                oscs[oth] for oth in family_ids
                if lat.gen[oth] >= lat.gen[cid]
                and int(lat.members(oth)[0]) in inside
                and x in lat.members(oth))
            if den > 0:
                best = max(best, num / den)
            else:
                assert num < 1e-12
    return best


# -- fixtures ----------------------------------------------------------------

@pytest.fixture(scope="module")
def grid16():
    sp = build_grid_space(16)
    return sp, build_shifted_adjacent(sp, 3)


@pytest.fixture(scope="module")
def grid32():
    sp = build_grid_space(32)
    return sp, build_shifted_adjacent(sp, 3)


def plain_pair(m=1):
    return MultiIndexPair(k=(0,) * m, t=(0,) * m, tau=(),
                          tau_ell=())


# -- configuration -----------------------------------------------------------

def test_stopping_exponents_frozen_n8():
    sp = build_grid_space(8)
    systems = build_shifted_adjacent(sp, 3)
    assert systems.c_adj == 2.5
    assert sp.a0 == 1.0
    jtilde0, j0 = dom._stopping_exponents(sp, systems)
    # need = max(3, 5) = 5: smallest power of two above is 8
    assert jtilde0 == 3
    assert 2.0 ** (jtilde0 + 2) * sp.a0 == 32.0
    assert j0 == 4


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
def test_config_validation(grid16, alpha):
    sp, systems = grid16
    f = np.ones(16)
    with pytest.raises(ValueError, match="alpha"):
        cz_construct(sp, systems, [f], [f], plain_pair(1), 0.0, alpha)


# -- trivial certificates ----------------------------------------------------

def test_zero_arguments_empty_certificate(grid16):
    sp, systems = grid16
    zero = np.zeros(16)
    cert = cz_construct(sp, systems, [zero], [zero], plain_pair(1), eta=0.5)
    assert cert.families == []
    assert cert.constant == 0.0
    assert cert.max_ratio == 0.0
    assert not cert.truncated
    assert cert.residual_bound == 0.0
    assert not cert.per_point["lhs"].any()
    assert not cert.per_point["rhs"].any()


def test_one_zero_slot_empty_certificate(grid16):
    sp, systems = grid16
    pair = MultiIndexPair(k=(1, 0), t=(0, 0), tau=(), tau_ell=(0,))
    f1 = np.ones(16)
    cert = cz_construct(sp, systems, [f1, np.zeros(16)],
                        [np.arange(16.0), np.zeros(16)], pair, eta=0.25)
    assert cert.families == []
    assert cert.constant == 0.0


# -- the indicator example ---------------------------------------------------

def test_indicator_certificate_n16(grid16):
    sp, systems = grid16
    f = np.zeros(16)
    f[5] = 1.0
    cert = cz_construct(sp, systems, [f], [np.zeros(16)], plain_pair(1),
                        eta=0.5)
    assert not cert.truncated
    fam = cert.families[0]
    assert verify_sparse(fam).ok
    assert fam.delta == 0.5

    lhs = oracle_commutator_m1(sp, f, np.zeros(16), 0, 0.5)
    rhs = oracle_plain_rhs_m1(sp, fam, f, 0.5)
    np.testing.assert_allclose(cert.per_point["lhs"], lhs, rtol=1e-12)
    np.testing.assert_allclose(cert.per_point["rhs"], rhs, rtol=1e-12)

    # domination at all 16 points with the certificate's own constant
    assert cert.max_ratio <= cert.constant
    assert (lhs <= cert.constant * rhs * (1 + 1e-12)).all()
    report = verify_domination(cert, lhs, rhs)
    assert report["pass"]
    assert report["n_points"] == 16


def test_indicator_certificate_frozen_shape(grid16):
    sp, systems = grid16
    f = np.zeros(16)
    f[5] = 1.0
    cert = cz_construct(sp, systems, [f], [np.zeros(16)], plain_pair(1),
                        eta=0.5)
    fam = cert.families[0]
    # root cube plus one stopping chain landing on the peak
    assert len(fam.cube_ids) == 2
    gens = sorted(fam.lattice.gen[fam.cube_ids].tolist())
    assert gens[0] == 0
    assert 5 in fam.lattice.members(fam.cube_ids[-1])
    assert cert.alpha == 16.0
    assert cert.constant == pytest.approx(2.309401076758503, rel=1e-9)


# -- seed battery and determinism --------------------------------------------

def test_seed21_battery_and_bit_identity(grid16):
    sp, systems = grid16
    rng = np.random.default_rng(21)
    f1 = rng.uniform(-1, 1, 16)
    f2 = rng.uniform(-1, 1, 16)
    b1 = rng.uniform(-1, 1, 16)
    pair = MultiIndexPair(k=(1, 0), t=(0, 0), tau=(0,), tau_ell=(0,))
    cert = cz_construct(sp, systems, [f1, f2], [b1, np.zeros(16)], pair,
                        eta=0.25)
    rep = verify_domination(cert, cert.per_point["lhs"],
                            cert.per_point["rhs"])
    assert rep["pass"]
    assert verify_sparse(cert.families[0]).ok
    assert math.log2(cert.alpha) == int(math.log2(cert.alpha))

    again = cz_construct(sp, systems, [f1, f2], [b1, np.zeros(16)], pair,
                         eta=0.25)
    assert again.constant == cert.constant
    assert again.alpha == cert.alpha
    assert again.families[0].cube_ids == cert.families[0].cube_ids
    for cid in cert.families[0].cube_ids:
        assert np.array_equal(again.families[0].witnesses[cid],
                              cert.families[0].witnesses[cid])
    for key in ("lhs", "rhs", "ratio"):
        assert np.array_equal(again.per_point[key], cert.per_point[key])


def test_rhs_matches_hand_expansion(grid16):
    sp, systems = grid16
    rng = np.random.default_rng(3)
    fs = [rng.uniform(-1, 1, 16), rng.uniform(-1, 1, 16)]
    bs = [rng.uniform(-1, 1, 16), np.zeros(16)]
    pair = MultiIndexPair(k=(1, 0), t=(0, 0), tau=(0,), tau_ell=(0,))
    cert = cz_construct(sp, systems, fs, bs, pair, eta=0.25)
    fam = cert.families[0]
    manual = oracle_rhs_m2_k10(sp, fam, fs, bs, 0.25)
    np.testing.assert_allclose(cert.per_point["rhs"], manual, rtol=1e-12)
    built = certificate_rhs(sp, [fam], fs, bs, pair, 0.25)
    np.testing.assert_allclose(built, manual, rtol=1e-12)


# -- truncation flag ---------------------------------------------------------

def test_truncated_forced_on_two_point_space():
    sp = build_grid_space(2)
    systems = build_shifted_adjacent(sp, 2)
    pair = MultiIndexPair(k=(3, 3), t=(0, 0), tau=(), tau_ell=(0, 1))
    fs = [np.array([1.0, 2.0]), np.array([2.0, 1.0])]
    bs = [np.array([0.0, 1.0]), np.array([1.0, 0.0])]
    cert = cz_construct(sp, systems, fs, bs, pair, eta=0.5)
    assert cert.truncated
    assert cert.residual_bound == 0.0
    rep = verify_domination(cert, cert.per_point["lhs"],
                            cert.per_point["rhs"])
    assert rep["pass"]


@pytest.mark.parametrize("n,k,tau_ell,expect", [
    (2, (3, 3), (0, 1), True),   # 6 oscillation stages, depth 1
    (4, (3, 3), (0, 1), True),   # 6 > 2
    (16, (1, 0), (0,), False),   # 1 <= 4
    (16, (2, 1), (0, 1), False),  # 3 <= 4
    (16, (0, 0), (), False),
])
def test_truncation_is_order_versus_depth(n, k, tau_ell, expect):
    sp = build_grid_space(n)
    systems = build_shifted_adjacent(sp, min(3, n))
    pair = MultiIndexPair(k=k, t=(0,) * len(k), tau=(), tau_ell=tau_ell)
    rng = np.random.default_rng(1)
    fs = [rng.uniform(0.5, 1.5, n) for _ in range(2)]
    bs = [rng.uniform(-1, 1, n) for _ in range(2)]
    cert = cz_construct(sp, systems, fs, bs, pair, eta=0.25)
    assert cert.truncated is expect


# -- stopping budget ---------------------------------------------------------

def maximal_family_children(fam, cid):
    lat = fam.lattice
    inside = set(lat.members(cid).tolist())
    strict = [c for c in fam.cube_ids
              if c != cid and lat.gen[c] > lat.gen[cid]
              and int(lat.members(c)[0]) in inside]
    out = []
    for c in strict:
        has_mid = any(o != c and lat.gen[o] < lat.gen[c]
                      and int(lat.members(c)[0])
                      in set(lat.members(o).tolist())
                      for o in strict)
        if not has_mid:
            out.append(c)
    return out


def test_stopping_budget_every_stage(grid32):
    sp, systems = grid32
    pair = plain_pair(1)
    for seed in range(12):
        rng = np.random.default_rng(seed)
        f = rng.uniform(0, 0.05, 32)
        f[int(rng.integers(32))] = 10.0
        cert = cz_construct(sp, systems, [f], [np.zeros(32)], pair, eta=0.5)
        fam = cert.families[0]
        assert verify_sparse(fam).ok
        lat = fam.lattice
        for cid in fam.cube_ids:
            kids = maximal_family_children(fam, cid)
            eaten = math.fsum(lat.mass[kids].tolist())
            assert eaten <= 0.5 * lat.mass.item(cid) * (1 + 1e-12)
            expect = np.setdiff1d(
                lat.members(cid),
                np.concatenate([lat.members(c)
                                for c in kids]) if kids else np.array([], int))
            assert np.array_equal(fam.witnesses[cid], expect)


def test_alpha_cap_names_the_cube(grid16, monkeypatch):
    sp, systems = grid16
    monkeypatch.setattr(dom, "ALPHA_FACTOR_CAP", 2.0)
    f = np.zeros(16)
    f[5] = 1.0
    with pytest.raises(DominationError, match="cube"):
        cz_construct(sp, systems, [f], [np.zeros(16)], plain_pair(1),
                     eta=0.5)


def test_one_grand_maximal_call_per_node(monkeypatch):
    # every t-split of a node shares the node's balls, so the four splits
    # of k = (1, 1) are the rows of one block call
    sp = build_grid_space(64)
    systems = build_shifted_adjacent(sp, 3)
    fs = list(np.abs(np.random.default_rng((1, 5)).standard_normal((2, 64))))
    symbols = list(np.random.default_rng((1, 6)).standard_normal((2, 64)))
    shapes = []
    original = dom.truncated_grand_maximal_local

    def counted(space, args, *rest):
        shapes.append(np.shape(args[0]))
        return original(space, args, *rest)

    monkeypatch.setattr(dom, "truncated_grand_maximal_local", counted)
    pair = MultiIndexPair(k=(1, 1), t=(0, 0), tau=(0, 1), tau_ell=(0, 1))
    cert = cz_construct(sp, systems, fs, symbols, pair, eta=0.0)
    nodes = len(cert.families[0].cube_ids)
    assert nodes > 1
    assert shapes == [(4, 64)] * nodes


# -- verify_domination report shapes -----------------------------------------

def dummy_cert(constant):
    return DominationCertificate(
        families=[], constant=constant, max_ratio=constant, alpha=1.0,
        truncated=False, residual_bound=0.0, pair=plain_pair(1), eta=0.0)


def test_verify_equal_sides_pass():
    vals = np.array([1.0, 2.0, 0.5])
    rep = verify_domination(dummy_cert(1.0), vals, vals)
    assert rep["pass"]
    assert rep["max_ratio"] == 1.0


def test_verify_double_fails_everywhere():
    vals = np.array([1.0, 2.0, 0.5, 3.0])
    rep = verify_domination(dummy_cert(1.0), 2.0 * vals, vals)
    assert not rep["pass"]
    assert len(rep["violations"]) == 4


def test_verify_zero_rhs_needs_zero_lhs():
    lhs = np.array([0.0, 1.0])
    rhs = np.array([0.0, 0.0])
    rep = verify_domination(dummy_cert(5.0), lhs, rhs)
    assert not rep["pass"]
    assert rep["violations"][0]["point"] == 1
    ok = verify_domination(dummy_cert(5.0), np.zeros(2), rhs)
    assert ok["pass"]


@pytest.mark.parametrize("lhs,rhs,constant", [
    ([1.0, math.nan], [1.0, 1.0], 1.0),
    ([1.0, 1.0], [1.0, math.nan], 1.0),
    ([1.0, math.inf], [1.0, 1.0], 1.0),
    ([1.0, 1e300], [1.0, 1e-300], math.inf),
])
def test_verify_non_finite_point_fails(lhs, rhs, constant):
    rep = verify_domination(dummy_cert(constant), np.array(lhs),
                            np.array(rhs))
    assert not rep["pass"]
    assert [v["point"] for v in rep["violations"]] == [1]


def test_verify_mixed_points_in_order():
    nan, inf = math.nan, math.inf
    lhs = np.array([1.0, 3.0, 0.5, 0.0, nan, 1.0, 1.0, -1.0, 2.0, 1.0, inf])
    rhs = np.array([1.0, 1.0, 0.0, 0.0, 1.0, nan, -1.0, -1.0, 1.0, inf,
                    -2.0])
    rep = verify_domination(dummy_cert(2.0), lhs, rhs)
    got = [(v["point"], v["lhs"], v["bound"]) for v in rep["violations"]]
    want = [(1, 3.0, 2.0), (2, 0.5, 0.0), (4, nan, 2.0), (5, 1.0, nan),
            (6, 1.0, 0.0), (9, 1.0, inf), (10, inf, -4.0)]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, nan_ok=True)
        assert all(type(v) is type(u) for v, u in zip(g, w))
    assert not rep["pass"]


def test_verify_infinite_entry_keeps_finite_violations():
    rep = verify_domination(dummy_cert(2.0), [3.0, 1.0], [1.0, math.inf])
    assert [(v["point"], v["lhs"], v["bound"]) for v in rep["violations"]] \
        == [(0, 3.0, 2.0), (1, 1.0, math.inf)]
    assert not rep["pass"]


# -- coverage audit ----------------------------------------------------------

def test_coverage_audit_n16(grid16):
    sp, systems = grid16
    audit = coverage_audit(sp, systems)
    assert audit["union_ok"]
    assert audit["ok"]
    assert audit["levels"] == 4
    assert audit["overlap"] <= audit["declared_bound"]
    again = coverage_audit(sp, systems)
    assert again == audit


def test_coverage_single_point():
    sp = build_grid_space(1)
    systems = build_shifted_adjacent(sp, 1)
    audit = coverage_audit(sp, systems)
    assert audit["ok"]
    assert audit["levels"] == 0


# -- augmentation ------------------------------------------------------------

def chain_family(n=16, delta=0.5):
    lat = build_standard_lattice(build_grid_space(n))
    from sparselab.dyadic import select_witnesses
    chain = lat.point_to_cube[:, 0].tolist()
    return select_witnesses(lat, chain, delta)


def test_augment_constant_symbol_vacuous():
    fam = chain_family()
    out, table = augment_sparse(fam, np.full(16, 3.25))
    assert out.cube_ids == sorted(
        fam.cube_ids, key=lambda c: (fam.lattice.gen[c],
                                     fam.lattice.index[c]))
    assert table["empirical_c"] == 0.0
    assert table["vacuous"]
    assert table["added"] == []
    assert out.delta == pytest.approx(0.5 / 3.0)


def test_augment_single_cube_two_point_symmetry():
    sp = build_grid_space(2)
    lat = build_standard_lattice(sp)
    root = lat.generations[0][0]
    fam = SparseFamily(lat, [root], {root: lat.members(root)}, 1.0)
    out, table = augment_sparse(fam, np.array([3.0, 5.0]))
    assert out.cube_ids == [root]
    assert abs(table["empirical_c"] - 1.0) < 1e-14
    assert not table["vacuous"]


def test_augment_random_seed4_stable(grid32):
    sp, systems = grid32
    pair = plain_pair(1)
    rng = np.random.default_rng(4)
    f = rng.uniform(0, 0.05, 32)
    f[7] = 5.0
    cert = cz_construct(sp, systems, [f], [np.zeros(32)], pair, eta=0.5)
    fam = cert.families[0]
    b = rng.uniform(-1, 1, 32)
    out, table = augment_sparse(fam, b)
    assert out.delta == pytest.approx(0.5 / 3.0)
    assert verify_sparse(out).ok
    assert set(out.cube_ids) >= set(fam.cube_ids)
    # the reported constant matches an independent recomputation
    oracle = oracle_augment_constant(fam.lattice, out.cube_ids, b)
    assert table["empirical_c"] == pytest.approx(oracle, rel=1e-12)
    # stability across reruns, bit for bit
    out2, table2 = augment_sparse(fam, b)
    assert out2.cube_ids == out.cube_ids
    assert table2["empirical_c"] == table["empirical_c"]


def test_augment_budget_respected(grid32):
    sp, systems = grid32
    rng = np.random.default_rng(11)
    f = rng.uniform(0, 0.05, 32)
    f[19] = 8.0
    cert = cz_construct(sp, systems, [f], [np.zeros(32)], plain_pair(1),
                        eta=0.5)
    fam = cert.families[0]
    b = rng.uniform(-2, 2, 32)
    out, table = augment_sparse(fam, b)
    lat = fam.lattice
    for row in table["rows"]:
        mem = lat.members(row["cube_id"])
        bq = float(np.dot(b[mem], sp.masses[mem])
                   / lat.mass.item(row["cube_id"]))
        for added in row["added"]:
            got = avg(sp, lat.members(added), b - bq, 1.0)
            assert got > row["budget"]


def test_augment_pointwise_oscillation_bound(grid32):
    sp, systems = grid32
    rng = np.random.default_rng(4)
    f = rng.uniform(0, 0.05, 32)
    f[7] = 5.0
    cert = cz_construct(sp, systems, [f], [np.zeros(32)], plain_pair(1),
                        eta=0.5)
    b = rng.uniform(-1, 1, 32)
    out, table = augment_sparse(cert.families[0], b)
    lat = out.lattice
    c_emp = table["empirical_c"]
    for cid in out.cube_ids:
        mem = lat.members(cid)
        inside = set(mem.tolist())
        bq = float(np.dot(b[mem], sp.masses[mem]) / lat.mass.item(cid))
        denom = np.zeros(sp.n)
        for oth in out.cube_ids:
            other = lat.members(oth)
            if lat.gen[oth] >= lat.gen[cid] and int(other[0]) in inside:
                denom[other] += avg(
                    sp, other,
                    b - float(np.dot(b[other], sp.masses[other])
                              / lat.mass.item(oth)), 1.0)
        for x in mem:
            assert abs(b[x] - bq) <= c_emp * denom[x] * (1 + 1e-9)


def test_augment_infeasible_reselection_errors():
    lat = build_standard_lattice(build_grid_space(8))
    every = list(range(len(lat.gen)))
    fam = SparseFamily(lat, every, {c: lat.members(c) for c in every}, 0.5)
    with pytest.raises(WitnessSelectionError):
        augment_sparse(fam, np.arange(8.0))


# -- serialization -----------------------------------------------------------

def test_certificate_descriptor_roundtrip(grid16):
    sp, systems = grid16
    f = np.zeros(16)
    f[5] = 1.0
    cert = cz_construct(sp, systems, [f], [np.zeros(16)], plain_pair(1),
                        eta=0.5)
    desc = cert.to_descriptor()
    text = json.dumps(desc, sort_keys=True)
    back = json.loads(text)
    assert back["constant"] == cert.constant
    assert "per_point" not in back
    full = cert.to_descriptor(audit=True)
    assert len(full["per_point"]["ratio"]) == 16
    json.dumps(full)


# -- properties --------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.sampled_from([4, 8, 16]))
def test_certificates_always_verify(seed, n):
    sp = build_grid_space(n)
    systems = build_shifted_adjacent(sp, 3)
    rng = np.random.default_rng(seed)
    f = rng.uniform(0, 1, n)
    b = rng.uniform(-1, 1, n)
    pair = MultiIndexPair(k=(1,), t=(0,), tau=(), tau_ell=(0,))
    cert = cz_construct(sp, systems, [f], [b], pair, eta=0.25)
    for fam in cert.families:
        assert verify_sparse(fam).ok
    rep = verify_domination(cert, cert.per_point["lhs"],
                            cert.per_point["rhs"])
    assert rep["pass"]
    assert cert.max_ratio <= cert.constant


def test_eta_endpoints(grid16):
    sp, systems = grid16
    rng = np.random.default_rng(9)
    f = rng.uniform(0.1, 1, 16)
    for eta in (0.0, 0.9):
        cert = cz_construct(sp, systems, [f], [np.zeros(16)], plain_pair(1),
                            eta=eta)
        rep = verify_domination(cert, cert.per_point["lhs"],
                                cert.per_point["rhs"])
        assert rep["pass"]
