"""Sparse forms, maximal functions, fractional integrals."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselab.dyadic import SparseFamily, build_hk_lattice, \
    build_standard_lattice, random_sparse_family, select_witnesses
from sparselab.operators import (
    MultiIndexPair,
    _kernel_values,
    ball_mass_kernel,
    commutator_integral,
    dyadic_maximal,
    fractional_integral,
    fractional_maximal,
    orlicz_maximal,
    power_maximal_dyadic,
    sharp_maximal_dyadic,
    sparse_endpoint,
    sparse_first_order,
    sparse_higher_order,
    sparse_operator,
    truncated_grand_maximal_local,
)
from sparselab.space import build_explicit_space, build_grid_space
from sparselab.verify import _BLOOM_ITER_PRESETS, _BLOOM_MAX_PRESETS
from sparselab.weights import avg, luxemburg_norm, young_identity, young_llogl


def family8(delta=0.5):
    lat = build_standard_lattice(build_grid_space(8))
    chain = lat.point_to_cube[:4, 0].tolist()
    return select_witnesses(lat, chain, delta)


def antichain8():
    lat = build_standard_lattice(build_grid_space(8))
    ids = list(lat.generations[2])
    return select_witnesses(lat, ids, 1.0)


def oracle_sparse_basic(family, fs, eta, p0, gamma):
    sp = family.lattice.space
    out = []
    for x in range(sp.n):
        terms = []
        for cid in family.cube_ids:
            mem = family.lattice.members(cid)
            mass = family.lattice.mass.item(cid)
            if x not in mem:
                continue
            prod = mass ** eta
            for f in fs:
                s = math.fsum(abs(f[i]) ** p0 * sp.masses[i] for i in mem)
                prod *= (s / mass) ** (1.0 / p0)
            terms.append(prod ** gamma)
        out.append(math.fsum(terms) ** (1.0 / gamma))
    return np.array(out)


def oracle_frac_integral(space, fs, eta):
    n = space.n
    m = len(fs)
    out = []
    for x in range(n):
        ball = [space.ball_mass(x, space.metric[x, y]) for y in range(n)]
        terms = []
        for ys in itertools.product(range(n), repeat=m):
            kern = math.fsum(ball[y] for y in ys)
            prod = kern ** (eta - m)
            for f, y in zip(fs, ys):
                prod *= f[y] * space.masses[y]
            terms.append(prod)
        out.append(math.fsum(terms))
    return np.array(out)


class TestMultiIndexPair:
    def test_valid(self):
        pair = MultiIndexPair((2, 1), (1, 0), (1,), (0, 1))
        assert pair.m == 2
        assert pair.tau == (1,)

    def test_t_exceeds_k(self):
        with pytest.raises(ValueError):
            MultiIndexPair((1,), (2,), (0,), (0,))

    def test_tau_outside_tau_ell(self):
        with pytest.raises(ValueError):
            MultiIndexPair((1, 1), (0, 0), (0,), (1,))

    def test_index_range(self):
        with pytest.raises(ValueError):
            MultiIndexPair((1,), (0,), (0,), (0, 5))


class TestSparseOperator:
    def test_matches_oracle(self):
        fam = family8()
        rng = np.random.default_rng(0)
        fs = [np.abs(rng.normal(size=8)) for _ in range(2)]
        got = sparse_operator(fam, fs, eta=0.25, p0=1.5, gamma=2.0)
        want = oracle_sparse_basic(fam, fs, 0.25, 1.5, 2.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_single_cube(self):
        lat = build_standard_lattice(build_grid_space(8))
        root = lat.generations[0][0]
        fam = SparseFamily(lat, [root], {root: lat.members(root)}, 1.0)
        f = np.arange(8.0)
        got = sparse_operator(fam, [f])
        assert got == pytest.approx(np.full(8, 3.5), rel=1e-14)

    def test_empty_family(self):
        lat = build_standard_lattice(build_grid_space(8))
        fam = SparseFamily(lat, [], {}, 0.5)
        assert np.array_equal(sparse_operator(fam, [np.ones(8)]),
                              np.zeros(8))

    def test_slotwise_homogeneity(self):
        fam = family8()
        rng = np.random.default_rng(1)
        f1, f2 = rng.uniform(1, 2, 8), rng.uniform(1, 2, 8)
        base = sparse_operator(fam, [f1, f2], gamma=2.0)
        scaled = sparse_operator(fam, [5.0 * f1, f2], gamma=2.0)
        assert scaled == pytest.approx(5.0 * base, rel=1e-12)

    def test_monotone_in_arguments(self):
        fam = family8()
        rng = np.random.default_rng(2)
        f = rng.uniform(0, 1, 8)
        g = f + rng.uniform(0, 1, 8)
        assert np.all(sparse_operator(fam, [f]) <=
                      sparse_operator(fam, [g]) + 1e-15)

    def test_self_adjoint_pairing(self):
        fam = antichain8()
        sp = fam.lattice.space
        rng = np.random.default_rng(3)
        f, g = rng.normal(size=8), rng.normal(size=8)
        left = float(np.dot(sparse_operator(fam, [np.abs(f)]),
                            np.abs(g) * sp.masses))
        right = float(np.dot(np.abs(f) * sp.masses,
                             sparse_operator(fam, [np.abs(g)])))
        assert left == pytest.approx(right, rel=1e-12)


class TestSparseReductions:
    def setup_method(self):
        self.fam = family8()
        rng = np.random.default_rng(7)
        self.fs = [np.abs(rng.normal(size=8)) + 0.1 for _ in range(2)]
        self.bs = [rng.normal(size=8) for _ in range(2)]

    def test_first_order_oracle(self):
        sp = self.fam.lattice.space
        got = sparse_first_order(self.fam, self.fs, self.bs,
                                 tau=[0], tau_ell=[0, 1], eta=0.5, r=1.0)
        out = np.zeros(8)
        for cid in self.fam.cube_ids:
            mem = self.fam.lattice.members(cid)
            mass = self.fam.lattice.mass.item(cid)
            b0 = float(np.dot(self.bs[0][mem], sp.masses[mem])) / mass
            b1 = float(np.dot(self.bs[1][mem], sp.masses[mem])) / mass
            coeff = mass ** 0.5
            coeff *= avg(sp, mem, self.fs[0], 1.0)
            coeff *= avg(sp, mem, (self.bs[1] - b1) * self.fs[1], 1.0)
            out[mem] += coeff * np.abs(self.bs[0][mem] - b0)
        assert got == pytest.approx(out, rel=1e-12)

    def test_higher_inner_split_matches_first_order(self):
        pair = MultiIndexPair((1, 1), (1, 1), (0, 1), (0, 1))
        got = sparse_higher_order(self.fam, self.fs, self.bs, pair,
                                  eta=0.25, r=1.5)
        want = sparse_first_order(self.fam, self.fs, self.bs,
                                  tau=[], tau_ell=[0, 1], eta=0.25, r=1.5)
        assert got == pytest.approx(want, rel=1e-14)

    def test_higher_outer_split_matches_first_order(self):
        pair = MultiIndexPair((1, 1), (0, 0), (0, 1), (0, 1))
        got = sparse_higher_order(self.fam, self.fs, self.bs, pair,
                                  eta=0.25, r=1.5)
        want = sparse_first_order(self.fam, self.fs, self.bs,
                                  tau=[0, 1], tau_ell=[0, 1],
                                  eta=0.25, r=1.5)
        assert got == pytest.approx(want, rel=1e-14)

    def test_zero_orders_match_basic(self):
        pair = MultiIndexPair((0, 0), (0, 0), (), ())
        eta, r = 0.5, 2.0
        got = sparse_higher_order(self.fam, self.fs, self.bs, pair,
                                  eta=eta, r=r)
        want = sparse_operator(self.fam, self.fs, eta=eta / r, p0=r,
                               gamma=1.0)
        assert got == pytest.approx(want, rel=1e-14)

    def test_endpoint_full_tau_matches_basic(self):
        eta, r = 0.5, 2.0
        got = sparse_endpoint(self.fam, self.fs, tau=[0, 1], eta=eta, r=r)
        want = sparse_operator(self.fam, self.fs, eta=eta / r, p0=r,
                               gamma=1.0)
        assert got == pytest.approx(want, rel=1e-14)

    def test_endpoint_assembly(self):
        sp = self.fam.lattice.space
        phi = young_llogl(2.0)
        got = sparse_endpoint(self.fam, self.fs, tau=[0], eta=0.0, r=2.0)
        gauges = luxemburg_norm(self.fam.lattice, self.fs[1] ** 2, phi)
        out = np.zeros(8)
        for cid in self.fam.cube_ids:
            mem = self.fam.lattice.members(cid)
            coeff = avg(sp, mem, self.fs[0], 2.0)
            coeff *= gauges[cid] ** 0.5
            out[mem] += coeff
        assert got == pytest.approx(out, rel=1e-9)

    def test_constant_symbols_vanish(self):
        pair = MultiIndexPair((2, 1), (1, 0), (0, 1), (0, 1))
        const_bs = [np.full(8, 4.0), np.full(8, -1.0)]
        got = sparse_higher_order(self.fam, self.fs, const_bs, pair)
        assert np.max(np.abs(got)) < 1e-14


def _twice_listed_family(lattice, seed):
    fam = random_sparse_family(lattice, np.random.default_rng(seed))
    fam.cube_ids = list(fam.cube_ids) + [fam.cube_ids[0]]
    return fam


def _every_cube_family(lattice, seed):
    # every generation adds a term at every point, so the order of the
    # sum over generations shows in the last bits
    ids = list(range(len(lattice.gen)))
    return SparseFamily(lattice, ids + [ids[-1]], {}, 1.0)


def _hk20():
    rng = np.random.default_rng(13)
    pts = rng.uniform(size=(20, 2))
    metric = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    return build_hk_lattice(build_explicit_space(
        metric, rng.uniform(0.5, 2.0, 20)), 0.5)


def _standard16():
    masses = np.random.default_rng(12).uniform(0.5, 2.0, 16)
    return build_standard_lattice(build_grid_space(16, masses))


def _forms():
    """(name, slot count, apply) for every sparse form that takes a block."""
    forms = [
        ("basic", 2, lambda fam, fs, bs: sparse_operator(fam, fs, eta=0.25)),
        ("basic p0=2 gamma=0.5", 3, lambda fam, fs, bs: sparse_operator(
            fam, fs, eta=0.5, p0=2.0, gamma=0.5)),
    ]
    for tau in ((0,), (0, 1)):
        forms.append((f"first tau={tau}", 2, lambda fam, fs, bs, tau=tau:
                      sparse_first_order(fam, fs, bs, tau, tau, eta=0.5)))
    forms.append(("first inner", 3, lambda fam, fs, bs: sparse_first_order(
        fam, fs, bs, (0,), (0, 2), eta=0.5, r=1.5)))
    for k, t, tau in _BLOOM_MAX_PRESETS + _BLOOM_ITER_PRESETS:
        pair = MultiIndexPair(k, t, tau, tau)
        forms.append((f"higher {k} {t}", len(k),
                      lambda fam, fs, bs, pair=pair:
                      sparse_higher_order(fam, fs, bs, pair, eta=0.5)))
    return forms


_FORMS = _forms()


class TestSlotBlocks:
    """An (n, B) block in one slot equals the per-column calls bit for
    bit; the columns of the identity are the slot kernel's probes."""

    @pytest.mark.parametrize("family", [_twice_listed_family,
                                        _every_cube_family],
                             ids=["random", "every"])
    @pytest.mark.parametrize("build", [_standard16, _hk20],
                             ids=["standard", "hk"])
    @pytest.mark.parametrize("name,m,form", _FORMS,
                             ids=[f[0] for f in _FORMS])
    def test_identity_block_matches_probes(self, build, family, name, m,
                                           form):
        lat = build()
        n = lat.space.n
        fam = family(lat, 3)
        rng = np.random.default_rng(9)
        fs = [np.abs(rng.standard_normal(n)) + 1e-3 for _ in range(m)]
        bs = [rng.standard_normal(n) for _ in range(m)]
        basis = np.eye(n)
        for i in range(m):
            got = form(fam, fs[:i] + [basis] + fs[i + 1:], bs)
            want = np.stack([form(fam, fs[:i] + [basis[y]] + fs[i + 1:], bs)
                             for y in range(n)], axis=1)
            assert got.shape == (n, n)
            assert np.array_equal(got, want)

    def test_block_in_two_slots_rejected(self):
        fam = _twice_listed_family(_standard16(), 3)
        block, f = np.eye(16), np.ones(16)
        pair = MultiIndexPair((1, 1), (0, 0), (0,), (0,))
        with pytest.raises(ValueError, match="at most one slot"):
            sparse_operator(fam, [block, block])
        with pytest.raises(ValueError, match="at most one slot"):
            sparse_higher_order(fam, [block, block], [f, f], pair)
        with pytest.raises(ValueError, match="at most one slot"):
            sparse_first_order(fam, [f, block, block], [f, f, f], (0,), (0,))

    def test_block_rejected_where_not_taken(self):
        lat = _standard16()
        fam = _twice_listed_family(lat, 3)
        block, f = np.eye(16), np.ones(16)
        pair = MultiIndexPair((1, 1), (0, 0), (0,), (0,))
        with pytest.raises(ValueError, match="one value per point"):
            sparse_endpoint(fam, [block, f], tau=[0])
        with pytest.raises(ValueError, match="one value per point"):
            sparse_endpoint(fam, [f, block], tau=[0])
        with pytest.raises(ValueError, match="one value per point"):
            orlicz_maximal(lat, [block], [young_identity()])
        with pytest.raises(ValueError, match="one value per point"):
            sparse_higher_order(fam, [f, f], [block, f], pair)
        with pytest.raises(ValueError, match="one value per point"):
            sparse_operator(fam, [np.eye(16)[:, :, None]])


class TestDyadicMaximal:
    def test_plain_frozen(self):
        lat = build_standard_lattice(build_grid_space(4))
        f = np.array([4.0, 0, 0, 0])
        # cube averages through point 0: {0}:4, {0,1}:2, root:1
        assert dyadic_maximal(lat, f).tolist() == [4.0, 2.0, 1.0, 1.0]

    def test_weighted_norm_bound(self):
        lat = build_standard_lattice(build_grid_space(32))
        sp = lat.space
        rng = np.random.default_rng(5)
        for p in (1.5, 2.0, 4.0):
            f = np.abs(rng.normal(size=32))
            sigma = np.exp(rng.uniform(-1, 1, 32))
            mf = dyadic_maximal(lat, f, weight=sigma)
            lhs = float(np.dot(mf ** p, sigma * sp.masses)) ** (1 / p)
            rhs = float(np.dot(f ** p, sigma * sp.masses)) ** (1 / p)
            pc = p / (p - 1)
            assert lhs <= pc * rhs * (1 + 1e-12)

    def test_majorizes_function(self):
        lat = build_standard_lattice(build_grid_space(16))
        rng = np.random.default_rng(6)
        f = np.abs(rng.normal(size=16))
        assert np.all(dyadic_maximal(lat, f) >= f - 1e-15)

    def test_power_variant_monotone(self):
        lat = build_standard_lattice(build_grid_space(16))
        rng = np.random.default_rng(8)
        f = np.abs(rng.normal(size=16)) + 0.1
        small = power_maximal_dyadic(lat, f, 0.5)
        big = power_maximal_dyadic(lat, f, 1.0)
        assert np.all(small <= big * (1 + 1e-12))


class TestSharpMaximal:
    def test_step_frozen(self):
        lat = build_standard_lattice(build_grid_space(4))
        f = np.array([0.0, 0, 1, 1])
        assert sharp_maximal_dyadic(lat, f) == pytest.approx(
            np.full(4, 0.5), abs=1e-15)

    def test_constant_vanishes(self):
        lat = build_standard_lattice(build_grid_space(8))
        assert np.max(sharp_maximal_dyadic(lat, np.full(8, 3.0))) == 0.0

    def test_delta_variant(self):
        lat = build_standard_lattice(build_grid_space(8))
        rng = np.random.default_rng(9)
        f = rng.normal(size=8)
        base = sharp_maximal_dyadic(lat, np.abs(f) ** 0.5)
        assert sharp_maximal_dyadic(lat, f, delta=0.5) == pytest.approx(
            base ** 2.0, rel=1e-12)


class TestBallMaximal:
    def test_centered_below_integral_m1(self):
        sp = build_grid_space(8)
        rng = np.random.default_rng(10)
        f = np.abs(rng.normal(size=8))
        mval = fractional_maximal(sp, [f], eta=0.5)
        ival = fractional_integral(sp, [f], eta=0.5)
        assert np.all(mval <= ival * (1 + 1e-12))

    def test_centered_below_integral_m2(self):
        sp = build_grid_space(8)
        rng = np.random.default_rng(11)
        fs = [np.abs(rng.normal(size=8)) for _ in range(2)]
        eta = 0.5
        mval = fractional_maximal(sp, fs, eta=eta)
        ival = fractional_integral(sp, fs, eta=eta)
        assert np.all(mval <= 2 ** (2 - eta) * ival * (1 + 1e-12))

    def test_centered_equals_integral_on_point_mass(self):
        sp = build_grid_space(8)
        f = np.zeros(8)
        f[0] = 1.0
        cen = fractional_maximal(sp, [f], eta=0.0)
        ival = fractional_integral(sp, [f], eta=0.0)
        assert cen[4] == pytest.approx(ival[4], rel=1e-14)


class TestFractionalIntegral:
    @pytest.mark.parametrize("m", [1, 2])
    def test_matches_oracle(self, m):
        sp = build_grid_space(8, [1, 2, 1, 1, 3, 1, 1, 1])
        rng = np.random.default_rng(13 + m)
        fs = [rng.normal(size=8) for _ in range(m)]
        got = fractional_integral(sp, fs, eta=0.5)
        want = oracle_frac_integral(sp, fs, 0.5)
        assert got == pytest.approx(want, rel=1e-12)

    def test_matches_oracle_m3(self):
        sp = build_grid_space(4)
        rng = np.random.default_rng(16)
        fs = [rng.normal(size=4) for _ in range(3)]
        got = fractional_integral(sp, fs, eta=1.5)
        want = oracle_frac_integral(sp, fs, 1.5)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("m,eta,kind", [
        pytest.param(m, eta, kind, id=f"m2-{eta}-{kind}" if m == 2
                     else f"{eta}-{kind}")
        for m in (3, 2) for eta in (0.0, 1.0, 0.75, 1.5)
        for kind in ("unit", "generic", "plane")])
    def test_class_fold_matches_oracle_m3(self, m, eta, kind):
        # unit masses tie many pair sums; a 4 x 4 plane lattice ties its
        # distances, so a kernel class can hold 4 or 8 points; m = 2 runs
        # the fold on the generic masses, whose kernel has more than n
        # values, and the class table on the other two
        rng = np.random.default_rng(60)
        if kind == "plane":
            pts = np.array(list(itertools.product(range(4), repeat=2)), float)
            metric = np.linalg.norm(pts[:, None] - pts[None], axis=2)
            sp = build_explicit_space(metric, np.ones(16))
        else:
            sp = build_grid_space(16, None if kind == "unit"
                                  else rng.uniform(0.5, 2.0, size=16))
        if m == 2:
            assert (_kernel_values(sp) is None) == (kind == "generic")
        signed = [rng.normal(size=16) for _ in range(m)]
        absolute = [np.abs(f) for f in signed]
        scale = oracle_frac_integral(sp, absolute, eta)
        assert fractional_integral(sp, absolute, eta) == \
            pytest.approx(scale, rel=1e-12)
        got = fractional_integral(sp, signed, eta)
        want = oracle_frac_integral(sp, signed, eta)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_m3_memory_stays_per_row(self):
        # generic masses make the pair sums nearly all distinct, so a
        # row's full (pair sum, class) power grid would be about 8 MiB;
        # the slot-3 classes are taken in bounded blocks
        n = 128
        rng = np.random.default_rng(61)
        sp = build_grid_space(n, rng.uniform(0.5, 2.0, size=n))
        ball_mass_kernel(sp)
        fs = [rng.normal(size=n) for _ in range(3)]
        tracemalloc.start()
        try:
            fractional_integral(sp, fs, 0.75)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("kind", ["unit", "twos", "generic"])
    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0, 1.5])
    def test_class_table_matches_oracle_m2(self, kind, eta):
        # unit masses and masses all 2.0 give n kernel values, so the rows
        # share one class table; generic masses give more and run the
        # per-row class fold
        rng = np.random.default_rng(62)
        masses = {"unit": np.ones(16), "twos": np.full(16, 2.0),
                  "generic": rng.uniform(0.5, 2.0, size=16)}[kind]
        sp = build_grid_space(16, masses)
        assert (_kernel_values(sp) is None) == (kind == "generic")
        signed = [rng.normal(size=16) for _ in range(2)]
        absolute = [np.abs(f) for f in signed]
        scale = oracle_frac_integral(sp, absolute, eta)
        assert fractional_integral(sp, absolute, eta) == \
            pytest.approx(scale, rel=1e-12)
        got = fractional_integral(sp, signed, eta)
        want = oracle_frac_integral(sp, signed, eta)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_m2_table_memory_stays_per_block(self):
        # the class table of a 512-point grid is 2 MiB; class sums built
        # over all rows at once would add 4 columns x 512 rows x 512
        # classes x 8 B = 8 MiB per slot
        n = 512
        sp = build_grid_space(n)
        rng = np.random.default_rng(63)
        blocks = [rng.normal(size=(4, n)) for _ in range(2)]
        fractional_integral(sp, [a[0] for a in blocks], 0.5)  # fills caches
        tracemalloc.start()
        try:
            fractional_integral(sp, blocks, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_m2_fold_memory_stays_per_block(self):
        # generic masses give the kernel more than n values, so m = 2 runs
        # the per-row fold: a 1,024-point row's full power grid would be
        # 8 MiB, and the fold builds it 512 KiB at a time
        n = 1024
        rng = np.random.default_rng(64)
        sp = build_grid_space(n, rng.uniform(0.5, 2.0, size=n))
        assert _kernel_values(sp) is None  # also fills the caches
        fs = [rng.normal(size=n) for _ in range(2)]
        rows = np.zeros(n, dtype=bool)
        rows[[0, 300, 600, 1023]] = True
        tracemalloc.start()
        try:
            fractional_integral(sp, fs, 0.5, rows=rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_rejects_high_arity(self):
        sp = build_grid_space(4)
        with pytest.raises(ValueError):
            fractional_integral(sp, [np.ones(4)] * 4, eta=0.5)

    def test_kernel_built_once_per_space(self):
        sp = build_grid_space(8, masses=np.arange(1.0, 9.0))
        K = ball_mass_kernel(sp)
        assert ball_mass_kernel(sp) is K
        assert not K.flags.writeable
        with pytest.raises(ValueError):
            K[0, 0] = 1.0
        want = [[sp.mass_of(np.flatnonzero(sp.metric[x] <= sp.metric[x, y]))
                 for y in range(8)] for x in range(8)]
        assert np.array_equal(K, want)
        other = build_grid_space(8)
        assert ball_mass_kernel(other) is not K

    def test_linearity(self):
        sp = build_grid_space(8)
        rng = np.random.default_rng(17)
        f, g = rng.normal(size=8), rng.normal(size=8)
        h = rng.normal(size=8)
        left = fractional_integral(sp, [f + g, h], eta=0.5)
        right = fractional_integral(sp, [f, h], eta=0.5) + \
            fractional_integral(sp, [g, h], eta=0.5)
        assert left == pytest.approx(right, rel=1e-11)


class TestCommutator:
    def test_first_order_identity(self):
        sp = build_grid_space(8)
        rng = np.random.default_rng(20)
        f = rng.normal(size=8)
        b = rng.normal(size=8)
        got = commutator_integral(sp, [f], [b], [1], eta=0.5)
        want = b * fractional_integral(sp, [f], 0.5) - \
            fractional_integral(sp, [b * f], 0.5)
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_power_is_plain_integral(self):
        sp = build_grid_space(8)
        rng = np.random.default_rng(21)
        f = rng.normal(size=8)
        b = rng.normal(size=8)
        got = commutator_integral(sp, [f], [b], [0], eta=0.5)
        assert got == pytest.approx(
            fractional_integral(sp, [f], 0.5), rel=1e-14)

    def test_constant_symbol_vanishes(self):
        sp = build_grid_space(8)
        rng = np.random.default_rng(22)
        f = rng.normal(size=8)
        got = commutator_integral(sp, [f], [np.full(8, 3.0)], [2], eta=0.5)
        assert np.max(np.abs(got)) < 1e-10

    def test_bilinear_single_slot(self):
        sp = build_grid_space(8)
        rng = np.random.default_rng(23)
        f1, f2 = rng.normal(size=8), rng.normal(size=8)
        b = rng.normal(size=8)
        got = commutator_integral(sp, [f1, f2], [b, np.zeros(8)], [1, 0],
                                  eta=0.5)
        want = b * fractional_integral(sp, [f1, f2], 0.5) - \
            fractional_integral(sp, [b * f1, f2], 0.5)
        assert got == pytest.approx(want, rel=1e-11)

    def test_second_order_expansion(self):
        sp = build_grid_space(8)
        rng = np.random.default_rng(24)
        f = rng.normal(size=8)
        b = rng.normal(size=8)
        got = commutator_integral(sp, [f], [b], [2], eta=0.5)
        want = b ** 2 * fractional_integral(sp, [f], 0.5) - \
            2 * b * fractional_integral(sp, [b * f], 0.5) + \
            fractional_integral(sp, [b ** 2 * f], 0.5)
        assert got == pytest.approx(want, rel=1e-11)


def loop_commutator(space, fs, symbols, powers, eta):
    """One full fractional-integral call per binomial term."""
    n = space.n
    out = np.zeros(n)
    for jvec in itertools.product(*[range(b + 1) for b in powers]):
        scale = 1.0
        outer = np.ones(n)
        mods = []
        for i, (b, j) in enumerate(zip(powers, jvec)):
            scale *= math.comb(b, j) * (-1.0) ** j
            if b - j:
                outer = outer * symbols[i] ** (b - j)
            mods.append(fs[i] * symbols[i] ** j if j else fs[i])
        out += scale * outer * fractional_integral(space, mods, eta)
    return out


class TestBatchedFractionalIntegral:
    """Column blocks and row restriction give exactly the per-column
    full-space values."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("width", [1, 5])
    def test_matches_per_column_calls(self, m, width):
        for sp in class_table_spaces():
            rng = np.random.default_rng(40 + 3 * m + width)
            blocks = [rng.normal(size=(width, sp.n)) for _ in range(m)]
            eta = 0.5 * m
            full = np.stack([fractional_integral(sp, [a[b] for a in blocks],
                                                 eta)
                             for b in range(width)], axis=1)
            rows = rng.choice(sp.n, size=sp.n // 3, replace=False)
            picked = np.zeros(sp.n, dtype=bool)
            picked[rows] = True
            whole_rows = np.repeat(picked[:, None], width, axis=1)
            got = fractional_integral(sp, blocks, eta, rows=whole_rows)
            assert np.array_equal(got, np.where(whole_rows, full, 0.0))
            assert np.array_equal(fractional_integral(sp, blocks, eta), full)
            mask = rng.random((sp.n, width)) < 0.3
            got = fractional_integral(sp, blocks, eta, rows=mask)
            assert np.array_equal(got, np.where(mask, full, 0.0))
            single = fractional_integral(sp, [a[0] for a in blocks], eta,
                                         rows=picked)
            assert np.array_equal(single, np.where(picked, full[:, 0], 0.0))
            with pytest.raises(ValueError, match="boolean mask"):
                fractional_integral(sp, blocks, eta, rows=rows)

    @pytest.mark.parametrize("powers", [(1,), (2,), (1, 1), (2, 1),
                                        (1, 1, 1)])
    def test_commutator_matches_term_loop(self, powers):
        for sp in ball_layer_spaces():
            rng = np.random.default_rng(46 + sum(powers) + len(powers))
            fs = [rng.normal(size=sp.n) for _ in powers]
            symbols = [rng.normal(size=sp.n) for _ in powers]
            got = commutator_integral(sp, fs, symbols, powers, 0.5)
            want = loop_commutator(sp, fs, symbols, powers, 0.5)
            assert np.array_equal(got, want)

    def test_rejects_bad_blocks(self):
        sp = build_grid_space(8)
        with pytest.raises(ValueError):
            fractional_integral(sp, [np.ones((3, 7))], 0.5)
        with pytest.raises(ValueError):
            fractional_integral(sp, [np.ones((3, 8)), np.ones((2, 8))], 0.5)
        with pytest.raises(ValueError):
            fractional_integral(sp, [np.ones((2, 3, 8))], 0.5)
        with pytest.raises(ValueError):
            fractional_integral(sp, [np.ones(8), np.ones((1, 8))], 0.5)
        with pytest.raises(ValueError):
            fractional_integral(sp, [np.ones((3, 8))], 0.5,
                                rows=np.ones(8, dtype=bool))


class TestOrliczMaximal:
    def test_orlicz_maximal_majorizes_plain(self):
        lat = build_standard_lattice(build_grid_space(8))
        rng = np.random.default_rng(26)
        f = np.abs(rng.normal(size=8)) + 0.1
        gauged = orlicz_maximal(lat, [f], [young_llogl(1.0)])
        plain = dyadic_maximal(lat, f)
        assert np.all(gauged >= plain * (1 - 1e-9))

    def test_requires_matching_gauges(self):
        lat = build_standard_lattice(build_grid_space(8))
        with pytest.raises(ValueError):
            orlicz_maximal(lat, [np.ones(8)], [])


def loop_grand_maximal(space, fs, eta, dilation, base_center, base_radius):
    """Per-radius ball loop the operators used before the ball layer:
    every realized radius of every center, members by flatnonzero."""
    n = space.n
    centers = space.ball(base_center, base_radius).members
    base_set = np.zeros(n, dtype=bool)
    base_set[centers] = True
    big0 = space.metric[base_center] <= dilation * base_radius
    out = np.zeros(n)
    for y in centers:
        d = space.metric[y]
        for r in space.realized_distances(y):
            ball = np.flatnonzero(d <= r)
            if not np.all(base_set[ball]):
                continue
            keep = big0 & (d > dilation * r)
            if not np.any(keep):
                continue
            vals = fractional_integral(space, [f * keep for f in fs], eta)
            peak = float(np.abs(vals[ball]).max())
            out[ball] = np.maximum(out[ball], peak)
    return out


def whole_space_grand_maximal(space, fs, eta, dilation):
    """The local form on a base ball around point 0 that holds the whole
    space; for dilation >= 1 the cut-off region is the whole space too."""
    radius = float(space.distances(0).max())
    return truncated_grand_maximal_local(space, fs, eta, dilation, 0, radius)


def loop_fractional_maximal(space, fs, eta):
    """Per-center argsort and cumsum, as before the ball layer."""
    n = space.n
    fm = [np.abs(f) * space.masses for f in fs]
    out = np.zeros(n)
    for y in range(n):
        order = np.argsort(space.metric[y], kind="stable")
        dsorted = space.metric[y][order]
        pmass = np.cumsum(space.masses[order])
        ends = np.append(np.flatnonzero(np.diff(dsorted) > 0), n - 1)
        vals = pmass[ends] ** (eta - len(fs))
        for f in fm:
            vals = vals * np.cumsum(f[order])[ends]
        out[y] = float(vals.max())
    return out


def ball_layer_spaces():
    rng = np.random.default_rng(31)
    grid = build_grid_space(32, masses=np.exp(rng.uniform(-1, 1, size=32)))
    pts = rng.uniform(0, 1, size=(24, 2))
    metric = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=2))
    return [grid, build_explicit_space(metric, rng.uniform(0.5, 2, 24))]


def class_table_spaces():
    """ball_layer_spaces plus a 32-point unit grid, whose kernel has n
    distinct values, so m = 2 runs on the class table there."""
    return ball_layer_spaces() + [build_grid_space(32)]


class TestBallLayerOperators:
    """The ball-layer operators reproduce the per-radius loops exactly."""

    def test_fractional_maximal_matches_loop(self):
        for sp in ball_layer_spaces():
            rng = np.random.default_rng(32)
            fs = [rng.normal(size=sp.n) for _ in range(2)]
            for eta in (0.0, 0.75):
                got = fractional_maximal(sp, fs, eta)
                want = loop_fractional_maximal(sp, fs, eta)
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("dilation", [0.5, 2.0, 6.0])
    def test_whole_space_base_matches_loop(self, dilation):
        for sp in ball_layer_spaces():
            rng = np.random.default_rng(33)
            fs = [rng.normal(size=sp.n) for _ in range(2)]
            radius = float(sp.distances(0).max())
            got = whole_space_grand_maximal(sp, fs, 0.5, dilation)
            assert np.array_equal(
                got, loop_grand_maximal(sp, fs, 0.5, dilation, 0, radius))

    @pytest.mark.parametrize("center,radius,dilation", [
        (16, 0.25, 2.0), (3, 0.5, 4.0), (20, 0.125, 1.0), (0, 1.0, 3.0)])
    def test_local_matches_loop(self, center, radius, dilation):
        for sp in class_table_spaces():
            rng = np.random.default_rng(34)
            f = np.abs(rng.normal(size=sp.n))
            got = truncated_grand_maximal_local(sp, [f], 0.25, dilation,
                                                center, radius)
            want = loop_grand_maximal(sp, [f], 0.25, dilation, center,
                                      radius)
            assert np.array_equal(got, want)

    def test_local_all_zero_matches_loop(self):
        # a dilation past the base ball's reach leaves every cut-off
        # integrand empty, as in default dominate runs
        sp = ball_layer_spaces()[0]
        f = np.abs(np.random.default_rng(35).normal(size=sp.n))
        got = truncated_grand_maximal_local(sp, [f], 0.0, 32.0, 8, 1 / 32)
        want = loop_grand_maximal(sp, [f], 0.0, 32.0, 8, 1 / 32)
        assert np.array_equal(got, want)
        assert not np.any(got)

    @pytest.mark.parametrize("m", [1, 2])
    def test_block_rows_match_per_row_calls(self, m):
        # a (T, n) block walks the balls once; row t must equal the call
        # on row t of every block, bit for bit
        for sp in class_table_spaces():
            rng = np.random.default_rng(36 + m)
            blocks = [rng.normal(size=(3, sp.n)) for _ in range(m)]
            for call in (
                    lambda fs: whole_space_grand_maximal(sp, fs, 0.5, 2.0),
                    lambda fs: truncated_grand_maximal_local(
                        sp, fs, 0.25, 2.0, 16, 0.25)):
                got = call(blocks)
                want = [call([b[t] for b in blocks]) for t in range(3)]
                assert got.shape == (3, sp.n)
                assert np.array_equal(got, np.array(want))
                assert np.all(np.any(got, axis=1))

    def test_malformed_block_rejected_without_balls(self):
        # the all-zero setting above keeps no ball, so the shape check
        # must not wait for the fractional integral
        sp = ball_layer_spaces()[0]
        n = sp.n
        out = truncated_grand_maximal_local(sp, [np.ones((2, n))], 0.0,
                                            32.0, 8, 1 / 32)
        assert out.shape == (2, n) and not np.any(out)
        for fs in ([np.ones((2, n)), np.ones((3, n))],
                   [np.ones(n), np.ones((1, n))], [np.ones((2, n - 1))],
                   [np.ones((2, 2, n))], []):
            with pytest.raises(ValueError):
                truncated_grand_maximal_local(sp, fs, 0.0, 32.0, 8, 1 / 32)


class TestTruncatedGrandMaximal:
    def test_zero_arguments(self):
        sp = build_grid_space(8)
        out = whole_space_grand_maximal(sp, [np.zeros(8)], 0.5, 4.0)
        assert np.array_equal(out, np.zeros(8))

    def test_finite_nonnegative(self):
        sp = build_grid_space(8)
        rng = np.random.default_rng(27)
        fs = [np.abs(rng.normal(size=8)) for _ in range(2)]
        out = whole_space_grand_maximal(sp, fs, 0.5, 4.0)
        assert np.all(np.isfinite(out))
        assert np.all(out >= 0)

    def test_larger_dilation_shrinks(self):
        sp = build_grid_space(16)
        rng = np.random.default_rng(28)
        f = np.abs(rng.normal(size=16))
        small = whole_space_grand_maximal(sp, [f], 0.25, 2.0)
        large = whole_space_grand_maximal(sp, [f], 0.25, 6.0)
        assert np.all(large <= small * (1 + 1e-12))

    def test_local_variant_runs(self):
        sp = build_grid_space(16)
        rng = np.random.default_rng(29)
        f = np.abs(rng.normal(size=16))
        out = truncated_grand_maximal_local(sp, [f], 0.25, 2.0, 8, 0.25)
        assert out.shape == (16,)
        assert np.all(out >= 0)
        outside = np.setdiff1d(np.arange(16),
                               sp.ball(8, 0.25).members)
        assert np.all(out[outside] == 0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_sparse_operator_oracle_property(seed):
    fam = antichain8()
    rng = np.random.default_rng(seed)
    fs = [np.abs(rng.normal(size=8)) for _ in range(2)]
    eta = rng.uniform(0, 1.5)
    got = sparse_operator(fam, fs, eta=eta, p0=1.0, gamma=1.0)
    want = oracle_sparse_basic(fam, fs, eta, 1.0, 1.0)
    assert got == pytest.approx(want, rel=1e-11)
