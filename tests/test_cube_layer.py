"""Cube-statistics layer: segment reductions over point_to_cube checked
against explicit loops over each cube's members."""

import math

import numpy as np
import pytest

from sparselab.domination import augment_sparse
from sparselab.dyadic import (build_hk_lattice, build_shifted_adjacent,
                              build_standard_lattice, random_sparse_family,
                              select_witnesses)
from sparselab.operators import (MultiIndexPair, dyadic_maximal,
                                 sharp_maximal_dyadic, sparse_first_order,
                                 sparse_higher_order, sparse_operator)
from sparselab.space import build_explicit_space, build_grid_space
from sparselab.weights import (avg, bmo_norm, luxemburg_norm, muckenhoupt_ap,
                               young_expl, young_identity, young_llogl,
                               young_power_log)


def _standard():
    rng = np.random.default_rng(11)
    sp = build_grid_space(32, masses=rng.integers(1, 5, 32).astype(float))
    return build_standard_lattice(sp)


def _shifted():
    # the second of three shifted systems, on non-uniform masses
    sp = build_grid_space(32, masses=np.random.default_rng(12).uniform(
        0.5, 2.0, 32))
    return build_shifted_adjacent(sp, 3).lattices[1]


def _hk():
    rng = np.random.default_rng(13)
    pts = rng.uniform(size=(20, 2))
    metric = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    sp = build_explicit_space(metric, rng.uniform(0.5, 2.0, 20))
    return build_hk_lattice(sp, 0.5)


@pytest.fixture(params=["standard", "shifted", "hk"])
def lattice(request):
    return {"standard": _standard, "shifted": _shifted,
            "hk": _hk}[request.param]()


def _loop_sums(lat, table):
    masses = lat.space.masses
    return np.array([float(np.dot(table[k][lat.members(cid)],
                                  masses[lat.members(cid)]))
                     for cid, k in enumerate(lat.gen)])


def _loop_max(lat, table):
    return np.array([float(table[k][lat.members(cid)].max())
                     for cid, k in enumerate(lat.gen)])


def _children(lat, cid):
    """The cube's children, in cube-id order."""
    return np.flatnonzero(lat.parent == cid).tolist()


def _table(lat, values):
    return np.broadcast_to(values, lat.point_to_cube.shape)


def test_cube_sums_flat_input(lattice):
    f = np.random.default_rng(1).standard_normal(lattice.space.n)
    want = _loop_sums(lattice, _table(lattice, f))
    np.testing.assert_allclose(lattice.cube_sums(f), want, rtol=1e-12,
                               atol=1e-12)
    np.testing.assert_allclose(lattice.cube_means(f),
                               want / lattice.cube_masses, rtol=1e-12,
                               atol=1e-12)


def test_cube_sums_per_generation_input(lattice):
    table = np.random.default_rng(2).standard_normal(
        lattice.point_to_cube.shape)
    np.testing.assert_allclose(lattice.cube_sums(table),
                               _loop_sums(lattice, table), rtol=1e-12,
                               atol=1e-12)


def test_cube_statistics_take_a_column_block(lattice):
    # column b of a 3-D block equals the 1-D or (generations, n) call on
    # column b bit for bit
    rng = np.random.default_rng(18)
    gens, n = lattice.point_to_cube.shape
    flat = np.concatenate([np.eye(n), rng.standard_normal((n, 3))], axis=1)
    table = rng.standard_normal((gens, n, 4))
    for block, cols in ((flat[None], flat.T), (table, table.transpose(2, 0, 1))):
        for stat in (lattice.cube_sums, lattice.cube_means):
            got = stat(block)
            assert got.shape == (len(lattice.gen), block.shape[2])
            assert np.array_equal(got, np.stack([stat(c) for c in cols],
                                                axis=1))


def test_cube_max_both_shapes(lattice):
    rng = np.random.default_rng(3)
    f = rng.standard_normal(lattice.space.n)
    assert np.array_equal(lattice.cube_max(f),
                          _loop_max(lattice, _table(lattice, f)))
    table = rng.standard_normal(lattice.point_to_cube.shape)
    assert np.array_equal(lattice.cube_max(table),
                          _loop_max(lattice, table))


def test_deviations_subtract_the_containing_cube_mean(lattice):
    b = np.random.default_rng(4).standard_normal(lattice.space.n)
    dev = lattice.deviations(b)
    masses = lattice.space.masses
    for cid, (k, mass) in enumerate(zip(lattice.gen, lattice.mass)):
        mem = lattice.members(cid)
        mean = float(np.dot(b[mem], masses[mem])) / mass
        np.testing.assert_allclose(dev[k][mem], b[mem] - mean,
                                   rtol=1e-12, atol=1e-12)


def test_maximal_functions_match_member_loops(lattice):
    f = np.random.default_rng(5).standard_normal(lattice.space.n)
    masses = lattice.space.masses
    want_max = np.zeros(lattice.space.n)
    want_sharp = np.zeros(lattice.space.n)
    for cid, mass in enumerate(lattice.mass.tolist()):
        mem = lattice.members(cid)
        mean = float(np.dot(f[mem], masses[mem])) / mass
        absmean = float(np.dot(np.abs(f[mem]), masses[mem])) / mass
        osc = float(np.dot(np.abs(f[mem] - mean), masses[mem])) / mass
        want_max[mem] = np.maximum(want_max[mem], absmean)
        want_sharp[mem] = np.maximum(want_sharp[mem], osc)
    np.testing.assert_allclose(dyadic_maximal(lattice, f), want_max,
                               rtol=1e-12)
    np.testing.assert_allclose(sharp_maximal_dyadic(lattice, f),
                               want_sharp, rtol=1e-12)


def test_cube_listed_twice_counts_twice(lattice):
    rng = np.random.default_rng(6)
    n = lattice.space.n
    family = random_sparse_family(lattice, rng)
    twice_ids = list(family.cube_ids) + [family.cube_ids[0]]
    twice = select_witnesses(lattice, family.cube_ids, family.delta)
    twice.cube_ids = twice_ids
    f = np.abs(rng.standard_normal(n))
    once = sparse_operator(family, [f])
    masses = lattice.space.masses
    want = np.zeros(n)
    for cid in twice_ids:
        mem = lattice.members(cid)
        want[mem] += float(np.dot(f[mem], masses[mem])) / \
            lattice.mass.item(cid)
    np.testing.assert_allclose(sparse_operator(twice, [f]), want,
                               rtol=1e-12)
    extra = lattice.members(family.cube_ids[0])
    assert np.all(sparse_operator(twice, [f])[extra] > once[extra])


def test_higher_order_form_matches_member_loop(lattice):
    rng = np.random.default_rng(7)
    n = lattice.space.n
    masses = lattice.space.masses
    family = random_sparse_family(lattice, rng)
    fs = [np.abs(rng.standard_normal(n)) for _ in range(2)]
    bs = [rng.standard_normal(n) for _ in range(2)]
    pair = MultiIndexPair((2, 1), (1, 0), (0, 1), (0, 1))
    want = np.zeros(n)
    for cid in family.cube_ids:
        mem = lattice.members(cid)
        mass = lattice.mass.item(cid)
        means = [float(np.dot(b[mem], masses[mem])) / mass for b in bs]
        coeff = mass ** 0.5
        for i in range(2):
            g = np.abs(fs[i][mem] * (bs[i][mem] - means[i]) ** pair.t[i])
            coeff *= float(np.dot(g, masses[mem])) / mass
        point = np.full(len(mem), coeff)
        for i in range(2):
            point *= np.abs(bs[i][mem] - means[i]) ** (pair.k[i] - pair.t[i])
        want[mem] += point
    np.testing.assert_allclose(
        sparse_higher_order(family, fs, bs, pair, eta=0.5), want,
        rtol=1e-12, atol=1e-300)


def test_sup_tie_goes_to_lowest_cube_id():
    lat = build_standard_lattice(build_grid_space(8))
    w = np.array([1.0, 1, 2, 1, 1, 1, 2, 1])
    # the cubes {2, 3} and {6, 7} both reach 1.5 * 0.75
    value, cube_id = muckenhoupt_ap(lat, w, 2.0, detail=True)
    assert value == 1.125
    ties = [cid for cid in range(len(lat.gen))
            if set(lat.members(cid).tolist()) in ({2, 3}, {6, 7})]
    assert cube_id == min(ties)
    # the unit weight averages to exactly 1 on every cube, whatever the
    # masses, so every cube ties and the root, cube 0, wins
    assert muckenhoupt_ap(lat, np.ones(8), 2.0, detail=True) == (1.0, 0)
    uneven = build_standard_lattice(build_grid_space(
        64, masses=np.random.default_rng(8).uniform(0.5, 2.0, 64)))
    assert muckenhoupt_ap(uneven, np.ones(64), 2.0, detail=True) == (1.0, 0)


def test_bmo_norm_skips_nan_cubes():
    lat = build_standard_lattice(build_grid_space(8))
    b = np.array([0.0, 4.0, 1.0, 1.0, 0.0, 0.0, 0.0, math.nan])
    value, cube_id = bmo_norm(lat, b, detail=True)
    # every cube holding point 7 is NaN; {0, 1} has the largest
    # oscillation among the rest
    assert lat.members(cube_id).tolist() == [0, 1]
    assert value == 2.0
    assert bmo_norm(lat, np.full(8, math.nan), detail=True) == \
        (-math.inf, None)


# -- maximal subcubes and the constructions that read them -------------------

def _parent_walk(lat, cid, flagged):
    # the child walk augment_sparse used before maximal_subcubes
    picked = []
    stack = list(reversed(_children(lat, cid)))
    while stack:
        cand = stack.pop()
        if flagged[cand]:
            picked.append(cand)
        else:
            stack.extend(reversed(_children(lat, cand)))
    return picked


def _parent_stopping_cubes(lattice, cid, bad, lam):
    # the parent's domination._stopping_cubes, on cube ids
    sp = lattice.space
    out = []
    stack = list(reversed(_children(lattice, cid)))
    while stack:
        cand = stack.pop()
        mem = lattice.members(cand)
        inter = float(sp.masses[mem[bad[mem]]].sum())
        if inter > lam * lattice.mass[cand]:
            out.append(cand)
        elif inter > 0.0:
            stack.extend(reversed(_children(lattice, cand)))
    out.sort(key=lambda c: (lattice.gen[c], lattice.index[c]))
    return out


def test_maximal_subcubes_match_child_walk(lattice):
    rng = np.random.default_rng(21)
    finest = lattice.generations[-1][0]
    cubes = np.flatnonzero(lattice.gen < 3).tolist() + [finest]
    count = len(lattice.gen)
    for cid in cubes:
        for density in (0.0, 0.1, 0.4, 1.0):
            flagged = rng.uniform(size=count) < density
            got = lattice.maximal_subcubes(cid, flagged)
            assert got.tolist() == sorted(_parent_walk(lattice, cid,
                                                       flagged))
    assert lattice.maximal_subcubes(finest, np.ones(count,
                                                    dtype=bool)).size == 0
    none = np.zeros(count, dtype=bool)
    assert lattice.maximal_subcubes(0, none).size == 0


def test_stopping_cubes_match_parent(lattice):
    rng = np.random.default_rng(22)
    for cid in np.flatnonzero(lattice.gen < 3).tolist():
        mem = lattice.members(cid)
        for _ in range(6):
            bad = np.zeros(lattice.space.n, dtype=bool)
            bad[mem] = rng.uniform(size=mem.size) < rng.uniform()
            lam = rng.uniform(0.05, 0.95)
            charged = lattice.cube_sums(bad) > lam * lattice.cube_masses
            got = lattice.maximal_subcubes(cid, charged).tolist()
            want = _parent_stopping_cubes(lattice, cid, bad, lam)
            assert got == want


def _parent_augment(family, b):
    # the parent's domination.augment_sparse, verbatim
    lat = family.lattice
    sp = lat.space
    b = np.asarray(b, dtype=np.float64)
    gamma = family.delta
    new_delta = gamma / (2.0 * (gamma + 1.0))
    cmu0 = lat.cmu0()
    means = lat.cube_means(b)
    ids = sorted(set(family.cube_ids),
                 key=lambda cid: (lat.gen[cid], lat.index[cid]))
    present = set(ids)
    rows = []
    added_all = []
    queue = list(ids)
    while queue:
        cid = queue.pop(0)
        b_q = means[cid]
        osc = avg(lat.space, lat.members(cid), b - b_q, 1.0)
        budget = 2.0 * cmu0 * osc
        picked = []
        stack = list(reversed(_children(lat, cid)))
        while stack:
            cand = stack.pop()
            val = avg(sp, lat.members(cand), b - b_q, 1.0)
            if val > budget:
                picked.append(cand)
            else:
                stack.extend(reversed(_children(lat, cand)))
        fresh = [c for c in picked if c not in present]
        for c in fresh:
            present.add(c)
            queue.append(c)
            added_all.append(c)
        rows.append({"cube_id": cid, "osc": osc, "budget": budget,
                     "added": fresh})
    new_ids = sorted(present,
                     key=lambda cid: (lat.gen[cid], lat.index[cid]))
    augmented = select_witnesses(lat, new_ids, new_delta)
    oscs = {}
    for cid in new_ids:
        oscs[cid] = avg(sp, lat.members(cid), b - means[cid], 1.0)
    empirical = 0.0
    vacuous = True
    ratio_by_cube = {}
    for cid in new_ids:
        mem = lat.members(cid)
        inside = set(mem.tolist())
        num = np.abs(b[mem] - means[cid])
        denom = np.zeros(sp.n)
        for other in new_ids:
            oc = lat.members(other)
            if lat.gen[other] >= lat.gen[cid] and int(oc[0]) in inside:
                denom[oc] += oscs[other]
        dvals = denom[mem]
        live = dvals > 0.0
        if np.any(num > 1e-14 * max(1.0, float(np.abs(b).max()))):
            vacuous = False
        if np.any(live):
            ratio = float((num[live] / dvals[live]).max())
        else:
            ratio = 0.0
        ratio_by_cube[cid] = ratio
        empirical = max(empirical, ratio)
    for row in rows:
        row["max_ratio"] = ratio_by_cube.get(row["cube_id"], 0.0)
    if vacuous:
        empirical = 0.0
    table = {"empirical_c": empirical, "vacuous": vacuous,
             "delta": new_delta, "rows": rows, "added": added_all}
    return augmented, table


def test_augment_sparse_matches_parent(lattice):
    rng = np.random.default_rng(23)
    grew = 0
    for _ in range(12):
        family = random_sparse_family(lattice, rng)
        # a spike on the lightest point makes the small cubes around it
        # oscillate above the budget
        b = 0.01 * rng.standard_normal(lattice.space.n)
        b[np.argmin(lattice.space.masses)] += rng.uniform(1.0, 5.0)
        want_fam, want = _parent_augment(family, b)
        got_fam, got = augment_sparse(family, b)
        assert got_fam.cube_ids == want_fam.cube_ids
        assert got_fam.witnesses.keys() == want_fam.witnesses.keys()
        for cid, wit in want_fam.witnesses.items():
            assert got_fam.witnesses[cid].tolist() == wit.tolist()
        assert got["added"] == want["added"]
        assert got["vacuous"] == want["vacuous"]
        assert got["delta"] == want["delta"]
        assert got["empirical_c"] == pytest.approx(want["empirical_c"],
                                                   rel=1e-12)
        assert [(r["cube_id"], r["added"]) for r in got["rows"]] == \
            [(r["cube_id"], r["added"]) for r in want["rows"]]
        for g, w in zip(got["rows"], want["rows"]):
            for key in ("osc", "budget", "max_ratio"):
                assert g[key] == pytest.approx(w[key], rel=1e-12,
                                               abs=1e-300), key
        grew += bool(want["added"])
    assert grew


def test_augment_sparse_adds_in_depth_first_order():
    # the picks below the root span generations 4 and 5, so depth-first
    # order is not cube-id order
    lat = build_standard_lattice(build_grid_space(32))
    family = select_witnesses(lat, [0], 0.5)
    b = np.zeros(32)
    b[[3, 6, 15, 22, 28]] = [-3.9, -1.6, 1.8, 3.9, 0.6]
    want_fam, want = _parent_augment(family, b)
    got_fam, got = augment_sparse(family, b)
    assert got["rows"][0]["added"] == [16, 37, 46, 26]
    assert got["added"] == want["added"]
    assert [r["cube_id"] for r in got["rows"]] == \
        [r["cube_id"] for r in want["rows"]]
    assert got_fam.cube_ids == want_fam.cube_ids


# -- Luxemburg gauges --------------------------------------------------------

class LLogLConjugate:
    """Convex conjugate of t(1 + log+ t): flat to 1, linear to 2, then
    exponential.  A test-local gauge: luxemburg_norm reads only .value,
    and kind names the test case."""

    kind = "llogl_conjugate"

    @staticmethod
    def value(t):
        t = np.asarray(t, dtype=np.float64)
        return np.where(t <= 1.0, 0.0,
                        np.where(t <= 2.0, t - 1.0,
                                 np.exp(np.minimum(t, 700.0) - 2.0)))


YOUNG = [young_identity(), young_llogl(1.0), young_llogl(2.0),
         young_expl(1.0), young_expl(0.5), young_power_log(2.0, 0.5),
         LLogLConjugate()]


def _parent_luxemburg(space, members, f, phi, tol=1e-10):
    # the scalar member-set bisection the lattice gauge replaced
    members = np.asarray(members, dtype=np.intp)
    vals = np.abs(np.asarray(f, dtype=np.float64)[members])
    mass = space.masses[members]
    total = float(mass.sum())
    if float(vals.max(initial=0.0)) == 0.0:
        return 0.0

    def mean_phi(lam):
        return float(np.dot(phi.value(vals / lam), mass)) / total

    hi = 1.0
    steps = 0
    while mean_phi(hi) > 1.0:
        hi *= 2.0
        steps += 1
        if steps > 2000:
            raise ArithmeticError("no finite bracket for the gauge norm")
    lo = hi / 2.0
    steps = 0
    while mean_phi(lo) <= 1.0:
        hi = lo
        lo /= 2.0
        steps += 1
        if steps > 2000:
            raise ArithmeticError("gauge norm bracket collapsed")
    while (hi - lo) > tol * hi:
        mid = 0.5 * (lo + hi)
        if mean_phi(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def _gauge_inputs(lattice):
    rng = np.random.default_rng(14)
    n = lattice.space.n
    zero = lattice.members(lattice.generations[1][0])
    f = 3.0 * np.abs(rng.standard_normal(n))
    f[zero] = 0.0
    devs = np.abs(lattice.deviations(rng.standard_normal(n))) ** 2
    devs[:, zero] = 0.0
    return [f, 1e-3 * f, devs]


@pytest.mark.parametrize("phi", YOUNG, ids=lambda phi: phi.kind)
def test_gauge_matches_scalar_bisection(lattice, phi):
    for f in _gauge_inputs(lattice):
        table = _table(lattice, f)
        want = np.array([_parent_luxemburg(lattice.space,
                                           lattice.members(cid), table[k],
                                           phi)
                         for cid, k in enumerate(lattice.gen)])
        got = luxemburg_norm(lattice, f, phi)
        assert np.array_equal(got, want)
        assert np.any(got == 0.0) and np.any(got > 0.0)


def test_gauge_nan_and_infinite_cubes(lattice):
    n = lattice.space.n
    f = np.abs(np.random.default_rng(15).standard_normal(n))
    f[0], f[n - 1] = math.nan, math.inf
    got = luxemburg_norm(lattice, f, young_llogl(1.0))
    holds = np.zeros((2, len(lattice.gen)), dtype=bool)
    holds[0, lattice.point_to_cube[:, 0]] = True
    holds[1, lattice.point_to_cube[:, n - 1]] = True
    assert np.array_equal(np.isnan(got), holds[0])
    assert np.array_equal(got == math.inf, holds[1] & ~holds[0])
    clean = ~holds.any(axis=0)
    want = [_parent_luxemburg(lattice.space, lattice.members(cid), f,
                              young_llogl(1.0))
            for cid in np.flatnonzero(clean)]
    assert np.array_equal(got[clean], want)


# -- first-order form --------------------------------------------------------

def _parent_first_order(family, fs, symbols, tau, tau_ell, eta, r):
    # sparse_first_order before it became a call to sparse_higher_order
    lat = family.lattice
    coeffs = lat.cube_masses ** (eta / r)
    for i, f in enumerate(fs):
        if i in tau or i not in tau_ell:
            g = f
        else:
            g = lat.deviations(symbols[i]) * f
        coeffs = coeffs * lat.cube_means(np.abs(g) ** r) ** (1.0 / r)
    factor = 1.0
    for i in sorted(tau):
        factor = factor * np.abs(lat.deviations(symbols[i]))
    return family.pointwise(coeffs, factor)


def test_first_order_is_higher_order_case(lattice):
    rng = np.random.default_rng(16)
    n = lattice.space.n
    family = random_sparse_family(lattice, rng)
    for trial in range(24):
        m = 1 + trial % 3
        r = 1.0 + trial % 2
        fs = [np.abs(rng.standard_normal(n)) for _ in range(m)]
        bs = [rng.standard_normal(n) for _ in range(m)]
        tau_ell = {i for i in range(m) if rng.random() < 0.7}
        tau = {i for i in tau_ell if rng.random() < 0.5}
        got = sparse_first_order(family, fs, bs, tau, tau_ell, eta=0.5, r=r)
        want = _parent_first_order(family, fs, bs, tau, tau_ell, 0.5, r)
        assert np.array_equal(got, want)
    with pytest.raises(ValueError, match="tau must be contained"):
        sparse_first_order(family, fs, bs, {0}, set())
