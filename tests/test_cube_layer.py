"""Cube-statistics layer: segment reductions over point_to_cube checked
against explicit loops over each cube's members."""

import math

import numpy as np
import pytest

from sparselab.dyadic import (build_hk_lattice, build_shifted_adjacent,
                              build_standard_lattice, random_sparse_family,
                              select_witnesses)
from sparselab.operators import (MultiIndexPair, dyadic_maximal,
                                 sharp_maximal_dyadic, sparse_higher_order,
                                 sparse_operator)
from sparselab.space import build_explicit_space, build_grid_space
from sparselab.weights import bmo_norm, muckenhoupt_ap


def _standard():
    rng = np.random.default_rng(11)
    sp = build_grid_space(32, masses=rng.integers(1, 5, 32).astype(float))
    return build_standard_lattice(sp)


def _shifted():
    # the lattice a check picks with lattice_seed = 1
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
    return np.array([float(np.dot(table[c.gen][c.members],
                                  masses[c.members])) for c in lat.cubes])


def _loop_max(lat, table):
    return np.array([float(table[c.gen][c.members].max())
                     for c in lat.cubes])


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
    for cube in lattice.cubes:
        mem = cube.members
        mean = float(np.dot(b[mem], masses[mem])) / cube.mass
        np.testing.assert_allclose(dev[cube.gen][mem], b[mem] - mean,
                                   rtol=1e-12, atol=1e-12)


def test_maximal_functions_match_member_loops(lattice):
    f = np.random.default_rng(5).standard_normal(lattice.space.n)
    masses = lattice.space.masses
    want_max = np.zeros(lattice.space.n)
    want_sharp = np.zeros(lattice.space.n)
    for cube in lattice.cubes:
        mem = cube.members
        mean = float(np.dot(f[mem], masses[mem])) / cube.mass
        absmean = float(np.dot(np.abs(f[mem]), masses[mem])) / cube.mass
        osc = float(np.dot(np.abs(f[mem] - mean), masses[mem])) / cube.mass
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
        mem = lattice.cube(cid).members
        want[mem] += float(np.dot(f[mem], masses[mem])) / \
            lattice.cube(cid).mass
    np.testing.assert_allclose(sparse_operator(twice, [f]), want,
                               rtol=1e-12)
    extra = lattice.cube(family.cube_ids[0]).members
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
        cube = lattice.cube(cid)
        mem = cube.members
        means = [float(np.dot(b[mem], masses[mem])) / cube.mass for b in bs]
        coeff = cube.mass ** 0.5
        for i in range(2):
            g = np.abs(fs[i][mem] * (bs[i][mem] - means[i]) ** pair.t[i])
            coeff *= float(np.dot(g, masses[mem])) / cube.mass
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
    ties = [c.cube_id for c in lat.cubes
            if set(c.members.tolist()) in ({2, 3}, {6, 7})]
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
    assert lat.cube(cube_id).members.tolist() == [0, 1]
    assert value == 2.0
    assert bmo_norm(lat, np.full(8, math.nan), detail=True) == \
        (-math.inf, None)
