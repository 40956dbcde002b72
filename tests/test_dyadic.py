"""Lattice constructions, adjacent systems, and witness selection."""

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselab import dyadic
from sparselab.dyadic import (
    AdjacentSystems,
    STANDARD_A1,
    STANDARD_BIG_A1,
    STANDARD_DELTA,
    CoverError,
    DyadicLattice,
    LatticeError,
    WitnessSelectionError,
    _compute_c_adj,
    adjacent_cover,
    build_hk_lattice,
    build_shifted_adjacent,
    build_standard_lattice,
    lattice_to_descriptor,
    random_sparse_family,
    select_witnesses,
    verify_sparse,
)
from sparselab.space import build_explicit_space, build_grid_space


def oracle_c_adj(space, lattices):
    """Brute-force covering scan over every realized ball and every cube,
    with membership as boolean rows."""
    inside = np.array([np.isin(np.arange(space.n), lat.members(cid))
                       for lat in lattices for cid in range(len(lat.gen))])
    worst = 1.0
    for x in range(space.n):
        reach = np.where(inside, space.metric[x], -np.inf).max(axis=1)
        for r in space.realized_distances(x):
            ball = space.metric[x] <= r
            covers = ~np.any(ball & ~inside, axis=1)
            worst = max(worst, float(reach[covers].min() / r))
    return worst


def cube_sets(systems):
    """(system, gen, index, cube id, mass, member set) of every cube of
    every lattice."""
    return [(lat.system, lat.gen.item(cid), lat.index.item(cid), cid,
             lat.mass.item(cid), set(lat.members(cid).tolist()))
            for lat in systems.lattices for cid in range(len(lat.gen))]


def parent_adjacent_cover(systems, ball, cubes=None):
    """The set-based adjacent_cover the cube-layer version replaced;
    cubes, when given, is cube_sets(systems).  Returns (system, cube
    id)."""
    sp = systems.space
    x = ball.center
    want = set(ball.members.tolist())
    dilated = sp.ball(x, systems.c_adj * ball.radius)
    allowed = set(dilated.members.tolist())
    best = None
    for system, k, index, cid, mass, mem in cubes or cube_sets(systems):
        if want <= mem and mem <= allowed:
            key = (mass, system, k, index)
            if best is None or key < best[0]:
                best = (key, system, cid)
    if best is None:
        raise CoverError(f"no cube covers ball B({x}, {ball.radius}) "
                         "within the dilation bound", ball=ball)
    return best[1], best[2]


def parent_random_sparse_family(lattice, rng, delta=0.5):
    """The drop-and-rerun thinning: drop the first starved cube and
    select again over the remaining list, until selection succeeds.
    Returns the family and the number of cubes dropped."""
    ids = []
    root = lattice.generations[0][0]
    stack = [root]
    while stack:
        cid = stack.pop()
        children = np.flatnonzero(lattice.parent == cid).tolist()
        if not children:
            if rng.uniform() < 0.5:
                ids.append(cid)
            continue
        roll = rng.uniform()
        if roll < 0.25:
            ids.append(cid)
        elif roll < 0.55:
            ids.append(cid)
            stack.extend(reversed(children))
        else:
            stack.extend(reversed(children))
    if not ids:
        ids = [root]
    ids = sorted(set(ids))
    drops = 0
    while ids:
        try:
            return select_witnesses(lattice, ids, delta), drops
        except WitnessSelectionError as err:
            if err.cube_id is None or err.cube_id not in ids:
                break
            ids.remove(err.cube_id)
            drops += 1
    return select_witnesses(lattice, [root], delta), drops


def reference_finish(lat, gen_members, centers):
    """The per-cube _finish the generation passes replaced: one mass,
    partition and nesting check per cube.  Returns the reference
    records: point_to_cube, cube_masses, generations and one tuple
    (system, gen, index, members, center, cube id, mass, parent, children)
    per cube, parent None at generation 0."""
    n = lat.space.n
    point_to_cube = np.full((len(gen_members), n), -1, dtype=np.intp)
    fields, generations = [], []
    for k, blocks in enumerate(gen_members):
        ids = []
        for idx, members in enumerate(blocks):
            members = np.asarray(members, dtype=np.intp)
            cid = len(fields)
            fields.append((lat.system, k, idx, members, int(centers[k][idx]),
                           cid, lat.space.mass_of(members)))
            ids.append(cid)
            if np.any(point_to_cube[k, members] != -1):
                raise LatticeError(f"generation {k} does not partition")
            point_to_cube[k, members] = cid
        if np.any(point_to_cube[k] == -1):
            raise LatticeError(f"generation {k} does not cover the space")
        generations.append(ids)
    cube_masses = np.bincount(
        point_to_cube.ravel(),
        np.broadcast_to(lat.space.masses, point_to_cube.shape).ravel(),
        minlength=len(fields))
    parents = [None] * len(fields)
    children = [[] for _ in fields]
    for k in range(1, len(gen_members)):
        for cid in generations[k]:
            members = fields[cid][3]
            parent = int(point_to_cube[k - 1, members[0]])
            if not np.all(point_to_cube[k - 1, members] == parent):
                raise LatticeError(f"cube {cid} at generation {k} is not nested")
            parents[cid] = parent
            children[parent].append(cid)
    cubes = [(*f, p, c) for f, p, c in zip(fields, parents, children)]
    return SimpleNamespace(point_to_cube=point_to_cube,
                           cube_masses=cube_masses,
                           generations=generations, cubes=cubes)


def reference_json(lat, want):
    """The per-cube lattice JSON dump, read from reference records."""
    cubes = [{"id": cid, "system": system, "gen": k, "index": index,
              "center": center, "members": members.tolist(),
              "parent": parent, "mass": mass}
             for system, k, index, members, center, cid, mass, parent, _
             in want.cubes]
    return json.dumps({"system": lat.system, "delta": lat.delta,
                       "a1": lat.a1, "A1": lat.big_a1,
                       "depth": len(want.generations) - 1, "cubes": cubes},
                      sort_keys=True)


def reference_standard_lattice(space, shift=0):
    """The per-block build_standard_lattice the bound arrays replaced."""
    n = space.n
    lat = DyadicLattice(space, 0, STANDARD_DELTA, STANDARD_A1,
                        STANDARD_BIG_A1)
    gen_members, centers = [], []
    for k in range(n.bit_length()):
        width = n >> k
        cuts = sorted({(shift + j * width) % n for j in range(1 << k)})
        if cuts[0] == 0:
            bounds = cuts + [n]
        elif len(cuts) == 1:
            bounds = [0, n]
        else:
            bounds = [0] + cuts + [n]
        blocks = [np.arange(bounds[i], bounds[i + 1], dtype=np.intp)
                  for i in range(len(bounds) - 1)]
        for block in blocks:
            if not np.all(np.diff(block) == 1):
                raise LatticeError(
                    f"shift {shift} produced a non-interval cube")
        gen_members.append(blocks)
        centers.append([int(b[(len(b) - 1) // 2]) for b in blocks])
    return reference_finish(lat, gen_members, centers)


def assert_same_lattice(got, want):
    """A lattice's arrays against reference records, cube by cube id."""
    assert [list(ids) for ids in got.generations] == want.generations
    for name in ("point_to_cube", "cube_masses"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    for name in ("gen", "index", "center", "parent"):
        assert getattr(got, name).dtype == np.intp, name
    assert got.mass.dtype == np.float64
    assert type(got.system) is int
    assert len(got.gen) == len(want.cubes)
    for cid, (system, k, index, members, center, cube_id, mass, parent,
              children) in enumerate(want.cubes):
        got_members = got.members(cid)
        assert got_members.dtype == members.dtype
        assert np.array_equal(got_members, members)
        assert got.center[cid] == center
        assert repr(got.mass.item(cid)) == repr(mass)
        got_parent = got.parent.item(cid)
        got_children = got._children[
            got._child_start[cid]:got._child_start[cid + 1]].tolist()
        assert (got.system, got.gen[cid], got.index[cid], cid,
                None if got_parent < 0 else got_parent, got_children) \
            == (system, k, index, cube_id, parent, children)


def _lattice_masses(n, kind):
    rng = np.random.default_rng(n)
    if kind == "unit":
        return np.ones(n)
    if kind == "uniform":
        return rng.uniform(0.1, 3.0, size=n)
    return rng.lognormal(0.0, 1.5, size=n)


class TestFinish:
    """_finish on hand-built generations: the first offending generation
    or cube is named, partition and cover before nesting."""

    @staticmethod
    def finish(n, gen_members):
        lat = DyadicLattice(build_grid_space(n), 0, STANDARD_DELTA,
                            STANDARD_A1, STANDARD_BIG_A1)
        blocks = [[np.array(b, dtype=np.intp) for b in gen]
                  for gen in gen_members]
        lat._finish(blocks, [[0] * len(gen) for gen in blocks])
        return lat

    @pytest.mark.parametrize("gens,message", [
        ([[[0, 1, 2, 3]], [[0, 1, 2], [2, 3]]],
         "generation 1 does not partition"),
        ([[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1, 2], [2], [3]]],
         "generation 2 does not partition"),
        ([[[0, 1, 2, 3]], [[0, 1], [3]]],
         "generation 1 does not cover the space"),
        # a gap and an overlap in one generation: the overlap is named
        ([[[0, 1, 2, 3]], [[0, 1], [1]]],
         "generation 1 does not partition"),
        ([[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1, 2], [3]]],
         "cube 4 at generation 2 is not nested"),
        # the first straddling cube by id
        ([[[0, 1, 2, 3, 4, 5, 6, 7]], [[0, 1, 2, 3], [4, 5, 6, 7]],
          [[0, 1], [2, 3], [4, 5], [6, 7]],
          [[0], [1, 2], [3], [4], [5, 6], [7]]],
         "cube 8 at generation 3 is not nested"),
        ([[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1, 2], [3]],
          [[0], [1], [2]]],
         "generation 3 does not cover the space"),
    ])
    def test_error_names_first_offender(self, gens, message):
        n = len(gens[0][0])
        with pytest.raises(LatticeError, match=f"^{message}$"):
            self.finish(n, gens)

    def test_empty_block_does_not_partition(self):
        # a cube with no member is no cell of a partition, and it has no
        # first member to find its parent by
        with pytest.raises(LatticeError,
                           match="^generation 1 does not partition$"):
            self.finish(4, [[[0, 1, 2, 3]], [[0, 1], [], [2, 3]]])


class TestStandardLatticeReference:
    @pytest.mark.parametrize("kind", ["unit", "uniform", "lognormal"])
    @pytest.mark.parametrize("n", [1, 2, 4, 64, 256, 2048])
    def test_matches_per_block_build(self, n, kind):
        sp = build_grid_space(n, _lattice_masses(n, kind))
        for shift in sorted({0, 1 % n, n // 3, n - 1}):
            assert_same_lattice(build_standard_lattice(sp, shift=shift),
                                reference_standard_lattice(sp, shift))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_hk_cube_dump_unchanged(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(size=(24, 2))
        metric = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        sp = build_explicit_space(metric, rng.lognormal(0.0, 1.0, size=24))
        got = build_hk_lattice(sp, 0.5)
        calls = []
        monkeypatch.setattr(DyadicLattice, "_finish",
                            lambda lat, *args: calls.append((lat, *args)))
        build_hk_lattice(sp, 0.5)
        want = reference_finish(*calls[0])
        assert_same_lattice(got, want)
        assert json.dumps(lattice_to_descriptor(got), sort_keys=True) == \
            reference_json(got, want)


def _plane_space(n, seed):
    """n seeded points of the unit square, lognormal masses."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(n, 2))
    metric = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    return build_explicit_space(metric, rng.lognormal(0.0, 1.0, size=n))


def test_members_are_the_points_labelled_with_the_cube():
    grid = build_grid_space(64)
    lattices = [build_standard_lattice(grid),
                *build_shifted_adjacent(grid, 3).lattices,
                build_hk_lattice(_plane_space(24, 22), 0.5)]
    assert len(lattices) == 5
    for lat in lattices:
        for cid, k in enumerate(lat.gen.tolist()):
            got = lat.members(cid)
            assert np.array_equal(
                got, lat.member_table[k, lat.start[cid]:lat.stop[cid]])
            assert got.dtype == np.intp
            assert np.array_equal(
                got, np.flatnonzero(lat.point_to_cube[k] == cid))


class TestStandardLattice:
    def test_n8_cube_count(self):
        lat = build_standard_lattice(build_grid_space(8))
        assert len(lat.gen) == 15
        assert lat.depth == 3

    def test_n8_generations(self):
        lat = build_standard_lattice(build_grid_space(8))
        mems = [[lat.members(cid).tolist() for cid in lat.generations[k]]
                for k in range(4)]
        assert mems[0] == [[0, 1, 2, 3, 4, 5, 6, 7]]
        assert mems[1] == [[0, 1, 2, 3], [4, 5, 6, 7]]
        assert mems[2] == [[0, 1], [2, 3], [4, 5], [6, 7]]
        assert mems[3] == [[i] for i in range(8)]

    def test_n8_centers(self):
        lat = build_standard_lattice(build_grid_space(8))
        assert lat.center[lat.generations[0][0]] == 3
        assert lat.center[lat.generations[1]].tolist() == [1, 5]
        assert lat.center[lat.generations[2]].tolist() == [0, 2, 4, 6]

    def test_parent_child_links(self):
        lat = build_standard_lattice(build_grid_space(8))
        root = lat.generations[0][0]
        assert lat.parent[root] == -1
        for cid in lat.generations[1]:
            assert lat.parent[cid] == root
        kid = lat.generations[2][3]
        assert lat.members(kid).tolist() == [6, 7]
        assert lat.members(lat.parent[kid]).tolist() == [4, 5, 6, 7]

    def test_cmu0_uniform_n8(self):
        lat = build_standard_lattice(build_grid_space(8))
        assert lat.cmu0() == 2.0

    def test_cmu0_weighted(self):
        lat = build_standard_lattice(build_grid_space(4, [1, 3, 1, 1]))
        # parent [0,1] mass 4 over child [0] mass 1
        assert lat.cmu0() == 4.0

    def test_rejects_explicit_space(self):
        sp = build_explicit_space([[0, 1], [1, 0]], [1, 1])
        with pytest.raises(LatticeError):
            build_standard_lattice(sp)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256])
    def test_axioms_exact(self, n):
        lat = build_standard_lattice(build_grid_space(n))
        lat.check_invariants()
        for k, ids in enumerate(lat.generations):
            assert sum(lat.mass.item(cid) for cid in ids) == float(n)
            covered = np.zeros(n, dtype=int)
            for cid in ids:
                covered[lat.members(cid)] += 1
            assert np.all(covered == 1)
        for cid, parent in enumerate(lat.parent.tolist()):
            if parent >= 0:
                pm = set(lat.members(parent).tolist())
                assert set(lat.members(cid).tolist()) <= pm

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_containment_sandwich(self, n):
        lat = build_standard_lattice(build_grid_space(n))
        report = lat.containment_report()
        assert report["all_pass"], report["failures"]

    def test_effective_radii_sandwich(self):
        lat = build_standard_lattice(build_grid_space(16))
        sp = lat.space
        for cid, center in enumerate(lat.center.tolist()):
            mem = set(lat.members(cid).tolist())
            core = sp.ball(center, lat.core_radius(cid))
            outer = sp.ball(center, lat.containment_radius(cid))
            assert set(core.members.tolist()) <= mem
            assert mem <= set(outer.members.tolist())


class TestShiftedAdjacent:
    def test_n8_three_systems(self):
        systems = build_shifted_adjacent(build_grid_space(8), 3)
        assert systems.count == 3
        assert systems.shifts == [0, 2, 5]
        for lat in systems.lattices:
            lat.check_invariants()

    def test_n8_shift2_generation1(self):
        systems = build_shifted_adjacent(build_grid_space(8), 3)
        lat = systems.lattices[1]
        mems = [lat.members(cid).tolist() for cid in lat.generations[1]]
        assert mems == [[0, 1], [2, 3, 4, 5], [6, 7]]

    def test_gen0_always_whole_space(self):
        systems = build_shifted_adjacent(build_grid_space(8), 3)
        for lat in systems.lattices:
            gen0 = lat.generations[0]
            assert len(gen0) == 1
            assert lat.members(gen0[0]).tolist() == list(range(8))

    def test_c_adj_frozen_n8(self):
        sp = build_grid_space(8)
        systems = build_shifted_adjacent(sp, 3)
        assert systems.c_adj == 2.5
        assert systems.c_adj <= 8.0
        assert oracle_c_adj(sp, systems.lattices) == systems.c_adj

    def test_c_adj_matches_oracle_n32(self):
        sp = build_grid_space(32)
        systems = build_shifted_adjacent(sp, 3)
        assert oracle_c_adj(sp, systems.lattices) == systems.c_adj

    @pytest.mark.parametrize("n,shifts", [(64, 3), (128, 3), (128, 4)])
    def test_c_adj_matches_oracle_larger(self, n, shifts):
        sp = build_grid_space(n)
        systems = build_shifted_adjacent(sp, shifts)
        assert oracle_c_adj(sp, systems.lattices) == systems.c_adj

    def test_c_adj_names_first_uncovered_ball(self):
        sp = build_grid_space(8)
        lat = build_standard_lattice(sp)
        # without the root, the balls around 0 past index 3 stay uncovered
        no_root = DyadicLattice(sp, 0, STANDARD_DELTA, STANDARD_A1,
                                STANDARD_BIG_A1)
        no_root._finish(
            [[lat.members(cid) for cid in lat.generations[k]]
             for k in range(1, 4)],
            [lat.center[lat.generations[k]].tolist() for k in range(1, 4)])
        with pytest.raises(CoverError, match=r"B\(0, 0.5\)") as err:
            _compute_c_adj(sp, [no_root])
        assert err.value.ball.radius == 0.5
        assert err.value.ball.members.tolist() == [0, 1, 2, 3, 4]

    def test_cover_example_n8(self):
        sp = build_grid_space(8)
        systems = build_shifted_adjacent(sp, 3)
        ball = sp.ball(3, 1 / 8)
        assert ball.members.tolist() == [2, 3, 4]
        lat, cid = adjacent_cover(systems, ball)
        assert lat is systems.lattices[1]
        assert lat.mass[cid] <= 4.0
        assert set(ball.members.tolist()) <= set(lat.members(cid).tolist())
        assert lat.members(cid).tolist() == [2, 3, 4, 5]
        assert lat.system == 1

    def test_cover_nonrealized_radius(self):
        sp = build_grid_space(8)
        systems = build_shifted_adjacent(sp, 3)
        lat, cid = adjacent_cover(systems, sp.ball(3, 0.13))
        assert lat.members(cid).tolist() == [2, 3, 4, 5]

    def test_cover_whole_space(self):
        sp = build_grid_space(8)
        systems = build_shifted_adjacent(sp, 3)
        lat, cid = adjacent_cover(systems, sp.ball(3, 1.0))
        assert lat.system == 0
        assert lat.gen[cid] == 0

    def test_cover_radius_zero(self):
        sp = build_grid_space(8)
        systems = build_shifted_adjacent(sp, 3)
        lat, cid = adjacent_cover(systems, sp.ball(5, 0.0))
        assert lat.members(cid).tolist() == [5]
        assert lat.system == 0

    def test_cover_matches_parent_on_every_ball(self):
        masses = np.random.default_rng(5).integers(1, 5, 32).astype(float)
        sp = build_grid_space(32, masses=masses)
        systems = build_shifted_adjacent(sp, 3)
        for x in range(sp.n):
            _, radii, _ = sp.balls(x)
            for r in radii:
                ball = sp.ball(x, float(r))
                lat, cid = adjacent_cover(systems, ball)
                assert any(lat is other for other in systems.lattices)
                assert (lat.system, cid) == parent_adjacent_cover(systems,
                                                                  ball)

    @pytest.mark.parametrize("shifts", [3, 4])
    def test_cover_matches_parent_on_every_ball_n64(self, shifts):
        masses = np.random.default_rng(6).integers(1, 5, 64).astype(float)
        sp = build_grid_space(64, masses=masses)
        systems = build_shifted_adjacent(sp, shifts)
        cubes = cube_sets(systems)
        for x in range(sp.n):
            _, radii, _ = sp.balls(x)
            for r in radii:
                ball = sp.ball(x, float(r))
                lat, cid = adjacent_cover(systems, ball)
                assert lat is systems.lattices[lat.system]
                assert (lat.system, cid) == parent_adjacent_cover(
                    systems, ball, cubes)

    def test_cover_error_within_dilation(self):
        masses = np.random.default_rng(5).integers(1, 5, 32).astype(float)
        sp = build_grid_space(32, masses=masses)
        tight = dataclasses.replace(build_shifted_adjacent(sp, 3),
                                    c_adj=1.0)
        ball = sp.ball(3, 1 / 32)
        with pytest.raises(CoverError, match=r"B\(3, 0.03125\)") as err:
            adjacent_cover(tight, ball)
        assert err.value.ball is ball
        with pytest.raises(CoverError):
            parent_adjacent_cover(tight, ball)

    def test_shifts2_n2_matches_standard(self):
        sp = build_grid_space(2)
        systems = build_shifted_adjacent(sp, 2)
        assert systems.count == 2
        base, other = ([[lat.members(cid).tolist()
                          for cid in lat.generations[k]] for k in range(2)]
                       for lat in systems.lattices)
        assert base == other

    def test_single_point_space(self):
        sp = build_grid_space(1)
        systems = build_shifted_adjacent(sp, 3)
        assert systems.count == 1
        assert systems.c_adj == 1.0

    def test_duplicate_shifts_dropped(self):
        # n=2 with 3 requested shifts collapses to offsets {0, 1}
        systems = build_shifted_adjacent(build_grid_space(2), 3)
        assert systems.shifts == [0, 1]

    def test_lattice_error_propagates(self, monkeypatch):
        # a shift that fails to build would change c_adj, so it is an error
        def broken(space, system=0, shift=0):
            raise LatticeError(f"shift {shift} failed")

        monkeypatch.setattr(dyadic, "build_standard_lattice", broken)
        with pytest.raises(LatticeError, match="shift 0 failed"):
            build_shifted_adjacent(build_grid_space(8), 3)

    @pytest.mark.parametrize("n,shifts", [(4, 4), (16, 3), (32, 5)])
    def test_shifted_axioms(self, n, shifts):
        systems = build_shifted_adjacent(build_grid_space(n), shifts)
        for lat in systems.lattices:
            lat.check_invariants()
            for k, ids in enumerate(lat.generations):
                assert len(ids) in (1 << k, (1 << k) + 1)


class TestNetLattice:
    def test_n16_frozen_generations(self):
        lat = build_hk_lattice(build_grid_space(16), 0.5)
        assert lat.depth == 4
        mems = [[lat.members(cid).tolist() for cid in lat.generations[k]]
                for k in range(5)]
        assert mems[0] == [list(range(16))]
        assert mems[1] == [list(range(9)), list(range(9, 16))]
        assert mems[2] == [[0, 1, 2, 3, 4], [5, 6, 7, 8],
                           [9, 10, 11, 12], [13, 14, 15]]
        assert mems[3] == [[0, 1], [2, 3, 4], [5, 6], [7, 8],
                           [9, 10], [11, 12], [13, 14], [15]]
        assert mems[4] == [[i] for i in range(16)]
        assert lat.center[lat.generations[2]].tolist() == [0, 7, 11, 15]

    def test_n16_containment_passes(self):
        lat = build_hk_lattice(build_grid_space(16), 0.5)
        report = lat.containment_report()
        assert report["all_pass"], report["failures"]
        assert report["params"]["a1"] == pytest.approx(1 / 3)
        assert report["params"]["A1"] == 2.0

    def test_base_point_is_center_everywhere(self):
        lat = build_hk_lattice(build_grid_space(16), 0.5)
        for k in range(lat.depth + 1):
            assert lat.center[lat.point_to_cube[k, 0]] == 0

    def test_invariants_n16(self):
        lat = build_hk_lattice(build_grid_space(16), 0.5)
        lat.check_invariants()

    def test_single_point_space(self):
        sp = build_explicit_space([[0.0]], [2.0])
        lat = build_hk_lattice(sp, 0.5)
        assert lat.depth == 0
        assert len(lat.gen) == 1
        assert lat.mass[0] == 2.0

    def test_faithful_mode_bounds(self):
        sp = build_grid_space(8)
        build_hk_lattice(sp, 0.08, faithful=True)
        with pytest.raises(LatticeError):
            build_hk_lattice(sp, 0.5, faithful=True)

    def test_delta_range(self):
        sp = build_grid_space(8)
        with pytest.raises(LatticeError):
            build_hk_lattice(sp, 1.5)
        with pytest.raises(LatticeError):
            build_hk_lattice(sp, 0.0)

    def test_generation_cap(self):
        sp = build_grid_space(2)
        with pytest.raises(LatticeError, match="generations"):
            build_hk_lattice(sp, 0.999)

    def test_explicit_space_euclidean(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(size=(12, 2))
        metric = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        sp = build_explicit_space(metric, np.ones(12))
        lat = build_hk_lattice(sp, 0.5)
        lat.check_invariants()
        report = lat.containment_report()
        assert isinstance(report["all_pass"], bool)
        for k in range(lat.depth + 1):
            assert lat.center[lat.point_to_cube[k, 0]] == 0


class TestWitnessSelection:
    def _chain(self, lat):
        return lat.point_to_cube[:, 0].tolist()

    def test_chain_tight_at_half(self):
        lat = build_standard_lattice(build_grid_space(8))
        chain = self._chain(lat)
        fam = select_witnesses(lat, chain, 0.5)
        report = verify_sparse(fam)
        assert report.ok, report.violations
        root = lat.generations[0][0]
        assert sorted(fam.witnesses[root].tolist()) == [4, 5, 6, 7]
        assert lat.space.mass_of(fam.witnesses[root]) == \
            0.5 * lat.mass[root]

    def test_chain_fails_above_half(self):
        lat = build_standard_lattice(build_grid_space(8))
        chain = self._chain(lat)
        with pytest.raises(WitnessSelectionError) as err:
            select_witnesses(lat, chain, 0.5 + 1e-6)
        assert lat.members(err.value.cube_id).tolist() == [0, 1]

    def test_antichain_full_delta(self):
        lat = build_standard_lattice(build_grid_space(8))
        ids = list(lat.generations[2])
        fam = select_witnesses(lat, ids, 1.0)
        assert verify_sparse(fam).ok
        for cid in ids:
            assert fam.witnesses[cid].tolist() == \
                lat.members(cid).tolist()

    def test_full_lattice_infeasible(self):
        lat = build_standard_lattice(build_grid_space(8))
        ids = list(range(len(lat.gen)))
        with pytest.raises(WitnessSelectionError):
            select_witnesses(lat, ids, 0.25)

    @pytest.mark.parametrize("delta", [-1.0, 0.0, float("nan"), 1.5])
    def test_delta_outside_unit_interval(self, delta):
        lat = build_standard_lattice(build_grid_space(8))
        with pytest.raises(WitnessSelectionError, match=r"\(0, 1\]"):
            select_witnesses(lat, [lat.generations[2][0]], delta)

    def test_repeated_cube_id_is_named(self):
        lat = build_standard_lattice(build_grid_space(8))
        ids = list(lat.generations[2])
        with pytest.raises(WitnessSelectionError,
                           match=f"cube {ids[1]} is listed twice") as err:
            select_witnesses(lat, [ids[0], ids[1], ids[2], ids[1]], 0.5)
        assert err.value.cube_id == ids[1]

    def test_verify_catches_overlap(self):
        lat = build_standard_lattice(build_grid_space(8))
        ids = list(lat.generations[2])
        fam = select_witnesses(lat, ids, 0.5)
        fam.witnesses[ids[1]] = np.array([0, 2])  # 0 belongs to cube ids[0]
        report = verify_sparse(fam)
        assert not report.ok
        reasons = {v["reason"] for v in report.violations}
        assert "witness not inside cube" in reasons

    def test_verify_catches_negative_witness_ids(self):
        # -1 and -2 must not read as the last points, 7 and 6, which lie
        # in the cube
        lat = build_standard_lattice(build_grid_space(8))
        cid = lat.generations[1][1]
        fam = select_witnesses(lat, [cid], 0.5)
        fam.witnesses[cid] = np.array([-1, -2])
        report = verify_sparse(fam)
        assert {"cube_id": cid, "reason": "witness not inside cube"} in \
            report.violations

    def test_verify_catches_shared_points(self):
        lat = build_standard_lattice(build_grid_space(8))
        gen1 = list(lat.generations[1])
        root = lat.generations[0][0]
        fam = select_witnesses(lat, gen1, 1.0)
        fam.cube_ids.append(root)
        fam.witnesses[root] = np.array([0, 1, 2, 3])
        report = verify_sparse(fam)
        assert not report.ok
        assert any(v["reason"] == "witness overlap"
                   for v in report.violations)

    def test_verify_catches_mass_deficit(self):
        lat = build_standard_lattice(build_grid_space(8))
        ids = list(lat.generations[1])
        fam = select_witnesses(lat, ids, 0.5)
        fam.witnesses[ids[0]] = np.array([0])  # mass 1 < 0.5 * 4
        report = verify_sparse(fam)
        assert not report.ok
        assert any(v["reason"] == "witness mass below delta bound"
                   for v in report.violations)

    def test_verify_missing_witness(self):
        lat = build_standard_lattice(build_grid_space(8))
        ids = list(lat.generations[1])
        fam = select_witnesses(lat, ids, 0.5)
        del fam.witnesses[ids[0]]
        report = verify_sparse(fam)
        assert not report.ok
        assert any(v["reason"] == "missing witness"
                   for v in report.violations)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_selection_coherent_with_verify(self, data):
        lat = build_standard_lattice(build_grid_space(16))
        n_cubes = len(lat.gen)
        ids = data.draw(st.lists(st.integers(0, n_cubes - 1), min_size=1,
                                 max_size=12, unique=True))
        delta = data.draw(st.sampled_from([0.1, 0.3, 0.5]))
        try:
            fam = select_witnesses(lat, ids, delta)
        except WitnessSelectionError:
            return
        report = verify_sparse(fam)
        assert report.ok, report.violations


    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("integer_masses", [False, True])
    def test_random_family_matches_drop_and_rerun(self, n, integer_masses):
        masses = (np.random.default_rng(n).integers(1, 5, size=n)
                  if integer_masses else None)
        space = build_grid_space(n, masses)
        # the standard lattice and three shifted ones
        lattices = build_shifted_adjacent(space, 4).lattices
        drops = 0
        for lat in lattices:
            for seed in range(40):
                fam = random_sparse_family(lat, np.random.default_rng(seed))
                ref, k = parent_random_sparse_family(
                    lat, np.random.default_rng(seed))
                drops += k
                assert fam.cube_ids == ref.cube_ids
                assert fam.witnesses.keys() == ref.witnesses.keys()
                for cid, wit in ref.witnesses.items():
                    assert np.array_equal(fam.witnesses[cid], wit)
                assert fam.delta == ref.delta
        assert drops > 0

class TestSerialization:
    def test_json_roundtrip(self):
        lat = build_standard_lattice(build_grid_space(4))
        ids = list(lat.generations[1])
        fam = select_witnesses(lat, ids, 1.0)
        blob = json.dumps(lattice_to_descriptor(lat, fam), sort_keys=True)
        assert blob == blob.encode("ascii").decode("ascii")
        doc = json.loads(blob)
        assert doc["depth"] == 2
        assert len(doc["cubes"]) == 7
        with_wit = [c for c in doc["cubes"] if "witness" in c]
        assert len(with_wit) == 2

    @pytest.mark.parametrize("build", [
        lambda sp: build_standard_lattice(sp),
        lambda sp: build_shifted_adjacent(sp, 3).lattices[2],
        lambda sp: build_hk_lattice(sp, 0.5),
    ])
    def test_dumps_match_cube_views(self, build):
        masses = np.random.default_rng(4).uniform(0.5, 2.0, 32)
        lat = build(build_grid_space(32, masses))
        fam = random_sparse_family(lat, np.random.default_rng(5))
        cubes = []
        for cid in range(len(lat.gen)):
            parent = lat.parent.item(cid)
            entry = {"id": cid, "system": lat.system,
                     "gen": lat.gen.item(cid), "index": lat.index.item(cid),
                     "center": lat.center.item(cid),
                     "members": lat.members(cid).tolist(),
                     "parent": None if parent < 0 else parent,
                     "mass": lat.mass.item(cid)}
            if cid in fam.witnesses:
                entry["witness"] = fam.witnesses[cid].tolist()
            cubes.append(entry)
        doc = lattice_to_descriptor(lat, fam)
        assert doc["cubes"] == cubes
        # the same Python types, so the JSON bytes match too
        assert [{k: type(v) for k, v in e.items()} for e in doc["cubes"]] \
            == [{k: type(v) for k, v in e.items()} for e in cubes]


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([2, 4, 8, 16, 32]),
       shift=st.integers(min_value=0, max_value=31))
def test_shifted_lattice_axioms_property(n, shift):
    lat = build_standard_lattice(build_grid_space(n), shift=shift % n)
    lat.check_invariants()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n=st.sampled_from([3, 6, 10]))
def test_net_lattice_axioms_property(seed, n):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(n, 2))
    metric = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    if np.min(metric[~np.eye(n, dtype=bool)]) == 0:
        return
    sp = build_explicit_space(metric, np.exp(rng.uniform(-1, 1, size=n)))
    lat = build_hk_lattice(sp, 0.5)
    lat.check_invariants()
    finest = lat.generations[lat.depth]
    assert sorted(lat.members(cid).tolist()[0] for cid in finest) == \
        list(range(n))
