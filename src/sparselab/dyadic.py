"""Dyadic lattices, adjacent systems, and sparse families.

A lattice is a list of generations; each generation partitions the point
set into cubes, and cubes nest across generations.  Every cube carries
its center and the two sandwich radii: the largest ball around the
center still inside the cube and the smallest ball containing it.

Three constructions are provided: the standard binary lattice on grids,
cyclically shifted copies of it forming adjacent systems, and a general
net-based lattice for explicit quasi-metric spaces.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .space import Ball, DiscreteSpace

STANDARD_DELTA = 0.5
STANDARD_A1 = 1.0 / 3.0
STANDARD_BIG_A1 = 2.0

# net constructions past this many generations indicate delta too close to 1
_MAX_GENERATIONS = 512


class LatticeError(ValueError):
    pass


class WitnessSelectionError(ValueError):
    def __init__(self, message, cube_id=None):
        super().__init__(message)
        self.cube_id = cube_id


class CoverError(ValueError):
    def __init__(self, message, ball=None):
        super().__init__(message)
        self.ball = ball


@dataclass
class Cube:
    system: int
    gen: int
    index: int
    members: np.ndarray
    center: int
    cube_id: int
    mass: float
    parent: int | None = None
    children: list[int] = field(default_factory=list)
    lat: "DyadicLattice | None" = field(default=None, repr=False)

    @property
    def core_radius(self) -> float:
        """Largest realized radius r with B(center, r) a subset of the cube."""
        inside = np.zeros(self.lat.space.n, dtype=bool)
        inside[self.members] = True
        order, radii, ends = self.lat.space.balls(self.center)
        kept = np.logical_and.accumulate(inside[order])[ends - 1]
        return float(radii[kept][-1])

    @property
    def containment_radius(self) -> float:
        sp = self.lat.space
        return float(sp.distances(self.center)[self.members].max())


class DyadicLattice:
    def __init__(self, space: DiscreteSpace, system: int, delta: float,
                 a1: float, big_a1: float):
        self.space = space
        self.system = system
        self.delta = float(delta)
        self.a1 = float(a1)
        self.big_a1 = float(big_a1)
        self.cubes: list[Cube] = []
        self.generations: list[list[int]] = []
        self.point_to_cube: np.ndarray | None = None
        self.cube_masses: np.ndarray | None = None

    @property
    def depth(self) -> int:
        return len(self.generations) - 1

    def cube(self, cube_id: int) -> Cube:
        return self.cubes[cube_id]

    def cubes_at(self, k: int) -> list[Cube]:
        return [self.cubes[i] for i in self.generations[k]]

    def all_cubes(self) -> list[Cube]:
        return list(self.cubes)

    def cube_containing(self, k: int, x: int) -> Cube:
        return self.cubes[int(self.point_to_cube[k, x])]

    def cubes_containing(self, x: int) -> list[Cube]:
        return [self.cube_containing(k, x) for k in range(self.depth + 1)]

    # -- cube statistics ---------------------------------------------------
    # Row k of point_to_cube labels every point with its generation-k
    # cube, so a per-cube statistic is one segment reduction over that
    # table, and per-cube values return to points by the gather
    # values[point_to_cube], reduced over axis 0.  Inputs have shape (n,)
    # or (generations, n); row k of the latter is read on generation-k
    # cubes, for integrands that depend on the cube (b - <b>_Q).

    def cube_sums(self, values) -> np.ndarray:
        """Integral of values against mu over every cube, by cube id."""
        weighted = np.broadcast_to(
            np.asarray(values, dtype=np.float64) * self.space.masses,
            self.point_to_cube.shape)
        return np.bincount(self.point_to_cube.ravel(), weighted.ravel(),
                           minlength=len(self.cubes))

    def cube_means(self, values) -> np.ndarray:
        """Normalized (signed) average of values over every cube."""
        return self.cube_sums(values) / self.cube_masses

    def cube_max(self, values) -> np.ndarray:
        """Largest member value of every cube, by cube id; NaN if a
        member is NaN."""
        values = np.broadcast_to(np.asarray(values, dtype=np.float64),
                                 self.point_to_cube.shape)
        out = np.full(len(self.cubes), -np.inf)
        with np.errstate(invalid="ignore"):
            np.maximum.at(out, self.point_to_cube.ravel(), values.ravel())
        return out

    def deviations(self, b) -> np.ndarray:
        """b(x) - <b>_Q with Q the generation-k cube of x, per (k, x)."""
        b = np.asarray(b, dtype=np.float64)
        return b - self.cube_means(b)[self.point_to_cube]

    def maximal_subcubes(self, cube: Cube, flagged) -> np.ndarray:
        """Ids of the maximal proper subcubes of cube that are flagged.

        flagged holds one bool per cube id.  Each member's column of
        point_to_cube below cube.gen is read for its first flagged
        generation; the result is in cube-id, i.e. (gen, index), order.
        """
        column = self.point_to_cube[cube.gen:, cube.members]
        hit = np.asarray(flagged, dtype=bool)[column]
        hit[0] = False
        keep = np.flatnonzero(hit.any(axis=0))
        return np.unique(column[hit[:, keep].argmax(axis=0), keep])

    # -- construction helpers ---------------------------------------------

    def _finish(self, gen_members: list[list[np.ndarray]],
                centers: list) -> None:
        """Populate cubes from per-generation member blocks (finest last).

        Each generation is labelled in one pass and checked with one
        count per point; nesting is one gather of every point's parent
        label.  Partition and cover are checked on every generation
        before nesting on any, and the first offending generation, or
        cube by id, is named.
        """
        n = self.space.n
        self.point_to_cube = np.empty((len(gen_members), n), dtype=np.intp)
        heads = []  # per generation, the first member of each cube
        for k, blocks in enumerate(gen_members):
            blocks = [np.asarray(b, dtype=np.intp) for b in blocks]
            first = len(self.cubes)
            sizes = np.array([b.size for b in blocks])
            members = np.concatenate(blocks)
            counts = np.bincount(members, minlength=n)
            if np.any(counts > 1) or np.any(sizes == 0):
                raise LatticeError(f"generation {k} does not partition")
            if np.any(counts == 0):
                raise LatticeError(f"generation {k} does not cover the space")
            ids = list(range(first, first + len(blocks)))
            self.point_to_cube[k, members] = np.repeat(ids, sizes)
            self.cubes.extend(
                Cube(system=self.system, gen=k, index=idx, members=block,
                     center=int(centers[k][idx]), cube_id=first + idx,
                     mass=self.space.mass_of(block), lat=self)
                for idx, block in enumerate(blocks))
            self.generations.append(ids)
            heads.append(members[np.cumsum(sizes) - sizes])
        # summed like every other cube statistic, so a constant averages
        # to itself exactly
        self.cube_masses = self.cube_sums(np.ones(n))
        for k in range(1, len(gen_members)):
            parents = self.point_to_cube[k - 1, heads[k]]
            own = self.point_to_cube[k]
            first = self.generations[k][0]
            straddles = parents[own - first] != self.point_to_cube[k - 1]
            if np.any(straddles):
                cid = int(own[straddles].min())
                raise LatticeError(f"cube {cid} at generation {k} is not nested")
            for cid, parent in zip(self.generations[k], parents.tolist()):
                self.cubes[cid].parent = parent
                self.cubes[parent].children.append(cid)

    # -- reports -----------------------------------------------------------

    def cmu0(self) -> float:
        """Largest parent-to-child mass ratio over consecutive generations."""
        best = 1.0
        for cube in self.cubes:
            for child_id in cube.children:
                best = max(best, cube.mass / self.cubes[child_id].mass)
        return best

    def containment_report(self) -> dict:
        """Check the nominal two-ball sandwich for every cube.

        Each cube at generation k is tested against the closed balls of
        radius a1*delta^k (must sit inside the cube) and A1*delta^k
        (must contain it) around its center.  Failures are reported, not
        raised; effective radii always satisfy the sandwich.
        """
        sp = self.space
        failures = []
        for cube in self.cubes:
            scale = self.delta ** cube.gen
            core = sp.ball(cube.center, self.a1 * scale)
            contain = sp.ball(cube.center, self.big_a1 * scale)
            mem = set(cube.members.tolist())
            core_ok = set(core.members.tolist()) <= mem
            contain_ok = mem <= set(contain.members.tolist())
            if not (core_ok and contain_ok):
                failures.append({
                    "cube_id": cube.cube_id, "gen": cube.gen,
                    "core_ok": bool(core_ok), "contain_ok": bool(contain_ok),
                    "core_radius": cube.core_radius,
                    "containment_radius": cube.containment_radius,
                })
        return {"all_pass": not failures, "failures": failures,
                "params": {"delta": self.delta, "a1": self.a1,
                           "A1": self.big_a1}}

    def check_invariants(self) -> None:
        """Exact partition and mass-telescope checks; raises on violation."""
        total = self.space.masses.sum()
        for k, ids in enumerate(self.generations):
            counts = np.zeros(self.space.n, dtype=np.intp)
            gen_mass = 0.0
            for cid in ids:
                counts[self.cubes[cid].members] += 1
                gen_mass += self.cubes[cid].mass
            if not np.all(counts == 1):
                raise LatticeError(f"generation {k} is not a partition")
            if gen_mass != float(total) and not math.isclose(
                    gen_mass, float(total), rel_tol=1e-12):
                raise LatticeError(f"generation {k} mass mismatch")
        for cube in self.cubes:
            if cube.children:
                child_mass = sum(self.cubes[c].mass for c in cube.children)
                if not math.isclose(cube.mass, child_mass, rel_tol=1e-12):
                    raise LatticeError(
                        f"cube {cube.cube_id} mass does not telescope"
                    )


# -- standard grid lattice ---------------------------------------------------

def _grid_levels(n: int) -> int:
    return n.bit_length() - 1


def build_standard_lattice(space: DiscreteSpace, system: int = 0,
                           shift: int = 0) -> DyadicLattice:
    """Binary splitting of the grid into consecutive index blocks.

    With a nonzero cyclic shift the cut points move by `shift` positions;
    a block straddling the index boundary is split there, so it stays a
    metric interval (and shifted generations can have one extra cube).
    """
    if space.kind != "grid":
        raise LatticeError("standard lattice requires a grid space; "
                           "use build_hk_lattice for explicit spaces")
    n = space.n
    levels = _grid_levels(n)
    lat = DyadicLattice(space, system, STANDARD_DELTA, STANDARD_A1,
                        STANDARD_BIG_A1)
    points = np.arange(n, dtype=np.intp)
    gen_members: list[list[np.ndarray]] = []
    centers: list[np.ndarray] = []
    for k in range(levels + 1):
        width = n >> k
        cuts = np.unique((shift + np.arange(1 << k) * width) % n)
        if cuts[0] == 0:
            bounds = np.append(cuts, n)
        elif cuts.size == 1:
            # one cyclic block wrapping the whole index range: keep whole
            bounds = np.array([0, n])
        else:
            # block straddling the boundary splits there into two cubes
            bounds = np.concatenate([[0], cuts, [n]])
        sizes = np.diff(bounds)
        if np.any(sizes <= 0):
            raise LatticeError(f"shift {shift} produced a non-interval cube")
        gen_members.append(np.split(points, bounds[1:-1]))
        centers.append(bounds[:-1] + (sizes - 1) // 2)
    lat._finish(gen_members, centers)
    return lat


# -- adjacent systems --------------------------------------------------------

@dataclass
class AdjacentSystems:
    space: DiscreteSpace
    lattices: list[DyadicLattice]
    c_adj: float
    shifts: list[int]
    skipped_shifts: list[int] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.lattices)


def _compute_c_adj(space: DiscreteSpace, lattices: list[DyadicLattice]) -> float:
    """Exhaustive ball scan: worst-case minimal dilation over covering cubes.

    On a grid cubes and balls are index intervals, and the balls around a
    center grow, so each cube covers the balls of a prefix of the radii.
    A cube's dilation is the distance to its farther end over the radius.
    """
    cubes = [cube for lat in lattices for cube in lat.cubes]
    los = np.array([int(cube.members[0]) for cube in cubes])
    his = np.array([int(cube.members[-1]) for cube in cubes])
    worst = 1.0
    for x in range(space.n):
        order, radii, ends = space.balls(x)
        radii, ends = radii[1:], ends[1:]
        blo = np.minimum.accumulate(order)[ends - 1]
        bhi = np.maximum.accumulate(order)[ends - 1]
        # cube c covers exactly the balls j < covered[c]
        covered = np.minimum(np.searchsorted(-blo, -los, side="right"),
                             np.searchsorted(bhi, his, side="right"))
        dist = space.distances(x)
        best = np.full(radii.size + 1, np.inf)
        np.minimum.at(best, covered, np.maximum(dist[los], dist[his]))
        best = np.minimum.accumulate(best[::-1])[-2::-1]
        bare = np.flatnonzero(best == np.inf)
        if bare.size:
            j = bare[0]
            raise CoverError(
                f"ball B({x}, {radii[j]}) has no covering cube",
                ball=Ball(x, float(radii[j]), np.sort(order[:ends[j]])),
            )
        worst = max(worst, float((best / radii).max(initial=1.0)))
    return worst


def build_shifted_adjacent(space: DiscreteSpace, shifts: int) -> AdjacentSystems:
    if space.kind != "grid":
        raise LatticeError("shifted systems require a grid space")
    if shifts < 1:
        raise LatticeError("shift count must be positive")
    n = space.n
    values, seen = [], set()
    for t in range(shifts):
        s = (n * t) // shifts
        if s % n not in seen:
            seen.add(s % n)
            values.append(s % n)
    lattices = []
    skipped = []
    for idx, s in enumerate(values):
        try:
            lattices.append(build_standard_lattice(space, system=idx, shift=s))
        except LatticeError:
            skipped.append(s)
    if not lattices:
        raise LatticeError("no shift produced a valid lattice")
    c_adj = _compute_c_adj(space, lattices)
    return AdjacentSystems(space, lattices, c_adj,
                           [s for s in values if s not in skipped], skipped)


def adjacent_cover(systems: AdjacentSystems, ball: Ball) -> tuple[int, Cube]:
    """Smallest-mass cube Q with ball <= Q <= c_adj-dilated ball.

    Ties broken lexicographically by (system, generation, index).  In
    each lattice the cubes holding the ball sit at the generations where
    its members share one cube; a cube stays inside the dilated ball when
    no point beyond the dilated radius shares it.
    """
    sp = systems.space
    x = ball.center
    far = np.flatnonzero(sp.distances(x) > systems.c_adj * ball.radius)
    best = None
    for lat in systems.lattices:
        table = lat.point_to_cube
        home = table[:, ball.members[:1]]
        fits = np.all(table[:, ball.members] == home, axis=1) & \
            ~np.any(table[:, far] == home, axis=1)
        for cid in home[fits, 0]:
            cube = lat.cubes[cid]
            key = (cube.mass, lat.system, cube.gen, cube.index)
            if best is None or key < best[0]:
                best = (key, lat.system, cube)
    if best is None:
        raise CoverError(f"no cube covers ball B({x}, {ball.radius}) "
                         "within the dilation bound", ball=ball)
    return best[1], best[2]


# -- net lattice for explicit spaces ----------------------------------------

def _greedy_net(metric: np.ndarray, start: list[int], threshold: float) -> list[int]:
    n = metric.shape[0]
    net = list(start)
    mind = np.min(metric[:, net], axis=1) if net else np.full(n, np.inf)
    while True:
        far = float(mind.max())
        if far < threshold:
            return net
        pick = int(np.flatnonzero(mind == far)[0])
        net.append(pick)
        mind = np.minimum(mind, metric[:, pick])


def build_hk_lattice(space: DiscreteSpace, delta: float,
                     faithful: bool = False, system: int = 0) -> DyadicLattice:
    """Net-based lattice on an arbitrary finite quasi-metric space.

    Centers form nested maximal delta^k-separated nets grown
    farthest-first from point 0, which therefore appears as a center in
    every generation.  Each finer center attaches to a nearest coarser
    center (distance ties: smallest index at the finest generation,
    largest above it) and a cube is the union of its attached subtree,
    so nesting holds by construction.  The nominal two-ball sandwich
    with a1 = 1/(3 a0^2), A1 = 2 a0 is checked a posteriori via
    containment_report rather than assumed.
    """
    if faithful:
        limit = 1.0 / (12.0 * space.a0**3)
        if not 0 < delta <= limit:
            raise LatticeError(
                f"faithful mode needs 0 < delta <= {limit}; got {delta}"
            )
    elif not 0 < delta < 1:
        raise LatticeError("delta must lie in (0, 1)")
    metric = space.metric
    n = space.n
    nets: list[list[int]] = []
    net = [0]
    k = 0
    while True:
        net = _greedy_net(metric, net, delta**k)
        # separation audit for the generation just built
        arr = np.array(net)
        if len(arr) > 1:
            sub = metric[np.ix_(arr, arr)]
            off = sub[~np.eye(len(arr), dtype=bool)]
            if off.min() < delta**k * (1 - 1e-12):
                raise LatticeError(f"net separation violated at generation {k}")
        nets.append(list(net))
        if len(net) == n:
            break
        k += 1
        if k > _MAX_GENERATIONS:
            raise LatticeError(
                f"net construction exceeded {_MAX_GENERATIONS} generations "
                f"(stalled at generation {k - 1})"
            )
    depth = len(nets) - 1
    # attach finer centers to coarser ones
    parent_center: list[dict[int, int]] = [dict() for _ in range(depth + 1)]
    for k in range(1, depth + 1):
        coarse = np.array(nets[k - 1])
        coarse_set = set(nets[k - 1])
        for c in nets[k]:
            if c in coarse_set:
                parent_center[k][c] = c
                continue
            d = metric[c, coarse]
            best = d.min()
            tied = coarse[d == best]
            parent_center[k][c] = int(tied.min() if k == depth else tied.max())
    # subtree-union members, finest generation first
    members: list[dict[int, list[int]]] = [dict() for _ in range(depth + 1)]
    for c in nets[depth]:
        members[depth][c] = [c]
    for k in range(depth, 0, -1):
        for c in nets[k - 1]:
            members[k - 1][c] = []
        for c in nets[k]:
            members[k - 1][parent_center[k][c]].extend(members[k][c])
    gen_members, centers = [], []
    for k in range(depth + 1):
        order = sorted(nets[k])
        gen_members.append([np.array(sorted(members[k][c]), dtype=np.intp)
                            for c in order])
        centers.append(order)
    a1 = 1.0 / (3.0 * space.a0**2)
    big_a1 = 2.0 * space.a0
    lat = DyadicLattice(space, system, delta, a1, big_a1)
    lat._finish(gen_members, centers)
    return lat


# -- sparse families ---------------------------------------------------------

@dataclass
class SparseFamily:
    lattice: DyadicLattice
    cube_ids: list[int]
    witnesses: dict[int, np.ndarray]
    delta: float

    def cubes(self) -> list[Cube]:
        return [self.lattice.cube(cid) for cid in self.cube_ids]

    def witness_mass(self, cube_id: int) -> float:
        return self.lattice.space.mass_of(self.witnesses[cube_id])

    def witness_sums(self, values) -> np.ndarray:
        """Integral of values against mu over each listed cube's witness
        set, in cube_ids order."""
        weighted = np.asarray(values, dtype=np.float64) * \
            self.lattice.space.masses
        return np.array([np.sum(weighted[self.witnesses[cid]])
                         for cid in self.cube_ids])

    def pointwise(self, coeffs, factor=1.0) -> np.ndarray:
        """sum over the listed cubes Q of coeffs[Q] * factor on Q.

        coeffs is indexed by cube id; unlisted cubes are ignored and a
        cube listed twice counts twice.  factor is a scalar or a
        (generations, n) array read like a cube_sums input.
        """
        lat = self.lattice
        count = np.bincount(np.asarray(self.cube_ids, dtype=np.intp),
                            minlength=len(lat.cubes))[lat.point_to_cube]
        terms = count * np.asarray(coeffs)[lat.point_to_cube] * factor
        return np.where(count > 0, terms, 0.0).sum(axis=0)


@dataclass
class SparseReport:
    ok: bool
    violations: list[dict]


def verify_sparse(family: SparseFamily) -> SparseReport:
    """Containment, pairwise disjointness, and the witness-mass bound.

    Mass sums use correctly rounded accumulation; the bound is applied
    with 1e-9 relative slack to absorb nothing more than float rounding.
    """
    lat = family.lattice
    sp = lat.space
    violations = []
    counts = np.zeros(sp.n, dtype=np.intp)
    for cid in family.cube_ids:
        cube = lat.cube(cid)
        if cid not in family.witnesses:
            violations.append({"cube_id": cid, "reason": "missing witness"})
            continue
        wit = np.asarray(family.witnesses[cid], dtype=np.intp)
        mem = set(cube.members.tolist())
        if not set(wit.tolist()) <= mem:
            violations.append({"cube_id": cid,
                               "reason": "witness not inside cube"})
        counts[wit] += 1
        wit_mass = math.fsum(sp.masses[wit]) if wit.size else 0.0
        need = family.delta * cube.mass
        if wit_mass < need * (1 - 1e-9):
            violations.append({
                "cube_id": cid, "reason": "witness mass below delta bound",
                "witness_mass": wit_mass, "required": need,
            })
    clash = np.flatnonzero(counts > 1)
    if clash.size:
        violations.append({"reason": "witness overlap",
                           "points": clash.tolist()})
    return SparseReport(ok=not violations, violations=violations)


def _witness_walk(lattice: DyadicLattice, cube_ids: list[int],
                  delta: float) -> tuple[dict, list]:
    """Finest-first witness walk that skips starved cubes.

    Each cube takes its still-free members as witnesses; a cube whose
    free mass falls short of delta of its own mass is skipped, leaving
    those points free for its ancestors.  Returns the witnesses and the
    (cube id, free mass) of every skipped cube, in walk order.
    """
    sp = lattice.space
    order = sorted(cube_ids, key=lambda cid: (-lattice.cube(cid).gen,
                                              lattice.cube(cid).index))
    taken = np.zeros(sp.n, dtype=bool)
    witnesses: dict[int, np.ndarray] = {}
    starved = []
    for cid in order:
        cube = lattice.cube(cid)
        free = cube.members[~taken[cube.members]]
        free_mass = math.fsum(sp.masses[free]) if free.size else 0.0
        if free_mass < delta * cube.mass * (1 - 1e-9):
            starved.append((cid, free_mass))
            continue
        witnesses[cid] = free
        taken[free] = True
    return witnesses, starved


def select_witnesses(lattice: DyadicLattice, cube_ids: list[int],
                     delta: float) -> SparseFamily:
    """Canonical witnesses: each cube keeps what its chosen descendants left.

    Cubes are processed finest generation first; E_Q is Q minus all
    previously assigned witnesses (these belong to descendants inside Q
    or to cubes disjoint from Q, never to ancestors).  Raises naming the
    first cube that cannot reach delta of its own mass.
    """
    witnesses, starved = _witness_walk(lattice, cube_ids, delta)
    if starved:
        cid, free_mass = starved[0]
        cube = lattice.cube(cid)
        raise WitnessSelectionError(
            f"cube {cid} (generation {cube.gen}, index {cube.index}) "
            f"retains mass {free_mass:.6g} < "
            f"{delta * cube.mass:.6g}", cube_id=cid)
    return SparseFamily(lattice, list(cube_ids), witnesses, delta)


def random_sparse_family(lattice: DyadicLattice, rng,
                         delta: float = 0.5) -> SparseFamily:
    """Random cube set thinned until the witness selector succeeds.

    Top-down walk: an internal cube is either kept with its subtree
    left alone, kept with the walk continuing below it, or skipped;
    leaves join with even odds.  Keeping mixed generations (not every
    leaf) leaves the selector room, and every cube the greedy selection
    starves is dropped in one witness walk.
    """
    ids = []
    root = lattice.generations[0][0]
    stack = [root]
    while stack:
        cid = stack.pop()
        cube = lattice.cube(cid)
        if not cube.children:
            if rng.uniform() < 0.5:
                ids.append(cid)
            continue
        roll = rng.uniform()
        if roll < 0.25:
            ids.append(cid)
        elif roll < 0.55:
            ids.append(cid)
            stack.extend(reversed(cube.children))
        else:
            stack.extend(reversed(cube.children))
    if not ids:
        ids = [root]
    ids = sorted(set(ids))
    witnesses, _ = _witness_walk(lattice, ids, delta)
    kept = [cid for cid in ids if cid in witnesses]
    if not kept:
        return select_witnesses(lattice, [root], delta)
    return SparseFamily(lattice, kept, witnesses, delta)


def max_feasible_delta(lattice: DyadicLattice, cube_ids: list[int],
                       tol: float = 1e-6) -> float:
    """Bisection for the largest delta select_witnesses can satisfy."""
    def feasible(d: float) -> bool:
        try:
            select_witnesses(lattice, cube_ids, d)
            return True
        except WitnessSelectionError:
            return False

    lo, hi = 0.0, 1.0
    if feasible(1.0):
        return 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


# -- serialization -----------------------------------------------------------

def lattice_to_descriptor(lattice: DyadicLattice,
                          family: SparseFamily | None = None) -> dict:
    cubes = []
    for cube in lattice.cubes:
        entry = {
            "id": cube.cube_id, "system": cube.system, "gen": cube.gen,
            "index": cube.index, "center": cube.center,
            "members": cube.members.tolist(), "parent": cube.parent,
            "mass": cube.mass,
        }
        if family is not None and cube.cube_id in family.witnesses:
            entry["witness"] = np.asarray(
                family.witnesses[cube.cube_id]).tolist()
        cubes.append(entry)
    return {
        "system": lattice.system, "delta": lattice.delta, "a1": lattice.a1,
        "A1": lattice.big_a1, "depth": lattice.depth, "cubes": cubes,
    }


def lattice_to_json(lattice: DyadicLattice,
                    family: SparseFamily | None = None) -> str:
    return json.dumps(lattice_to_descriptor(lattice, family), sort_keys=True)


def lattice_to_csv(lattice: DyadicLattice,
                   family: SparseFamily | None = None) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "gen", "mass", "witness_mass"])
    for cube in lattice.cubes:
        wmass = ""
        if family is not None and cube.cube_id in family.witnesses:
            wmass = repr(family.witness_mass(cube.cube_id))
        writer.writerow([cube.cube_id, cube.gen, repr(cube.mass), wmass])
    return buf.getvalue()
