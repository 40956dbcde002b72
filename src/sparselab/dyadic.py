"""Dyadic lattices, adjacent systems, and sparse families.

A lattice is a list of generations; each generation partitions the point
set into cubes, and cubes nest across generations.  Cubes live in arrays
indexed by cube id: a cube is its id, and its generation, index,
center, parent, mass and members are read from those arrays.  The
lattice also gives each cube's two sandwich radii: the largest ball
around the center still inside the cube and the smallest ball
containing it.

Three constructions are provided: the standard binary lattice on grids,
cyclically shifted copies of it forming adjacent systems, and a general
net-based lattice for explicit quasi-metric spaces.  `build_lattice`
picks the lattice a space gets: the standard one on a grid, the net one
otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .space import Ball, DiscreteSpace

STANDARD_DELTA = 0.5
# the net lattice's delta on a space that is not a grid
HK_DELTA = 0.5
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


class DyadicLattice:
    """Nested partitions as arrays by cube id, in (gen, index) order:
    `gen`, `index`, `center`, `parent` (-1 at generation 0), `mass` (each
    cube's own `mass_of` sum), and `start`/`stop`, a cube's members as a
    slice of row `gen` of `member_table`.  Row k of `member_table` lists
    the generation-k cubes' members and row k of `point_to_cube` labels
    every point with its generation-k cube.
    """

    def __init__(self, space: DiscreteSpace, system: int, delta: float,
                 a1: float, big_a1: float):
        self.space = space
        self.system = system
        self.delta = float(delta)
        self.a1 = float(a1)
        self.big_a1 = float(big_a1)
        self.generations: list[range] = []

    @property
    def depth(self) -> int:
        return len(self.generations) - 1

    def members(self, cube_id: int) -> np.ndarray:
        """The cube's members, a slice of its generation's member_table
        row."""
        return self.member_table[self.gen.item(cube_id),
                                 self.start.item(cube_id):
                                 self.stop.item(cube_id)]

    def core_radius(self, cube_id: int) -> float:
        """Largest realized radius r with B(center, r) inside the cube."""
        inside = self.point_to_cube[self.gen.item(cube_id)] == cube_id
        order, radii, ends = self.space.balls(self.center.item(cube_id))
        kept = np.logical_and.accumulate(inside[order])[ends - 1]
        return float(radii[kept][-1])

    def containment_radius(self, cube_id: int) -> float:
        """Smallest radius r with B(center, r) holding the cube."""
        return float(self.space.distances(self.center.item(cube_id))[
            self.members(cube_id)].max())

    # -- cube statistics ---------------------------------------------------
    # Row k of point_to_cube labels every point with its generation-k
    # cube, so a per-cube statistic is one segment reduction over that
    # table, and per-cube values return to points by the gather
    # values[point_to_cube], reduced over axis 0.  Inputs have shape (n,)
    # or (generations, n); row k of the latter is read on generation-k
    # cubes, for integrands that depend on the cube (b - <b>_Q).  A block
    # of B columns has the explicit 3-D shape (generations or 1, n, B).

    def cube_sums(self, values) -> np.ndarray:
        """Integral of values against mu over every cube, by cube id.

        A 3-D block (generations or 1, n, B) gives (cubes, B): one
        bincount with column b of cube c at bin c * B + b, so each column
        is summed in the same point order as a single (n,) call and
        equals it bit for bit.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 3:
            width = values.shape[2]
            weighted = np.broadcast_to(
                values * self.space.masses[:, None],
                self.point_to_cube.shape + (width,))
            bins = self.point_to_cube[..., None] * width + np.arange(width)
            return np.bincount(
                bins.ravel(), weighted.ravel(),
                minlength=len(self.gen) * width).reshape(len(self.gen), width)
        weighted = np.broadcast_to(values * self.space.masses,
                                   self.point_to_cube.shape)
        return np.bincount(self.point_to_cube.ravel(), weighted.ravel(),
                           minlength=len(self.gen))

    def cube_means(self, values) -> np.ndarray:
        """Normalized (signed) average of values over every cube; a 3-D
        block gives one column per block column."""
        sums = self.cube_sums(values)
        return sums / (self.cube_masses[:, None] if sums.ndim == 2
                       else self.cube_masses)

    def cube_max(self, values) -> np.ndarray:
        """Largest member value of every cube, by cube id; NaN if a
        member is NaN."""
        values = np.broadcast_to(np.asarray(values, dtype=np.float64),
                                 self.point_to_cube.shape)
        out = np.full(len(self.gen), -np.inf)
        with np.errstate(invalid="ignore"):
            np.maximum.at(out, self.point_to_cube.ravel(), values.ravel())
        return out

    def deviations(self, b) -> np.ndarray:
        """b(x) - <b>_Q with Q the generation-k cube of x, per (k, x)."""
        b = np.asarray(b, dtype=np.float64)
        return b - self.cube_means(b)[self.point_to_cube]

    def maximal_subcubes(self, cube_id: int, flagged) -> np.ndarray:
        """Ids of the maximal proper subcubes of the cube that are flagged.

        flagged holds one bool per cube id.  Each member's column of
        point_to_cube below the cube's generation is read for its first
        flagged generation; the result is in cube-id, i.e. (gen, index),
        order.
        """
        column = self.point_to_cube[self.gen.item(cube_id):,
                                    self.members(cube_id)]
        hit = np.asarray(flagged, dtype=bool)[column]
        hit[0] = False
        keep = np.flatnonzero(hit.any(axis=0))
        return np.unique(column[hit[:, keep].argmax(axis=0), keep])

    # -- construction helpers ---------------------------------------------

    def _finish(self, gen_members: list[list[np.ndarray]],
                centers: list) -> None:
        """Fill the cube arrays from per-generation member blocks (finest
        last).

        Each generation is labelled in one pass and checked with one
        count per point; nesting is one gather of every cube's parent
        label.  Partition and cover are checked on every generation
        before nesting on any, and the first offending generation, or
        cube by id, is named.
        """
        n = self.space.n
        self.point_to_cube = np.empty((len(gen_members), n), dtype=np.intp)
        self.member_table = np.empty_like(self.point_to_cube)
        sizes, masses = [], []
        for k, blocks in enumerate(gen_members):
            blocks = [np.asarray(b, dtype=np.intp) for b in blocks]
            sizes.append(np.array([b.size for b in blocks], dtype=np.intp))
            members = np.concatenate(blocks)
            counts = np.bincount(members, minlength=n)
            if np.any(counts > 1) or np.any(sizes[k] == 0):
                raise LatticeError(f"generation {k} does not partition")
            if np.any(counts == 0):
                raise LatticeError(f"generation {k} does not cover the space")
            ids = range(len(masses), len(masses) + len(blocks))
            self.member_table[k] = members
            self.point_to_cube[k, members] = np.repeat(ids, sizes[k])
            self.generations.append(ids)
            masses.extend(self.space.mass_of(b) for b in blocks)
        self.gen = np.repeat(np.arange(len(sizes)), [s.size for s in sizes])
        self.index = np.concatenate([np.arange(s.size) for s in sizes])
        self.stop = np.concatenate([np.cumsum(s) for s in sizes])
        self.start = self.stop - np.concatenate(sizes)
        self.center = np.concatenate(centers).astype(np.intp)
        self.mass = np.array(masses)
        # summed like every other cube statistic, so a constant averages
        # to itself exactly
        self.cube_masses = self.cube_sums(np.ones(n))
        # a cube's parent holds its first member one generation up
        kids = self.gen > 0
        self.parent = np.full(len(masses), -1, dtype=np.intp)
        self.parent[kids] = self.point_to_cube[
            self.gen[kids] - 1, self.member_table[self.gen, self.start][kids]]
        straddles = self.parent[self.point_to_cube[1:]] != \
            self.point_to_cube[:-1]
        if np.any(straddles):
            k = int(straddles.any(axis=1).argmax())
            cid = int(self.point_to_cube[k + 1][straddles[k]].min())
            raise LatticeError(f"cube {cid} at generation {k + 1} is not nested")
        # children by parent, each parent's in id order
        self._child_start = np.concatenate([[0], np.cumsum(
            np.bincount(self.parent[kids], minlength=len(masses)))])
        self._children = np.argsort(self.parent, kind="stable")[
            len(self.generations[0]):]

    # -- reports -----------------------------------------------------------

    def cmu0(self) -> float:
        """Largest parent-to-child mass ratio over consecutive generations."""
        kids = self.parent >= 0
        return float(np.max(self.mass[self.parent[kids]] / self.mass[kids],
                            initial=1.0))

    def containment_report(self) -> dict:
        """Check the nominal two-ball sandwich for every cube.

        Each cube at generation k is tested against the closed balls of
        radius a1*delta^k (must sit inside the cube) and A1*delta^k
        (must contain it) around its center.  Failures are reported, not
        raised; effective radii always satisfy the sandwich.
        """
        failures = []
        for cid, k in enumerate(self.gen.tolist()):
            scale = self.delta ** k
            dist = self.space.distances(self.center.item(cid))
            core_ok = bool(np.all(self.point_to_cube[
                k, dist <= self.a1 * scale] == cid))
            outer = self.containment_radius(cid)
            contain_ok = outer <= self.big_a1 * scale
            if not (core_ok and contain_ok):
                failures.append({
                    "cube_id": cid, "gen": k,
                    "core_ok": core_ok, "contain_ok": contain_ok,
                    "core_radius": self.core_radius(cid),
                    "containment_radius": outer,
                })
        return {"all_pass": not failures, "failures": failures,
                "params": {"delta": self.delta, "a1": self.a1,
                           "A1": self.big_a1}}

    def check_invariants(self) -> None:
        """Exact partition and mass-telescope checks; raises on violation."""
        total = float(self.space.masses.sum())
        gen_mass = np.bincount(self.gen, self.mass)
        for k, row in enumerate(self.member_table):
            if not np.all(np.bincount(row, minlength=self.space.n) == 1):
                raise LatticeError(f"generation {k} is not a partition")
            if not math.isclose(gen_mass[k], total, rel_tol=1e-12):
                raise LatticeError(f"generation {k} mass mismatch")
        kids = self.parent >= 0
        child_mass = np.bincount(self.parent[kids], self.mass[kids],
                                 minlength=len(self.gen))
        loose = (np.diff(self._child_start) > 0) & (
            np.abs(self.mass - child_mass) >
            1e-12 * np.maximum(self.mass, child_mass))
        if np.any(loose):
            raise LatticeError(
                f"cube {int(np.flatnonzero(loose)[0])} mass does not telescope")


# -- standard grid lattice ---------------------------------------------------

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
    lat = DyadicLattice(space, system, STANDARD_DELTA, STANDARD_A1,
                        STANDARD_BIG_A1)
    points = np.arange(n, dtype=np.intp)
    gen_members: list[list[np.ndarray]] = []
    centers: list[np.ndarray] = []
    for k in range(n.bit_length()):
        width = n >> k
        cuts = np.unique((shift + np.arange(1 << k) * width) % n)
        # a block straddling the index boundary splits there into two
        # cubes; one cyclic block wrapping the whole range stays whole.
        # union1d sorts and dedupes, so every block is a nonempty interval
        bounds = np.union1d(cuts if cuts.size > 1 else 0, [0, n])
        sizes = np.diff(bounds)
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

    @property
    def count(self) -> int:
        return len(self.lattices)


def _cube_ends(lat: DyadicLattice, cids) -> tuple[np.ndarray, np.ndarray]:
    """First and last member of each cube in cids (any shape)."""
    k = lat.gen[cids]
    return (lat.member_table[k, lat.start[cids]],
            lat.member_table[k, lat.stop[cids] - 1])


def _compute_c_adj(space: DiscreteSpace, lattices: list[DyadicLattice]) -> float:
    """Exhaustive ball scan: worst-case minimal dilation over covering cubes.

    A cube holding a ball holds its center, so only the center's home
    cubes, column x of point_to_cube, can cover a ball around x.  On a
    grid cubes and balls are index intervals, and the balls around a
    center grow, so each cube covers the balls of a prefix of the radii.
    A cube's dilation is the distance to its farther end over the radius.
    """
    homes = [_cube_ends(lat, lat.point_to_cube) for lat in lattices]
    home_los, home_his = (np.concatenate(e) for e in zip(*homes))
    worst = 1.0
    for x in range(space.n):
        los, his = home_los[:, x], home_his[:, x]
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
    values = list(dict.fromkeys((n * t) // shifts % n for t in range(shifts)))
    lattices = [build_standard_lattice(space, system=idx, shift=s)
                for idx, s in enumerate(values)]
    return AdjacentSystems(space, lattices, _compute_c_adj(space, lattices),
                           values)


def adjacent_cover(systems: AdjacentSystems,
                   ball: Ball) -> tuple[DyadicLattice, int]:
    """Smallest-mass cube Q with ball <= Q <= c_adj-dilated ball, as its
    lattice and cube id.

    Ties broken lexicographically by (system, generation, index).  Only
    the center's home cubes can hold the ball.  Cubes and balls are
    index intervals (shifted systems exist only on grids), so a home
    cube holds the ball when its ends enclose the ball's, and stays
    inside the dilated ball when both its ends do.  Home cubes come in
    generation order, so a lattice's first lightest fitting one is its
    coarsest among equal masses.
    """
    x = ball.center
    dist = systems.space.distances(x)
    bound = systems.c_adj * ball.radius
    best = None
    for lat in systems.lattices:
        home = lat.point_to_cube[:, x]
        lo, hi = _cube_ends(lat, home)
        fits = (lo <= ball.members[0]) & (hi >= ball.members[-1]) & \
            (np.maximum(dist[lo], dist[hi]) <= bound)
        fit = home[fits]
        if fit.size:
            cid = fit[lat.mass[fit].argmin()]
            key = (lat.mass.item(cid), lat.system)
            if best is None or key < best[0]:
                best = (key, lat, cid)
    if best is None:
        raise CoverError(f"no cube covers ball B({x}, {ball.radius}) "
                         "within the dilation bound", ball=ball)
    _, lat, cid = best
    return lat, int(cid)


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
                     faithful: bool = False) -> DyadicLattice:
    """Net-based lattice on an arbitrary finite quasi-metric space.

    Centers form nested maximal delta^k-separated nets grown
    farthest-first from point 0, which therefore appears as a center in
    every generation.  Each finer center attaches to a nearest coarser
    center (distance ties: smallest index at the finest generation,
    largest above it) and a cube is the union of its attached subtree,
    so nesting holds by construction.  The lattice is system 0.  The
    nominal two-ball sandwich with a1 = 1/(3 a0^2), A1 = 2 a0 is checked
    a posteriori via containment_report rather than assumed.
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
    nets, net = [], [0]
    for k in range(_MAX_GENERATIONS + 1):
        net = _greedy_net(metric, net, delta**k)
        # separation audit for the generation just built
        sub = metric[np.ix_(net, net)]
        np.fill_diagonal(sub, np.inf)
        if sub.min() < delta**k * (1 - 1e-12):
            raise LatticeError(f"net separation violated at generation {k}")
        nets.append(list(net))
        if len(net) == n:
            break
    else:
        raise LatticeError(
            f"net construction exceeded {_MAX_GENERATIONS} generations "
            f"(stalled at generation {_MAX_GENERATIONS})")
    # each point's center per generation, finest first: a finer center
    # attaches to a nearest coarser one (distance ties: smallest index at
    # the finest generation, largest above it), a center to itself
    label = np.arange(n)
    gen_members, centers = [], []
    for k in range(len(nets) - 1, -1, -1):
        if k < len(nets) - 1:
            fine, coarse = np.array(nets[k + 1]), np.array(nets[k])
            d = metric[np.ix_(fine, coarse)]
            tied = d == d.min(axis=1, keepdims=True)
            up = np.empty(n, dtype=np.intp)
            up[fine] = (np.where(tied, coarse, n).min(axis=1)
                        if k + 2 == len(nets)
                        else np.where(tied, coarse, -1).max(axis=1))
            label = up[label]
        # a cube's members in point order, cubes by center
        order = np.argsort(label, kind="stable")
        heads, starts = np.unique(label[order], return_index=True)
        gen_members.insert(0, np.split(order, starts[1:]))
        centers.insert(0, heads)
    lat = DyadicLattice(space, 0, delta, 1.0 / (3.0 * space.a0**2),
                        2.0 * space.a0)
    lat._finish(gen_members, centers)
    return lat


def build_lattice(space: DiscreteSpace) -> DyadicLattice:
    """The standard lattice on a grid, the net lattice with delta
    HK_DELTA on any other space."""
    if space.kind == "grid":
        return build_standard_lattice(space)
    return build_hk_lattice(space, HK_DELTA)


# -- sparse families ---------------------------------------------------------

@dataclass
class SparseFamily:
    lattice: DyadicLattice
    cube_ids: list[int]
    witnesses: dict[int, np.ndarray]
    delta: float

    def witness_sums(self, values) -> np.ndarray:
        """Integral of values against mu over each listed cube's witness
        set, in cube_ids order."""
        weighted = np.asarray(values, dtype=np.float64) * \
            self.lattice.space.masses
        return np.array([np.sum(weighted[self.witnesses[cid]])
                         for cid in self.cube_ids])

    def pointwise(self, coeffs, factor=1.0) -> np.ndarray:
        """sum over the listed cubes Q of coeffs[Q] * factor on Q.

        coeffs is indexed by cube id, shaped (cubes,) for an (n,) result
        or (cubes, B) for an (n, B) one; unlisted cubes are ignored and a
        cube listed twice counts twice.  factor is a scalar or a
        (generations, n) array read like a cube_sums input.  The sum over
        generations runs in generation order, column by column alike.
        """
        lat = self.lattice
        count = np.bincount(np.asarray(self.cube_ids, dtype=np.intp),
                            minlength=len(lat.gen))[lat.point_to_cube]
        vals = np.asarray(coeffs)[lat.point_to_cube]
        if vals.ndim == 3:
            count = count[..., None]
            if np.ndim(factor):
                factor = np.asarray(factor)[..., None]
        terms = count * vals * factor
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
        if cid not in family.witnesses:
            violations.append({"cube_id": cid, "reason": "missing witness"})
            continue
        wit = np.asarray(family.witnesses[cid], dtype=np.intp)
        # isin, not a point_to_cube lookup, which would wrap a negative id
        if not np.isin(wit, lat.members(cid)).all():
            violations.append({"cube_id": cid,
                               "reason": "witness not inside cube"})
        counts[wit] += 1
        wit_mass = math.fsum(sp.masses[wit]) if wit.size else 0.0
        need = family.delta * lat.mass.item(cid)
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
    ids = np.asarray(cube_ids, dtype=np.intp)
    order = ids[np.lexsort((lattice.index[ids], -lattice.gen[ids]))]
    taken = np.zeros(sp.n, dtype=bool)
    witnesses: dict[int, np.ndarray] = {}
    starved = []
    for cid, k, lo, hi, mass in zip(order.tolist(), *(
            a[order].tolist() for a in (lattice.gen, lattice.start,
                                        lattice.stop, lattice.mass))):
        members = lattice.member_table[k, lo:hi]
        free = members[~taken[members]]
        free_mass = math.fsum(sp.masses[free]) if free.size else 0.0
        if free_mass < delta * mass * (1 - 1e-9):
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
    first cube that cannot reach delta of its own mass, the first cube
    id listed twice, or for a delta outside (0, 1].
    """
    if not 0 < delta <= 1:
        raise WitnessSelectionError(f"delta must lie in (0, 1], got {delta}")
    seen = set()
    for cid in cube_ids:
        if cid in seen:
            raise WitnessSelectionError(f"cube {cid} is listed twice",
                                        cube_id=cid)
        seen.add(cid)
    witnesses, starved = _witness_walk(lattice, cube_ids, delta)
    if starved:
        cid, free_mass = starved[0]
        raise WitnessSelectionError(
            f"cube {cid} (generation {lattice.gen[cid]}, "
            f"index {lattice.index[cid]}) retains mass {free_mass:.6g} < "
            f"{delta * lattice.mass[cid]:.6g}", cube_id=cid)
    return SparseFamily(lattice, list(cube_ids), witnesses, delta)


def random_sparse_family(lattice: DyadicLattice, rng) -> SparseFamily:
    """Random 0.5-sparse cube set thinned until the witness selector
    succeeds.

    Top-down walk: an internal cube is either kept with its subtree
    left alone, kept with the walk continuing below it, or skipped;
    leaves join with even odds.  Keeping mixed generations (not every
    leaf) leaves the selector room, and every cube the greedy selection
    starves is dropped in one witness walk.
    """
    first, kids = lattice._child_start.tolist(), lattice._children.tolist()
    ids = []
    root = lattice.generations[0][0]
    stack = [root]
    while stack:
        cid = stack.pop()
        children = kids[first[cid]:first[cid + 1]]
        if not children:
            if rng.uniform() < 0.5:
                ids.append(cid)
            continue
        roll = rng.uniform()
        if roll < 0.55:
            ids.append(cid)
        if roll >= 0.25:
            stack.extend(reversed(children))
    if not ids:
        ids = [root]
    ids = sorted(set(ids))
    witnesses, _ = _witness_walk(lattice, ids, 0.5)
    kept = [cid for cid in ids if cid in witnesses]
    if not kept:
        return select_witnesses(lattice, [root], 0.5)
    return SparseFamily(lattice, kept, witnesses, 0.5)


# -- serialization -----------------------------------------------------------

def lattice_to_descriptor(lattice: DyadicLattice,
                          family: SparseFamily | None = None) -> dict:
    witnesses = family.witnesses if family is not None else {}
    table = lattice.member_table.tolist()
    columns = zip(*(a.tolist() for a in (
        lattice.gen, lattice.index, lattice.center, lattice.parent,
        lattice.start, lattice.stop, lattice.mass)))
    cubes = []
    for cid, (k, index, center, parent, start, stop, mass) in \
            enumerate(columns):
        entry = {
            "id": cid, "system": lattice.system, "gen": k, "index": index,
            "center": center, "members": table[k][start:stop],
            "parent": None if parent < 0 else parent, "mass": mass,
        }
        if cid in witnesses:
            entry["witness"] = np.asarray(witnesses[cid]).tolist()
        cubes.append(entry)
    return {
        "system": lattice.system, "delta": lattice.delta, "a1": lattice.a1,
        "A1": lattice.big_a1, "depth": lattice.depth, "cubes": cubes,
    }
