"""Finite model spaces: point sets, quasi-metrics, masses, and balls.

A space is a finite point set {0, ..., n-1} carrying a symmetric
quasi-metric and strictly positive per-point masses.  Balls use the
closed convention B(x, r) = {y : d(x, y) <= r}, so every ball owns its
center and the mass of a ball is a right-continuous step function of
the radius with finitely many breakpoints.

Explicit spaces keep their dense (n, n) metric; grid spaces keep only
masses and positions.  Both build each center's sorted row on demand,
in O(n) memory per row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# exhaustive triple scan is exact up to this size; larger spaces must
# declare their quasi-triangle constant
_EXACT_A0_LIMIT = 512


def _quasi_triangle_constant(metric) -> float:
    """Smallest a0 >= 1 with d(x, y) <= a0 (d(x, z) + d(z, y)) for all
    x, y, z: an exact scan over every triple, one x at a time."""
    n = metric.shape[0]
    best = 1.0
    for x in range(n):
        dx = metric[x]
        # denom[z, y] = d(x,z) + d(z,y)
        denom = dx[:, None] + metric
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(denom > 0.0, dx[None, :] / denom, 0.0)
        ratio[:, dx <= 0.0] = 0.0
        m = float(ratio.max())
        if m > best:
            best = m
    return best


def _checked_masses(masses) -> np.ndarray:
    masses = np.asarray(masses, dtype=np.float64)
    if masses.ndim != 1:
        raise ValueError("masses must be a 1-d array")
    if masses.shape[0] == 0:
        raise ValueError("space must contain at least one point")
    if not np.all(np.isfinite(masses)) or np.any(masses <= 0):
        raise ValueError("masses must be strictly positive and finite")
    return masses


@dataclass(frozen=True)
class Ball:
    """Closed ball: center index, radius, and the sorted member indices."""

    center: int
    radius: float
    members: np.ndarray

    def __post_init__(self):
        if not self.radius >= 0:
            raise ValueError("ball radius must be nonnegative")


class DiscreteSpace:
    """Finite quasi-metric measure space with a dense metric.

    Attributes
    ----------
    kind : "grid" or "explicit"
    n : number of points
    masses : positive float array of shape (n,)
    metric : symmetric (n, n) float array with zero diagonal
    a0 : quasi-triangle constant, minimal when computed
    """

    kind = "explicit"

    def __init__(self, masses, metric, a0: float | None = None):
        masses = _checked_masses(masses)
        metric = np.asarray(metric, dtype=np.float64)
        n = masses.shape[0]
        if metric.shape != (n, n):
            raise ValueError("metric must be an n-by-n matrix")
        if not np.all(np.isfinite(metric)):
            raise ValueError("metric entries must be finite")
        if np.any(metric < 0):
            raise ValueError("metric entries must be nonnegative")
        if not np.array_equal(metric, metric.T):
            raise ValueError("metric must be symmetric")
        if np.any(np.diag(metric) != 0):
            raise ValueError("metric diagonal must vanish")
        # the n diagonal zeros must be the only ones
        if np.count_nonzero(metric == 0) != n:
            raise ValueError("d(x,y)=0 requires x=y")
        self.n = n
        self.masses = masses
        self.metric = metric
        self.total_mass = float(masses.sum())
        if a0 is None:
            if n > _EXACT_A0_LIMIT:
                raise ValueError(
                    f"n={n} exceeds the exact-scan limit {_EXACT_A0_LIMIT}; "
                    "declare a0 explicitly"
                )
            self.a0 = _quasi_triangle_constant(metric)
        else:
            if not 1 <= a0 < np.inf:
                raise ValueError(f"a0 must be a finite number >= 1, got {a0}")
            self.a0 = float(a0)
            # a declared a0 comes from outside: test it on 20,000 seeded
            # random triples
            x, y, z = np.random.default_rng(0).integers(0, n, (20000, 3)).T
            bad = metric[x, y] > self.a0 * (metric[x, z] + metric[z, y]) \
                * (1 + 1e-12)
            if np.any(bad):
                i = int(np.argmax(bad))
                raise ValueError("declared a0 violated on triple "
                                 f"({x[i]}, {y[i]}, {z[i]})")

    # -- rows --------------------------------------------------------------

    def distances(self, center: int) -> np.ndarray:
        """d(center, y) for every point y."""
        return self.metric[center]

    def _row_order(self, center: int) -> np.ndarray:
        """The points by distance from center; stable, so ties go by index."""
        return np.argsort(self.distances(center), kind="stable")

    def _sorted_row(self, center: int):
        """The points by distance from center, their distances and the
        running masses of that order."""
        order = self._row_order(center)
        return (order, self.distances(center)[order],
                np.cumsum(self.masses[order]))

    # -- balls -------------------------------------------------------------

    def ball(self, center: int, radius: float) -> Ball:
        if not 0 <= center < self.n:
            raise ValueError("ball center out of range")
        if not radius >= 0:
            raise ValueError("ball radius must be nonnegative")
        members = np.flatnonzero(self.distances(center) <= radius)
        return Ball(int(center), float(radius), members)

    def ball_mass(self, center: int, radius) -> np.ndarray | float:
        """mu(B(center, r)) for a scalar or array of radii."""
        r = np.asarray(radius, dtype=np.float64)
        if not np.all(r >= 0):
            raise ValueError("ball radius must be nonnegative")
        _, d, prefix = self._sorted_row(center)
        out = prefix[np.searchsorted(d, r, side="right") - 1]
        return float(out) if np.isscalar(radius) else out

    def balls(self, center: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every closed ball around center, smallest first: the points
        by distance, the distinct radii (0 first) and member counts, so
        ball j is order[:ends[j]] with mass ball_mass(center, radii[j])."""
        order, d, _ = self._sorted_row(center)
        ends = np.append(np.flatnonzero(np.diff(d) > 0) + 1, self.n)
        return order, d[ends - 1], ends

    def realized_distances(self, center: int) -> np.ndarray:
        """Sorted positive distances from center."""
        vals = np.unique(self.distances(center))
        return vals[vals > 0]

    def mass_of(self, members) -> float:
        return float(self.masses[np.asarray(members, dtype=np.intp)].sum())


class GridSpace(DiscreteSpace):
    """Grid model in O(n) memory: points k/n on [0, 1), d(x, y) = |x - y|.

    For power-of-two n every position k/n and every distance is exact, so
    |x - y| is a metric (a0 = 1) and the closed-form row order below is
    the stable argsort of the distance row: x, x-1, x+1, x-2, x+2, ...,
    then the rest of the longer side.
    """

    kind = "grid"

    def __init__(self, masses):
        masses = _checked_masses(masses)
        n = masses.shape[0]
        self.n = n
        self.masses = masses
        self.positions = np.arange(n, dtype=np.float64) / n
        # |k|/n for k = 1-n, ..., n-1: each distance row is a window of it
        self._reach = np.abs(np.arange(1 - n, n)) / n
        self._reach.flags.writeable = False
        # 0, -1, 1, -2, 2, ...: the nearest points' offsets, in order
        k = np.arange(n)
        self._zigzag = (k + 1) // 2 * np.where(k % 2, -1, 1)
        self.total_mass = float(masses.sum())
        self.a0 = 1.0

    @property
    def metric(self) -> np.ndarray:
        """The dense (n, n) distance matrix, built anew on each access."""
        pos = self.positions
        return np.abs(pos[:, None] - pos[None, :])

    def distances(self, center: int) -> np.ndarray:
        return self._reach[self.n - 1 - center:2 * self.n - 1 - center]

    def _row_order(self, x: int) -> np.ndarray:
        n = self.n
        near = min(x, n - 1 - x)
        both = 2 * near + 1
        order = np.empty(n, dtype=np.intp)
        np.add(self._zigzag[:both], x, out=order[:both])
        # then the rest of the longer side, nearest first
        rest = np.arange(near + 1, n - near)
        if near == x:
            np.add(x, rest, out=order[both:])
        else:
            np.subtract(x, rest, out=order[both:])
        return order

    def balls(self, center: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # ball j has radius j/n and holds both sides out to j, clipped at
        # the nearer end of the grid
        n = self.n
        near = min(center, n - 1 - center)
        j = np.arange(n - near)
        radii = self._reach[n - 1:2 * n - 1 - near]
        return self._row_order(center), radii, np.minimum(2 * j, near + j) + 1


def build_grid_space(n: int, masses=None) -> DiscreteSpace:
    """Grid model: points k/n on [0, 1) with d(x, y) = |x - y| and a0 = 1."""
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError("grid size must be a power of two")
    if masses is None:
        masses = np.ones(n)
    masses = np.asarray(masses, dtype=np.float64)
    if masses.shape != (n,):
        raise ValueError("masses must have length n")
    return GridSpace(masses)


def build_explicit_space(metric, masses, a0: float | None = None) -> DiscreteSpace:
    return DiscreteSpace(masses, metric, a0=a0)


def doubling_constant(space: DiscreteSpace) -> float:
    """Minimal C with mu(B(x, 2r)) <= C mu(B(x, r)) for every x and r > 0.

    The ratio is a right-continuous step function of r.  It rises only
    where the outer ball grows, at r = d/2 for a distance d from x, and
    falls where the inner ball grows, so its supremum over all radii is
    its largest value at those breakpoints: the mass of ball j over the
    mass of the last ball of radius at most radii[j] / 2.
    """
    best = 1.0
    for x in range(space.n):
        order, radii, ends = space.balls(x)
        mass = np.cumsum(space.masses[order])[ends - 1]
        inner = mass[np.searchsorted(radii, 0.5 * radii, side="right") - 1]
        best = max(best, float(np.max(mass / inner)))
    return best


# -- JSON descriptors -------------------------------------------------------

def space_to_descriptor(space: DiscreteSpace) -> dict:
    d = {"kind": space.kind, "n": space.n, "masses": space.masses.tolist()}
    if space.kind == "explicit":
        d["metric"] = space.metric.tolist()
        d["a0"] = space.a0
    return d


def space_from_descriptor(desc: dict) -> DiscreteSpace:
    kind = desc.get("kind")
    if kind not in ("grid", "explicit"):
        raise ValueError(f"unknown space kind: {kind!r}")
    n = desc.get("n")
    masses = desc.get("masses")
    if masses is None:
        if n is None:
            raise ValueError("descriptor needs n or masses")
        masses = [1.0] * int(n)
    # decimal strings are accepted and round-trip exactly through float
    masses = np.array([float(v) for v in masses], dtype=np.float64)
    if n is not None and int(n) != masses.shape[0]:
        raise ValueError("descriptor field n disagrees with masses length")
    if kind == "grid":
        return build_grid_space(masses.shape[0], masses)
    metric = desc.get("metric")
    if metric is None:
        raise ValueError("explicit descriptor needs a metric")
    metric = np.array([[float(v) for v in row] for row in metric])
    return build_explicit_space(metric, masses, a0=desc.get("a0"))


def space_to_json(space: DiscreteSpace) -> str:
    return json.dumps(space_to_descriptor(space), sort_keys=True)


def space_from_json(text: str) -> DiscreteSpace:
    return space_from_descriptor(json.loads(text))
