"""Finite model spaces: point sets, quasi-metrics, masses, and balls.

A space is a finite point set {0, ..., n-1} carrying a symmetric
quasi-metric and strictly positive per-point masses.  Balls use the
closed convention B(x, r) = {y : d(x, y) <= r}, so every ball owns its
center and the mass of a ball is a right-continuous step function of
the radius with finitely many breakpoints.

Explicit spaces keep their dense (n, n) metric; grid spaces keep only
masses and positions.  Both sort the distance rows of a block of
centers on demand, in O(n) memory per row, by one primitive,
DiscreteSpace._sorted_rows; balls(center) is its block of one.
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

    # -- balls -------------------------------------------------------------

    def ball(self, center: int, radius: float) -> Ball:
        if not 0 <= center < self.n:
            raise ValueError("ball center out of range")
        if not radius >= 0:
            raise ValueError("ball radius must be nonnegative")
        members = np.flatnonzero(self.distances(center) <= radius)
        return Ball(int(center), float(radius), members)

    def ball_mass(self, center, radius) -> np.ndarray | float:
        """mu(B(center, r)) for a scalar or array of radii.

        Block form: a 1-d array of B centers takes a (B, m) array of
        radii, row b around centers[b], and gives a (B, m) array.  A
        single center is a block of one, so a block's rows equal the
        per-center calls bit for bit: each row's prefix masses add in
        row order, and _ball_last finds each ball's end in them."""
        r = np.asarray(radius, dtype=np.float64)
        if not np.all(r >= 0):
            raise ValueError("ball radius must be nonnegative")
        block = np.ndim(center) > 0
        centers = np.atleast_1d(np.asarray(center, dtype=np.intp))
        self._check_centers(centers)
        if block and (r.ndim != 2 or len(r) != len(centers)):
            raise ValueError("a block of B centers takes (B, m) radii")
        rows = r if block else r.reshape(1, -1)
        orders = self._row_orders(centers)
        prefix = np.cumsum(self.masses[orders], axis=1)
        out = np.take_along_axis(
            prefix, self._ball_last(centers, orders, rows), axis=1)
        if block:
            return out
        return float(out[0, 0]) if np.isscalar(radius) else \
            out.reshape(r.shape)

    def _check_centers(self, centers) -> None:
        """One range check for a center or an array of centers."""
        centers = np.asarray(centers)
        if centers.size and (centers.min() < 0 or centers.max() >= self.n):
            raise ValueError("ball center out of range")

    def _row_orders(self, centers: np.ndarray) -> np.ndarray:
        """The points by distance from each center, as rows of a (B, n)
        array; stable, so ties go by index."""
        return np.argsort(self.distances(centers), axis=1, kind="stable")

    def _sorted_rows(self, centers: np.ndarray):
        """The row orders of a block of centers, their sorted distances,
        and ends[b, p], true where position p is the last member of its
        ball: where the sorted distance rises, and at the last point."""
        order = self._row_orders(centers)
        ds = np.take_along_axis(self.distances(centers), order, axis=1)
        ends = np.ones(order.shape, dtype=bool)
        ends[:, :-1] = ds[:, 1:] > ds[:, :-1]
        return order, ds, ends

    def _ball_last(self, centers, orders, r) -> np.ndarray:
        """Where the ball B(centers[b], r[b, i]) ends in orders[b], the
        row order of centers[b]: the position of its last member, by one
        sorted search per row."""
        d = np.take_along_axis(self.distances(centers), orders, axis=1)
        last = np.empty(r.shape, dtype=np.intp)
        for b, row in enumerate(d):
            last[b] = np.searchsorted(row, r[b], side="right") - 1
        return last

    def balls(self, center: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every closed ball around center, smallest first: the points
        by distance, the distinct radii (0 first) and member counts, so
        ball j is order[:ends[j]] with mass ball_mass(center, radii[j])."""
        self._check_centers(center)
        order, d, last = self._sorted_rows(np.array([center], np.intp))
        return order[0], d[0, last[0]], np.flatnonzero(last[0]) + 1

    def _doubling_scan(self) -> float:
        """doubling_constant, one center at a time over its balls."""
        best = 1.0
        for x in range(self.n):
            order, radii, ends = self.balls(x)
            mass = np.cumsum(self.masses[order])[ends - 1]
            inner = mass[np.searchsorted(radii, 0.5 * radii, side="right") - 1]
            best = max(best, float(np.max(mass / inner)))
        return best

    def realized_distances(self, center: int) -> np.ndarray:
        """Sorted positive distances from center."""
        vals = np.unique(self.distances(center))
        return vals[vals > 0]

    def mass_of(self, members) -> float:
        return float(self.masses[np.asarray(members, dtype=np.intp)].sum())


class GridSpace(DiscreteSpace):
    """Grid model in O(n) memory: points k/n on [0, 1), d(x, y) = |x - y|.

    For power-of-two n every position k/n and every distance is exact, so
    |x - y| is a metric (a0 = 1).  The grid keeps only closed forms: its
    distance rows, its row order (the stable argsort of the distance
    row: x, x-1, x+1, x-2, x+2, ..., then the rest of the longer side),
    where each ball ends in that order, and the doubling scan.  Every
    other ball method, balls and _sorted_rows among them, is the
    explicit space's, run on these closed forms.
    """

    kind = "grid"

    def __init__(self, masses):
        masses = _checked_masses(masses)
        n = masses.shape[0]
        self.n = n
        self.masses = masses
        self.positions = np.arange(n, dtype=np.float64) / n
        # |k|/n for k = 1-n, ..., n-1: the distance row of x is its
        # read-only window n - 1 - x
        self._rows = np.lib.stride_tricks.sliding_window_view(
            np.abs(np.arange(1 - n, n)) / n, n)
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

    def distances(self, center) -> np.ndarray:
        """d(center, y) for every y; a (B, n) array for B centers."""
        return self._rows[self.n - 1 - center]

    def _row_orders(self, centers: np.ndarray) -> np.ndarray:
        # the stable argsort's closed form, one row per center: past the
        # zigzag the rest of the longer side is k itself on the left half
        # of the grid and n - 1 - k on the right half
        n = self.n
        x = centers[:, None]
        near = np.minimum(x, n - 1 - x)
        k = np.arange(n)
        return np.where(k <= 2 * near, x + self._zigzag,
                        np.where(near == x, k, n - 1 - k))

    def _ball_last(self, centers, orders, r) -> np.ndarray:
        # the ball of radius r holds both sides out to j = floor(r n),
        # clipped at the nearer end of the grid; r n only rescales r by a
        # power of two, so d = k/n <= r exactly when k <= j, and r >= 0
        # truncates to j
        n = self.n
        near = np.minimum(centers, n - 1 - centers)[:, None]
        j = np.minimum(r * n, n - 1 - near).astype(np.intp)
        return j + np.minimum(j, near)

    def _doubling_scan(self) -> float:
        # doubling_constant's recurrence for every center at once:
        # inner holds S_k and outer S_{2k+1}, both grown by m, the masses
        # padded with n zeros on each side
        n = self.n
        m = np.zeros(3 * n)
        m[n:2 * n] = self.masses

        def grow(s, j):
            # S_{j-1} -> S_j: add m[x - j], then m[x + j]
            s += m[n - j:2 * n - j]
            s += m[n + j:2 * n + j]

        inner = self.masses.copy()
        outer = self.masses.copy()
        best = np.ones(n)
        for k in range(n // 2):
            grow(outer, 2 * k + 1)
            np.maximum(best, outer / inner, out=best)
            grow(inner, k + 1)
            grow(outer, 2 * k + 2)
        return float(best.max())


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

    An explicit space scans each center's balls in turn.  A grid scans
    every center at once, with no loop over centers and the same bits:
    ball j has radius j/n and, in row order, adds x - j and then x + j
    to ball j - 1, so its mass is S_j = (S_{j-1} + m[x-j]) + m[x+j],
    the very additions of the prefix sum, with m = 0.0 off the grid
    (which leaves a positive sum exactly as it is).  radii[j] / 2 is
    exact, so the inner ball of ball j is ball j // 2.  Each step k
    carries S_k and S_{2k+1} for every center: float addition of
    nonnegative terms is monotone, so S_{2k+1} / S_k bounds
    S_{2k} / S_k, and past a center's last ball the outer sum is its
    total mass over an inner sum no smaller, a ratio that cannot exceed
    the last ball's.
    """
    return space._doubling_scan()


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
