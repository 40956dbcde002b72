"""Finite model spaces: point sets, quasi-metrics, masses, and balls.

A space is a finite point set {0, ..., n-1} carrying a symmetric
quasi-metric matrix and strictly positive per-point masses.  Balls use
the closed convention B(x, r) = {y : d(x, y) <= r}, so every ball owns
its center and the mass of a ball is a right-continuous step function of
the radius with finitely many breakpoints.
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
    """Finite quasi-metric measure space.

    Attributes
    ----------
    kind : "grid" or "explicit"
    n : number of points
    masses : positive float array of shape (n,)
    metric : symmetric (n, n) float array with zero diagonal
    a0 : quasi-triangle constant, minimal when computed
    """

    def __init__(self, kind: str, masses, metric, a0: float | None = None):
        masses = np.asarray(masses, dtype=np.float64)
        metric = np.asarray(metric, dtype=np.float64)
        if masses.ndim != 1:
            raise ValueError("masses must be a 1-d array")
        n = masses.shape[0]
        if n == 0:
            raise ValueError("space must contain at least one point")
        if metric.shape != (n, n):
            raise ValueError("metric must be an n-by-n matrix")
        if not np.all(np.isfinite(masses)) or np.any(masses <= 0):
            raise ValueError("masses must be strictly positive and finite")
        if not np.all(np.isfinite(metric)):
            raise ValueError("metric entries must be finite")
        if np.any(metric < 0):
            raise ValueError("metric entries must be nonnegative")
        if not np.array_equal(metric, metric.T):
            raise ValueError("metric must be symmetric")
        if np.any(np.diag(metric) != 0):
            raise ValueError("metric diagonal must vanish")
        off = metric + np.eye(n)
        if np.any(off == 0):
            raise ValueError("d(x,y)=0 requires x=y")
        self.kind = kind
        self.n = n
        self.masses = masses
        self.metric = metric
        self.total_mass = float(masses.sum())
        # per-center sorted distance tables for fast ball-mass lookups
        self._order = np.argsort(metric, axis=1, kind="stable")
        self._sorted_d = np.take_along_axis(metric, self._order, axis=1)
        self._prefix_mass = np.cumsum(masses[self._order], axis=1)
        if a0 is None:
            if n > _EXACT_A0_LIMIT:
                raise ValueError(
                    f"n={n} exceeds the exact-scan limit {_EXACT_A0_LIMIT}; "
                    "declare a0 explicitly"
                )
            self.a0 = _quasi_triangle_constant(metric)
        else:
            if a0 < 1:
                raise ValueError("a0 must be at least 1")
            self.a0 = float(a0)
            self._spot_check_a0()

    def _spot_check_a0(self, samples: int = 20000) -> None:
        if self.n < 3:
            return
        rng = np.random.default_rng(0)
        idx = rng.integers(0, self.n, size=(samples, 3))
        x, y, z = idx[:, 0], idx[:, 1], idx[:, 2]
        lhs = self.metric[x, y]
        rhs = self.a0 * (self.metric[x, z] + self.metric[z, y])
        bad = lhs > rhs * (1 + 1e-12)
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            raise ValueError(
                "declared a0 violated on triple "
                f"({x[i]}, {y[i]}, {z[i]})"
            )

    # -- balls -------------------------------------------------------------

    def ball(self, center: int, radius: float) -> Ball:
        if not 0 <= center < self.n:
            raise ValueError("ball center out of range")
        if not radius >= 0:
            raise ValueError("ball radius must be nonnegative")
        members = np.flatnonzero(self.metric[center] <= radius)
        return Ball(int(center), float(radius), members)

    def ball_mass(self, center: int, radius) -> np.ndarray | float:
        """mu(B(center, r)) for a scalar or array of radii."""
        r = np.asarray(radius, dtype=np.float64)
        if not np.all(r >= 0):
            raise ValueError("ball radius must be nonnegative")
        pos = np.searchsorted(self._sorted_d[center], r, side="right") - 1
        out = self._prefix_mass[center][pos]
        return float(out) if np.isscalar(radius) else out

    def balls(self, center: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every closed ball around center, smallest first: the points
        by distance, the distinct radii (0 first) and member counts, so
        ball j is order[:ends[j]] with mass ball_mass(center, radii[j])."""
        d = self._sorted_d[center]
        ends = np.append(np.flatnonzero(np.diff(d) > 0) + 1, self.n)
        return self._order[center], d[ends - 1], ends

    def realized_distances(self, center: int | None = None) -> np.ndarray:
        """Sorted positive distances, from one center or from all pairs."""
        d = self.metric[center] if center is not None else self.metric
        vals = np.unique(d)
        return vals[vals > 0]

    def mass_of(self, members) -> float:
        return float(self.masses[np.asarray(members, dtype=np.intp)].sum())


def build_grid_space(n: int, masses=None) -> DiscreteSpace:
    """Grid model: points k/n on [0, 1) with d(x, y) = |x - y| and a0 = 1."""
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError("grid size must be a power of two")
    if masses is None:
        masses = np.ones(n)
    masses = np.asarray(masses, dtype=np.float64)
    if masses.shape != (n,):
        raise ValueError("masses must have length n")
    pos = np.arange(n, dtype=np.float64) / n
    metric = np.abs(pos[:, None] - pos[None, :])
    return DiscreteSpace("grid", masses, metric, a0=1.0)


def build_explicit_space(metric, masses, a0: float | None = None) -> DiscreteSpace:
    return DiscreteSpace("explicit", masses, metric, a0=a0)


def doubling_constant(space: DiscreteSpace) -> float:
    """Minimal C with mu(B(x, 2r)) <= C mu(B(x, r)) for every x and r > 0.

    The ratio is piecewise constant in r; both balls only change at the
    breakpoints {d, d/2 : d a distance from x}, so scanning those (plus
    r = 0) realizes the exact supremum over all radii.
    """
    best = 1.0
    for x in range(space.n):
        dx = space.metric[x]
        cand = np.unique(np.concatenate([[0.0], dx, 0.5 * dx]))
        inner = space.ball_mass(x, cand)
        outer = space.ball_mass(x, 2.0 * cand)
        best = max(best, float(np.max(outer / inner)))
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
