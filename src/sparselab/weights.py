"""Weight characteristics, Orlicz norms, and oscillation norms.

All characteristics are suprema over the cubes of one dyadic lattice.
Averages over a cube always use the normalized measure of that cube;
Lebesgue-style norms inside the fractional characteristic are the
unnormalized sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicLattice
from .space import DiscreteSpace


def conjugate_exponent(p: float) -> float:
    if p < 1:
        raise ValueError("conjugate exponent needs p >= 1")
    if p == 1:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


@dataclass(frozen=True)
class ExponentConfig:
    """Exponent bookkeeping for a multilinear fractional setup.

    The fractional order eta is pinned to sum(1/p_i) - 1/q; passing an
    explicit eta merely asserts it.  theta and beta are the derived
    exponents the sparse-bound proof runs on, q0 the endpoint target.
    """

    m: int
    p: tuple
    q: float
    eta: float | None = None
    p0: float = 1.0
    gamma: float = 1.0
    r: float = 1.0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        p = tuple(float(v) for v in self.p)
        object.__setattr__(self, "p", p)
        if len(p) != self.m:
            raise ValueError("p must list one exponent per slot")
        if any(v < 1 for v in p):
            raise ValueError("every p_i must be >= 1")
        # p_i = inf is legal (its conjugate is 1); these four are not
        for name in ("q", "p0", "gamma", "r"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        derived = math.fsum(1.0 / v for v in p) - 1.0 / self.q
        if self.eta is None:
            object.__setattr__(self, "eta", derived)
        elif abs(self.eta - derived) > 1e-12:
            raise ValueError(
                f"eta={self.eta} inconsistent with exponents "
                f"(expected {derived})"
            )
        if not 0 <= self.eta < self.m:
            raise ValueError(f"eta={self.eta} must lie in [0, m)")

    @property
    def q0(self) -> float:
        return 1.0 / (self.m - self.eta)

    @property
    def theta(self) -> float:
        return min(self.q, self.gamma)

    @property
    def beta(self) -> float:
        return max(1.0 / self.theta,
                   max(conjugate_exponent(v) / self.q for v in self.p))


def target_weight(ws, p, q) -> np.ndarray:
    """u = prod_i w_i^(q/p_i), the target weight of the weight vector."""
    return np.prod(np.stack([np.asarray(w, dtype=np.float64) ** (q / pi)
                             for w, pi in zip(ws, p)]), axis=0)


def dual_weight(w, p: float) -> np.ndarray:
    """sigma = w^(1 - p'), the dual weight of slot exponent p > 1."""
    if p <= 1:
        raise ValueError("dual weight needs p > 1")
    w = np.asarray(w, dtype=np.float64)
    return w ** (1.0 - conjugate_exponent(p))


def holder_sides(space: DiscreteSpace, members, weights, p, q):
    """Both sides of the witness-set splitting inequality.

    The left side is the plain measure of the set; the right side is
    the product of the target and dual weights' measures raised to
    exponents that sum to one.  With all-ones weights the two sides
    agree exactly.
    """
    eta = math.fsum(1.0 / v for v in p) - 1.0 / float(q)
    gap = len(weights) - eta
    if gap <= 0:
        raise ValueError("exponents leave no room: sum 1/p_i' + 1/q <= 0")
    mass = space.masses[members]
    ws = [w[members] for w in weights]
    u = target_weight(ws, p, q)
    rhs = float(np.sum(u * mass)) ** (1.0 / (gap * q))
    for w, pi in zip(ws, p):
        pc = conjugate_exponent(pi)
        rhs *= float(np.sum(dual_weight(w, pi) * mass)) ** (1.0 / (gap * pc))
    return float(np.sum(mass)), rhs


# -- averages ----------------------------------------------------------------

def avg(space: DiscreteSpace, members, f, p: float = 1.0) -> float:
    """Normalized p-average of |f| over a member set."""
    members = np.asarray(members, dtype=np.intp)
    mass = space.masses[members]
    vals = np.abs(np.asarray(f, dtype=np.float64)[members])
    mean = float(np.dot(vals**p, mass) / mass.sum())
    return mean ** (1.0 / p)


def _check_weight(space: DiscreteSpace, w) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (space.n,):
        raise ValueError("weight must assign one value per point")
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise ValueError("weights must be positive and finite")
    return w


def _sup(per_cube: np.ndarray, detail: bool):
    """Largest per-cube value; NaN never wins and ties go to the lowest
    cube id.  With no comparable value the sup is -inf at no cube."""
    live = np.where(np.isnan(per_cube), -math.inf, per_cube)
    best = int(np.argmax(live))
    val = float(live[best])
    if detail:
        return val, (best if val > -math.inf else None)
    return val


def _cube_min(lattice: DyadicLattice, w) -> np.ndarray:
    return -lattice.cube_max(-w)


def _geometric_means(lattice: DyadicLattice, w) -> np.ndarray:
    return np.exp(lattice.cube_means(np.log(w)))


# -- joint characteristics ---------------------------------------------------

def fractional_apq_constant(lattice: DyadicLattice, weights, p, q,
                            u=None, detail: bool = False):
    """Fractional-class characteristic built from unnormalized norms.

    Per cube: mu(Q)^(eta - m) * ||u 1_Q||_{L^q} * prod_i
    ||(1/w_i) 1_Q||_{L^{p_i'}}, with the L^inf factor (p_i = 1) read as
    the max of 1/w_i on Q.  Default u is the product of the w_i.
    """
    sp = lattice.space
    ws = [_check_weight(sp, w) for w in weights]
    m = len(ws)
    p = [float(v) for v in p]
    u = np.prod(np.stack(ws), axis=0) if u is None else _check_weight(sp, u)
    eta = math.fsum(1.0 / v for v in p) - 1.0 / q
    val = lattice.mass ** (eta - m)
    val = val * lattice.cube_sums(u ** q) ** (1.0 / q)
    for w, pi in zip(ws, p):
        pc = conjugate_exponent(pi)
        if math.isinf(pc):
            val = val * lattice.cube_max(1.0 / w)
        else:
            val = val * lattice.cube_sums(w ** (-pc)) ** (1.0 / pc)
    return _sup(val, detail)


def joint_astar_constant(lattice: DyadicLattice, weights, p, q,
                         u=None, detail: bool = False):
    """Normalized-average characteristic of the weight vector.

    Per cube: <u>_Q * prod_i <w_i^(1 - p_i')>_Q^(q/p_i'); the p_i = 1
    factor degenerates to (min_Q w_i)^(-q).  Default u is
    prod_i w_i^(q/p_i).
    """
    sp = lattice.space
    ws = [_check_weight(sp, w) for w in weights]
    p = [float(v) for v in p]
    u = target_weight(ws, p, q) if u is None else _check_weight(sp, u)
    val = lattice.cube_means(u)
    for w, pi in zip(ws, p):
        pc = conjugate_exponent(pi)
        if math.isinf(pc):
            val = val * _cube_min(lattice, w) ** (-q)
        else:
            val = val * lattice.cube_means(dual_weight(w, pi)) ** (q / pc)
    return _sup(val, detail)


def astar_from_duals(lattice: DyadicLattice, u, sigmas, p, q,
                     detail: bool = False):
    """Same characteristic written on the dual weights sigma_i.

    Per cube: <u>_Q * prod_i <sigma_i>_Q^(q/p_i').  Coincides with
    joint_astar_constant when sigma_i = w_i^(1 - p_i').
    """
    sp = lattice.space
    u = _check_weight(sp, u)
    sg = [_check_weight(sp, s) for s in sigmas]
    p = [float(v) for v in p]
    val = lattice.cube_means(u)
    for s, pi in zip(sg, p):
        pc = conjugate_exponent(pi)
        expo = 0.0 if math.isinf(pc) else q / pc
        val = val * lattice.cube_means(s) ** expo
    return _sup(val, detail)


def muckenhoupt_ap(lattice: DyadicLattice, w, p: float,
                   detail: bool = False):
    """Classical p-characteristic; p = 1 uses the essential infimum."""
    w = _check_weight(lattice.space, w)
    mean = lattice.cube_means(w)
    if p == 1:
        return _sup(mean / _cube_min(lattice, w), detail)
    dual_avg = lattice.cube_means(dual_weight(w, p))
    return _sup(mean * dual_avg ** (p - 1.0), detail)


# -- Fujii-Wilson and Hruscev style constants --------------------------------

def _local_maximal(lattice: DyadicLattice, g) -> np.ndarray:
    """Row k at x: max of <|g|>_R over the cubes R containing x at
    generation k or finer, i.e. the maximal function restricted to the
    generation-k cube of x.  A suffix max over generations."""
    means = lattice.cube_means(np.abs(g))[lattice.point_to_cube]
    return np.maximum.accumulate(means[::-1], axis=0)[::-1]


def _restricted_maximal_ratio(lattice: DyadicLattice, gs, es,
                              detail: bool):
    """sup over cubes Q of int_Q prod_j M_Q(g_j)^(e_j) over
    int_Q prod_j g_j^(e_j), with M_Q the maximal function restricted to
    the sub-cubes of Q."""
    num = den = 1.0
    for g, e in zip(gs, es):
        num = num * _local_maximal(lattice, g) ** e
        den = den * g ** e
    return _sup(lattice.cube_sums(num) / lattice.cube_sums(den), detail)


def _exp_mean_product(lattice: DyadicLattice, gs, es) -> np.ndarray:
    """prod_j (<g_j>_Q exp<log 1/g_j>_Q)^(e_j) for every cube Q."""
    val = np.ones(len(lattice.gen))
    for g, e in zip(gs, es):
        val = val * (lattice.cube_means(g) / _geometric_means(lattice, g)) ** e
    return val


def fujii_wilson_constant(lattice: DyadicLattice, weights, p, q,
                          detail: bool = False):
    """Maximal-function form of the joint limiting characteristic.

    Per cube Q the inner maximal runs over sub-cubes of Q only:
    (int_Q prod_i M_Q(w_i 1_Q)^(q/p_i)) / (int_Q prod_i w_i^(q/p_i)).
    """
    sp = lattice.space
    ws = [_check_weight(sp, w) for w in weights]
    return _restricted_maximal_ratio(lattice, ws, [q / float(v) for v in p],
                                     detail)


def fujii_wilson_single(lattice: DyadicLattice, w, detail: bool = False):
    return fujii_wilson_constant(lattice, [w], (1.0,), 1.0, detail=detail)


def hruscev_constant(lattice: DyadicLattice, weights, p, q,
                     detail: bool = False):
    """Exponential-mean form: prod_i (<w_i> exp<log 1/w_i>)^(q/p_i)."""
    sp = lattice.space
    ws = [_check_weight(sp, w) for w in weights]
    return _sup(_exp_mean_product(lattice, ws, [q / float(v) for v in p]),
                detail)


def component_wilson_constant(lattice: DyadicLattice, u, sigmas, p, q,
                              gamma: float, i: int,
                              detail: bool = False):
    """Slot-i maximal-form constant entering commutator bounds.

    Equal to 1 when q <= gamma; otherwise a ratio of integrals of
    products of restricted maximal functions of u and the other duals,
    with exponents driven by (p_i/gamma)' and t = q/gamma.
    """
    if q <= gamma:
        return (1.0, None) if detail else 1.0
    sp = lattice.space
    u = _check_weight(sp, u)
    sg = [_check_weight(sp, s) for s in sigmas]
    p = [float(v) for v in p]
    if p[i] <= gamma:
        raise ValueError("slot constant needs p_i > gamma when q > gamma")
    pc = conjugate_exponent(p[i] / gamma)
    others = [j for j in range(len(sg)) if j != i]
    return _restricted_maximal_ratio(
        lattice, [u] + [sg[j] for j in others],
        [pc / conjugate_exponent(q / gamma)]
        + [pc / (p[j] / gamma) for j in others], detail)


def component_hruscev_constant(lattice: DyadicLattice, u, sigmas, p, q,
                               gamma: float, i: int,
                               detail: bool = False):
    """Slot-i exponential-mean constant entering commutator bounds."""
    sp = lattice.space
    u = _check_weight(sp, u)
    sg = [_check_weight(sp, s) for s in sigmas]
    p = [float(v) for v in p]
    if p[i] <= 1:
        raise ValueError("slot constant needs p_i > 1")
    pic = conjugate_exponent(p[i])
    others = [j for j in range(len(sg)) if j != i]
    return _sup(_exp_mean_product(
        lattice, [u] + [sg[i]] * len(others),
        [pic * max(1.0 / gamma - 1.0 / q, 0.0)]
        + [pic / p[j] for j in others]), detail)


# -- oscillation norms -------------------------------------------------------

def bmo_norm(lattice: DyadicLattice, b, weight=None,
             detail: bool = False):
    """Mean oscillation against an optional reference weight.

    Per cube: (1/nu(Q)) sum_Q |b - <b>_Q| mu, with <b>_Q the plain
    mu-average and nu(Q) the weight's mass (mu(Q) when no weight).
    """
    osc = lattice.cube_sums(np.abs(lattice.deviations(b)))
    if weight is None:
        denom = lattice.mass
    else:
        denom = lattice.cube_sums(_check_weight(lattice.space, weight))
    return _sup(osc / denom, detail)


# -- Orlicz machinery --------------------------------------------------------

@dataclass(frozen=True)
class YoungFunction:
    """Vectorized convex gauge t -> Phi(t), Phi(0) = 0."""

    kind: str
    r: float = 1.0
    s: float = 1.0
    ell: float = 0.0

    def value(self, t):
        t = np.asarray(t, dtype=np.float64)
        with np.errstate(over="ignore"):
            if self.kind == "identity":
                return t
            if self.kind == "llogl":
                logplus = np.log(np.maximum(t, 1.0))
                return t * (1.0 + logplus) ** self.r
            if self.kind == "expl":
                return np.expm1(t ** self.s)
            if self.kind == "power_log":
                logplus = np.log(np.maximum(t, 1.0))
                return t ** self.r * (1.0 + logplus ** (self.r * self.ell))
        raise ValueError(f"unknown Young function kind: {self.kind}")


def young_identity() -> YoungFunction:
    return YoungFunction("identity")


def young_llogl(r: float) -> YoungFunction:
    return YoungFunction("llogl", r=r)


def young_expl(s: float) -> YoungFunction:
    return YoungFunction("expl", s=s)


def young_power_log(r: float, ell: float) -> YoungFunction:
    return YoungFunction("power_log", r=r, ell=ell)


def luxemburg_norm(lattice: DyadicLattice, f,
                   phi: YoungFunction) -> np.ndarray:
    """inf{lam > 0 : mean of Phi(|f|/lam) over Q is <= 1} on every cube Q,
    by cube id; f is shaped like a cube_sums input.

    The result is bit for bit that of a lockstep bisection: double lam
    from 1 while the mean is above 1, halve while it is at most 1, then
    bisect [hi/2, hi] until hi - lo <= 1e-10 * hi.  That bisection ends
    at depth 33 or 34 of the grid hi/2 * (1 + j * 2^-34), and this
    function reads its answer off that grid in about 9 cube_means rounds
    instead of about 45: the scans run 8 powers of two per round, a
    safeguarded secant on (log2 lam, log mean) finds the crossing to
    about 1e-12, reading only phi.value, and one 2-column round
    evaluates the grid point above that estimate and its lower
    neighbour.  Should the pair not straddle the crossing, it moves one
    grid step and is evaluated again.  The bisection's stop rule then
    picks the depth-33 or the depth-34 point.

    Why that is exact: t Phi'(t) / Phi(t) >= min(1, s) for every Young
    kind in use, so at a relative distance d from the crossing the mean
    is about min(1, s) * d away from 1, while a mean of at most n terms
    is off by a few n * 2^-53.  While n * 2^-52 is well under the grid
    step 2^-35 * min(1, s), i.e. for n up to about 10^4, every grid point
    but the one nearest the crossing gets the decision of the exact
    mean, so the computed means cross 1 between one pair of grid
    neighbours only, and the bisection and the pair walk both end there.
    The grid arithmetic is exact for gauges above about 2^-987.

    A cube whose largest |f| is 0 reads 0, one holding a NaN reads NaN
    and one holding an infinity reads inf.
    """
    vals = np.abs(np.broadcast_to(np.asarray(f, dtype=np.float64),
                                  lattice.point_to_cube.shape))
    top = lattice.cube_max(vals)
    live = np.isfinite(top) & (top > 0)
    cube = lattice.point_to_cube

    def mean_phi(lam):
        # lam holds one gauge per cube, or a (cubes, B) block of them
        if lam.ndim == 1:
            return lattice.cube_means(phi.value(vals / lam[cube]))
        return lattice.cube_means(phi.value(
            vals[..., None] / np.take(lam, cube, axis=0)))

    # Block columns past a cube's crossing may overflow to inf, which
    # reads as a mean above 1 as it should.
    with np.errstate(over="ignore"):
        e, lo_mean, hi_mean = _gauge_bracket(mean_phi, live)
        hi = np.ldexp(1.0, e)
        # a bracket reaching 2^1024 = inf ends the bisection at once
        refine = live & (hi < math.inf)
        root = _gauge_crossing(mean_phi, e, lo_mean, hi_mean, refine)
        hi = np.where(refine, _gauge_on_grid(mean_phi, e, root, refine), hi)
    return np.where(live, hi, top)


# the bisection's finest grid has 2^34 steps across [hi/2, hi]
_GRID = 2.0 ** 34
# the secant stops once its next step is below this, in log2 lam
_ROOT_TOL = 1e-12
# rounds of secant steps before the crossing search only bisects
_SECANT_ROUNDS = 12


def _gauge_bracket(mean_phi, live):
    """Exponent e of each live cube's bracket [2^(e-1), 2^e] and the
    means at both ends.

    Every cube walks from 2^0: up while the mean is above 1, down while
    it is at most 1, 8 powers of two per cube_means round.  The walk
    stops at the first power where the test fails, as one step at a
    time would.
    """
    first = mean_phi(np.ones(live.size))
    up = first > 1.0
    e = np.zeros(live.size, dtype=np.intp)
    lo_mean, hi_mean = first.copy(), first.copy()
    walk = np.flatnonzero(live)
    at, at_mean = np.zeros(walk.size, dtype=np.intp), first[walk]
    steps = np.arange(1, 9)
    lam = np.ones((live.size, steps.size))
    # A float64 walk up reaches 2^1024 = inf, where the mean is 0, and a
    # walk down reaches 2^-1075 = 0, where it is inf or NaN; both stop
    # by about 1,100 steps, so this guard cannot fire.
    for _ in range(250):
        if not walk.size:
            break
        sign = np.where(up[walk], 1, -1)[:, None]
        lam[walk] = np.ldexp(1.0, at[:, None] + sign * steps)
        block = mean_phi(lam)[walk]
        go = (block > 1.0) == up[walk, None]
        col = np.argmin(go, axis=1)
        rows = np.arange(walk.size)
        stop = ~go[rows, col]
        passed = np.where(col > 0, block[rows, col - 1], at_mean)[stop]
        stopped = block[rows, col][stop]
        done, rise, col = walk[stop], up[walk[stop]], col[stop]
        e[done] = np.where(rise, at[stop] + col + 1, at[stop] - col)
        lo_mean[done] = np.where(rise, passed, stopped)
        hi_mean[done] = np.where(rise, stopped, passed)
        lam[done] = 1.0
        walk, at = walk[~stop], at[~stop] + steps.size * sign[~stop, 0]
        at_mean = block[~stop, -1]
    else:
        raise ArithmeticError("no finite bracket for the gauge norm")
    return e, lo_mean, hi_mean


def _gauge_crossing(mean_phi, e, lo_mean, hi_mean, live):
    """log2 of each live cube's crossing of the mean through 1 in
    [2^(e-1), 2^e], to about _ROOT_TOL; e elsewhere.

    A secant on (log2 lam, log mean) through the last two points, kept
    inside the bracket, else a bisection of it; after _SECANT_ROUNDS
    rounds only bisections, so every cube ends.  A cube is done once the
    next secant step would be below _ROOT_TOL, and its estimate is that
    step's end, or once its bracket is that narrow.
    """
    x = e + 0.0
    todo = np.flatnonzero(live & (hi_mean != 1.0))
    a, b = x[todo] - 1.0, x[todo]
    with np.errstate(divide="ignore", invalid="ignore"):
        x0, y0 = a.copy(), np.log(lo_mean[todo])
        x1, y1 = b.copy(), np.log(hi_mean[todo])
        for rounds in range(100):
            if not todo.size:
                break
            mid = 0.5 * (a + b)
            if rounds < _SECANT_ROUNDS:
                t = x1 - y1 * (x1 - x0) / (y1 - y0)
                np.putmask(t, ~((t > a) & (t < b)), mid)
            else:
                t = mid
            x[todo] = t
            y = np.log(mean_phi(np.exp2(x))[todo])
            above = y > 0.0
            np.putmask(a, above, t)
            np.putmask(b, ~above, t)
            slope = y - y1
            step = y * (t - x1) / slope
            x0, y0, x1, y1 = x1, y1, t, y
            # a step past an infinite log mean reads 0 but says nothing
            done = ((np.abs(step) <= _ROOT_TOL) & np.isfinite(slope)
                    | (b - a <= _ROOT_TOL))
            if np.count_nonzero(done):
                x[todo[done]] = np.fmin(np.fmax(t - step, a), b)[done]
                keep = ~done
                todo, a, b, x0, y0, x1, y1 = (
                    v[keep] for v in (todo, a, b, x0, y0, x1, y1))
    x[todo] = 0.5 * (a + b)
    return x


def _gauge_on_grid(mean_phi, e, root, refine):
    """The lockstep bisection's answer on [2^(e-1), 2^e] for the cubes
    in refine, read off its grid around the crossing estimate root."""
    # Point j of the bisection's depth-34 grid is (2^34 + j) * 2^(e - 35);
    # the depth-33 grid is its even points.
    shift = e - 35
    j = np.floor(np.ldexp(np.exp2(root), -shift) - _GRID)
    j = np.where(refine, np.clip(j, 0.0, _GRID - 1.0), 0.0)
    # Move the pair (j, j + 1) a grid step at a time until the mean is
    # above 1 at j and at most 1 at j + 1, as it is at j = 0 and at
    # j + 1 = 2^34.  A converged estimate is within a step of that pair,
    # so the walk ends at once or after a step or two.
    pair = np.array([0.0, 1.0])
    for _ in range(64):
        below = mean_phi(np.ldexp(_GRID + j[:, None] + pair,
                                  shift[:, None])) <= 1.0
        move = np.where(below[:, 0], -1.0, np.where(below[:, 1], 0.0, 1.0))
        move[~refine] = 0.0
        if not move.any():
            break
        j += move
    else:
        raise ArithmeticError("gauge crossing estimate off the grid")
    # j + 1 is the depth-34 answer; the stop rule ends at depth 33 when
    # the depth-33 bracket above it is already narrow enough
    first = j + 1.0
    upper = first + first % 2.0
    at33 = np.ldexp(_GRID + upper, shift)
    stop33 = at33 - np.ldexp(_GRID + upper - 2.0, shift) <= 1e-10 * at33
    return np.where(stop33, at33, np.ldexp(_GRID + first, shift))


# -- weight presets ----------------------------------------------------------

def make_weight(space: DiscreteSpace, spec: str) -> np.ndarray:
    """Named weight families: const, step, power:a, random:seed."""
    n = space.n
    if spec == "const":
        return np.ones(n)
    if spec == "step":
        w = np.ones(n)
        w[n // 2:] = 2.0
        return w
    if spec.startswith("power:"):
        a = float(spec.split(":", 1)[1])
        return ((np.arange(n) + 1.0) / n) ** a
    if spec.startswith("random:"):
        seed = int(spec.split(":", 1)[1])
        return np.exp(np.random.default_rng(seed).uniform(-1.0, 1.0, size=n))
    raise ValueError(f"unknown weight preset: {spec}")
