"""Sparse forms, maximal functions, and fractional integrals.

Every operator evaluates pointwise on the whole space and returns a
length-n array.  The basic and oscillation sparse forms can also take
one argument slot as an (n, B) block of B input columns and return one
result column per input column; the fractional integral takes blocks of
argument columns and evaluates only the rows a caller reads, and the
local truncated grand maximal takes (T, n) argument blocks, walking its
balls once for all T rows.  Sparse forms run over the cubes of a
sparse family; maximal functions run over lattice cubes or metric balls;
the fractional integral sums the multilinear ball-mass kernel.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicLattice, SparseFamily
from .space import DiscreteSpace
from .weights import luxemburg_norm, young_llogl

# ball_mass_kernel's per-space cache; an entry is freed with its space
_KERNELS = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class MultiIndexPair:
    """Oscillation orders per slot: outer power k_i, inner split t_i.

    tau lists the slots carrying pointwise oscillation factors,
    tau_ell the (super)set of slots carrying a symbol at all.  Indices
    are 0-based.
    """

    k: tuple
    t: tuple
    tau: tuple
    tau_ell: tuple

    def __post_init__(self):
        k = tuple(int(v) for v in self.k)
        t = tuple(int(v) for v in self.t)
        tau = tuple(sorted(int(v) for v in self.tau))
        tau_ell = tuple(sorted(int(v) for v in self.tau_ell))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "tau_ell", tau_ell)
        if len(t) != len(k):
            raise ValueError("k and t must have equal length")
        if any(v < 0 for v in k):
            raise ValueError("orders k_i must be nonnegative")
        if any(not 0 <= ti <= ki for ti, ki in zip(t, k)):
            raise ValueError("need 0 <= t_i <= k_i in every slot")
        if not set(tau) <= set(tau_ell):
            raise ValueError("tau must be contained in tau_ell")
        m = len(k)
        if any(not 0 <= i < m for i in tau_ell):
            raise ValueError("slot indices out of range")

    @property
    def m(self) -> int:
        return len(self.k)


def _as_arrays(fs, n):
    out = []
    for f in fs:
        a = np.asarray(f, dtype=np.float64)
        if a.shape != (n,):
            raise ValueError("argument must assign one value per point")
        out.append(a)
    return out


def _as_blocks(fs, n):
    """Arguments as float arrays of one shared shape, (n,) or (B, n)."""
    fs = [np.asarray(f, dtype=np.float64) for f in fs]
    if not fs or fs[0].ndim not in (1, 2) or fs[0].shape[-1] != n or \
            any(f.shape != fs[0].shape for f in fs):
        raise ValueError("arguments must share one shape, (n,) or (B, n)")
    return fs


# -- sparse forms ------------------------------------------------------------
# Coefficients are computed for every cube of the family's lattice at
# once and indexed by cube id; SparseFamily.pointwise keeps the listed
# cubes and spreads them back onto points.  A slot given as an (n, B)
# block rides through the cube statistics as a trailing column axis, so
# the coefficients are (cubes, B) and the result (n, B); column b equals
# the call with column b in that slot bit for bit.

def _as_slots(fs, n):
    """Arguments as (n,) arrays, except at most one slot given as an
    (n, B) block, returned as the (1, n, B) cube_sums block."""
    out = []
    for f in fs:
        a = np.asarray(f, dtype=np.float64)
        if a.ndim == 2 and a.shape[0] == n:
            a = a[None]
        elif a.shape != (n,):
            raise ValueError("argument must assign one value per point, "
                             "or be one (n, B) block of columns")
        out.append(a)
    if sum(a.ndim == 3 for a in out) > 1:
        raise ValueError("at most one slot may be an (n, B) block")
    return out


def _cube_times(a, b):
    """a * b for per-cube values shaped (cubes,) or (cubes, B); a
    (cubes,) operand is read as one column against a block."""
    if a.ndim < b.ndim:
        a = a[:, None]
    elif b.ndim < a.ndim:
        b = b[:, None]
    return a * b


def _r_averages(lattice: DyadicLattice, g, r: float) -> np.ndarray:
    """<|g|^r>_Q^(1/r) for every cube; g shaped as a cube_sums input,
    so a 3-D block gives (cubes, B)."""
    return lattice.cube_means(np.abs(g) ** r) ** (1.0 / r)


def sparse_coefficients(lattice: DyadicLattice, fs, eta: float = 0.0,
                        p0: float = 1.0, gamma: float = 1.0) -> np.ndarray:
    """[mu(Q)^eta prod_i <f_i>_{Q,p0}]^gamma for every cube, by cube id;
    (cubes, B) when one slot is an (n, B) block."""
    prod = lattice.cube_masses ** eta
    for f in _as_slots(fs, lattice.space.n):
        prod = _cube_times(prod, _r_averages(lattice, f, p0))
    return prod ** gamma


def sparse_operator(family: SparseFamily, fs, eta: float = 0.0,
                    p0: float = 1.0, gamma: float = 1.0) -> np.ndarray:
    """Basic form: (sum_Q [mu(Q)^eta prod_i <f_i>_{Q,p0}]^gamma 1_Q)^(1/gamma).

    One slot may be an (n, B) block; the result is then (n, B)."""
    coeffs = sparse_coefficients(family.lattice, fs, eta, p0, gamma)
    return family.pointwise(coeffs) ** (1.0 / gamma)


def sparse_first_order(family: SparseFamily, fs, symbols, tau, tau_ell,
                       eta: float = 0.0, r: float = 1.0) -> np.ndarray:
    """First-order oscillation form.

    Slots in tau carry |b_i(x) - <b_i>_Q| outside the average, slots in
    tau_ell minus tau carry the oscillation inside the average, the
    rest enter through plain r-averages: the higher-order form with
    k_i = 1 on tau_ell, t_i = 0 on tau and t_i = 1 on the rest of tau_ell.
    One argument slot may be an (n, B) block, as there.
    """
    tau, tau_ell = set(tau), set(tau_ell)
    if not tau <= tau_ell:
        raise ValueError("tau must be contained in tau_ell")
    m = len(fs)
    k = [int(i in tau_ell) for i in range(m)]
    t = [int(i in tau_ell - tau) for i in range(m)]
    pair = MultiIndexPair(k, t, tuple(tau_ell), tuple(tau_ell))
    return sparse_higher_order(family, fs, symbols, pair, eta=eta, r=r)


def sparse_higher_order(family: SparseFamily, fs, symbols,
                        pair: MultiIndexPair, eta: float = 0.0,
                        r: float = 1.0) -> np.ndarray:
    """Higher-order form with split oscillation powers.

    Slots in pair.tau contribute |b_i(x) - <b_i>_Q|^(k_i - t_i) times
    the r-average of |f_i (b_i - <b_i>_Q)^t_i|; every other slot enters
    through a plain r-average.  One argument slot may be an (n, B)
    block; the result is then (n, B).  Symbols stay (n,).
    """
    lat = family.lattice
    fs = _as_slots(fs, lat.space.n)
    symbols = _as_arrays(symbols, lat.space.n)
    devs = {i: lat.deviations(symbols[i]) for i in pair.tau}
    coeffs = lat.cube_masses ** (eta / r)
    for i, f in enumerate(fs):
        if i in pair.tau:
            osc = devs[i] ** pair.t[i]
            f = f * (osc[..., None] if f.ndim == 3 else osc)
        coeffs = _cube_times(coeffs, _r_averages(lat, f, r))
    factor = 1.0
    for i in pair.tau:
        factor = factor * np.abs(devs[i]) ** (pair.k[i] - pair.t[i])
    return family.pointwise(coeffs, factor)


def sparse_endpoint(family: SparseFamily, fs, tau, eta: float = 0.0,
                    r: float = 1.0, symbols=None, osc_slots=(),
                    scales=None) -> np.ndarray:
    """Endpoint form: slots in tau enter through plain r-averages, the
    rest through the L(logL)^r gauge norm of |f|^r, taken to the power
    1/r and times scales[i] (default 1).  Each slot in osc_slots, a
    subset of tau, multiplies the sum's terms by the oscillation
    |b_i(x) - <b_i>_Q| of its symbol."""
    lat = family.lattice
    fs = _as_arrays(fs, lat.space.n)
    tau = set(tau)
    osc_slots = sorted(set(osc_slots))
    if not tau.issuperset(osc_slots):
        raise ValueError("oscillation slots must lie inside tau")
    if scales is None:
        scales = [1.0] * len(fs)
    phi = young_llogl(r)
    coeffs = lat.cube_masses ** (eta / r)
    for i, f in enumerate(fs):
        if i in tau:
            coeffs = coeffs * _r_averages(lat, f, r)
        else:
            gauge = luxemburg_norm(lat, np.abs(f) ** r, phi)
            coeffs = coeffs * (scales[i] * gauge ** (1.0 / r))
    factor = 1.0
    for i in osc_slots:
        factor = factor * np.abs(lat.deviations(symbols[i]))
    return family.pointwise(coeffs, factor)


# -- lattice maximal functions -----------------------------------------------
# sup over the cubes containing x: per-cube values gathered onto points,
# maxed over generations.

def dyadic_maximal(lattice: DyadicLattice, f, weight=None) -> np.ndarray:
    """sup over cubes containing x of the (weight-)average of |f|."""
    absf = np.abs(np.asarray(f, dtype=np.float64))
    if weight is None:
        means = lattice.cube_means(absf)
    else:
        w = np.asarray(weight, dtype=np.float64)
        means = lattice.cube_sums(absf * w) / lattice.cube_sums(w)
    return means[lattice.point_to_cube].max(axis=0)


def orlicz_maximal(lattice: DyadicLattice, fs, phis,
                   eta: float = 0.0) -> np.ndarray:
    """sup over cubes of mu(Q)^eta prod_i of gauge norms of f_i."""
    fs = _as_arrays(fs, lattice.space.n)
    if len(phis) != len(fs):
        raise ValueError("one gauge per argument required")
    vals = lattice.cube_masses ** eta
    for f, phi in zip(fs, phis):
        vals = vals * luxemburg_norm(lattice, f, phi)
    return vals[lattice.point_to_cube].max(axis=0)


def sharp_maximal_dyadic(lattice: DyadicLattice, f,
                         delta: float | None = None) -> np.ndarray:
    """Mean-oscillation maximal; with delta the |f|^delta variant."""
    if delta is not None:
        base = sharp_maximal_dyadic(lattice,
                                    np.abs(np.asarray(f)) ** delta)
        return base ** (1.0 / delta)
    osc = lattice.cube_means(np.abs(lattice.deviations(f)))
    return osc[lattice.point_to_cube].max(axis=0)


def power_maximal_dyadic(lattice: DyadicLattice, f,
                         delta: float) -> np.ndarray:
    return dyadic_maximal(lattice, np.abs(np.asarray(f)) ** delta) \
        ** (1.0 / delta)


# -- ball maximal functions --------------------------------------------------

def fractional_maximal(space: DiscreteSpace, fs,
                       eta: float = 0.0) -> np.ndarray:
    """sup over the balls B centered at x, every realized radius
    including zero, of mu(B)^(eta - m) prod_i int_B |f_i| dmu."""
    fs = _as_arrays(fs, space.n)
    m = len(fs)
    fm = [np.abs(f) * space.masses for f in fs]
    out = np.zeros(space.n)
    for y in range(space.n):
        order, radii, ends = space.balls(y)
        vals = space.ball_mass(y, radii) ** (eta - m)
        for f in fm:
            vals = vals * np.cumsum(f[order])[ends - 1]
        out[y] = float(vals.max())
    return out


# -- fractional integral and commutators -------------------------------------

def ball_mass_kernel(space: DiscreteSpace) -> np.ndarray:
    """K[x, y] = mu of the closed ball around x through y.

    Built once per space and kept, read-only, until the space is freed.
    """
    K = _KERNELS.get(space)
    if K is None:
        K = np.empty((space.n, space.n))
        for x in range(space.n):
            K[x] = space.ball_mass(x, space.distances(x))
        K.flags.writeable = False
        _KERNELS[space] = K
    return K


def fractional_integral(space: DiscreteSpace, fs, eta: float,
                        rows=None) -> np.ndarray:
    """Multilinear sum of (sum_i mu B(x, d(x,y_i)))^(eta-m) prod f_i(y_i).

    Signed arguments are allowed; supports m in {1, 2, 3}.  The
    arguments are all single (n,) columns or all (B, n) blocks of B
    columns, and the result then carries one column per block row.
    rows picks what is evaluated: None for every entry, or a boolean
    mask of the result's shape, which evaluates the masked entries and
    leaves the rest 0.

    Every value is summed in one fixed order, whatever the rows and
    columns asked for: m = 1 takes the full product of the kernel power
    with the column, m = 2 contracts each row's power grid G with the
    column as w_1 @ G @ w_2.  m = 3 folds row x onto the distinct values
    k_d of K[x], as points of one value are interchangeable in every
    slot: each slot's column is summed per value, slots 1 and 2 per
    distinct pair sum s_p, and the row's columns share the powers
    (s_p + k_d)^(eta-3), built a bounded block of values d at a time.
    """
    n = space.n
    m = len(fs)
    if not 1 <= m <= 3:
        raise ValueError("fractional integral supports 1 to 3 arguments")
    fs = _as_blocks(fs, n)
    batched = fs[0].ndim == 2
    ws = [np.atleast_2d(f * space.masses) for f in fs]
    width = ws[0].shape[0]
    shape = (n, width) if batched else (n,)
    if rows is None:
        want = np.ones((n, width), dtype=bool)
    elif np.asarray(rows).dtype == bool and np.shape(rows) == shape:
        want = np.asarray(rows).reshape(n, width)
    else:
        raise ValueError("rows must be None or a boolean mask of the "
                         "result's shape")
    K = ball_mass_kernel(space)
    expo = eta - m
    out = np.zeros((n, width))
    columns = list(zip(*ws))  # column b: row b of every block
    if m == 1:
        power = K ** expo
        for b, (w,) in enumerate(columns):
            out[:, b] = power @ w
        out[~want] = 0.0
    else:
        # the wanted (row, column) entries, row by row
        xs, bs = np.nonzero(want)
        cuts = np.flatnonzero(np.diff(xs, prepend=-1, append=n)).tolist()
        bs = bs.tolist()
        for lo, hi in zip(cuts, cuts[1:]):
            x = xs[lo]
            kx = K[x]
            cols = bs[lo:hi]
            if m == 2:
                pair = kx[:, None] + kx[None, :]
                pair **= expo  # the power grid, built in place
                for b in cols:
                    u, v = columns[b]
                    out[x, b] = u @ pair @ v
                continue
            vals, cls = np.unique(kx, return_inverse=True)
            sums, pcls = np.unique(vals[:, None] + vals, return_inverse=True)
            folded = [[np.bincount(cls, a, len(vals)) for a in columns[b]]
                      for b in cols]
            pairs = [np.bincount(pcls.ravel(), np.outer(u, v).ravel(),
                                 len(sums)) for u, v, _ in folded]
            step = max(1, (1 << 16) // len(sums))  # 512 KiB power blocks
            for lo3 in range(0, len(vals), step):
                grid = sums[:, None] + vals[lo3:lo3 + step]
                grid **= expo
                for b, pw, (_, _, w) in zip(cols, pairs, folded):
                    out[x, b] += pw @ grid @ w[lo3:lo3 + step]
    return out if batched else out[..., 0]


def commutator_integral(space: DiscreteSpace, fs, symbols, powers,
                        eta: float) -> np.ndarray:
    """Signed oscillation commutator of the fractional integral.

    Slot i carries (b_i(x) - b_i(y_i))^powers[i]; power 0 leaves the
    slot untouched.  Evaluated exactly through binomial expansion into
    plain fractional integrals.
    """
    n = space.n
    fs = _as_arrays(fs, n)
    symbols = _as_arrays(symbols, n)
    powers = [int(v) for v in powers]
    if len(powers) != len(fs) or len(symbols) != len(fs):
        raise ValueError("one symbol and one power per slot required")
    if any(v < 0 for v in powers):
        raise ValueError("powers must be nonnegative")
    terms = []
    mods = [[] for _ in fs]
    for jvec in itertools.product(*[range(b + 1) for b in powers]):
        scale = 1.0
        outer = np.ones(n)
        for i, (b, j) in enumerate(zip(powers, jvec)):
            scale *= math.comb(b, j) * (-1.0) ** j
            if b - j:
                outer = outer * symbols[i] ** (b - j)
            mods[i].append(fs[i] * symbols[i] ** j if j else fs[i])
        terms.append((scale, outer))
    # one batched call: term t is column t of every slot's block
    vals = fractional_integral(space, [np.array(col) for col in mods], eta)
    out = np.zeros(n)
    for t, (scale, outer) in enumerate(terms):
        out += scale * outer * vals[:, t]
    return out


# -- truncated grand maximal -------------------------------------------------

def truncated_grand_maximal_local(space: DiscreteSpace, fs, eta: float,
                                  dilation: float, base_center: int,
                                  base_radius: float) -> np.ndarray:
    """sup over balls B inside the base ball B0 containing x of the max
    over B of the fractional integral of the arguments cut to
    dilation*B0 minus dilation*B.

    The arguments are all (n,) columns, giving an (n,) result, or all
    (T, n) blocks, giving a (T, n) result whose row t is the call on row
    t of every block.  A ball leaves B0, and its cut-off set empties,
    for good once the radius grows past some value, so the balls that
    count around each center are a prefix of its positive radii."""
    fs = _as_blocks(fs, space.n)
    base = np.zeros(space.n, dtype=bool)
    base[space.ball(base_center, base_radius).members] = True
    outer = space.distances(base_center) <= dilation * base_radius
    keeps, balls = [], []
    for y in np.flatnonzero(base):
        order, radii, ends = space.balls(y)
        d = space.distances(y)
        inside = np.logical_and.accumulate(base[order])[ends[1:] - 1]
        reach = d[outer].max(initial=-np.inf)
        live = np.logical_and.accumulate(
            inside & (dilation * radii[1:] < reach))
        for j in range(1, 1 + int(np.count_nonzero(live))):
            balls.append(order[:ends[j]])
            keeps.append(outer & (d > dilation * radii[j]))
    out = np.zeros(np.atleast_2d(fs[0]).shape)
    if balls:
        # column b is one (center, radius) ball: its cut-off arguments,
        # read on its own members only; one kernel call per block row
        held = np.zeros((space.n, len(balls)), dtype=bool)
        for b, ball in enumerate(balls):
            held[ball, b] = True
        keep = np.array(keeps)
        del keeps, balls  # freed, so they do not raise the calls' peak
        for t, row in enumerate(zip(*map(np.atleast_2d, fs))):
            peaks = np.abs(fractional_integral(
                space, [f * keep for f in row], eta, rows=held)).max(axis=0)
            out[t] = np.where(held, peaks, 0.0).max(axis=1)
    return out if fs[0].ndim == 2 else out[0]
