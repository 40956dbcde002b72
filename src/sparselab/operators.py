"""Sparse forms, maximal functions, and fractional integrals.

Every operator evaluates pointwise on the whole space and returns a
length-n array.  The basic and oscillation sparse forms can also take
one argument slot as an (n, B) block of B input columns and return one
result column per input column; the fractional integral takes blocks of
argument columns and evaluates only the rows a caller reads, and the
local truncated grand maximal takes (T, n) argument blocks, walking its
balls once for all T rows.  Sparse forms run over the cubes of a
sparse family; maximal functions run over lattice cubes or metric balls;
the fractional integral sums the multilinear ball-mass kernel in one of
three bodies: the linear product, the bilinear class table its rows
share, or a per-row fold onto the row's distinct kernel values.
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
# the sorted distinct kernel values of each space the m = 2 fractional
# integral has run on, or None where there are more than n of them
_KERNEL_VALUES = weakref.WeakKeyDictionary()
# rows per aligned block of the m = 2 class table
_TABLE_ROWS = 8
# kernel entries per block of ball_mass_kernel rows
_KERNEL_BLOCK = 1 << 14
# (centers, n) entries per block of centers whose balls are walked at once
_BALL_BLOCK = 1 << 13
# (T, rows, outer) entries per block of the m = 1 grand maximal's sums
_VALUE_BLOCK = 1 << 15


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
    prod = lattice.mass ** eta
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
    coeffs = lat.mass ** (eta / r)
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
    coeffs = lat.mass ** (eta / r)
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
    vals = lattice.mass ** eta
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

def _sorted_rows(space: DiscreteSpace, centers):
    """The row orders of a block of centers, their sorted distances, and
    ends[b, p], true where position p is the last member of its ball:
    where the sorted distance rises, and at the last point."""
    order = space._row_orders(centers)
    ds = np.take_along_axis(space.distances(centers), order, axis=1)
    ends = np.ones(order.shape, dtype=bool)
    ends[:, :-1] = ds[:, 1:] > ds[:, :-1]
    return order, ds, ends


def fractional_maximal(space: DiscreteSpace, fs,
                       eta: float = 0.0) -> np.ndarray:
    """sup over the balls B centered at x, every realized radius
    including zero, of mu(B)^(eta - m) prod_i int_B |f_i| dmu.

    Runs for a block of about _BALL_BLOCK (centers, n) entries at once:
    the prefix sums along each center's row order hold every ball's
    mass and integrals, read at the ball ends."""
    fs = _as_arrays(fs, space.n)
    n, m = space.n, len(fs)
    fm = [np.abs(f) * space.masses for f in fs]
    out = np.empty(n)
    step = max(1, _BALL_BLOCK // n)
    for lo in range(0, n, step):
        cen = np.arange(lo, min(lo + step, n))
        order, _, ends = _sorted_rows(space, cen)
        vals = np.cumsum(space.masses[order], axis=1) ** (eta - m)
        for f in fm:
            vals *= np.cumsum(f[order], axis=1)
        out[cen] = vals.max(axis=1, where=ends, initial=-np.inf)
    return out


# -- fractional integral and commutators -------------------------------------

def ball_mass_kernel(space: DiscreteSpace) -> np.ndarray:
    """K[x, y] = mu of the closed ball around x through y.

    Filled in aligned blocks of rows, each one block-form ball_mass call
    on its centers' distance rows, with about _KERNEL_BLOCK entries per
    block so the call's temporaries stay small.  Built once per space
    and kept, read-only, until the space is freed.
    """
    K = _KERNELS.get(space)
    if K is None:
        n = space.n
        K = np.empty((n, n))
        rows = max(1, _KERNEL_BLOCK // n)
        for lo in range(0, n, rows):
            block = np.arange(lo, min(lo + rows, n))
            K[lo:lo + rows] = space.ball_mass(block, space.distances(block))
        K.flags.writeable = False
        _KERNELS[space] = K
    return K


def _kernel_values(space: DiscreteSpace):
    """The sorted distinct values of K, kept until the space is freed;
    None when there are more than n of them."""
    if space not in _KERNEL_VALUES:
        vals = np.unique(ball_mass_kernel(space))
        vals.flags.writeable = False
        _KERNEL_VALUES[space] = vals if len(vals) <= space.n else None
    return _KERNEL_VALUES[space]


def _class_table_integral(K, vals, u, v, want, expo, out):
    """m = 2 on the class table (see fractional_integral): u and v are
    (width, n) weighted columns; fills out on every row block that holds
    a wanted entry of a column."""
    n, size = len(K), len(vals)
    table = vals[:, None] + vals
    table **= expo
    rows = _TABLE_ROWS
    chunk = max(1, (1 << 14) // (rows * n))  # 128 KiB arrays
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        cols = np.flatnonzero(want[lo:hi].any(axis=0))
        if not cols.size:
            continue
        cls = np.searchsorted(vals, K[lo:hi])
        for c0 in range(0, len(cols), chunk):
            cc = cols[c0:c0 + chunk]
            # bin (c, r, d): column c, row lo + r, class d; a short
            # last block keeps zero rows, so every product has one shape
            bins = (cls + (np.arange(len(cc))[:, None, None] * rows
                           + np.arange(hi - lo)[:, None]) * size).ravel()
            U, V = (np.bincount(bins, np.repeat(a[cc], hi - lo, axis=0)
                                .ravel(), len(cc) * rows * size)
                    .reshape(len(cc), rows, size) for a in (u, v))
            UH = U @ table  # one fixed-shape product per column
            UH *= V
            out[lo:hi, cc] = UH.sum(axis=2)[:, :hi - lo].T


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
    columns asked for, by one of three bodies.  m = 1 takes the full
    product of the kernel power with the column.  m = 2 runs on a class
    table when K has at most n distinct values v_d, as on every grid:
    the rows share the powers H = (v_d + v_e)^(eta-2), and row x of
    column (w_1, w_2) is U_x @ H @ V_x, where U_x[d] sums w_1 over the
    points y with K[x, y] = v_d.  A value is computed with its whole
    aligned block of _TABLE_ROWS rows, one fixed-shape
    (_TABLE_ROWS, D) @ H product per block and column.  Every other
    entry, m = 2 on other spaces and m = 3 everywhere, is a per-row class
    fold, as the kernel sees each y_i only through K[x, y_i]: each slot's
    column is summed per distinct value k_d of K[x], the leading slots
    are folded onto their distinct value sums s_p (slot 1's values for
    m = 2, the pair sums of slots 1 and 2 for m = 3), and the row's
    columns share the powers (s_p + k_d)^(eta-m) of the last slot, built
    a bounded block of values d at a time.
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
    elif m == 2 and (kvals := _kernel_values(space)) is not None:
        _class_table_integral(K, kvals, *ws, want, expo, out)
    else:
        for x in np.flatnonzero(want.any(axis=1)):
            cols = np.flatnonzero(want[x])
            vals, cls = np.unique(K[x], return_inverse=True)
            folded = [[np.bincount(cls, a, len(vals)) for a in columns[b]]
                      for b in cols]
            # fold the leading slots onto their distinct value sums s_p
            sums, heads = vals, [f[0] for f in folded]
            for i in range(1, m - 1):
                sums, pcls = np.unique(sums[:, None] + vals,
                                       return_inverse=True)
                heads = [np.bincount(pcls.ravel(), np.outer(h, f[i]).ravel(),
                                     len(sums))
                         for h, f in zip(heads, folded)]
            step = max(1, (1 << 16) // len(sums))  # 512 KiB power blocks
            for lo in range(0, len(vals), step):
                grid = sums[:, None] + vals[lo:lo + step]
                grid **= expo
                for b, h, f in zip(cols, heads, folded):
                    out[x, b] += h @ grid @ f[-1][lo:lo + step]
    out[~want] = 0.0
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

def _live_balls(space: DiscreteSpace, base, outer, dilation: float):
    """The balls the grand maximal keeps around each base center, in
    blocks of about _BALL_BLOCK (centers, n) entries, centers in point
    order.  Yields (centers, order, level, cuts, count): order holds
    the centers' row orders, level[b, z] is the ball level of point z
    around centers[b] (0 for the center, j for the points ball j adds),
    count[b] is the number of live balls, 1 to count[b], and cuts[b, j]
    is dilation times the radius of ball j.
    A ball is live when it lies inside the base ball and its cut-off
    set, the outer points past dilation times its radius, is not empty;
    both fail for good once the radius grows, so the live balls are a
    prefix of the positive radii."""
    centers = np.flatnonzero(base)
    step = max(1, _BALL_BLOCK // space.n)
    for lo in range(0, len(centers), step):
        cen = centers[lo:lo + step]
        order, level, cuts, count = _ball_levels(space, cen, base, outer,
                                                 dilation)
        if count.any():
            yield cen, order, level, cuts, count


def _ball_levels(space: DiscreteSpace, cen, base, outer, dilation: float):
    """order, level, cuts and count of _live_balls for one block; a
    function of its own, so its temporaries are freed before the walk
    yields."""
    order, ds, ends = _sorted_rows(space, cen)
    levels = np.zeros(order.shape, dtype=np.intp)
    np.cumsum(ends[:, :-1], axis=1, out=levels[:, 1:])
    reach = np.where(outer[order], ds, -np.inf).max(axis=1)
    # a ball is live when ok holds at its last member: every point up
    # to it lies in the base ball, and dilation times its distance
    # stays below the farthest outer point; position 0 is the center,
    # level 0, which is no ball
    ok = np.logical_and.accumulate(
        base[order] & (dilation * ds < reach[:, None]), axis=1)
    count = np.count_nonzero((ok & ends)[:, 1:], axis=1)
    radii = np.zeros(order.shape)
    np.put_along_axis(radii, levels, ds, axis=1)
    level = np.empty_like(levels)
    np.put_along_axis(level, order, levels, axis=1)
    return order, level, dilation * radii[:, :count.max() + 1], count


def _level_peaks(space: DiscreteSpace, balls, w, outer, expo: float, out):
    """m = 1 grand maximal on one block of _live_balls: maxes into out
    the peak of every live ball around the block's centers, spread to
    its members; w holds the (T, n) weighted argument rows."""
    cen, order, level, cuts, count = balls
    K = ball_mass_kernel(space).ravel()
    n, width, size, top = space.n, len(w), np.count_nonzero(outer), \
        cuts.shape[1] - 1
    # every center's outer points, farthest first: ball j keeps the
    # first kept[b, j] of them
    desc = order[:, ::-1]
    zs = desc[outer[desc]].reshape(len(cen), size)
    kept = size - np.take_along_axis(np.cumsum(outer[order], axis=1),
                                     space._ball_last(cen, order, cuts),
                                     axis=1)
    # level segments, largest ball first: segment i runs from bounds[i]
    # to bounds[i + 1], so balls top - i and up keep it; balls past
    # count[b] keep nothing, and their segments are empty
    j = np.arange(top + 1)
    kept[j > count[:, None]] = 0
    bounds = np.concatenate([np.zeros((len(cen), 1), np.intp),
                             kept[:, :0:-1]], axis=1)
    empty = np.append(bounds[:, 1:] == bounds[:, :-1],
                      np.ones((len(cen), 1), bool), axis=1)
    # one row per (center, member of its largest live ball)
    rb, x = np.nonzero(level <= np.where(count > 0, count, -1)[:, None])
    lv = np.maximum(level[rb, x], 1)  # the center is in every ball
    peak = np.zeros((width, len(cen), top + 1))
    step = max(1, _VALUE_BLOCK // (width * max(size, top + 1)))
    for lo in range(0, len(rb), step):
        b, r = rb[lo:lo + step], slice(lo, lo + step)
        cols = zs[b]
        # terms[t, row, k]: K[x, z]^(eta-1) w_t(z) for the row's k-th
        # farthest outer point z, and one spare 0 that ends the last row
        terms = np.zeros(width * len(b) * size + 1)
        rows = terms[:-1].reshape(width, len(b), size)
        np.take(w, cols, axis=1, out=rows)
        cols += x[r, None] * n
        power = np.take(K, cols)
        power **= expo
        rows *= power
        del cols, power  # freed before the sums and the next block
        # each segment is one sum over its own points, whatever the
        # block; the segments add up from the largest ball down
        starts = (np.arange(width * len(b)) * size).reshape(width, -1, 1) \
            + bounds[b]
        sums = np.add.reduceat(terms, starts.ravel()).reshape(starts.shape)
        sums[:, empty[b]] = 0.0
        vals = np.abs(np.cumsum(sums, axis=2)[:, :, ::-1])
        vals[:, j < lv[r, None]] = 0.0  # balls too small to hold the row
        first = np.flatnonzero(np.append(True, b[1:] != b[:-1]))
        peak[:, b[first]] = np.maximum(
            peak[:, b[first]], np.maximum.reduceat(vals, first, axis=1))
    # a member of level l lies in balls l and up: the running max from
    # the largest ball down gives it its peak
    peak = np.maximum.accumulate(peak[:, :, ::-1], axis=2)[:, :, ::-1]
    np.maximum.at(out, (slice(None), x), peak[:, rb, lv])


def _ball_columns(space: DiscreteSpace, walk, outer):
    """(held, keep) of every ball of a _live_balls walk, centers in
    point order and each center's balls smallest first: held[z, c] when
    ball c holds point z, keep[c, z] when its cut-off set does; None
    when no ball is live."""
    held, keep = [], []
    for cen, _, level, cuts, count in walk:
        d = space.distances(cen)
        b = np.repeat(np.arange(len(count)), count)
        j = np.arange(len(b)) + 1 - np.repeat(np.cumsum(count) - count,
                                              count)
        held.append((level[b] <= j[:, None]).T)
        keep.append(outer & (d[b] > cuts[b, j][:, None]))
    if held:
        return np.concatenate(held, axis=1), np.concatenate(keep)
    return None


def truncated_grand_maximal_local(space: DiscreteSpace, fs, eta: float,
                                  dilation: float, base_center: int,
                                  base_radius: float) -> np.ndarray:
    """sup over balls B inside the base ball B0 containing x of the max
    over B of the fractional integral of the arguments cut to
    dilation*B0 minus dilation*B.

    The arguments are all (n,) columns, giving an (n,) result, or all
    (T, n) blocks, giving a (T, n) result whose row t is the call on row
    t of every block.  The balls are walked for blocks of base centers
    at once (_live_balls), with no loop per center.

    For m = 1 the cut-off sets around one center y are nested: point z
    is kept by the first l(y, z) balls, l(y, z) = #{j : dilation r_j <
    d(y, z)}.  With the outer points taken farthest from y first, ball
    j keeps a prefix of them, which splits into level segments: the
    points kept by balls j and up but not j + 1.  Ball j's value at a
    member x is then the sum, from the largest ball down to j, of the
    segment sums of K[x, z]^(eta-1) f(z) mu(z).  Each segment sum runs
    over its own points only (np.add.reduceat) and the segments add in
    one order, so a value depends only on its center, ball and row,
    never on the blocks, which hold about _VALUE_BLOCK (T, rows, outer)
    entries; no n x n kernel power and no product per ball is built.
    A running max from the largest ball down spreads each ball's peak
    to its members, and a scatter-max combines the centers.

    For m >= 2 each (center, radius) ball is one column: its cut-off
    arguments, read on its own members by one fractional_integral call
    per block row."""
    fs = _as_blocks(fs, space.n)
    base = np.zeros(space.n, dtype=bool)
    base[space.ball(base_center, base_radius).members] = True
    outer = space.distances(base_center) <= dilation * base_radius
    blocks = [np.atleast_2d(f) for f in fs]
    out = np.zeros(blocks[0].shape)
    walk = _live_balls(space, base, outer, dilation)
    if len(fs) == 1:
        w = blocks[0] * space.masses
        for balls in walk:
            _level_peaks(space, balls, w, outer, eta - 1.0, out)
    elif (columns := _ball_columns(space, walk, outer)) is not None:
        held, keep = columns
        for t, row in enumerate(zip(*blocks)):
            peaks = np.abs(fractional_integral(
                space, [f * keep for f in row], eta, rows=held)).max(axis=0)
            out[t] = np.where(held, peaks, 0.0).max(axis=1)
    return out if fs[0].ndim == 2 else out[0]
