"""Stopping-time construction of sparse domination certificates.

The construction walks one dyadic lattice downward from a root cube.
At each node it calibrates a threshold multiplier alpha so that the bad
set (points where either the pointwise product of oscillation-modified
arguments or a local truncated grand maximal exceeds alpha times its
enlarged-ball reference level) occupies at most 1/(4 C_mu0) of the
node.  Maximal subcubes charged by the bad set become the next nodes;
what each node keeps is its sparse witness.  The emitted family is
audited against its declared sparseness and against the pointwise
domination it certifies.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import (
    AdjacentSystems,
    SparseFamily,
    WitnessSelectionError,
    _adjacent_covers,
    adjacent_cover,
    select_witnesses,
    verify_sparse,
)
from .operators import (
    MultiIndexPair,
    _as_arrays,
    commutator_integral,
    sparse_higher_order,
    truncated_grand_maximal_local,
)
from .space import DiscreteSpace
from .weights import avg

ALPHA_FACTOR_CAP = 2.0 ** 20
SPARSENESS = 0.5


class DominationError(RuntimeError):
    def __init__(self, message, cube_id=None):
        super().__init__(message)
        self.cube_id = cube_id


# -- stopping-time constants ------------------------------------------------

def _stopping_exponents(space: DiscreteSpace,
                        systems: AdjacentSystems) -> tuple[int, int]:
    """(jtilde0, j0): the least jtilde0 with 2^jtilde0 > max(3 a0,
    2 a0 c_adj), then the least j0 > jtilde0 with 2^j0 > 4 a0.  The
    construction dilates by C_jtilde0 = 2^(jtilde0+2) a0."""
    a0 = space.a0
    need = max(3.0 * a0, 2.0 * a0 * systems.c_adj)
    jt = 0
    while 2.0 ** jt <= need:
        jt += 1
    j0 = jt + 1
    while 2.0 ** j0 <= 4.0 * a0:
        j0 += 1
    return jt, j0


# -- certificate -------------------------------------------------------------

@dataclass
class DominationCertificate:
    families: list
    constant: float
    max_ratio: float
    alpha: float
    truncated: bool
    residual_bound: float
    pair: MultiIndexPair
    eta: float
    per_point: dict = field(default_factory=dict)
    coverage: dict = field(default_factory=dict)

    def ratio_summary(self) -> dict:
        ratio = np.asarray(self.per_point.get("ratio", []), dtype=np.float64)
        if ratio.size == 0:
            return {"min": 0.0, "median": 0.0, "max": 0.0}
        return {"min": float(ratio.min()),
                "median": float(np.median(ratio)),
                "max": float(ratio.max())}

    def to_descriptor(self, audit: bool = False) -> dict:
        fams = []
        for fam in self.families:
            fams.append({
                "system": fam.lattice.system,
                "delta": fam.delta,
                "cube_ids": list(fam.cube_ids),
                "witnesses": {str(cid): np.asarray(w).tolist()
                              for cid, w in fam.witnesses.items()},
            })
        desc = {
            "families": fams,
            "constant": self.constant,
            "max_ratio": self.max_ratio,
            "alpha": self.alpha,
            "truncated": self.truncated,
            "residual_bound": self.residual_bound,
            "eta": self.eta,
            "k": list(self.pair.k),
            "tau_ell": list(self.pair.tau_ell),
            "ratio_summary": self.ratio_summary(),
            "coverage": self.coverage,
        }
        if audit:
            desc["per_point"] = {
                key: np.asarray(val).tolist()
                for key, val in self.per_point.items()
            }
        return desc


# -- the two sides of the certificate ----------------------------------------

def _normalized_orders(pair: MultiIndexPair) -> list[int]:
    # slots outside tau_ell carry no symbol, so their order is read as 0
    return [pair.k[i] if i in pair.tau_ell else 0 for i in range(pair.m)]


def certificate_lhs(space: DiscreteSpace, fs, symbols,
                    pair: MultiIndexPair, eta: float) -> np.ndarray:
    powers = _normalized_orders(pair)
    return np.abs(commutator_integral(space, fs, symbols, powers, eta))


def certificate_rhs(space: DiscreteSpace, families, fs, symbols,
                    pair: MultiIndexPair, eta: float) -> np.ndarray:
    """Sum of higher-order sparse forms over all symbol subsets and all
    componentwise splits t <= k, weighted by binomial coefficients."""
    orders = _normalized_orders(pair)
    subsets = [tau for size in range(len(pair.tau_ell) + 1)
               for tau in itertools.combinations(pair.tau_ell, size)]
    splits = itertools.product(*[range(k + 1) for k in orders])
    out = np.zeros(space.n)
    for fam, tau, tvec in itertools.product(families, subsets, splits):
        weight = float(math.prod(map(math.comb, orders, tvec)))
        sub = MultiIndexPair(tuple(orders), tvec, tau, pair.tau_ell)
        out += weight * sparse_higher_order(fam, fs, symbols, sub, eta=eta)
    return out


# -- level sets --------------------------------------------------------------

def _node_profiles(space, fs, symbols, pair, eta, region, base_center,
                   base_radius, dilation, systems):
    """The alpha loop's data, one row per split t <= k of the orders.

    Returns (values, scales, refs): values[0] the pointwise products and
    values[1] the local grand maximal, each (T, |region|), and refs the T
    reference products over the enlarged ball; row t of values[j] is bad
    where it exceeds (alpha * scales[j]) * refs[t].
    """
    big = space.ball(base_center, dilation * base_radius)
    ref_lat, ref_cid = adjacent_cover(systems, big)
    means = {i: ref_lat.cube_means(symbols[i])[ref_cid]
             for i in pair.tau_ell}
    tvecs = list(itertools.product(
        *[range(k + 1) for k in _normalized_orders(pair)]))
    # slot i's (T, n) block: row t is f_i (b_i - <b_i>)^t_i
    mods = [np.array([(symbols[i] - means[i]) ** t[i] * fs[i] if t[i]
                      else fs[i] for t in tvecs]) for i in range(pair.m)]
    refs = np.ones(len(tvecs))
    point = np.ones((len(tvecs), len(region)))
    for g in mods:
        refs *= [avg(space, big.members, row) for row in g]
        point *= np.abs(g[:, region])
    # the local grand maximal reads the arguments on big only
    grand = truncated_grand_maximal_local(
        space, mods, eta, dilation, base_center, base_radius)
    mu_pow = space.mass_of(big.members) ** eta
    return np.stack([point, grand[:, region]]), np.array([1.0, mu_pow]), refs


# -- the construction --------------------------------------------------------

def cz_construct(space: DiscreteSpace, systems: AdjacentSystems, fs,
                 symbols, pair: MultiIndexPair, eta: float,
                 alpha: float = 1.0) -> DominationCertificate:
    """Build and self-verify a sparse domination certificate.

    fs and symbols hold one array per slot; pair.k and pair.tau_ell
    drive the construction (pair.t and pair.tau are enumerated
    internally).  The oscillation split is evaluated at r = 1.  alpha
    (finite, positive) is the root's first threshold multiplier.
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be a finite positive number, "
                         f"got {alpha!r}")
    fs = _as_arrays(fs, space.n)
    symbols = _as_arrays(symbols, space.n)
    if len(fs) != pair.m or len(symbols) != pair.m:
        raise ValueError("one argument and one symbol per slot required")
    jtilde0, _ = _stopping_exponents(space, systems)
    dilation = 2.0 ** (jtilde0 + 2) * space.a0
    coverage = coverage_audit(space, systems)
    if any(not np.any(f) for f in fs):
        zero = np.zeros(space.n)
        return DominationCertificate(
            families=[], constant=0.0, max_ratio=0.0, alpha=alpha,
            truncated=False, residual_bound=0.0, pair=pair, eta=eta,
            per_point={"lhs": zero, "rhs": zero.copy(),
                       "ratio": zero.copy()},
            coverage=coverage)

    radius0 = float(space.distances(0).max())
    root_ball = space.ball(0, radius0)
    lattice, root_cid = adjacent_cover(systems, root_ball)
    cmu0 = lattice.cmu0()
    lam = 1.0 / (2.0 * cmu0)
    needed = sum(pair.k[i] for i in pair.tau_ell)
    truncated = needed > lattice.depth

    cube_ids: list[int] = []
    witnesses: dict[int, np.ndarray] = {}
    final_alpha = alpha

    # depth-first, children in (gen, index) order for determinism; a
    # stopping cube is a proper subcube, so the walk ends by the leaves
    stack: list[tuple[int, int, float, float]] = [
        (root_cid, root_ball.center, root_ball.radius, alpha)]
    nominal = lattice.big_a1 * lattice.delta ** np.arange(lattice.depth + 1)
    while stack:
        cid, bc, br, node_alpha = stack.pop()
        region = lattice.members(cid)
        values, scales, refs = _node_profiles(
            space, fs, symbols, pair, eta, region, bc, br, dilation,
            systems)
        mass = lattice.mass.item(cid)
        target = mass / (4.0 * cmu0)
        while True:
            hit = (values > (node_alpha * scales)[:, None, None]
                   * refs[:, None])
            bad = np.zeros(space.n, dtype=bool)
            bad[region[hit.any(axis=(0, 1))]] = True
            if float(space.masses[bad].sum()) <= target:
                break
            if node_alpha * 2.0 > alpha * ALPHA_FACTOR_CAP:
                raise DominationError(
                    f"alpha escalation exceeded 2^20 at cube "
                    f"{cid} (generation {lattice.gen[cid]}, "
                    f"index {lattice.index[cid]})", cube_id=cid)
            node_alpha *= 2.0
        final_alpha = max(final_alpha, node_alpha)
        # maximal proper subcubes charged above the lambda fraction
        charged = lattice.cube_sums(bad) > lam * lattice.mass
        picks = lattice.maximal_subcubes(cid, charged)
        if math.fsum(lattice.mass[picks]) > \
                SPARSENESS * mass * (1 + 1e-12):
            raise DominationError(
                f"stopping cubes exceed half the mass of cube {cid}",
                cube_id=cid)
        covered = np.isin(lattice.point_to_cube, picks).any(axis=0)
        if np.any(bad & ~covered):
            raise DominationError(
                f"bad set escapes the stopping cubes of cube {cid}",
                cube_id=cid)
        cube_ids.append(cid)
        witnesses[cid] = region[~covered[region]]
        for p in reversed(picks.tolist()):
            stack.append((p, lattice.center.item(p),
                          float(nominal[lattice.gen.item(p)]), node_alpha))

    family = SparseFamily(lattice, cube_ids, witnesses, SPARSENESS)
    report = verify_sparse(family)
    if not report.ok:
        raise DominationError(
            f"emitted family fails its own sparseness audit: "
            f"{report.violations[:3]}")

    lhs = certificate_lhs(space, fs, symbols, pair, eta)
    rhs = certificate_rhs(space, [family], fs, symbols, pair, eta)
    pos = rhs > 0.0
    ratio = np.where(pos, lhs / np.where(pos, rhs, 1.0), 0.0)
    stray = lhs[~pos]
    if stray.size and float(stray.max()) > 1e-12 * max(1.0, float(lhs.max())):
        raise DominationError("operator mass where the certificate "
                              "vanishes; domination unattainable")
    max_ratio = float(ratio.max()) if ratio.size else 0.0
    return DominationCertificate(
        families=[family], constant=max_ratio, max_ratio=max_ratio,
        alpha=final_alpha, truncated=truncated, residual_bound=0.0,
        pair=pair, eta=eta,
        per_point={"lhs": lhs, "rhs": rhs, "ratio": ratio},
        coverage=coverage)


# -- verification ------------------------------------------------------------

def verify_domination(cert: DominationCertificate, lhs, rhs) -> dict:
    """Pointwise check of lhs <= constant * rhs wherever rhs > 0, and
    lhs = 0 wherever rhs = 0; report-valued.  A point whose lhs, rhs or
    ratio is not finite is a violation."""
    lhs = np.asarray(lhs, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if lhs.shape != rhs.shape:
        raise ValueError("lhs and rhs must share a shape")
    pos = rhs > 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(pos, lhs / rhs, 0.0)
        scaled = cert.constant * rhs
    # the tolerance scales with the finite entries only, so one infinite
    # entry cannot hide the finite violations
    sizes = np.abs(np.concatenate(([1.0], lhs.ravel(), scaled.ravel())))
    tol = 1e-12 * float(sizes[np.isfinite(sizes)].max())
    finite = np.isfinite(lhs) & np.isfinite(rhs) & np.isfinite(ratio)
    bad = ~finite | (lhs > np.where(pos, scaled, 0.0) + tol)
    bound = np.where(finite & ~pos, 0.0, scaled)
    violations = [{"point": int(x), "lhs": float(lhs[x]),
                   "bound": float(bound[x])} for x in np.flatnonzero(bad)]
    realized = float(ratio[pos].max()) if np.any(pos) else 0.0
    return {"pass": not violations, "violations": violations,
            "constant": cert.constant, "max_ratio": realized,
            "n_points": int(lhs.size)}


# -- step-1 coverage audit ---------------------------------------------------

def coverage_audit(space: DiscreteSpace, systems: AdjacentSystems) -> dict:
    """Dilated-ball coverage of the space plus annulus cube covers.

    Checks that the doubled balls 2^j B0 exhaust the space and that the
    greedy adjacent-cube cover of each annulus keeps its overlap below
    the declared bound 2 (2 j0 + 1); reports the realized overlap.
    The greedy covers each annulus in point order by balls of radius
    r = r0 2^(j+1-j0).  Shifted systems live on grids, where that ball
    holds the points within floor(r n) of its center and cubes are index
    intervals, so one _adjacent_covers call covers every annulus point,
    and the next ball is around the first one past the last cover.
    """
    _, j0 = _stopping_exponents(space, systems)
    declared = 2 * (2 * j0 + 1)
    dists = space.realized_distances(0)
    if dists.size == 0:
        return {"union_ok": True, "levels": 0, "overlap": 0,
                "declared_bound": declared, "ok": True}
    r0 = float(dists.min())
    rmax = float(dists.max())
    levels = 0
    while r0 * 2.0 ** levels < rmax:
        levels += 1
    union_ok = bool(space.ball(0, r0 * 2.0 ** levels).members.size == space.n)
    n = space.n
    counts = np.zeros(n, dtype=np.intp)
    prev = space.ball(0, r0).members
    for j in range(levels):
        nxt = space.ball(0, r0 * 2.0 ** (j + 1)).members
        ann = np.setdiff1d(nxt, prev, assume_unique=True)
        prev = nxt
        radius = r0 * 2.0 ** (j + 1 - j0)
        span = int(radius * n)
        system, cids = _adjacent_covers(
            systems, ann, np.maximum(ann - span, 0),
            np.minimum(ann + span, n - 1), radius)
        i = 0
        while i < ann.size:
            if cids[i] < 0:  # the one-ball call raises its CoverError
                adjacent_cover(systems, space.ball(int(ann[i]), radius))
            members = systems.lattices[system[i]].members(cids[i])
            counts[members] += 1
            i = int(np.searchsorted(ann, members[-1], side="right"))
    overlap = int(counts.max(initial=0))
    return {"union_ok": union_ok, "levels": levels, "overlap": overlap,
            "declared_bound": declared,
            "ok": union_ok and overlap <= declared}


# -- sparse augmentation -----------------------------------------------------

def augment_sparse(family: SparseFamily, b) -> tuple[SparseFamily, dict]:
    """Close a sparse family under symbol-oscillation stopping cubes.

    For each cube Q the maximal subcubes R with <|b - b_Q|>_R above
    2 C_mu0 <|b - b_Q|>_Q join the family, iterated to a fixpoint.  The
    result is gamma/(2(gamma+1))-sparse (gamma the input sparseness)
    with freshly selected witnesses, and the table reports per cube the
    oscillation, the budget, the added subcubes, and the empirical
    constant of the pointwise oscillation bound.
    """
    lat = family.lattice
    sp = lat.space
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (sp.n,):
        raise ValueError("symbol must assign one value per point")
    gamma = family.delta
    new_delta = gamma / (2.0 * (gamma + 1.0))
    cmu0 = lat.cmu0()
    means = lat.cube_means(b)
    # depth-first rank of each cube: the first of its members in the
    # lexicographic order of the point_to_cube columns
    rank = np.empty(sp.n)
    rank[np.lexsort(lat.point_to_cube[::-1])] = np.arange(sp.n)
    first_rank = -lat.cube_max(-rank)
    ids = sorted(set(family.cube_ids))
    present = set(ids)
    rows = []
    added_all = []
    queue = list(ids)
    while queue:
        cid = queue.pop(0)
        spread = lat.cube_means(np.abs(b - means[cid]))
        osc = float(spread[cid])
        budget = 2.0 * cmu0 * osc
        picked = lat.maximal_subcubes(cid, spread > budget)
        fresh = [int(c) for c in picked[np.argsort(first_rank[picked])]
                 if c not in present]
        present.update(fresh)
        queue.extend(fresh)
        added_all.extend(fresh)
        rows.append({"cube_id": cid, "osc": osc, "budget": budget,
                     "added": fresh})
    new_ids = sorted(present)
    try:
        augmented = select_witnesses(lat, new_ids, new_delta)
    except WitnessSelectionError as exc:
        raise WitnessSelectionError(
            f"augmented family cannot reach sparseness {new_delta}: {exc}",
            cube_id=exc.cube_id) from exc

    # on a family cube Q the denominator at x sums the oscillations of
    # the family cubes R with x in R <= Q: row gen(Q) of a suffix cumsum
    # over generations
    dev = np.abs(lat.deviations(b))
    oscs = np.zeros(len(lat.gen))
    oscs[new_ids] = lat.cube_means(dev)[new_ids]
    denom = np.cumsum(oscs[lat.point_to_cube][::-1], axis=0)[::-1]
    ratio = lat.cube_max(np.divide(dev, denom, out=np.zeros_like(dev),
                                   where=denom > 0.0))
    loud = lat.cube_max(dev > 1e-14 * max(1.0, float(np.abs(b).max())))
    vacuous = not np.any(loud[new_ids] > 0.0)
    for row in rows:
        row["max_ratio"] = float(ratio[row["cube_id"]])
    empirical = 0.0 if vacuous else max([0.0, *ratio[new_ids].tolist()])
    table = {"empirical_c": empirical, "vacuous": vacuous,
             "delta": new_delta, "rows": rows, "added": added_all}
    return augmented, table
