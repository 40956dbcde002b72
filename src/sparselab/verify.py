"""Seeded numerical check registry for the sparse-form estimates.

Each registered check replays one inequality on batteries of random
instances and returns a report with full reproduction data.  Three
modes exist:

``exact``
    both sides are computable and the inequality must hold to 1e-10
    relative tolerance at every trial;
``explicit-constant``
    the bounding constant is available in closed form and the
    inequality is asserted with it, any violation dumps a minimal
    reproducer;
``ratio-monitor``
    the bound carries an unquantified constant, so the check records
    the realized ratio and requires it to be finite and reproducible
    under a fixed seed.

Per-trial random streams are derived from ``(seed, trial)`` so the
report does not depend on execution order or thread count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import combinations
from time import perf_counter

import numpy as np

from .domination import augment_sparse
from .dyadic import (SparseFamily, build_lattice, build_standard_lattice,
                     random_sparse_family, select_witnesses)
from .operators import (MultiIndexPair, dyadic_maximal, fractional_integral,
                        fractional_maximal, orlicz_maximal,
                        power_maximal_dyadic, sharp_maximal_dyadic,
                        sparse_coefficients, sparse_endpoint,
                        sparse_higher_order, sparse_operator)
from .space import DiscreteSpace, build_grid_space
from .weights import (ExponentConfig, astar_from_duals, avg, bmo_norm,
                      conjugate_exponent, dual_weight, fujii_wilson_single,
                      holder_sides, joint_astar_constant, luxemburg_norm,
                      muckenhoupt_ap, target_weight, young_expl,
                      young_identity, young_llogl, young_power_log)

RELATIVE_TOL = 1e-10
GATE_TOL = 1e-12

MODE_EXACT = "exact"
MODE_CONSTANT = "explicit-constant"
MODE_MONITOR = "ratio-monitor"

# regression gate for the norm-transfer quotient; frozen from seed-1
# batteries at n = 16 and n = 64 with headroom for seed variation
CAOPRO_RATIO_BASELINE = 2.0

_P_CHOICES = (1.5, 2.0, 4.0)
_WEIGHT_SPREADS = (0.5, 1.0, 2.0)


# -- specs and reports --------------------------------------------------------

@dataclass(frozen=True)
class CheckSpec:
    """What to run: a check id, its exponents (None: the check's
    default), the space its trials draw on (default: the 16-point unit
    grid), the trial count (0: the registry default; negative is
    rejected) and the seed."""

    check_id: str
    config: ExponentConfig | None = None
    space: DiscreteSpace = field(default_factory=lambda: build_grid_space(16))
    trials: int = 0
    seed: int = 1


@dataclass
class CheckReport:
    check_id: str
    mode: str
    trials: int
    failures: list = field(default_factory=list)
    worst_ratio: float | None = None
    explicit_constant: float | None = None
    runtime: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_descriptor(self, include_runtime: bool = False) -> dict:
        desc = {
            "check_id": self.check_id,
            "mode": self.mode,
            "trials": int(self.trials),
            "passed": self.passed,
            "failures": _jsonable(self.failures),
            "worst_ratio": _jsonable(self.worst_ratio),
            "explicit_constant": _jsonable(self.explicit_constant),
            "details": _jsonable(self.details),
        }
        if include_runtime:
            desc["runtime_seconds"] = float(self.runtime)
        return desc


@dataclass(frozen=True)
class RegistryEntry:
    mode: str
    default_trials: int
    runner: object


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    return value


# -- trials -------------------------------------------------------------------

class _Trial:
    """One trial of a check: its index, its seeded streams and the stamp
    on its failure records.

    Stream ``salt`` is keyed by (seed, salt, trial), so a report does not
    depend on execution order.  Salt 0 (``rng``) draws the trial's data,
    1 its sparse family, 2 and 3 the two operator-norm probes of a norm
    transfer.
    """

    def __init__(self, spec: CheckSpec, report: CheckReport, index: int):
        self.spec, self.report, self.index = spec, report, index
        self.rng = self.stream(0)

    def stream(self, salt: int) -> np.random.Generator:
        return np.random.default_rng(
            (int(self.spec.seed), int(salt), int(self.index)))

    def family(self, lattice) -> SparseFamily:
        return random_sparse_family(lattice, self.stream(1))

    def fail(self, **fields) -> None:
        self.report.failures.append({"trial": self.index,
                                     "seed": self.spec.seed,
                                     "n": self.spec.space.n, **fields})


def _trials(spec: CheckSpec, report: CheckReport):
    """(trial, its stream-0 generator) for each of the report's trials."""
    for index in range(report.trials):
        trial = _Trial(spec, report, index)
        yield trial, trial.rng


# -- randomness ---------------------------------------------------------------

def _random_weight(rng, n: int) -> np.ndarray:
    a = float(rng.choice(_WEIGHT_SPREADS))
    return np.exp(rng.uniform(-a, a, size=n))


def _random_function(rng, n: int, floor: float = 0.0) -> np.ndarray:
    f = np.abs(rng.standard_normal(n))
    if floor > 0.0:
        f = np.maximum(f, floor)
    return f


def _random_masked(rng, n: int, zero_prob: float = 0.3) -> np.ndarray:
    f = np.abs(rng.standard_normal(n))
    f[rng.uniform(size=n) < zero_prob] = 0.0
    return f


# -- shared numerics ----------------------------------------------------------

def _lp_norm(space, f, weight, p: float) -> float:
    w = np.ones(space.n) if weight is None else weight
    if math.isinf(p):
        live = (w > 0) & (space.masses > 0)
        vals = np.abs(np.asarray(f))[live]
        return float(vals.max()) if vals.size else 0.0
    total = np.sum(np.abs(np.asarray(f)) ** p * w * space.masses)
    return float(total ** (1.0 / p))


def _fold(acc: float, value: float, pick=max) -> float:
    """pick(acc, value), except that a NaN on either side is kept: max
    and min alone drop a NaN that comes second."""
    return value if math.isnan(value) else pick(acc, value)


def _worst(ratios) -> float:
    """Largest of the ratios, 0.0 when there are none; a NaN is kept."""
    return functools.reduce(_fold, ratios, 0.0)


def _ratio(lhs: float, rhs: float) -> float:
    """lhs / rhs, where rhs = 0 reads 0.0 for |lhs| <= 1e-12 and inf
    otherwise; a NaN on either side gives NaN."""
    if math.isnan(lhs) or math.isnan(rhs):
        return math.nan
    if rhs == 0:
        return 0.0 if abs(lhs) <= 1e-12 else math.inf
    return lhs / rhs


def _live_ratio(trial: _Trial, lhs, rhs, **fields) -> float | None:
    """Largest pointwise lhs / rhs over the points where rhs > 0 (0.0 when
    there are none), or None after a failure is recorded because lhs
    exceeds 1e-12 at a point where rhs is not positive."""
    live = rhs > 0
    if np.any(lhs[~live] > 1e-12):
        trial.fail(**fields, point=int(np.argmax(lhs * ~live)),
                   lhs=float(np.max(lhs[~live])), rhs=0.0)
        return None
    ratios = lhs[live] / rhs[live]
    return float(ratios.max()) if ratios.size else 0.0


def _violates(lhs: float, rhs: float) -> bool:
    """lhs exceeds rhs beyond the relative tolerance; a NaN or infinite
    value on either side counts as a violation."""
    return not (math.isfinite(lhs) and math.isfinite(rhs)
                and lhs <= rhs * (1.0 + RELATIVE_TOL) + 1e-300)


# -- oracle-facing helpers ----------------------------------------------------

def young_composition_margin(r: float) -> dict:
    """Composition of the log-bump gauge against its doubled-order
    majorant with constant (r+1)^r, evaluated on a wide grid."""
    t = np.geomspace(1e-3, 1e6, 10000)
    phi = young_llogl(float(r))
    lhs = phi.value(phi.value(t))
    bound = (float(r) + 1.0) ** float(r)
    rhs = bound * young_llogl(2.0 * float(r)).value(t)
    ratios = lhs / rhs
    return {
        "r": float(r),
        "bound": bound,
        "max_ratio": float(np.max(ratios)),
        "violations": int(np.sum(lhs > rhs * (1.0 + RELATIVE_TOL))),
    }


def kolmogorov_chain_values(n: int = 16, s1: float = 0.25,
                            s2: float = 0.25) -> dict:
    """Nested-chain instance where the layered sum is an exact partial
    geometric series: one cube per generation down the left spine,
    point masses at the deepest point."""
    space = build_grid_space(n)
    lattice = build_standard_lattice(space)
    ids = [gen[0] for gen in lattice.generations]
    family = select_witnesses(lattice, ids, 0.5)
    u = np.zeros(n)
    u[0] = 1.0
    mean = lattice.cube_means(u)
    terms = mean ** s1 * mean ** s2 * lattice.mass
    lhs = math.fsum(terms[ids])
    base = float(terms[ids[0]])
    depth = len(ids) - 1
    partial = math.fsum(0.5 ** (k * (1.0 - s1 - s2)) for k in range(depth + 1))
    return {
        "n": int(n),
        "s1": float(s1),
        "s2": float(s2),
        "ratio": lhs / base,
        "partial_sum": partial,
        "geometric_bound": 1.0 / (1.0 - 0.5 ** (1.0 - s1 - s2)),
        "proof_bound": 1.0 / (family.delta * (1.0 - s1 - s2)),
        "cubes": len(ids),
    }


# -- operator-norm lower bound ------------------------------------------------

_PROBE_COLUMNS = 256  # identity columns per slot-kernel probe call


def _operator_norm_lower(space, apply_fn, m, in_weights, p, out_weight, q,
                         rng, starts: int = 2, rounds: int = 3) -> float:
    """Best Rayleigh quotient found by slot-wise coordinate ascent.

    apply_fn takes a list of m slot arguments, each (n,), and returns the
    (n,) output; slot i may instead be an (n, B) block of B inputs, and
    the result is then (n, B) with column b the output on column b.  The
    operator must be separately linear in each nonnegative input slot
    (true at inner exponent r = 1), so calls with the identity block in
    slot i recover that slot's kernel, and the constrained maximizer on
    the weighted unit sphere has the dual-exponent closed form.  The
    identity goes in _PROBE_COLUMNS columns at a time, which bounds each
    call's temporaries.  Lower bound only.
    """
    n = space.n
    mass = space.masses
    # column y of the identity is the probe 1_{y}
    probes = np.hsplit(np.eye(n), range(_PROBE_COLUMNS, n, _PROBE_COLUMNS))
    best = 0.0
    for _ in range(starts):
        fs = []
        for i in range(m):
            f = np.abs(rng.standard_normal(n)) + 1e-3
            fs.append(f / _lp_norm(space, f, in_weights[i], p[i]))
        val = _lp_norm(space, apply_fn(fs), out_weight, q)
        best = _fold(best, val)
        for _ in range(rounds):
            for i in range(m):
                kernel = np.hstack([apply_fn(fs[:i] + [probe] + fs[i + 1:])
                                    for probe in probes])
                out = kernel @ fs[i]
                lifted = np.where(out > 0, out, 0.0) ** (q - 1.0)
                grad = kernel.T @ (lifted * out_weight * mass)
                dens = np.maximum(grad, 0.0) / (in_weights[i] * mass)
                if p[i] == 1.0:
                    f_new = np.zeros(n)
                    f_new[int(np.argmax(dens))] = 1.0
                else:
                    f_new = dens ** (1.0 / (p[i] - 1.0))
                nrm = _lp_norm(space, f_new, in_weights[i], p[i])
                if nrm > 0:
                    fs[i] = f_new / nrm
            val = _lp_norm(space, apply_fn(fs), out_weight, q)
            best = _fold(best, val)
    return best


def _norm_transfer(trial: _Trial, space, cfg: ExponentConfig, family,
                   symbols, pair: MultiIndexPair, plain_family, weights,
                   transfer: float, per_trial: list, **probe):
    """Operator-norm lower bounds est_l of the higher-order form of pair
    on family and est_r of the basic form on plain_family, under weights
    ((in_l, out_l), (in_r, out_r)) and probed on streams 2 and 3, and
    the quotient est_l / (transfer * est_r), inf when est_r or the
    transfer constant vanishes.  The quotient is appended to per_trial."""
    def oscillated(fs):
        return sparse_higher_order(family, fs, symbols, pair, eta=cfg.eta,
                                   r=1.0)

    def plain(fs):
        return sparse_operator(plain_family, fs, eta=cfg.eta)

    est_l, est_r = (
        _operator_norm_lower(space, fn, cfg.m, ins, cfg.p, out, cfg.q,
                             trial.stream(salt), **probe)
        for salt, fn, (ins, out) in zip((2, 3), (oscillated, plain),
                                        weights))
    ratio = est_l / (transfer * est_r) if est_r > 0 and transfer > 0 \
        else math.inf
    per_trial.append(ratio)
    return est_l, est_r, ratio


def _augment_joint(family, symbols) -> SparseFamily:
    """Stopping-time augmentation alternated over several symbols until
    the cube set stabilizes (or eight rounds run out)."""
    fam = family
    for _ in range(8):
        before = tuple(fam.cube_ids)
        for b in symbols:
            fam, _ = augment_sparse(fam, b)
        if tuple(fam.cube_ids) == before:
            return fam
    return fam


# -- check: holder_eq ---------------------------------------------------------

def _run_holder(spec: CheckSpec, report: CheckReport) -> None:
    space, lattice = spec.space, build_lattice(spec.space)
    report.explicit_constant = 1.0
    worst = 0.0
    for trial, rng in _trials(spec, report):
        m = trial.index % 3 + 1
        p = tuple(float(rng.choice(_P_CHOICES)) for _ in range(m))
        s = math.fsum(1.0 / v for v in p)
        q = 1.0 / (s * float(rng.uniform(0.25, 1.0)))
        ws = [_random_weight(rng, space.n) for _ in range(m)]
        cid = int(rng.integers(0, len(lattice.gen)))
        mem = lattice.members(cid)
        size = int(rng.integers(1, len(mem) + 1))
        members = np.sort(rng.choice(mem, size=size, replace=False))
        lhs, rhs = holder_sides(space, members, ws, p, q)
        worst = _fold(worst, _ratio(lhs, rhs))
        if _violates(lhs, rhs):
            trial.fail(m=m, p=list(p), q=q, members=members.tolist(),
                       lhs=lhs, rhs=rhs)
    report.worst_ratio = worst


# -- check: dyadic_maximal ----------------------------------------------------

def _run_dyadic_maximal(spec: CheckSpec, report: CheckReport) -> None:
    space, lattice = spec.space, build_lattice(spec.space)
    worst = 0.0
    constant = 0.0
    for trial, rng in _trials(spec, report):
        p = float(rng.choice(_P_CHOICES))
        pc = conjugate_exponent(p)
        sigma = _random_weight(rng, space.n)
        f = rng.standard_normal(space.n)
        maximal = dyadic_maximal(lattice, f, weight=sigma)
        lhs = _lp_norm(space, maximal, sigma, p)
        rhs = pc * _lp_norm(space, f, sigma, p)
        constant = max(constant, pc)
        worst = _fold(worst, _ratio(lhs, rhs))
        if _violates(lhs, rhs):
            trial.fail(p=p, constant=pc, lhs=lhs, rhs=rhs)
    report.worst_ratio = worst
    report.explicit_constant = constant


# -- check: thm_astar_chain ---------------------------------------------------

def _astar_sides(lattice, family, cfg: ExponentConfig, ws, fs) -> dict:
    """Every stage of the sparse-form norm chain on one instance.

    Returns the embedding pair, the per-cube pairing rows with their
    explicit-constant majorants, the dual-function maximal sums with
    their bounds, and the fully composed right side.
    """
    sp = lattice.space
    m, p, q = cfg.m, cfg.p, cfg.q
    gamma, eta = cfg.gamma, cfg.eta
    theta, beta = cfg.theta, cfg.beta
    delta = family.delta
    pcs = [conjugate_exponent(v) for v in p]
    sigmas = [dual_weight(w, pi) for w, pi in zip(ws, p)]
    u = target_weight(ws, p, q)
    fsig = [f * s for f, s in zip(fs, sigmas)]
    lhs = _lp_norm(sp, sparse_operator(family, fsig, eta=eta, gamma=gamma),
                   u, q) ** theta
    a_theta = sparse_operator(family, fsig, eta=eta, gamma=theta)
    embed_rhs = _lp_norm(sp, a_theta, u, q) ** theta
    astar = joint_astar_constant(lattice, list(ws), p, q)
    shrink = (1.0 / delta) ** ((m - eta) * theta * (beta * q - 1.0))
    cb = astar ** (beta * theta) * shrink
    if q > theta * (1.0 + 1e-12):
        s_exp = 1.0 / (1.0 - theta / q)
        g = a_theta ** (theta * (q / theta - 1.0))
        g_norm = _lp_norm(sp, g, u, s_exp)
    else:
        s_exp = math.inf
        g = np.ones(sp.n)
        g_norm = 1.0
    ids = family.cube_ids
    int_gu = lattice.cube_sums(g * u)[ids]
    u_wit = family.witness_sums(u)
    g_avg = int_gu / lattice.cube_sums(u)[ids]
    coeff = sparse_coefficients(lattice, fsig, eta=eta)[ids]
    lhs_b = int_gu * coeff ** theta
    rhs_b = cb * g_avg * u_wit ** (1.0 - theta / q)
    slot_sums = []
    for i in range(m):
        sig_wit = family.witness_sums(sigmas[i])
        f_avg = (lattice.cube_sums(fs[i] * sigmas[i]) /
                 lattice.cube_sums(sigmas[i]))[ids]
        rhs_b = rhs_b * (f_avg ** theta * sig_wit ** (theta / p[i]))
        slot_sums.append(float(np.sum(f_avg ** p[i] * sig_wit)))
    g_sum = float(np.sum(g_avg ** s_exp * u_wit)) \
        if math.isfinite(s_exp) else 0.0
    g_max = float(np.max(g_avg, initial=0.0))
    rows = [{"cube": int(cid), "pairing": float(a), "lhs": float(lb),
             "rhs": float(rb)}
            for cid, a, lb, rb in zip(ids, int_gu, lhs_b, rhs_b)]
    f_norms = [_lp_norm(sp, fs[i], sigmas[i], p[i]) for i in range(m)]
    c_explicit = shrink * (q / theta)
    for pc in pcs:
        c_explicit *= pc ** theta
    composed_rhs = c_explicit * astar ** (beta * theta)
    for fn in f_norms:
        composed_rhs *= fn ** theta
    if math.isfinite(s_exp):
        g_lhs = g_sum ** (1.0 / s_exp)
        g_bound = (q / theta) * g_norm
    else:
        g_lhs = g_max
        g_bound = g_norm
    return {
        "lhs": lhs,
        "embed_rhs": embed_rhs,
        "astar": astar,
        "cb": cb,
        "rows": rows,
        "g_norm": g_norm,
        "g_sum": g_sum,
        "g_lhs": g_lhs,
        "g_bound": g_bound,
        "slot_sums": slot_sums,
        "slot_lhs": [slot_sums[i] ** (1.0 / p[i]) for i in range(m)],
        "slot_bounds": [pcs[i] * f_norms[i] for i in range(m)],
        "c_explicit": c_explicit,
        "composed_rhs": composed_rhs,
    }


def astar_gate_values():
    """Four-point, three-cube instance small enough to check by hand.

    Uniform grid of four unit masses, family {root, left half, right
    half} at delta = 1/2, one slot with exponent 2, all-ones weight,
    f = (1, 2, 0, 1).  Every stage value is a small rational (or the
    square root of one) and is returned next to the computed sides.
    """
    space = build_grid_space(4)
    lattice = build_standard_lattice(space)
    root = lattice.generations[0][0]
    left, right = lattice.generations[1][:2]
    family = SparseFamily(lattice, [root, left, right],
                          {root: np.array([1, 3]), left: np.array([0]),
                           right: np.array([2])}, 0.5)
    cfg = ExponentConfig(1, (2.0,), 2.0, gamma=1.0)
    sides = _astar_sides(lattice, family, cfg,
                         [np.ones(4)], [np.array([1.0, 2.0, 0.0, 1.0])])
    expected = {
        "lhs": math.sqrt(17.0),
        "astar": 1.0,
        "cb": 2.0,
        "pairings": {root: 8.0, left: 5.0, right: 3.0},
        "cube_lhs": {root: 8.0, left: 7.5, right: 1.5},
        "cube_rhs": {root: 8.0, left: 7.5, right: 1.5},
        "g_sum": 16.5,
        "slot_sums": [4.5],
        "c_explicit": 8.0,
        "composed_rhs": 8.0 * math.sqrt(6.0),
    }
    return sides, expected


def _gate_mismatches(sides, expected) -> list:
    bad = []

    def close(a, b):
        return abs(a - b) <= GATE_TOL * max(1.0, abs(b))

    for key in ("lhs", "astar", "cb", "g_sum", "c_explicit", "composed_rhs"):
        if not close(sides[key], expected[key]):
            bad.append({"stage": key, "got": sides[key],
                        "want": expected[key]})
    for row in sides["rows"]:
        cid = row["cube"]
        for key, table in (("pairing", "pairings"), ("lhs", "cube_lhs"),
                           ("rhs", "cube_rhs")):
            if not close(row[key], expected[table][cid]):
                bad.append({"stage": f"cube {cid} {key}",
                            "got": row[key], "want": expected[table][cid]})
    for got, want in zip(sides["slot_sums"], expected["slot_sums"]):
        if not close(got, want):
            bad.append({"stage": "slot_sums", "got": got, "want": want})
    return bad


def _run_astar_chain(spec: CheckSpec, report: CheckReport) -> None:
    cfg = spec.config or ExponentConfig(2, (2.0, 2.0), 2.0, gamma=1.0)
    sides, expected = astar_gate_values()
    for miss in _gate_mismatches(sides, expected):
        miss["trial"] = "hand-gate"
        report.failures.append(miss)
    if report.failures:
        return
    space, lattice = spec.space, build_lattice(spec.space)
    worst = 0.0
    for trial, rng in _trials(spec, report):
        ws = [_random_weight(rng, space.n) for _ in range(cfg.m)]
        fs = [_random_function(rng, space.n, floor=1e-8)
              for _ in range(cfg.m)]
        sides = _astar_sides(lattice, trial.family(lattice), cfg, ws, fs)

        def fail(stage, lhs, rhs):
            trial.fail(stage=stage, lhs=lhs, rhs=rhs,
                       config={"m": cfg.m, "p": list(cfg.p), "q": cfg.q,
                               "gamma": cfg.gamma, "eta": cfg.eta})

        if _violates(sides["lhs"], sides["embed_rhs"]):
            fail("embedding", sides["lhs"], sides["embed_rhs"])
        for row in sides["rows"]:
            if _violates(row["lhs"], row["rhs"]):
                fail(f"cube {row['cube']}", row["lhs"], row["rhs"])
        if _violates(sides["g_lhs"], sides["g_bound"]):
            fail("dual maximal sum", sides["g_lhs"], sides["g_bound"])
        for i in range(cfg.m):
            if _violates(sides["slot_lhs"][i], sides["slot_bounds"][i]):
                fail(f"slot {i} maximal sum", sides["slot_lhs"][i],
                     sides["slot_bounds"][i])
        if _violates(sides["lhs"], sides["composed_rhs"]):
            fail("composed", sides["lhs"], sides["composed_rhs"])
        if sides["composed_rhs"] > 0:
            worst = _fold(worst, sides["lhs"] / sides["composed_rhs"])
    report.worst_ratio = worst
    report.explicit_constant = sides["c_explicit"]
    report.details = {"gate": "passed"}


# -- check: dyadicsum_equiv ---------------------------------------------------

def _run_dyadicsum(spec: CheckSpec, report: CheckReport) -> None:
    space, lattice = spec.space, build_lattice(spec.space)
    ncubes = len(lattice.gen)
    per_trial = []
    for trial, rng in _trials(spec, report):
        s = float(rng.choice((1.5, 2.0, 3.0)))
        sigma = _random_weight(rng, space.n)
        alpha = np.abs(rng.standard_normal(ncubes))
        alpha[rng.uniform(size=ncubes) < 0.3] = 0.0
        if not alpha.any():
            alpha[lattice.generations[0][0]] = 1.0
        sig_mass = lattice.cube_sums(sigma)
        # row k at x: alpha summed over the cubes containing x at
        # generation k or finer; row 0 is phi = sum_Q alpha_Q 1_Q
        below = np.cumsum(alpha[lattice.point_to_cube][::-1], axis=0)[::-1]
        lhs = _lp_norm(space, below[0], sigma, s)
        # sum over the cubes R inside Q of alpha_R sigma(R)
        subtree = lattice.cube_sums(sigma * below)
        layered = float(np.sum(
            alpha * (subtree / sig_mass) ** (s - 1.0) * sig_mass))
        rhs = layered ** (1.0 / s)
        ratio = _ratio(lhs, rhs)
        per_trial.append(ratio)
        if not math.isfinite(ratio):
            trial.fail(s=s, lhs=lhs, rhs=rhs)
    sup_ratio = _worst(per_trial)
    inf_ratio = functools.reduce(functools.partial(_fold, pick=min),
                                 per_trial, math.inf)
    if inf_ratio == 0:
        # the lower equivalence constant 1 / ratio_inf is infinite; a
        # non-finite trial ratio is already recorded by its trial
        report.failures.append({"trial": "ratio-inf", "ratio_inf": 0.0})
    report.worst_ratio = _fold(sup_ratio, _ratio(1.0, inf_ratio))
    report.details = {"ratio_sup": sup_ratio, "ratio_inf": inf_ratio,
                      "per_trial": per_trial}


# -- check: kolmogorov_sum ----------------------------------------------------

def _run_kolmogorov(spec: CheckSpec, report: CheckReport) -> None:
    # the chain gate's unit grid: the least power of two >= max(n, 8)
    size = 1 << (max(spec.space.n, 8) - 1).bit_length()
    chain = kolmogorov_chain_values(size)
    if abs(chain["ratio"] - chain["partial_sum"]) > GATE_TOL * \
            chain["partial_sum"]:
        report.failures.append({"trial": "chain-gate",
                                "got": chain["ratio"],
                                "want": chain["partial_sum"]})
        return
    space, lattice = spec.space, build_lattice(spec.space)
    worst_proof = 0.0
    per_trial = []
    for trial, rng in _trials(spec, report):
        s1 = float(rng.choice((0.0, 0.2, 0.4)))
        s2 = float(rng.choice((0.0, 0.25, 0.45)))
        u = _random_masked(rng, space.n)
        v = _random_masked(rng, space.n)
        family = trial.family(lattice)
        top = family.cube_ids[int(rng.integers(0, len(family.cube_ids)))]
        outside = np.ones(space.n)
        outside[lattice.members(top)] = 0.0
        inside = lattice.cube_max(outside) == 0.0
        terms = (lattice.cube_means(u) ** s1 * lattice.cube_means(v) ** s2
                 * lattice.mass)
        ids = np.asarray(family.cube_ids)
        lhs = float(np.sum(terms[ids[inside[ids]]]))
        base = float(terms[top])
        proof_c = 1.0 / (family.delta * (1.0 - s1 - s2))
        geo_c = 1.0 / (1.0 - family.delta ** (1.0 - s1 - s2))
        if base > 0 or math.isnan(base):
            ratio_geo = lhs / (geo_c * base)
            ratio_proof = lhs / (proof_c * base)
            per_trial.append(ratio_geo)
            worst_proof = _fold(worst_proof, ratio_proof)
            if _violates(lhs, proof_c * base):
                trial.fail(s1=s1, s2=s2, top_cube=int(top), lhs=lhs,
                           rhs=proof_c * base, constant=proof_c)
        elif lhs > 1e-12:
            trial.fail(s1=s1, s2=s2, top_cube=int(top), lhs=lhs, rhs=0.0,
                       constant=proof_c)
        else:
            per_trial.append(0.0)
    report.worst_ratio = _worst(per_trial)
    report.explicit_constant = chain["proof_bound"]
    report.details = {
        "chain": chain,
        "worst_vs_proof_constant": worst_proof,
        "per_trial": per_trial,
    }


# -- check: testing_lemma -----------------------------------------------------

def _run_testing(spec: CheckSpec, report: CheckReport) -> None:
    cfg = spec.config or ExponentConfig(2, (2.0, 2.0), 1.0, gamma=1.0)
    if cfg.m != 2:
        raise ValueError("testing_lemma runs the two-slot form; got "
                         f"m={cfg.m}")
    space, lattice = spec.space, build_lattice(spec.space)
    q, gamma, eta = cfg.q, cfg.gamma, cfg.eta
    p = cfg.p
    asserting = q <= gamma * (1.0 + 1e-12)
    worst_dual = 0.0
    per_trial = []
    for trial, rng in _trials(spec, report):
        u = _random_weight(rng, space.n)
        sig = [_random_weight(rng, space.n), _random_weight(rng, space.n)]
        family = trial.family(lattice)
        astar = astar_from_duals(lattice, u, sig, p, q)
        ids = family.cube_ids
        mus = lattice.mass
        avgs = [lattice.cube_means(s_i) for s_i in sig]
        uavgs = lattice.cube_means(u)
        a1, a2 = avgs
        stacked = family.pointwise(mus ** (eta * gamma) * a1 ** gamma *
                                   a2 ** gamma)
        tail = float(np.sum((a1 ** (q / p[0]) * a2 ** (q / p[1]) *
                             mus ** (1.0 + eta * q))[ids]))
        lhs = _lp_norm(space, stacked ** (1.0 / gamma), u, q)
        rhs = astar ** (1.0 / q) * tail ** (1.0 / q)
        ratio = _ratio(lhs, rhs)
        per_trial.append(ratio)
        if (asserting and _violates(lhs, rhs)) or not math.isfinite(ratio):
            trial.fail(q=q, gamma=gamma, lhs=lhs, rhs=rhs)
        if not asserting:
            for keep, reduce in ((0, 1), (1, 0)):
                if p[reduce] <= gamma:
                    continue
                s_d = conjugate_exponent(p[reduce] / gamma)
                a_keep, a_red = avgs[keep], avgs[reduce]
                dual = family.pointwise(
                    mus ** (eta * gamma) * a_keep ** gamma *
                    a_red ** (gamma - 1.0) * uavgs)
                dtail = float(np.sum((
                    a_keep ** (gamma * s_d / p[keep]) *
                    uavgs ** (s_d * (1.0 - gamma / q)) *
                    mus ** (1.0 + gamma * eta * s_d))[ids]))
                lhs_d = _lp_norm(space, dual, sig[reduce], s_d)
                rhs_d = astar ** (gamma / q) * dtail ** (1.0 / s_d)
                ratio_d = _ratio(lhs_d, rhs_d)
                worst_dual = _fold(worst_dual, ratio_d)
                if not math.isfinite(ratio_d):
                    trial.fail(dual_slot=reduce, lhs=lhs_d, rhs=rhs_d)
    worst = _worst(per_trial)
    report.worst_ratio = worst if asserting else _fold(worst, worst_dual)
    report.explicit_constant = 1.0 if asserting else None
    report.details = {
        "constant_one_scope": "q <= gamma",
        "asserting": asserting,
        "per_trial": per_trial,
        "worst_dual_ratio": worst_dual,
    }


# -- check: endpoint_weak -----------------------------------------------------

def _run_endpoint_weak(spec: CheckSpec, report: CheckReport) -> None:
    cfg = spec.config or ExponentConfig(2, (1.0, 1.0), 2.0 / 3.0)
    space, lattice = spec.space, build_lattice(spec.space)
    margins = [young_composition_margin(r) for r in (1.0, 2.0, 3.0)]
    for margin in margins:
        if margin["violations"]:
            report.failures.append({
                "trial": "young-composition", "r": margin["r"],
                "violations": margin["violations"],
                "max_ratio": margin["max_ratio"],
                "bound": margin["bound"],
            })
    m, eta, r = cfg.m, cfg.eta, cfg.r
    q0 = cfg.q0
    tau_ell = (0,)
    ell = float(len(tau_ell))
    phi_bump = young_power_log(r, ell)
    per_trial = []
    for trial, rng in _trials(spec, report):
        omegas = [_random_weight(rng, space.n) for _ in range(m)]
        omega = target_weight(omegas, (1.0,) * m, q0)
        w1 = joint_astar_constant(lattice, omegas, (1.0,) * m, q0)
        fs = [_random_function(rng, space.n) for _ in range(m)]
        bs = [rng.standard_normal(space.n) for _ in range(m)]
        bmos = [bmo_norm(lattice, b) for b in bs]
        family = trial.family(lattice)
        plain = sparse_endpoint(family, fs, tau=tuple(range(m)),
                                eta=eta, r=r)
        comm = sparse_endpoint(family, fs, tau_ell, eta=eta, r=r,
                               symbols=bs, osc_slots=tau_ell, scales=bmos)
        trial_worst = 0.0
        for vals, bump in ((plain, False), (comm, True)):
            pos = vals[vals > 0]
            if pos.size == 0:
                continue
            levels = np.geomspace(0.5 * float(pos.min()),
                                  1.5 * float(pos.max()), 10)
            for level in levels:
                lam = level ** (1.0 / m)
                lhs = float(np.sum(omega[vals > level] *
                                   space.masses[vals > level]))
                rhs = w1
                for i in range(m):
                    if bump:
                        piece = phi_bump.value(np.abs(fs[i]) / lam)
                    else:
                        piece = np.abs(fs[i]) ** r / lam ** r
                    rhs *= float(np.sum(piece * omegas[i] *
                                        space.masses)) ** q0
                # rhs >= 0; a NaN rhs reaches the fold
                if rhs != 0:
                    trial_worst = _fold(trial_worst, lhs / rhs)
                elif lhs > 1e-12:
                    trial.fail(level=float(level), lhs=lhs, rhs=0.0)
        per_trial.append(trial_worst)
        if not math.isfinite(trial_worst):
            trial.fail(ratio=trial_worst)
    report.worst_ratio = _worst(per_trial)
    report.explicit_constant = max(mg["bound"] for mg in margins)
    report.details = {
        "young_margins": margins,
        "per_trial": per_trial,
        "q0": q0,
    }


# -- check: m_vs_i ------------------------------------------------------------

def _run_m_vs_i(spec: CheckSpec, report: CheckReport) -> None:
    space = spec.space
    worst = 0.0
    constant = 0.0
    for trial, rng in _trials(spec, report):
        if spec.config is not None:
            m, eta = spec.config.m, spec.config.eta
        else:
            m = trial.index % 3 + 1
            eta = float(rng.choice((0.0, 0.25, 0.5, 0.75))) * m
        fs = [_random_function(rng, space.n) for _ in range(m)]
        lhs = fractional_maximal(space, fs, eta=eta)
        scale = float(m) ** (m - eta)
        rhs = scale * fractional_integral(space, fs, eta)
        constant = max(constant, scale)
        trial_worst = _live_ratio(trial, lhs, rhs, m=m, eta=eta)
        if trial_worst is None:
            continue
        worst = _fold(worst, trial_worst)
        bad = ~(lhs <= rhs * (1.0 + RELATIVE_TOL))  # NaN counts as bad
        if np.any(bad):
            point = int(np.argmax(np.where(bad, lhs / rhs, 0.0)))
            trial.fail(m=m, eta=eta, point=point, lhs=float(lhs[point]),
                       rhs=float(rhs[point]), constant=scale)
    report.worst_ratio = worst
    report.explicit_constant = constant


# -- check: bmo_lemmas --------------------------------------------------------

def _run_bmo(spec: CheckSpec, report: CheckReport) -> None:
    space, lattice = spec.space, build_lattice(spec.space)
    sups = dict.fromkeys(("upper_gauge_constant", "oscillation_constant",
                          "exponential_gauge_constant",
                          "product_split_constant"), 0.0)
    worst_lower = 0.0
    for trial, rng in _trials(spec, report):
        r = float(rng.choice((1.0, 2.0)))
        f = _random_function(rng, space.n, floor=1e-8)
        b = rng.standard_normal(space.n)
        f1 = _random_function(rng, space.n)
        f2 = _random_function(rng, space.n)
        g = _random_function(rng, space.n)
        bmo = bmo_norm(lattice, b)
        gauges = luxemburg_norm(lattice, f, young_llogl(1.0)).tolist()
        devs = np.abs(lattice.deviations(b)) ** r
        exp_gauges = luxemburg_norm(lattice, devs,
                                    young_expl(1.0 / r)).tolist()
        split_gauges = (luxemburg_norm(lattice, f1, young_expl(1.0)) *
                        luxemburg_norm(lattice, f2, young_expl(1.0)) *
                        luxemburg_norm(lattice, g, young_llogl(2.0))).tolist()
        means = lattice.cube_means(b)
        for cid in range(len(lattice.gen)):
            mem = lattice.members(cid)
            gauge = gauges[cid]
            lower = avg(space, mem, f, 1.0)
            worst_lower = _fold(worst_lower, _ratio(lower, gauge))
            if _violates(lower, gauge):
                trial.fail(cube=cid, part="mean below gauge",
                           lhs=lower, rhs=gauge)
            ratios = {"upper_gauge_constant":
                      _ratio(gauge, avg(space, mem, f, r + 1.0))}
            mean = means[cid]
            osc = avg(space, mem, b - mean, r)
            # bmo and rhs4 are >= 0; a NaN one reaches the ratios
            if bmo != 0:
                ratios["oscillation_constant"] = osc / bmo
                ratios["exponential_gauge_constant"] = \
                    exp_gauges[cid] / bmo ** r
            lhs4 = avg(space, mem, f1 * f2 * g, 1.0)
            rhs4 = split_gauges[cid]
            if rhs4 != 0:
                ratios["product_split_constant"] = lhs4 / rhs4
            for part, ratio in ratios.items():
                sups[part] = _fold(sups[part], ratio)
                if not math.isfinite(ratio):
                    trial.fail(cube=cid, part=part,
                               ratio=ratio)
    report.worst_ratio = _worst(sups.values())
    report.explicit_constant = 1.0
    report.details = {"lower_bound_worst": worst_lower, **sups}


# -- check: caopro_norm_transfer ----------------------------------------------

def _run_caopro(spec: CheckSpec, report: CheckReport) -> None:
    cfg = spec.config or ExponentConfig(2, (2.0, 2.0), 2.0)
    space, lattice = spec.space, build_lattice(spec.space)
    m, p = cfg.m, cfg.p
    per_trial = []
    for trial, rng in _trials(spec, report):
        tau = (0,) if trial.index % 2 == 0 else tuple(range(m))
        sigmas = [_random_weight(rng, space.n) for _ in range(m)]
        omegas = [s_i ** (1.0 - p_i) for s_i, p_i in zip(sigmas, p)]
        u = _random_weight(rng, space.n)
        bs = [rng.standard_normal(space.n) for _ in range(m)]
        bmos = [bmo_norm(lattice, b) for b in bs]
        c0 = fujii_wilson_single(lattice, u) ** len(tau)
        for j in range(m):
            if j not in tau:
                c0 *= fujii_wilson_single(lattice, sigmas[j])
        for val in bmos:
            c0 *= val
        family = trial.family(lattice)
        # the first-order form: |b_i - <b_i>_Q| outside the average on tau
        pair = MultiIndexPair([int(i in tau) for i in range(m)], (0,) * m,
                              tau, tau)
        est_l, est_r, ratio = _norm_transfer(
            trial, space, cfg, family, bs, pair, family,
            ((omegas, u), (omegas, u)), c0, per_trial)
        if not math.isfinite(ratio) or ratio > CAOPRO_RATIO_BASELINE:
            trial.fail(tau=list(tau), ratio=ratio,
                       baseline=CAOPRO_RATIO_BASELINE, lhs_norm=est_l,
                       rhs_norm=est_r, c0=c0)
    report.worst_ratio = _worst(per_trial)
    report.explicit_constant = CAOPRO_RATIO_BASELINE
    report.details = {"per_trial": per_trial,
                      "baseline": CAOPRO_RATIO_BASELINE}


# -- checks: bloom_maximal / bloom_iterated -----------------------------------

_BLOOM_MAX_PRESETS = (
    ((2, 1, 0), (1, 0, 0), (0, 1)),
    ((1, 1, 0), (1, 0, 0), (0, 1)),
    ((2, 2, 0), (1, 1, 0), (0, 1)),
)


def _bloom_exponent(x: float) -> float:
    return max(1.0, 1.0 / (x - 1.0))


def _require_bloom_slots(cfg: ExponentConfig, presets) -> None:
    """Every slot the presets oscillate must exist, and the Bloom
    exponent needs p_i > 1 on it and q > 1."""
    slots = sorted({i for *_, tau in presets for i in tau})
    if cfg.m <= slots[-1] or cfg.q <= 1 or \
            min(cfg.p[i] for i in slots) <= 1:
        raise ValueError(f"the presets oscillate slots {slots}, which "
                         f"need p_i > 1 and q > 1; got p={list(cfg.p)}, "
                         f"q={cfg.q}")


def _run_bloom_maximal(spec: CheckSpec, report: CheckReport) -> None:
    cfg = spec.config or ExponentConfig(3, (2.0, 2.0, 2.0), 2.0)
    _require_bloom_slots(cfg, _BLOOM_MAX_PRESETS)
    space, lattice = spec.space, build_lattice(spec.space)
    m, p, q = cfg.m, cfg.p, cfg.q
    per_trial = []
    for trial, rng in _trials(spec, report):
        k, t, tau = _BLOOM_MAX_PRESETS[trial.index % len(_BLOOM_MAX_PRESETS)]
        t_total = sum(k[i] - t[i] for i in tau) - 1
        mus = [_random_weight(rng, space.n) for _ in range(m)]
        vs = {i: _random_weight(rng, space.n) for i in tau}
        lam = _random_weight(rng, space.n)
        bs = [rng.standard_normal(space.n) for _ in range(m)]
        etas = {i: (mus[i] / vs[i]) ** (1.0 / (t[i] * p[i]))
                for i in tau if t[i] > 0}
        eta0 = np.max(np.stack(list(etas.values())), axis=0)
        mu0 = lam * eta0 ** ((t_total + 1.0) * q)
        carriers = [vs[i] if i in tau else mus[i] for i in range(m)]
        w0 = (muckenhoupt_ap(lattice, lam, q) *
              muckenhoupt_ap(lattice, mu0, q)) ** (
                  (t_total + 1.0) / 2.0 * _bloom_exponent(q))
        for i in tau:
            w0 *= (muckenhoupt_ap(lattice, mus[i], p[i]) **
                   ((t[i] + 1.0) / 2.0) *
                   muckenhoupt_ap(lattice, vs[i], p[i]) **
                   ((t[i] - 1.0) / 2.0)) ** _bloom_exponent(p[i])
            if k[i] - t[i] > 0:
                w0 *= bmo_norm(lattice, bs[i],
                               weight=eta0) ** (k[i] - t[i])
            if t[i] > 0:
                w0 *= bmo_norm(lattice, bs[i], weight=etas[i]) ** t[i]
        family = trial.family(lattice)
        augmented = _augment_joint(family, [bs[i] for i in tau])
        est_l, est_r, ratio = _norm_transfer(
            trial, space, cfg, family, bs, MultiIndexPair(k, t, tau, tau),
            augmented, ((mus, lam), (carriers, mu0)), w0, per_trial,
            starts=1, rounds=2)
        if not math.isfinite(ratio):
            trial.fail(k=list(k), t=list(t), tau=list(tau), lhs_norm=est_l,
                       rhs_norm=est_r, transfer=w0)
    report.worst_ratio = _worst(per_trial)
    report.details = {"per_trial": per_trial}


_BLOOM_ITER_PRESETS = (
    ((1, 1, 1, 0), (0, 0, 0, 0), (0, 1, 2)),
    ((2, 1, 1, 0), (1, 0, 0, 0), (0, 1, 2)),
)


def _run_bloom_iterated(spec: CheckSpec, report: CheckReport) -> None:
    cfg = spec.config or ExponentConfig(4, (2.0,) * 4, 2.0)
    _require_bloom_slots(cfg, _BLOOM_ITER_PRESETS)
    space, lattice = spec.space, build_lattice(spec.space)
    m, p, q = cfg.m, cfg.p, cfg.q
    qx = _bloom_exponent(q)
    per_trial = []
    for trial, rng in _trials(spec, report):
        k, t, tau = _BLOOM_ITER_PRESETS[trial.index %
                                        len(_BLOOM_ITER_PRESETS)]
        zeta = _random_weight(rng, space.n)
        lam = _random_weight(rng, space.n)
        zetas = [_random_weight(rng, space.n) for _ in range(m)]
        thetas = {i: _random_weight(rng, space.n) for i in tau}
        xis = {i: _random_weight(rng, space.n) for i in tau}
        chain = {}
        for pos, slot in enumerate(tau):
            power = k[slot] - t[slot]
            if pos == 0:
                chain[slot] = (zeta / xis[tau[0]]) ** (1.0 / q)
            elif pos == len(tau) - 1:
                chain[slot] = (xis[slot] / lam) ** (1.0 / (power * q))
            else:
                nxt = tau[pos + 1]
                chain[slot] = (xis[slot] / xis[nxt]) ** \
                    (1.0 / (power * q))
        bs = []
        for i in range(m):
            raw = rng.standard_normal(space.n)
            if i in tau:
                raw = raw / bmo_norm(lattice, raw, weight=chain[i])
            bs.append(raw)
        last = tau[-1]
        part_one = muckenhoupt_ap(lattice, lam, q) * \
            muckenhoupt_ap(lattice, chain[last], q) ** (
                (k[last] - t[last] + 1.0) / 2.0 * qx)
        part_two = 1.0
        for pos in range(1, len(tau) - 1):
            slot = tau[pos]
            nxt = tau[pos + 1]
            part_two *= (
                muckenhoupt_ap(lattice, xis[nxt], q) **
                ((k[slot] - t[slot] + 1.0) / 2.0) *
                muckenhoupt_ap(lattice, xis[slot], q) **
                ((k[slot] - t[slot] - 1.0) / 2.0)) ** qx
        first = tau[0]
        second = tau[1]
        part_three = (
            muckenhoupt_ap(lattice, xis[second], q) **
            ((k[first] - t[first] - 2.0) / 2.0) *
            muckenhoupt_ap(lattice, xis[first], q) **
            ((k[first] - t[first]) / 2.0)) ** qx
        transfer = part_one * part_two * part_three
        for i in tau:
            transfer *= (
                muckenhoupt_ap(lattice, zetas[i], p[i]) **
                ((t[i] + 1.0) / 2.0) *
                muckenhoupt_ap(lattice, thetas[i], p[i]) **
                ((t[i] - 1.0) / 2.0)) ** _bloom_exponent(p[i])
        carriers = [thetas[i] if i in tau else zetas[i] for i in range(m)]
        family = trial.family(lattice)
        augmented = _augment_joint(family, [bs[i] for i in tau])
        est_l, est_r, ratio = _norm_transfer(
            trial, space, cfg, family, bs, MultiIndexPair(k, t, tau, tau),
            augmented, ((zetas, lam), (carriers, zeta)), transfer,
            per_trial, starts=1, rounds=2)
        if not math.isfinite(ratio):
            trial.fail(k=list(k), t=list(t), tau=list(tau), lhs_norm=est_l,
                       rhs_norm=est_r, transfer=transfer)
    report.worst_ratio = _worst(per_trial)
    report.details = {"per_trial": per_trial}


# -- check: sharp_maximal_commutator ------------------------------------------

def _run_sharp_maximal(spec: CheckSpec, report: CheckReport) -> None:
    cfg = spec.config or ExponentConfig(3, (2.0, 2.0, 2.0), 2.0)
    space, lattice = spec.space, build_lattice(spec.space)
    m, eta, r = cfg.m, cfg.eta, cfg.r
    tau = tuple(range(m - 1)) if m > 1 else (0,)
    delta = 0.25
    eps = 0.5
    phis = [young_identity() if i in tau else young_llogl(r)
            for i in range(m)]
    per_trial = []
    for trial, rng in _trials(spec, report):
        fs = [_random_function(rng, space.n, floor=1e-8)
              for _ in range(m)]
        bs = [rng.standard_normal(space.n) for _ in range(m)]
        bmos = [bmo_norm(lattice, b) for b in bs]
        family = trial.family(lattice)
        full = sparse_endpoint(family, fs, tau, eta=eta, r=r, symbols=bs,
                               osc_slots=tau, scales=bmos)
        lhs = sharp_maximal_dyadic(lattice, full, delta=delta)
        orlicz = orlicz_maximal(lattice, [np.abs(f) ** r for f in fs],
                                phis, eta=eta) ** (1.0 / r)
        gauged = sparse_endpoint(family, fs, tau=tau, eta=eta, r=r)
        rhs = math.prod(bmos) * (orlicz +
                                 power_maximal_dyadic(lattice, gauged, eps))
        for size in range(len(tau)):
            for sub in combinations(tau, size):
                rest = tuple(i for i in tau if i not in sub)
                lower = sparse_endpoint(family, fs, tau, eta=eta, r=r,
                                        symbols=bs, osc_slots=rest,
                                        scales=bmos)
                scale = math.prod(bmos[i] for i in sub)
                rhs = rhs + scale * power_maximal_dyadic(lattice, lower,
                                                         eps)
        trial_worst = _live_ratio(trial, lhs, rhs)
        if trial_worst is None:
            continue
        per_trial.append(trial_worst)
        if not math.isfinite(trial_worst):
            trial.fail(ratio=trial_worst)
    report.worst_ratio = _worst(per_trial)
    report.details = {"per_trial": per_trial, "delta": delta,
                      "epsilon": eps}


# -- registry -----------------------------------------------------------------

REGISTRY = {
    "holder_eq": RegistryEntry(MODE_EXACT, 200, _run_holder),
    "dyadic_maximal": RegistryEntry(MODE_CONSTANT, 500,
                                    _run_dyadic_maximal),
    "thm_astar_chain": RegistryEntry(MODE_CONSTANT, 200, _run_astar_chain),
    "dyadicsum_equiv": RegistryEntry(MODE_MONITOR, 60, _run_dyadicsum),
    "kolmogorov_sum": RegistryEntry(MODE_MONITOR, 80, _run_kolmogorov),
    "testing_lemma": RegistryEntry(MODE_CONSTANT, 60, _run_testing),
    "endpoint_weak": RegistryEntry(MODE_MONITOR, 24, _run_endpoint_weak),
    "m_vs_i": RegistryEntry(MODE_CONSTANT, 40, _run_m_vs_i),
    "bmo_lemmas": RegistryEntry(MODE_MONITOR, 40, _run_bmo),
    "caopro_norm_transfer": RegistryEntry(MODE_MONITOR, 10, _run_caopro),
    "bloom_maximal": RegistryEntry(MODE_MONITOR, 10, _run_bloom_maximal),
    "bloom_iterated": RegistryEntry(MODE_MONITOR, 4, _run_bloom_iterated),
    "sharp_maximal_commutator": RegistryEntry(MODE_MONITOR, 12,
                                              _run_sharp_maximal),
}


def registry_ids() -> list:
    return sorted(REGISTRY)


def run_check(spec: CheckSpec) -> CheckReport:
    entry = REGISTRY.get(spec.check_id)
    if entry is None:
        raise ValueError(
            f"unknown check id {spec.check_id!r}; valid ids: "
            + ", ".join(registry_ids()))
    if spec.trials < 0:
        raise ValueError(f"trials must be >= 0, got {spec.trials}")
    trials = spec.trials if spec.trials > 0 else entry.default_trials
    report = CheckReport(spec.check_id, entry.mode, trials)
    start = perf_counter()
    entry.runner(spec, report)
    report.runtime = perf_counter() - start
    return report
