"""Workload definitions and seeded input generation.

Every item is one ``sparselab`` CLI invocation.  The benchmark draws the
function and symbol arrays that ``dominate`` and ``sparse`` consume from
its own seeded generator and hands them to the program inline, through a
config file; ``verify`` and the ``sparse`` witness family get a program
seed through ``--seed``.  The program sees only these generated inputs.

Pass ``variant`` of a run at ``seed`` draws its inputs from
``(seed, variant)``: every pass runs the same item shapes on fresh inputs,
built to need the same work in every pass (see BASE_DRAW and
VERIFY_SEEDS).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 1

# Check id -> trial count for one verify item.  Every check runs at n = 64,
# but with fewer trials than its registry default, so that each item takes
# well under a second on a 2 GHz core, one pass a few seconds, and a run
# holds several passes.  With one trial, bloom_iterated, bloom_maximal
# and caopro_norm_transfer run only the first of the settings they cycle
# through per trial.  0 keeps the registry default.
VERIFY_TRIALS = {
    "bloom_iterated": 1,
    "bloom_maximal": 1,
    "bmo_lemmas": 2,
    "caopro_norm_transfer": 1,
    "dyadic_maximal": 200,
    "dyadicsum_equiv": 0,
    "endpoint_weak": 0,
    "holder_eq": 0,
    "kolmogorov_sum": 0,
    "m_vs_i": 8,
    "sharp_maximal_commutator": 2,
    "testing_lemma": 0,
    "thm_astar_chain": 50,
}

# The checks draw their trial data from --seed, and the cost of a trial
# depends strongly on it: the random sparse families behind bloom_*,
# caopro_norm_transfer and sharp_maximal_commutator vary in size, and one
# item's time varies by up to 3x between program seeds.  So verify items
# take their program seed from this fixed pool: pass v of a run at seed s
# uses VERIFY_SEEDS[(s + v) % len(VERIFY_SEEDS)].  Passes that share a
# pool seed form one group (SEED_GROUPS), and an item's time is averaged
# over the groups with equal weight, so every run weighs the whole pool
# alike whatever its number of passes.
VERIFY_SEEDS = (1, 2)

# (n, k, shifts) per dominate item.  With one shift the dilation is so
# large that every truncated grand-maximal profile is zero; with three the
# profiles are nonzero and the fractional integral does the work.
DOMINATE_WIDE = ((64, (1, 1), 1), (128, (1,), 1), (128, (1, 1), 1))
DOMINATE_TIGHT = ((64, (1, 1), 3), (128, (2,), 3), (128, (1,), 3))

# The stopping-time work depends strongly on the draw: over fresh
# abs-normal draws the truncated grand-maximal call count of one item
# varies by 17-33 % (coefficient of variation), and even a 1 % jitter
# changes an item's time by up to half.  So every dominate item takes one
# fixed draw (BASE_DRAW) and scales each function row by 2^e and each
# symbol row by 2^g, with e and g drawn from the seed.  Every comparison
# the construction makes is between terms of equal degree in each row, so
# a power-of-two scaling leaves the certificate's cubes and alpha exactly
# as they are (INVARIANT_KEYS): each pass needs the same work, the inputs
# still differ, and the cubes can be checked at every seed.
BASE_DRAW = 20241230
FUNCTION_EXPONENTS = 8
SYMBOL_EXPONENTS = 3
INVARIANT_KEYS = ("cube_ids", "systems", "alpha")

SCALE_N = 2048
SCALE_SHIFTED = (256, 3)

WORKLOADS = ("dominate-wide", "dominate-tight", "verify-scale")
SEED_GROUPS = {"verify-scale": len(VERIFY_SEEDS)}
WHY = {
    "dominate-wide": "default dominate traffic (--shifts 1): every grand-"
                     "maximal profile is zero, so time goes to ball "
                     "enumeration, kernel rebuilds and c_adj",
    "dominate-tight": "dominate --shifts 3: same code as dominate-wide but "
                      "every grand-maximal profile is nonzero, so the "
                      "fractional integral runs on every kept ball",
    "verify-scale": "13 registry checks at n=64 (Luxemburg bisections, "
                    "sparse-form probes) plus one-shot n=2048 space, "
                    "lattice, constants and sparse runs (dense tables, "
                    "memory)",
}


@dataclass(frozen=True)
class Item:
    """One CLI invocation: global flags, subcommand argv and the inline
    config it reads (None when it reads none).  ``kind`` names the oracle
    view that applies to its output."""

    item_id: str
    kind: str
    argv: tuple
    config: dict | None = None

    def config_text(self) -> str | None:
        if self.config is None:
            return None
        return json.dumps(self.config, sort_keys=True)

    def input_key(self) -> str:
        """Digest of everything the program reads for this item."""
        text = json.dumps([self.argv, self.config_text()])
        return hashlib.sha256(text.encode()).hexdigest()[:24]


def _abs_normal(key: list, n: int) -> list:
    rng = np.random.default_rng(key + [0])
    return np.abs(rng.standard_normal((1, n)))[0].tolist()


def _program_seed(key: list) -> str:
    return str(int(np.random.SeedSequence(key).generate_state(1)[0]) >> 1)


def _dominate_inputs(key: list, index: int, m: int, n: int) -> dict:
    base = np.random.default_rng([BASE_DRAW, index])
    fs = np.abs(base.standard_normal((m, n)))
    symbols = base.standard_normal((m, n))
    rng = np.random.default_rng(key + [index])
    fs = np.ldexp(fs, rng.integers(-FUNCTION_EXPONENTS,
                                   FUNCTION_EXPONENTS + 1, (m, 1)))
    symbols = np.ldexp(symbols, rng.integers(-SYMBOL_EXPONENTS,
                                             SYMBOL_EXPONENTS + 1, (m, 1)))
    return {"functions": [row.tolist() for row in fs],
            "symbols": [row.tolist() for row in symbols]}


def _dominate_items(key: list, specs) -> list:
    items = []
    for index, (n, k, shifts) in enumerate(specs):
        m = len(k)
        ks = ",".join(str(v) for v in k)
        config = _dominate_inputs(key, index, m, n)
        items.append(Item(
            f"dominate-n{n}-k{ks.replace(',', '_')}-s{shifts}", "dominate",
            ("dominate", "--n", str(n), "--k", ks, "--shifts", str(shifts)),
            config))
    return items


def _verify_items(seed: int, variant: int) -> list:
    program_seed = VERIFY_SEEDS[(seed + variant) % len(VERIFY_SEEDS)]
    return [Item(f"verify-{cid}", "verify",
                 ("--seed", str(program_seed), "verify", cid, "--n", "64",
                  "--trials", str(trials)))
            for cid, trials in sorted(VERIFY_TRIALS.items())]


def _scale_items(key: list) -> list:
    n = str(SCALE_N)
    sparse_config = {"functions": [_abs_normal(key, SCALE_N)]}
    shifted_n, shifts = SCALE_SHIFTED
    return [
        Item(f"space-n{n}", "payload", ("space", "--n", n)),
        Item(f"lattice-n{n}", "payload", ("lattice", "--n", n)),
        Item(f"constants-n{n}", "payload",
             ("constants", "--n", n, "--kind", "A_p", "--weight", "step")),
        Item(f"sparse-n{n}", "payload",
             ("--seed", _program_seed(key), "sparse", "--n", n),
             sparse_config),
        Item(f"lattice-n{shifted_n}-s{shifts}", "payload",
             ("lattice", "--n", str(shifted_n), "--shifts", str(shifts))),
    ]


def build_items(workload: str, seed: int, variant: int) -> list:
    """The items of pass ``variant`` at ``seed``, in the order the pass
    runs them."""
    key = [seed, variant]
    if workload == "dominate-wide":
        return _dominate_items(key, DOMINATE_WIDE)
    if workload == "dominate-tight":
        return _dominate_items(key, DOMINATE_TIGHT)
    if workload == "verify-scale":
        return _verify_items(seed, variant) + _scale_items(key)
    raise ValueError(f"unknown workload {workload!r}; valid: "
                     + ", ".join(WORKLOADS))
