"""Command-line front end.

One self-describing JSON config drives every subcommand; command-line
flags override the matching config fields.  All reports carry the schema
tag "sparselab-report/1" and are written atomically (write to a
temporary file, then rename), so a failed run never leaves a partial
output file.  Report content is bit-identical for identical (config,
seed); only ``--audit`` extras carry wall-clock timings and are
exempt.

Exit codes: 0 success, 1 a check or certificate failed, 2 configuration
error.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile

import click
import numpy as np

from .domination import DominationError, cz_construct, verify_domination
from .dyadic import (WitnessSelectionError, build_shifted_adjacent,
                     build_standard_lattice, lattice_to_descriptor,
                     random_sparse_family, select_witnesses)
from .operators import MultiIndexPair, sparse_coefficients
from .space import space_from_descriptor, space_to_descriptor
from .space import doubling_constant as space_doubling_constant
from .verify import CheckSpec, registry_ids, run_check
from .weights import (ExponentConfig, dual_weight,
                      fractional_apq_constant, fujii_wilson_constant,
                      fujii_wilson_single, hruscev_constant,
                      joint_astar_constant, component_hruscev_constant,
                      component_wilson_constant, make_weight, muckenhoupt_ap)

SCHEMA = "sparselab-report/1"

CONSTANT_KINDS = ("A_p", "A_inf_fujii", "A_pq_star", "A_pq",
                  "W_inf", "H_inf", "W_inf_i", "H_inf_i")

_TOP_FIELDS = {"schema", "space", "lattice", "exponents", "weights",
               "functions", "symbols", "family", "pair", "checks", "kinds",
               "seed", "trials", "n", "out", "eta", "alpha"}


class ConfigError(click.UsageError):
    """Configuration problem; maps to exit code 2."""


# -- config plumbing ---------------------------------------------------------

def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be a JSON object")
    for key in raw:
        if key not in _TOP_FIELDS:
            raise ConfigError(f"config: unknown field {key!r}")
    return raw


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    return _is_int(v) or isinstance(v, float)


def _int_field(obj, key, where, default=None, minimum=None):
    val = obj.get(key, default)
    if val is None:
        return None
    if not _is_int(val):
        raise ConfigError(f"{where}.{key} must be an integer")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{where}.{key} must be >= {minimum}")
    return val


def _num_field(obj, key, where, default=None):
    val = obj.get(key, default)
    if val is None:
        return None
    if not _is_num(val):
        raise ConfigError(f"{where}.{key} must be a number")
    return float(val)


def _require_finite(val, name):
    if not math.isfinite(val):
        raise ConfigError(f"{name} must be a finite number")


def _section(cfg, name, fields, default=None):
    """The config object under name, every key one of fields; a missing
    or null section reads as default."""
    sec = cfg.get(name)
    if sec is None:
        return default
    if not isinstance(sec, dict):
        raise ConfigError(f"{name} must be an object")
    for key in sec:
        if key not in fields:
            raise ConfigError(f"{name}.{key} is not a recognized field")
    return sec


def _space_from_config(cfg, n_flag, grid_for=None):
    desc = dict(_section(cfg, "space",
                         ("kind", "n", "masses", "metric", "a0"), default={}))
    desc.setdefault("kind", "grid")
    if desc["kind"] not in ("grid", "explicit"):
        raise ConfigError(f"space.kind must be 'grid' or 'explicit', "
                          f"got {desc['kind']!r}")
    if grid_for is not None and desc["kind"] != "grid":
        raise ConfigError(f"{grid_for} needs a grid space, not space.kind "
                          f"{desc['kind']!r}")
    if n_flag is not None:
        desc["n"] = n_flag
        masses = desc.get("masses")
        if isinstance(masses, list) and len(masses) != n_flag:
            # flag overrides the whole space shape, not just the label
            desc.pop("masses")
    if "n" in desc and not _is_int(desc["n"]):
        raise ConfigError("space.n must be an integer")
    if "masses" in desc and desc["masses"] is not None:
        if not isinstance(desc["masses"], list):
            raise ConfigError("space.masses must be an array")
        for i, v in enumerate(desc["masses"]):
            if not (_is_num(v) or isinstance(v, str)):
                raise ConfigError(f"space.masses[{i}] must be a number "
                                  "or a decimal string")
    if "n" not in desc and "masses" not in desc:
        desc["n"] = 16
    try:
        return space_from_descriptor(desc)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"space: {exc}") from None


def _exponents_from_config(cfg):
    exp = _section(cfg, "exponents",
                   ("m", "p", "q", "eta", "p0", "gamma", "r"))
    if exp is None:
        return None
    p = exp.get("p")
    if not isinstance(p, list) or not p or not all(_is_num(v) for v in p):
        raise ConfigError("exponents.p must be a non-empty number array")
    m = _int_field(exp, "m", "exponents", default=len(p), minimum=1)
    if m != len(p):
        raise ConfigError("exponents.m disagrees with the length of "
                          "exponents.p")
    q = _num_field(exp, "q", "exponents")
    if q is None:
        raise ConfigError("exponents.q is required")
    try:
        return ExponentConfig(
            m, tuple(float(v) for v in p), q,
            eta=_num_field(exp, "eta", "exponents"),
            p0=_num_field(exp, "p0", "exponents", default=1.0),
            gamma=_num_field(exp, "gamma", "exponents", default=1.0),
            r=_num_field(exp, "r", "exponents", default=1.0))
    except ValueError as exc:
        raise ConfigError(f"exponents: {exc}") from None


def _array_spec(space, spec, where, allow_negative=False, positive=False):
    """A preset string or an inline array, checked alike: finite, and
    nonnegative or strictly positive as asked."""
    if isinstance(spec, str):
        try:
            with np.errstate(over="ignore"):  # an overflow fails below
                arr = make_weight(space, spec)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    elif isinstance(spec, list):
        if len(spec) != space.n or not all(_is_num(v) for v in spec):
            raise ConfigError(f"{where} must be a length-{space.n} "
                              "number array")
        arr = np.array([float(v) for v in spec])
    else:
        raise ConfigError(f"{where} must be a preset string or an array")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{where} must hold finite numbers")
    if not allow_negative and np.any(arr < 0.0):
        raise ConfigError(f"{where} must be nonnegative")
    if positive and np.any(arr <= 0.0):
        raise ConfigError(f"{where} must be strictly positive")
    return arr


def _weights_from_config(space, cfg, flags):
    specs = list(flags) if flags else cfg.get("weights")
    if specs is None or not isinstance(specs, list) or not specs:
        raise ConfigError("weights: at least one weight is required "
                          "(--weight flag or config array)")
    return [_array_spec(space, s, f"weights[{i}]", positive=True)
            for i, s in enumerate(specs)]


def _functions_from_config(space, cfg, count, seed, salt, key="functions",
                           signed=False):
    specs = cfg.get(key)
    if specs is None:
        rng = np.random.default_rng((seed, salt))
        draws = rng.standard_normal((count, space.n))
        return [d if signed else np.abs(d) for d in draws]
    if not isinstance(specs, list):
        raise ConfigError(f"{key} must be an array")
    if len(specs) != count:
        raise ConfigError(f"{key} must provide {count} entries "
                          f"(one per slot), got {len(specs)}")
    return [_array_spec(space, s, f"{key}[{i}]", allow_negative=signed)
            for i, s in enumerate(specs)]


# -- output plumbing ---------------------------------------------------------

def _write_text(path, text):
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sparselab-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text, out):
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        click.echo(text, nl=False)
    else:
        _write_text(out, text)


def _json_payload(payload) -> str:
    """Strict JSON text; a NaN or infinite float is written as the string
    "NaN", "Infinity" or "-Infinity"."""
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        return json.dumps(_nonfinite_as_strings(payload), sort_keys=True,
                          indent=2, allow_nan=False)


def _nonfinite_as_strings(value):
    if isinstance(value, dict):
        return {k: _nonfinite_as_strings(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nonfinite_as_strings(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return json.dumps(value)  # "NaN", "Infinity" or "-Infinity"
    return value


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# -- group -------------------------------------------------------------------

@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.option("--config", "config_path",
              type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON experiment config; flags override its fields.")
@click.option("--seed", type=int, default=None,
              help="Global RNG seed (default 1).")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Output file; stdout when omitted.")
@click.option("--audit", is_flag=True,
              help="Include per-point / timing detail (audit outputs "
                   "are not bit-stable).")
@click.version_option(package_name="sparselab", prog_name="sparselab")
@click.pass_context
def cli(ctx, config_path, seed, out_path, audit):
    """Sparse-operator laboratory on finite spaces of homogeneous type."""
    cfg = _load_config(config_path)
    if seed is None:
        seed = _int_field(cfg, "seed", "config", default=1, minimum=0)
    elif seed < 0:
        raise ConfigError("seed must be >= 0")
    if out_path is None:
        out = cfg.get("out")
        if out is not None and not isinstance(out, str):
            raise ConfigError("config.out must be a string path")
        out_path = out
    ctx.obj = {"cfg": cfg, "seed": seed, "out": out_path, "audit": audit}


# -- space -------------------------------------------------------------------

@cli.command("space")
@click.option("--n", type=int, default=None,
              help="Grid size (power of two); overrides the config.")
@click.pass_context
def cmd_space(ctx, n):
    """Build the point space and emit its descriptor plus doubling data."""
    space = _space_from_config(ctx.obj["cfg"], n)
    payload = {
        "schema": SCHEMA,
        "report": "space",
        "space": space_to_descriptor(space),
        "n": space.n,
        "mass_total": float(space.masses.sum()),
        "quasi_triangle_constant": space.a0,
        "doubling_constant": space_doubling_constant(space),
    }
    _emit(_json_payload(payload), ctx.obj["out"])


# -- lattice -----------------------------------------------------------------

@cli.command("lattice")
@click.option("--n", type=int, default=None)
@click.option("--shifts", type=int, default=None,
              help="Cyclically shifted systems to build (default 1).")
@click.option("--csv", "csv_path", type=click.Path(), default=None,
              help="Also write the per-cube CSV table here.")
@click.pass_context
def cmd_lattice(ctx, n, shifts, csv_path):
    """Build dyadic lattices and emit their cube dumps."""
    cfg = ctx.obj["cfg"]
    lat_cfg = _section(cfg, "lattice", ("shifts",), default={})
    if shifts is None:
        shifts = _int_field(lat_cfg, "shifts", "lattice", default=1,
                            minimum=1)
    elif shifts < 1:
        raise ConfigError("shifts must be >= 1")
    space = _space_from_config(cfg, n, grid_for="lattice")
    payload = {"schema": SCHEMA, "report": "lattice"}
    if shifts == 1:
        lattices = [build_standard_lattice(space)]
    else:
        systems = build_shifted_adjacent(space, shifts)
        lattices = systems.lattices
        payload["c_adj"] = systems.c_adj
        # every shift yields a lattice; the report keeps the field empty
        payload["skipped_shifts"] = []
    payload["systems"] = len(lattices)
    payload["cube_count"] = sum(len(lat.cubes) for lat in lattices)
    payload["lattices"] = [lattice_to_descriptor(lat) for lat in lattices]
    _emit(_json_payload(payload), ctx.obj["out"])
    if csv_path is not None:
        rows = [(lat.system, c.cube_id, c.gen, repr(c.mass))
                for lat in lattices for c in lat.cubes]
        _write_text(csv_path,
                    _csv_text(("system", "id", "gen", "mass"), rows))


# -- constants ---------------------------------------------------------------

def _require_exponents(ecfg, kind, m):
    if ecfg is None:
        raise ConfigError(f"{kind} needs an exponents config "
                          "(config field 'exponents')")
    if ecfg.m != m:
        raise ConfigError(f"exponents.m = {ecfg.m} but {m} weights given")


_JOINT_CONSTANTS = {"A_pq_star": joint_astar_constant,
                    "A_pq": fractional_apq_constant,
                    "W_inf": fujii_wilson_constant, "H_inf": hruscev_constant}


def _constant_rows(kind, lattice, ws, ecfg):
    m = len(ws)
    if kind == "A_p":
        p = ecfg.q if ecfg is not None else 2.0
        return [(f"A_p:{i}", *muckenhoupt_ap(lattice, w, p, detail=True))
                for i, w in enumerate(ws)]
    if kind == "A_inf_fujii":
        return [(f"A_inf_fujii:{i}",
                 *fujii_wilson_single(lattice, w, detail=True))
                for i, w in enumerate(ws)]
    if kind in _JOINT_CONSTANTS:
        _require_exponents(ecfg, kind, m)
        return [(kind, *_JOINT_CONSTANTS[kind](
            lattice, ws, ecfg.p, ecfg.q, detail=True))]
    if kind in ("W_inf_i", "H_inf_i"):
        _require_exponents(ecfg, kind, m)
        sigmas = [dual_weight(w, pi) for w, pi in zip(ws, ecfg.p)]
        u = np.prod(np.stack([w ** (ecfg.q / pi)
                              for w, pi in zip(ws, ecfg.p)]), axis=0)
        fn = (component_wilson_constant if kind == "W_inf_i"
              else component_hruscev_constant)
        return [(f"{kind}:{i}", *fn(lattice, u, sigmas, ecfg.p, ecfg.q,
                                    ecfg.gamma, i, detail=True))
                for i in range(m)]
    raise ConfigError(f"unknown constant kind {kind!r}; valid kinds: "
                      + ", ".join(CONSTANT_KINDS))


@cli.command("constants")
@click.option("--n", type=int, default=None)
@click.option("--kind", "kinds", multiple=True,
              help="Constant kind (repeatable); see 'constants --help'. "
                   "Kinds: " + ", ".join(CONSTANT_KINDS) + ".")
@click.option("--weight", "weight_flags", multiple=True,
              help="Weight preset (repeatable): const, step, power:a, "
                   "random:seed.")
@click.pass_context
def cmd_constants(ctx, n, kinds, weight_flags):
    """Compute weight characteristics as CSV rows kind,value,argmax."""
    cfg = ctx.obj["cfg"]
    space = _space_from_config(cfg, n, grid_for="constants")
    lattice = build_standard_lattice(space)
    kinds = list(kinds) or cfg.get("kinds") or []
    if not isinstance(kinds, list) or not all(isinstance(k, str)
                                              for k in kinds):
        raise ConfigError("kinds must be an array of strings")
    if not kinds:
        raise ConfigError("kinds: at least one constant kind is required "
                          "(--kind flag or config array)")
    ws = _weights_from_config(space, cfg, weight_flags)
    ecfg = _exponents_from_config(cfg)
    rows = []
    for kind in kinds:
        try:
            kind_rows = _constant_rows(kind, lattice, ws, ecfg)
        except ValueError as exc:
            raise ConfigError(f"{kind}: {exc}") from None
        for label, value, cube_id in kind_rows:
            rows.append((label, repr(float(value)),
                         "" if cube_id is None else cube_id))
    _emit(_csv_text(("kind", "value", "argmax_cube"), rows),
          ctx.obj["out"])


# -- sparse ------------------------------------------------------------------

def _family_from_config(cfg, lattice, seed):
    fam_cfg = _section(cfg, "family", ("cube_ids", "delta"))
    if fam_cfg is None:
        return random_sparse_family(
            lattice, np.random.default_rng((seed, 101)))
    ids = fam_cfg.get("cube_ids")
    if not isinstance(ids, list) or not all(_is_int(v) for v in ids):
        raise ConfigError("family.cube_ids must be an integer array")
    cubes = len(lattice.cubes)
    if not all(0 <= v < cubes for v in ids):
        raise ConfigError(f"family.cube_ids must lie in [0, {cubes})")
    delta = _num_field(fam_cfg, "delta", "family", default=0.5)
    try:
        return select_witnesses(lattice, ids, delta)
    except WitnessSelectionError as exc:
        raise ConfigError(f"family: {exc}") from None


@cli.command("sparse")
@click.option("--n", type=int, default=None)
@click.option("--eta", type=float, default=None,
              help="Mass exponent (default from exponents config, else 0).")
@click.option("--dump-per-cube", "dump_path", type=click.Path(),
              default=None, help="CSV of each cube's coefficient.")
@click.pass_context
def cmd_sparse(ctx, n, eta, dump_path):
    """Apply the basic sparse form to the configured arguments."""
    cfg, seed = ctx.obj["cfg"], ctx.obj["seed"]
    space = _space_from_config(cfg, n, grid_for="sparse")
    lattice = build_standard_lattice(space)
    family = _family_from_config(cfg, lattice, seed)
    ecfg = _exponents_from_config(cfg)
    m = ecfg.m if ecfg is not None else 1
    p0 = ecfg.p0 if ecfg is not None else 1.0
    gamma = ecfg.gamma if ecfg is not None else 1.0
    if eta is None:
        eta = ecfg.eta if ecfg is not None else 0.0
    _require_finite(eta, "eta")
    if eta < 0:
        raise ConfigError("eta must be >= 0")
    fs = _functions_from_config(space, cfg, m, seed, 7)
    coeffs = sparse_coefficients(lattice, fs, eta=eta, p0=p0, gamma=gamma)
    out_arr = family.pointwise(coeffs) ** (1.0 / gamma)
    payload = {
        "schema": SCHEMA,
        "report": "sparse",
        "eta": eta, "p0": p0, "gamma": gamma, "slots": m,
        "family": {"delta": family.delta,
                   "cube_ids": list(family.cube_ids)},
        "output": out_arr.tolist(),
    }
    _emit(_json_payload(payload), ctx.obj["out"])
    if dump_path is not None:
        rows = [(cid, lattice.cube(cid).gen, repr(lattice.cube(cid).mass),
                 repr(float(coeffs[cid]))) for cid in family.cube_ids]
        _write_text(dump_path, _csv_text(
            ("cube_id", "gen", "mass", "coefficient"), rows))


# -- dominate ----------------------------------------------------------------

def _pair_from_config(cfg, k_flag):
    pair_cfg = _section(cfg, "pair", ("k", "tau_ell"), default={})
    if k_flag is not None:
        try:
            k = tuple(int(v) for v in k_flag.split(","))
        except ValueError:
            raise ConfigError("--k must be comma-separated integers, "
                              "e.g. 1,0") from None
    else:
        k = pair_cfg.get("k", [1])
        if not isinstance(k, list) or not all(_is_int(v) for v in k):
            raise ConfigError("pair.k must be an integer array")
        k = tuple(k)
    tau_ell = pair_cfg.get("tau_ell")
    if tau_ell is None:
        tau_ell = tuple(i for i, ki in enumerate(k) if ki > 0)
    elif not isinstance(tau_ell, list) or \
            not all(_is_int(v) for v in tau_ell):
        raise ConfigError("pair.tau_ell must be an integer array")
    try:
        return MultiIndexPair(k=k, t=(0,) * len(k), tau=(),
                              tau_ell=tuple(tau_ell))
    except ValueError as exc:
        raise ConfigError(f"pair: {exc}") from None


@cli.command("dominate")
@click.option("--n", type=int, default=None)
@click.option("--shifts", type=int, default=None)
@click.option("--eta", type=float, default=None)
@click.option("--k", "k_flag", default=None,
              help="Comma-separated oscillation orders per slot, "
                   "e.g. 1,0.")
@click.option("--alpha", type=float, default=None,
              help="Level-set step factor (default 1).")
@click.option("--audit-csv", "audit_csv", type=click.Path(), default=None,
              help="Per-point CSV path (implied by --audit when --out "
                   "is a file).")
@click.pass_context
def cmd_dominate(ctx, n, shifts, eta, k_flag, alpha, audit_csv):
    """Run the stopping-time construction and emit its certificate."""
    cfg, seed = ctx.obj["cfg"], ctx.obj["seed"]
    space = _space_from_config(cfg, n, grid_for="dominate")
    if shifts is None:
        shifts = 1
    elif shifts < 1:
        raise ConfigError("shifts must be >= 1")
    pair = _pair_from_config(cfg, k_flag)
    m = pair.m
    if m > 3:
        raise ConfigError(f"pair has {m} slots; dominate supports at most 3")
    if eta is None:
        eta = _num_field(cfg, "eta", "config", default=0.0)
    _require_finite(eta, "eta")
    if not 0 <= eta < m:
        raise ConfigError(f"eta must lie in [0, {m}) (m = slot count)")
    if alpha is None:
        alpha = _num_field(cfg, "alpha", "config", default=1.0)
    _require_finite(alpha, "alpha")
    if alpha <= 0.0:
        raise ConfigError("alpha must be positive")
    fs = _functions_from_config(space, cfg, m, seed, 5)
    symbols = _functions_from_config(space, cfg, m, seed, 6, key="symbols",
                                     signed=True)
    systems = build_shifted_adjacent(space, shifts)
    try:
        cert = cz_construct(space, systems, fs, symbols, pair, eta, alpha)
    except DominationError as exc:
        # a construction that cannot finish is a failed certificate
        raise click.ClickException(str(exc)) from None
    lhs, rhs = cert.per_point["lhs"], cert.per_point["rhs"]
    verdict = verify_domination(cert, lhs, rhs)
    payload = {
        "schema": SCHEMA,
        "report": "dominate",
        "certificate": cert.to_descriptor(audit=ctx.obj["audit"]),
        "verification": verdict,
    }
    _emit(_json_payload(payload), ctx.obj["out"])
    if audit_csv is None and ctx.obj["audit"] and ctx.obj["out"]:
        audit_csv = str(ctx.obj["out"]) + ".audit.csv"
    if audit_csv is not None:
        ratio = cert.per_point["ratio"]
        rows = [(x, repr(float(lhs[x])), repr(float(rhs[x])),
                 repr(float(ratio[x]))) for x in range(space.n)]
        _write_text(audit_csv,
                    _csv_text(("point", "lhs", "rhs", "ratio"), rows))
    if not verdict["pass"]:
        click.echo("certificate verification FAILED", err=True)
        ctx.exit(1)


# -- verify ------------------------------------------------------------------

@cli.command("verify")
@click.argument("check_ids", nargs=-1)
@click.option("--trials", type=int, default=None,
              help="Trials per check (0 keeps each check's default).")
@click.option("--n", type=int, default=None,
              help="Grid size for the checks (default 16).")
@click.option("--report", "report_path", type=click.Path(), default=None,
              help="Report JSON path (overrides --out).")
@click.pass_context
def cmd_verify(ctx, check_ids, trials, n, report_path):
    """Run numerical proof-step checks from the registry.

    CHECK_IDS are registry ids, or the single word 'all'.
    """
    cfg, seed = ctx.obj["cfg"], ctx.obj["seed"]
    ids = list(check_ids)
    if not ids:
        ids = cfg.get("checks") or []
        if not isinstance(ids, list) or not all(isinstance(v, str)
                                                for v in ids):
            raise ConfigError("checks must be an array of check ids")
    if ids == ["all"]:
        ids = registry_ids()
    if not ids:
        raise ConfigError("checks: empty check list; pass check ids "
                          "or 'all'")
    valid = registry_ids()
    for cid in ids:
        if cid not in valid:
            raise ConfigError(f"unknown check id {cid!r}; valid ids: "
                              + ", ".join(valid))
    if trials is None:
        trials = _int_field(cfg, "trials", "config", default=0, minimum=0)
    elif trials < 0:
        raise ConfigError("trials must be >= 0")
    if n is None:
        n = _int_field(cfg, "n", "config", default=16, minimum=2)
    elif n < 2:
        raise ConfigError("n must be >= 2")
    ecfg = _exponents_from_config(cfg)
    reports = []
    for cid in ids:
        spec = CheckSpec(check_id=cid, config=ecfg, n=n, trials=trials,
                         seed=seed)
        try:
            reports.append(run_check(spec))
        except ValueError as exc:
            raise ConfigError(f"{cid}: {exc}") from None
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        click.echo(f"{rep.check_id}: {status} ({rep.mode}, "
                   f"trials={rep.trials}, worst={rep.worst_ratio!r})")
    payload = {
        "schema": SCHEMA,
        "report": "verify",
        "seed": seed,
        "n": n,
        "passed": all(rep.passed for rep in reports),
        "checks": [rep.to_descriptor(include_runtime=ctx.obj["audit"])
                   for rep in reports],
    }
    target = report_path or ctx.obj["out"]
    if target is not None:
        _write_text(target, _json_payload(payload) + "\n")
    if not payload["passed"]:
        ctx.exit(1)


def main(argv=None):
    return cli.main(args=argv, prog_name="sparselab")


if __name__ == "__main__":
    main()
