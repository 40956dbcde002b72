"""Command-line front end.

One self-describing JSON config drives every subcommand; command-line
flags override the matching config fields.  Every command runs on the
space the config declares, grid or explicit, with the lattice
``dyadic.build_lattice`` gives it; a lattice dyadic cannot build
(``LatticeError``, e.g. shifted systems off a grid) is a configuration
error.  All reports carry the schema tag "sparselab-report/1".  Every
output path is checked before the work starts, and each file is written
atomically (a temporary file, then a rename), so no partial file
survives a failure.  Report content is bit-identical for identical (config,
seed); only ``--audit`` extras carry wall-clock timings and are exempt.

A number setting has one reader, ``_setting``, and an array one,
``_entries``: the flag (an array flag's entries, if any) if given, else
the config field, else the default, checked alike whatever its source;
a field set to null reads as absent.  The README's CLI section tables
every setting with its flag, config field, default and commands.

Exit codes: 0 success, 1 a check or certificate failed, 2 configuration
error.
"""

from __future__ import annotations

import csv
import errno
import functools
import io
import json
import math
import os
import uuid

import click
import numpy as np

from .domination import DominationError, cz_construct, verify_domination
from .dyadic import (LatticeError, WitnessSelectionError, build_lattice,
                     build_shifted_adjacent, lattice_to_descriptor,
                     random_sparse_family, select_witnesses)
from .operators import MultiIndexPair, sparse_coefficients
from .space import space_from_descriptor, space_to_descriptor
from .space import doubling_constant as space_doubling_constant
from .verify import CheckSpec, registry_ids, run_check
from .weights import (ExponentConfig, dual_weight,
                      fractional_apq_constant, fujii_wilson_constant,
                      fujii_wilson_single, hruscev_constant,
                      joint_astar_constant, component_hruscev_constant,
                      component_wilson_constant, make_weight, muckenhoupt_ap,
                      target_weight)

SCHEMA = "sparselab-report/1"

CONSTANT_KINDS = ("A_p", "A_inf_fujii", "A_pq_star", "A_pq",
                  "W_inf", "H_inf", "W_inf_i", "H_inf_i")

_TOP_FIELDS = {"schema", "space", "lattice", "exponents", "weights",
               "functions", "symbols", "family", "pair", "checks", "kinds",
               "seed", "trials", "out", "eta", "alpha"}


class ConfigError(click.UsageError):
    """Configuration problem; maps to exit code 2."""


# -- config plumbing ---------------------------------------------------------

def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: {exc}") from None
    except ValueError as exc:  # bad JSON or bytes that are not UTF-8
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


def _setting(flag, obj, key, where, default, integer=False, minimum=None,
             positive=False):
    """The flag if given, else obj[key] (null reads as absent), else
    default, None if all three are; checked alike whatever its source:
    an integer, or a number returned as float; finite; then >= minimum,
    or > 0 when positive.  An error names a flag by its bare name and a
    config field by its dotted path."""
    name = key if flag is not None else f"{where}.{key}"
    val = flag if flag is not None else obj.get(key)
    if val is None:
        val = default
    if val is None:
        return None
    if not (_is_int if integer else _is_num)(val):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{name} must be {kind}")
    val = val if integer else float(val)
    if not math.isfinite(val):
        raise ConfigError(f"{name} must be a finite number")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{name} must be >= {minimum}")
    if positive and val <= 0:
        raise ConfigError(f"{name} must be positive")
    return val


def _entries(flag, obj, key, where, default, ok, what):
    """The flag's entries if it has any, else obj[key] (null reads as
    absent), else default; None, or a list whose every entry passes ok.
    An error names the setting as _setting does and the first bad entry."""
    name = key if flag else f"{where}.{key}"
    val = list(flag) if flag else obj.get(key)
    val = default if val is None else val
    if val is None or (isinstance(val, list) and all(map(ok, val))):
        return val
    bad = next(v for v in val if not ok(v)) if isinstance(val, list) else val
    raise ConfigError(f"{name} must be {what}, got {bad!r}")


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


def _space_from_config(cfg, n_flag, min_n=0):
    """The space the config declares, its point count n >= min_n."""
    desc = dict(_section(cfg, "space",
                         ("kind", "n", "masses", "metric", "a0"), default={}))
    if desc.get("kind") is None:
        desc["kind"] = "grid"
    desc["masses"] = _entries(None, desc, "masses", "space", None,
                              lambda v: _is_num(v) or isinstance(v, str),
                              "an array of numbers or decimal strings")
    # n defaults to the masses' length; one that disagrees with them, or
    # empty masses, fail in the library, but a given n is at least 1
    given = n_flag is not None or desc.get("n") is not None
    desc["n"] = _setting(n_flag, desc, "n", "space",
                         16 if desc["masses"] is None else len(desc["masses"]),
                         integer=True, minimum=max(min_n, int(given)))
    try:
        return space_from_descriptor(desc)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"space: {exc}") from None


def _exponents_from_config(cfg):
    exp = _section(cfg, "exponents",
                   ("m", "p", "q", "eta", "p0", "gamma", "r"))
    if exp is None:
        return None
    # p_i = inf is legal, NaN is not
    p = _entries(None, exp, "p", "exponents", [],
                 lambda v: _is_num(v) and not math.isnan(v),
                 "an array of numbers other than NaN")
    if not p:
        raise ConfigError("exponents.p needs at least one entry")
    m = _setting(None, exp, "m", "exponents", len(p), integer=True,
                 minimum=1)
    if m != len(p):
        raise ConfigError("exponents.m disagrees with the length of "
                          "exponents.p")
    q = _setting(None, exp, "q", "exponents", None)
    if q is None:
        raise ConfigError("exponents.q is required")
    rest = {key: _setting(None, exp, key, "exponents", default)
            for key, default in (("eta", None), ("p0", 1.0), ("gamma", 1.0),
                                 ("r", 1.0))}
    try:
        return ExponentConfig(m, tuple(float(v) for v in p), q, **rest)
    except ValueError as exc:
        raise ConfigError(f"exponents: {exc}") from None


def _is_spec(v) -> bool:
    return isinstance(v, (str, list))


def _array_spec(space, spec, where, allow_negative=False, positive=False):
    """A preset string or an inline array (see _is_spec), checked alike:
    finite, and nonnegative or strictly positive as asked."""
    if isinstance(spec, str):
        try:
            with np.errstate(over="ignore"):  # an overflow fails below
                arr = make_weight(space, spec)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    else:
        if len(spec) != space.n or not all(_is_num(v) for v in spec):
            raise ConfigError(f"{where} must be a length-{space.n} "
                              "number array")
        arr = np.array([float(v) for v in spec])
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{where} must hold finite numbers")
    if not allow_negative and np.any(arr < 0.0):
        raise ConfigError(f"{where} must be nonnegative")
    if positive and np.any(arr <= 0.0):
        raise ConfigError(f"{where} must be strictly positive")
    return arr


def _weights_from_config(space, cfg, flags):
    specs = _entries(flags, cfg, "weights", "config", [], _is_spec,
                     "an array of presets or number arrays")
    if not specs:
        raise ConfigError("weights: at least one weight is required "
                          "(--weight flag or config array)")
    return [_array_spec(space, s, f"weights[{i}]", positive=True)
            for i, s in enumerate(specs)]


def _functions_from_config(space, cfg, count, seed, salt, key="functions",
                           signed=False):
    specs = _entries(None, cfg, key, "config", None, _is_spec,
                     "an array of presets or number arrays")
    if specs is None:
        rng = np.random.default_rng((seed, salt))
        draws = rng.standard_normal((count, space.n))
        return [d if signed else np.abs(d) for d in draws]
    if len(specs) != count:
        raise ConfigError(f"{key} must provide {count} entries "
                          f"(one per slot), got {len(specs)}")
    return [_array_spec(space, s, f"{key}[{i}]", allow_negative=signed)
            for i, s in enumerate(specs)]


# -- output plumbing ---------------------------------------------------------

def _write_text(path, text=None):
    """Write atomically: a new file, mode 0o666 less the umask, renamed
    onto path; with text None, only check that path can be written.  A
    path that cannot be written is a ConfigError."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".sparselab-{uuid.uuid4().hex}")
    try:
        if os.path.isdir(path):  # os.replace would fail on it
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        with open(tmp, "x") as fh:
            fh.write(text or "")
        if text is not None:
            os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _check_writable(*paths):
    """A ConfigError, before the work starts, for an output path that
    cannot be written."""
    for path in filter(None, paths):
        _write_text(path)


def _emit(text, out):
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        click.echo(text, nl=False)
    else:
        _write_text(out, text)


@functools.cache
def _flat_encoder(depth):
    """The C encoder of a container of scalars, entries at depth."""
    return json.JSONEncoder(sort_keys=True, allow_nan=False,
                            separators=(",\n" + "  " * depth, ": ")).encode


# bool before int: isinstance(True, int) holds
_SCALAR_TEXT = {bool: lambda v: "true" if v else "false",
                str: json.encoder.encode_basestring_ascii, int: int.__repr__,
                float: lambda v: (float.__repr__(v) if math.isfinite(v)
                                  else f'"{json.dumps(v)}"'),
                type(None): lambda v: "null"}


def _json_payload(payload) -> str:
    """json.dumps(payload, sort_keys=True, indent=2, allow_nan=False),
    byte for byte, except that a NaN or infinite float is written as the
    string "NaN", "Infinity" or "-Infinity".  A container of scalars is
    one call of the C encoder; others (and one with such a float) are
    written entry by entry, each run of scalar entries as one part."""
    parts = []

    def write(value, depth):
        is_dict = isinstance(value, dict)
        if not is_dict and not isinstance(value, (list, tuple)):
            for kind in _SCALAR_TEXT:  # a scalar, of a subclass too
                if isinstance(value, kind):
                    return parts.append(_SCALAR_TEXT[kind](value))
            json.JSONEncoder().default(value)  # json's TypeError
        values = value.values() if is_dict else value
        indent, outdent = "\n" + "  " * (depth + 1), "\n" + "  " * depth
        if _SCALAR_TEXT.keys() >= set(map(type, values)):
            try:
                text = _flat_encoder(depth + 1)(value)
                return parts.append(text if len(text) == 2 else text[0]
                                    + indent + text[1:-1] + outdent + text[-1])
            except ValueError:  # a NaN or infinite float: entry by entry
                pass
        text, sep = ("{" if is_dict else "["), indent
        for key, v in sorted(value.items()) if is_dict else enumerate(value):
            if is_dict:  # json coerces a scalar key to a string
                sep += (_SCALAR_TEXT[str](key) if isinstance(key, str)
                        else _flat_encoder(0)({key: 0})[1:-4]) + ": "
            to_text = _SCALAR_TEXT.get(type(v))
            if to_text is None:
                parts.append(text + sep)
                text = ""
                write(v, depth + 1)
            else:
                text += sep + to_text(v)
            sep = "," + indent
        parts.append(text + outdent + ("}" if is_dict else "]"))

    write(payload, 0)
    return "".join(parts)


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
    seed = _setting(seed, cfg, "seed", "config", 1, integer=True, minimum=0)
    out = out_path if out_path is not None else cfg.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("config.out must be a string path")
    ctx.obj = {"cfg": cfg, "seed": seed, "out": out, "audit": audit}


# -- space -------------------------------------------------------------------

@cli.command("space")
@click.option("--n", type=int, default=None,
              help="Grid size (power of two); overrides space.n.")
@click.pass_context
def cmd_space(ctx, n):
    """Build the point space and emit its descriptor plus doubling data."""
    _check_writable(ctx.obj["out"])
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

def _lattice_call(fn, *args):
    """fn(*args), where a LatticeError, dyadic's word that the space
    cannot have the lattice fn builds, is a ConfigError."""
    try:
        return fn(*args)
    except LatticeError as exc:
        raise ConfigError(f"lattice: {exc}") from None


def _shifts(cfg, flag):
    """The number of shifted systems, for lattice and dominate alike."""
    return _setting(flag, _section(cfg, "lattice", ("shifts",), default={}),
                    "shifts", "lattice", 1, integer=True, minimum=1)


@cli.command("lattice")
@click.option("--n", type=int, default=None)
@click.option("--shifts", type=int, default=None,
              help="Cyclically shifted systems to build (default 1).")
@click.option("--csv", "csv_path", type=click.Path(), default=None,
              help="Also write the per-cube CSV table here.")
@click.pass_context
def cmd_lattice(ctx, n, shifts, csv_path):
    """Build dyadic lattices and emit their cube dumps."""
    _check_writable(ctx.obj["out"], csv_path)
    cfg = ctx.obj["cfg"]
    shifts = _shifts(cfg, shifts)
    space = _space_from_config(cfg, n)
    payload = {"schema": SCHEMA, "report": "lattice"}
    if shifts == 1:
        lattices = [_lattice_call(build_lattice, space)]
    else:
        systems = _lattice_call(build_shifted_adjacent, space, shifts)
        lattices = systems.lattices
        payload["c_adj"] = systems.c_adj
        # every shift yields a lattice; the report keeps the field empty
        payload["skipped_shifts"] = []
    payload["systems"] = len(lattices)
    payload["cube_count"] = sum(len(lat.gen) for lat in lattices)
    payload["lattices"] = [lattice_to_descriptor(lat) for lat in lattices]
    _emit(_json_payload(payload), ctx.obj["out"])
    if csv_path is not None:
        rows = [(lat.system, cid, k, repr(mass))
                for lat in lattices for cid, (k, mass) in enumerate(
                    zip(lat.gen.tolist(), lat.mass.tolist()))]
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
    _require_exponents(ecfg, kind, m)  # W_inf_i or H_inf_i
    sigmas = [dual_weight(w, pi) for w, pi in zip(ws, ecfg.p)]
    u = target_weight(ws, ecfg.p, ecfg.q)
    fn = (component_wilson_constant if kind == "W_inf_i"
          else component_hruscev_constant)
    return [(f"{kind}:{i}", *fn(lattice, u, sigmas, ecfg.p, ecfg.q,
                                ecfg.gamma, i, detail=True))
            for i in range(m)]


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
    _check_writable(ctx.obj["out"])
    cfg = ctx.obj["cfg"]
    space = _space_from_config(cfg, n)
    lattice = _lattice_call(build_lattice, space)
    kinds = _entries(kinds, cfg, "kinds", "config", [],
                     lambda v: v in CONSTANT_KINDS, "an array of constant "
                     "kinds (" + ", ".join(CONSTANT_KINDS) + ")")
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
    cubes = len(lattice.gen)
    ids = _entries(None, fam_cfg, "cube_ids", "family", None,
                   lambda v: _is_int(v) and 0 <= v < cubes,
                   f"an array of integers in [0, {cubes})")
    if ids is None:
        raise ConfigError("family.cube_ids is required")
    delta = _setting(None, fam_cfg, "delta", "family", 0.5)
    try:
        return select_witnesses(lattice, ids, delta)
    except WitnessSelectionError as exc:
        raise ConfigError(f"family: {exc}") from None


@cli.command("sparse")
@click.option("--n", type=int, default=None)
@click.option("--eta", type=float, default=None,
              help="Mass exponent (default: config eta, else the "
                   "exponents' eta, else 0).")
@click.option("--dump-per-cube", "dump_path", type=click.Path(),
              default=None, help="CSV of each cube's coefficient.")
@click.pass_context
def cmd_sparse(ctx, n, eta, dump_path):
    """Apply the basic sparse form to the configured arguments."""
    _check_writable(ctx.obj["out"], dump_path)
    cfg, seed = ctx.obj["cfg"], ctx.obj["seed"]
    space = _space_from_config(cfg, n)
    lattice = _lattice_call(build_lattice, space)
    family = _family_from_config(cfg, lattice, seed)
    ecfg = _exponents_from_config(cfg) or ExponentConfig(1, (1.0,), 1.0)
    eta = _setting(eta, cfg, "eta", "config", ecfg.eta, minimum=0)
    fs = _functions_from_config(space, cfg, ecfg.m, seed, 7)
    coeffs = sparse_coefficients(lattice, fs, eta=eta, p0=ecfg.p0,
                                 gamma=ecfg.gamma)
    out_arr = family.pointwise(coeffs) ** (1.0 / ecfg.gamma)
    payload = {
        "schema": SCHEMA,
        "report": "sparse",
        "eta": eta, "p0": ecfg.p0, "gamma": ecfg.gamma, "slots": ecfg.m,
        "family": {"delta": family.delta,
                   "cube_ids": list(family.cube_ids)},
        "output": out_arr.tolist(),
    }
    _emit(_json_payload(payload), ctx.obj["out"])
    if dump_path is not None:
        rows = [(cid, lattice.gen.item(cid), repr(lattice.mass.item(cid)),
                 repr(float(coeffs[cid]))) for cid in family.cube_ids]
        _write_text(dump_path, _csv_text(
            ("cube_id", "gen", "mass", "coefficient"), rows))


# -- dominate ----------------------------------------------------------------

def _pair_from_config(cfg, k_flag):
    pair_cfg = _section(cfg, "pair", ("k", "tau_ell"), default={})
    if k_flag is not None:
        try:
            k_flag = [int(v) for v in k_flag.split(",")]
        except ValueError:
            raise ConfigError("--k must be comma-separated integers, "
                              "e.g. 1,0") from None
    k = _entries(k_flag, pair_cfg, "k", "pair", [1], _is_int,
                 "an integer array")
    tau_ell = _entries(None, pair_cfg, "tau_ell", "pair",
                       [i for i, ki in enumerate(k) if ki > 0], _is_int,
                       "an integer array")
    try:
        return MultiIndexPair(k=tuple(k), t=(0,) * len(k), tau=(),
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
    cfg, seed, out = ctx.obj["cfg"], ctx.obj["seed"], ctx.obj["out"]
    if audit_csv is None and ctx.obj["audit"] and out:
        audit_csv = str(out) + ".audit.csv"
    _check_writable(out, audit_csv)
    space = _space_from_config(cfg, n)
    shifts = _shifts(cfg, shifts)
    pair = _pair_from_config(cfg, k_flag)
    m = pair.m
    if m > 3:
        raise ConfigError(f"pair has {m} slots; dominate supports at most 3")
    eta = _setting(eta, cfg, "eta", "config", 0.0)
    if not 0 <= eta < m:
        raise ConfigError(f"eta must lie in [0, {m}) (m = slot count)")
    alpha = _setting(alpha, cfg, "alpha", "config", 1.0, positive=True)
    fs = _functions_from_config(space, cfg, m, seed, 5)
    symbols = _functions_from_config(space, cfg, m, seed, 6, key="symbols",
                                     signed=True)
    systems = _lattice_call(build_shifted_adjacent, space, shifts)
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
    _emit(_json_payload(payload), out)
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
              help="Point count of the checks' space, at least 2; "
                   "overrides space.n (default 16).")
@click.option("--report", "report_path", type=click.Path(), default=None,
              help="Report JSON path (overrides --out).")
@click.pass_context
def cmd_verify(ctx, check_ids, trials, n, report_path):
    """Run numerical proof-step checks from the registry.

    CHECK_IDS are registry ids, or the single word 'all'.
    """
    target = report_path or ctx.obj["out"]
    _check_writable(target)
    cfg, seed = ctx.obj["cfg"], ctx.obj["seed"]
    valid = registry_ids()
    ids = _entries(check_ids, cfg, "checks", "config", [],
                   lambda v: isinstance(v, str), "an array of check ids")
    ids = valid if ids == ["all"] else ids
    if not ids:
        raise ConfigError("checks: empty check list; pass check ids "
                          "or 'all'")
    for cid in ids:
        if cid not in valid:
            raise ConfigError(f"unknown check id {cid!r}; valid ids: "
                              + ", ".join(valid))
    trials = _setting(trials, cfg, "trials", "config", 0, integer=True,
                      minimum=0)
    # a check compares points, so verify needs two of them
    space = _space_from_config(cfg, n, min_n=2)
    ecfg = _exponents_from_config(cfg)
    reports = []
    for cid in ids:
        spec = CheckSpec(check_id=cid, config=ecfg, space=space,
                         trials=trials, seed=seed)
        try:
            reports.append(_lattice_call(run_check, spec))
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
        "n": space.n,
        "passed": all(rep.passed for rep in reports),
        "checks": [rep.to_descriptor(include_runtime=ctx.obj["audit"])
                   for rep in reports],
    }
    if target is not None:
        _write_text(target, _json_payload(payload) + "\n")
    if not payload["passed"]:
        ctx.exit(1)


def main(argv=None):
    return cli.main(args=argv, prog_name="sparselab")


if __name__ == "__main__":
    main()
