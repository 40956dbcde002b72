"""Golden reports: the same inputs give the same report.

Each `dominate_*.json` file under tests/golden/ holds the default
`dominate` report for one (n, k, shifts) setting at seed 1, on a unit grid
or, for a file whose name ends in a MASSES key, on a grid with those
`space.masses`.  Systems, cube ids, witnesses, alpha, coverage and the
verdict must match exactly; every other float must match to a relative
1e-9.

`verify_n16_seed1.json` and `verify_n64_seed1.json` hold the
`verify all --n 16 --seed 1` and `verify all --n 64 --seed 1` reports.
Check ids, verdicts and failure lists must match exactly; every other
float must match to a relative 1e-9.

`verify_failures_n16.json` holds the descriptor of every registry check
at n = 16, trials = 2, seed 1 under three injected faults that between
them make every check record failures, so it pins the failure-record
format.  It is compared under the same rules, with NaN equal to NaN.

`constants_n64_gamma05.csv` and `constants_n64_p1.csv` hold the stdout of
`constants --n 64` with every constant kind under two configs: one with
q > gamma, so the slot constants W_inf_i are nontrivial, and one with
p_1 = 1, which runs the p = 1 branches.  The slot kinds need every
p_i > 1, so under the second config they exit 2 and its file holds the
other six kinds.  Both are compared byte for byte.

`lattice_n16_s3.json` holds the stdout of `lattice --n 16 --shifts 3`, and
`hk_lattice_n24.json` the sorted-key JSON of `lattice_to_descriptor` for
a net lattice on a
seeded 24-point plane space with a random witness family.  Both are
compared byte for byte: member order, parents, mass reprs and witness
lists must not move.

On the same `dominate` settings, `test_dominate_profiles_clear_thresholds`
checks that no stopping-time profile value lies within a relative 1e-9
of a threshold it is compared with, so float drift below that cannot
move a cube id.

Re-record (only when a behaviour change is intended and recorded in
CHANGES.md) with `python tests/test_golden.py NAME ...`, which rewrites
only the named files (for example `lattice_n16_s3.json`); with no NAME
it rewrites every golden file.
"""

import json
import math
import pathlib
import sys
import tempfile

import numpy as np
import pytest
from click.testing import CliRunner

from sparselab import domination, verify
from sparselab.cli import CONSTANT_KINDS, cli
from sparselab.dyadic import (build_hk_lattice, lattice_to_descriptor,
                              random_sparse_family)
from sparselab.space import build_explicit_space

GOLDEN = pathlib.Path(__file__).parent / "golden"
# n = 128 with k = 1,1 and three shifts: the bilinear grand-maximal
# setting the benchmark's workloads do not run; n = 64 with k = 2,1:
# six t-splits per node, so each node's grand-maximal block has six rows;
# n = 32 with k = 1,1,1 and three shifts: the trilinear kernel on every
# kept ball
# n = 64 with k = 1,1, three shifts and "weighted" masses: seeded
# uniform(0.5, 2) point masses give the kernel more than n distinct
# values, so the bilinear integral runs off the shared class table
SETTINGS = [(n, k, shifts, None) for n in (16, 64) for k in ("1", "1,1")
            for shifts in (1, 3)] + [(128, "1,1", 3, None),
                                     (64, "2,1", 3, None),
                                     (32, "1,1,1", 3, None),
                                     (64, "1,1", 3, "weighted")]
MASSES = {"weighted": np.round(np.random.default_rng(7).uniform(
    0.5, 2.0, size=64), 6).tolist()}
VERIFY_SIZES = (16, 64)
FAILURE_GOLDEN = GOLDEN / "verify_failures_n16.json"
LATTICE_GOLDEN = GOLDEN / "lattice_n16_s3.json"
HK_GOLDEN = GOLDEN / "hk_lattice_n24.json"
REL = 1e-9
CONSTANTS_CONFIGS = {
    "gamma05": ({"exponents": {"p": [2.0, 3.0], "q": 1.5, "gamma": 0.5},
                 "weights": ["random:3", "power:0.4"]}, CONSTANT_KINDS),
    "p1": ({"exponents": {"p": [1.0, 2.0], "q": 1.0},
            "weights": ["random:5", "step"]}, CONSTANT_KINDS[:6]),
}


def _setting_id(setting):
    n, k, shifts, masses = setting
    return f"{n}-{k}-{shifts}" + (f"-{masses}" if masses else "")


def _name(n, k, shifts, masses):
    tail = f"_{masses}" if masses else ""
    return f"dominate_n{n}_k{k.replace(',', '-')}_s{shifts}{tail}.json"


def _report(n, k, shifts, masses):
    """The dominate report at seed 1; masses names an entry of MASSES,
    given as the config's space.masses, or None for a unit grid."""
    with tempfile.TemporaryDirectory() as tmp:
        args = ["--seed", "1"]
        if masses:
            path = pathlib.Path(tmp) / "config.json"
            path.write_text(json.dumps({"space": {"masses": MASSES[masses]}}))
            args += ["--config", str(path)]
        result = CliRunner().invoke(cli, args + [
            "dominate", "--n", str(n), "--k", k, "--shifts", str(shifts)])
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def _verify_golden(n):
    return GOLDEN / f"verify_n{n}_seed1.json"


def _verify_report(n):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "verify.json"
        result = CliRunner().invoke(cli, ["--seed", "1", "verify", "all",
                                          "--n", str(n), "--report",
                                          str(path)])
        assert result.exit_code == 0, result.output
        return json.loads(path.read_text())


def _nan_at_zero(original):
    def patched(*args, **kwargs):
        f = original(*args, **kwargs)
        f[0] = math.nan
        return f
    return patched


def _failure_reports():
    """Descriptor of every check under each injected fault."""
    injections = {
        "violates_always": {"_violates": lambda lhs, rhs: True,
                            "CAOPRO_RATIO_BASELINE": 0.0},
        "nan_function": {
            "_random_function": _nan_at_zero(verify._random_function)},
        "nan_lp_norm": {"_lp_norm": lambda *args, **kwargs: math.nan},
    }
    out = {}
    for name, patches in injections.items():
        with pytest.MonkeyPatch.context() as mp:
            for attr, value in patches.items():
                mp.setattr(verify, attr, value)
            out[name] = {
                cid: verify.run_check(verify.CheckSpec(
                    cid, trials=2, seed=1)).to_descriptor()
                for cid in verify.registry_ids()}
    # through JSON, as the golden file is read
    return json.loads(json.dumps(out))


def _lattice_report():
    result = CliRunner().invoke(cli, ["--seed", "1", "lattice", "--n", "16",
                                      "--shifts", "3"])
    assert result.exit_code == 0, result.output
    return result.output


def _constants_golden(name):
    return GOLDEN / f"constants_n64_{name}.csv"


def _constants_run(name, kinds):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "config.json"
        path.write_text(json.dumps(CONSTANTS_CONFIGS[name][0]))
        args = ["--config", str(path), "constants", "--n", "64"]
        for kind in kinds:
            args += ["--kind", kind]
        return CliRunner().invoke(cli, args)


def _constants_report(name):
    result = _constants_run(name, CONSTANTS_CONFIGS[name][1])
    assert result.exit_code == 0, result.output
    return result.output


def _hk_dump():
    rng = np.random.default_rng(22)
    pts = rng.uniform(size=(24, 2))
    metric = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    space = build_explicit_space(metric, rng.lognormal(0.0, 1.0, size=24))
    lattice = build_hk_lattice(space, 0.7)
    family = random_sparse_family(lattice, rng)
    return json.dumps(lattice_to_descriptor(lattice, family),
                      sort_keys=True) + "\n"


def _assert_close(got, want, path):
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, (int, float)), path
        assert (math.isnan(got) and math.isnan(want)) or \
            math.isclose(got, want, rel_tol=REL, abs_tol=0.0), \
            f"{path}: {got!r} != {want!r}"
    else:
        assert got == want and type(got) is type(want), path


@pytest.mark.parametrize("n,k,shifts,masses", SETTINGS,
                         ids=map(_setting_id, SETTINGS))
def test_dominate_matches_golden(n, k, shifts, masses):
    want = json.loads((GOLDEN / _name(n, k, shifts, masses)).read_text())
    got = _report(n, k, shifts, masses)
    cert, gold = got["certificate"], want["certificate"]
    for key in ("alpha", "coverage"):
        assert cert[key] == gold[key], key
    assert [(f["system"], f["cube_ids"], f["witnesses"])
            for f in cert["families"]] == \
        [(f["system"], f["cube_ids"], f["witnesses"])
         for f in gold["families"]]
    assert got["verification"]["pass"] == want["verification"]["pass"]
    assert got["verification"]["violations"] == \
        want["verification"]["violations"]
    _assert_close(got, want, "report")


@pytest.mark.parametrize("n,k,shifts,masses", SETTINGS,
                         ids=map(_setting_id, SETTINGS))
def test_dominate_profiles_clear_thresholds(n, k, shifts, masses,
                                            monkeypatch):
    """Every node profile value sits at a relative distance above 1e-9
    from each threshold it can meet: (alpha * scale) * ref for every
    alpha from the start alpha 1 to the certificate's final alpha.  A
    last-bit change in the profiles then cannot flip a bad point, so the
    cube ids stand."""
    profiles = []
    original = domination._node_profiles

    def spy(*args):
        profiles.append(original(*args))
        return profiles[-1]

    monkeypatch.setattr(domination, "_node_profiles", spy)
    final = _report(n, k, shifts, masses)["certificate"]["alpha"]
    alphas = 2.0 ** np.arange(int(math.log2(final)) + 1)
    assert alphas[-1] == final and profiles
    gap = math.inf
    for values, scales, refs in profiles:
        assert np.all(scales > 0) and np.all(refs > 0)
        for alpha in alphas:
            limit = (alpha * scales)[:, None, None] * refs[:, None]
            gap = min(gap, float((np.abs(values - limit) / limit).min()))
    assert gap > 1e-9


def _check_verify(n):
    want = json.loads(_verify_golden(n).read_text())
    got = _verify_report(n)
    assert [(c["check_id"], c["passed"], c["failures"])
            for c in got["checks"]] == \
        [(c["check_id"], c["passed"], c["failures"])
         for c in want["checks"]]
    assert got["passed"] == want["passed"]
    _assert_close(got, want, "report")


def test_verify_matches_golden():
    _check_verify(16)


def test_verify_n64_matches_golden():
    _check_verify(64)


def test_verify_failure_records_match_golden():
    want = json.loads(FAILURE_GOLDEN.read_text())
    got = _failure_reports()
    # together the injections make every check record a failure
    assert all(any(not checks[cid]["passed"] for checks in want.values())
               for cid in verify.registry_ids())
    _assert_close(got, want, "failures")


def test_lattice_report_matches_golden_bytes():
    assert _lattice_report() == LATTICE_GOLDEN.read_text()


@pytest.mark.parametrize("name", sorted(CONSTANTS_CONFIGS))
def test_constants_match_golden_bytes(name):
    assert _constants_report(name) == _constants_golden(name).read_text()


@pytest.mark.parametrize("kind", ["W_inf_i", "H_inf_i"])
def test_slot_constants_need_p_above_one(kind):
    result = _constants_run("p1", [kind])
    assert result.exit_code == 2
    assert f"Error: {kind}: dual weight needs p > 1" in result.output


def test_hk_lattice_dump_matches_golden_bytes():
    assert _hk_dump() == HK_GOLDEN.read_text()


def _dump(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _recorders():
    """The text of every golden file, by file name, computed on demand."""
    out = {_name(*setting): lambda setting=setting: _dump(_report(*setting))
           for setting in SETTINGS}
    out.update({_verify_golden(n).name: lambda n=n: _dump(_verify_report(n))
                for n in VERIFY_SIZES})
    out[FAILURE_GOLDEN.name] = lambda: _dump(_failure_reports())
    out.update({_constants_golden(name).name:
                lambda name=name: _constants_report(name)
                for name in CONSTANTS_CONFIGS})
    out[LATTICE_GOLDEN.name] = _lattice_report
    out[HK_GOLDEN.name] = _hk_dump
    return out


if __name__ == "__main__":
    recorders = _recorders()
    names = sys.argv[1:] or list(recorders)
    unknown = [name for name in names if name not in recorders]
    if unknown:
        sys.exit(f"unknown golden file(s): {', '.join(unknown)}; "
                 f"choose from: {', '.join(recorders)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        (GOLDEN / name).write_text(recorders[name]())
        print(GOLDEN / name)
