"""Reference outputs and the checks that compare items against them.

Each item's output is reduced to a view: for ``dominate`` the certificate
cube ids, alpha, max_ratio and verification verdict; for ``verify`` the
check's passed flag, failures and worst ratio; for the ``scale-build``
payloads a digest of everything except the floats, plus the floats in
order.  References are keyed by the item's inputs (argv and inline
config).  Where an item's inputs have a reference, its view must match:
ids, verdicts, failure lists and digests exactly, floats to a relative
1e-9.  Elsewhere only exit codes and verdicts are checked.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

REL_TOL = 1e-9
ORACLE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "oracle")


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _parse(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return [[_cell(c) for c in row]
                for row in csv.reader(io.StringIO(text))]


def _split_floats(obj, floats):
    """obj with every float replaced by a marker; the floats, in order,
    are appended to ``floats``."""
    if isinstance(obj, float):
        floats.append(obj)
        return "<float>"
    if isinstance(obj, dict):
        return {k: _split_floats(v, floats) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_split_floats(v, floats) for v in obj]
    return obj


def _payload_view(payload) -> dict:
    floats = []
    skeleton = json.dumps(_split_floats(payload, floats), sort_keys=True)
    return {"skeleton_sha256": hashlib.sha256(skeleton.encode()).hexdigest(),
            "floats": floats}


def view(kind: str, text: str) -> tuple:
    """(verdict, view) of one item's output text."""
    payload = _parse(text)
    if kind == "dominate":
        cert, verdict = payload["certificate"], payload["verification"]
        return verdict["pass"], {
            "cube_ids": [fam["cube_ids"] for fam in cert["families"]],
            "systems": [fam["system"] for fam in cert["families"]],
            "alpha": cert["alpha"],
            "max_ratio": cert["max_ratio"],
            "verification": verdict,
        }
    if kind == "verify":
        (check,) = payload["checks"]
        return check["passed"], {
            "check_id": check["check_id"],
            "passed": check["passed"],
            "failures": check["failures"],
            "worst_ratio": check["worst_ratio"],
        }
    return True, _payload_view(payload)


def mismatch(ref, got, path="$"):
    """First difference between two views, or None.  Floats compare to a
    relative REL_TOL, everything else exactly."""
    if isinstance(ref, float) and isinstance(got, float):
        if ref == got or (math.isnan(ref) and math.isnan(got)):
            return None
        if abs(ref - got) <= REL_TOL * max(abs(ref), abs(got)):
            return None
        return f"{path}: {got!r} != reference {ref!r}"
    if type(ref) is not type(got):
        return f"{path}: {type(got).__name__} != reference " \
               f"{type(ref).__name__}"
    if isinstance(ref, dict):
        if sorted(ref) != sorted(got):
            return f"{path}: keys {sorted(got)} != reference {sorted(ref)}"
        for key in ref:
            found = mismatch(ref[key], got[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(ref, list):
        if len(ref) != len(got):
            return f"{path}: length {len(got)} != reference {len(ref)}"
        for i, (a, b) in enumerate(zip(ref, got)):
            found = mismatch(a, b, f"{path}[{i}]")
            if found:
                return found
        return None
    return None if ref == got else f"{path}: {got!r} != reference {ref!r}"


def _encode_floats(floats):
    """Run-length encode repeated floats: [[value, count], ...]."""
    runs = []
    for x in floats:
        if runs and runs[-1][0] == x:
            runs[-1][1] += 1
        else:
            runs.append([x, 1])
    return runs


def _decode_floats(runs):
    return [x for x, count in runs for _ in range(count)]


def path_for(workload: str) -> str:
    return os.path.join(ORACLE_DIR, f"{workload}.json")


def save(workload: str, records: dict) -> None:
    """records: input key -> (item id, exit code, view)."""
    items = {}
    for key, (item_id, code, v) in sorted(records.items()):
        if "floats" in v:
            v = dict(v, floats=_encode_floats(v["floats"]))
        items[key] = {"item": item_id, "exit": code, "view": v}
    with open(path_for(workload), "w") as fh:
        json.dump({"workload": workload, "items": items}, fh, indent=0,
                  sort_keys=True)
        fh.write("\n")


def load(workload: str) -> dict:
    """Input key -> {"item", "exit", "view"}."""
    with open(path_for(workload)) as fh:
        items = json.load(fh)["items"]
    for entry in items.values():
        v = entry["view"]
        if "floats" in v:
            v["floats"] = _decode_floats(v["floats"])
    return items
