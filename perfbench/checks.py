"""Output checks for one CLI operation.

``check(op, rc, stdout)`` returns a list of failure reasons; an empty list
means the operation succeeded.  An operation fails if it exits non-zero,
if any number in its CSV or JSON output is non-finite (NaN never counts
as success), if a row has ``satisfied=0``, if a verdict field
(``converged``, ``ok``, ``entropy_monotone``, ``all_passed``) is false,
or if a ``verify`` operation reports another number of criteria than its
plan expects.

One cell is non-finite by construction and exempt: row n=0 of column
``H_mu_pi2n1`` in the ``discrete`` CSV is NaN, because pi_{-1} does not
exist.
"""

import json
import math
from pathlib import Path

OUTPUTS = {
    "discrete": (".json", ".csv"),
    "verify": (),
}
VERDICTS = ("converged", "ok", "entropy_monotone", "all_passed")


def output_paths(op) -> list:
    prefix = op["prefix"]
    return [Path(prefix + suffix) for suffix in OUTPUTS[op["command"]]] if prefix else []


def check(op, rc, stdout: str) -> list:
    if rc != 0:
        return [f"exit {rc}"]
    if op["command"] == "verify":
        doc = json.loads(stdout)
        failures = _check_json_doc(doc, "stdout")
        if len(doc["criteria"]) != op["check"]["criteria"]:
            failures.append(f"ran {len(doc['criteria'])} criteria, expected {op['check']['criteria']}")
        return failures
    failures = []
    for path in output_paths(op):
        if not path.exists():
            failures.append(f"missing {path.name}")
        elif path.suffix == ".json":
            failures += _check_json_doc(json.loads(path.read_text()), path.name)
        else:
            failures += _check_csv(path, op["command"])
    return failures


def _check_json_doc(doc, where) -> list:
    failures = []

    def walk(node, key):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, k)
        elif isinstance(node, list):
            for v in node:
                walk(v, key)
        elif isinstance(node, bool):
            if key in VERDICTS and not node:
                failures.append(f"{where}: {key}=false")
        elif isinstance(node, (float, str)) and not _finite(node):
            failures.append(f"{where}: {key}={node}")

    walk(doc, None)
    return failures


def _finite(value) -> bool:
    """False for a non-finite float, or a string spelling one (verify prints floats as strings)."""
    try:
        return math.isfinite(float(value))
    except ValueError:  # a string that is not a number
        return True


def _exempt(command, header, row, col) -> bool:
    return command == "discrete" and header[col] == "H_mu_pi2n1" and int(row[0]) == 0


def _check_csv(path: Path, command) -> list:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    failures = []
    for line in lines[1:]:
        row = line.split(",")
        for col, cell in enumerate(row):
            if header[col] == "satisfied" and cell == "0":
                failures.append(f"{path.name}: n={row[0]} satisfied=0")
            try:
                value = float(cell)
            except ValueError:  # tags and empty cells
                continue
            if not math.isfinite(value) and not _exempt(command, header, row, col):
                failures.append(f"{path.name}: n={row[0]} {header[col]}={cell}")
    return failures

