"""Byte-identity checks of regenerated paper artifacts against the
SHA-256 digests recorded in `golden/paper_digests.json`."""

import hashlib
import json
import os

GOLDEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "golden", "paper_digests.json")


def digest_dir(results_dir):
    """{file name: sha256 hex} of every `*.csv` and `*.txt` in the dir."""
    out = {}
    for name in sorted(os.listdir(results_dir)):
        if name.endswith((".csv", ".txt")):
            with open(os.path.join(results_dir, name), "rb") as f:
                out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def load_golden(path=GOLDEN):
    with open(path) as f:
        return json.load(f)["files"]


def mismatches(actual, expected):
    """Human-readable differences between two digest maps; empty when the
    artifact sets are byte-identical."""
    problems = []
    for name in sorted(set(expected) | set(actual)):
        if name not in actual:
            problems.append(f"{name}: missing")
        elif name not in expected:
            problems.append(f"{name}: not in the recorded set")
        elif actual[name] != expected[name]:
            problems.append(f"{name}: digest differs")
    return problems


def check_dir(results_dir, expected=None):
    """Mismatches of `results_dir` against the recorded digests."""
    if not os.path.isdir(results_dir):
        return [f"{results_dir}: no results written"]
    return mismatches(digest_dir(results_dir), expected or load_golden())
