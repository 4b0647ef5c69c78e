"""Correctness gate: every iteration must reproduce the recorded reference.

For each (workload, input seed) `reference.json` records the sha256 of every
generated JSONL split and each eval cell's ``success``, ``cost_effective`` and
``relative_length_mean``. Model bytes are not gated: a change to the summation
order may change them while every plan stays the same. Nor are the exact
counters: a change may lower them on purpose, so run.py checks instead that
they repeat between two traced iterations of the same tree.

References exist for input seeds ``0 .. REFERENCE_SEEDS-1``; ``input_seed``
maps any ``--seed`` and iteration number onto them, so every iteration is
gated.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEEDS = 10
CELL_FIELDS = ("success", "cost_effective", "relative_length_mean")


def input_seed(seed: int, iteration: int = 0) -> int:
    """The input seed of a run's iteration: run --seed N does N, N+1, ... (mod 10)."""
    return (seed + iteration) % REFERENCE_SEEDS


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def reference_entry(result: dict) -> dict:
    """What `check` compares, taken from one iteration's result."""
    return {"splits": dict(result["splits"]), "cells": [dict(c) for c in result["cells"]]}


def _cell_key(cell: dict) -> tuple:
    return cell["env"], cell["strategy"], cell["score"]


def check(result: dict, ref: dict | None) -> tuple[int, list[str]]:
    """Number of failed ops (stages plus cells) and why, for one iteration.

    A stage fails when it raised; a gen stage also fails when a split it wrote
    differs from the reference. A cell fails when it is missing or any of its
    gated fields differs. Without a reference every op counts as failed.
    """
    planned = result["planned_ops"]
    if ref is None:
        return planned, ["no reference recorded for this workload and seed"]
    problems = [e.splitlines()[0] for e in result["errors"]]
    ok = 0
    for stage in result["stages"]:
        if stage["stage"] == "gen":
            bad = [
                name for name, digest in ref["splits"].items()
                if name.startswith(stage["env"] + "_") and result["splits"].get(name) != digest
            ]
            if bad:
                problems.append(f"{stage['env']} gen: split bytes differ from reference: {bad}")
                continue
        ok += 1
    got = {_cell_key(c): c for c in result["cells"]}
    for want in ref["cells"]:
        cell = got.get(_cell_key(want))
        if cell is None:
            continue  # counted through `planned`
        diffs = {f: (cell.get(f), want[f]) for f in CELL_FIELDS if cell.get(f) != want[f]}
        if diffs:
            problems.append(f"cell {'/'.join(_cell_key(want))}: got/want {diffs}")
            continue
        ok += 1
    return planned - ok, problems

