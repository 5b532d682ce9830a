"""Artifact writers: CSV with shortest round-trip floats and sorted,
indented JSON, both deterministic."""

from __future__ import annotations

import json

import numpy as np


def csv_cell(v) -> str:
    """A cell that is not exactly a float: write_csv formats those inline."""
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_csv(path, columns, rows, comment: str | None = None) -> None:
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join([repr(v) if type(v) is float else csv_cell(v)
                               for v in row]) + "\n")


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
