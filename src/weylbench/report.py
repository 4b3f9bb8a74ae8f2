"""Deterministic report rendering: JSON, CSV, and aligned text."""

from __future__ import annotations

import json
from typing import Any

import numpy as np


def flatten(data: dict, prefix: str) -> list[tuple[str, Any]]:
    rows: list[tuple[str, Any]] = []
    for key in data:
        value = data[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(flatten(value, f"{name}."))
        elif isinstance(value, (list, tuple)):
            rows.append((name, json.dumps(value)))
        else:
            rows.append((name, value))
    return rows


def render(data: dict, fmt: str) -> str:
    data = _plain(data)
    if fmt == "json":
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    rows = flatten(data, "")
    if fmt == "csv":
        lines = ["name,value"]
        for name, value in rows:
            text = str(value)
            if "," in text or '"' in text:
                text = '"' + text.replace('"', '""') + '"'
            lines.append(f"{name},{text}")
        return "\n".join(lines) + "\n"
    if fmt == "text":
        width = max((len(name) for name, _ in rows), default=0)
        return "\n".join(f"{name.ljust(width)}  {v}" for name, v in rows) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _plain(data: dict) -> dict:
    out: dict = {}
    for k, v in data.items():
        if isinstance(v, dict):
            out[k] = _plain(v)
        elif isinstance(v, np.ndarray):
            out[k] = v.tolist()
        elif isinstance(v, np.generic):
            out[k] = v.item()
        else:
            out[k] = v
    return out
