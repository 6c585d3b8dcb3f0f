"""Run configs, atomic report writing, and the deterministic run manifest.

Config files are flat `key = value` text with `#` comments.  Reports are JSON
(sorted keys, fixed layout) and time series are CSV; manifest files carry no
wall-clock data, so identical configs and seeds reproduce them byte for byte.
Wall-clock timing goes to sidecar files instead: the run log and timings.json.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
import os
import time
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidInputError
from .mcf import RunConfig


def parse_config_text(text: str, source: str = "<string>") -> dict:
    """Parse flat key = value lines with # comments into a dict typed like RunConfig."""
    out: dict = {}
    types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in types:
            raise InvalidInputError(f"{source}:{lineno}: unknown key '{key}'")
        try:
            out[key] = {"int": int, "str": str, "float": float}[types[key]](val)
        except ValueError as exc:
            raise InvalidInputError(
                f"{source}:{lineno}: '{key}' wants a value of type {types[key]}") from exc
    return out


def _config_from_text(text: str, source: str) -> RunConfig:
    try:
        return RunConfig(**parse_config_text(text, source=source))
    except TypeError as exc:
        raise InvalidInputError(f"{source}: {exc}") from exc


def load_run_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read config {path}: {exc}") from exc
    return _config_from_text(text, str(path))


def load_bundled_config(name: str) -> RunConfig:
    """Load one of the packaged default run configs (flowcert/configs/)."""
    try:
        text = (resources.files("flowcert") / "configs" / name).read_text()
    except OSError as exc:
        raise InvalidInputError(f"no bundled config named '{name}'") from exc
    return _config_from_text(text, f"configs/{name}")


def jsonable(obj):
    """Recursively convert reports, numpy scalars/arrays and NaN to JSON-safe values.

    A dataclass instance becomes a dict of its fields plus the public
    properties of its class.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        for name, attr in inspect.getmembers(type(obj)):
            if isinstance(attr, property) and not name.startswith("_"):
                out[name] = getattr(obj, name)
        return jsonable(out)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return None if math.isnan(v) else v
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    atomic_write_text(path, json.dumps(jsonable(obj), indent=2, sort_keys=True) + "\n")


def manifest_dict(command: str, seed: int, config: dict, checks: list[dict]) -> dict:
    """Assemble the deterministic run manifest (no timestamps by design)."""
    return {
        "artifact": {"name": "flowcert", "version": __version__},
        "command": command,
        "seed": int(seed),
        "config": jsonable(config),
        "checks": [jsonable(c) for c in checks],
        "all_passed": bool(all(c.get("passed", False) for c in checks)),
    }


class RunLog:
    """Append-only sidecar log carrying the wall-clock side of a run."""

    def __init__(self, path, quiet: bool = False):
        self.path = Path(path)
        self.quiet = quiet
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text("")

    def say(self, msg: str) -> None:
        stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
        with open(self.path, "a") as fh:
            fh.write(f"[{stamp}] {msg}\n")
        if not self.quiet:
            print(msg, flush=True)
