"""The run config: its schema, defaults, checks, hash and seed, and the kernel section's parsing.

`_SCHEMA` gives each dotted path its default and the rule a set value must meet; the defaults,
the valid paths and every refusal, each naming the path, are derived from it.
"""

from __future__ import annotations

import contextlib
import copy
import difflib
import hashlib
import json
import math
import os
from numbers import Integral, Real

from . import compact, interpolation, kernels, qinvert

# pipeline -> the kernel families it can encode; the one list of the pipeline names
_PIPELINE_FAMILIES = {"classical": tuple(kernels.CONFIG_KEYS), "quantum-global": ("gaussian",),
                      "quantum-compact": kernels.COMPACT_FAMILIES}
PIPELINES = tuple(_PIPELINE_FAMILIES)


def _count(lo: int, hi=math.inf, null: bool = False) -> tuple:
    within = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
    return Integral, within, lambda v: lo <= v <= hi, null


_UNSET = object()  # a default that leaves the key out of default_config(), and so of the hash
# dotted path -> (default, then _check's kind, within, inside, null).  A key with no rule is
# checked by its reader: resolve_seed, interpolation._box_array (from full_config too), or
# with_defaults and from_config.
_SCHEMA = {
    "seed": (None,),
    "pipeline": ("classical", PIPELINES),
    "dataset.m": (8, *_count(1)),
    "dataset.d": (2, *_count(1)),
    "dataset.box": ([0.0, 1.0],),
    "dataset.target": ("franke", tuple(interpolation.TARGETS)),
    "dataset.file": (_UNSET, str, "", None, True),
    "dataset.seed": (_UNSET, *_count(0)),
    "kernel.family": ("gaussian",),
    "epsilon": (1e-2, Real, "in (0, 1)", lambda v: 0 < v < 1),
    "inversion.mode": ("ideal", qinvert.MODES),
    "inversion.spectral_floor": (_UNSET, Real, ">= 0", lambda v: v >= 0, True),
    "inversion.evolution_time": (_UNSET, Real, "> 0", lambda v: v > 0, True),
    "inversion.clock_bits": (_UNSET, *_count(1, qinvert._CLOCK_BITS_CAP, null=True)),
    "compact.ae_bits": (None, *_count(1, compact._AE_BITS_CAP, null=True)),
    "dme_check.enabled": (False, bool),
    "dme_check.t": (1.0, Real, "finite", math.isfinite),
    "dme_check.steps": (64, *_count(1)),
    "queries.n": (20, *_count(0)),
    "queries.file": (_UNSET, str, "", None, True),
    "queries.seed": (_UNSET, *_count(0)),
    "output": (None, str, "", None, True),
}


def default_config() -> dict:
    """Each _SCHEMA default, nested by its dotted path; the keys marked _UNSET are left out."""
    cfg = {}
    for path, (default, *_) in _SCHEMA.items():
        section, _, key = path.rpartition(".")
        if default is not _UNSET:
            (cfg.setdefault(section, {}) if section else cfg)[key] = copy.copy(default)
    return cfg


_DEFAULTS = default_config()
# every path a config may set: the top-level keys, the section keys and each family's kernel keys
_VALID = [*_DEFAULTS, *(path for path in _SCHEMA if "." in path)]
_VALID += [f"kernel.{key}" for keys in kernels.CONFIG_KEYS.values() for key in keys]


def _check(path: str, val, kind, within: str = "", inside=None, null: bool = False) -> None:
    """Refuse val at path unless it is one of the tuple kind, or of type kind (bool, str, or
    a number that is not a bool) with inside(val) true; null passes where null is set."""
    if (val is None and null) or (isinstance(kind, tuple) and val in kind):
        return
    if isinstance(kind, tuple):
        raise ValueError(f"unknown {path} {val!r}; choose from {kind}")
    if not isinstance(val, kind) or isinstance(val, bool) is not (kind is bool):
        noun = {bool: "true or false", Integral: "an integer", Real: "a number", str: "a string"}
        raise ValueError(f"config key {path!r} must be {noun[kind]}, got {val!r}")
    if inside is not None and not inside(val):
        raise ValueError(f"config key {path!r} must be {within}, got {val!r}")


def _key_hint(path: str) -> str:
    if path in _VALID:  # a valid dotted path, written as a top-level key
        section, _, sub = path.partition(".")
        return f'nest it as {{"{section}": {{"{sub}": ...}}}}'
    return f"did you mean {difflib.get_close_matches(path, _VALID, n=1, cutoff=0.0)[0]!r}?"


def _not_an_object(section: str, val) -> ValueError:
    return ValueError(f"config section {section!r} must be an object, got {val!r}")


def merge_config(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = merge_config(out[key], val)
        else:
            out[key] = val
    return out


def with_defaults(cfg: dict) -> dict:
    """A copy of the kernel config cfg, with its family's defaults if it sets none of its keys.

    A key the family does not read, or a value that is not a number (for d and k an integer;
    a bool is neither), raises ValueError; a missing or unknown family is left to from_config.
    """
    family = cfg.get("family")
    keys = kernels.CONFIG_KEYS.get(family) if isinstance(family, str) else None
    if keys is None:
        return dict(cfg)
    unread = [key for key in cfg if key != "family" and key not in keys]
    if unread:
        raise ValueError(f"kernel family {family!r} reads no key {unread[0]!r}; it reads "
                         + ", ".join(map(repr, keys)))
    for key in keys:
        _check(f"kernel.{key}", cfg.get(key), Integral if key in ("d", "k") else Real, null=True)
    if any(cfg.get(key) is not None for key in keys):
        return dict(cfg)
    return {**cfg, **{key: val for key, val in keys.items() if val is not None}}


def full_config(cfg: dict) -> dict:
    """The config a run of cfg hashes and echoes: cfg over default_config(), kernel defaults in.

    Refused, each naming its dotted path: a key that neither _SCHEMA nor a kernel family
    names (with the nearest valid path), a section that is not an object, an object for a
    value, what with_defaults or a key's _SCHEMA rule refuses, a dataset.box that
    interpolation._box_array refuses where no dataset file replaces it, and a kernel family
    that the pipeline cannot encode.
    """
    unknown = []
    for key, val in cfg.items():
        if key not in _DEFAULTS:
            unknown.append(key)
        elif isinstance(_DEFAULTS[key], dict):
            if not isinstance(val, dict):
                raise _not_an_object(key, val)
            unknown += [f"{key}.{sub}" for sub in val if f"{key}.{sub}" not in _VALID]
        elif isinstance(val, dict):
            raise ValueError(f"config key {key!r} takes a value, not an object, got {val!r}")
    if unknown:
        raise ValueError("\n".join(
            f"unknown config key {path!r}; {_key_hint(path)}" for path in unknown
        ))
    cfg = merge_config(copy.deepcopy(_DEFAULTS), cfg)
    cfg["kernel"] = with_defaults(cfg["kernel"])
    for path, (_, *rule) in _SCHEMA.items():
        section, _, key = path.rpartition(".")
        node = cfg[section] if section else cfg
        if rule and key in node:
            _check(path, node[key], *rule)
    if not cfg["dataset"].get("file"):
        interpolation._box_array(cfg["dataset"]["box"], cfg["dataset"]["d"],
                                 "config key 'dataset.box'")
    family, encodes = cfg["kernel"].get("family"), _PIPELINE_FAMILIES[cfg["pipeline"]]
    # an unknown family is left for from_config to refuse with the valid ones
    if family not in encodes and family in _PIPELINE_FAMILIES["classical"]:
        raise ValueError(f"pipeline {cfg['pipeline']!r} needs kernel.family in {encodes}, "
                         f"got {family!r}")
    return cfg


def from_config(cfg: dict) -> kernels.Kernel:
    """Build a kernel from a plain dict, e.g. parsed from JSON: family and the keys it reads."""
    cfg = with_defaults(cfg)
    family = cfg.pop("family", None)
    if family not in kernels.GLOBAL_FAMILIES + kernels.COMPACT_FAMILIES:
        raise kernels._unknown_family(family)
    if family == "gaussian":
        return kernels.gaussian(**cfg)
    missing = [key for key in kernels.CONFIG_KEYS[family] if cfg.get(key) is None]
    if missing:
        raise ValueError(f"{family} config needs {', '.join(map(repr, missing))}")
    return kernels.wendland(**cfg) if family == "wendland" else kernels.Kernel(family, **cfg)


def load_config(path) -> dict:
    """The JSON object of a config file, as written: full_config merges the defaults in."""
    with open(path) as fh:
        user = json.load(fh)
    if not isinstance(user, dict):
        raise ValueError(f"config file {path} must hold a JSON object, got {user!r}")
    return user


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def resolve_seed(explicit=None) -> int:
    """Explicit seed, else QRBF_SEED, else 0; anything but a non-negative integer is refused."""
    raw = os.environ.get("QRBF_SEED", "0") if explicit is None else explicit
    with contextlib.suppress(TypeError, ValueError):
        if int(raw) >= 0 and (isinstance(raw, str) or int(raw) == raw):
            return int(raw)
    raise ValueError(f"seed {raw!r} is not a non-negative integer; set seed (--seed) or QRBF_SEED")


def set_by_path(cfg: dict, path: str, value) -> None:
    """Set cfg's entry at a dotted path, making the sections it passes through."""
    keys = path.split(".")
    node = cfg
    for depth, key in enumerate(keys[:-1], 1):
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise _not_an_object(".".join(keys[:depth]), node)
    node[keys[-1]] = value
