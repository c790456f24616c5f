"""Canonical serialization and content digests, shared across layers.

Home of the canonical-JSON encoding that backs every content-addressed
artifact in the library: run-manifest result digests (:mod:`repro.obs`),
plan-cache keys (:mod:`repro.service`), and fuzz reproducer identity.
Extracted from ``repro.obs.manifest`` so cache keys do not depend on the
observability package; the old names are still re-exported there.

The canonical form is deliberate about the two things that break naive
``json.dumps`` hashing:

* floats are rounded to 12 significant digits, so bit-identical reruns
  and cross-platform reruns with sub-ulp noise map to the same digest;
* mappings are sorted recursively and encoded with a fixed separator
  set, so key order never matters.

:func:`instance_payload` / :func:`instance_digest` give DRRP and SRRP
instances a stable content identity — the same instance submitted twice
(whatever the float widths or dict ordering of the submission) digests
identically, which is exactly the property the planning service's cache
and in-flight coalescing rely on.

:func:`write_bench_record` writes the ``BENCH_*.json`` record of every
bench family (solver, fleet, sim, and the service load generator).

This module is stdlib-only (``jsonable`` handles numpy values without
importing numpy), so the service client can import it anywhere.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction
from pathlib import Path

__all__ = [
    "canonical_json",
    "canonicalize",
    "jsonable",
    "result_digest",
    "instance_payload",
    "instance_digest",
    "write_bench_record",
]


def jsonable(obj):
    """Coerce an arbitrary payload into strictly valid JSON types.

    Payloads are free-form: certification events carry exact
    :class:`fractions.Fraction` values, backends attach numpy scalars and
    arrays, and bounds are routinely ``inf``/``nan``.  ``json.dumps``
    either raises ``TypeError`` on those or (for non-finite floats) emits
    ``Infinity`` literals that no strict JSON parser accepts.  This walk
    maps them to faithful, portable encodings:

    * ``Fraction`` -> its exact ``"p/q"`` string (lossless);
    * numpy scalars -> the matching Python scalar, arrays -> nested lists;
    * ``inf`` / ``-inf`` / ``nan`` -> the strings ``"Infinity"`` /
      ``"-Infinity"`` / ``"NaN"`` (the JSON-Schema convention);
    * anything else unserializable -> ``repr(obj)`` as a last resort.

    Lives here (not in :mod:`repro.solver.telemetry`, which re-exports
    it) because importing any ``repro.solver`` submodule loads the whole
    numpy-backed solver stack, and this walk is needed by stdlib-only
    consumers like the service client.
    """
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj):
            return "NaN"
        if math.isinf(obj):
            return "Infinity" if obj > 0 else "-Infinity"
        return obj
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in obj]
    # numpy scalars/arrays without importing numpy (this module must stay
    # importable in the scipy/numpy-free degradation environment).
    tolist = getattr(obj, "tolist", None)
    if callable(tolist):
        return jsonable(tolist())
    item = getattr(obj, "item", None)
    if callable(item):
        return jsonable(item())
    try:
        json.dumps(obj)
        return obj
    except TypeError:
        return repr(obj)


_ROUND = "{:.12g}".format
_FLOAT = frozenset({float})
_STR = frozenset({str})


def canonicalize(obj):
    """Round floats to 12 significant digits and sort mappings, recursively.

    One pass that dispatches on the exact type.  Plain JSON values
    (``str``-keyed dicts, lists, tuples, finite floats, ints, strings) are
    rounded and sorted as they are copied; a list of finite floats is
    rounded in one ``map``, or once when all its entries are equal.  Every
    other value (numpy values, ``Fraction``, sets, non-finite floats,
    subclasses, non-``str`` keys) goes through :func:`jsonable` first, so
    the result is the same as coercing the whole tree and then rounding it.
    """
    cls = type(obj)
    if cls is float:
        if obj - obj == 0.0:  # finite
            return float(_ROUND(obj))
    elif cls is list or cls is tuple:
        if _FLOAT.issuperset(map(type, obj)) and math.isfinite(sum(obj)):
            first = obj[0] if obj else 0.0
            if first and obj.count(first) == len(obj):
                # A constant series (an on-demand cost list) rounds once:
                # equal nonzero floats have the same bits.
                return [float(_ROUND(first))] * len(obj)
            return list(map(float, map(_ROUND, obj)))
        return [canonicalize(v) for v in obj]
    elif cls is dict:
        if _STR.issuperset(map(type, obj)):
            return {k: canonicalize(obj[k]) for k in sorted(obj)}
    elif cls is str or cls is int or cls is bool or obj is None:
        return obj
    return _round_and_sort(jsonable(obj))


def _round_and_sort(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_and_sort(obj[k]) for k in sorted(obj)}
    if isinstance(obj, list):
        return [_round_and_sort(v) for v in obj]
    return obj


def canonical_json(obj) -> str:
    """Deterministic JSON encoding used for digesting results."""
    return json.dumps(canonicalize(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)


def result_digest(obj) -> str:
    """``sha256:<hex>`` over the canonical JSON form of ``obj``."""
    return "sha256:" + hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def write_bench_record(record: dict, out: str) -> Path:
    """Write one ``BENCH_*.json`` record under ``REPRO_BENCH_DIR`` (default ``.``).

    :func:`jsonable` maps non-finite floats to strings, so the record
    always parses as strict JSON; keys are sorted so reruns diff cleanly.
    """
    out_dir = Path(os.environ.get("REPRO_BENCH_DIR", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / out
    path.write_text(
        json.dumps(jsonable(record), indent=2, allow_nan=False, sort_keys=True) + "\n"
    )
    return path


def _tree_payload(tree) -> dict:
    """Replay-stable view of a :class:`~repro.core.scenario.ScenarioTree`."""
    return {
        "horizon": int(tree.horizon),
        "nodes": [
            {
                "parent": int(n.parent),
                "depth": int(n.depth),
                "price": float(n.price),
                "cond_prob": float(n.cond_prob),
            }
            for n in tree.nodes
        ],
    }


def instance_payload(instance) -> dict:
    """The content-defining fields of a DRRP or SRRP instance, as JSON types.

    Dispatches on shape, not class, so it works on anything that quacks
    like :class:`~repro.core.drrp.DRRPInstance` or
    :class:`~repro.core.srrp.SRRPInstance` (and keeps this module free of
    numpy-importing dependencies).  Volatile labels (``vm_name``) are
    included — two instances that differ only in their label are planning
    the same problem, but callers diffing payloads want to see the label.
    """
    c = instance.costs
    payload = {
        "demand": [float(x) for x in instance.demand],
        "costs": {
            "compute": [float(x) for x in c.compute],
            "storage": [float(x) for x in c.storage],
            "io": [float(x) for x in c.io],
            "transfer_in": [float(x) for x in c.transfer_in],
            "transfer_out": [float(x) for x in c.transfer_out],
        },
        "phi": float(instance.phi),
        "initial_storage": float(instance.initial_storage),
        "vm_name": str(instance.vm_name),
    }
    tree = getattr(instance, "tree", None)
    if tree is not None:
        payload["kind"] = "srrp"
        payload["tree"] = _tree_payload(tree)
    else:
        payload["kind"] = "drrp"
        rate = getattr(instance, "bottleneck_rate", None)
        if rate is not None:
            payload["bottleneck_rate"] = float(rate)
            payload["bottleneck_capacity"] = [
                float(x) for x in instance.bottleneck_capacity
            ]
    return payload


def instance_digest(instance) -> str:
    """Content digest of a DRRP/SRRP instance (cache-key material).

    The label (``vm_name``) is excluded: a cache keyed by this digest
    should share plans between identical problems however they are named.
    """
    payload = instance_payload(instance)
    payload.pop("vm_name", None)
    return result_digest(payload)
