"""Pinned reply bytes of the HTTP handler's JSON encoder.

``_Handler._send`` encodes every JSON reply the server writes.  Its bytes
reach clients and recorded captures, so a faster encoder must write the
same bytes for every body: plain plan replies, and awkward ones with
non-finite floats, exact fractions, numpy values, tuples, sets and
non-``str`` keys.  The values were recorded before the encoder gained its
plain-JSON fast path.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro.service.server import _Handler


class _Flag(int):
    pass


BODIES = {
    "plan": {
        "kind": "drrp", "status": "optimal", "vm_name": "m1.large",
        "alpha": [1.2000000000000002, 0.0, 0.30000000000000004], "beta": [0.8, 0.0, 0.0],
        "chi": [1, 0, 1], "total_cost": 1.0345678901234567,
        "costs": {"compute": 0.68, "inventory": 1e-17, "transfer_in": 0.06, "transfer_out": 0.2},
        "solve": {"nodes": 0, "iterations": 0, "wall_time": 0.000123456789},
        "job_id": "ab12", "cached": False, "coalesced": None,
    },
    "error": {"error": "saturated", "retry_after": 0.25, "detail": "queue full (64/64)"},
    "nonfinite": {"bound": float("inf"), "gap": float("nan"), "low": -float("inf"), "xs": [1.0, float("nan")]},
    "negative_zero": {"x": -0.0, "xs": [-0.0, 0.0]},
    "fraction": {"exact": Fraction(7, 3)},
    "numpy": {
        "f": np.float64(2.5), "f32": np.float32(0.1), "i": np.int64(4), "b": np.bool_(False),
        "arr": np.array([0.5, 1.5]), "nan": np.float64("nan"),
    },
    "tuples_and_sets": {"t": (1, (2.0, "x")), "s": {3, 1, 2}, "fs": frozenset({0.5})},
    "bool_key": {True: "yes", False: "no"},
    "none_key": {None: 1},
    "int_and_float_keys": {1: "a", 2.5: "b"},
    "nested_bool_key": {"outer": [{"inner": {True: [1.0]}}]},
    "numpy_key": {np.int64(3): "c"},
    "int_subclass": {"flag": _Flag(3), "flags": [_Flag(0)]},
    "unicode": {"msg": "déjà vu ✓", "ключ": "значение"},
    "big": {"n": 2**70, "tiny": 5e-324, "huge": 1.7976931348623157e308},
    "empty": {},
}


def _reply_bytes(body) -> bytes:
    handler = _Handler.__new__(_Handler)
    sent = []
    handler._send_raw = lambda status, data, content_type, retry_after=None: sent.append(
        (status, data, content_type, retry_after)
    )
    handler._send(200, body, retry_after=1.5)
    [(status, data, content_type, retry_after)] = sent
    assert (status, content_type, retry_after) == (200, "application/json", 1.5)
    return data


PINNED = {
    "big": b'{"n": 1180591620717411303424, "tiny": 5e-324, "huge": 1.7976931348623157e+308}',
    "bool_key": b'{"True": "yes", "False": "no"}',
    "empty": b'{}',
    "error": b'{"error": "saturated", "retry_after": 0.25, "detail": "queue full (64/64)"}',
    "fraction": b'{"exact": "7/3"}',
    "int_and_float_keys": b'{"1": "a", "2.5": "b"}',
    "int_subclass": b'{"flag": 3, "flags": [0]}',
    "negative_zero": b'{"x": -0.0, "xs": [-0.0, 0.0]}',
    "nested_bool_key": b'{"outer": [{"inner": {"True": [1.0]}}]}',
    "none_key": b'{"None": 1}',
    "nonfinite": b'{"bound": "Infinity", "gap": "NaN", "low": "-Infinity", "xs": [1.0, "NaN"]}',
    "numpy": b'{"f": 2.5, "f32": 0.10000000149011612, "i": 4, "b": false, "arr": [0.5, 1.5], "nan": "NaN"}',
    "numpy_key": b'{"3": "c"}',
    "plan": b'{"kind": "drrp", "status": "optimal", "vm_name": "m1.large", "alpha": [1.2000000000000002, 0.0, 0.30000000000000004], "beta": [0.8, 0.0, 0.0], "chi": [1, 0, 1], "total_cost": 1.0345678901234567, "costs": {"compute": 0.68, "inventory": 1e-17, "transfer_in": 0.06, "transfer_out": 0.2}, "solve": {"nodes": 0, "iterations": 0, "wall_time": 0.000123456789}, "job_id": "ab12", "cached": false, "coalesced": null}',
    "tuples_and_sets": b'{"t": [1, [2.0, "x"]], "s": [1, 2, 3], "fs": [0.5]}',
    "unicode": b'{"msg": "d\\u00e9j\\u00e0 vu \\u2713", "\\u043a\\u043b\\u044e\\u0447": "\\u0437\\u043d\\u0430\\u0447\\u0435\\u043d\\u0438\\u0435"}',
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_reply_bytes_pinned(name):
    assert _reply_bytes(BODIES[name]) == PINNED[name]


def test_every_body_is_pinned():
    assert sorted(BODIES) == sorted(PINNED)
