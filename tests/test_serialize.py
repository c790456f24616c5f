"""repro.serialize: canonical JSON, digests, instance identity, re-exports."""

import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from repro.core import DRRPInstance, SRRPInstance, build_tree, on_demand_schedule
from repro.market import ec2_catalog
from repro.serialize import (
    canonical_json,
    instance_digest,
    instance_payload,
    jsonable,
    result_digest,
)


def drrp(vm="m1.large", T=5, demand=0.4):
    catalog = ec2_catalog()
    return DRRPInstance(
        demand=np.full(T, demand),
        costs=on_demand_schedule(catalog[vm], T),
        vm_name=vm,
    )


def srrp(T=3):
    catalog = ec2_catalog()
    tree = build_tree(0.1, [(np.array([0.1, 0.4]), np.array([0.5, 0.5]))] * (T - 1))
    return SRRPInstance(
        demand=np.full(T, 0.3),
        costs=on_demand_schedule(catalog["m1.large"], T),
        tree=tree,
        vm_name="m1.large",
    )


class TestJsonable:
    def test_fraction_and_nonfinite(self):
        assert jsonable(Fraction(1, 3)) == "1/3"
        assert jsonable(float("inf")) == "Infinity"
        assert jsonable(float("-inf")) == "-Infinity"
        assert jsonable(float("nan")) == "NaN"

    def test_numpy_values(self):
        assert jsonable(np.float64(1.5)) == 1.5
        assert jsonable(np.arange(3)) == [0, 1, 2]

    def test_telemetry_reexport_is_same_object(self):
        from repro.solver.telemetry import jsonable as via_telemetry

        assert via_telemetry is jsonable


class TestCompatReexports:
    def test_manifest_still_exports_canonical_names(self):
        from repro.obs.manifest import canonical_json as via_manifest_json
        from repro.obs.manifest import result_digest as via_manifest_digest

        assert via_manifest_json is canonical_json
        assert via_manifest_digest is result_digest

    def test_obs_package_reexport(self):
        import repro.obs as obs

        assert obs.result_digest is result_digest


class TestInstanceIdentity:
    def test_drrp_payload_shape(self):
        payload = instance_payload(drrp())
        assert payload["kind"] == "drrp"
        assert len(payload["demand"]) == 5
        assert set(payload["costs"]) == {
            "compute", "storage", "io", "transfer_in", "transfer_out"
        }

    def test_srrp_payload_includes_tree(self):
        payload = instance_payload(srrp())
        assert payload["kind"] == "srrp"
        assert payload["tree"]["nodes"][0]["depth"] == 0

    def test_digest_stable_across_reconstruction(self):
        assert instance_digest(drrp()) == instance_digest(drrp())

    def test_digest_ignores_label_but_not_content(self):
        a = drrp(vm="m1.large")
        b = DRRPInstance(demand=a.demand, costs=a.costs, vm_name="renamed")
        assert instance_digest(a) == instance_digest(b)
        assert instance_digest(a) != instance_digest(drrp(demand=0.5))

    def test_sub_ulp_noise_shares_digest(self):
        a = drrp()
        noisy = DRRPInstance(
            demand=a.demand * (1.0 + 1e-14), costs=a.costs, vm_name=a.vm_name
        )
        assert instance_digest(a) == instance_digest(noisy)

    def test_canonical_json_rejects_nan_payloads(self):
        # nonfinite floats become strings, so strict dumping never fails
        text = canonical_json({"bound": float("inf")})
        assert "Infinity" in text


class TestStdlibOnlyImport:
    @pytest.mark.parametrize("module", ["repro.serialize", "repro.service", "repro.obs"])
    def test_import_does_not_load_numpy(self, module):
        import os
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).parent.parent)
        code = (
            f"import sys, {module}; "
            "banned = [m for m in ('numpy', 'scipy') if m in sys.modules]; "
            "assert not banned, banned"
        )
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class _Flag(int):
    """An ``int`` subclass: the digest walks must treat it as its value."""


def _awkward_corpus() -> dict:
    """Payloads whose canonical form exercises every branch of the walk.

    Sets hold only numbers (their iteration order does not depend on the
    per-process string hash seed), and every fallback ``repr`` is of a
    value without a memory address in it.
    """
    from collections import OrderedDict
    from decimal import Decimal

    request_like = {
        "kind": "drrp",
        "backend": "auto",
        "instance": {
            "demand": [0.1 * k for k in range(24)],
            "costs": {
                "compute": [0.34] * 24,
                "storage": [0.15 / 730.0] * 24,
                "io": [0.1] * 24,
                "transfer_in": [0.1] * 24,
                "transfer_out": [0.17] * 24,
            },
            "phi": 0.5,
            "initial_storage": 0.0,
        },
    }
    return {
        "request_like": request_like,
        "negative_zero": [-0.0, 0.0, {"z": -0.0}],
        "nonfinite": {"bounds": [float("inf"), -float("inf"), float("nan")], "x": float("nan")},
        "nonfinite_in_floats": [1.0, float("inf"), 2.5],
        "extremes": [1e300, -1e-300, 5e-324, 0.1 + 0.2, 1 / 3, 2.0**70, 123456789.123456789],
        "big_ints": [2**70, -(2**64), 0, 1],
        "mixed_numbers": [1, 2.5, True, False, None, "s", 3],
        "fraction": {"exact": Fraction(-7, 3), "whole": Fraction(5, 1)},
        "numpy_scalars": [
            np.float64(1.5), np.float32(0.1), np.int64(3), np.int8(-2), np.bool_(True),
            np.float64("nan"), np.float64("-inf"),
        ],
        "numpy_arrays": {
            "vector": np.linspace(0.0, 1.0, 7),
            "matrix": np.arange(6, dtype=np.int64).reshape(2, 3),
            "bools": np.array([True, False]),
            "empty": np.zeros(0),
        },
        "tuples": (1.25, (2, 3.5), ()),
        "sets": [{3, 1, 2}, frozenset({0.5, 1.5}), set()],
        "int_keys": {2: "b", 1: "a", 10: "c"},
        "bool_and_none_keys": {True: 1, False: 0.5, None: "n"},
        "float_and_tuple_keys": {1.5: "x", (1, 2): "t"},
        "colliding_keys": {1: "int", "1": "str"},
        "numpy_keys": {np.int64(4): 1.0, np.float64(2.5): 2.0},
        "subclasses": OrderedDict([("b", _Flag(7)), ("a", [_Flag(1), 0.25])]),
        "fallback_repr": [1 + 2j, Decimal("1.50")],
        "unicode": {"é": "ünïcode", "key with space": "✓"},
        "empty": [[], {}, ""],
        "nested": {"a": [{"b": [[0.123456789012345, {"c": (1.0, None)}]]}]},
    }


# Recorded before the one-pass canonicalize; a change here changes every
# plan-cache key and result digest.
PINNED_DIGESTS = {
    "big_ints": "sha256:e6eae7dc4dc1d349b6e0969145a817c02b74b4e3cc1a18af90e159fd3905b6a5",
    "bool_and_none_keys": "sha256:8eda3a8ff3fe77f20066762395c192f8b1d88ab54558d76701186a016cbda3d9",
    "colliding_keys": "sha256:6669abf33cb805e5b899d91bf50ce14a0be130100aacaa2ccaab4faf477795c6",
    "empty": "sha256:17f03cd1fef9f0a05562a03a0653acbdfff522c9b0d88fd79e8ad5e40e87a433",
    "extremes": "sha256:41d11c8bb49c8a81b7bc9e9bb951ac327c7c044e4231c4a0ad4eabccb30bf85e",
    "fallback_repr": "sha256:85c219dc518c8d4bbc2bb583867b8aa5c2454fb71c2bb46be3e94e16b90b31e3",
    "float_and_tuple_keys": "sha256:cb02c31885efbd50d6dd36e42a0880acf296d0e678a0ba5da9483292b7a782df",
    "fraction": "sha256:e294b2f3ce2cacad00359e609c914576686bff80eab11c0d15914d385e6ac209",
    "int_keys": "sha256:4d6825aa27c5c6f81aa174c6d350f8c43ef9346030e375892018c25ffe9a395e",
    "mixed_numbers": "sha256:698630f13a83e8c2622c1552e35faee632b06273c1fcdb7d7979197ce70746ff",
    "negative_zero": "sha256:5c4a018bc0b5775456f51dd72512bddf3b8d7e005b5eda9b63069cf96b2871de",
    "nested": "sha256:aceb0ed42caacddc6f4bce8eac95803af244fb20134e3e2a4aad0cc4ea0fe0d9",
    "nonfinite": "sha256:cafb662e1b2c8f9d62bdd4a3539f7e8377082a23d7e414568054dd411cc1890d",
    "nonfinite_in_floats": "sha256:dedc4a4f7547c886b1135c534879ed2b2f11872eaed8d96da390623a7f983ef8",
    "numpy_arrays": "sha256:a7d03919b29080a76a65ea1fd76c704e44e4a35decd4ac93374ee2b900ad6b9e",
    "numpy_keys": "sha256:2ce1c8b08f6ca2a6323da168b334beacc0213f410132646cbd99cafbddb301c8",
    "numpy_scalars": "sha256:ebc1a24c3c186e70aac8600ef89830ed0ba2351fc1ce3d507507506b43bee205",
    "request_like": "sha256:1bebd99122227acab0b8b75fa461560afb58efd28a47185ea6cbf984070c627f",
    "sets": "sha256:c1b963f812c852a80b2f211188864ab21866ac0ab902f25a34cd34302ead56b2",
    "subclasses": "sha256:993925f3d24957f4d9928746e606c3f71ba7769545faa97197ec067c86ce70be",
    "tuples": "sha256:358ded9f1ae1216e660cd78109e0d2ceaae6c51c8707597cb98c2228cdfbcf9c",
    "unicode": "sha256:e924695865cfd2c14f1ce525b3d365164feffee88268a0de75ac5cdfa224cc39",
}
WHOLE_CORPUS_DIGEST = "sha256:db800aa47da978f2738f8d1e174a7ab08b976445cfe59c3e9120870fefb0fde9"
PINNED_TEXT = {
    "bool_and_none_keys": '{"False":0.5,"None":"n","True":1}',
    "colliding_keys": '{"1":"str"}',
    "negative_zero": '[-0.0,0.0,{"z":-0.0}]',
    "nonfinite_in_floats": '[1.0,"Infinity",2.5]',
    "numpy_scalars": '[1.5,0.10000000149,3,-2,true,"NaN","-Infinity"]',
    "subclasses": '{"a":[1,0.25],"b":7}',
}


class TestPinnedDigests:
    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_digest_pinned(self, name):
        assert result_digest(_awkward_corpus()[name]) == PINNED_DIGESTS[name]

    def test_corpus_is_fully_pinned(self):
        assert sorted(_awkward_corpus()) == sorted(PINNED_DIGESTS)

    def test_whole_corpus_pinned(self):
        assert result_digest(_awkward_corpus()) == WHOLE_CORPUS_DIGEST

    @pytest.mark.parametrize("name", sorted(PINNED_TEXT))
    def test_canonical_text_pinned(self, name):
        assert canonical_json(_awkward_corpus()[name]) == PINNED_TEXT[name]
