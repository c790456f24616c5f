"""``SolveEvent``: the slotted frozen record every telemetry hub emits.

Recorders keep every event (a rolling campaign retains thousands of them
per run), so the record carries no per-instance ``__dict__``.  It must
still pickle, because events cross process boundaries, and flatten
through ``to_dict`` for JSON export.  SciPy-free.
"""

import dataclasses
import pickle

import pytest

from repro.solver.telemetry import SolveEvent


class TestSolveEventRecord:
    def test_slotted_and_frozen(self):
        event = SolveEvent(kind="lp_warm", t=0.5, data={"pivots": 3})
        assert not hasattr(event, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.t = 1.0

    def test_pickle_round_trip(self):
        event = SolveEvent(kind="lp_warm", t=0.25, data={"pivots": 3, "mode": "dual"})
        back = pickle.loads(pickle.dumps(event))
        assert back == event
        assert back.kind == "lp_warm" and back.t == 0.25
        assert back.data == {"pivots": 3, "mode": "dual"}

    def test_to_dict_flattens_payload(self):
        event = SolveEvent(kind="solve_end", t=2.0, data={"status": "optimal", "duration": 1.5})
        assert event.to_dict() == {
            "kind": "solve_end", "t": 2.0, "status": "optimal", "duration": 1.5,
        }
        assert SolveEvent(kind="phase_start", t=0.0).to_dict() == {
            "kind": "phase_start", "t": 0.0,
        }
