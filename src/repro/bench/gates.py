"""One gate table for every bench record.

Every ``BENCH_*.json`` family (``solver``, ``fleet``, ``sim``,
``service``) is held to the rows of :data:`GATES`, and
:func:`check_record` is the only function that reads them: CI's
``--check-against`` gates, ``bench service``'s self-check and
``bench report``'s headline table all go through this module.

A row is data, not code:

* ``label`` names the gated number (the ``bench report`` headline and
  the start of every failure line; ``{}`` is filled with the key a
  ``*`` matched);
* ``path`` is a dotted record path, where a ``*`` segment stands for
  each key of the dict at that point (the baseline's keys for a rule
  against the baseline, so a key the fresh record lost is reported);
* ``rule`` is one of

  - :data:`MIN` / :data:`MAX` / :data:`ABOVE` — ``value >= / <= / >
    bound``, where ``bound`` is a number or a path in the same record
    (a record without the bound path skips the row);
  - :data:`FACTOR` — ``value >= bound * baseline``;
  - :data:`BAND` — ``bound * baseline <= value <= baseline / bound``;
  - :data:`EXCESS` — for a cost ratio to an exact optimum:
    ``value - 1 <= (baseline - 1) / bound``, so its excess over the
    optimum may grow by at most ``1 / bound``;

  the three baseline rules need a positive baseline (for ``EXCESS``, a
  baseline above 1): around zero they draw no band;
* ``when`` is one of :data:`ALWAYS`, :data:`MULTICORE` (the record's
  host delivered at least 2 CPUs), :data:`SAME_CONFIG` (the two records
  agree on every path in ``config``), :data:`BOTH` (the value is in both
  records) and :data:`CLEARED` (it is in both, and the baseline itself
  passes the row).

Rows against the baseline, and every condition that reads it, skip when
there is no baseline.  A value missing from the fresh record fails its
row unless the row applies only to values in both records.  Every row
passes a record checked against itself, on any host.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GATES", "Gate", "bench_kind", "check_record", "headline_metrics"]

MIN, MAX, ABOVE = "min", "max", "above"
FACTOR, BAND, EXCESS = "factor", "band", "excess"
ALWAYS, MULTICORE, SAME_CONFIG, BOTH, CLEARED = (
    "always", "multicore", "same-config", "both", "cleared",
)
_RELATIVE = (FACTOR, BAND, EXCESS)
_RULES = (MIN, MAX, ABOVE, *_RELATIVE)
_CONDITIONS = (ALWAYS, MULTICORE, SAME_CONFIG, BOTH, CLEARED)


@dataclass(frozen=True)
class Gate:
    """One row of the gate table (see the module docstring)."""

    label: str
    path: str
    rule: str
    bound: float | str
    when: str = ALWAYS
    config: tuple[str, ...] = ("config",)

    def __post_init__(self) -> None:
        if self.rule not in _RULES or self.when not in _CONDITIONS:
            raise ValueError(f"gate {self.label!r}: unknown rule or condition")


#: An oracle ratio may sit this far under 1 on float noise alone.
_ORACLE_FLOOR = 1.0 - 1e-9

GATES: dict[str, tuple[Gate, ...]] = {
    "solver": (
        Gate("bb node-throughput ratio (x)", "bb.node_throughput_ratio", FACTOR, 0.75),
        Gate("bb node-throughput ratio (x)", "bb.node_throughput_ratio", MIN, 1.0,
             CLEARED),
        Gate("bb warm-hit rate", "bb.warm.warm_hit_rate", FACTOR, 0.75),
        Gate("benders speedup (x)", "benders.speedup", ABOVE, 1.0, MULTICORE),
        Gate("large speedup vs HiGHS (x)", "large.speedup_vs_highs", FACTOR, 0.75, BOTH),
        Gate("large speedup vs HiGHS (x)", "large.speedup_vs_highs", MIN, 1.0, CLEARED),
        Gate("large warm re-solves", "large.revised.warm_used", MIN, "large.resolves"),
        Gate("large vars", "large.vars", MIN, 200, CLEARED),
        Gate("large rows", "large.rows", MIN, 60, CLEARED),
    ),
    "fleet": (
        Gate("plan feasible", "feasibility.feasible", MIN, 1),
        Gate("cohort heuristic/MILP cost ratio", "cohort.cost_ratio_mean", MAX, 1.05),
        Gate("cohort heuristic/MILP cost ratio", "cohort.cost_ratio_mean", EXCESS, 0.75),
        Gate("escalation fraction", "plan.escalation_fraction", BAND, 0.75),
    ),
    "sim": (
        Gate("no-plan cost / oracle", "ratios.no-plan", ABOVE, "ratios.rolling-drrp"),
        Gate("{} cost / oracle", "ratios.*", MIN, _ORACLE_FLOOR),
        Gate("{} cost / oracle", "ratios.*", BAND, 0.95, SAME_CONFIG),
        Gate("service route matches in-process", "service.consistent_with_in_process",
             MIN, 1),
        Gate("service replay cache-hit rate", "service.replay_cache_hit_rate", MIN, 0.9),
        Gate("backpressure degraded plans", "backpressure.degrade.degraded_plans", MIN, 1),
        Gate("backpressure local fallbacks", "backpressure.reject.local_fallbacks", MIN, 1),
        Gate("backpressure degrade forced top-ups",
             "backpressure.degrade.forced_topups", MAX, 0),
        Gate("backpressure reject forced top-ups",
             "backpressure.reject.forced_topups", MAX, 0),
        Gate("bid sweep {} cost / oracle", "bid_sweep.policies.*.ratio", MIN,
             _ORACLE_FLOOR),
        Gate("bid sweep {} cost / oracle", "bid_sweep.policies.*.ratio", BAND, 0.95,
             SAME_CONFIG, config=("bid_sweep.slots", "bid_sweep.interruption_loss")),
        Gate("bid sweep bid-fixed cost / oracle", "bid_sweep.policies.bid-fixed.ratio",
             ABOVE, "bid_sweep.best_nonfixed_ratio"),
    ),
    "service": (
        Gate("dropped requests", "dropped", MAX, 0),
        Gate("cache hit rate", "cache.hit_rate", MIN, "duplicate_share"),
        Gate("saturation 429s", "saturation.rejected", MIN, 1),
    ),
}


def bench_kind(record: dict) -> str:
    """The benchmark family of one record (solver / fleet / sim / service / ?)."""
    # The service load generator labels its record "name"; the others
    # use "benchmark".  Either way the value is the family.
    return str(record.get("benchmark") or record.get("name") or "?")


def _lookup(record, path: str):
    node = record
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def _number(record, path: str) -> float | None:
    value = _lookup(record, path)
    try:
        return float(value)  # bools gate as 0 / 1
    except (TypeError, ValueError):
        return None


def _expand(path: str, record) -> list[tuple[str, tuple[str, ...]]]:
    """Concrete paths for ``path`` in ``record``, each with the keys its
    ``*`` segments matched.  A ``*`` over a missing dict stays literal,
    so the lookup reports the path as missing."""
    done: list[tuple[list[str], tuple[str, ...]]] = [([], ())]
    for segment in path.split("."):
        grown = []
        for prefix, keys in done:
            node = _lookup(record, ".".join(prefix)) if prefix else record
            if segment != "*":
                grown.append((prefix + [segment], keys))
            elif isinstance(node, dict):
                grown += [(prefix + [k], keys + (k,)) for k in sorted(node)]
            else:
                grown.append((prefix + ["*"], keys + ("*",)))
        done = grown
    return [(".".join(prefix), keys) for prefix, keys in done]


def _verdict(gate: Gate, value: float, record, base: float | None) -> str | None:
    """``None`` when ``value`` passes ``gate``, else what went wrong; a
    row that draws no bound here (missing bound path, zero baseline)
    passes."""
    if gate.rule in _RELATIVE:
        f = float(gate.bound)
        if gate.rule == FACTOR:
            if base > 0 and value < f * base:
                return f"regressed to {value:.4g}, below {f:g} x baseline {base:.4g}"
        elif gate.rule == BAND:
            if base > 0 and not f * base <= value <= base / f:
                return (f"drifted to {value:.4g}, outside {f * base:.4g}.."
                        f"{base / f:.4g} around baseline {base:.4g}")
        elif base > 1.0 and value > 1.0 + (base - 1.0) / f + 1e-9:  # EXCESS
            return (f"regressed to {value:.4g}: its excess over 1 grew past "
                    f"baseline {base:.4g}'s / {f:g}")
        return None
    if isinstance(gate.bound, str):
        bound = _number(record, gate.bound)
        if bound is None:
            return None
        shown = f"{gate.bound} {bound:.4g}"
    else:
        bound, shown = float(gate.bound), f"{gate.bound:.4g}"
    if gate.rule == MIN and not value >= bound:
        return f"{value:.4g} below {shown}"
    if gate.rule == MAX and not value <= bound:
        return f"{value:.4g} above {shown}"
    if gate.rule == ABOVE and not value > bound:
        return f"{value:.4g} not above {shown}"
    return None


def _check_gate(gate: Gate, record: dict, baseline: dict | None) -> list[str]:
    relative = gate.rule in _RELATIVE
    if baseline is None and (relative or gate.when not in (ALWAYS, MULTICORE)):
        return []
    cpus = int(_number(record, "cpu_count") or 1)
    if gate.when == MULTICORE and cpus < 2:
        return []
    if gate.when == SAME_CONFIG and any(
        _lookup(record, p) != _lookup(baseline, p) for p in gate.config
    ):
        return []
    failures = []
    for path, keys in _expand(gate.path, baseline if relative else record):
        label = gate.label.format(*keys)
        value = _number(record, path)
        base = _number(baseline, path) if baseline is not None else None
        if gate.when in (BOTH, CLEARED) and (value is None or base is None):
            continue
        if gate.when == CLEARED and _verdict(gate, base, baseline, None) is not None:
            continue
        if relative and base is None:
            continue  # the baseline predates the field: no band to hold
        if value is None:
            failures.append(f"{label}: {path} missing from the record")
            continue
        problem = _verdict(gate, value, record, base)
        if problem is not None:
            note = {
                MULTICORE: f" on a host delivering {cpus} CPUs",
                CLEARED: " (the baseline cleared it)",
            }.get(gate.when, "")
            failures.append(f"{label} {problem}{note}")
    return failures


def check_record(record: dict, baseline: dict | None = None) -> list[str]:
    """Every failed gate of ``record`` (against ``baseline`` when given).

    Returns human-readable failure lines; empty means the record passes.
    """
    kind = bench_kind(record)
    if kind not in GATES:
        return [f"no gates for bench family {kind!r}"]
    if baseline is not None and bench_kind(baseline) != kind:
        return [f"baseline is a {bench_kind(baseline)!r} record, not {kind!r}"]
    return [f for gate in GATES[kind] for f in _check_gate(gate, record, baseline)]


def headline_metrics(record: dict) -> dict[str, float]:
    """The gated numbers of one record, keyed by gate label in table order.

    An unknown family or a malformed record yields what it can (possibly
    nothing) rather than raising, so a report never fails on a record.
    """
    out: dict[str, float] = {}
    for gate in GATES.get(bench_kind(record), ()):
        for path, keys in _expand(gate.path, record):
            value = _number(record, path)
            if value is not None:
                out.setdefault(gate.label.format(*keys), value)
    return out
