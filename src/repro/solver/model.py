"""Optimization model container and compilation to matrix form.

A :class:`Model` collects variables, linear constraints and a linear
objective, then compiles them into the dense/sparse arrays the backends
consume (:class:`CompiledProblem`).  This mirrors what AIMMS did for the
paper's authors: the DRRP/SRRP builders in :mod:`repro.core` write equations
essentially as they appear in the paper and leave standard-form bookkeeping
to this module.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .expr import Constraint, ConstraintSense, LinExpr, Variable, VarType

__all__ = [
    "ObjectiveSense",
    "Model",
    "CompiledProblem",
    "compile_cache_stats",
    "reset_compile_cache",
    "reset_compile_cache_stats",
]

#: Module-level LRU keyed on the *shape* of a model (sparsity pattern
#: only, no coefficient values).  A fleet of tenants builds thousands of
#: models that differ only in demands/prices; their matrices differ but the
#: row partition and COO index arrays are identical, so a shape hit skips
#: the per-row Python assembly and reduces compilation to value scatters.
#: Lock-guarded because the service solves on worker threads.
_SHAPE_CACHE: "OrderedDict[tuple, _CompiledShape]" = OrderedDict()
_SHAPE_CACHE_MAX = 64
_SHAPE_CACHE_LOCK = threading.Lock()

_COMPILE_STATS = {
    "compiles": 0,       # total compile() calls
    "instance_hits": 0,  # unmodified model recompiled -> per-instance cache
    "shape_hits": 0,     # identical sparsity pattern -> index-array reuse
    "full_builds": 0,    # cold: row partition + index arrays built from scratch
}


def compile_cache_stats() -> dict[str, int]:
    """Snapshot of the compile-cache counters (see ``_COMPILE_STATS``)."""
    with _SHAPE_CACHE_LOCK:
        return dict(_COMPILE_STATS)


def reset_compile_cache_stats() -> None:
    """Zero the compile-cache counters (benchmarks call this per leg)."""
    with _SHAPE_CACHE_LOCK:
        for key in _COMPILE_STATS:
            _COMPILE_STATS[key] = 0


def reset_compile_cache() -> None:
    """Drop the module-level shape LRU and zero the counters.

    Tests that assert on cold-compile behaviour need this: the LRU is
    process-wide, so without it any same-shape model compiled earlier in
    the process turns an expected ``full_build`` into a cache hit.
    """
    with _SHAPE_CACHE_LOCK:
        _SHAPE_CACHE.clear()
        for key in _COMPILE_STATS:
            _COMPILE_STATS[key] = 0


def _bump(counter: str) -> None:
    with _SHAPE_CACHE_LOCK:
        _COMPILE_STATS[counter] += 1


@dataclass(frozen=True)
class _CompiledShape:
    """Reusable sparsity pattern of a compiled model.

    ``ub_rows``/``eq_rows`` hold ``(constraint_index, row_sign)`` in block
    order; the ``ri``/``ci`` arrays are the COO scatter indices for each
    block; ``obj_ci`` the objective's column indices in term-iteration
    order.  Value extraction at fill time walks the same iteration order
    the shape key was built from, so columns always line up.
    """

    n: int
    ub_rows: tuple[tuple[int, float], ...]
    eq_rows: tuple[int, ...]
    ub_ri: np.ndarray
    ub_ci: np.ndarray
    eq_ri: np.ndarray
    eq_ci: np.ndarray
    obj_ci: np.ndarray


class ObjectiveSense:
    MINIMIZE = "min"
    MAXIMIZE = "max"


@dataclass
class CompiledProblem:
    """Matrix form of a model:  optimize ``c @ x + c0``.

    Subject to ``A_ub @ x <= b_ub``, ``A_eq @ x == b_eq`` and
    ``lb <= x <= ub``; entries of ``integrality`` are 1 where the variable
    must be integral.  ``sense`` is ``+1`` for minimize (backends always
    minimize; a maximize model is compiled with negated ``c`` and the flip is
    undone when reading the objective back).
    """

    c: np.ndarray
    c0: float
    A_ub: np.ndarray
    b_ub: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray
    maximize: bool
    variables: list[Variable] = field(default_factory=list)

    @property
    def num_vars(self) -> int:
        return self.c.shape[0]

    @property
    def num_constraints(self) -> int:
        return self.A_ub.shape[0] + self.A_eq.shape[0]

    def objective_value(self, x: np.ndarray) -> float:
        """Objective in the *model's* sense (undoes the internal negation)."""
        raw = float(self.c @ x) + self.c0
        return -raw if self.maximize else raw

    def copy(self, variables: list[Variable] | None = None) -> "CompiledProblem":
        """Deep copy of the matrix data (cache hits must not alias arrays).

        ``variables`` optionally replaces the variable list, so a cached
        structure can be handed out under a different model's (identically
        shaped) variables.
        """
        return CompiledProblem(
            c=self.c.copy(), c0=self.c0,
            A_ub=self.A_ub.copy(), b_ub=self.b_ub.copy(),
            A_eq=self.A_eq.copy(), b_eq=self.b_eq.copy(),
            lb=self.lb.copy(), ub=self.ub.copy(),
            integrality=self.integrality.copy(), maximize=self.maximize,
            variables=list(self.variables) if variables is None else list(variables),
        )

    def is_feasible(self, x: np.ndarray, tol: float = 1e-6) -> bool:
        """Check constraint and bound satisfaction of a candidate point."""
        if np.any(x < self.lb - tol) or np.any(x > self.ub + tol):
            return False
        if self.A_ub.size and np.any(self.A_ub @ x > self.b_ub + tol):
            return False
        if self.A_eq.size and np.any(np.abs(self.A_eq @ x - self.b_eq) > tol):
            return False
        mask = self.integrality.astype(bool)
        if mask.any() and np.any(np.abs(x[mask] - np.round(x[mask])) > tol):
            return False
        return True


class Model:
    """A mixed-integer linear program under construction.

    Examples
    --------
    >>> m = Model("lot-sizing")
    >>> x = m.add_var("x", lb=0)
    >>> y = m.add_var("y", vtype="binary")
    >>> m.add_constr(x <= 10 * y)
    >>> m.set_objective(3 * x - 5 * y, sense="min")
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: LinExpr = LinExpr()
        self.sense: str = ObjectiveSense.MINIMIZE
        self._names: set[str] = set()
        # Mutation counter driving compile() caching: every structural edit
        # bumps it, so a stale cached compilation can never be returned.
        self._version = 0
        self._compiled_version = -1
        self._compiled: CompiledProblem | None = None

    # -- construction --------------------------------------------------------
    def add_var(
        self,
        name: str | None = None,
        lb: float = 0.0,
        ub: float = math.inf,
        vtype: str | VarType = VarType.CONTINUOUS,
    ) -> Variable:
        """Create and register a decision variable.

        ``vtype`` accepts a :class:`VarType` or the strings ``"continuous"``,
        ``"integer"``, ``"binary"``.
        """
        if isinstance(vtype, str):
            vtype = VarType(vtype)
        if name is None:
            name = f"x{len(self.variables)}"
        if name in self._names:
            raise ValueError(f"duplicate variable name {name!r}")
        var = Variable(name, index=len(self.variables), lb=lb, ub=ub, vtype=vtype)
        self.variables.append(var)
        self._names.add(name)
        self._version += 1
        return var

    def add_vars(self, count: int, prefix: str, **kwargs) -> list[Variable]:
        """Create ``count`` variables named ``prefix[0] .. prefix[count-1]``."""
        return [self.add_var(f"{prefix}[{i}]", **kwargs) for i in range(count)]

    def add_constr(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built by comparing expressions."""
        if not isinstance(constraint, Constraint):
            raise TypeError(
                "add_constr expects a Constraint (did the comparison collapse "
                "to a bool? compare LinExpr objects, not numbers)"
            )
        if name:
            constraint.name = name
        self.constraints.append(constraint)
        self._version += 1
        return constraint

    def set_objective(self, expr, sense: str = ObjectiveSense.MINIMIZE) -> None:
        """Set the linear objective and its sense (``"min"`` or ``"max"``)."""
        self.objective = LinExpr._coerce(expr)
        if sense not in (ObjectiveSense.MINIMIZE, ObjectiveSense.MAXIMIZE):
            raise ValueError(f"unknown objective sense {sense!r}")
        self.sense = sense
        self._version += 1

    # -- introspection --------------------------------------------------------
    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def num_integer_vars(self) -> int:
        return sum(1 for v in self.variables if v.is_integral)

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, vars={self.num_vars} "
            f"(int={self.num_integer_vars}), constrs={self.num_constraints})"
        )

    # -- compilation -----------------------------------------------------------
    def _shape_key(self) -> tuple:
        """Hashable sparsity pattern — no coefficient values.

        Covers everything :class:`_CompiledShape` encodes: variable count,
        constraint senses in order, each row's column indices in *term
        iteration order* (so two models with equal keys are guaranteed to
        scatter values into the same slots), and the objective's column
        order and sense.  Bounds, vtypes, rhs and coefficients are values
        and are filled per model.
        """
        return (
            len(self.variables),
            tuple((c.sense, tuple(v.index for v in c.expr.terms)) for c in self.constraints),
            self.sense,
            tuple(v.index for v in self.objective.terms),
        )

    def compile(self) -> CompiledProblem:
        """Compile to matrix form; maximize models get ``c`` negated.

        Results are cached two ways and always returned as defensive
        copies (callers mutate bounds in place during branching/presolve):

        * per instance, keyed on the mutation counter, so back-to-back
          solves of an unmodified model skip matrix assembly entirely;
        * in a module-level shape LRU keyed on the sparsity pattern alone,
          so same-shape models with different coefficients (a fleet of
          tenants, a resubmitted planning request) reuse the row partition
          and COO index arrays and only pay for value scatters.
        """
        _bump("compiles")
        if self._compiled is not None and self._compiled_version == self._version:
            _bump("instance_hits")
            return self._compiled.copy(variables=self.variables)

        shape_key = self._shape_key()
        with _SHAPE_CACHE_LOCK:
            shape = _SHAPE_CACHE.get(shape_key)
            if shape is not None:
                _SHAPE_CACHE.move_to_end(shape_key)
        if shape is not None:
            _bump("shape_hits")
        else:
            _bump("full_builds")
            shape = self._build_shape()
            with _SHAPE_CACHE_LOCK:
                _SHAPE_CACHE[shape_key] = shape
                _SHAPE_CACHE.move_to_end(shape_key)
                while len(_SHAPE_CACHE) > _SHAPE_CACHE_MAX:
                    _SHAPE_CACHE.popitem(last=False)

        compiled = self._compile_with_shape(shape)
        self._compiled = compiled
        self._compiled_version = self._version
        return compiled.copy(variables=self.variables)

    def _compile_uncached(self) -> CompiledProblem:
        """Cold compile with no cache participation (kept for direct use)."""
        return self._compile_with_shape(self._build_shape())

    def _build_shape(self) -> _CompiledShape:
        """Partition rows into blocks and precompute the COO index arrays."""
        n = len(self.variables)
        # GE rows fold into the <= block with a -1 row sign applied to the
        # coefficient values — no negated dict copies.
        ub_rows: list[tuple[int, float]] = []
        eq_rows: list[int] = []
        for idx, constr in enumerate(self.constraints):
            if constr.sense is ConstraintSense.LE:
                ub_rows.append((idx, 1.0))
            elif constr.sense is ConstraintSense.GE:
                ub_rows.append((idx, -1.0))
            else:
                eq_rows.append(idx)

        def indices(row_ids):
            nnz = sum(len(self.constraints[i].expr.terms) for i in row_ids)
            ri = np.empty(nnz, dtype=np.intp)
            ci = np.empty(nnz, dtype=np.intp)
            k = 0
            for row, i in enumerate(row_ids):
                terms = self.constraints[i].expr.terms
                t = len(terms)
                ri[k : k + t] = row
                ci[k : k + t] = np.fromiter((v.index for v in terms), dtype=np.intp, count=t)
                k += t
            return ri, ci

        ub_ri, ub_ci = indices([i for i, _ in ub_rows])
        eq_ri, eq_ci = indices(eq_rows)
        obj_terms = self.objective.terms
        obj_ci = np.fromiter(
            (v.index for v in obj_terms), dtype=np.intp, count=len(obj_terms)
        )
        return _CompiledShape(
            n=n, ub_rows=tuple(ub_rows), eq_rows=tuple(eq_rows),
            ub_ri=ub_ri, ub_ci=ub_ci, eq_ri=eq_ri, eq_ci=eq_ci, obj_ci=obj_ci,
        )

    def _compile_with_shape(self, shape: _CompiledShape) -> CompiledProblem:
        """Fill coefficient values into a (possibly shared) sparsity pattern."""
        n = shape.n
        c = np.zeros(n)
        obj_terms = self.objective.terms
        if obj_terms:
            c[shape.obj_ci] = np.fromiter(obj_terms.values(), dtype=float, count=len(obj_terms))
        maximize = self.sense == ObjectiveSense.MAXIMIZE
        if maximize:
            c = -c
        c0 = -self.objective.constant if maximize else self.objective.constant

        A_ub = np.zeros((len(shape.ub_rows), n))
        b_ub = np.empty(len(shape.ub_rows))
        vals = np.empty(shape.ub_ci.shape[0])
        k = 0
        for row, (i, sign) in enumerate(shape.ub_rows):
            constr = self.constraints[i]
            terms = constr.expr.terms
            t = len(terms)
            vals[k : k + t] = np.fromiter(terms.values(), dtype=float, count=t)
            if sign != 1.0:
                vals[k : k + t] *= sign
            b_ub[row] = constr.rhs * sign
            k += t
        # LinExpr terms are keyed by variable, so (row, col) pairs are
        # unique and one fancy assignment scatters the whole COO batch.
        A_ub[shape.ub_ri, shape.ub_ci] = vals

        A_eq = np.zeros((len(shape.eq_rows), n))
        b_eq = np.empty(len(shape.eq_rows))
        vals = np.empty(shape.eq_ci.shape[0])
        k = 0
        for row, i in enumerate(shape.eq_rows):
            constr = self.constraints[i]
            terms = constr.expr.terms
            t = len(terms)
            vals[k : k + t] = np.fromiter(terms.values(), dtype=float, count=t)
            b_eq[row] = constr.rhs
            k += t
        A_eq[shape.eq_ri, shape.eq_ci] = vals

        lb = np.fromiter((v.lb for v in self.variables), dtype=float, count=n)
        ub = np.fromiter((v.ub for v in self.variables), dtype=float, count=n)
        integrality = np.fromiter(
            (1 if v.is_integral else 0 for v in self.variables), dtype=int, count=n
        )
        return CompiledProblem(
            c=c, c0=c0, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
            lb=lb, ub=ub, integrality=integrality, maximize=maximize,
            variables=list(self.variables),
        )
