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
from dataclasses import dataclass, field

import numpy as np

from .expr import Constraint, ConstraintSense, LinExpr, Variable, VarType

__all__ = [
    "ObjectiveSense",
    "Model",
    "CompiledProblem",
    "compile_cache_stats",
    "reset_compile_cache",
]

#: Process-wide count of ``Model.compile`` calls.  Lock-guarded because the
#: service solves on worker threads.
_COMPILES = 0
_COMPILES_LOCK = threading.Lock()


def compile_cache_stats() -> dict[str, int]:
    """Snapshot of the compile counter.

    There is no compile cache: every compile is a full build, so
    ``full_builds`` equals ``compiles`` and the hit counters read 0.  The
    keys stay for readers that index them.
    """
    with _COMPILES_LOCK:
        n = _COMPILES
    return {"compiles": n, "instance_hits": 0, "shape_hits": 0, "full_builds": n}


def reset_compile_cache() -> None:
    """Zero the compile counter."""
    global _COMPILES
    with _COMPILES_LOCK:
        _COMPILES = 0


def _count_compile() -> None:
    global _COMPILES
    with _COMPILES_LOCK:
        _COMPILES += 1


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

    def copy(self) -> "CompiledProblem":
        """Deep copy of the matrix data and the variable list."""
        return CompiledProblem(
            c=self.c.copy(), c0=self.c0,
            A_ub=self.A_ub.copy(), b_ub=self.b_ub.copy(),
            A_eq=self.A_eq.copy(), b_eq=self.b_eq.copy(),
            lb=self.lb.copy(), ub=self.ub.copy(),
            integrality=self.integrality.copy(), maximize=self.maximize,
            variables=list(self.variables),
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
        return constraint

    def set_objective(self, expr, sense: str = ObjectiveSense.MINIMIZE) -> None:
        """Set the linear objective and its sense (``"min"`` or ``"max"``)."""
        self.objective = LinExpr._coerce(expr)
        if sense not in (ObjectiveSense.MINIMIZE, ObjectiveSense.MAXIMIZE):
            raise ValueError(f"unknown objective sense {sense!r}")
        self.sense = sense

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
    def compile(self) -> CompiledProblem:
        """Compile to matrix form; maximize models get ``c`` negated.

        Every call builds fresh arrays, so callers may mutate bounds in
        place (branching, presolve) and a later edit to the model shows on
        the next compile.
        """
        _count_compile()
        n = len(self.variables)
        c = np.zeros(n)
        obj_terms = self.objective.terms
        if obj_terms:
            obj_ci = np.fromiter((v.index for v in obj_terms), dtype=np.intp, count=len(obj_terms))
            c[obj_ci] = np.fromiter(obj_terms.values(), dtype=float, count=len(obj_terms))
        maximize = self.sense == ObjectiveSense.MAXIMIZE
        if maximize:
            c = -c
        c0 = -self.objective.constant if maximize else self.objective.constant

        # GE rows fold into the <= block with a -1 row sign applied to the
        # coefficient values and the rhs.
        ub_rows: list[tuple[Constraint, float]] = []
        eq_rows: list[tuple[Constraint, float]] = []
        for constr in self.constraints:
            if constr.sense is ConstraintSense.LE:
                ub_rows.append((constr, 1.0))
            elif constr.sense is ConstraintSense.GE:
                ub_rows.append((constr, -1.0))
            else:
                eq_rows.append((constr, 1.0))
        A_ub, b_ub = _dense_block(ub_rows, n)
        A_eq, b_eq = _dense_block(eq_rows, n)

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


def _dense_block(rows: list[tuple[Constraint, float]], n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(A, b)`` of ``rows``, each ``(constraint, row_sign)``, over ``n`` columns."""
    nnz = sum(len(constr.expr.terms) for constr, _ in rows)
    ri = np.empty(nnz, dtype=np.intp)
    ci = np.empty(nnz, dtype=np.intp)
    vals = np.empty(nnz)
    b = np.empty(len(rows))
    k = 0
    for row, (constr, sign) in enumerate(rows):
        terms = constr.expr.terms
        t = len(terms)
        ri[k : k + t] = row
        ci[k : k + t] = np.fromiter((v.index for v in terms), dtype=np.intp, count=t)
        vals[k : k + t] = np.fromiter(terms.values(), dtype=float, count=t)
        if sign != 1.0:
            vals[k : k + t] *= sign
        b[row] = constr.rhs * sign
        k += t
    # LinExpr terms are keyed by variable, so (row, col) pairs are unique
    # and one fancy assignment scatters the whole COO batch.
    A = np.zeros((len(rows), n))
    A[ri, ci] = vals
    return A, b
