"""Sliding-window nonlinear least-squares factor graph.

Variables are real vectors; factors map connected variable values to weighted
residuals. Solving runs Levenberg-Marquardt over the free variables; windowing
works by hard-fixing old time-indexed variables (their values become constants
inside factors) rather than marginalizing them out. A fixed variable is
deleted once no factor reads it, so the graph's size is set by the window,
not by the number of frames seen.

Each Levenberg-Marquardt iteration assembles J and g = Jᵀr at the current
point and then stops, or tries steps, by these tests in turn:

- gradient: every column of J is nearly orthogonal to r,
  |g_j| <= _GRAD_TOL * ||J_j|| * ||r||, the cosine test of MINPACK
  (Moré, "The Levenberg-Marquardt algorithm: implementation and theory",
  1978). It runs before any trial step, and H = JᵀJ, whose diagonal damps
  the trial steps, is formed only when the test fails.
- no_descent: no step with damping up to _LAMBDA_MAX lowers the cost.
- cost / step: the accepted step lowered the cost by at most _COST_TOL of
  it, or moved no coordinate by more than _STEP_TOL.
- max_iter: _MAX_ITER assemblies ran without meeting a test above.

A graph with no free column or no residual row stops as empty, unsolved.

At a minimum reached to rounding, g is rounding noise in sums whose terms
are of size ||J_j|| * ||r||, so every cosine is a small multiple of
machine epsilon (at most 5e-14 on a 50-pose odometry and vision window),
far below _GRAD_TOL, and the gradient test stops the solve after one
assembly. The cost test alone cannot see that: the undamped step there
changes the cost only by rounding, and if it raises it by one ulp the
damping ladder climbs, with a full residual evaluation and a dense solve
per rung, until some step leaves the cost unchanged. A sliding window whose
new pose enters with a zero odometry residual starts at such a minimum.

The test measures stationarity, not how accurately the point was computed.
A step solved through JᵀJ carries an error of about eps * cond(J)**2 in
directions that H barely constrains; the gradient there is already below
rounding, so the solve stops with that error, where a further step could
have refined it.

A sliding window is solved again after each new pose, and most of it is
then as the last solve left it. The graph keeps that solve's window state:

- the active factors, in factor order, each with its last evaluation: its
  residual divided by sigma and that residual's cost term, at the value
  arrays it read;
- the value array each variable had when the last solve ended;
- the weighted residual r and the dense J, with the row block of each
  active factor and the column block of each free variable;
- for `slide_window`, the factors that read each variable, the ids it saw
  fixed and the factors added since it last ran.

A solve compares the graph with that state, by identity, and redoes only
what changed:

- a variable whose value array is not the kept one: the active factors
  that read it are evaluated again and their rows written again;
- a factor added since the last solve that reads a free variable:
  evaluated, and its rows appended;
- a factor that `slide_window` dropped, or whose variables are now all
  fixed: its rows are removed;
- a variable newly fixed or deleted: its columns are removed;
- a new free variable: its columns are appended;
- a fixed variable made free again, or `factors` bound to a new list: all
  kept state is dropped and the window is built as for a new graph.

r and J are copied over, less the removed blocks, when the removed blocks
lead, the new ones go last and no block changed size; otherwise they are
laid out afresh and every row is written. A row is written from its
evaluation, so r, J (C-contiguous, zeros off the blocks) and the cost,
summed per factor in factor order, are bitwise those of a graph built
afresh from the same variables and factors. An accepted step gives every
free variable a new array, so every row is written again at the next
iteration, on the same path. Jacobians are taken only when rows are
written.

`slide_window` looks only at the factors that read a variable it has
newly seen fixed, by the horizon or by a caller, and at the factors added
since it last ran. Those that read no free variable are dropped; then
each such variable, and each variable a dropped factor read, is deleted
if it is fixed and no factor reads it. The result is that of a full scan.

Callers keep this contract: replace `Variable.value`, never write into it
(a solve does the same, and a rejected trial step puts the old array
back); add factors with `add_factor`, and drop them by binding `factors`
to a new list, never by editing it in place. `fixed` may be flipped at
any time. A factor whose residual or Jacobian raises raises again on the
next solve.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import DuplicateId, NonFiniteResidual, UnknownVariable

_DIAG_FLOOR = 1e-12
_MAX_ITER = 25
_LAMBDA0 = 1e-4
_LAMBDA_UP = 10.0
_LAMBDA_DOWN = 10.0
_LAMBDA_MAX = 1e10
_GRAD_TOL = 1e-10   # cosine between each column of J and r
_COST_TOL = 1e-10   # relative cost decrease
_STEP_TOL = 1e-12   # step infinity-norm


@dataclass
class Variable:
    id: str
    value: np.ndarray
    time_index: Optional[int] = None
    fixed: bool = False

    @property
    def dim(self) -> int:
        return len(self.value)


@dataclass(frozen=True, eq=False)
class Factor:
    """Residual block connecting one or more variables.

    residual_fn(*values) returns a length-k vector; jacobian_fn(*values)
    returns one (k, dim_i) block per connected variable, in the same order.
    sigma holds the per-row residual standard deviations. Factors compare
    and hash by identity.
    """

    var_ids: tuple
    residual_fn: Callable
    jacobian_fn: Callable
    sigma: np.ndarray
    kind: str = "factor"
    time_index: Optional[int] = None

    def __init__(self, var_ids, residual_fn, jacobian_fn, sigma,
                 kind="factor", time_index=None):
        sig = np.atleast_1d(np.asarray(sigma, dtype=float))
        if not np.all((sig > 0) & np.isfinite(sig)):
            raise ValueError(f"factor {kind!r} sigma must be positive "
                             "and finite")
        object.__setattr__(self, "var_ids", tuple(var_ids))
        object.__setattr__(self, "residual_fn", residual_fn)
        object.__setattr__(self, "jacobian_fn", jacobian_fn)
        object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "time_index", time_index)

    def residual(self, *values) -> np.ndarray:
        r = np.asarray(self.residual_fn(*values), dtype=float)
        return r if r.ndim else r.reshape(1)

    def jacobian(self, *values):
        blocks = [np.asarray(b, dtype=float)
                  for b in self.jacobian_fn(*values)]
        return [b if b.ndim == 2 else np.atleast_2d(b) for b in blocks]


@dataclass
class SolveReport:
    iterations: int
    initial_cost: float
    final_cost: float
    converged: bool
    # "gradient", "cost", "step", "no_descent", "max_iter", or "empty" (no
    # free columns or no residual rows); see the module docstring
    stopped_by: str


class _Evaluation:
    """One factor evaluated at the value arrays it read: the residual
    divided by sigma and its cost term. `FactorGraph._write` takes the
    Jacobian at the same arrays."""

    __slots__ = ("factor", "values", "weighted", "size", "cost")

    def __init__(self, factor: Factor, values: list):
        r = factor.residual(*values)
        if factor.sigma.size not in (1, r.size):
            raise ValueError(f"factor {factor.kind!r} sigma length "
                             f"{factor.sigma.size} != residual length {r.size}")
        self.factor, self.values = factor, values
        self.weighted = r / factor.sigma
        self.size = r.size
        self.cost = float(self.weighted @ self.weighted)


class _Axis:
    """The blocks along one axis of J, in order: rows by factor or columns
    by variable id. at[key] is (first index + base, size), so dropping
    leading blocks or appending blocks leaves the other entries as they
    are."""

    __slots__ = ("at", "base", "end")

    def __init__(self):
        self.at, self.base, self.end = {}, 0, 0

    def __len__(self) -> int:
        return self.end - self.base

    def span(self, key) -> tuple:
        start, size = self.at[key]
        start -= self.base
        return start, start + size

    def append(self, key, size: int):
        self.at[key] = (self.end, size)
        self.end += size

    def drop_leading(self, n: int) -> int:
        """Drop the first n blocks; returns the indices they covered."""
        for key in list(itertools.islice(self.at, n)):
            del self.at[key]
        old, self.base = self.base, next(iter(self.at.values()),
                                         (self.end,))[0]
        return self.base - old


def jacobian_check(factor: Factor, values: Sequence[np.ndarray],
                   h: float = 1e-6) -> float:
    """Max relative error between analytic and central-difference Jacobians;
    NaN when either holds a NaN, so that no `< tol` test passes."""
    if not 0.0 < h < math.inf:
        raise ValueError("step h must be positive and finite")
    vals = [np.atleast_1d(np.asarray(v, dtype=float)) for v in values]
    analytic = factor.jacobian(*vals)
    errors = [0.0]
    for vi, J in enumerate(analytic):
        fd = np.zeros_like(J)
        for j in range(vals[vi].size):
            bump = vals[vi].copy()
            bump[j] += h
            hi = factor.residual(*(vals[:vi] + [bump] + vals[vi + 1:]))
            bump[j] -= 2 * h
            lo = factor.residual(*(vals[:vi] + [bump] + vals[vi + 1:]))
            fd[:, j] = (hi - lo) / (2 * h)
        scale = max(1.0, float(np.abs(fd).max()))
        errors.append(float(np.abs(J - fd).max()) / scale)
    # np.max, not max(), which keeps its first argument over a later NaN
    return float(np.max(errors))


class FactorGraph:
    """Mutable factor-graph container with an LM solver.

    One graph per estimation thread; methods are not thread-safe.
    """

    def __init__(self):
        self.variables: dict = {}
        self.factors: list = []
        self._forget()

    # -- construction -----------------------------------------------------

    def add_variable(self, var_id: str, initial, time_index: Optional[int] = None):
        if var_id in self.variables:
            raise DuplicateId(f"variable {var_id!r} already exists")
        value = np.atleast_1d(np.asarray(initial, dtype=float)).copy()
        self.variables[var_id] = Variable(var_id, value, time_index)
        return self.variables[var_id]

    def add_factor(self, factor: Factor):
        for vid in factor.var_ids:
            if vid not in self.variables:
                raise UnknownVariable(f"factor {factor.kind!r} references "
                                      f"unknown variable {vid!r}")
        self.factors.append(factor)
        return factor

    def get(self, var_id: str) -> np.ndarray:
        v = self.variables.get(var_id)
        if v is None:
            raise UnknownVariable(f"no variable {var_id!r} in the graph")
        return v.value.copy()

    # -- kept window state (module docstring) -------------------------------

    def _forget(self):
        """Drop all kept state; the next call indexes `factors` afresh."""
        self._listed, self._n_listed = self.factors, 0
        self._readers = {}      # vid -> {factor: None}, listed factors reading it
        self._fixed = set()     # ids the last slide saw fixed
        self._unchecked = []    # listed since the last slide
        self._forget_window()

    def _forget_window(self):
        """Drop the solve's kept state; the next solve builds it afresh."""
        self._evaluations = {}  # active factor -> _Evaluation, in J's row order
        self._unsolved = self.factors[:self._n_listed]  # listed since
        self._seen = {}         # vid -> value array the last solve left
        self._lay_out({}, {})   # _rows and _cols: the blocks of r and J
        self._J_stale = False   # some rows of r and J are not written

    def _index(self):
        """Index the factors listed since the last call, or all of them if
        `factors` is a new list."""
        factors = self.factors
        if factors is not self._listed or len(factors) < self._n_listed:
            self._forget()
        new = factors[self._n_listed:]
        for f in new:
            for vid in f.var_ids:
                self._readers.setdefault(vid, {})[f] = None
        self._unchecked += new
        self._unsolved += new
        self._n_listed = len(factors)

    def _values_of(self, factor: Factor):
        return [self.variables[vid].value for vid in factor.var_ids]

    def _reads_free(self, factor: Factor) -> bool:
        variables = self.variables
        for vid in factor.var_ids:
            if not variables[vid].fixed:
                return True
        return False

    # -- windowing ---------------------------------------------------------

    def slide_window(self, horizon: int):
        """Fix time-indexed variables older than the horizon; drop factors
        whose variables are all fixed (their cost is constant); then delete
        the fixed variables no remaining factor reads.

        A fixed variable a kept factor still reads stays as that factor's
        constant, for example the pose just before the window under the
        oldest odometry factor. A deleted variable is gone: `get` and
        `add_factor` no longer know its id.
        """
        if not isinstance(horizon, int) or horizon < 2:
            raise ValueError("horizon must be an int of at least 2")
        variables = self.variables
        newest = max([v.time_index for v in variables.values()
                      if v.time_index is not None], default=None)
        if newest is None:
            return
        cutoff = newest - horizon + 1
        self._index()
        seen_fixed, readers = self._fixed, self._readers
        seen_fixed.difference_update([vid for vid in seen_fixed
                                      if not variables[vid].fixed])
        newly = [vid for vid, v in variables.items()
                 if (v.fixed or v.time_index is not None
                     and v.time_index < cutoff) and vid not in seen_fixed]
        for vid in newly:
            variables[vid].fixed = True
        seen_fixed.update(newly)
        check = dict.fromkeys(self._unchecked)
        for vid in newly:
            check.update(readers.get(vid, {}))
        self._unchecked = []
        dropped = [f for f in check if not self._reads_free(f)]
        deletable = dict.fromkeys(newly)
        if dropped:
            gone = set(dropped)
            self.factors = [f for f in self.factors if f not in gone]
            self._listed, self._n_listed = self.factors, len(self.factors)
            self._unsolved = [f for f in self._unsolved if f not in gone]
            for f in dropped:
                self._evaluations.pop(f, None)
                for vid in f.var_ids:
                    readers[vid].pop(f, None)
                    deletable[vid] = None
        for vid in deletable:
            if variables[vid].fixed and not readers.get(vid):
                del variables[vid]
                readers.pop(vid, None)
                seen_fixed.discard(vid)
                self._seen.pop(vid, None)

    def active_time_indices(self) -> list:
        return sorted({v.time_index for v in self.variables.values()
                       if v.time_index is not None and not v.fixed})

    # -- solving -----------------------------------------------------------

    def _window(self):
        """Bring the kept window up to date with the graph. Returns the
        active factors' evaluations and the free variables, both by id, and
        the evaluations whose rows r and J still lack: the first iteration
        of the solve writes them."""
        self._index()
        variables, seen, cols = self.variables, self._seen, self._cols.at
        free = {vid: v for vid, v in variables.items() if not v.fixed}
        stale = [vid for vid, v in variables.items()
                 if v.value is not seen.get(vid)]
        gone = [vid for vid in cols if vid not in free]
        added = [vid for vid in free if vid not in cols]
        if not seen.keys().isdisjoint(added):
            # a fixed variable was made free: a factor that read no free
            # variable at the last solve may read one now
            self._forget_window()
            return self._window()

        readers, rows = self._readers, dict(self._evaluations)
        for vid in gone:
            for f in readers.get(vid, ()):
                if f in rows and not self._reads_free(f):
                    del rows[f]
        dirty = dict.fromkeys(f for vid in stale for f in readers.get(vid, ())
                              if f in rows)
        resized = False
        for f in dirty:
            ev = dirty[f] = _Evaluation(f, self._values_of(f))
            resized = resized or ev.size != self._rows.at[f][1]
            rows[f] = ev
        new = [f for f in self._unsolved if self._reads_free(f)]
        for f in new:
            rows[f] = dirty[f] = _Evaluation(f, self._values_of(f))
        self._evaluations, self._unsolved = rows, []

        # r and J keep the rows and columns they still need when those
        # they lose lead, the new ones go last and none changed size
        row_axis, col_axis = self._rows, self._cols
        lost = len(row_axis.at) - (len(rows) - len(new))
        if (not resized
                and lost == next((i for i, f in enumerate(row_axis.at)
                                  if f in rows), len(row_axis.at))
                and gone == list(itertools.islice(cols, len(gone)))
                and added == list(free)[len(free) - len(added):]
                and all(free[vid].dim == cols[vid][1] for vid in stale
                        if vid in cols and vid in free)):
            old_J, old_r = self._J, self._r
            r0 = row_axis.drop_leading(lost)
            c0 = col_axis.drop_leading(len(gone))
            for f in new:
                row_axis.append(f, rows[f].size)
            for vid in added:
                col_axis.append(vid, free[vid].dim)
            k_rows, k_cols = old_J.shape[0] - r0, old_J.shape[1] - c0
            J = self._J = np.empty((len(row_axis), len(col_axis)))
            J[:k_rows, :k_cols] = old_J[r0:, c0:]
            J[:k_rows, k_cols:] = 0.0
            J[k_rows:] = 0.0
            self._r = np.empty(J.shape[0])
            self._r[:k_rows] = old_r[r0:]
            unwritten = list((rows if self._J_stale else dirty).values())
        else:
            self._lay_out(rows, free)
            unwritten = list(rows.values())
        self._J_stale = bool(unwritten)
        for vid in stale:
            seen[vid] = variables[vid].value
        return rows, free, unwritten

    def _lay_out(self, rows, free):
        """Lay r and J out afresh, none of their rows written: a block of
        rows per evaluation and of columns per free variable, in order."""
        self._rows, self._cols = _Axis(), _Axis()
        for f, ev in rows.items():
            self._rows.append(f, ev.size)
        for vid, v in free.items():
            self._cols.append(vid, v.dim)
        self._J = np.zeros((len(self._rows), len(self._cols)))
        self._r = np.empty(self._J.shape[0])

    @staticmethod
    def _cost(evaluations) -> float:
        cost = 0.0
        for ev in evaluations:     # in factor order, one term at a time
            cost += ev.cost
        return cost

    @staticmethod
    def _write(J, r, evaluations, rows: _Axis, cols: _Axis):
        """Write each evaluation's weighted residual into r and its
        Jacobian, divided by sigma, into J, in place. A variable the factor
        lists twice gets the sum of its blocks; a fixed one is a constant
        and gets none, but every block's shape is checked."""
        for ev in evaluations:
            f, k = ev.factor, ev.size
            row0, row1 = rows.span(f)
            r[row0:row1] = ev.weighted
            jac = f.jacobian(*ev.values)
            if len(jac) != len(f.var_ids):
                raise ValueError(f"factor {f.kind!r} returned "
                                 f"{len(jac)} jacobian blocks")
            sigma, done = f.sigma[:, None], set()
            for vid, value, block in zip(f.var_ids, ev.values, jac):
                if block.shape != (k, value.size):
                    raise ValueError(f"factor {f.kind!r} jacobian block "
                                     f"{block.shape} for {vid!r}, expected "
                                     f"{(k, value.size)}")
                if vid in cols.at:
                    c0, c1 = cols.span(vid)
                    if vid in done:
                        J[row0:row1, c0:c1] += block / sigma
                    else:
                        np.divide(block, sigma, out=J[row0:row1, c0:c1])
                        done.add(vid)

    def solve(self) -> SolveReport:
        rows, free_vars, unwritten = self._window()
        factors, current = list(rows), list(rows.values())
        free = list(free_vars.items())
        initial_cost = self._cost(current)
        if not math.isfinite(initial_cost):
            raise NonFiniteResidual("non-finite residuals at initial point")
        report = SolveReport(0, initial_cost, initial_cost, True, "empty")
        if self._J.size == 0:
            return report

        lam = _LAMBDA0
        cost = initial_cost
        stopped_by = "max_iter"
        iterations = 0
        moved = False
        for _ in range(_MAX_ITER):
            iterations += 1
            r, J = self._r, self._J
            if unwritten:
                self._write(J, r, unwritten, self._rows, self._cols)
                self._J_stale, unwritten = False, ()
            g = J.T @ r
            norms = np.sqrt(np.einsum("ij,ij->j", J, J))
            if (np.abs(g) <= _GRAD_TOL * math.sqrt(cost) * norms).all():
                stopped_by = "gradient"
                break
            H = J.T @ J
            damp_base = np.maximum(np.diag(H), _DIAG_FLOOR)
            accepted = False
            new_cost = cost
            step = None
            # First attempt is always the undamped Gauss-Newton step; the
            # damping ladder engages only when that fails or increases cost.
            trial = 0.0
            while trial <= _LAMBDA_MAX:
                step = self._try_step(H, g, trial, damp_base)
                if step is None:
                    trial = lam if trial == 0.0 else trial * _LAMBDA_UP
                    continue
                before = [v.value for _, v in free]
                for vid, v in free:
                    c0, c1 = self._cols.span(vid)
                    v.value = v.value + step[c0:c1]
                trial_eval = [_Evaluation(f, self._values_of(f))
                              for f in factors]
                new_cost = self._cost(trial_eval)
                if math.isfinite(new_cost) and new_cost <= cost:
                    accepted = moved = self._J_stale = True
                    if any(ev.size != old.size
                           for ev, old in zip(trial_eval, current)):
                        self._lay_out(dict(zip(factors, trial_eval)),
                                      free_vars)
                    current = unwritten = trial_eval
                    break
                for (_, v), old in zip(free, before):
                    v.value = old
                trial = lam if trial == 0.0 else trial * _LAMBDA_UP
            if accepted and trial > 0.0:
                lam = max(trial / _LAMBDA_DOWN, _LAMBDA0)
            if not accepted:
                # No descent step exists within damping range: cost decrease is
                # zero, which meets the convergence criterion.
                stopped_by = "no_descent"
                break
            drop = cost - new_cost
            cost = new_cost
            if drop <= _COST_TOL * max(cost, 1e-30):
                stopped_by = "cost"
                break
            if float(np.abs(step).max()) <= _STEP_TOL:
                stopped_by = "step"
                break

        if moved:
            self._evaluations = dict(zip(factors, current))
            for vid, v in free:
                self._seen[vid] = v.value
        report.iterations = iterations
        report.final_cost = cost
        report.converged = stopped_by != "max_iter"
        report.stopped_by = stopped_by
        return report

    @staticmethod
    def _try_step(H, g, lam, damp_base):
        """Solve the (possibly damped) normal equations; None on failure."""
        Hd = H + np.diag(lam * damp_base) if lam > 0 else H
        try:
            step = np.linalg.solve(Hd, -g)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        return step
