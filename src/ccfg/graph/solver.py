"""Sliding-window nonlinear least-squares factor graph.

Variables are real vectors; factors map connected variable values to weighted
residuals. Solving runs Levenberg-Marquardt over the free variables; windowing
works by hard-fixing old time-indexed variables (their values become constants
inside factors) rather than marginalizing them out. A fixed variable is
deleted once no factor reads it, so the graph's size is set by the window,
not by the number of frames seen.

Each Levenberg-Marquardt iteration assembles J, H = JᵀJ and g = Jᵀr at the
current point and then stops, or tries steps, by these tests in turn:

- gradient: every column of J is nearly orthogonal to r,
  |g_j| <= _GRAD_TOL * sqrt(H_jj) * ||r||, the cosine test of MINPACK
  (Moré, "The Levenberg-Marquardt algorithm: implementation and theory",
  1978). It runs before any trial step.
- no_descent: no step with damping up to _LAMBDA_MAX lowers the cost.
- cost / step: the accepted step lowered the cost by at most _COST_TOL of
  it, or moved no coordinate by more than _STEP_TOL.
- max_iter: _MAX_ITER assemblies ran without meeting a test above.

A graph with no free column or no residual row stops as empty, unsolved.

At a minimum reached to rounding, g is rounding noise in sums whose terms
are of size sqrt(H_jj) * ||r||, so every cosine is a small multiple of
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
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import DuplicateId, SingularNormalEquations, UnknownVariable

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


@dataclass(frozen=True)
class Factor:
    """Residual block connecting one or more variables.

    residual_fn(*values) returns a length-k vector; jacobian_fn(*values)
    returns one (k, dim_i) block per connected variable, in the same order.
    sigma holds the per-row residual standard deviations.
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
        return np.atleast_1d(np.asarray(self.residual_fn(*values), dtype=float))

    def jacobian(self, *values):
        blocks = self.jacobian_fn(*values)
        return [np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks]


@dataclass
class SolveReport:
    iterations: int
    initial_cost: float
    final_cost: float
    converged: bool
    # "gradient", "cost", "step", "no_descent", "max_iter", or "empty" (no
    # free columns or no residual rows); see the module docstring
    stopped_by: str
    singular: bool = False


@dataclass
class _Evaluation:
    """Residuals of the active factors at one point, divided by sigma, and
    the total cost."""

    weighted: list
    cost: float


def jacobian_check(factor: Factor, values: Sequence[np.ndarray],
                   h: float = 1e-6) -> float:
    """Max relative error between analytic and central-difference Jacobians."""
    if h <= 0:
        raise ValueError("step h must be positive")
    vals = [np.atleast_1d(np.asarray(v, dtype=float)) for v in values]
    analytic = factor.jacobian(*vals)
    worst = 0.0
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
        worst = max(worst, float(np.abs(J - fd).max()) / scale)
    return worst


class FactorGraph:
    """Mutable factor-graph container with an LM solver.

    One graph per estimation thread; methods are not thread-safe.
    """

    def __init__(self):
        self.variables: dict = {}
        self.factors: list = []

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
        return self.variables[var_id].value.copy()

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
        if horizon < 2:
            raise ValueError("horizon must be at least 2")
        newest = max((v.time_index for v in self.variables.values()
                      if v.time_index is not None), default=None)
        if newest is None:
            return
        cutoff = newest - horizon + 1
        for v in self.variables.values():
            if v.time_index is not None and v.time_index < cutoff:
                v.fixed = True
        self.factors = [f for f in self.factors
                        if any(not self.variables[vid].fixed for vid in f.var_ids)]
        read = {vid for f in self.factors for vid in f.var_ids}
        self.variables = {vid: v for vid, v in self.variables.items()
                          if not v.fixed or vid in read}

    def active_time_indices(self) -> list:
        return sorted({v.time_index for v in self.variables.values()
                       if v.time_index is not None and not v.fixed})

    # -- solving -----------------------------------------------------------

    def _values_of(self, factor: Factor):
        return [self.variables[vid].value for vid in factor.var_ids]

    def _active_factors(self):
        return [f for f in self.factors
                if any(not self.variables[vid].fixed for vid in f.var_ids)]

    def _evaluate(self, factors) -> _Evaluation:
        """Every factor's residual at the current values, one call each."""
        weighted, cost = [], 0.0
        for f in factors:
            r = f.residual(*self._values_of(f))
            if f.sigma.size not in (1, r.size):
                raise ValueError(f"factor {f.kind!r} sigma length {f.sigma.size} "
                                 f"!= residual length {r.size}")
            w = r / f.sigma
            cost += float(w @ w)
            weighted.append(w)
        return _Evaluation(weighted, cost)

    def _assemble(self, factors, offsets, n_cols, weighted):
        """Weighted residual vector and dense Jacobian at the current values.

        Blocks of one variable add into J in factor order.
        """
        r = np.concatenate(weighted)
        J = np.zeros((r.size, n_cols))
        row0 = 0
        for f, res in zip(factors, weighted):
            k = res.size
            jac = f.jacobian(*self._values_of(f))
            if len(jac) != len(f.var_ids):
                raise ValueError(f"factor {f.kind!r} returned "
                                 f"{len(jac)} jacobian blocks")
            sigma = f.sigma[:, None]
            for vid, block in zip(f.var_ids, jac):
                if vid not in offsets:
                    continue  # fixed variable: treated as a constant
                dim = self.variables[vid].dim
                if block.shape != (k, dim):
                    raise ValueError(f"factor {f.kind!r} jacobian block "
                                     f"{block.shape} for {vid!r}, expected "
                                     f"{(k, dim)}")
                c0 = offsets[vid]
                J[row0:row0 + k, c0:c0 + dim] += block / sigma
            row0 += k
        return r, J

    def solve(self) -> SolveReport:
        factors = self._active_factors()
        free = [v for v in self.variables.values() if not v.fixed]
        offsets, n_cols = {}, 0
        for v in free:
            offsets[v.id] = n_cols
            n_cols += v.dim
        current = self._evaluate(factors)
        n_rows = sum(w.size for w in current.weighted)
        initial_cost = current.cost
        if not math.isfinite(initial_cost):
            raise SingularNormalEquations("non-finite residuals at initial point")
        report = SolveReport(0, initial_cost, initial_cost, True, "empty")
        if n_cols == 0 or n_rows == 0:
            return report

        lam = _LAMBDA0
        cost = initial_cost
        stopped_by = "max_iter"
        singular = False
        iterations = 0
        for _ in range(_MAX_ITER):
            iterations += 1
            r, J = self._assemble(factors, offsets, n_cols,
                                  current.weighted)
            H = J.T @ J
            g = J.T @ r
            diag = np.diag(H).copy()
            if np.any(diag < _DIAG_FLOOR):
                singular = True
            damp_base = np.maximum(diag, _DIAG_FLOOR)
            if np.all(np.abs(g) <= _GRAD_TOL * math.sqrt(cost) * np.sqrt(diag)):
                stopped_by = "gradient"
                break
            accepted = False
            new_cost = cost
            step = None
            # First attempt is always the undamped Gauss-Newton step; the
            # damping ladder engages only when that fails or increases cost.
            trial = 0.0
            while trial <= _LAMBDA_MAX:
                step = self._try_step(H, g, trial, damp_base)
                if step is None:
                    singular = True
                    trial = lam if trial == 0.0 else trial * _LAMBDA_UP
                    continue
                before = [(v, v.value) for v in free]
                for v in free:
                    c0 = offsets[v.id]
                    v.value = v.value + step[c0:c0 + v.dim]
                trial_eval = self._evaluate(factors)
                new_cost = trial_eval.cost
                if math.isfinite(new_cost) and new_cost <= cost:
                    accepted = True
                    current = trial_eval
                    break
                for v, old in before:
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

        report.iterations = iterations
        report.final_cost = cost
        report.converged = stopped_by != "max_iter"
        report.stopped_by = stopped_by
        report.singular = singular
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

    # -- debugging ---------------------------------------------------------

    def dump(self) -> dict:
        return {
            "variables": {
                vid: {"value": v.value.tolist(), "time_index": v.time_index,
                      "fixed": v.fixed}
                for vid, v in self.variables.items()
            },
            "factors": [
                {"kind": f.kind, "vars": list(f.var_ids),
                 "residual": f.residual(*self._values_of(f)).tolist(),
                 "sigma": f.sigma.tolist()}
                for f in self.factors
            ],
        }
