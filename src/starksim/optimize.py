"""Poisson maximum-likelihood fits of counts by damped Fisher scoring.

Minimizes the Poisson deviance ``D(p) = 2 sum_i (mu_i - y_i + y_i
log(y_i / mu_i))`` of counts ``y`` about the model ``mu = f(x, p)``
(Baker & Cousins, NIM 221, 437, 1984), with analytic Jacobians. Each
iteration is a weighted least-squares step with weights ``1/mu`` at the
current model (Fisher scoring). The damping term uses Marquardt's
diagonal scaling, starting at 1e-3, multiplied by 10 on a rejected step
and divided by 10 on an accepted one; a step is accepted when it does
not raise the deviance. Iteration stops once an accepted step reduces
the deviance by less than 1e-10 relative; a fit that runs out of its 200
iterations, or whose damping reaches 1e14 without a downhill step,
raises :class:`FitConvergenceError`.

Standard errors come from the inverse Fisher matrix ``(J^T W J)^-1``
with ``W = 1/mu`` at the optimum; the reduced chi-square is Pearson's
``sum (y - mu)^2 / mu`` over the degrees of freedom.

One loop runs a stack of independent fits of one model. Every fit keeps
its own damping, accept/reject decisions, iteration count and stopping
test, and each stacked product and solve goes through the BLAS/LAPACK
call of a fit run alone, so a fit's values, errors and iterations are
bitwise those it has alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DegenerateDataError",
    "FitConvergenceError",
    "FitError",
    "FitResult",
    "least_squares",
    "poisson_deviance",
]

DEFAULT_DAMPING = 1e-3
DAMPING_STEP = 10.0
MAX_ITERATIONS = 200
RELATIVE_DECREASE_TOL = 1e-10
_DAMPING_CEILING = 1e14


class FitError(RuntimeError):
    pass


class DegenerateDataError(FitError):
    """Data carry no information for the requested model (zero variance)."""


class FitConvergenceError(FitError):
    """The fit did not converge; carries the last state."""

    def __init__(self, message: str, last_result: "FitResult"):
        super().__init__(message)
        self.last_result = last_result


@dataclass(frozen=True)
class FitResult:
    """Named best-fit parameters with standard errors and fit diagnostics."""

    names: tuple[str, ...]
    values: np.ndarray
    stderrs: np.ndarray
    reduced_chi_square: float
    iterations: int

    def value(self, name: str) -> float:
        return float(self.values[self.names.index(name)])

    def stderr(self, name: str) -> float:
        return float(self.stderrs[self.names.index(name)])


def poisson_deviance(
    model: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    params: np.ndarray,
) -> float:
    """``2 sum(mu - y + y log(y/mu))``, with ``y log(y/mu) = 0`` where y = 0.

    Any ``mu <= 0`` gives +inf. The log is taken as ``log1p((y - mu)/mu)``
    so the deviance keeps its precision when the model nearly matches
    the data.
    """
    return float(_deviances(np.asarray(y, dtype=float)[None], model(x, params)[None])[0])


def _deviances(y: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """:func:`poisson_deviance` of each row of the (fits, points) counts ``y`` about ``mu``."""
    if not (mu > 0.0).all():
        positive = (mu > 0.0).all(axis=-1)
        deviances = np.full(positive.shape, math.inf)
        deviances[positive] = _deviances(y[positive], mu[positive])
        return deviances
    excess = y - mu
    log_ratio = np.log1p(excess / mu, out=np.zeros_like(mu), where=y > 0.0)
    return 2.0 * (y * log_ratio - excess).sum(axis=-1)


def least_squares(
    model: Callable[[np.ndarray, np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x: Sequence[float] | np.ndarray,
    y: Sequence[float] | np.ndarray,
    initial: Sequence[float] | np.ndarray,
    names: Sequence[str],
    check: Callable[[int, FitResult], FitResult] | None = None,
) -> FitResult | list[FitResult]:
    """Fit ``model`` to the counts ``y`` by Poisson maximum likelihood from
    ``initial``.

    As in numpy's stacked linear algebra, a 1-D ``y`` is one fit and
    returns one :class:`FitResult`; a (fits, points) ``y`` is a stack of
    independent fits, with ``x`` of shape (fits, points, ...) and
    ``initial`` (fits, params), and returns a list. ``model(x, p)``
    returns the expected counts, of ``x``'s first two dimensions, and
    ``jacobian(x, p)`` the (fits, points, params) derivatives, for any
    stack of fits ``p``. ``check(i, result)``, if given, is called with
    each converged fit and its index; it returns the result to report, or
    raises a :class:`FitError`, which becomes that fit's failure.

    Raises
    ------
    FitError
        Of the lowest-index fit that fails, the one it raises alone.
    FitConvergenceError
        If no downhill step exists from a point that has not met the
        relative-decrease test, or the iteration budget runs out; the
        exception carries the last state.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = np.asarray(initial, dtype=float)
    single = y.ndim == 1
    if single:
        x, y, p = x[None], y[None], p[None]
    if x.shape[: y.ndim] != y.shape:
        raise FitError("x and y must have matching lengths")
    n_params = p.shape[-1]
    if y.shape[1] <= n_params:
        raise FitError(f"need more than {n_params} points to fit {n_params} parameters")
    outcomes = _fit_stack(model, jacobian, x, y, p, tuple(names))
    for index, outcome in enumerate(outcomes):
        if check is not None and isinstance(outcome, FitResult):
            try:
                outcome = outcomes[index] = check(index, outcome)
            except FitError as exc:
                outcome = exc
        if isinstance(outcome, FitError):
            raise outcome
    return outcomes[0] if single else outcomes


def _fit_stack(model, jacobian, x, y, p, names) -> list[FitResult | FitError]:
    """Each fit's result or failure, from one damped Fisher-scoring loop over the stack.

    A round evaluates the Jacobian of the fits still in the loop
    (``live``); every fit in it has taken one step per round, so its
    iteration count is the round's. A fit that converged in the last
    round, or any fit after the last round, takes its result from that
    Jacobian and leaves. The others each take one step, those whose trial
    was singular or uphill retrying with more damping until every one has
    stepped or stalled. The model is kept from the accepted trial, where
    the loop would evaluate it again.
    """
    n_fits, n_points = y.shape
    n_params = p.shape[1]
    p = p.copy()
    mu = model(x, p)
    deviance = _deviances(y, mu)
    outcomes: list = [None] * n_fits
    stopped = (y < 0.0).any(axis=1) | ~np.isfinite(deviance)  # fits with an outcome
    for i in np.flatnonzero(stopped).tolist():
        outcomes[i] = FitError("counts must be >= 0 and the initial model > 0 at every point")
    damping = np.full(n_fits, DEFAULT_DAMPING)
    converged = np.zeros(n_fits, dtype=bool)
    rounds = 0

    def freeze(fits, fisher, failure=None) -> None:
        """Store the outcomes of ``fits`` at their current point, ``failure(i)`` errors if given."""
        stopped[fits] = True
        stderrs = _standard_errors(fisher)
        chi2 = ((y[fits] - mu[fits]) ** 2 / mu[fits]).sum(axis=-1) / (n_points - n_params)
        for i, errors, reduced in zip(fits.tolist(), stderrs, chi2.tolist()):
            result = FitResult(names, p[i].copy(), errors, reduced, rounds)
            outcomes[i] = result if failure is None else FitConvergenceError(failure(i), result)

    live = np.flatnonzero(~stopped)
    leaving = False  # a fit converged or stalled this round
    while live.size:
        jac = jacobian(x[live], p[live])
        jac_t = jac.swapaxes(-1, -2)
        mu_live = mu[live]
        fisher = (jac_t / mu_live[:, None, :]) @ jac
        if leaving or rounds == MAX_ITERATIONS:
            out = np.flatnonzero(converged[live])
            freeze(live[out], fisher[out])
            if rounds == MAX_ITERATIONS:
                out = np.flatnonzero(~stopped[live])
                freeze(live[out], fisher[out], lambda i: (
                    f"no convergence after {rounds} iterations (deviance={deviance[i]:.6g})"
                ))
            keep = np.flatnonzero(~stopped[live])
            live, jac_t, fisher, mu_live = live[keep], jac_t[keep], fisher[keep], mu_live[keep]
            leaving = False
            if not live.size:
                break
        rounds += 1
        score = (jac_t @ ((y[live] - mu_live) / mu_live)[..., None])[..., 0]
        scaling = np.zeros_like(fisher)  # Marquardt's: the diagonal of the Fisher matrix
        scaling.reshape(len(fisher), -1)[:, :: n_params + 1] = np.maximum(
            np.diagonal(fisher, axis1=-2, axis2=-1), 1e-300
        )
        rows = np.arange(live.size)  # the positions in ``live`` of the fits yet to step this round
        while rows.size:
            fits = live[rows]
            step_damping = damping[fits]
            stalled = step_damping >= _DAMPING_CEILING
            if stalled.any():
                out = rows[stalled]
                freeze(live[out], fisher[out], lambda i: (
                    f"stalled: no downhill step (deviance={deviance[i]:.6g})"
                ))
                leaving = True
                rows = rows[~stalled]
                continue
            steps, singular = _solve(fisher[rows] + step_damping[:, None, None] * scaling[rows], score[rows])
            trial = p[fits] + steps
            trial_mu = model(x[fits], trial)
            trial_deviance = _deviances(y[fits], trial_mu)
            accepted = trial_deviance <= deviance[fits]  # False for inf and nan
            if singular is not None:
                accepted &= ~singular
            damping[fits[~accepted]] *= DAMPING_STEP
            retry, rows, fits = rows[~accepted], rows[accepted], fits[accepted]
            trial, trial_mu, trial_deviance, step_damping = (
                trial[accepted], trial_mu[accepted], trial_deviance[accepted], step_damping[accepted]
            )
            with np.errstate(invalid="ignore"):  # -inf - -inf: a nan decrease does not converge
                decrease = deviance[fits] - trial_deviance
            p[fits], mu[fits], deviance[fits] = trial, trial_mu, trial_deviance
            damping[fits] = np.maximum(step_damping / DAMPING_STEP, 1e-12)
            converged[fits] = done = decrease <= RELATIVE_DECREASE_TOL * np.maximum(trial_deviance, 1e-300)
            leaving |= bool(done.any())
            rows = retry
    return outcomes


def _solve(matrices: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Each system's solution, and which systems are singular (None if none is).

    A stacked solve raises if any member is singular, so then each member
    is solved alone and only the singular ones are marked.
    """
    try:
        return np.linalg.solve(matrices, rhs[..., None])[..., 0], None
    except np.linalg.LinAlgError:
        steps = np.zeros_like(rhs)
        singular = np.zeros(len(rhs), dtype=bool)
        for k, (matrix, vector) in enumerate(zip(matrices, rhs)):
            try:
                steps[k] = np.linalg.solve(matrix, vector)
            except np.linalg.LinAlgError:
                singular[k] = True
        return steps, singular


def _standard_errors(fisher: np.ndarray) -> np.ndarray:
    """sqrt of each inverse Fisher matrix's diagonal; NaN for one that is singular."""
    try:
        cov = np.linalg.inv(fisher)
    except np.linalg.LinAlgError:
        cov = np.full_like(fisher, np.nan)
        for k, matrix in enumerate(fisher):
            try:
                cov[k] = np.linalg.inv(matrix)
            except np.linalg.LinAlgError:
                pass
    diag = np.diagonal(cov, axis1=-2, axis2=-1).copy()
    diag[diag < 0.0] = np.nan
    return np.sqrt(diag)
