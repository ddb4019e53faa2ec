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

Every fit shares two refusals, stated here only: constant counts raise
:class:`FitError`, and a step to parameters that are not all finite
scores +inf, so the state a fit returns or carries is finite. A model,
Jacobian or error that overflows or divides inf by inf reads as its
value (a refused step, a NaN error), never as a numpy warning.

Standard errors come from the inverse Fisher matrix ``(J^T W J)^-1``
with ``W = 1/mu`` at the optimum; the reduced chi-square is Pearson's
``sum (y - mu)^2 / mu`` over the degrees of freedom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
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

    Parameters that are not all finite give +inf, as do any ``mu <= 0``
    and a sum that is not finite, say when a huge ``mu`` rounds ``(y -
    mu)/mu`` to -1. The log is taken as ``log1p((y - mu)/mu)`` so the
    deviance keeps its precision when the model nearly matches the data.
    """
    if not np.all(np.isfinite(params)):
        return math.inf
    mu = model(x, params)
    if not np.all(mu > 0.0):
        return math.inf
    excess = y - mu
    log_ratio = np.log1p(excess / mu, out=np.zeros_like(mu), where=y > 0.0)
    deviance = float(2.0 * np.sum(y * log_ratio - excess))
    return deviance if math.isfinite(deviance) else math.inf


@np.errstate(all="ignore")  # the one place fits silence numpy: a bad value is read, not warned about
def least_squares(
    model: Callable[[np.ndarray, np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x: Sequence[float] | np.ndarray,
    y: Sequence[float] | np.ndarray,
    initial: Sequence[float] | np.ndarray,
    names: Sequence[str],
) -> FitResult:
    """Fit ``model`` to the counts ``y`` by Poisson maximum likelihood from
    ``initial``.

    ``model(x, p)`` returns the expected counts, ``jacobian(x, p)`` the
    ``(n_points, n_params)`` derivative matrix.

    Raises
    ------
    FitError
        If the points are too few or ill-matched, the start is invalid,
        or the counts are constant.
    FitConvergenceError
        If no downhill step exists from a point that has not met the
        relative-decrease test, or the iteration budget runs out; the
        exception carries the last state.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = np.asarray(initial, dtype=float).copy()
    names = tuple(names)
    if x.size != y.size:
        raise FitError("x and y must have matching lengths")
    if x.size <= p.size:
        raise FitError(f"need more than {p.size} points to fit {p.size} parameters")
    deviance = poisson_deviance(model, x, y, p)
    if np.any(y < 0.0) or not np.isfinite(deviance):
        raise FitError("counts must be >= 0 and the initial model > 0 at every point")
    if np.ptp(y) == 0.0:
        raise FitError("counts are constant; nothing to fit")

    def result() -> FitResult:
        mu = model(x, p)
        return FitResult(
            names=names,
            values=p,
            stderrs=_standard_errors(jacobian(x, p), mu),
            reduced_chi_square=float(np.sum((y - mu) ** 2 / mu)) / (x.size - p.size),
            iterations=iterations,
        )

    damping = DEFAULT_DAMPING
    for iterations in range(1, MAX_ITERATIONS + 1):
        mu = model(x, p)
        jac = jacobian(x, p)
        score = jac.T @ ((y - mu) / mu)
        fisher = (jac.T / mu) @ jac
        scaling = np.diag(np.maximum(np.diag(fisher), 1e-300))
        while True:
            if damping >= _DAMPING_CEILING:
                raise FitConvergenceError(
                    f"stalled: no downhill step (deviance={deviance:.6g})", result()
                )
            try:
                trial = p + np.linalg.solve(fisher + damping * scaling, score)
            except np.linalg.LinAlgError:
                damping *= DAMPING_STEP
                continue
            trial_deviance = poisson_deviance(model, x, y, trial)  # +inf where the model cannot evaluate it
            if trial_deviance <= deviance:  # False for inf
                break
            damping *= DAMPING_STEP
        decrease = deviance - trial_deviance
        p, deviance = trial, trial_deviance
        damping = max(damping / DAMPING_STEP, 1e-12)
        if decrease <= RELATIVE_DECREASE_TOL * max(deviance, 1e-300):
            return result()
    raise FitConvergenceError(
        f"no convergence after {iterations} iterations (deviance={deviance:.6g})", result()
    )


def _standard_errors(jac: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """sqrt of the inverse Fisher matrix's diagonal; NaN where it is singular."""
    try:
        cov = np.linalg.inv((jac.T / mu) @ jac)
    except np.linalg.LinAlgError:
        return np.full(jac.shape[1], np.nan)
    diag = np.diag(cov).copy()
    diag[diag < 0.0] = np.nan
    return np.sqrt(diag)
