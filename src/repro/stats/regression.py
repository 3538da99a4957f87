"""Ordinary least squares regression with dummy coding (Table 3).

Table 3 of the paper reports, for each PRA measure, a multiple linear
regression of the measure against the design-space dimensions: the
(standardised, log-transformed) numbers of partners ``k`` and strangers
``h`` as numeric covariates, and the categorical actualizations (stranger
policy B2/B3, candidate list C2, ranking function I2..I6, allocation R2/R3)
as dummy variables relative to a reference level.  For every coefficient the
paper lists the estimate, the t-value and whether it is significant at the
0.001 level, plus the adjusted R² of the whole fit.

This module implements exactly that pipeline:

* :func:`dummy_code` expands a categorical column into 0/1 indicator columns
  relative to a reference level,
* :func:`standardize` centres and scales numeric covariates,
* :class:`DesignMatrix` assembles named columns into a matrix with an
  intercept,
* :func:`fit_ols` performs the least-squares fit and returns a
  :class:`RegressionResult` with per-term estimates, standard errors,
  t-values, p-values and the (adjusted) R².
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "RegressionTerm",
    "RegressionResult",
    "DesignMatrix",
    "dummy_code",
    "standardize",
    "fit_ols",
]


def standardize(values: Sequence[float]) -> np.ndarray:
    """Centre ``values`` to zero mean and unit (population) standard deviation.

    A zero-variance column is returned centred but unscaled so the design
    matrix stays finite; the corresponding coefficient will simply be zero.
    """
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise ValueError("standardize requires at least one observation")
    centred = data - data.mean()
    std = data.std()
    if std == 0.0:
        return centred
    return centred / std


def dummy_code(
    values: Sequence[str],
    reference: str,
    levels: Optional[Sequence[str]] = None,
) -> Dict[str, np.ndarray]:
    """Dummy-code a categorical column relative to ``reference``.

    Parameters
    ----------
    values:
        Observed category labels.
    reference:
        The level absorbed into the intercept (no column produced for it).
    levels:
        Optional explicit level ordering.  Defaults to the sorted unique
        labels observed.  ``reference`` must be among the levels.

    Returns
    -------
    dict
        Mapping ``level -> indicator column`` for each non-reference level.
    """
    observed = list(values)
    if levels is None:
        levels = sorted(set(observed))
    if reference not in levels:
        raise ValueError(f"reference level {reference!r} not among levels {levels!r}")
    unknown = set(observed) - set(levels)
    if unknown:
        raise ValueError(f"observed labels not in declared levels: {sorted(unknown)!r}")
    columns: Dict[str, np.ndarray] = {}
    arr = np.asarray(observed, dtype=object)
    for level in levels:
        if level == reference:
            continue
        columns[level] = (arr == level).astype(float)
    return columns


@dataclass(frozen=True)
class RegressionTerm:
    """One row of a regression table."""

    name: str
    estimate: float
    std_error: float
    t_value: float
    p_value: float

    def is_significant(self, alpha: float = 0.001) -> bool:
        """Whether the term is significant at level ``alpha`` (paper uses 0.001)."""
        return self.p_value < alpha


@dataclass
class RegressionResult:
    """Result of an OLS fit: per-term statistics plus goodness of fit."""

    terms: List[RegressionTerm]
    r_squared: float
    adjusted_r_squared: float
    residual_std_error: float
    n_observations: int
    n_parameters: int

    def term(self, name: str) -> RegressionTerm:
        """Return the term named ``name`` (raises ``KeyError`` if absent)."""
        for term in self.terms:
            if term.name == name:
                return term
        raise KeyError(name)

    @property
    def term_names(self) -> List[str]:
        return [term.name for term in self.terms]

    def coefficients(self) -> Dict[str, float]:
        """Mapping of term name to estimate."""
        return {term.name: term.estimate for term in self.terms}

    def as_rows(self, alpha: float = 0.001) -> List[Tuple[str, float, float, str]]:
        """Rows ``(name, estimate, t_value, significance_flag)`` as in Table 3."""
        return [
            (
                term.name,
                term.estimate,
                term.t_value,
                "OK" if term.is_significant(alpha) else "-",
            )
            for term in self.terms
        ]


class DesignMatrix:
    """Named-column design matrix with an implicit intercept.

    The builder interface keeps the experiment drivers declarative::

        dm = DesignMatrix(n)
        dm.add_numeric("log(k)", standardize(np.log(k)))
        dm.add_categorical("stranger", labels, reference="B1")
        result = fit_ols(dm, y)
    """

    def __init__(self, n_observations: int, include_intercept: bool = True):
        if n_observations <= 0:
            raise ValueError("n_observations must be positive")
        self._n = int(n_observations)
        self._names: List[str] = []
        self._columns: List[np.ndarray] = []
        self._include_intercept = include_intercept
        if include_intercept:
            self._names.append("(intercept)")
            self._columns.append(np.ones(self._n, dtype=float))

    @property
    def n_observations(self) -> int:
        return self._n

    @property
    def column_names(self) -> List[str]:
        return list(self._names)

    def add_numeric(self, name: str, values: Sequence[float]) -> "DesignMatrix":
        """Add a numeric covariate column."""
        column = np.asarray(values, dtype=float)
        if column.shape != (self._n,):
            raise ValueError(
                f"column {name!r} has shape {column.shape}, expected ({self._n},)"
            )
        if name in self._names:
            raise ValueError(f"duplicate column name {name!r}")
        self._names.append(name)
        self._columns.append(column)
        return self

    def add_categorical(
        self,
        name: str,
        values: Sequence[str],
        reference: str,
        levels: Optional[Sequence[str]] = None,
    ) -> "DesignMatrix":
        """Add dummy-coded columns for a categorical covariate.

        Column names are the level labels themselves (as in Table 3, where the
        rows are simply "B2", "B3", "C2", ...).
        """
        if len(values) != self._n:
            raise ValueError(
                f"categorical {name!r} has {len(values)} values, expected {self._n}"
            )
        for level, column in dummy_code(values, reference=reference, levels=levels).items():
            self.add_numeric(level, column)
        return self

    def matrix(self) -> np.ndarray:
        """Return the assembled design matrix (observations x columns)."""
        return np.column_stack(self._columns)


def fit_ols(design: DesignMatrix, response: Sequence[float]) -> RegressionResult:
    """Fit ordinary least squares of ``response`` on ``design``.

    Standard errors use the classical homoskedastic estimator
    ``sigma^2 (X'X)^{-1}``; a pseudo-inverse is used so rank-deficient designs
    (e.g. a constant dummy column in a degenerate subsample) still return a
    result rather than raising.

    Returns a :class:`RegressionResult` whose terms appear in design-matrix
    column order (intercept first), matching the layout of Table 3.
    """
    y = np.asarray(response, dtype=float)
    X = design.matrix()
    n, p = X.shape
    if y.shape != (n,):
        raise ValueError(f"response has shape {y.shape}, expected ({n},)")
    if n <= p:
        raise ValueError(
            f"need more observations ({n}) than parameters ({p}) for OLS inference"
        )

    xtx = X.T @ X
    xtx_inv = np.linalg.pinv(xtx)
    beta = xtx_inv @ X.T @ y
    fitted = X @ beta
    residuals = y - fitted

    dof = n - p
    rss = float(residuals @ residuals)
    sigma2 = rss / dof
    tss = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - rss / tss if tss > 0 else 0.0
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / dof if dof > 0 else float("nan")

    # Imported here, not at module level: scipy takes ~1 s to import and
    # only the Student-t p-values need it.
    from scipy import stats as scipy_stats

    std_errors = np.sqrt(np.clip(np.diag(xtx_inv) * sigma2, 0.0, None))
    terms: List[RegressionTerm] = []
    for name, estimate, se in zip(design.column_names, beta, std_errors):
        if se > 0:
            t_value = float(estimate / se)
            p_value = float(2.0 * scipy_stats.t.sf(abs(t_value), df=dof))
        else:
            t_value = float("nan") if estimate == 0 else float("inf")
            p_value = 1.0 if estimate == 0 else 0.0
        terms.append(
            RegressionTerm(
                name=name,
                estimate=float(estimate),
                std_error=float(se),
                t_value=t_value,
                p_value=p_value,
            )
        )

    return RegressionResult(
        terms=terms,
        r_squared=float(r2),
        adjusted_r_squared=float(adj_r2),
        residual_std_error=float(np.sqrt(sigma2)),
        n_observations=n,
        n_parameters=p,
    )
