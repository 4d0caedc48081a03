"""Aggregate queries over the results corpus: filter, group, Wilson CIs.

The SQL side only ever *sums integer counters* (over the ``cell_totals``
view); every rate and confidence interval is derived in Python from those
sums using the exact arithmetic of the in-process aggregator
(:mod:`repro.campaign.aggregate` — same ``counts[key] / trials`` division,
same :func:`repro.stats.wilson_interval`).  That is what makes the store's
answers *byte-for-byte identical* to ``run_campaign``'s reports for the same
shards, which the golden and CI tests pin.

Grouping defaults to cell identity (workload, scheme, technology, gate
error rate) — the campaign-table view, but merged across every campaign
ever recorded.  Any subset/superset of :data:`GROUPABLE_COLUMNS` works:
``--group-by scheme`` answers "silent-corruption rate per scheme over the
whole corpus", ``--group-by spec_hash,scheme`` keeps campaigns separate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import EvaluationError, PimError
from repro.pim.faults import parse_fault_model
from repro.stats import effective_sample_size, weighted_mean_interval, wilson_interval
from repro.store.database import ResultsStore
from repro.store.schema import APPLICATION_COLUMNS, COUNTER_COLUMNS, WEIGHT_COLUMNS

__all__ = [
    "GROUPABLE_COLUMNS",
    "DEFAULT_GROUP_BY",
    "DERIVED_COLUMNS",
    "QueryFilters",
    "run_query",
]

#: Columns a query may group by (all live on the ``cell_totals`` view).
GROUPABLE_COLUMNS = (
    "workload",
    "scheme",
    "technology",
    "gate_error_rate",
    "memory_error_rate",
    "multi_output",
    "faults_per_trial",
    "fault_model",
    "spec_hash",
    "campaign_name",
    "backend",
)

#: The campaign-table view: one row per swept cell identity.
DEFAULT_GROUP_BY = ("workload", "scheme", "technology", "gate_error_rate")

#: The always-present count-derived statistics.
_BASE_DERIVED = (
    "trials",
    "coverage",
    "coverage_ci_low",
    "coverage_ci_high",
    "silent_corruption_rate",
    "silent_ci_low",
    "silent_ci_high",
    "detected_rate",
    "recovered_rate",
    "detected_corruption_rate",
    "faults_per_trial_avg",
)

#: Estimator-weighted statistics (schema v2): None on rows whose shards
#: were all recorded by uniform campaigns (NULL weight columns).
_WEIGHTED_DERIVED = (
    "weight_sum",
    "effective_sample_size",
    "weighted_silent_rate",
    "weighted_silent_ci_low",
    "weighted_silent_ci_high",
    "weighted_detected_corruption_rate",
    "weighted_detected_corruption_ci_low",
    "weighted_detected_corruption_ci_high",
)

#: Application-metric statistics (schema v3): None on rows whose shards were
#: all recorded by non-application campaigns (NULL application columns).
_APPLICATION_DERIVED = (
    "app_trials",
    "argmax_flip_rate",
    "argmax_flip_ci_low",
    "argmax_flip_ci_high",
    "output_bit_errors_avg",
    "output_error_magnitude_avg",
)

#: Derived statistics appended after the group columns, in order.  This
#: list is the query output's schema contract — pinned by the golden tests;
#: extend only at the end, alongside a golden refresh.
DERIVED_COLUMNS = _BASE_DERIVED + _WEIGHTED_DERIVED + _APPLICATION_DERIVED


@dataclass(frozen=True)
class QueryFilters:
    """Row filters; sequence fields OR within themselves, AND across fields."""

    workloads: Tuple[str, ...] = ()
    schemes: Tuple[str, ...] = ()
    technologies: Tuple[str, ...] = ()
    fault_models: Tuple[str, ...] = ()
    spec_hashes: Tuple[str, ...] = ()
    min_error_rate: Optional[float] = None
    max_error_rate: Optional[float] = None


def _in_clause(column: str, values: Sequence[str], where: List[str], params: List[object]) -> None:
    if values:
        placeholders = ", ".join("?" for _ in values)
        where.append(f"{column} IN ({placeholders})")
        params.extend(v.strip().lower() for v in values)


def _fault_model_clause(values: Sequence[str], where: List[str], params: List[object]) -> None:
    """Match canonical fault-model strings.

    Each value is either ``none`` (no fault model set: the default
    stochastic model, stored as NULL), a full model string (canonicalised
    before matching, so ``stuck-at:cells=7+3`` and
    ``stuckat:cells=3+7,value=0`` hit the same rows), or a bare kind
    (``burst``) matching every parameterisation.
    """
    if not values:
        return
    clauses: List[str] = []
    for value in values:
        value = value.strip().lower()
        if value in ("none", "null"):
            clauses.append("fault_model IS NULL")
        elif ":" in value:
            try:
                canonical = parse_fault_model(value).to_string()
            except PimError as error:
                raise EvaluationError(f"invalid --fault-model filter {value!r}: {error}") from None
            clauses.append("fault_model = ?")
            params.append(canonical)
        else:
            clauses.append("(fault_model = ? OR fault_model LIKE ?)")
            params.extend([value, value + ":%"])
    where.append("(" + " OR ".join(clauses) + ")")


def _derive(row_counts: Dict[str, int]) -> Dict[str, object]:
    """Rates + Wilson CIs from integer sums — CellReport's arithmetic."""
    trials = row_counts["trials"]

    def rate(key: str) -> float:
        return row_counts[key] / trials if trials else 0.0

    cov_low, cov_high = wilson_interval(row_counts["correct"], trials)
    silent_low, silent_high = wilson_interval(row_counts["silent_corruption"], trials)
    return {
        "trials": trials,
        "coverage": rate("correct"),
        "coverage_ci_low": cov_low,
        "coverage_ci_high": cov_high,
        "silent_corruption_rate": rate("silent_corruption"),
        "silent_ci_low": silent_low,
        "silent_ci_high": silent_high,
        "detected_rate": rate("detected"),
        "recovered_rate": rate("recovered"),
        "detected_corruption_rate": rate("detected_corruption"),
        "faults_per_trial_avg": rate("faults_injected"),
    }


def _derive_weighted(row_weights: Dict[str, Optional[float]], trials: int) -> Dict[str, object]:
    """Weighted estimates from weight sums — CellReport.estimate's arithmetic.

    ``weight_sum`` is NULL (None) exactly when no shard of the group carried
    estimator weights, in which case every weighted column is None.  SUM over
    a mixed weighted/unweighted group silently covers only the weighted
    shards — such groups are statistically ill-posed and the caller's
    responsibility (don't merge uniform and importance campaigns into one
    group and expect a meaningful weighted rate).
    """
    if row_weights["weight_sum"] is None:
        return {name: None for name in _WEIGHTED_DERIVED}
    silent, silent_low, silent_high = weighted_mean_interval(
        row_weights["w_silent_corruption"], row_weights["w_silent_corruption_sq"], trials
    )
    detcor, detcor_low, detcor_high = weighted_mean_interval(
        row_weights["w_detected_corruption"],
        row_weights["w_detected_corruption_sq"],
        trials,
    )
    return {
        "weight_sum": row_weights["weight_sum"],
        "effective_sample_size": effective_sample_size(
            row_weights["weight_sum"], row_weights["weight_sq_sum"]
        ),
        "weighted_silent_rate": silent,
        "weighted_silent_ci_low": silent_low,
        "weighted_silent_ci_high": silent_high,
        "weighted_detected_corruption_rate": detcor,
        "weighted_detected_corruption_ci_low": detcor_low,
        "weighted_detected_corruption_ci_high": detcor_high,
    }


def _derive_application(row_application: Dict[str, Optional[int]]) -> Dict[str, object]:
    """Application rates from integer sums — CellReport's application
    arithmetic (same divisions, same :func:`wilson_interval`).

    ``app_trials`` is NULL (None) exactly when no shard of the group carried
    application metrics, in which case every application column is None.  As
    with the weighted columns, a group mixing application and plain shards
    covers only the application-scored trials.
    """
    if row_application["app_trials"] is None:
        return {name: None for name in _APPLICATION_DERIVED}
    trials = row_application["app_trials"]
    flip_low, flip_high = wilson_interval(row_application["argmax_flips"], trials)
    return {
        "app_trials": trials,
        "argmax_flip_rate": row_application["argmax_flips"] / trials if trials else 0.0,
        "argmax_flip_ci_low": flip_low,
        "argmax_flip_ci_high": flip_high,
        "output_bit_errors_avg": (
            row_application["output_bit_errors"] / trials if trials else 0.0
        ),
        "output_error_magnitude_avg": (
            row_application["output_error_magnitude"] / trials if trials else 0.0
        ),
    }


def run_query(
    store: ResultsStore,
    filters: Optional[QueryFilters] = None,
    group_by: Sequence[str] = DEFAULT_GROUP_BY,
) -> Tuple[List[str], List[Dict[str, object]]]:
    """Aggregate the corpus; returns ``(columns, rows)`` with rows as dicts.

    Row order is deterministic: ascending over the group columns (NULLs
    first, SQLite's order) — stable across processes and platforms, which is
    what lets the CSV/JSON renderings be golden-pinned.
    """
    group_by = tuple(group_by)
    if not group_by:
        raise EvaluationError("group_by needs at least one column")
    unknown = [column for column in group_by if column not in GROUPABLE_COLUMNS]
    if unknown:
        raise EvaluationError(
            f"cannot group by {unknown}; choose from {GROUPABLE_COLUMNS}"
        )
    filters = filters or QueryFilters()

    where: List[str] = []
    params: List[object] = []
    _in_clause("workload", filters.workloads, where, params)
    _in_clause("scheme", filters.schemes, where, params)
    _in_clause("technology", filters.technologies, where, params)
    _in_clause("spec_hash", filters.spec_hashes, where, params)
    _fault_model_clause(filters.fault_models, where, params)
    if filters.min_error_rate is not None:
        where.append("gate_error_rate >= ?")
        params.append(float(filters.min_error_rate))
    if filters.max_error_rate is not None:
        where.append("gate_error_rate <= ?")
        params.append(float(filters.max_error_rate))

    group_sql = ", ".join(group_by)
    sums = ", ".join(
        f"SUM({name}) AS {name}"
        for name in COUNTER_COLUMNS + WEIGHT_COLUMNS + APPLICATION_COLUMNS
    )
    sql = f"SELECT {group_sql}, {sums} FROM cell_totals"
    if where:
        sql += " WHERE " + " AND ".join(where)
    sql += f" GROUP BY {group_sql} ORDER BY {group_sql}"

    columns = list(group_by) + list(DERIVED_COLUMNS)
    rows: List[Dict[str, object]] = []
    for raw in store.rows(sql, params):
        row: Dict[str, object] = {column: raw[column] for column in group_by}
        counts = {name: int(raw[name]) for name in COUNTER_COLUMNS}
        weights = {
            name: None if raw[name] is None else float(raw[name]) for name in WEIGHT_COLUMNS
        }
        application = {
            name: None if raw[name] is None else int(raw[name])
            for name in APPLICATION_COLUMNS
        }
        row.update(_derive(counts))
        row.update(_derive_weighted(weights, counts["trials"]))
        row.update(_derive_application(application))
        rows.append(row)
    return columns, rows
