"""The benchmark's tables computed record by record, kept as a reference for the columnar tables.

Rows (``benchmark_rows.Row``) are grouped by (regime, n, method) in the
order they come, and each cell's successful rows are summed as one array,
in replication order. The tables are dicts keyed like the ones of
``farkit.evaluate``; a cell without successes is NaN with count 0.
"""

import math

import numpy as np

NAN = float("nan")


def _successes(rows, field) -> dict:
    """{(regime, n, method): [value of ``field`` of each successful row], ...} in row order."""
    cells = {}
    for row in rows:
        values = cells.setdefault((row.regime, row.n, row.method), [])
        if row.error is None:
            values.append(getattr(row, field))
    return cells


def _keys(config):
    return [(g, n, m) for g in config.regimes for n in config.n_values for m in config.methods]


def mean_table(rows, config) -> dict:
    """{(regime, n, method): (mean misfe, its standard error, count)}."""
    cells, table = _successes(rows, "misfe"), {}
    for key in _keys(config):
        values = np.array(cells.get(key, []), dtype=float)
        if values.size == 0:
            table[key] = (NAN, NAN, 0)
            continue
        stderr = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
        table[key] = (float(values.mean()), stderr, int(values.size))
    return table


def _is_threshold(method: str) -> bool:
    kind, _, arg = method.partition(":")
    return kind == "fpca" and not arg.startswith("K=")


def regret_table(rows, config) -> dict:
    """Percent excess mean error over the best variance-threshold rule with results in the cell."""
    means, table = mean_table(rows, config), {}
    for regime in config.regimes:
        for n in config.n_values:
            candidates = [
                means[(regime, n, method)][0] for method in config.methods
                if _is_threshold(method) and means[(regime, n, method)][2] > 0
            ]
            oracle = min(candidates, default=NAN)
            for method in config.methods:
                mean = means[(regime, n, method)][0]
                table[(regime, n, method)] = 100.0 * (mean - oracle) / oracle
    return table


def worst_case_table(rows, config) -> dict:
    """{(method, n): the largest regime mean}, NaN when any regime's mean is."""
    means = mean_table(rows, config)
    table = {}
    for method in config.methods:
        for n in config.n_values:
            cell_means = [means[(regime, n, method)][0] for regime in config.regimes]
            table[(method, n)] = NAN if any(map(math.isnan, cell_means)) else max(cell_means)
    return table


def tuning_table(rows, config) -> dict:
    """{(regime, n, method): mean K, or mean log10 alpha of a ridge method}."""
    cells, table = _successes(rows, "tuning"), {}
    for key in _keys(config):
        values = np.array(cells.get(key, []), dtype=float)
        if values.size == 0:
            table[key] = NAN
        elif key[2].startswith("tikhonov"):
            table[key] = float(np.mean(np.log10(values)))
        else:
            table[key] = float(values.mean())
    return table


def cv_slope(rows, config):
    """Least-squares slope of the ``tikhonov:cv`` cells' mean log10 alpha on log10 n.

    None when fewer than two sample sizes have such a cell with a success.
    """
    points = [
        (n, value) for (regime, n, method), value in tuning_table(rows, config).items()
        if method == "tikhonov:cv" and not math.isnan(value)
    ]
    if len({n for n, _ in points}) < 2:
        return None
    ns, values = zip(*points)
    return float(np.polyfit(np.log10(np.array(ns, dtype=float)), np.array(values), 1)[0])
