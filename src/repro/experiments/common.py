"""Shared experiment infrastructure: result tables and the registry.

Every experiment module exposes ``run(scale=..., seed=...) -> ResultTable``
and registers itself under its paper artefact id (``table1`` ... ``fig6``)
so the CLI (``python -m repro.experiments``) and the benchmark suite can
drive them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro import obs


@dataclass
class ResultTable:
    """A printable experiment result: header row + body rows.

    Cells are stored as raw values; ``render`` right-aligns numbers with
    three decimals, matching the paper's table style.
    """

    title: str
    columns: list[str]
    rows: list[list[object]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, *cells: object) -> None:
        """Append one row; must match the column count."""
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells but table has {len(self.columns)} columns"
            )
        self.rows.append(list(cells))

    def cell(self, row_label: str, column: str) -> object:
        """Value addressed by first-column label and column name."""
        try:
            col = self.columns.index(column)
        except ValueError:
            raise KeyError(f"unknown column {column!r}") from None
        for row in self.rows:
            if row[0] == row_label:
                return row[col]
        raise KeyError(f"unknown row {row_label!r}")

    def column_values(self, column: str) -> list[object]:
        """All body values of one column."""
        try:
            col = self.columns.index(column)
        except ValueError:
            raise KeyError(f"unknown column {column!r}") from None
        return [row[col] for row in self.rows]

    @staticmethod
    def _format(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    def render(self) -> str:
        """Fixed-width text rendering of the table."""
        body = [[self._format(c) for c in row] for row in self.rows]
        widths = [max(len(self.columns[i]),
                      *(len(row[i]) for row in body)) if body else len(self.columns[i])
                  for i in range(len(self.columns))]
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in body:
            lines.append("  ".join(cell.rjust(widths[i]) if i else cell.ljust(widths[i])
                                   for i, cell in enumerate(row)))
        if self.notes:
            lines.append("")
            lines.append(self.notes)
        return "\n".join(lines)


#: Registry mapping experiment id -> run callable.
EXPERIMENTS: dict[str, Callable[..., "ResultTable | list[ResultTable]"]] = {}


def register(experiment_id: str):
    """Decorator registering an experiment ``run`` function by id."""

    def wrap(fn):
        if experiment_id in EXPERIMENTS:
            raise ValueError(f"duplicate experiment id {experiment_id!r}")
        EXPERIMENTS[experiment_id] = fn
        return fn

    return wrap


def available_experiments() -> list[str]:
    """Sorted experiment ids (import side effect loads them)."""
    from repro.experiments import _load_all  # local import avoids cycles

    _load_all()
    return sorted(EXPERIMENTS)


def run_experiment(experiment_id: str, **kwargs) -> "ResultTable | list[ResultTable]":
    """Run one registered experiment by id.

    Every run is wrapped in an ``experiment.<id>`` span and its duration
    is recorded under the ``experiment.duration_seconds`` quantile
    family (labelled by experiment id), so a captured trace pairs each
    :class:`ResultTable` with the timing that produced it.
    """
    from repro.experiments import _load_all

    _load_all()
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        )
    with obs.trace(f"experiment.{experiment_id}", **kwargs) as span:
        result = EXPERIMENTS[experiment_id](**kwargs)
    obs.observe("experiment.duration_seconds", span.duration,
                experiment=experiment_id)
    return result


def render_results(result: "ResultTable | Sequence[ResultTable]") -> str:
    """Render one table or a sequence of tables."""
    if isinstance(result, ResultTable):
        return result.render()
    return "\n\n".join(table.render() for table in result)
