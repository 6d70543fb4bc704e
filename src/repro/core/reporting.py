"""Plain-text rendering of the paper's tables.

The formatters take the row dictionaries produced by
:class:`repro.core.experiment.ExperimentResult` and print them with the
same columns (and column order) as Tables 1-3 of the paper, so a bench
run can be compared against the published tables line by line.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

_Row = Dict[str, float]


def _format(rows: Iterable[_Row], columns: Sequence[tuple]) -> str:
    """Render rows as a fixed-width table.

    Args:
        rows: Row dictionaries.
        columns: ``(key, header, format_spec)`` triples.
    """
    rows = list(rows)
    rendered: List[List[str]] = [[header for _, header, _ in columns]]
    for row in rows:
        rendered.append([
            format(row[key], spec) if key in row else ""
            for key, _, spec in columns
        ])
    widths = [
        max(len(line[i]) for line in rendered)
        for i in range(len(columns))
    ]
    lines = []
    for n, line in enumerate(rendered):
        lines.append("  ".join(
            cell.rjust(width) for cell, width in zip(line, widths)
        ))
        if n == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def format_stage_seconds(result) -> str:
    """Per-stage runtime table for one sweep, one row per TP level.

    Cache-served levels keep the ``stage_seconds`` recorded when the
    flow actually ran, so a fully warm sweep still renders a
    meaningful table; such rows are flagged in the ``cached`` column.
    """
    from repro.core.flow import STAGE_KEYS

    rows: List[Dict[str, object]] = []
    for pct in sorted(result.runs):
        run = result.runs[pct]
        seconds = run.stage_seconds
        row: Dict[str, object] = {"tp_percent": pct}
        for key in STAGE_KEYS:
            row[key] = seconds.get(key, 0.0)
        row["total"] = sum(seconds.values())
        if getattr(run, "from_cache", False):
            row["cached"] = "yes"
        rows.append(row)
    columns = [("tp_percent", "#TP(%)", "g")]
    columns += [(key, key, ".2f") for key in STAGE_KEYS]
    columns += [("total", "total(s)", ".2f"), ("cached", "cached", "s")]
    return _format(rows, tuple(columns))


def format_failures(failures: Iterable) -> str:
    """Render a sweep's :class:`~repro.core.resilience.TaskFailure`
    records as the tables' companion "holes" listing.

    One row per permanently failed (circuit, tp%) cell, with the
    attempt count and the final error — what the CLI prints under the
    Table 1/2/3 output when a degraded sweep completes.
    """
    rows: List[Dict[str, object]] = []
    for failure in failures:
        rows.append({
            "circuit": failure.name,
            "tp_percent": failure.tp_percent,
            "attempts": failure.attempts,
            "error_type": failure.error_type,
            "error": failure.error_message[:60],
        })
    return _format(rows, (
        ("circuit", "circuit", "s"),
        ("tp_percent", "#TP(%)", "g"),
        ("attempts", "attempts", "d"),
        ("error_type", "error type", "s"),
        ("error", "error", "s"),
    ))


def format_table1(rows: Iterable[_Row]) -> str:
    """Table 1: Impact of TPI on test data."""
    return _format(rows, (
        ("circuit", "circuit", "s"),
        ("tp_percent", "#TP(%)", ".0f"),
        ("n_tp", "#TP", "d"),
        ("n_ff", "#FF", "d"),
        ("n_chains", "#chains", "d"),
        ("l_max", "l_max", "d"),
        ("n_faults", "#faults", "d"),
        ("fc_percent", "FC(%)", ".2f"),
        ("fe_percent", "FE(%)", ".2f"),
        ("saf_patterns", "SAF patterns", "d"),
        ("patterns_dec_percent", "dec.(%)", ".1f"),
        ("tdv_bits", "TDV(bits)", "d"),
        ("tdv_dec_percent", "TDV dec.(%)", ".1f"),
        ("tat_cycles", "TAT(cycles)", "d"),
        ("tat_dec_percent", "TAT dec.(%)", ".1f"),
    ))


def format_table2(rows: Iterable[_Row]) -> str:
    """Table 2: Impact of TPI on silicon area."""
    return _format(rows, (
        ("circuit", "circuit", "s"),
        ("tp_percent", "#TP(%)", ".0f"),
        ("n_tp", "#TP", "d"),
        ("n_cells", "#cells", "d"),
        ("n_rows", "#rows", "d"),
        ("row_length_um", "L_rows(um)", ".0f"),
        ("core_area_um2", "core(um2)", ".0f"),
        ("core_inc_percent", "inc.(%)", ".2f"),
        ("filler_area_percent", "filler(%)", ".2f"),
        ("chip_area_um2", "chip(um2)", ".0f"),
        ("chip_inc_percent", "inc.(%)", ".2f"),
        ("wirelength_um", "L_wires(um)", ".0f"),
    ))


def format_table3(rows: Iterable[_Row]) -> str:
    """Table 3: Impact of TPI on timing."""
    return _format(rows, (
        ("circuit", "circuit", "s"),
        ("domain", "clock", "s"),
        ("tp_percent", "#TP(%)", ".0f"),
        ("n_tp_cp", "#TP_cp", "d"),
        ("t_cp_ps", "T_cp(ps)", ".0f"),
        ("t_cp_inc_percent", "inc.(%)", ".2f"),
        ("fmax_mhz", "F_max(MHz)", ".1f"),
        ("t_wires_ps", "T_wires", ".0f"),
        ("t_intrinsic_ps", "T_intr", ".0f"),
        ("t_load_dep_ps", "T_load", ".0f"),
        ("t_setup_ps", "T_setup", ".0f"),
        ("t_skew_ps", "T_skew", ".0f"),
        ("slow_nodes", "slow", "d"),
    ))
