"""Analytical cost model (§3.3) and report formatting for experiments."""

from repro._exports import lazy_exports

_EXPORTS = {
    "CostModel": "repro.analysis.costs",
    "WRITE_PHASES": "repro.analysis.costs",
    "READ_PHASES": "repro.analysis.costs",
    "format_table": "repro.analysis.report",
    "format_phase_breakdown": "repro.analysis.report",
    "format_campaign": "repro.analysis.report",
    "fit_power_law": "repro.analysis.report",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
