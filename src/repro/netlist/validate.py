"""Netlist sanity checks run between flow steps.

Rewriting passes (TPI, scan stitching, ECO) edit the netlist in place;
:func:`validate` is the cheap structural audit that catches a bad edit
before it turns into a mysterious downstream failure.

The checks themselves live in the netlist rule pack
(:mod:`repro.lint.netlist_rules`, the rules marked *structural*);
:func:`validate` runs that subset through the shared engine and
returns its :class:`repro.lint.LintReport`, whose diagnostics carry
rule IDs, severities and fix hints.
"""

from __future__ import annotations

from repro.lint.core import LintReport
from repro.netlist.circuit import Circuit


def validate(circuit: Circuit) -> LintReport:
    """Run the structural checks on ``circuit``.

    Checks (rule IDs from the netlist pack): every net driven exactly
    once (NL001/NL002), dangling nets (NL003), every non-filler
    instance pin connected (NL004), sink/driver back-references
    consistent (NL005), ports consistent (NL006), and clock pins tied
    to declared clock domains or clock-tree nets (DFT002).

    The full DFT audit — combinational loops, scan-chain continuity,
    chain balance, test-enable fanout, test-point clock domains — is
    the wider pack behind :func:`repro.lint.lint_netlist` and the
    ``FlowConfig.lint`` gate.
    """
    from repro.lint.netlist_rules import lint_netlist

    return lint_netlist(circuit, structural_only=True)
