"""Gate-level netlist data model.

Public surface: :class:`Circuit` (the mutable netlist), :class:`Net`,
:class:`Instance`, combinational-view extraction for DFT reasoning,
structural-Verilog interchange, and validation.
"""

from repro.netlist.circuit import Circuit, ClockDomain
from repro.netlist.instance import Instance
from repro.netlist.levelize import (
    CombinationalLoopError,
    CombNode,
    CombView,
    extract_comb_view,
)
from repro.netlist.net import PORT, Net, PinRef
from repro.netlist.simulate import SequentialSimulator
from repro.netlist.fanout import DrcReport, estimated_load_ff, fix_electrical, fix_fanout, upsize_drivers
from repro.netlist.validate import validate
from repro.netlist.verilog import from_verilog, to_verilog

__all__ = [
    "Circuit",
    "ClockDomain",
    "CombNode",
    "CombView",
    "CombinationalLoopError",
    "Instance",
    "Net",
    "PORT",
    "PinRef",
    "SequentialSimulator",
    "DrcReport",
    "estimated_load_ff",
    "fix_electrical",
    "fix_fanout",
    "upsize_drivers",
    "extract_comb_view",
    "from_verilog",
    "to_verilog",
    "validate",
]
