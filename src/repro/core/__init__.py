"""The paper's primary contribution: the DDR3-backed dual-path Flow LUT.

Module map (paper figure → module):

* Figure 1 (Hash-CAM table on DDR SDRAM, three-stage early-exit search) —
  :mod:`repro.core.hash_cam`
* Figure 2 (dual-path flow lookup scheme, sequencer, FID_GEN) —
  :mod:`repro.core.flow_lut`, :mod:`repro.core.sequencer`,
  :mod:`repro.core.fid_gen`
* Figure 4 (Data Lookup Unit: Bank Sel, Req Filter, Mem Ctrl) —
  :mod:`repro.core.dlu`
* Figure 5 (Update block: Req_Arb, BWr_Gen) — :mod:`repro.core.update`
* Flow Match block — :mod:`repro.core.flow_match`
* Flow State / housekeeping — :mod:`repro.core.flow_state`
* Table I resource analogue — :mod:`repro.core.resources`
* Experiment driving (descriptor sources, rate measurement) —
  :mod:`repro.core.harness`
"""

from repro.core.config import FlowLUTConfig
from repro.core.fid_gen import FlowIDGenerator
from repro.core.flow_lut import FlowLUT, FlowTable, LookupOutcome
from repro.core.flow_match import FlowMatch, MatchResult
from repro.core.flow_state import FlowRecord, FlowStateTable
from repro.core.hash_cam import HashCamTable, LookupStage
from repro.core.harness import DescriptorSource, ExperimentResult, run_lookup_experiment
from repro.core.resources import ResourceReport, estimate_resources
from repro.core.sequencer import LoadBalancePolicy, Sequencer

__all__ = [
    "DescriptorSource",
    "ExperimentResult",
    "FlowIDGenerator",
    "FlowLUT",
    "FlowLUTConfig",
    "FlowMatch",
    "FlowRecord",
    "FlowStateTable",
    "FlowTable",
    "HashCamTable",
    "LoadBalancePolicy",
    "LookupOutcome",
    "LookupStage",
    "MatchResult",
    "ResourceReport",
    "Sequencer",
    "estimate_resources",
    "run_lookup_experiment",
]
