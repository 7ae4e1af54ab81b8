"""Machine-profile scaling simulator and sweep engine.

The virtual runtime in :mod:`repro.comm` *executes* the paper's four
distributed algorithms, so it is limited to rank counts a single process
can hold.  This package answers the question the paper's scaling plots
answer -- "which algorithm wins on which machine at which P?" -- without
instantiating any ranks:

* :mod:`repro.simulate.machines` -- named machine presets (Summit-like,
  Cori-GPU-like, commodity ethernet) on top of
  :class:`repro.config.MachineProfile`;
* :mod:`repro.simulate.schedule` -- the symbolic execution path: each
  algorithm family emits its per-epoch communication schedule
  (collective, group size, bytes) through the ``emit_comm_schedule``
  hooks on the :mod:`repro.dist` classes, and the schedule is priced by
  calling the :mod:`repro.comm.cost_model` price list the executed
  ledger is charged through;
* :mod:`repro.simulate.engine` -- the sweep engine evaluating
  (algorithm x graph x P x machine) grids up to P >= 16384 in seconds,
  with per-point winners and JSON output.

The headline invariant: a schedule emitted from the *actual* adjacency
matrix predicts the executed virtual run's per-epoch communication ledger
**byte for byte** and its modeled seconds bit for bit (tested at P in
{4, 8, 16} for every registered algorithm, and on every machine preset),
which is what licenses extrapolating it to P = 16384.  On a uniform
graph of a published dataset's shape the same path is the paper-scale
epoch model behind Figures 2 and 3.
"""

from repro.simulate.engine import (
    DEFAULT_MACHINES,
    DEFAULT_P_GRID,
    SimPoint,
    SweepResult,
    predict_epoch,
    sweep,
)
from repro.simulate.machines import get_machine, list_machines
from repro.simulate.schedule import (
    CommSchedule,
    GraphModel,
    ScheduleBuilder,
    SimResult,
    evaluate_schedule,
)

__all__ = [
    "CommSchedule",
    "DEFAULT_MACHINES",
    "DEFAULT_P_GRID",
    "GraphModel",
    "ScheduleBuilder",
    "SimPoint",
    "SimResult",
    "SweepResult",
    "evaluate_schedule",
    "get_machine",
    "list_machines",
    "predict_epoch",
    "sweep",
]
