"""The OS-primitive event vocabulary scenarios generate and cost.

One :class:`ScenarioEvent` is a timestamped occurrence of one kernel
crossing — the things the paper's authors "instrumented the operating
system kernels to count" (§5).  The vocabulary is Table 7's, plus the
IPC message kind the kernelized structure adds (each message is a
server dispatch beyond the system calls and switches it already
costs as primitive events).

Events are deliberately tiny (a ``NamedTuple`` of a float and an
enum), and with numpy the hot path does not make them at all: the
generator emits chunks of arrays with each kind as its ``KIND_ORDER``
index, and the scenario runner folds a chunk at a time, so nothing
anywhere holds an event list.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class ScenarioEventKind(enum.Enum):
    """Kernel-crossing kinds, in canonical (generation tie-break) order."""

    SYSCALL = "syscall"
    TRAP = "trap"
    PTE_CHANGE = "pte_change"
    CONTEXT_SWITCH = "context_switch"
    KERNEL_TLB_MISS = "kernel_tlb_miss"
    EMULATED_INSTRUCTION = "emulated_instruction"
    IPC_MESSAGE = "ipc_message"


#: generation order index (the merge tie-break and the int kind of a
#: chunk; enum definition order).
KIND_ORDER = {kind: index for index, kind in enumerate(ScenarioEventKind)}

#: canonical kind list, generation order.
ALL_KINDS = tuple(ScenarioEventKind)


class ScenarioEvent(NamedTuple):
    """One timestamped OS-primitive occurrence."""

    at_us: float
    kind: ScenarioEventKind
