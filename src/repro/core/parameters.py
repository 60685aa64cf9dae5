"""Simulation parameters: the description of the target environment E2.

Three parameter groups mirror the paper's three model components
(§3.3): processor, remote data access (network), and barrier.  All times
are microseconds; bandwidths are expressed as per-byte transfer times
(:func:`repro.util.units.mbytes_per_s_to_us_per_byte` converts).

The barrier parameters and defaults come straight from Table 1; the CM-5
parameter set of Table 3 is available in :mod:`repro.core.presets`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional

from repro.faults.plan import FaultPlan


class RemoteServicePolicy(enum.Enum):
    """How a processor services incoming remote-element requests (§3.3.1).

    * NO_INTERRUPT — requests are serviced only while the thread waits
      (for a barrier release or a remote reply of its own);
    * INTERRUPT — an arriving request interrupts computation, is serviced,
      then computation resumes;
    * POLL — computation is chopped into ``poll_interval`` chunks and the
      inbox is drained at each chunk boundary.
    """

    NO_INTERRUPT = "no_interrupt"
    INTERRUPT = "interrupt"
    POLL = "poll"

    @classmethod
    def parse(cls, v: "str | RemoteServicePolicy") -> "RemoteServicePolicy":
        if isinstance(v, RemoteServicePolicy):
            return v
        try:
            return cls(v.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown policy {v!r}; expected one of {[p.value for p in cls]}"
            ) from None


class BarrierAlgorithm(enum.Enum):
    """Barrier synchronisation algorithm.

    LINEAR is the paper's master–slave barrier (an upper bound on barrier
    time); LOG is the tree substitution the paper mentions; HARDWARE
    models a dedicated barrier network (CM-5 control network style) with
    a fixed cost.
    """

    LINEAR = "linear"
    LOG = "log"
    HARDWARE = "hardware"

    @classmethod
    def parse(cls, v: "str | BarrierAlgorithm") -> "BarrierAlgorithm":
        if isinstance(v, BarrierAlgorithm):
            return v
        try:
            return cls(v.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown barrier algorithm {v!r}; expected one of "
                f"{[a.value for a in cls]}"
            ) from None


def _require_nonneg(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _require_pos(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class ProcessorParams:
    """Processor model parameters (§3.3.1).

    Attributes
    ----------
    mips_ratio:
        Computation-time scale factor: measured compute deltas are
        multiplied by this.  ``measured_machine_speed / target_speed`` —
        e.g. Sun4 1.1360 MFLOPS to CM-5 2.7645 MFLOPS gives 0.41.
        1.0 = same speed, 2.0 = target is half as fast, 0.5 = twice as fast.
    policy:
        Remote-request service policy.
    poll_interval:
        Chunk size for the POLL policy (target-machine microseconds).
    poll_overhead:
        Cost charged at each poll check.
    interrupt_overhead:
        Cost charged per interrupt taken (INTERRUPT policy).
    request_service_time:
        Owner-side cost to service one remote request (locate element,
        prepare the reply) excluding message construction.
    msg_build_time:
        Cost to construct any outgoing message (request or reply).
    """

    mips_ratio: float = 1.0
    policy: RemoteServicePolicy = RemoteServicePolicy.NO_INTERRUPT
    poll_interval: float = 100.0
    poll_overhead: float = 1.0
    interrupt_overhead: float = 5.0
    request_service_time: float = 2.0
    msg_build_time: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "policy", RemoteServicePolicy.parse(self.policy))
        _require_pos("mips_ratio", self.mips_ratio)
        _require_pos("poll_interval", self.poll_interval)
        for name in (
            "poll_overhead",
            "interrupt_overhead",
            "request_service_time",
            "msg_build_time",
        ):
            _require_nonneg(name, getattr(self, name))


@dataclass(frozen=True)
class NetworkParams:
    """Remote data access model parameters (§3.3.2).

    Attributes
    ----------
    comm_startup_time:
        ``CommStartupTime`` — fixed cost per message send (software
        overhead + injection), charged to the sender.
    byte_transfer_time:
        ``ByteTransferTime`` — per-byte network transfer cost
        (0.05 us/B == 20 MB/s).
    topology:
        Interconnect topology name: ``crossbar``, ``bus``, ``ring``,
        ``mesh2d``, ``torus2d``, ``hypercube`` or ``fattree``.
    hop_time:
        Per-hop switching latency.
    contention:
        Enable the analytical contention model (§3.3.2: remote access
        delay grows with the intensity of concurrent network use).
    contention_factor:
        Strength of the analytical contention term.
    request_nbytes:
        Size of a remote-request message on the wire.
    header_nbytes:
        Header bytes added to every message payload.
    """

    comm_startup_time: float = 100.0
    byte_transfer_time: float = 0.05
    topology: str = "crossbar"
    hop_time: float = 0.1
    contention: bool = True
    contention_factor: float = 1.0
    request_nbytes: int = 16
    header_nbytes: int = 8

    def __post_init__(self):
        _require_nonneg("comm_startup_time", self.comm_startup_time)
        _require_nonneg("byte_transfer_time", self.byte_transfer_time)
        _require_nonneg("hop_time", self.hop_time)
        _require_nonneg("contention_factor", self.contention_factor)
        if self.request_nbytes < 0 or self.header_nbytes < 0:
            raise ValueError("message sizes must be >= 0")


@dataclass(frozen=True)
class BarrierParams:
    """Barrier model parameters — names and defaults from Table 1.

    Attributes
    ----------
    entry_time:
        ``EntryTime`` — time for each thread to enter a barrier.
    exit_time:
        ``ExitTime`` — time for each thread to come out of the barrier
        after it has been lowered.
    check_time:
        ``CheckTime`` — master's cost per check that all threads arrived.
    exit_check_time:
        ``ExitCheckTime`` — slave's cost per check that the barrier was
        released.
    model_time:
        ``ModelTime`` — master's cost to start lowering the barrier after
        the last arrival.
    by_msgs:
        ``BarrierByMsgs`` — if True, arrival/release travel as real
        messages whose transfer time contributes to barrier time; if
        False, a shared-memory flag protocol (polling at check_time /
        exit_check_time) is modelled instead.
    msg_size:
        ``BarrierMsgSize`` — size of a barrier synchronisation message.
    algorithm:
        LINEAR master–slave (paper default), LOG tree, or HARDWARE.
    """

    entry_time: float = 5.0
    exit_time: float = 5.0
    check_time: float = 2.0
    exit_check_time: float = 2.0
    model_time: float = 10.0
    by_msgs: bool = True
    msg_size: int = 128
    algorithm: BarrierAlgorithm = BarrierAlgorithm.LINEAR

    def __post_init__(self):
        object.__setattr__(self, "algorithm", BarrierAlgorithm.parse(self.algorithm))
        for name in (
            "entry_time",
            "exit_time",
            "check_time",
            "exit_check_time",
            "model_time",
        ):
            _require_nonneg(name, getattr(self, name))
        if self.msg_size < 0:
            raise ValueError(f"msg_size must be >= 0, got {self.msg_size}")


@dataclass(frozen=True)
class SimulationParameters:
    """Complete target-environment description for one extrapolation.

    ``faults`` is the optional unreliable-machine description
    (:class:`repro.faults.plan.FaultPlan`); ``None`` — the default —
    models the paper's ideal target and keeps results byte-identical
    to builds without the fault subsystem.
    """

    processor: ProcessorParams = field(default_factory=ProcessorParams)
    network: NetworkParams = field(default_factory=NetworkParams)
    barrier: BarrierParams = field(default_factory=BarrierParams)
    faults: Optional[FaultPlan] = None
    name: str = "custom"

    def with_(self, **groups: Mapping[str, Any]) -> "SimulationParameters":
        """Functional update of nested parameter fields.

        >>> p = SimulationParameters()
        >>> p2 = p.with_(processor={"mips_ratio": 0.41},
        ...              network={"comm_startup_time": 10.0})
        >>> p2.processor.mips_ratio
        0.41
        """
        updates: Dict[str, Any] = {}
        for group, fields_ in groups.items():
            if group == "name":
                updates["name"] = fields_
                continue
            if group == "faults":
                updates["faults"] = self._merge_faults(fields_)
                continue
            if group not in ("processor", "network", "barrier"):
                raise ValueError(f"unknown parameter group {group!r}")
            updates[group] = replace(getattr(self, group), **fields_)
        return replace(self, **updates)

    def _merge_faults(self, fields_: Any) -> Optional[FaultPlan]:
        """Resolve a ``faults=`` update: a plan, None, or a field dict."""
        if fields_ is None or isinstance(fields_, FaultPlan):
            return fields_
        if self.faults is None:
            return FaultPlan(**fields_)
        return replace(self.faults, **fields_)

    def with_faults(self, plan: Optional[FaultPlan]) -> "SimulationParameters":
        """Copy of these parameters with ``plan`` as the fault model."""
        return replace(self, faults=plan)

    def describe(self) -> str:
        """Multi-line human-readable parameter dump."""
        p, nw, b = self.processor, self.network, self.barrier
        lines = [
            f"parameter set {self.name!r}:",
            f"  processor: MipsRatio={p.mips_ratio} policy={p.policy.value}"
            f" poll_interval={p.poll_interval}us",
            f"  network: CommStartupTime={nw.comm_startup_time}us"
            f" ByteTransferTime={nw.byte_transfer_time}us/B"
            f" topology={nw.topology} contention={nw.contention}",
            f"  barrier: {b.algorithm.value} Entry={b.entry_time} Exit={b.exit_time}"
            f" Check={b.check_time} ExitCheck={b.exit_check_time}"
            f" Model={b.model_time} ByMsgs={int(b.by_msgs)} MsgSize={b.msg_size}",
        ]
        if self.faults is not None:
            lines.append(f"  {self.faults.describe()}")
        return "\n".join(lines)
