"""The kernel registry: the apps the tools run, declared once.

``actorprof run`` (single runs and ``--sweep``), ``check``, ``whatif``
and :class:`~repro.check.workloads.KernelWorkload` read each kernel's
name, ordered parameters and executor from :data:`KERNELS`, so adding a
kernel to every tool is one :class:`Kernel` entry.  Parameters carry two
defaults: ``run`` profiles one larger run, while ``check`` and
``whatif`` re-execute the kernel many times (the ``audit`` set).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any, NamedTuple

from repro.hclib.world import RunResult
from repro.machine.spec import MachineSpec


@dataclass(frozen=True)
class Param:
    """One parameter of a kernel (or of the machine every kernel runs on)."""

    name: str
    type: type
    help: str
    run_default: Any
    audit_default: Any
    choices: tuple | None = None
    minimum: int | None = None

    def default(self, defaults: str) -> Any:
        """The ``"run"`` or ``"audit"`` default."""
        return self.run_default if defaults == "run" else self.audit_default

    def check(self, value: Any) -> Any:
        """``value`` coerced to this parameter's type; ValueError naming
        the parameter if it is not one of the choices or below the bound."""
        try:
            value = self.type(value)
        except (TypeError, ValueError):
            raise ValueError(f"{self.name} wants {self.type.__name__} "
                             f"values, got {value!r}") from None
        if self.choices is not None and value not in self.choices:
            *head, last = self.choices
            raise ValueError(f"{self.name} must be {', '.join(head)}, or "
                             f"{last}, got {value!r}")
        if self.minimum is not None and value < self.minimum:
            raise ValueError(f"{self.name} must be >= {self.minimum}, "
                             f"got {value}")
        return value


#: Parameters of every run, whatever the kernel; ``MachineSpec`` bounds
#: the machine shape.
MACHINE_PARAMS = (
    Param("nodes", int, "simulated nodes", 2, 2),
    Param("pes_per_node", int, "PEs per node", 2, 2),
    Param("seed", int, "per-PE RNG seed", 0, 0, minimum=0),
)


class KernelRun(NamedTuple):
    """One execution: a summary line, the result data ActorCheck
    fingerprints, the run, and per-PE receive totals (if reported)."""

    summary: str
    data: dict
    run: RunResult
    received_per_pe: list[int] | None


@dataclass(frozen=True)
class Kernel:
    """One registered kernel.

    ``execute(params, *, machine, seed, profiler, conveyor_config=None,
    cost=None, schedule_policy=None)`` runs the kernel once through its
    public entry point; ``params`` holds (at least) the parameters
    :meth:`resolve` returns.
    """

    name: str
    params: tuple[Param, ...]
    execute: Callable[..., KernelRun]

    def resolve(self, values: Mapping[str, Any],
                defaults: str = "run") -> dict:
        """This kernel's parameters, in declaration order: ``values``
        checked against their declarations, missing ones defaulted."""
        names = [p.name for p in self.params]
        for name in values:
            if name not in names:
                raise ValueError(f"{self.name} takes no parameter {name!r}; "
                                 f"its parameters are {', '.join(names)}")
        return {p.name: p.check(values.get(p.name, p.default(defaults)))
                for p in self.params}


def resolve_point(kernel: Kernel | None, values: Mapping[str, Any]) -> dict:
    """One run's parameters: the machine's, then ``kernel``'s (None: a
    workload outside the registry), missing ones at their ``run``
    defaults; ValueError names the first bad one or the bad machine."""
    point = {p.name: p.check(values.get(p.name, p.run_default))
             for p in MACHINE_PARAMS}
    MachineSpec(point["nodes"], point["pes_per_node"])
    if kernel is not None:
        point.update(kernel.resolve(
            {n: v for n, v in values.items() if n not in point}))
    return point


def _histogram(params, *, machine, seed, **run_kw) -> KernelRun:
    from repro.apps.histogram import histogram

    res = histogram(params["updates"], params["table_size"],
                    machine=machine, seed=seed, **run_kw)
    received = list(res.per_pe_received)
    return KernelRun(
        summary=f"histogram: {res.total_updates:,} updates delivered",
        data={"total": res.total_updates, "received": received},
        run=res.run,
        received_per_pe=received,
    )


def _triangle(params, *, machine, seed, **run_kw) -> KernelRun:
    from repro.apps.triangle import count_triangles
    from repro.experiments.casestudy import case_study_graph

    graph = case_study_graph(params["scale"], seed=seed)
    res = count_triangles(graph, machine, params["distribution"],
                          seed=seed, **run_kw)
    return KernelRun(
        summary=f"triangle: {res.triangles:,} triangles",
        data={"triangles": res.triangles,
              "per_pe_counts": list(res.per_pe_counts),
              "per_pe_sends": list(res.per_pe_sends)},
        run=res.run,
        received_per_pe=None,
    )


KERNELS: dict[str, Kernel] = {k.name: k for k in (
    Kernel("histogram", (
        Param("updates", int, "updates per PE", 2000, 400, minimum=0),
        Param("table_size", int, "table slots per PE", 512, 64, minimum=1),
    ), _histogram),
    Kernel("triangle", (
        Param("scale", int, "R-MAT scale", 8, 6, minimum=1),
        Param("distribution", str, "row distribution", "cyclic", "cyclic",
              choices=("cyclic", "range", "block")),
    ), _triangle),
)}
