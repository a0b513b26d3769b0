"""``actorprof run``'s one code path: a single run, or one sweep point.

One call = one profiled execution of a :mod:`repro.apps.registry`
kernel, with JSON-serializable inputs and outputs and artifacts dropped
in ``out_dir``, so sweep workers and the single-run CLI write the same
archive for the same point.  A run that dies under a fault plan is
*salvaged* into a degraded archive when an archive name was requested
(exit code 3), otherwise it is a plain failure (exit code 1).
"""

from __future__ import annotations

import contextlib
from pathlib import Path


def run_app_point(
    out_dir: Path,
    *,
    app: str,
    fault_plan: dict | None = None,
    archive_name: str | None = None,
    **values,
) -> dict:
    """Run kernel ``app`` once; return a JSON-serializable outcome.

    ``values`` are the machine's and the kernel's parameters; missing
    ones take the registry's ``run`` defaults.
    """
    from repro.apps.registry import KERNELS, resolve_point
    from repro.core.flags import ProfileFlags
    from repro.core.profiler import ActorProf
    from repro.exec.cache import file_sha256
    from repro.machine.spec import MachineSpec
    from repro.sim.errors import SimulationError
    from repro.sim.faults import FaultPlan, use_plan

    if app not in KERNELS:
        raise ValueError(f"unknown app {app!r}; want {', '.join(KERNELS)}")
    kernel = KERNELS[app]
    params = resolve_point(kernel, values)
    spec = MachineSpec(params["nodes"], params["pes_per_node"])
    seed = params["seed"]
    plan = FaultPlan.from_dict(fault_plan) if fault_plan else None
    if plan is not None:
        plan.validate(spec.n_pes)

    # the timeline feeds the LOD pyramid, so `actorprof viz` gets
    # time-resolved (zoomable) views of archives made by `actorprof run`
    profiler = ActorProf(ProfileFlags.all(enable_timeline=True))
    meta: dict = {"app": app, "seed": seed}
    if plan is not None:
        meta["fault_plan"] = plan.to_dict()
    meta.update((p.name, params[p.name]) for p in kernel.params)
    scope = use_plan(plan) if plan is not None else contextlib.nullcontext()
    failure: BaseException | None = None
    summary = ""
    try:
        with scope:
            summary = kernel.execute(params, machine=spec, seed=seed,
                                     profiler=profiler).summary
    except SimulationError as exc:
        failure = exc

    outcome = {"app": app, "params": params, "summary": summary,
               "exit_code": 0, "error": None, "archive": None,
               "archive_sha256": None, "artifacts": []}
    if failure is not None:
        first_line = str(failure).splitlines()[0]
        outcome.update(exit_code=1 if archive_name is None else 3,
                       error=f"{type(failure).__name__}: {first_line}")
    if archive_name is not None:
        path = Path(out_dir) / archive_name
        if failure is None:
            profiler.export_archive(path, meta=meta, lod=True)
        else:
            profiler.salvage_archive(path, failure=failure, meta=meta,
                                     lod=True)
        outcome.update(archive=archive_name, archive_sha256=file_sha256(path),
                       artifacts=[archive_name])
    return outcome
