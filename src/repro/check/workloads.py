"""Auditable workloads: the case studies plus a generative program builder.

A :class:`Workload` is anything ActorCheck can re-execute under a
:class:`~repro.check.policies.PerturbedSchedule` and fingerprint.  Every
kernel of :mod:`repro.apps.registry` (the paper's case studies:
histogram, triangle counting) is one :class:`KernelWorkload`;
:func:`generate_spec` additionally synthesizes random-but-*correct-by-
construction* actor programs — random mailbox chains, handler forwarding
rules, and message-size distributions whose every forwarding decision is a
pure function of ``(payload, sender)``, never of arrival order — so the
auditor and the hypothesis property tests can sweep program shapes no
hand-written example covers.

The one deliberate exception is :attr:`ProgramSpec.planted_race`: a
test-only fixture whose handler folds the *receive order* into shared
state without any guard.  A correct auditor must flag it; the test suite
asserts ActorCheck does.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from repro.check.policies import PerturbedSchedule
from repro.conveyors.conveyor import ConveyorConfig
from repro.core.flags import ProfileFlags
from repro.core.profiler import ActorProf
from repro.exec.cache import file_sha256
from repro.hclib.actor import Selector
from repro.hclib.world import RunResult, run_spmd
from repro.machine.cost import CostModel
from repro.machine.spec import MachineSpec
from repro.sim.rng import substream_rng


def fingerprint(data: Any) -> str:
    """Stable sha256 over a JSON-serializable result structure."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class RunArtifacts:
    """Everything one audited run leaves behind for the invariant engine."""

    workload: str
    schedule: PerturbedSchedule
    #: sha256 over the application's own result (counts, sums, ...).
    result_fingerprint: str
    #: sha256 over the logical send matrix — schedule-invariant by design.
    logical_fingerprint: str
    profiler: ActorProf
    run: RunResult
    archive_path: Path
    archive_sha256: str
    #: Handler-counted (src, dst) receipt matrix; None for workloads whose
    #: handlers do not track senders (then only aggregate checks apply).
    receipts: np.ndarray | None = None
    #: Per-PE receive totals, when the app reports them (histogram).
    received_per_pe: list[int] | None = None
    #: Per-conveyor-group {pushes, pulls, forwarded, dups_discarded} sums.
    group_stats: list[dict[str, int]] = field(default_factory=list)
    clocks: list[int] = field(default_factory=list)

    @property
    def n_pes(self) -> int:
        return self.run.world.spec.n_pes


def _collect_group_stats(run: RunResult) -> list[dict[str, int]]:
    stats = []
    for slot in run.world._slots:
        for group in slot.groups:
            stats.append({
                "pushes": sum(e.stats.pushes for e in group.endpoints),
                "pulls": sum(e.stats.pulls for e in group.endpoints),
                "forwarded": sum(e.stats.forwarded for e in group.endpoints),
                "dups_discarded": sum(e.stats.dups_discarded
                                      for e in group.endpoints),
            })
    return stats


def _logical_fingerprint(profiler: ActorProf) -> str:
    assert profiler.logical is not None
    m = profiler.logical.matrix()
    return hashlib.sha256(
        repr(m.shape).encode() + m.astype(np.int64).tobytes()
    ).hexdigest()


class Workload:
    """One auditable workload.  Subclasses implement :meth:`execute`."""

    name: str = "workload"

    def __init__(self, machine: MachineSpec | None = None, seed: int = 0,
                 conveyor_config: ConveyorConfig | None = None) -> None:
        self.machine = machine or MachineSpec(1, 4)
        self.seed = seed
        self.base_config = conveyor_config or ConveyorConfig()

    def descriptor(self) -> dict:
        """A JSON-serializable description a worker process can rebuild
        this workload from (see :func:`workload_from_descriptor`).

        Parallel audits (``jobs > 1``) and the result cache both need
        one; a workload without it can still be audited serially.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not describe itself for parallel "
            f"execution; implement descriptor() or audit with jobs=1 and "
            f"no cache"
        )

    def _base_descriptor(self) -> dict:
        from dataclasses import asdict

        return {
            "nodes": self.machine.nodes,
            "pes_per_node": self.machine.pes_per_node,
            "seed": self.seed,
            "conveyor": asdict(self.base_config),
        }

    def _config_for(self, schedule: PerturbedSchedule) -> ConveyorConfig:
        if schedule.buffer_items is None:
            return self.base_config
        return replace(self.base_config, buffer_items=schedule.buffer_items)

    def execute(self, schedule: PerturbedSchedule, profiler: ActorProf,
                config: ConveyorConfig,
                cost: CostModel | None = None) -> tuple[Any, RunResult,
                                                        np.ndarray | None,
                                                        list[int] | None]:
        """Run once; return (result-data, run, receipts, received_per_pe)."""
        raise NotImplementedError

    def run(self, schedule: PerturbedSchedule, archive_path: Path, *,
            profiler: ActorProf | None = None,
            cost: CostModel | None = None) -> RunArtifacts:
        """Execute under ``schedule``, archive the traces, fingerprint.

        ``profiler`` and ``cost`` default to a fresh full-flags
        :class:`ActorProf` and the stock :class:`CostModel`; the what-if
        engine passes perturbed replacements for both.
        """
        profiler = profiler or ActorProf(ProfileFlags.all())
        config = self._config_for(schedule)
        result_data, run, receipts, received = self.execute(
            schedule, profiler, config, cost
        )
        path = profiler.export_archive(archive_path, meta={
            "workload": self.name,
            "seed": self.seed,
            "schedule": schedule.index,
        })
        return RunArtifacts(
            workload=self.name,
            schedule=schedule,
            result_fingerprint=fingerprint(result_data),
            logical_fingerprint=_logical_fingerprint(profiler),
            profiler=profiler,
            run=run,
            archive_path=path,
            archive_sha256=file_sha256(path),
            receipts=receipts,
            received_per_pe=received,
            group_stats=_collect_group_stats(run),
            clocks=run.clocks,
        )


class KernelWorkload(Workload):
    """A kernel from :mod:`repro.apps.registry` under audit: the paper's
    case studies (histogram, triangle counting) and any kernel
    registered after them.

    ``params`` are the kernel's parameters; missing ones take the
    registry's audit defaults.
    """

    def __init__(self, kernel: str, machine: MachineSpec | None = None,
                 seed: int = 0, conveyor_config: ConveyorConfig | None = None,
                 **params: Any) -> None:
        from repro.apps.registry import KERNELS

        if kernel not in KERNELS:
            raise ValueError(f"unknown workload kind {kernel!r}")
        super().__init__(machine=machine or MachineSpec(2, 2), seed=seed,
                         conveyor_config=conveyor_config)
        self.kernel = KERNELS[kernel]
        self.name = kernel
        self.params = self.kernel.resolve(params, "audit")

    def descriptor(self) -> dict:
        return {"kind": self.name, **self.params, **self._base_descriptor()}

    def execute(self, schedule, profiler, config, cost=None):
        out = self.kernel.execute(
            self.params, machine=self.machine, seed=self.seed,
            profiler=profiler, conveyor_config=config, cost=cost,
            schedule_policy=schedule.policy(),
        )
        return out.data, out.run, None, out.received_per_pe


# ----------------------------------------------------------------------
# generative actor programs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ProgramSpec:
    """Shape of one generated actor program.

    Handlers form a mailbox chain: a message landing in mailbox ``i``
    is (a) accumulated commutatively and (b) possibly forwarded to
    mailbox ``i + 1`` — the forwarding predicate and destination are pure
    functions of ``(value, sender)``, so the program's results and its
    logical send matrix are invariant under every legal schedule.
    """

    mailboxes: int = 2
    #: int64 words per mailbox payload (>= 2: value + hop count; extra
    #: words are padding that exercises the message-size distribution).
    payload_words: tuple[int, ...] = (2, 2)
    sends_per_pe: int = 64
    #: Destination mixer: ``dst = (value * mult + sender) % n_pes``.
    mult: int = 7
    #: Forward when ``(value + sender) % forward_mod == 0``.
    forward_mod: int = 2
    max_hops: int = 2
    #: TEST-ONLY planted handler-order race: fold the receive order into
    #: shared state with no guard.  ActorCheck must flag this.
    planted_race: bool = False

    def __post_init__(self) -> None:
        if self.mailboxes < 1:
            raise ValueError(f"need at least one mailbox: {self.mailboxes}")
        if len(self.payload_words) != self.mailboxes:
            raise ValueError(
                f"payload_words has {len(self.payload_words)} entries for "
                f"{self.mailboxes} mailboxes"
            )
        if any(w < 2 for w in self.payload_words):
            raise ValueError("every mailbox payload needs >= 2 words "
                             "(value + hop count)")
        if self.sends_per_pe < 0:
            raise ValueError(f"negative send count: {self.sends_per_pe}")
        if self.forward_mod < 1:
            raise ValueError(f"forward_mod must be >= 1: {self.forward_mod}")


def generate_spec(root_seed: int, index: int) -> ProgramSpec:
    """Draw one random program shape from a named substream.

    The same ``(root_seed, index)`` always yields the same spec, so a
    failed audit of ``generated`` workload #i is reproducible from the
    report alone.
    """
    rng = substream_rng(root_seed, "actorcheck", "genprog", index)
    mailboxes = int(rng.integers(1, 4))
    payload_words = tuple(int(rng.integers(2, 5)) for _ in range(mailboxes))
    return ProgramSpec(
        mailboxes=mailboxes,
        payload_words=payload_words,
        sends_per_pe=int(rng.integers(32, 160)),
        mult=int(rng.integers(1, 64)) * 2 + 1,
        forward_mod=int(rng.integers(2, 5)),
        max_hops=int(rng.integers(1, 4)),
    )


class GeneratedWorkload(Workload):
    """A generated mailbox-chain program, fully instrumented for audit.

    Handlers count every receipt into a shared ``(src, dst)`` matrix
    (safe: the simulator runs one handler at a time on one OS thread), so
    the invariant engine can check *exact* per-PE-pair conservation of
    logical sends into physical deliveries.
    """

    def __init__(self, spec: ProgramSpec, machine: MachineSpec | None = None,
                 seed: int = 0, name: str | None = None,
                 conveyor_config: ConveyorConfig | None = None) -> None:
        super().__init__(machine=machine or MachineSpec(1, 4), seed=seed,
                         conveyor_config=conveyor_config)
        self.spec = spec
        self.name = name or "generated"

    def descriptor(self) -> dict:
        from dataclasses import asdict

        spec = asdict(self.spec)
        spec["payload_words"] = list(spec["payload_words"])
        return {"kind": "generated", "spec": spec, "name": self.name,
                **self._base_descriptor()}

    def execute(self, schedule, profiler, config, cost=None):
        spec = self.spec
        n_pes = self.machine.n_pes
        receipts = np.zeros((n_pes, n_pes), dtype=np.int64)
        acc = np.zeros(n_pes, dtype=np.int64)
        order_state = np.zeros(n_pes, dtype=np.int64)

        def program(ctx):
            me = ctx.rank
            sel = Selector(ctx, mailboxes=spec.mailboxes,
                           payload_words=list(spec.payload_words),
                           conveyor_config=config)

            def make_handler(mb_id: int):
                forward = mb_id + 1 < spec.mailboxes
                pad = (0,) * (spec.payload_words[mb_id + 1] - 2) if forward else ()

                def process(payload, sender: int) -> None:
                    # payloads are >= 2 words, so they arrive as tuples
                    value, hop = int(payload[0]), int(payload[1])
                    ctx.compute(ins=12, loads=3, stores=3)
                    receipts[sender, me] += 1
                    acc[me] += value * (mb_id + 1)
                    if spec.planted_race:
                        # The planted bug: a hash of the RECEIVE ORDER,
                        # mutated with no guard — any legal reordering
                        # changes it.
                        order_state[me] = (
                            int(order_state[me]) * 1000003
                            + sender * 31 + value
                        ) % (1 << 61)
                    if (forward and hop < spec.max_hops
                            and (value + sender) % spec.forward_mod == 0):
                        dst = (value * spec.mult + sender) % n_pes
                        sel.send(mb_id + 1, (value + 1, hop + 1) + pad, dst)

                return process

            for i in range(spec.mailboxes):
                sel.mb[i].process = make_handler(i)
            values = ctx.rng.integers(0, 1 << 20, spec.sends_per_pe)
            pad0 = (0,) * (spec.payload_words[0] - 2)
            with ctx.finish():
                sel.start()
                for v in values:
                    value = int(v)
                    dst = (value * spec.mult + me) % n_pes
                    sel.send(0, (value, 0) + pad0, dst)
                sel.done(0)
            total = ctx.shmem.allreduce(int(acc[me]), "sum")
            return {"local": int(acc[me]), "total": total}

        run = run_spmd(program, machine=self.machine, cost=cost,
                       conveyor_config=config, profiler=profiler,
                       seed=self.seed, schedule_policy=schedule.policy())
        data = {
            "total": run.results[0]["total"],
            "locals": [r["local"] for r in run.results],
            "receipts": receipts.tolist(),
        }
        if spec.planted_race:
            data["order_state"] = order_state.tolist()
        received = receipts.sum(axis=0)
        return data, run, receipts, [int(x) for x in received]


def workload_from_descriptor(data: dict) -> Workload:
    """Rebuild a workload in a worker process from its :meth:`descriptor`.

    The round trip must be lossless: a rebuilt workload has to produce
    byte-identical artifacts to the original, or parallel audits would
    diverge from serial ones.
    """
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError(f"not a workload descriptor: {data!r}")
    kind = data["kind"]
    machine = MachineSpec(int(data["nodes"]), int(data["pes_per_node"]))
    seed = int(data["seed"])
    config = ConveyorConfig(**data["conveyor"])
    if kind == "generated":
        fields = dict(data["spec"])
        fields["payload_words"] = tuple(fields["payload_words"])
        return GeneratedWorkload(
            ProgramSpec(**fields), machine=machine, seed=seed,
            name=data.get("name"), conveyor_config=config,
        )
    params = {k: v for k, v in data.items()
              if k not in ("kind", "nodes", "pes_per_node", "seed",
                           "conveyor")}
    return KernelWorkload(kind, machine=machine, seed=seed,
                          conveyor_config=config, **params)
