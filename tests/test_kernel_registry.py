"""The kernel registry (:mod:`repro.apps.registry`) and the tools over it.

Every registered kernel must work in ``run``, ``check`` and ``whatif``
with no per-kernel CLI code, and bad kernel or machine parameters must
end in exit 2 with a one-line message before anything runs.
"""

import json
import subprocess
import sys

import pytest

from repro.apps.registry import KERNELS, MACHINE_PARAMS, resolve_point
from repro.check import KernelWorkload
from repro.core.cli import main

SMALL_MACHINE = ["--nodes", "1", "--pes-per-node", "4"]


def _audit_flags(name: str) -> list[str]:
    """The kernel's audit defaults spelled as ``run`` flags."""
    flags = []
    for p in KERNELS[name].params:
        flags += [f"--{p.name.replace('_', '-')}", str(p.audit_default)]
    return flags


@pytest.mark.parametrize("name", KERNELS)
def test_run_check_whatif_cover_every_kernel(name, tmp_path, capsys):
    archive = tmp_path / f"{name}.aptrc"
    assert main(["run", name, *SMALL_MACHINE, *_audit_flags(name),
                 "-o", str(archive)]) == 0
    assert archive.stat().st_size > 0

    report = tmp_path / "check.json"
    assert main(["check", name, *SMALL_MACHINE, "--schedules", "2",
                 "--skip-store-check", "--quiet", "--out", str(report)]) == 0
    assert json.loads(report.read_text())["verdict"] == "pass"

    assert main(["whatif", name, *SMALL_MACHINE, "--quiet"]) == 0


@pytest.mark.parametrize("argv", [
    "run histogram --nodes 0",
    "run histogram --updates -5",
    "run histogram --table-size 0",
    "run triangle --scale 0",
    "run histogram --seed -1",
    "check histogram --nodes 0",
    "check histogram --updates -5",
    "check triangle --scale 0",
    "whatif histogram --pes-per-node 0",
    "whatif triangle --scale-rmat 0",
    "run histogram --sweep nodes=1,0",
])
def test_bad_parameters_exit_2_without_traceback(argv):
    r = subprocess.run([sys.executable, "-m", "repro.core.cli", *argv.split()],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert len(r.stderr.strip().splitlines()) == 1, r.stderr


@pytest.mark.parametrize("name,keys", [
    ("histogram", ["kind", "updates", "table_size", "nodes", "pes_per_node",
                   "seed", "conveyor"]),
    ("triangle", ["kind", "scale", "distribution", "nodes", "pes_per_node",
                  "seed", "conveyor"]),
])
def test_descriptor_keys_keep_their_order(name, keys):
    # result-cache keys hash these dicts, so the order is part of the format
    assert list(KernelWorkload(name).descriptor()) == keys


def test_workload_defaults_are_the_audit_set():
    wl = KernelWorkload("histogram")
    assert wl.params == {"updates": 400, "table_size": 64}
    assert (wl.machine.nodes, wl.machine.pes_per_node) == (2, 2)


def test_resolve_point_checks_before_running():
    point = resolve_point(KERNELS["triangle"], {"scale": "7"})
    assert point == {"nodes": 2, "pes_per_node": 2, "seed": 0, "scale": 7,
                     "distribution": "cyclic"}
    assert list(point)[:len(MACHINE_PARAMS)] == [p.name for p in MACHINE_PARAMS]
    with pytest.raises(ValueError, match="distribution must be cyclic, "
                                         "range, or block"):
        resolve_point(KERNELS["triangle"], {"distribution": "diagonal"})
    with pytest.raises(ValueError, match="takes no parameter 'updates'"):
        resolve_point(KERNELS["triangle"], {"updates": 5})
    with pytest.raises(ValueError, match="need at least one node"):
        resolve_point(None, {"nodes": 0})


def test_unknown_kernel_is_rejected():
    with pytest.raises(ValueError, match="unknown workload kind"):
        KernelWorkload("bogus")


def test_cli_import_does_not_load_the_registry():
    code = ("import sys, repro.core.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('repro.apps', 'repro.check'))))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, timeout=60, check=True)
    assert r.stdout.strip() == "[]"
