"""``serve`` imports what it serves; every other verb still parses.

A pod's cold start pays for every module ``python -m repro serve``
imports. The guard runs the real command in a fresh interpreter and reads
``sys.modules`` once the server has come up and gone down again. What it
counts is the bare interpreter, ``site`` and what ``serve`` imports: the
child starts with ``-S``, so no site-packages ``.pth`` file,
``sitecustomize`` or ``usercustomize`` runs code in it. Such start-up code
belongs to the machine, not to ``serve`` (a ``.pth`` that imports
``certifi`` takes a bare start from 32 modules to 102).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli.main import build_parser, main
from repro.index.serialization import save_index

SRC = Path(__file__).resolve().parents[2] / "src"

VERBS = [
    "generate",
    "stats",
    "sessionize",
    "build-index",
    "recommend",
    "evaluate",
    "grid-search",
    "experiment",
    "index",
    "bench",
    "stream",
    "serve",
]

# Packages a serving process has no use for.
NOT_SERVED = [
    "repro.baselines",
    "repro.eval",
    "repro.experiments",
    "repro.data",
    "repro.cluster",
    "repro.streaming",
    "repro.index.lifecycle",
]

# The bare interpreter, ``site``, and repro.core, repro.serving,
# repro.kvstore, repro.index.serialization, numpy and the standard library
# they use: 300-304 modules on CPython 3.11, counted in a ``-S`` child.
MODULE_BOUND = 310

# Under ``-S`` the child puts the site-packages directories on ``sys.path``
# itself (user site first, as ``site.main`` orders them); importing ``site``
# then adds directories but processes no ``.pth`` file. Serve until the main
# thread first sleeps (the server is up by then), take the Ctrl-C path down,
# then report what got imported along the way.
SERVE_ONCE = """
import site, sys
if site.check_enableusersite():
    sys.path.append(site.getusersitepackages())
sys.path.extend(site.getsitepackages())

import json, time
from repro.cli.main import main

def interrupt(_seconds):
    raise KeyboardInterrupt

time.sleep = interrupt
code = main(["serve", sys.argv[1], "--port", "0"])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    return env


def test_serve_loads_only_the_serving_stack(toy_index, tmp_path):
    artifact = tmp_path / "toy.vmis"
    save_index(toy_index, artifact)
    done = subprocess.run(
        [sys.executable, "-S", "-c", SERVE_ONCE, str(artifact)],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    banner, _, report = done.stdout.strip().partition("\nshutting down\n")
    assert banner.startswith("serving 5 items on http://127.0.0.1:")
    report = json.loads(report)
    assert report["code"] == 0
    modules = report["modules"]
    for package in NOT_SERVED:
        loaded = [m for m in modules if m == package or m.startswith(package + ".")]
        assert not loaded, f"serve imported {loaded}"
    for needed in ("repro.serving.http", "repro.core.colindex", "repro.kvstore",
                   "repro.index.serialization"):
        assert needed in modules
    outside = [m for m in modules if m.partition(".")[0] not in ("repro", "numpy")]
    assert len(modules) < MODULE_BOUND, (
        f"{len(modules)} modules; outside repro and numpy: {' '.join(outside)}"
    )


@pytest.mark.parametrize("verb", VERBS)
def test_every_verb_answers_help(verb, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([verb, "--help"])
    assert exit_info.value.code == 0
    assert f"usage: repro {verb}" in capsys.readouterr().out


def test_module_entry_point_answers_help():
    done = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--help"],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "--hedge-fraction" in done.stdout


def test_top_level_help_lists_every_verb(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert all(verb in out for verb in VERBS)


def test_whole_parser_still_knows_every_verb():
    parser = build_parser()
    assert parser.parse_args(["grid-search", "x.tsv"]).ks == [50, 100, 500]
    assert parser.parse_args(["evaluate", "x.tsv"]).model == "vmis-columnar"
    assert parser.parse_args(["stream", "status", "--log-dir", "d"]).group == "indexer"


def test_serve_namespace_is_the_one_the_ledger_reads():
    """``benchmarks/serve/run.py::build_cluster`` reads these attributes off
    ``build_parser().parse_args(["serve", path])``: names and defaults are
    an interface."""
    assert vars(build_parser().parse_args(["serve", "x.vmis"])) == {
        "cache_size": 1024,
        "command": "serve",
        "engine": "columnar",
        "hedge_fraction": 0.25,
        "host": "127.0.0.1",
        "index": "x.vmis",
        "k": 100,
        "m": 500,
        "max_inflight": 256,
        "no_guardrails": False,
        "pods": 2,
        "port": 8080,
        "replication": 0,
        "sla_ms": 50.0,
        "vnodes": 128,
        "wal_dir": None,
    }


def test_index_package_exports_resolve_on_first_use():
    import repro.index
    from repro.index import IndexRegistry, load_index
    from repro.index.lifecycle.registry import IndexRegistry as registry_class
    from repro.index.serialization import load_index as loader

    assert IndexRegistry is registry_class and load_index is loader
    namespace: dict[str, object] = {}
    exec("from repro.index import *", namespace)
    assert set(repro.index.__all__) <= set(namespace)
    assert namespace["IndexBuilder"] is repro.index.IndexBuilder
    with pytest.raises(AttributeError):
        repro.index.no_such_name

