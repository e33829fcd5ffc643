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

import ast
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

# Packages a serving process has no use for. It scores on the request
# thread and owns no pool, so the pools' packages are among them. It
# speaks HTTP with its own reader on ``socketserver`` and hashes ring keys
# with ``_blake2``, so neither the stdlib's HTTP modules nor ``email``,
# ``ssl`` or ``hashlib`` (which bring OpenSSL in) are among what it loads.
NOT_SERVED = [
    "repro.baselines",
    "repro.eval",
    "repro.experiments",
    "repro.data",
    "repro.cluster",
    "repro.streaming",
    "repro.index.lifecycle",
    "multiprocessing",
    "concurrent.futures",
    "http.server",
    "http.client",
    "email",
    "ssl",
    "_ssl",
    "hashlib",
    "_hashlib",
]

# What ``NOT_SERVED`` holds out of ``serve`` at run time, no module of the
# package imports at all: every request and batch is scored on the thread
# that holds it.
POOLS = ("multiprocessing", "concurrent.futures")


def imported_names(node: ast.AST) -> list[str]:
    """The absolute module names one import statement can bind."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        return [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    return []


def test_no_module_imports_a_pool():
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno} imports {name}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in imported_names(node)
        if any(name == pool or name.startswith(pool + ".") for pool in POOLS)
    ]
    assert not offenders, "\n".join(offenders)


# The bare interpreter, ``site``, and repro.core, repro.serving,
# repro.kvstore, repro.index.serialization, numpy and the standard library
# they use: 248 modules on CPython 3.11, counted in a ``-S`` child, and a
# margin of 8 (282 while the server came from ``http.server`` and the ring
# hash from ``hashlib``).
MODULE_BOUND = 256

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


# What importing one module may not drag in. ``serve`` is to attach the
# rollout controller, so the controller must stay off the simulators, the
# neural baselines and the bench harness; the virtual clock is a test
# double every layer uses, so it must load no layer that uses it.
NOT_LOADED_BY = {
    "repro.index.lifecycle.rollout": ("repro.baselines", "repro.cluster", "repro.bench"),
    "repro.testing.clock": ("repro.cluster", "repro.index.lifecycle"),
}


@pytest.mark.parametrize("module", sorted(NOT_LOADED_BY))
def test_module_loads_no_layer_above_it(module):
    done = subprocess.run(
        [sys.executable, "-c",
         f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    modules = json.loads(done.stdout)
    for package in NOT_LOADED_BY[module]:
        loaded = [m for m in modules if m == package or m.startswith(package + ".")]
        assert not loaded, f"{module} imported {loaded}"


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

