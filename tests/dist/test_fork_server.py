"""The fork server shard workers start from, seen from outside.

Each test runs its owner in a subprocess, because what is measured is a
whole process tree: which interpreters import ``repro``, whether a fork
server exists at all, and what is left when the owner ends — cleanly,
by SIGTERM, or by SIGKILL with no handler run.
"""

import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import pytest

from .conftest import descendants, requires_shm, running, shm_segments

pytestmark = [pytest.mark.dist, requires_shm]

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def _owner_env() -> dict:
    """This environment without ``PYTHONPATH``: an owner script finds
    ``repro`` through the path it inserts, as ``benchmarks/e2e/run.py``
    does, which the fork server cannot see by itself."""
    return {key: value for key, value in os.environ.items()
            if key != "PYTHONPATH"}


def _script(body: str) -> list[str]:
    return [sys.executable, "-c",
            f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{body}"]


def _wait_gone(pids, seconds: float) -> list[int]:
    """The pids of ``pids`` still running after up to ``seconds``."""
    deadline = time.monotonic() + seconds
    while True:
        left = [pid for pid in pids if running(pid)]
        if not left or time.monotonic() >= deadline:
            return left
        time.sleep(0.05)


def test_repro_is_imported_once_per_process_tree():
    """Two pools of two workers: the owner and the fork server import
    ``repro.core.model``; no worker does (a spawned worker would, each
    of the four).  The server borrows the owner's ``sys.path`` as its
    ``PYTHONPATH``; the owner's environment is left as it was."""
    env = _owner_env()
    env["PYTHONPROFILEIMPORTTIME"] = "1"
    run = subprocess.run(_script(
        "import os\n"
        "from repro.dist import ShardWorkerPool, WorkerRole\n"
        "environ = dict(os.environ)\n"
        "for _ in range(2):\n"
        "    with ShardWorkerPool([WorkerRole(), WorkerRole()]):\n"
        "        pass\n"
        "assert dict(os.environ) == environ\n"), env=env,
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    imports = [line for line in run.stderr.splitlines()
               if line.startswith("import time:")
               and line.rsplit("|", 1)[-1].strip() == "repro.core.model"]
    assert len(imports) == 2


def test_a_process_without_a_pool_starts_no_fork_server():
    """The server is launched by the first pool, not by importing
    ``repro.dist`` or by an unsharded runtime; a sharded one in the same
    process then shows the probe does see a server."""
    run = subprocess.run(_script(
        "import os\n"
        "from repro.config import ModelConfig\n"
        "from repro.core import HalkModel\n"
        "from repro.kg import KnowledgeGraph\n"
        "from repro.queries import Entity, Projection\n"
        "from repro.serve import ServeConfig, ServeRuntime\n"
        "def servers():\n"
        "    found = 0\n"
        "    for entry in filter(str.isdigit, os.listdir('/proc')):\n"
        "        try:\n"
        "            stat = open(f'/proc/{entry}/stat').read()\n"
        "            cmd = open(f'/proc/{entry}/cmdline', 'rb').read()\n"
        "        except OSError:\n"
        "            continue\n"
        "        ppid = int(stat.rsplit(')', 1)[1].split()[1])\n"
        "        found += (ppid == os.getpid()\n"
        "                  and b'multiprocessing.forkserver' in cmd)\n"
        "    return found\n"
        "kg = KnowledgeGraph(20, 2, [(i, i % 2, (i + 1) % 20)\n"
        "                            for i in range(20)])\n"
        "model = HalkModel(kg, ModelConfig(embedding_dim=4, hidden_dim=8,\n"
        "                                  seed=0))\n"
        "config = ServeConfig(num_shards=0)\n"
        "with ServeRuntime(model, kg=kg, config=config) as runtime:\n"
        "    runtime.answer(Projection(0, Entity(0)), top_k=3,\n"
        "                   timeout=30.0)\n"
        "    print('unsharded', servers())\n"
        "config = ServeConfig(num_shards=2)\n"
        "with ServeRuntime(model, kg=kg, config=config) as runtime:\n"
        "    print('sharded', servers())\n"), env=_owner_env(),
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.split() == ["unsharded", "0", "sharded", "1"]


def test_workers_end_with_a_hard_killed_owner():
    """SIGKILL runs no handler and sends no stop: each worker notices
    its owner is gone and exits, which frees the resource tracker."""
    owner = subprocess.Popen(_script(
        "import os, signal\n"
        "from repro.dist import ShardWorkerPool, WorkerRole\n"
        "pool = ShardWorkerPool([WorkerRole(), WorkerRole()])\n"
        "print(*pool.pids(), flush=True)\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n"), env=_owner_env(),
        stdout=subprocess.PIPE, text=True)
    pids = []
    try:
        pids = [int(pid) for pid in owner.stdout.readline().split()]
        assert owner.wait(timeout=120) == -signal.SIGKILL
        assert len(pids) == 2
        assert _wait_gone(pids, 5.0) == []
    finally:
        owner.stdout.close()
        for pid in pids:  # a failed run must not leave them behind
            if running(pid):
                os.kill(pid, signal.SIGKILL)


def test_sigterm_closes_a_holding_server():
    """``serve --hold`` takes SIGTERM the way it takes Ctrl-C: the
    runtime closes, the process exits 0, and neither its processes nor
    its shared-memory segments outlive it."""
    segments = shm_segments()
    env = _owner_env()
    env["PYTHONPATH"] = str(SRC)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--model-dir",
         str(ROOT / "models"), "--shards", "2", "--http-port", "0",
         "--hold"], cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    watchdog = threading.Timer(120.0, server.kill)
    watchdog.start()
    children = set()
    try:
        output = []
        for line in server.stdout:
            output.append(line)
            if line.startswith("holding"):
                break
        assert output and output[-1].startswith("holding"), "".join(output)
        children = descendants(server.pid)
        assert len(children) >= 3  # two workers and the fork server
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=10) == 0
        assert _wait_gone(children, 5.0) == []
        left = {name for name in shm_segments() - segments
                if name.startswith("repro-")}
        assert not left
    finally:
        watchdog.cancel()
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()
        for pid in children:
            if running(pid):
                os.kill(pid, signal.SIGKILL)
