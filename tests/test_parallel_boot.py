"""How a worker pool boots: forked from one pre-imported template.

Structural checks only -- every one fires on any core count and none
compares a duration with a threshold chosen for a host:

* every pool of a driver, and every recovery respawn, forks its workers
  from the same template process;
* the template really has imported what it was asked to (also when the
  driver reaches ``repro`` through ``sys.path.insert`` alone), and that
  is everything: a worker imports no numpy / scipy / repro module of its
  own up to the end of its first traced fit and predict;
* ``start()`` does not wait for the launch, and a launch that fails
  surfaces at the first dispatch with nothing left behind;
* the template is single-threaded, carries the BLAS thread pins, and
  ends with its driver;
* a worker's settings come from its ``spec`` and from nowhere else: a
  variable set after the template exists reaches the next pool, and one
  the template captured at launch does not outlive its unsetting.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.analysis import sanitize
from repro.dist import make_algorithm, make_distribution, make_runtime_for
from repro.graph import make_synthetic
from repro.parallel import ProcessBackend
from repro.parallel.backend import _PRELOAD, _THREAD_PIN_VARS

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")
HIDDEN = 8
GHOST = {"variant": "ghost", "partition": "multilevel"}


@pytest.fixture(scope="module")
def ds():
    return make_synthetic(n=60, avg_degree=4, f=8, n_classes=3, seed=11)


@pytest.fixture(autouse=True)
def _driver_sanitizer_off():
    sanitize.disable()
    yield
    sanitize.disable()


def _shm_segments():
    return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}


def _make(ds, name="1d", p=4, **kw):
    return make_algorithm(name, p, ds, hidden=HIDDEN, seed=0,
                          backend="process", workers=2, **kw)


def _workers(algo):
    return algo.rt.backend_stats()["per_worker"]


# --------------------------------------------------------------------- #
# (a) one template per driver
# --------------------------------------------------------------------- #
def test_pools_and_respawn_fork_from_one_template(ds, tmp_path):
    templates, pids = set(), []

    def note(algo):
        for w in _workers(algo):
            templates.add(w["ppid"])
            pids.append(w["pid"])

    algo = _make(ds)
    try:
        algo.fit(ds.features, ds.labels, epochs=1)
        note(algo)
    finally:
        algo.rt.close()
    algo = _make(ds, faults="kill:worker=1,epoch=1,attempt=1",
                 max_restarts=2)
    try:
        note(algo)                              # the pool that will die
        hist = algo.fit(ds.features, ds.labels, epochs=3,
                        checkpoint_path=str(tmp_path / "ck.npz"),
                        checkpoint_every=1)
        note(algo)                              # the respawned pool
        stats = algo.rt.backend_stats(workers=False)
    finally:
        algo.rt.close()
    assert stats["restarts"] == 1 and len(hist.epochs) == 3
    assert len(set(pids)) == 6                  # three pools of two
    assert len(templates) == 1
    assert templates.isdisjoint({os.getpid(), *pids})


# --------------------------------------------------------------------- #
# (b) + (f) a script driver that reaches repro through sys.path.insert
# --------------------------------------------------------------------- #
#: Appends the name of every shared-memory segment a process creates to
#: ``segments`` beside it: run by the driver script and, through the
#: preloaded probe, by the template -- hence by every worker it forks.
RECORD_SEGMENTS = """
from multiprocessing import shared_memory as _shared_memory

_SEGMENTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "segments")
_create = _shared_memory.SharedMemory.__init__


def _recorded(self, *args, **kwargs):
    _create(self, *args, **kwargs)
    if kwargs.get("create", len(args) > 1 and args[1]):
        with open(_SEGMENTS, "a") as fh:
            fh.write(self.name + "\\n")


_shared_memory.SharedMemory.__init__ = _recorded
"""

PROBE = """
import os

# Imported by name from the template's preload list and by nobody else:
# one line per process that ran this module's body.
with open(os.path.join(os.path.dirname(__file__), "imported_by"), "a") as fh:
    fh.write(f"{os.getpid()}\\n")
""" + RECORD_SEGMENTS

SCRIPT_DRIVER = """
import json
import os
import sys

sys.path.insert(0, {src!r})
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
{record}
if __name__ == "__main__":
    from multiprocessing import resource_tracker

    from repro.dist import make_algorithm
    from repro.graph import make_synthetic
    from repro.parallel import backend

    backend._PRELOAD += ("bootprobe",)
    ds = make_synthetic(n=60, avg_degree=4, f=8, n_classes=3, seed=11)
    parents = []
    for transport in ("shm", "tcp"):
        algo = make_algorithm("1d", 4, ds, hidden=8, seed=0,
                              backend="process", workers=2,
                              transport=transport)
        algo.fit(ds.features, ds.labels, epochs=2)
        parents += [w["ppid"] for w in
                    algo.rt.backend_stats()["per_worker"]]
        algo.rt.close()
    print(json.dumps({{
        "parents": parents,
        "tracker": resource_tracker._resource_tracker._pid,
        "pythonpath": os.environ.get("PYTHONPATH"),
    }}))
"""


def _gone(pid: int) -> bool:
    """No such process, or one that has exited and awaits its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.fixture(scope="module")
def script_driver(tmp_path_factory):
    """Two pools built and closed by a plain script with no PYTHONPATH
    -- how ``benchmarks/layers/run.py`` runs."""
    tmp = tmp_path_factory.mktemp("driver")
    (tmp / "bootprobe.py").write_text(textwrap.dedent(PROBE))
    script = tmp / "driver.py"
    script.write_text(textwrap.dedent(SCRIPT_DRIVER).format(
        src=SRC, record=RECORD_SEGMENTS))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    # Not from the script's directory: the template is a ``python -c``
    # and would find the probe through its working directory.
    done = subprocess.run([sys.executable, str(script)], env=env,
                          cwd=tmp_path_factory.mktemp("cwd"),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    out["stderr"] = done.stderr
    log = tmp / "imported_by"
    out["imported_by"] = ([int(pid) for pid in log.read_text().split()]
                          if log.exists() else [])
    out["segments"] = set((tmp / "segments").read_text().split())
    return out


def test_preload_happens_without_pythonpath(script_driver):
    """``multiprocessing`` before 3.12 never applies the ``sys_path`` it
    hands the forkserver and swallows the preload's ImportError: were
    the path not handed over some other way, the probe -- reachable, like
    ``repro``, only through the driver's ``sys.path`` -- would have been
    imported by no one."""
    assert script_driver["pythonpath"] is None      # and stayed unset
    (template,) = set(script_driver["parents"])
    assert script_driver["imported_by"] == [template]


def test_script_driver_leaves_nothing_behind(script_driver):
    assert script_driver["stderr"] == ""
    (template,) = set(script_driver["parents"])
    deadline = time.monotonic() + 5.0
    leftovers = [template, script_driver["tracker"]]
    while leftovers and time.monotonic() < deadline:
        leftovers = [pid for pid in leftovers if not _gone(pid)]
        time.sleep(0.05)
    assert leftovers == []
    # the shm pool's arenas at least; none of them may outlive the script
    # (another process's segments are no concern of this one)
    assert script_driver["segments"]
    assert not _shm_segments() & script_driver["segments"]


# --------------------------------------------------------------------- #
# (c) the preload is complete
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name,transport,kw", [
    ("1d", "shm", GHOST),
    ("2d", "tcp", {}),
])
def test_a_worker_imports_nothing_of_ours(ds, name, transport, kw):
    algo = _make(ds, name, transport=transport, **kw)
    try:
        algo.fit(ds.features, ds.labels, epochs=2, trace=True)
        algo.predict()
        late = [m for w in _workers(algo)
                for m in w["imported_after_boot"]
                if m.split(".")[0] in ("numpy", "scipy", "repro")]
    finally:
        algo.rt.close()
    assert late == []


def test_preload_names_are_importable():
    """The forkserver skips a name it cannot import without a word."""
    import importlib

    for name in _PRELOAD:
        importlib.import_module(name)


# --------------------------------------------------------------------- #
# (d) start() does not wait for the launch
# --------------------------------------------------------------------- #
def test_start_returns_before_the_launch(ds, monkeypatch):
    gate = threading.Event()
    real = ProcessBackend._launch

    def gated(self, procs):
        assert gate.wait(timeout=60)
        real(self, procs)

    monkeypatch.setattr(ProcessBackend, "_launch", gated)
    rt = make_runtime_for("1d", 4, backend="process", workers=2)
    replies = []
    try:
        backend = rt.start()
        assert [p.pid for p in backend.procs] == [None, None]
        # the driver-side work make_algorithm does in this window
        dist = make_distribution("multilevel", ds.adjacency, 4)
        assert dist.nparts == 4
        assert [p.pid for p in backend.procs] == [None, None]
        first = threading.Thread(
            target=lambda: replies.append(backend.command("stats", None)))
        first.start()
        first.join(timeout=0.3)
        assert first.is_alive() and not replies     # waits for the launch
        gate.set()
        first.join(timeout=60)
        assert not first.is_alive()
        assert [w["pid"] for w in replies[0]] == [p.pid for p in
                                                  backend.procs]
    finally:
        gate.set()
        rt.close()


def test_failed_launch_surfaces_at_the_first_dispatch(monkeypatch):
    def refused(self, procs):
        procs[0].start()
        raise ConnectionRefusedError("template went away")

    monkeypatch.setattr(ProcessBackend, "_launch", refused)
    before = _shm_segments()
    rt = make_runtime_for("1d", 4, backend="process", workers=2)
    rt.start()                                      # launch errors wait
    with pytest.raises(ConnectionRefusedError, match="went away"):
        rt.backend_stats()
    rt.close()
    assert not [p for p in multiprocessing.active_children()
                if p.name.startswith("repro-rank-worker")]
    assert _shm_segments() <= before


# --------------------------------------------------------------------- #
# (e) what the template is
# --------------------------------------------------------------------- #
def test_template_is_single_threaded_and_pinned(ds):
    mine = {v: os.environ.get(v)
            for v in _THREAD_PIN_VARS + ("PYTHONPATH",)}
    algo = _make(ds)
    try:
        (template,) = {w["ppid"] for w in _workers(algo)}
    finally:
        algo.rt.close()
    with open(f"/proc/{template}/status") as fh:
        status = dict(line.split(":", 1) for line in fh)
    assert status["Threads"].strip() == "1"
    with open(f"/proc/{template}/environ", "rb") as fh:
        env = dict(item.split(b"=", 1)
                   for item in fh.read().split(b"\0") if b"=" in item)
    for var in _THREAD_PIN_VARS:
        assert env[var.encode()] == b"1"
    # ... while the driver's own environment is as it was
    assert mine == {v: os.environ.get(v) for v in mine}


# --------------------------------------------------------------------- #
# settings reach a worker through its spec, and only so
# --------------------------------------------------------------------- #
DELAY_S = 1.0


def _observe(ds):
    """One 3-epoch pool; what it shows of the three settings."""
    algo = _make(ds, p=2)
    try:
        t0 = time.monotonic()
        algo.fit(ds.features, ds.labels, epochs=3)
        fit_s = time.monotonic() - t0
        stats = algo.rt.backend_stats()
    finally:
        algo.rt.close()
    return stats, fit_s


def _paranoid(stats, fit_s):
    # 3 per-epoch digests + the batched final one, on each of 2 workers
    return stats["digests_computed"] >= 8


def _sanitized(stats, fit_s):
    return all(w["sanitizer"] is not None
               and w["sanitizer"]["cow_verified"] > 0
               for w in stats["per_worker"])


def _delayed(stats, fit_s):
    return fit_s >= DELAY_S


@pytest.mark.parametrize("var,value,honoured", [
    ("REPRO_PARALLEL_PARANOID", "1", _paranoid),
    ("REPRO_SANITIZE", "1", _sanitized),
    ("REPRO_PARALLEL_FAULTS",
     f"delay:worker=0,epoch=0,seconds={DELAY_S}", _delayed),
])
def test_a_setting_made_after_the_template_reaches_the_next_pool(
        ds, monkeypatch, var, value, honoured):
    monkeypatch.delenv(var, raising=False)
    assert not honoured(*_observe(ds))      # the template exists from here
    monkeypatch.setenv(var, value)
    try:
        assert honoured(*_observe(ds))
    finally:
        monkeypatch.delenv(var)
        sanitize.disable()                  # the driver armed itself too
    assert not honoured(*_observe(ds))


STALE_DRIVER = """
import json
import os

from repro.analysis import sanitize
from repro.dist import make_algorithm
from repro.graph import make_synthetic
from repro.parallel import WorkerDead

if __name__ == "__main__":
    ds = make_synthetic(n=60, avg_degree=4, f=8, n_classes=3, seed=11)

    def pool():
        algo = make_algorithm("1d", 2, ds, hidden=8, seed=0,
                              backend="process", workers=2)
        try:
            algo.fit(ds.features, ds.labels, epochs=3)
            return algo.rt.backend_stats()
        finally:
            algo.rt.close()

    # The template is launched here, with all three in its environment.
    try:
        pool()
        first = "survived"
    except WorkerDead:
        first = "killed"
    for var in ("REPRO_PARALLEL_FAULTS", "REPRO_PARALLEL_PARANOID",
                "REPRO_SANITIZE"):
        del os.environ[var]
    sanitize.disable()
    stats = pool()
    print(json.dumps({"first": first,
                      "digests": stats["digests_computed"],
                      "sanitizers": [w["sanitizer"]
                                     for w in stats["per_worker"]]}))
"""


def test_a_setting_the_template_captured_does_not_outlive_it(tmp_path):
    """The template's environment is the driver's at the first pool,
    forever; a worker that consulted it would keep dying of a fault plan
    the driver has dropped."""
    script = tmp_path / "driver.py"
    script.write_text(textwrap.dedent(STALE_DRIVER))
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_SANITIZE="1",
               REPRO_PARALLEL_PARANOID="1",
               REPRO_PARALLEL_FAULTS="kill:worker=1,epoch=0")
    done = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "first": "killed",          # the plan was live for the first pool
        "digests": 2,               # one batched digest per worker
        "sanitizers": [None, None],
    }
