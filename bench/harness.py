"""Shared plumbing of the benchmark harness: pinned environment, robust
statistics, the host-calibration probe, process hygiene, result files.

Nothing here imports ``repro`` at module level: :func:`pin_environment`
must run (and possibly re-exec the interpreter) before numpy loads its
BLAS, and the ``--cold`` set-up probes time the imports themselves.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORK_DIR = os.path.join(OUT_DIR, "work")

#: Every process of a run inherits these. Unpinned OpenBLAS threads in
#: the forked pool workers oversubscribe a 2-core host and measure the
#: scheduler (serve_data moved 3x in the sizing runs); an unpinned hash
#: seed reorders set/dict iteration between runs.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def pin_environment() -> None:
    """Pin the BLAS/hash environment for this process and its children.

    ``PYTHONHASHSEED`` only takes effect at interpreter start, so a
    process launched without the pinned values re-executes itself once.
    Temporary files of the program under test are steered into the
    checkout as well (the harness writes nowhere else).
    """
    tmp = os.path.join(WORK_DIR, "tmp")
    wanted = dict(PINNED_ENV, TMPDIR=tmp)
    if all(os.environ.get(k) == v for k, v in wanted.items()):
        os.makedirs(tmp, exist_ok=True)
        return
    os.environ.update(wanted)
    os.makedirs(tmp, exist_ok=True)
    os.execv(sys.executable, [sys.executable] + sys.argv)


def add_src_to_path() -> None:
    """Make ``repro`` importable from the checkout this file sits in;
    exit 2 when the program under test is not there (the harness alone
    has nothing to measure)."""
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"bench: no program to measure: {SRC_DIR}/repro is missing",
              file=sys.stderr)
        raise SystemExit(2)
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
    path = os.environ.get("PYTHONPATH", "")
    if SRC_DIR not in path.split(os.pathsep):
        os.environ["PYTHONPATH"] = (SRC_DIR + os.pathsep + path
                                    if path else SRC_DIR)


# -- statistics ------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))   # ceil
    return float(ordered[int(rank) - 1])


def typical(iterations: list, attr: str) -> float:
    """The typical time of a multi-step iteration (a sweep's rows, a
    gate pass's steps), given one list of :class:`Timed` per iteration:
    the sum over steps of each step's median across iterations. A host
    stall of tens of milliseconds lands in some step of *every*
    iteration, so the median of iteration totals carries it; the
    per-step medians do not."""
    return sum(median(getattr(it[k], attr) for it in iterations)
               for k in range(len(iterations[0])))


def repeats(scale: float) -> int:
    """How many times a run repeats its one-off samples (bring-ups,
    cold launches, restarts): three, or one under ``--quick``."""
    return 3 if scale >= 0.5 else 1


def scaled(base: int, scale: float, floor: int = 1) -> int:
    """An operation count scaled by ``--seconds``/``--quick``; counts
    are fixed per (scale), never derived from elapsed time, so counters
    repeat exactly between runs."""
    return max(floor, int(round(base * scale)))


# -- host calibration ------------------------------------------------------

class Timed(NamedTuple):
    """One timed call: wall seconds as measured, the host factor of its
    window, and the call's return value."""

    raw: float
    factor: float       # host slowness: yardstick time / reference time
    value: object

    @property
    def cal(self) -> float:
        """Host-calibrated seconds: what ``raw`` would have read on a
        host on which the yardstick takes its reference time."""
        return self.raw / self.factor


def stopwatch(fn, *args, **kw) -> Timed:
    """``fn`` timed as measured (factor 1): traced runs and cold
    iterations read raw wall time."""
    t0 = time.perf_counter()
    value = fn(*args, **kw)
    return Timed(time.perf_counter() - t0, 1.0, value)


class Yardstick:
    """A fixed piece of harness work run right before and after every
    timed sample, so each sample is read against the host's speed *in
    its own window*.

    This host's speed moves by 20-60 % for seconds to minutes at a time
    (neighbours; no steal time is reported, CPU time inflates with wall
    time), which no statistic of raw wall times survives: ten identical
    runs spread 10-30 %. End-to-end times are therefore reported in
    host-calibrated units, ``raw / factor`` with ``factor`` the mean of
    the two bracketing probe times over :attr:`REF_MS`; rates are
    multiplied by it. The probe is harness code only — an interpreter
    loop, a dependent walk through a 4 MB permutation (cache and
    memory latency, like the program's object graphs) and 256x256 GEMMs
    — so no change to the program can move it. Raw values are kept in
    every result file next to the calibrated ones.
    """

    #: The probe's time on the reference host, in ms (this host's quiet
    #: regime). Only a scale: it cancels in every A/B comparison.
    REF_MS = 6.5

    def __init__(self):
        import numpy as np

        self._a = np.full((256, 256), 1.0 / 256.0)
        self._perm = np.random.default_rng(1).permutation(
            np.arange(1_000_000, dtype=np.int32))
        self.samples: list = []        # every probe, ms, in order
        self._last = None              # (end time, ms) of the last probe
        for _ in range(4):             # BLAS, allocator, cache warm-up
            self._probe_once()

    def _probe_once(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(40_000):
            acc += i * i & 7
        j, perm = 0, self._perm
        for _ in range(12_000):
            j = perm[j]
        a = self._a
        for _ in range(3):
            a = a @ self._a
        return (time.perf_counter() - t0) * 1e3

    def probe(self) -> float:
        ms = self._probe_once()
        self.samples.append(ms)
        self._last = (time.perf_counter(), ms)
        return ms

    def timed(self, fn, *args, **kw) -> Timed:
        """Run ``fn`` bracketed by probes (the previous probe is reused
        when it ended less than 2 ms ago, so back-to-back samples share
        their boundary probe)."""
        last = self._last
        before = last[1] if last is not None and \
            time.perf_counter() - last[0] < 0.002 else self.probe()
        t0 = time.perf_counter()
        value = fn(*args, **kw)
        raw = time.perf_counter() - t0
        after = self.probe()
        return Timed(raw, (before + after) / 2.0 / self.REF_MS, value)

    def timed_once(self, fn, *args, **kw) -> Timed:
        """:meth:`timed` for a metric that has only a few, long samples
        (a bring-up, a restart): five probes on each side, so the
        factor's own noise does not become the metric's."""
        before = self.calib_ms()
        t0 = time.perf_counter()
        value = fn(*args, **kw)
        raw = time.perf_counter() - t0
        return Timed(raw, (before + self.calib_ms()) / 2.0 / self.REF_MS,
                     value)

    def calib_ms(self) -> float:
        """``host.calib_ms``: median of five fresh probes."""
        return median([self.probe() for _ in range(5)])


# -- processes -------------------------------------------------------------

def descendants(root_pid: int) -> list:
    """Live descendant pids of ``root_pid`` (walks /proc)."""
    parent_of = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        # comm may contain spaces/parens; fields resume after the last ')'
        fields = stat[stat.rindex(b")") + 2:].split()
        if fields[0] == b"Z":
            continue
        parent_of[int(name)] = int(fields[1])
    out = []
    frontier = [root_pid]
    while frontier:
        pid = frontier.pop()
        kids = [p for p, parent in parent_of.items() if parent == pid]
        out.extend(kids)
        frontier.extend(kids)
    return out


class Children:
    """Every subprocess the harness starts, so none can outlive it.

    Daemons get their own session: the pool workers they fork stay in
    that process group, so a daemon that died without reaping them is
    still caught (and killed) by :meth:`reap`.
    """

    def __init__(self):
        self.procs: list = []

    def spawn(self, argv, **kw) -> subprocess.Popen:
        proc = subprocess.Popen(argv, start_new_session=True, **kw)
        self.procs.append(proc)
        return proc

    def reap(self) -> int:
        """Kill whatever is still alive; returns how many processes
        survived the workload's own teardown (each a failed op)."""
        survivors = 0
        for proc in self.procs:
            alive = proc.poll() is None
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except OSError:
                orphans = False     # whole group already gone
            else:
                orphans = not alive  # leader exited, its workers did not
            survivors += alive or orphans
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:   # pragma: no cover
                pass
        self.procs.clear()
        for pid in descendants(os.getpid()):
            survivors += 1
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        return survivors


def tree_peak_rss_mb(root_pid: int) -> float:
    """Largest ``VmHWM`` (peak resident set) among a live process and
    its descendants, read from /proc — for a daemon tree, taken just
    before it is told to stop."""
    peak = 0
    for pid in [root_pid] + descendants(root_pid):
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
                        break
        except OSError:
            continue
    return peak / 1024.0


def peak_rss_mb() -> float:
    """Largest resident set of any process of an in-process workload:
    the harness process (the program runs in it) or any waited-for
    descendant (``ru_maxrss`` of RUSAGE_CHILDREN is the maximum over
    the reaped subtree — forked fabric workers, the cold probes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def cold_probe(yardstick: Yardstick, workload: str, launches: int) -> list:
    """``setup_s`` samples of an in-process workload: a fresh
    interpreter pays start-up, imports and the first (cold) iteration;
    one :class:`Timed` per launch."""
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
            "--cold", workload]
    return [yardstick.timed_once(subprocess.run, argv, check=True,
                                 stdout=subprocess.DEVNULL)
            for _ in range(launches)]


# -- scratch space and result files ----------------------------------------

def fresh_dir(*parts) -> str:
    path = os.path.join(WORK_DIR, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def tree_bytes(root: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(root):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total


def fs_type(path: str) -> str:
    """Filesystem type holding ``path`` (longest /proc/mounts prefix)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                _dev, mount, fstype = line.split()[:3]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def git_rev() -> str | None:
    if not os.path.exists(os.path.join(REPO_ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def conditions(seed: int, scale: float, quick: bool, traced: bool) -> dict:
    """The benchmark conditions recorded in every result file."""
    import numpy

    return {
        "seed": seed,
        "scale": scale,
        "quick": quick,
        "traced": traced,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "env": {k: os.environ.get(k) for k in PINNED_ENV},
        "work_fs": fs_type(WORK_DIR),
        "git_rev": git_rev(),
        "client_threads_max": 2,
    }


def write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


class Ops:
    """Attempted/failed operation tally with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def check(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.fail(reason, count_attempt=False)
        return ok

    def fail(self, reason: str, count_attempt: bool = True) -> None:
        if count_attempt:
            self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)
