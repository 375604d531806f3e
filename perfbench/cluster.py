"""Ray lifecycle for the benchmark: one logical CPU, a fixed object
store, every file inside the checkout, and memory sampled from /proc.

Start-up order matters: the engine's C kernel is compiled on first use
into a path the engine chooses, so `redirect_native_build` runs in this
process and, through Ray's worker set-up hook, in every worker before
any engine code; workers import `fsst_ray` and `perfbench` through
PYTHONPATH, whatever the caller's working directory.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import signal
import sys
import tempfile
import threading
import time
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "_work"

NUM_CPUS = 1
OBJECT_STORE_BYTES = 512 << 20
# Ray's AF_UNIX socket paths are '<temp dir>/session_<63 chars>' and must
# stay under 108 bytes
_MAX_RAY_TEMP = 44
_NATIVE_CACHE_PREFIX = "/tmp/fsst_ray_native_"


def check_environment() -> None:
    """Refuse when engine variables (FSST_*: exchange knobs, the kernel
    override) are set, so the parent and a change run the same program,
    or when the checkout lacks the engine."""
    knobs = sorted(k for k in os.environ if k.startswith("FSST_"))
    if knobs:
        raise SystemExit(f"refusing to run: engine variables set: {knobs}")
    if not (ROOT / "fsst_ray" / "__init__.py").is_file():
        raise SystemExit(f"refusing to run: no fsst_ray package under {ROOT}")


def redirect_native_build() -> None:
    """Make the engine cache its compiled kernel under WORK/native instead
    of /tmp. The build command stays the engine's own."""
    from fsst_ray.kernel import native

    real = native.pathlib
    if getattr(real, "perfbench_shim", False):
        return
    target = str(WORK / "native") + "/"

    def path(p, *rest):
        s = str(p)
        if s.startswith(_NATIVE_CACHE_PREFIX):
            os.makedirs(target, exist_ok=True)
            s = target + s[len("/tmp/"):]
        return real.Path(s, *rest)

    native.pathlib = types.SimpleNamespace(Path=path, perfbench_shim=True)


def setup_worker() -> None:
    """Ray worker_process_setup_hook."""
    redirect_native_build()


def require_native_kernel() -> float:
    """Load (building if needed) the C kernel; never measure the Python
    fallback. Returns the seconds it took."""
    from fsst_ray.kernel import native

    t0 = time.perf_counter()
    if native.get_lib() is None:
        raise SystemExit("refusing to run: the C kernel did not build (is `cc` installed?)")
    return time.perf_counter() - t0


def engine_settings(input_bytes: int) -> dict:
    """The values the engine derives from cluster size (encode_job's
    writer count and ack policy, read_parquet_bundled's block count)."""
    return {
        "num_cpus": NUM_CPUS,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "object_store_mb": OBJECT_STORE_BYTES >> 20,
        "encode_writers": max(2, NUM_CPUS // 2),
        "route_ack": "window" if NUM_CPUS <= 8 else "full",
        "read_blocks": max(2 * NUM_CPUS, -(-input_bytes // (256 << 20))),
    }


class Cluster:
    """One local Ray instance; `close` shuts it down and removes its
    session files."""

    def __init__(self):
        import ray

        short = WORK / "r"
        if len(str(short)) <= _MAX_RAY_TEMP:
            short.mkdir(parents=True, exist_ok=True)
            self.temp_dir, self._own_temp = short, False
            self._remove_sessions(stale_only=True)  # left by killed runs
        else:
            self.temp_dir = pathlib.Path(tempfile.mkdtemp(prefix="pbray"))
            self._own_temp = True
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            _temp_dir=str(self.temp_dir),
            runtime_env={"worker_process_setup_hook": "perfbench.cluster.setup_worker"},
        )
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False

    def close(self) -> list[int]:
        """Shut Ray down and wait for every process it started; returns the
        pids that had to be killed (none when shutdown is clean)."""
        import ray

        ray.shutdown()
        survivors = _wait_descendants(timeout_s=15.0)
        if self._own_temp:
            shutil.rmtree(self.temp_dir, ignore_errors=True)
        else:
            self._remove_sessions()
        return survivors

    def _remove_sessions(self, stale_only: bool = False) -> None:
        for session in self.temp_dir.glob("session_*"):
            # session_<date>_<time>_<pid of the process that started Ray>
            if stale_only and pid_alive(session.name.rsplit("_", 1)[-1]):
                continue
            if session.is_symlink():
                session.unlink()
            else:
                shutil.rmtree(session, ignore_errors=True)


def prepare_process_env() -> None:
    """Environment every process of the run inherits (set before ray.init)."""
    paths = [str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    os.environ.setdefault("POLARS_MAX_THREADS", "1")
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"


def pid_alive(pid: str) -> bool:
    """Whether `pid` (a string, possibly not a number) is a live process."""
    try:
        os.kill(int(pid), 0)
    except (ValueError, ProcessLookupError):
        return False
    except PermissionError:
        pass
    return True


def _children(pid: int) -> list[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as f:
            return [int(x) for x in f.read().split()]
    except OSError:
        return []


def _descendants(pid: int) -> list[int]:
    out, stack = [], _children(pid)
    while stack:
        child = stack.pop()
        out.append(child)
        stack.extend(_children(child))
    return out


def _wait_descendants(timeout_s: float) -> list[int]:
    """Wait for this process's descendants to exit; kill and reap the ones
    still alive after `timeout_s`."""
    deadline = time.monotonic() + timeout_s
    while True:
        for pid in _children(os.getpid()):
            try:
                os.waitpid(pid, os.WNOHANG)  # reap our own exited children
            except ChildProcessError:
                pass
        alive = _descendants(os.getpid())
        if not alive or time.monotonic() > deadline:
            break
        time.sleep(0.1)
    for pid in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in alive:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return alive


def tree_rss_bytes(root_pid: int | None = None) -> int:
    """Summed RSS of a process and all its descendants, from /proc."""
    total = 0
    stack = [root_pid or os.getpid()]
    while stack:
        pid = stack.pop()
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
        except OSError:
            continue
        stack.extend(_children(pid))
    return total


class RssSampler:
    """Background sampler of the process tree's summed RSS; the peak is
    read after `stop`."""

    def __init__(self, interval_s: float = 0.1):
        self.interval_s = interval_s
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.is_set():
            self.peak = max(self.peak, tree_rss_bytes())
            self._stop.wait(self.interval_s)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
        self.peak = max(self.peak, tree_rss_bytes())


def dir_bytes(path: pathlib.Path) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            try:
                total += os.lstat(os.path.join(dirpath, name)).st_size
            except OSError:
                pass
    return total
