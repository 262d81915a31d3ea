"""In-memory spans, process-tree resource sampling and layer patching.

Spans are recorded from the benchmark's side only: around the calls the
benchmark makes into a layer, and around a layer's public function while
the benchmark temporarily rebinds it (``Tracer.patched``) for an
in-process pass.  Nothing inside the engine changes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
from collections import defaultdict

_TICK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _stat(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name, or None
    when the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


class ProcTree:
    """The benchmark process and every process it started (Ray's gcs,
    raylet, agents and workers are all descendants of this process),
    read from ``/proc``."""

    def __init__(self):
        self.root = os.getpid()

    def pids(self) -> list[int]:
        children: dict[int, list[int]] = defaultdict(list)
        for name in os.listdir("/proc"):
            if name.isdigit():
                st = _stat(int(name))
                if st is not None and st[0] != "Z":    # skip zombies
                    children[int(st[1])].append(int(name))
        out, todo = [], [self.root]
        while todo:
            pid = todo.pop()
            out.append(pid)
            todo.extend(children.get(pid, ()))
        return out

    def _sum(self, fn) -> float:
        total = 0
        for pid in self.pids():
            st = _stat(pid)
            if st is not None:
                total += fn(st)
        return total

    def cpu_s(self) -> float:
        """User + system CPU seconds of the process tree: each live
        process's own time plus that of its children it has reaped (a
        Ray worker that exits is reaped by the raylet)."""
        return self._sum(lambda st: sum(map(int, st[11:15]))) / _TICK

    def rss_bytes(self) -> int:
        return int(self._sum(lambda st: int(st[21]))) * _PAGE


class RssSampler:
    """Background sampler of the process tree's summed RSS, every
    ``interval_s``; keeps ``(time, bytes)`` samples in memory."""

    def __init__(self, tree: ProcTree, interval_s: float = 0.1):
        self.tree = tree
        self.interval_s = interval_s
        self.samples: list[tuple[float, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(self.interval_s):
            self.samples.append((time.perf_counter(),
                                 self.tree.rss_bytes()))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)

    def cpu_s(self) -> float:
        """CPU seconds the sampler thread itself has used, so a caller
        timing its own process can leave the sampling out."""
        return time.clock_gettime(
            time.pthread_getcpuclockid(self._thread.ident))

    def peak(self, t0: float, t1: float) -> int | None:
        """Peak RSS of the samples in ``[t0, t1)``, None if none."""
        return max((rss for t, rss in self.samples if t0 <= t < t1),
                   default=None)


class Tracer:
    """Spans (name, start, end, parent, run id) and counters, in memory.

    A disabled tracer records nothing, so the same pass code runs traced
    and untraced.  ``tree=True`` spans take CPU time from the whole
    process tree (work done in Ray workers); other spans take it from
    this process only."""

    def __init__(self, run_id: str, enabled: bool = True,
                 tree: ProcTree | None = None):
        self.run_id = run_id
        self.enabled = enabled
        self.tree = tree or ProcTree()
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, tree: bool = False):
        if not self.enabled:
            yield
            return
        cpu = self.tree.cpu_s if tree else time.process_time
        rec = {"name": name, "id": len(self.spans), "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "cpu_start": cpu()}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()
            rec["cpu_end"] = cpu()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name] += value

    def wrap(self, fn, name: str, after=None):
        """``fn`` inside a span; ``after(result, args, kwargs)``, when
        given, records counters from the call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Rebind ``(owner, attr, span name, after)`` targets to
        span-recording wrappers for the duration of the block; always
        restored.  A target the engine no longer has is skipped, and its
        layer reads 0."""
        saved = []
        try:
            if self.enabled:
                for owner, attr, name, after in targets:
                    orig = getattr(owner, attr, None)
                    if orig is None:
                        continue
                    saved.append((owner, attr, orig))
                    setattr(owner, attr, self.wrap(orig, name, after))
            yield
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def self_times(self) -> dict[str, tuple[float, float]]:
        """``{name: (self wall s, self CPU s)}``: each span's duration
        minus what its direct children cover, summed by name."""
        child_wall = defaultdict(float)
        child_cpu = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_wall[s["parent"]] += s["end"] - s["start"]
                child_cpu[s["parent"]] += s["cpu_end"] - s["cpu_start"]
        out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
        for s in self.spans:
            out[s["name"]][0] += s["end"] - s["start"] - child_wall[s["id"]]
            out[s["name"]][1] += (s["cpu_end"] - s["cpu_start"]
                                  - child_cpu[s["id"]])
        return {k: (v[0], v[1]) for k, v in out.items()}

    def total_wall(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (called once, at the end)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
