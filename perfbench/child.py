"""One ``magsqueeze`` CLI process of the benchmark, optionally traced.

Usage::

    python3 perfbench/child.py REPORT_JSON MODE -- CLI ARGUMENTS...

MODE is ``run`` (plain CLI run), ``trace`` (CLI run with every public
function of every ``magsqueeze`` module wrapped in a span) or ``setup``
(import the package and load the config named by ``--config``, then exit).
The process writes REPORT_JSON when it ends: the CLOCK_MONOTONIC time at
which the first ``load_config`` call returned, its peak resident set and,
when traced, the spans and counters kept in memory during the run.
``src`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

# Layers of the package, in the order their spans are reported.
MODULES = ("config", "model", "solver", "gaussian", "analysis", "tableio", "cli")


class Tracer:
    """Spans (name, start, end, parent) and call counters, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.stack: list[int] = [-1]
        self.errors: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()

    def record(self, name: str, start: int, end: int) -> None:
        """Add a finished root span measured by the caller."""
        self.name.append(self._id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(-1)

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span(self, name: str, fn):
        """``fn`` wrapped so each call records a span and each escaping exception an error."""
        nid = self._id(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1])
            self.end.append(0)
            self.stack.append(index)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                self.end[index] = clock()
                self.stack.pop()

        return wrapper

    def counted(self, name: str, fn):
        """``fn`` wrapped so each call increments the counter ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def report(self) -> dict:
        return {
            "names": self.names,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "errors": dict(self.errors),
            "counts": dict(self.counts),
        }


def _rebind(original, replacement) -> None:
    """Point every ``magsqueeze`` namespace that holds ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "magsqueeze" or module_name.startswith("magsqueeze.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each layer, CovarianceMatrix validation and brentq."""
    for short in MODULES:
        module = importlib.import_module(f"magsqueeze.{short}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                _rebind(fn, tracer.span(f"{short}.{attr}", fn))

    gaussian = importlib.import_module("magsqueeze.gaussian")
    cls = gaussian.CovarianceMatrix
    cls.__post_init__ = tracer.counted("covariance_validations", cls.__post_init__)

    import scipy.optimize

    brentq = scipy.optimize.brentq
    scipy.optimize.brentq = tracer.counted("brentq", brentq)
    _rebind(brentq, scipy.optimize.brentq)


def peak_rss_mb() -> float:
    """High-water resident set of this process since it was exec'd.

    ``getrusage`` is not used: after a vfork its ``ru_maxrss`` also counts
    the parent's resident set.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    report_path, mode = sys.argv[1], sys.argv[2]
    if sys.argv[3] != "--":
        raise SystemExit("usage: child.py REPORT_JSON run|trace|setup -- CLI ARGUMENTS...")
    argv = sys.argv[4:]
    report: dict = {}

    import_start = time.perf_counter_ns()
    import magsqueeze.cli as cli
    import_end = time.perf_counter_ns()

    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.record("magsqueeze.import", import_start, import_end)
        install(tracer)

    load_config = cli.load_config

    def stamped_load_config(*args, **kwargs):
        config = load_config(*args, **kwargs)
        report.setdefault("setup_done", time.monotonic())
        return config

    cli.load_config = stamped_load_config
    try:
        if mode == "setup":
            cli.load_config(argv[argv.index("--config") + 1])
            return 0
        return cli.main(argv)
    finally:
        report["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            report["trace"] = tracer.report()
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
