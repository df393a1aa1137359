"""Span tracer that wraps levyou's public functions from outside the package.

`Tracer.install()` replaces each function named in TARGETS by a wrapper and
rebinds the wrapper under every name that any `levyou` module holds for the
original, so calls made through `from ... import` bindings (`harness.cdf`,
`cli.sample_path`, ...) are traced as well.  A wrapped call records one span
(id, parent id, name, thread, start, end, counts) in memory; `write_jsonl`
dumps them when the traced pass ends and `layer_metrics` folds them into the
per-layer metrics that BENCHMARK.json names.

A target that the package no longer defines is recorded as absent: its
metrics are reported as None rather than as zero, and nothing fails.

Parents: a span's parent is the innermost open span of its own thread.  A
span opened on a worker thread with nothing open on that thread takes as
parent the innermost open span of the thread that installed the tracer,
which is the thread that submitted the work (the harness submits chunks from
the calling thread and waits for them).
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from pathlib import Path

PACKAGE = "levyou"


def _bound(sig: inspect.Signature, args, kwargs) -> dict:
    ba = sig.bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _count_cli_main(a: dict) -> dict:
    argv = a.get("argv") or sys.argv[1:]
    return {"sub": str(argv[0]) if argv else "?"}


def _count_gathered(a: dict) -> dict:
    x, idx = a["x"], a["idx"]
    # computed: the index array plus the gathered values it reads
    return {"elements": int(idx.size),
            "bytes_computed": int(idx.nbytes + idx.size * x.itemsize)}


def _count_segment_sums(a: dict) -> dict:
    tau, sizes, offsets = a["tau"], a["sizes"], a["offsets"]
    n_out = offsets.size - 1
    # computed: times, sizes and offsets read, one float written per segment
    return {"jumps": int(tau.size), "max_jumps": int(tau.size),
            "bytes_computed": int(tau.nbytes + sizes.nbytes + offsets.nbytes + 8 * n_out)}


def _count_draws(key: str):
    def count(a: dict) -> dict:
        n = a.get(key)
        return {"draws": 1 if n is None else int(n)}
    return count


def _count_path_csv(a: dict) -> dict:
    fh = a["fileobj"]
    # The CLI opens a fresh file per path, so the position after the call is
    # the number of bytes this call wrote.
    return {"rows": int(a["path"].times.size), "bytes": int(fh.tell())}


# (module, function, counter).  A counter maps the bound arguments of one call
# to the counts recorded on its span.
TARGETS = (
    ("levyou.cli", "main", _count_cli_main),
    ("levyou.config", "load_config", None),
    ("levyou.config", "validate_config", None),
    ("levyou.cumulants", "cumulant_table", None),
    ("levyou.edgeworth", "expansion_coefficients", None),
    ("levyou.edgeworth", "density", None),
    ("levyou.edgeworth", "expect", None),
    ("levyou.edgeworth", "cdf", None),
    ("levyou.simulate", "sample_deviation", _count_draws("size")),
    ("levyou.simulate", "sample_path",
     lambda a: {"steps": int(a["n_steps"])}),
    ("levyou.simulate", "write_path_csv", _count_path_csv),
    ("levyou.harness", "run_validation", None),
    ("levyou.harness", "draw_normalized_samples", _count_draws("n")),
    ("levyou.harness", "k_statistics", None),
    ("levyou.harness", "mean_estimator_demo", None),
    ("levyou._kernels", "gathered_central_moments", _count_gathered),
    ("levyou._kernels", "segment_weighted_sums", _count_segment_sums),
    ("levyou._kernels", "path_recursion", lambda a: {"steps": int(a["g1"].size)}),
    ("levyou._kernels", "jump_step_sums", lambda a: {"jumps": int(a["jt"].size)}),
)

# Every per-layer metric the traced run reports, in BENCHMARK.json's order.
PER_LAYER: list[str] = [m["name"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]]


def layer_key(module: str, func: str) -> str:
    """Metric prefix of a target: `levyou._kernels.x` -> `kernels.x`."""
    short = module.split(".", 1)[1].lstrip("_")
    return f"{short}.{func}"


class Tracer:
    """Records spans of the wrapped functions; one instance per traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._rebound: list[tuple] = []  # (module, attribute, original)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_thread = threading.get_ident()
        self._root_stack: list[int] = []
        self._t0 = time.perf_counter()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        """Wrap every target that exists and rebind it across the package."""
        for module, func, counter in TARGETS:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                self.absent.append(layer_key(module, func))
                continue
            orig = getattr(mod, func, None)
            if not callable(orig):
                self.absent.append(layer_key(module, func))
                continue
            wrapper = self._wrap(layer_key(module, func), orig, counter)
            for name, m in list(sys.modules.items()):
                if m is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                    continue
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        self._rebound.append((m, attr, orig))

    def uninstall(self) -> None:
        """Put back every original that install() replaced."""
        for m, attr, orig in reversed(self._rebound):
            setattr(m, attr, orig)
        self._rebound.clear()

    def _wrap(self, name: str, orig, counter):
        sig = inspect.signature(orig) if counter is not None else None
        spans, ids, stack_of, root_stack = self.spans, self._ids, self._stack, self._root_stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            elif stack is not root_stack and root_stack:
                parent = root_stack[-1]
            else:
                parent = 0
            sid = next(ids)
            stack.append(sid)
            t0 = perf()
            try:
                return orig(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                counts = None
                if counter is not None:
                    try:
                        counts = counter(_bound(sig, args, kwargs))
                    except Exception as e:  # a count must never break the traced call
                        counts = {"count_error": repr(e)}
                spans.append((sid, parent, name, threading.get_ident(), t0, t1, counts))

        wrapper.__wrapped__ = orig
        return wrapper

    def write_jsonl(self, path: Path) -> None:
        """One JSON object per span, times in seconds since the tracer started."""
        with Path(path).open("w") as fh:
            for sid, parent, name, tid, t0, t1, counts in self.spans:
                rec = {"id": sid, "parent": parent, "name": name, "thread": tid,
                       "start": t0 - self._t0, "end": t1 - self._t0}
                if counts:
                    rec.update(counts)
                fh.write(json.dumps(rec) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans: list[tuple], absent: list[str], workers: int) -> dict:
    """Fold spans into the PER_LAYER metrics of one pass.

    Values for the process, import and overhead metrics are filled in by the
    caller.  Metrics of an absent target are None.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, name, tid, t0, t1, counts in spans:
        children.setdefault(parent, []).append((t0, t1))
    agg: dict[str, dict[str, float]] = {}

    def add(key: str, dur: float, self_s: float, counts) -> None:
        a = agg.setdefault(key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        a["calls"] += 1
        a["busy_s"] += dur
        a["self_s"] += self_s
        for k, v in (counts or {}).items():
            if not isinstance(v, (int, float)):
                continue
            a[k] = max(a.get(k, 0), v) if k.startswith("max_") else a.get(k, 0) + v

    for sid, parent, name, tid, t0, t1, counts in spans:
        dur = t1 - t0
        self_s = dur - _covered(children.get(sid, []), t0, t1)
        add(name, dur, self_s, counts)
        if name == "cli.main" and counts:
            add(f"cli.main.{counts['sub']}", dur, self_s, None)

    out: dict[str, float | None] = {}
    for metric in PER_LAYER:
        prefix, _, field = metric.rpartition(".")
        if prefix in absent or any(prefix.startswith(a + ".") for a in absent):
            out[metric] = None
        elif metric.startswith(("process.", "trace.")) or metric == "cli.import_s":
            out[metric] = None  # filled in by the caller
        elif metric == "edgeworth.cdf.us_per_call":
            a = agg.get("edgeworth.cdf")
            out[metric] = a["busy_s"] / a["calls"] * 1e6 if a else None
        elif metric == "harness.draw.parallel_eff":
            sd = agg.get("simulate.sample_deviation")
            dn = agg.get("harness.draw_normalized_samples")
            out[metric] = (sd["busy_s"] / (dn["busy_s"] * workers)
                           if sd and dn and dn["busy_s"] > 0 else None)
        else:
            out[metric] = agg.get(prefix, {}).get(field, 0)
    return out
