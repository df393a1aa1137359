"""One fresh process of the benchmark, driven by a JSON job file.

    python3 perfbench/child.py JOB.json

Job modes:
  setup  time `import levyou` plus load_config, the op's overrides and
         validate_config for every op of the workload;
  pass   run every op of the workload through `levyou.cli.main` once, timed
         from the first call to the return of the last, then check outputs.
         With "trace" set, the public functions are wrapped first (see
         tracer.py) and the spans are written to the job's spans file.

The result goes to the job's result file as one JSON object.  `levyou` must
come from the job's `src` directory; any other copy is refused.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads


def _import_levyou(src: Path):
    import levyou

    here = Path(levyou.__file__).resolve()
    if src.resolve() not in here.parents:
        raise SystemExit(f"levyou imported from {here}, not from {src}")
    return levyou


def _resolved_config(op: dict) -> dict:
    from levyou.config import apply_override, load_config, validate_config

    cfg = load_config(op["config"])
    for assignment in op["set"]:
        apply_override(cfg, assignment)
    if op["seed"] is not None:
        cfg["seed"] = op["seed"]
    cfg["workers"] = workloads.WORKERS
    validate_config(cfg)
    return cfg


def setup_probe(job: dict) -> dict:
    t0 = time.perf_counter()
    _import_levyou(Path(job["src"]))
    for op in job["ops"]:
        _resolved_config(op)
    return {"setup_s": time.perf_counter() - t0}


def _call(main, argv: list[str]) -> tuple[int | str, str]:
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as e:  # argparse rejects bad arguments this way
        code = e.code if isinstance(e.code, int) else 1
    except Exception as e:  # an op that raises is a failed op, not a crashed pass
        return f"raised {type(e).__name__}: {e}", err.getvalue() + traceback.format_exc()
    return code, err.getvalue()


def _outcome(op: dict, code, stderr: str, levyou) -> dict:
    known = op["known_defect"]
    if code != 0:
        expected = (known is not None and code == known["exit"]
                    and known["stderr"] in stderr)
        return {"name": op["name"], "ok": False, "known_defect": expected,
                "detail": f"exit {code}: {stderr.strip()[-300:]}"}
    try:
        ok, detail = workloads.CHECKS[op["check"]["kind"]](op, levyou, _resolved_config(op))
    except (OSError, ValueError, KeyError, IndexError) as e:
        ok, detail = False, f"output unreadable: {type(e).__name__}: {e}"
    return {"name": op["name"], "ok": bool(ok), "known_defect": False, "detail": detail}


def run_pass(job: dict) -> dict:
    t_imp = time.perf_counter()
    levyou = _import_levyou(Path(job["src"]))
    import levyou.cli

    import_s = time.perf_counter() - t_imp
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    codes = []
    t0 = time.perf_counter()
    for op in job["ops"]:
        codes.append(_call(levyou.cli.main, op["argv"]))
    wall_s = time.perf_counter() - t0
    ru = resource.getrusage(resource.RUSAGE_SELF)
    import numpy
    import scipy

    out = {
        "wall_s": wall_s,
        "import_s": import_s,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "backend": levyou.BACKEND,
        },
    }
    if tracer is not None:
        # Before the checks, whose own calls into levyou are traced too.
        from tracer import layer_metrics

        layers = layer_metrics(tracer.spans, tracer.absent, job["workers"])
        layers["cli.import_s"] = import_s
        layers["process.cpu_s"] = out["cpu_s"]
        layers["process.peak_rss_mb"] = out["peak_rss_mb"]
        out["layers"] = layers
        out["absent"] = tracer.absent
        out["n_spans"] = len(tracer.spans)
        tracer.write_jsonl(Path(job["spans"]))
    out["ops"] = [_outcome(op, code, err, levyou)
                  for op, (code, err) in zip(job["ops"], codes)]
    return out


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    result = setup_probe(job) if job["mode"] == "setup" else run_pass(job)
    Path(job["result"]).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
