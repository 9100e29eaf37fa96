"""Benchmark of the moran command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload spectrum-recurrent --seed 1 \
        --seconds 40 --trace 0

It imports moran from ./src and drives the public entry point
``moran.cli.main(argv)`` in this one process, with no extra threads. Each
workload (see workloads.py) is a closed loop of CLI operations. Whole
passes, each after its own set-up, repeat while one more as long as the
last still fits in --seconds (there is always at least one), and every
figure is a median over passes. All outputs are checked after the timed
passes, by the benchmark's own code (checks.py). Files go to
.perfbench/<workload>/.

--trace 0 prints the end-to-end metrics. --trace 1 first runs one pass
untraced, then traced passes that wrap every public moran function
(spans.py), and prints the per-layer metrics (layers.py).

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import sys

# Imports of moran compile from source every time, as in a fresh checkout,
# and nothing is written under src/.
sys.dont_write_bytecode = True

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # numpy must not start a thread pool

import argparse
import gc
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import traceback
import typing
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import layers
import spans
from workloads import WORKLOADS, config_text

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


def drop_moran():
    """Forget any earlier import of moran and free it, as a new process would.

    typing caches the annotations of the dropped classes, which would keep
    every earlier import alive, and the dropped modules are cyclic garbage
    that only a full collection frees. Without both, peak memory grows with
    the number of passes, and so with the host's speed.
    """
    for name in [m for m in sys.modules if m == "moran" or m.startswith("moran.")]:
        del sys.modules[name]
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    gc.collect()


def import_moran():
    """A fresh import of moran.cli from ./src."""
    cli = importlib.import_module("moran.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "moran").resolve():
        raise ImportError(f"moran came from {cli.__file__}, not from {SRC}")
    return cli


def call(cli, argv):
    """Run one CLI operation; a traceback is recorded, never raised."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(list(argv))
        except Exception:
            rc, crash = None, traceback.format_exc()
        seconds = perf_counter() - start
    return {
        "argv": list(argv),
        "rc": rc,
        "seconds": seconds,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "traceback": crash,
    }


def set_up(factory, work, seed):
    """Import moran, write the configs and run the warm-up operation."""
    drop_moran()
    start = perf_counter()
    cli = import_moran()
    workload = factory(work, work / "setup", seed)
    (work / "setup").mkdir(parents=True, exist_ok=True)
    for name in workload.systems:
        (work / f"{name}.conf").write_text(config_text(name), encoding="utf-8")
    warmup = call(cli, workload.warmup)
    return cli, perf_counter() - start, warmup


def run_pass(cli, workload, tracer=None):
    records = []
    wall0, cpu0 = perf_counter(), process_time()
    for op in workload.ops:
        span = tracer.open("op", harness=True, label=op.label) if tracer else None
        records.append(call(cli, op.argv))
        if tracer:
            tracer.close(span)
    cpu = process_time() - cpu0
    wall = perf_counter() - wall0
    by_role = {role: 0.0 for role in ("certify", "replay", "plot", "inspect")}
    for op, rec in zip(workload.ops, records):
        by_role[op.role] += rec["seconds"]
    return {
        "records": records,
        "wall_s": sum(rec["seconds"] for rec in records),
        "certify_s": by_role["certify"],
        "replay_s": by_role["replay"],
        "plot_s": by_role["plot"],
        "cpu_s": cpu,
        "pass_wall_s": wall,
    }


def sha256_of(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_pass(workload, result, verdicts):
    """Fill each record's check verdict; returns the failure messages.

    A certificate is hashed first. Its checks run once per distinct
    (operation, exit code, bytes); later passes that reproduce the same
    bytes reuse the verdict, and different bytes fail as nondeterministic.
    """
    failures = []
    for op, rec in zip(workload.ops, result["records"]):
        if rec["traceback"]:
            problem = "traceback: " + rec["traceback"].strip().splitlines()[-1]
        elif op.certificate and rec["rc"] == 0:
            sha = rec["certificate_sha256"] = sha256_of(op.certificate)
            first = verdicts.setdefault(op.label, (sha, _checked(op, rec)))
            problem = first[1] if first[0] == sha else (
                "certificate bytes differ from the first pass"
            )
        else:
            problem = _checked(op, rec)
        rec["check"] = problem
        if problem:
            failures.append(f"{op.label}: {problem}")
    return failures


def _checked(op, rec):
    try:
        return op.check(rec["rc"], rec["stdout"])
    except Exception as exc:
        return f"output unreadable: {exc!r}"


def distinct_differences(cert_path):
    """Distinct positive differences of the top certified level, and pairs."""
    with open(cert_path, encoding="utf-8") as fh:
        top = json.load(fh)["payload"]["levels"][-1]["elements"]
    elems = np.array(sorted(top), dtype=object)
    seen = set()
    for i in range(len(elems) - 1):
        seen.update((elems[i + 1 :] - elems[i]).tolist())
    return len(seen), len(elems) * (len(elems) - 1) // 2


def git_commit():
    """HEAD of a git checkout, or None where the tree is not one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp():
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((SRC / "moran").glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_moran_lines": lines,
    }


def median_of(rows, key):
    return statistics.median(row[key] for row in rows)


def layer_report(traced, baseline, last_pass, tracer_spans):
    """Per-layer metrics: medians over traced passes, plus process figures."""
    per_pass = [layers.metrics(s) for s in tracer_spans]
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    workload, result = last_pass
    distinct, pairs = 0, 0
    for op, rec in zip(workload.ops, result["records"]):
        if op.argv[0] == "spectrum" and rec["check"] is None:
            distinct, pairs = distinct_differences(op.certificate)
    out["spectra.orthogonal.top_distinct"] = distinct
    out["spectra.orthogonal.distinct_ratio"] = distinct / pairs if pairs else 0.0
    out["proc.cpu_s"] = baseline["cpu_s"]
    out["proc.wait_s"] = baseline["pass_wall_s"] - baseline["cpu_s"]
    out["trace.overhead_s"] = median_of(traced, "wall_s") - baseline["wall_s"]
    return out


def per_op_layers(workload, spans_of_pass):
    """Nonzero per-layer figures for each operation of one traced pass."""
    roots = [s for s in spans_of_pass if s["name"] == "op"]
    rows = []
    for op, root in zip(workload.ops, roots):
        figures = layers.metrics(spans.subtree(spans_of_pass, root["id"]))
        rows.append((op.label, {k: v for k, v in figures.items() if v}))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    factory = WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sys.path.insert(0, str(SRC))

    setups = []
    warmups = []
    passes, traced, tracer_spans = [], [], []

    def next_workload():
        out = work / f"pass{len(passes)}"
        out.mkdir()
        return factory(work, out, args.seed)

    tracer = spans.Tracer(layers.HOOKS) if args.trace else None
    baseline = None
    begin = perf_counter()
    # Every pass starts with its own set-up, so the set-up samples spread
    # over the whole run, as the pass samples do. A traced run's first pass
    # is untraced: it is the baseline for trace.overhead_s.
    while True:
        try:
            cli, seconds, warmup = set_up(factory, work, args.seed)
        except ImportError as exc:
            print(f"cannot import moran from {SRC}: {exc}", file=sys.stderr)
            return 2
        setups.append(seconds)
        warmups.append(warmup)
        workload = next_workload()
        if tracer and baseline is None:
            baseline = run_pass(cli, workload)
            passes.append((workload, baseline))
            continue
        if tracer:
            tracer.install()
            root = tracer.open("pass", harness=True)
        result = run_pass(cli, workload, tracer)
        if tracer:
            tracer.close(root)
            tracer.uninstall()
            tracer_spans.append(tracer.take())
            traced.append(result)
        passes.append((workload, result))
        # Start another pass only if one as long as the last still fits.
        if perf_counter() - begin + seconds + result["pass_wall_s"] > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Everything below is untimed: checks, hashes and the report.
    failures = [
        f"warm-up {' '.join(w['argv'])}: exit {w['rc']}"
        for w in warmups
        if w["rc"] != 0
    ]
    verdicts = {}
    for workload, result in passes:
        failures += check_pass(workload, result, verdicts)
    attempted = len(warmups) + sum(len(r["records"]) for _, r in passes)

    if tracer:
        metrics = layer_report(traced, baseline, passes[-1], tracer_spans)
        units = {name: layers.unit(name) for name in metrics}
    else:
        results = [r for _, r in passes]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": median_of(results, "wall_s"),
            "certify_s": median_of(results, "certify_s"),
            "replay_s": median_of(results, "replay_s"),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {name: "s" for name in metrics}
        units["peak_rss_mb"] = "MB"

    info = stamp()
    info.update(workload=args.workload, seed=args.seed, trace=args.trace, passes=len(passes))
    print("stamp: " + json.dumps(info, sort_keys=True))
    shown_workload, shown = passes[-1] if not tracer else passes[0]
    for op, rec in zip(shown_workload.ops, shown["records"]):
        verdict = "ok" if rec.get("check") is None else "FAIL " + rec["check"]
        sha = rec.get("certificate_sha256")
        print(
            f"op {op.label}: {rec['seconds']:.3f} s, exit {rec['rc']}, check {verdict}"
            + (f", sha256 {sha}" if sha else "")
        )
    if tracer:
        for label, figures in per_op_layers(passes[-1][0], tracer_spans[-1]):
            print(f"layers {label}: " + json.dumps(figures, sort_keys=True))
        for problem in tracer.hook_errors[:10]:
            print(f"trace hook error: {problem}")
    for problem in failures:
        print(f"failed: {problem}")
    print(f"failed share: {len(failures)}/{attempted}")

    report = {
        "stamp": info,
        "workload": {
            "why": shown_workload.why,
            "ops": [{"label": op.label, "role": op.role, "why": op.why} for op in shown_workload.ops],
        },
        "setup_s": setups,
        "passes": [
            {
                "traced": bool(tracer) and r is not baseline,
                **{k: v for k, v in r.items() if k != "records"},
                "ops": [
                    {k: v for k, v in rec.items() if k not in ("stdout", "stderr")}
                    for rec in r["records"]
                ],
            }
            for _, r in passes
        ],
        "failures": failures,
        "metrics": metrics,
        "spans": tracer_spans,
    }
    out_file = work / f"result-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1, default=str), encoding="utf-8")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
