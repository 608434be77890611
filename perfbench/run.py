"""qsphere benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (closed loop, one client, one process, one BLAS thread):

* normalize      -- parse, normalize and print random words and small sums
                    in S and Sigma at n = 3, sphere reduction on and off;
                    rewriting does almost all the work.
* verify_numeric -- in-process ``qsphere verify --suite <suite> --format json``
                    and ``qsphere rep matrix`` over n in {2, 3}, K up to 8;
                    numeric matrix assembly and dense linear algebra dominate.
* verify_exact   -- ``verify --mode exact --suite relations`` and library
                    ``check_lemma_aux`` at m_max = 12; exact radical arithmetic
                    and long, overlapping rewrites dominate.

Each run starts fresh worker processes (worker.py).  Set-up is timed
SETUP_RUNS times, from process start to the first operation being ready,
and reported as the median.  With --trace 0 the worker runs the operation
stream for --seconds and the end-to-end metrics are printed; with --trace 1
a fixed prefix of the stream runs untraced and then traced, and the
per-layer metrics are printed.  All outputs are checked afterwards by
reference.py, outside the timed region.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import ops as workload_ops  # noqa: E402
import reference  # noqa: E402

SETUP_RUNS = 7
DEADLINE_S = 170.0
BLAS_THREADS = 1

END_TO_END = {  # name -> unit
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "peak_rss_mb": "MB", "success_ratio": "ratio",
}
PER_LAYER = {
    "cli.main_calls": "count", "cli.main_self_s": "s",
    "expr.parse_calls": "count", "expr.parse_s": "s", "expr.print_canonical_s": "s",
    "algebra.presentation_build_s": "s", "algebra.normalize_calls": "count",
    "algebra.normalize_s": "s", "algebra.normalize_self_s": "s",
    "algebra.rewrite_steps": "count", "algebra.steps_per_s": "1/s", "algebra.nf_terms": "count",
    "rep.matrix_calls": "count", "rep.matrix_s": "s", "rep.matrix_entries": "count",
    "rep.matrix_json_s": "s", "rep.apply_element_numeric_s": "s",
    "rep.apply_element_exact_s": "s", "rep.apply_element_calls": "count",
    "scalar.radical_canonicalize_calls": "count", "scalar.radical_canonicalize_s": "s",
    "scalar.qpochhammer_s": "s",
    **{f"verify.{check}_{kind}": "s"
       for check in ("symbolic_relations", "lemma_aux", "relations_in_rep", "lemma_main",
                     "kernel_structure", "lowest_weight_basis")
       for kind in ("s", "self_s")},
    "verify.joint_kernel_dims_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, mode: str, deadline: float, trace_file: Path | None = None):
    """Start a fresh worker; returns (seconds until ready, result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    start = time.perf_counter()
    # Unbuffered, so that reading the "ready" line takes nothing that
    # communicate() would then miss.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, bufsize=0)
    try:
        if not select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))[0]:
            raise BenchError(f"worker ({mode}) passed the deadline")
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ({mode}) passed the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != b"ready" or proc.returncode != 0:
        raise BenchError(f"worker ({mode}) failed with exit code {proc.returncode}")
    if mode == "setup":
        return ready, None
    return ready, json.loads(rest.strip().splitlines()[-1])


def describe(op) -> str:
    if op.kind == "normalize":
        return f"normalize {op.algebra} n={op.n} sphere={op.sphere} {op.expr!r}"
    if op.kind == "lemma_aux":
        return f"check_lemma_aux n={op.n} m_max={op.m_max}"
    return "qsphere " + " ".join(op.argv())


def check_outputs(op_list, outputs, errors) -> list[str]:
    """One reason per rejected operation."""
    failures = []
    for op, output, error in zip(op_list, outputs, errors, strict=True):
        reason = reference.check(op, output, error)
        if reason is not None:
            failures.append(f"{describe(op)}: {reason}")
    return failures


def percentile(sorted_values, share: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(share * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def metadata(args, op_list, result, setups) -> dict:
    lengths = Counter(len(letters) for op in op_list for _, _, letters in op.terms)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "blocks": result["blocks"], "operations": len(op_list),
        "word_length_histogram": dict(sorted(lengths.items())),
        "duplicate_input_share": 1 - len(set(op_list)) / len(op_list),
        "rep_dims": dict(sorted(Counter(op.dim for op in op_list if op.dim).items())),
        "setup_runs_s": setups, "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(), **result["versions"],
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_ops.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "qsphere" / "__init__.py").is_file():
        print(f"error: no qsphere sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        setups = []
        if args.trace:
            trace_file = ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.jsonl"
            _, result = run_worker(args, "trace", deadline, trace_file)
        else:
            setups = [run_worker(args, "setup", deadline)[0] for _ in range(SETUP_RUNS - 1)]
            ready, result = run_worker(args, "time", deadline)
            setups.append(ready)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    timed_ops = workload_ops.first_ops(args.workload, args.seed, result["blocks"])
    passes = 2 if args.trace else 1
    warm_ops = workload_ops.warmup_ops(args.workload)
    warm = result["warmup"]
    failures = check_outputs(warm_ops + timed_ops * passes, warm["outputs"] + result["outputs"],
                             warm["errors"] + result["errors"])
    attempted = len(warm_ops) + len(timed_ops) * passes
    for reason in failures[:10]:
        print(f"failed: {reason}", file=sys.stderr)

    lat = sorted(result["latencies"][:len(timed_ops)])
    p90, beyond = percentile(lat, 0.9)
    meta = metadata(args, timed_ops, result, setups)
    meta.update(samples=len(lat), p90_samples_beyond=beyond, failed=len(failures),
                fail_ratio=len(failures) / attempted)
    if args.trace:
        meta["spans"] = result["spans"]
        meta["trace_file"] = str(trace_file.relative_to(ROOT))
        values = {name: result["layers"][name] for name in PER_LAYER}
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_p90_ms": p90 * 1e3,
            "peak_rss_mb": result["peak_rss_mb"],
            "success_ratio": 1 - len(failures) / attempted,
        }
        units = END_TO_END

    print("meta " + json.dumps(meta, sort_keys=True))
    for name, value in values.items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    print(f"operations {len(lat)}, {beyond} beyond p90, attempted {attempted}, failed {len(failures)}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
