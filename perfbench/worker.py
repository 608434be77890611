"""One fresh benchmark process: set up, warm up, then run operations.

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode M

M is "setup" (set up, report ready, exit), "time" (closed loop for S
seconds, stopping at a block boundary) or "trace" (a fixed prefix of the
stream, each block once untraced and once traced).  The worker prints "ready" once
set-up is done, then one JSON line with its results.  Outputs are checked
by the parent process, not here.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import ops as workload_ops  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

# Blocks per second of --seconds in the traced prefix.  Fixed per workload,
# so that the traced operation list, and every count taken from it, is the
# same on every commit; at this rate the two passes take about the run length.
TRACE_BLOCKS_PER_S = {"normalize": 0.5 / 0.075, "verify_numeric": 0.5 / 5.0,
                      "verify_exact": 0.5 / 1.8}
CYCLOTOMIC_MAX = 64
# Enough operations that at least ten latencies lie beyond the 90th percentile.
MIN_OPS = 110


class OpFailed(Exception):
    pass


def qsphere_modules() -> dict:
    from qsphere import algebra, cli, rep, verify
    return {"cli": cli, "verify": verify, "rep": rep, "algebra": algebra}


def set_up(workload: str, tracer: Tracer | None):
    """Import qsphere, build every presentation, fill the cyclotomic cache
    and run the warm-up operations.  Returns the runner and warm-up results."""
    from qsphere import scalar
    modules = qsphere_modules()
    cli, verify = modules["cli"], modules["verify"]
    if tracer is not None:
        tracer.install(modules)
    for kind, n, sphere in workload_ops.presentations(workload):
        (cli.presentation_S if kind == "s" else cli.presentation_Sigma)(n, sphere)
    for d in range(1, CYCLOTOMIC_MAX + 1):
        scalar.cyclotomic(d)

    def run_op(op):
        traced = tracer is not None and tracer.active
        if op.kind == "normalize":
            build = cli.presentation_S if op.algebra == "s" else cli.presentation_Sigma
            p = build(op.n, op.sphere)
            return cli.print_canonical(cli.normalize(cli.parse(op.expr, p), p))
        if op.kind == "lemma_aux":
            p = verify.presentation_Sigma(op.n)
            if traced:
                report = tracer.call("verify.lemma_aux", verify.check_lemma_aux, p, op.m_max)
            else:
                report = verify.check_lemma_aux(p, op.m_max)
            return json.dumps(report.to_json(), sort_keys=True)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = tracer.call("cli.main", cli.main, op.argv()) if traced else cli.main(op.argv())
            except SystemExit as err:
                code = err.code
        if code != 0:
            raise OpFailed(f"exit code {code}")
        return buf.getvalue()

    warm = run_ops(run_op, workload_ops.warmup_ops(workload), new_record(), tracer, "setup")
    if tracer is not None:
        tracer.uninstall()
    return run_op, warm


def new_record() -> dict:
    return {"latencies": [], "outputs": [], "errors": []}


def run_ops(run_op, op_list, record, tracer=None, op_id=None, first=0):
    """Run operations in a closed loop, appending latency, output and error
    to record.  Spans carry op_id, or the operation's position in the stream
    counted from first."""
    for i, op in enumerate(op_list, start=first):
        if tracer is not None:
            tracer.op = op_id if op_id is not None else i
        error = output = None
        t0 = perf_counter()
        try:
            output = run_op(op)
        except Exception as err:  # whatever the program raises counts as a failed operation
            error = f"{type(err).__name__}: {err}"
        record["latencies"].append(perf_counter() - t0)
        record["outputs"].append(output)
        record["errors"].append(error)
    return record


def timed_loop(run_op, workload, seed, seconds):
    """Whole blocks until both the run length and MIN_OPS are reached."""
    record = new_record()
    nblocks = 0
    start = perf_counter()
    for block in workload_ops.blocks(workload, seed):
        run_ops(run_op, block, record)
        nblocks += 1
        if perf_counter() - start >= seconds and len(record["latencies"]) >= MIN_OPS:
            break
    return dict(record, blocks=nblocks)


def traced_passes(run_op, workload, seed, seconds, tracer, trace_path):
    """Run each block of an even-length fixed prefix untraced and traced,
    back to back, alternating which goes first, so that drift in machine
    speed cancels in the overhead ratio."""
    nblocks = 2 * max(1, math.ceil(seconds * TRACE_BLOCKS_PER_S[workload] / 2))
    passes = {False: new_record(), True: new_record()}
    wall = {False: 0.0, True: 0.0}
    tracer.counts.clear()
    first = 0
    for index, block in enumerate(islice(workload_ops.blocks(workload, seed), nblocks)):
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                tracer.install(qsphere_modules())
            t0 = perf_counter()
            run_ops(run_op, block, passes[traced], tracer if traced else None, first=first)
            wall[traced] += perf_counter() - t0
            tracer.uninstall()
        first += len(block)
    metrics = layer_metrics(tracer.spans, tracer.counts)
    metrics["trace.overhead_ratio"] = wall[True] / wall[False]
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path)
    both = {key: passes[False][key] + passes[True][key] for key in passes[False]}
    return dict(both, blocks=nblocks, layers=metrics, spans=len(tracer.spans))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workload_ops.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args()

    tracer = Tracer() if args.mode == "trace" else None
    run_op, warm = set_up(args.workload, tracer)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    if args.mode == "time":
        result = timed_loop(run_op, args.workload, args.seed, args.seconds)
    else:
        result = traced_passes(run_op, args.workload, args.seed, args.seconds, tracer,
                               args.trace_file)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["warmup"] = warm
    import numpy
    import qsphere
    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "qsphere": qsphere.__version__}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
