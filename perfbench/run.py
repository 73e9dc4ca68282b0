"""kanforge benchmark: closed-loop CLI operations, end to end and per layer.

    python3 perfbench/run.py --workload corpus-certify --seed 1 --seconds 25 --trace 0

One client drives the program in a closed loop: each operation is one
in-process call of `kanforge.cli.main(argv)`, started when the previous one
has returned, with stdout and stderr captured and the exit code as verdict.
The loop runs whole cycles over the workload's pool until `--seconds` have
passed, so every input weighs the same. After each operation, outside the
timed region, the written network and certificate are checked against the
scalar oracle (see check.py); a nonzero exit, an exception or a failed check
counts as a failed operation. kanforge is imported from `src/` next to this
directory; numpy/BLAS threads are pinned to 1.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs every operation
twice, untraced and then with spans on kanforge's public functions (see
spans.py), and prints per-layer metrics per operation plus the tracing
overhead. The last stdout line is the JSON result; the lines before it
record the environment, the digest of all net/cert bytes the workload
emitted, and a readable summary.
"""

from __future__ import annotations

import os
import sys

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"
# the CLI lets KANFORGE_SEED override --seed; the benchmark controls all seeds
os.environ.pop("KANFORGE_SEED", None)

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
WARMUP_OPS = 2


def import_program() -> float:
    """Import kanforge from this checkout's `src/`; returns the import time."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import kanforge.cli  # noqa: F401

    elapsed = time.perf_counter() - t0
    if not Path(kanforge.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"kanforge was imported from {kanforge.cli.__file__}, not from {SRC}")
    return elapsed


def git_commit() -> str:
    """HEAD commit read from .git without starting git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy as np
    from kanforge import kernels

    return {
        "kernels.USE_NUMBA": kernels.USE_NUMBA,
        "kernels.HAS_NUMBA": kernels.HAS_NUMBA,
        "KANFORGE_BACKEND": os.environ.get("KANFORGE_BACKEND", "auto"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in _THREAD_VARS},
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


class Runner:
    """Runs one workload's operations and checks their outputs."""

    def __init__(self, workload, seed: int, tracer):
        from kanforge import cli, spline

        self.wl = workload
        self.seed = seed
        self.tracer = tracer
        self.cli = cli
        self.spline = spline
        self.items = []
        self.first: dict[int, str] = {}   # pool index -> sha256 of its first net+cert bytes
        self.failures: list[str] = []

    def setup(self) -> float:
        """Generate the pool, write verify inputs, warm up; returns seconds."""
        import numpy as np

        t0 = time.perf_counter()
        with quiet():
            exprs = self.wl.exprs(np.random.default_rng(self.seed))
            if self.items and exprs != [it.expr for it in self.items]:
                raise RuntimeError("input generation is not deterministic")
            self.items = self.wl.prepare(exprs)
            for item in self.items[:WARMUP_OPS]:
                rc = self.cli.main(self.wl.argv(item))
                if rc != 0:
                    raise RuntimeError(f"warm-up operation on {item.expr!r} exited {rc}")
        return time.perf_counter() - t0

    def op(self, index: int, traced: bool) -> float:
        """One timed operation on pool input `index` and its untimed check;
        returns its latency. A traced operation runs with spans installed."""
        item = self.items[index]
        argv = self.wl.argv(item)
        out = io.StringIO()
        error = None
        oob0 = self.spline.oob_hits()
        if traced:
            self.tracer.install()
        try:
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    rc = self.cli.main(argv)
            except (Exception, SystemExit) as exc:  # a crash is a failed operation
                rc, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
        finally:
            if traced:
                self.tracer.uninstall()
        if traced:
            self.tracer.counters["kernels.oob"] += self.spline.oob_hits() - oob0
        if error is None and rc != 0:
            lines = out.getvalue().strip().splitlines()
            error = f"exit {rc}: {lines[-1] if lines else ''}"
        if error is None:
            try:
                error = self.check(index, item)
            except Exception as exc:  # unreadable or malformed outputs fail the check
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append(f"{item.expr[:80]}: {error}")
        return latency

    def check(self, index: int, item) -> str | None:
        from check import check_outputs, read_outputs

        net, cert = read_outputs(item.prefix)
        digest = hashlib.sha256(net + cert).hexdigest()
        if index not in self.first:
            self.first[index] = digest
            return check_outputs(item.expr, net, cert, seed=self.seed * 1_000_003 + index)
        if digest != self.first[index]:
            return "net/cert bytes differ from this input's first run"
        return None

    def loop(self, seconds: float, trace: bool) -> tuple[list[list[float]], list[float]]:
        """Closed loop over whole pool cycles until `seconds` have passed.

        Returns the untraced latencies per cycle and, with `trace`, the
        latencies of traced reruns: each operation then runs again with
        spans right after its untraced run, so drift in the host's speed
        cancels from the tracing overhead.
        """
        cycles, traced = [], []
        start = time.perf_counter()
        while not cycles or time.perf_counter() - start < seconds:
            cycle = []
            for index in range(len(self.items)):
                cycle.append(self.op(index, traced=False))
                if trace:
                    traced.append(self.op(index, traced=True))
            cycles.append(cycle)
        return cycles, traced

    def digest(self) -> str:
        h = hashlib.sha256()
        for index in range(len(self.items)):
            h.update(self.first[index].encode())
        return h.hexdigest()


@contextlib.contextmanager
def quiet():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        yield


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


def end_to_end(runner, cycles, setup_s) -> tuple[dict, list[str]]:
    latencies = [t for cycle in cycles for t in cycle]
    n = len(latencies)
    pct = runner.wl.sizes.tail_pct
    beyond = n - max(1, math.ceil(pct / 100 * n))
    metrics = {
        # median over pool cycles, so one burst of load on the host does not
        # set the throughput of the whole run
        "ops_per_s": (statistics.median(len(c) / sum(c) for c in cycles), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (percentile(latencies, pct) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"{len(cycles)} cycles of {len(runner.items)} inputs",
        f"op_tail_ms is p{pct} of {n} operations ({beyond} beyond it)",
        f"fail_rate = {len(runner.failures)}/{n} = {len(runner.failures) / n:.6g}",
    ]
    return metrics, notes


def per_layer(tracer, ops: int, traced_wall: float, untraced_wall: float) -> tuple[dict, list[str]]:
    def per_op(v):
        return v / ops

    c = tracer.counters
    m = {}
    for name in ("exprtree.parse_expression", "exprtree.eval_tree_batch", "rangecert.annotate_ranges",
                 "rangecert.verify_ranges_numerically", "primblocks.build_block", "spline.spline_lipschitz",
                 "compiler.compile_tree", "compiler.dead_wire_elimination", "compiler.certify",
                 "kannet.serialize", "kannet.deserialize", "kannet.lipschitz_product",
                 "kannet.KanNetwork.packed", "kernels.forward_batch", "cli.main"):
        m[f"{name}.self_s"] = (per_op(tracer.self_time(name)), "s")
    for name in ("rangecert.annotate_ranges", "primblocks.build_block", "spline.spline_lipschitz",
                 "compiler.certify", "compiler.measured_sup_error", "kannet.serialize",
                 "kannet.lipschitz_product", "kannet.forward_batch", "kannet.jacobian_fd",
                 "kernels.forward_batch"):
        m[f"{name}.calls"] = (per_op(tracer.calls[name]), "count")
    for name in ("exprtree.eval_tree_batch.points", "rangecert.verify_ranges_numerically.points",
                 "compiler.dead_wire_elimination.edges_in", "compiler.dead_wire_elimination.edges_out",
                 "kannet.forward_batch.points", "kernels.edge_evals", "kernels.edges.affine2",
                 "kernels.edges.quad", "kernels.edges.trig_pl", "kernels.edges.pwl", "kernels.oob"):
        m[name] = (per_op(c[name]), "count")
    m["kannet.serialize.bytes"] = (per_op(c["kannet.serialize.bytes"]), "bytes")
    edges_in = c["compiler.dead_wire_elimination.edges_in"]
    m["compiler.dead_wire_elimination.keep_ratio"] = (
        c["compiler.dead_wire_elimination.edges_out"] / edges_in if edges_in else 1.0, "ratio")
    kernel_s = tracer.self_time("kernels.forward_batch")
    m["kernels.edge_evals_per_s"] = (c["kernels.edge_evals"] / kernel_s if kernel_s else 0.0, "1/s")
    m["trace.overhead_ms"] = (per_op(traced_wall - untraced_wall) * 1e3, "ms")
    m["trace.overhead_share"] = ((traced_wall - untraced_wall) / untraced_wall, "ratio")
    # time inside no span below the entry point: CLI glue plus the call itself
    m["trace.uncovered_share"] = ((traced_wall - tracer.child["cli.main"]) / traced_wall, "ratio")
    notes = [
        f"traced {ops} operations: {traced_wall:.3f} s traced vs {untraced_wall:.3f} s untraced",
        "per-layer counts and self times are per operation",
    ]
    return m, notes


def run(args, workdir: Path, import_s: float) -> int:
    from spans import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    runner = Runner(WORKLOADS[args.workload](str(workdir), args.smoke), args.seed, tracer)
    repeats = 1 if args.smoke else SETUP_REPEATS
    setup_s = import_s + statistics.median(runner.setup() for _ in range(repeats))

    cycles, traced = runner.loop(args.seconds, trace=bool(args.trace))
    untraced = [t for cycle in cycles for t in cycle]
    attempted = len(untraced) + len(traced)
    if args.trace:
        metrics, notes = per_layer(tracer, len(traced), sum(traced), sum(untraced))
    else:
        metrics, notes = end_to_end(runner, cycles, setup_s)

    print("env " + json.dumps(environment(args), sort_keys=True))
    print(f"digest {runner.digest()} ({len(runner.items)} inputs, sha256 of net+cert bytes)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    for failure in runner.failures[:5]:
        print(f"  FAILED {failure}")
    failed = len(runner.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny pools and sample counts (self-test)")
    args = parser.parse_args(argv)
    try:
        import_s = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import kanforge from {SRC}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()


if __name__ == "__main__":
    sys.exit(main())
