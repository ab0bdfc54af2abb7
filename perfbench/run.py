"""Benchmark of the growth command line: one operation is one `growth`
process, spawned and timed from here, one at a time (a closed loop with a
single operation in flight).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 the same loop runs, then one more
operation runs under perfbench/trace_run.py and the JSON object holds the
per-layer metrics instead.  Every output is checked against an oracle and
against the sha256 recorded in perfbench/references.json; an operation
that fails either check counts in error_rate and is not a timing.  Times
are scaled by the machine speed that perfbench/gauge.py measures during
the run (see GAUGE_S).  The lines before the JSON name every metric with
its unit, its value as measured and its sample count.

Run it from the root of a checkout: it imports growth from ./src and
writes only under ./.perfbench_out.
"""

import argparse
import json
import os
import select
import signal
import statistics
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCES = HERE / "references.json"

# The console script `growth` runs growth.cli:main; this runs the same
# function from the source tree.
GROWTH = ("-c", "import sys; from growth.cli import main; sys.exit(main())")
IMPORT = ("-c", "import growth.cli")
GAUGE = (str(HERE / "gauge.py"),)
SETUPS = 11          # timed set-ups per run, after an untimed warm-up
# Seconds that perfbench/gauge.py takes at the reference speed.  Times are
# reported scaled by GAUGE_S / (mean gauge time of the run): on a shared
# machine whose speed drifts by tens of percent over minutes, the scaled
# times move with the program and far less with the machine.
GAUGE_S = 0.15
DEADLINE_S = 170     # a run ends well within the 180 s allowed
CHECKS = ("figure-growth", "figure-wall", "counts", "decgd-counts",
          "conic-g24", "six-point", "flag6", "cover-r4", "properties")


def _env():
    env = dict(os.environ)
    env.pop("GROWTH_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Child:
    """One finished process: wall seconds from spawn to exit, its own CPU
    seconds and peak resident memory from its rusage, and its exit code."""

    def __init__(self, argv, stdout, deadline):
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(OUT / "stderr"), flags,
                    0o644)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv],
                             _env(), file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [],
                                        max(deadline - start, 0.0))
            if not ready:
                os.kill(pid, signal.SIGKILL)
        finally:
            os.close(pidfd)
        # wait4 reports this child's own usage; RUSAGE_CHILDREN would keep
        # the maximum over every child reaped so far
        _, status, usage = os.wait4(pid, 0)
        self.wall = time.perf_counter() - start
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024
        self.code = os.waitstatus_to_exitcode(status)


def forked(fn, *args):
    """fn(*args), computed in a forked process and passed back as JSON; None
    if that process fails.  A spawned child's ru_maxrss includes the peak
    RSS of the process that spawned it, so work that needs memory, such as
    parsing a large output, stays out of this process."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            with os.fdopen(write, "wb") as handle:
                handle.write(json.dumps(fn(*args)).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read, "rb") as handle:
        data = handle.read()
    _, status = os.waitpid(pid, 0)
    return json.loads(data) if status == 0 else None


def _inspect(workload, op, path, expected_digest):
    """(reason the output is wrong or None, its digest)."""
    try:
        output = path.read_bytes()
        got = workloads.digest(workload, output)
        reason = op.check(output)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        return f"unreadable output: {exc!r}", ""
    if reason is None and expected_digest is None:
        reason = "no reference digest for this input"
    elif reason is None and got != expected_digest:
        reason = "output differs from the reference digest"
    return reason, got


class Run:
    """Timings and failures of one benchmark run."""

    def __init__(self, workload, seed, references):
        self.workload = workload
        self.op = workloads.WORKLOADS[workload](seed)
        self.key = " ".join(self.op.args)
        self.expected = references.get(workload, {}).get(self.key)
        self.deadline = time.perf_counter() + DEADLINE_S
        self.setups = []
        self.gauges = []
        self.ops = []
        self.failures = []
        self.attempted = 0
        self.digests = set()

    def operate(self, argv, stdout):
        self.attempted += 1
        child = Child(argv, stdout, self.deadline)
        if child.code != 0:
            reason = f"exit code {child.code}"
        else:
            reason, got = forked(_inspect, self.workload, self.op, stdout,
                                 self.expected) or ("output check failed", "")
            self.digests.add(got)
        if reason:
            self.failures.append(reason)
        return child, reason

    def setup(self):
        child = Child(IMPORT, os.devnull, self.deadline)
        if child.code != 0:
            # the program cannot even be imported: a failed operation
            self.attempted += 1
            self.failures.append(f"set-up exit code {child.code}")
        self.setups.append(child.wall)
        self.gauge()

    def gauge(self):
        self.gauges.append(Child(GAUGE, os.devnull, self.deadline).wall)

    def loop(self, seconds):
        """Operations, one at a time, until `seconds` have passed, with the
        set-ups spread evenly among them and a gauge after every operation
        and set-up, so that all sample the machine over the same stretch of
        time."""
        Child(IMPORT, os.devnull, self.deadline)  # compiles the bytecode
        Child(GAUGE, os.devnull, self.deadline)
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            while len(self.setups) < SETUPS * min(elapsed / seconds, 1):
                self.setup()
            child, reason = self.operate(GROWTH + self.op.args,
                                         OUT / "output")
            if reason is None:
                self.ops.append(child)
            self.gauge()
            if time.perf_counter() - start >= seconds:
                break
        while len(self.setups) < SETUPS:
            self.setup()

    def raw(self):
        """Figures as measured: medians of operation wall and CPU seconds,
        set-up seconds and peak RSS in MB, and the mean gauge seconds."""
        def median(values):
            return statistics.median(values) if values else 0.0

        return {
            "op_s": median([c.wall for c in self.ops]),
            "cpu_s": median([c.cpu for c in self.ops]),
            "setup_s": median(self.setups),
            # the machine's speed switches between two levels, so the
            # median of the gauges would jump between them
            "gauge_s": statistics.fmean(self.gauges) if self.gauges else 0.0,
            "peak_rss_mb": median([c.rss_mb for c in self.ops]),
        }

    def end_to_end(self):
        raw = self.raw()
        scale = GAUGE_S / raw["gauge_s"] if raw["gauge_s"] else 1.0
        return {
            "op_s": (raw["op_s"] * scale, "s"),
            "cpu_s": (raw["cpu_s"] * scale, "s"),
            "setup_s": (raw["setup_s"] * scale, "s"),
            "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(stats, raw):
    """Per-layer metrics from the traced operation's summary."""
    fn = stats["functions"]
    mod = stats["modules"]
    caches = stats["caches"]

    def calls(*names):
        return sum(fn[name]["calls"] for name in names)

    def secs(*names):
        return sum(fn[name]["s"] for name in names)

    def hit_ratio(*names):
        hits = sum(caches[name]["hits"] for name in names)
        return _ratio(hits, hits + sum(caches[n]["misses"] for n in names))

    cross = ("moduli.cross_cgd", "moduli.cross_decgd")
    transport = ("moduli.transport_cgd", "moduli.transport_decgd")
    op_s, setup_s = raw["op_s"], raw["setup_s"]
    m = {
        "partitions.calls": (mod["partitions"]["calls"], "count"),
        "partitions.self_s": (mod["partitions"]["self_s"], "s"),
        "partitions.normalize.calls": (calls("partitions.normalize"),
                                       "count"),
        "partitions.intermediates.calls": (
            calls("partitions.intermediates"), "count"),
        "partitions.contains.calls": (calls("partitions.contains"), "count"),
        "partitions.lr_coefficient.calls": (
            calls("partitions.lr_coefficient"), "count"),
        "partitions.lr.hit_ratio": (
            hit_ratio("partitions._lr2", "partitions._lr_multi"), "ratio"),
        "tableaux.DualClass.of.calls": (calls("tableaux.DualClass.of"),
                                        "count"),
        "tableaux.rshape.calls": (calls("tableaux.rshape"), "count"),
        "tableaux.shuffle.calls": (calls("tableaux.shuffle"), "count"),
        "tableaux.canonical_rep.hit_ratio": (
            hit_ratio("tableaux.canonical_rep"), "ratio"),
        "tableaux.self_s": (mod["tableaux"]["self_s"], "s"),
        "cylgrowth.solve.calls": (calls("cylgrowth._Completion.solve"),
                                  "count"),
        "cylgrowth.solve.s": (secs("cylgrowth._Completion.solve"), "s"),
        "cylgrowth.cgd_validate.calls": (calls("cylgrowth.cgd_validate"),
                                         "count"),
        "cylgrowth.cgd_validate.s": (secs("cylgrowth.cgd_validate"), "s"),
        "cylgrowth.square.calls": (calls("cylgrowth._Completion._square"),
                                   "count"),
        "cylgrowth.passes_per_solve": (
            _ratio(calls("cylgrowth._Completion._glide"),
                   calls("cylgrowth._Completion.solve")), "ratio"),
        "cylgrowth.self_s": (mod["cylgrowth"]["self_s"], "s"),
        "decgd.decgd_enumerate.calls": (calls("decgd.decgd_enumerate"),
                                        "count"),
        "decgd.restrict_cgd.calls": (calls("decgd.restrict_cgd"), "count"),
        "decgd.restrict_cgd.s": (secs("decgd.restrict_cgd"), "s"),
        "decgd.self_s": (mod["decgd"]["self_s"], "s"),
        "moduli.cross.calls": (calls(*cross), "count"),
        "moduli.cross.s": (secs(*cross), "s"),
        "moduli.edge_yield": (_ratio(stats["cover_edges"],
                                     stats["cover_crossings"]), "ratio"),
        "moduli.fiber_enumerations": (stats["fiber_enumerations"], "count"),
        "moduli.transport.calls": (calls(*transport), "count"),
        "moduli.transport.s": (secs(*transport), "s"),
        "moduli.cross_facet.calls": (calls("moduli.cross_facet"), "count"),
        "moduli.export.s": (secs("moduli.export"), "s"),
        "moduli.self_s": (mod["moduli"]["self_s"], "s"),
        "moduli.fiber_count.calls": (calls("moduli.fiber_count"), "count"),
        "moduli.fiber_count.s": (secs("moduli.fiber_count"), "s"),
        "conic.four_point_solve.calls": (calls("conic.four_point_solve"),
                                         "count"),
        "conic.s": (mod["conic"]["s"], "s"),
        "conic.self_s": (mod["conic"]["self_s"], "s"),
    }
    for check in CHECKS:
        name = "checks.check_" + check.replace("-", "_")
        m[f"checks.{check}.s"] = (secs(name), "s")
    m["cli.main.s"] = (secs("cli.main"), "s")
    m["cli.self_s"] = (mod["cli"]["self_s"], "s")
    for name, info in caches.items():
        m[f"{name}.hits"] = (info["hits"], "count")
        m[f"{name}.misses"] = (info["misses"], "count")
    m["trace.overhead"] = (_ratio(secs("cli.main"), op_s - setup_s),
                           "ratio")
    return m


def trace(run):
    """Run one operation under trace_run.py and return its per-layer
    metrics; its output must match the untraced outputs."""
    stats_path = OUT / "trace-stats.json"
    argv = (str(HERE / "trace_run.py"), str(stats_path),
            str(OUT / "trace-spans.bin"), *run.op.args)
    stdout = OUT / "trace-output"
    before = set(run.digests)
    _, reason = run.operate(argv, stdout)
    if reason is not None:
        return None
    if run.digests != before:
        run.failures.append("traced output differs from the untraced one")
        return None
    stats = json.loads(stats_path.read_text())
    return layer_metrics(stats, run.raw())


def _quartiles(values):
    if len(values) < 2:
        return ""
    q = statistics.quantiles(values, n=4)
    return f", quartiles {q[0]:.4f} .. {q[2]:.4f}"


def main(argv=None, references=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "growth" / "cli.py").is_file():
        print(f"error: no growth sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    if references is None:
        references = json.loads(REFERENCES.read_text())
    OUT.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, references)
    run.loop(args.seconds)
    metrics, raw = run.end_to_end(), run.raw()
    print(f"workload {args.workload}, seed {args.seed}: growth {run.key}")
    walls = [c.wall for c in run.ops]
    print(f"gauge_s {raw['gauge_s']:.4f} s  mean of {len(run.gauges)} "
          f"gauges{_quartiles(run.gauges)}; times below are scaled by "
          f"{GAUGE_S} / gauge_s")
    print(f"op_s {metrics['op_s'][0]:.4f} s  measured median "
          f"{raw['op_s']:.4f} s of {len(walls)} operations"
          f"{_quartiles(walls)}")
    print(f"cpu_s {metrics['cpu_s'][0]:.4f} s  measured median "
          f"{raw['cpu_s']:.4f} s of {len(walls)}")
    print(f"setup_s {metrics['setup_s'][0]:.4f} s  measured median "
          f"{raw['setup_s']:.4f} s of {len(run.setups)} set-ups"
          f"{_quartiles(run.setups)}")
    print(f"peak_rss_mb {metrics['peak_rss_mb'][0]:.2f} MB  median of "
          f"{len(walls)}")
    if args.trace:
        metrics = trace(run) or {}
        for name, (value, unit) in metrics.items():
            print(f"{name} {value} {unit}")
    attempted, failed = run.attempted, len(run.failures)
    print(f"error_rate {_ratio(failed, attempted)} ratio  {failed} failed "
          f"of {attempted} attempted")
    for reason in sorted(set(run.failures)):
        print(f"failure: {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
