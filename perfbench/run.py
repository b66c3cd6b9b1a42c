#!/usr/bin/env python3
"""Outside-in benchmark of ibltlab on four named workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc-floor --seed 0 --seconds 28 --trace 0

With ``--trace 0`` every CLI invocation runs as a fresh
``python -m ibltlab`` process with ``PYTHONPATH=src`` in an empty scratch
directory (``HOME`` and ``XDG_CACHE_HOME`` inside it), and table-churn runs
``churn.py`` as one fresh process.  Passes of the workload repeat until
``--seconds`` is spent; ``wall_s`` and the workload rates are medians over
passes.  ``setup_s`` is the median of fresh ``import ibltlab`` launches,
spread through the run because the host's speed drifts over seconds.
Every process runs on one vCPU and its time is scaled to the host's
reference speed (see ``calibrate``); ``*_host_s`` give the unscaled times.

With ``--trace 1`` the same inputs run in this process: untraced, traced
with ``tracer`` wrapped around each module, and untraced again.  The
per-layer metrics come from the traced pass, the tracing overhead is its
wall time minus the mean of the untraced ones, and the traced CSV must
equal the untraced CSV byte for byte.

Every output is checked (see ``workloads.check_cli`` and ``churn.py``).  A
metric table goes to stdout, the run record and spans to
``.perfbench_runs/``, and the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads
from calibrate import HostClock
from workloads import CHURN_KEYS, WORKLOADS, check_cli, cli_invocations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_runs"

SETUP_PER_PASS = 3
# One run must end within 180 s; stop launching work past this point.
RUN_DEADLINE_S = 165.0

# The metrics the last line reports with --trace 0 (BENCHMARK.json's end_to_end).
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")

_RECORD_CODE = """
import json, sys, numpy, ibltlab
print(json.dumps({
    "backend": ibltlab.backend_name,
    "available_backends": ibltlab.available_backends(),
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
}))
"""


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, label, problems, attempted=1, failed=None):
        self.attempted += attempted
        self.failed += (1 if problems else 0) if failed is None else failed
        self.problems += [f"{label}: {p}" for p in problems][: max(0, 20 - len(self.problems))]


class Launcher:
    """Starts fresh interpreters against ``src/``, each in an empty scratch directory.

    With a ``HostClock`` each process runs on the clock's vCPU and its wall
    time is also given at the host's reference speed; without one the two
    are the same.
    """

    def __init__(self, scratch: Path, deadline: float, clock: HostClock | None = None):
        self.scratch = scratch
        self.deadline = deadline
        self.clock = clock

    def run(self, args, extra_env=None):
        """(exit code, stdout bytes, wall seconds, reference seconds) of ``python <args>``."""
        return self.run_many([args], extra_env)[0]

    def run_many(self, arg_lists, extra_env=None):
        """``run`` of each argument list in turn, sharing one reference-speed scale."""

        def work():
            return [self._run(a, extra_env) for a in arg_lists]

        results, scale = self.clock.measure(work) if self.clock else (work(), 1.0)
        return [(rc, out, wall, wall * scale) for rc, out, wall in results]

    def _run(self, args, extra_env):
        box = Path(tempfile.mkdtemp(dir=self.scratch))
        try:
            cwd = box / "cwd"
            cwd.mkdir()
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            env.update(PYTHONPATH=str(SRC), HOME=str(cwd), XDG_CACHE_HOME=str(cwd / ".cache"))
            env.update(extra_env or {})
            with open(box / "stdout", "wb") as out:
                start = time.perf_counter()
                proc = subprocess.Popen(
                    [sys.executable, *args], cwd=cwd, env=env,
                    stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.DEVNULL,
                )
                # wait() without a timeout blocks in waitpid, so the wall
                # time carries no polling delay; the timer enforces the deadline.
                killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
                killer.start()
                try:
                    returncode = proc.wait()
                finally:
                    killer.cancel()
                wall = time.perf_counter() - start
            return returncode, (box / "stdout").read_bytes(), wall
        finally:
            shutil.rmtree(box, ignore_errors=True)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def run_record(workload, seed, info) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        **info,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------- untraced


def cli_pass(launcher, workload, seed, tally, extra_env=None) -> dict:
    """One pass of a workload in fresh processes: per-invocation walls and stdout."""
    invocations = []
    if workload == "table-churn":
        label = "churn.py"
        rc, out, wall, ref = launcher.run(
            [str(HERE / "churn.py"), "--seed", str(seed), "--keys", str(CHURN_KEYS)], extra_env
        )
        try:
            report = json.loads(out.decode().splitlines()[-1]) if rc == 0 else None
        except (ValueError, IndexError):
            report = None
        if report is None:
            tally.add(label, [f"exit code {rc}, no report"])
        else:
            tally.add(label, [f"{report['failed']} failed operations"] if report["failed"] else [],
                      attempted=report["attempted"], failed=report["failed"])
        invocations.append({"argv": ["churn.py"], "rc": rc, "wall": wall, "ref_wall": ref,
                            "report": report, "stdout": out})
    for argv in cli_invocations(workload, seed):
        rc, out, wall, ref = launcher.run(["-m", "ibltlab", *argv], extra_env)
        tally.add(" ".join(argv), check_cli(argv, rc, out))
        invocations.append({"argv": list(argv), "rc": rc, "wall": wall, "ref_wall": ref,
                            "stdout": out})
    return {"wall": sum(i["wall"] for i in invocations),
            "ref_wall": sum(i["ref_wall"] for i in invocations),
            "invocations": invocations}


def workload_rates(workload, passes) -> list[tuple[str, float, str]]:
    """The workload's own end-to-end metrics, each a median over passes."""

    def med(per_pass):
        return statistics.median(per_pass(p) for p in passes)

    def summed(p, kind, weight):
        picked = [i for i in p["invocations"] if i["argv"][0] == kind]
        return sum(weight(i["argv"]) for i in picked) / sum(i["ref_wall"] for i in picked)

    if workload == "mc-floor":
        return [("trials_per_s", med(lambda p: summed(p, "simulate", workloads.simulate_trials)),
                 "trials/s")]
    if workload == "oracle-exact":
        return [("states_per_s", med(lambda p: summed(p, "oracle", workloads.oracle_states)),
                 "states/s")]
    if workload == "table-churn":
        churns = [p["invocations"][0] for p in passes]
        if any(c["report"] is None for c in churns):
            return []
        # The process's phase timings, at the reference speed of the whole process.
        scaled = [({k: c["report"][k] * c["ref_wall"] / c["wall"]
                    for k in ("write_s", "get_s", "list_s")}, c["report"]) for c in churns]
        return [
            ("write_ops_per_s", statistics.median(r["write_ops"] / t["write_s"] for t, r in scaled),
             "ops/s"),
            ("get_ops_per_s", statistics.median(r["get_ops"] / t["get_s"] for t, r in scaled),
             "ops/s"),
            ("list_s", statistics.median(t["list_s"] for t, _ in scaled), "s"),
        ]
    return []


def pass_outputs(p) -> list[bytes]:
    """What a pass produced: CLI stdout, or the digest of table-churn's results."""
    return [
        (i["report"] or {}).get("digest", "").encode() if i["argv"] == ["churn.py"] else i["stdout"]
        for i in p["invocations"]
    ]


def cross_backend_check(launcher, workload, seed, reference, backends, tally) -> dict:
    """Rerun one pass on each other importable backend; outputs must match byte for byte."""
    results = {}
    for name in backends:
        other = cli_pass(launcher, workload, seed, tally, {"IBLTLAB_BACKEND": name})
        same = pass_outputs(other) == pass_outputs(reference)
        tally.add(f"backend {name}", [] if same else ["output differs from the default backend"])
        results[name] = "equal" if same else "differs"
    return results


def untraced_run(workload, seed, seconds, launcher, tally):
    rc, out, _, _ = launcher.run(["-c", _RECORD_CODE])  # also compiles src/ to bytecode
    tally.add("import ibltlab", [] if rc == 0 else [f"exit code {rc}"])
    info = json.loads(out) if rc == 0 else {}

    # The host's speed drifts over seconds, so import launches are spread
    # through the run rather than taken in one burst.
    setup = []
    setup_ref = []
    passes = []
    loop_start = time.monotonic()
    while True:
        for rc, _, wall, ref in launcher.run_many([["-c", "import ibltlab"]] * SETUP_PER_PASS):
            tally.add("import ibltlab", [] if rc == 0 else [f"exit code {rc}"])
            setup.append(wall)
            setup_ref.append(ref)
        passes.append(cli_pass(launcher, workload, seed, tally))
        elapsed = time.monotonic() - loop_start
        per_pass = elapsed / len(passes)
        # Stop when the next pass would end more than a quarter pass past the budget.
        if elapsed + per_pass * 3 / 4 > seconds or time.monotonic() + per_pass > launcher.deadline:
            break

    others = [b for b in info.get("available_backends", []) if b != info.get("backend")]
    if others and time.monotonic() + per_pass * len(others) < launcher.deadline:
        info["cross_backend"] = cross_backend_check(
            launcher, workload, seed, passes[0], others, tally
        )
    else:
        info["cross_backend"] = (
            "skipped: no second backend importable" if not others else "skipped: out of time"
        )

    rows = [
        ("setup_s", statistics.median(setup_ref), "s", len(setup)),
        ("wall_s", statistics.median(p["ref_wall"] for p in passes), "s", len(passes)),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MiB",
         len(passes)),
    ]
    rows += [(name, value, unit, len(passes))
             for name, value, unit in workload_rates(workload, passes)]
    rows += [
        ("setup_host_s", statistics.median(setup), "s", len(setup)),
        ("wall_host_s", statistics.median(p["wall"] for p in passes), "s", len(passes)),
    ]
    detail = [[{k: v for k, v in i.items() if k != "stdout"} for i in p["invocations"]]
              for p in passes]
    return info, rows, {"setup_walls": setup, "setup_ref_walls": setup_ref, "passes": detail,
                        "unit_samples": launcher.clock.samples}


# ------------------------------------------------------------------ traced


@contextlib.contextmanager
def isolated_cwd(scratch: Path):
    """Run in-process calls in an empty directory with HOME and XDG_CACHE_HOME inside it."""
    box = Path(tempfile.mkdtemp(dir=scratch))
    saved_env = {k: os.environ.get(k) for k in ("HOME", "XDG_CACHE_HOME")}
    saved_cwd = os.getcwd()
    os.environ.update(HOME=str(box), XDG_CACHE_HOME=str(box / ".cache"))
    os.chdir(box)
    try:
        yield
    finally:
        os.chdir(saved_cwd)
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        shutil.rmtree(box, ignore_errors=True)


def inprocess_pass(workload, seed, main, churn, scratch, tally, label):
    """(wall seconds, outputs, CSV bytes) of one pass through ``main``/``churn`` here."""
    outputs = []
    csv_bytes = 0
    wall = 0.0
    with isolated_cwd(scratch):
        if workload == "table-churn":
            start = time.perf_counter()
            report = churn(seed, CHURN_KEYS)
            wall += time.perf_counter() - start
            tally.add(f"{label} churn", [f"{report['failed']} failed"] if report["failed"] else [],
                      attempted=report["attempted"], failed=report["failed"])
            outputs.append(report["digest"].encode())
        for argv in cli_invocations(workload, seed):
            buf = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                rc = main(list(argv))
            wall += time.perf_counter() - start
            out = buf.getvalue().encode()
            tally.add(f"{label} {' '.join(argv)}", check_cli(argv, rc, out))
            outputs.append(out)
            csv_bytes += len(out)
    return wall, outputs, csv_bytes


def traced_run(workload, seed, scratch, tally):
    sys.path.insert(0, str(SRC))
    import numpy

    import ibltlab
    import ibltlab.cli
    from churn import run_churn
    from tracer import LAYER_METRICS, Tracer, instrument, layer_metrics

    info = {
        "backend": ibltlab.backend_name,
        "available_backends": ibltlab.available_backends(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }

    def plain_pass():
        return inprocess_pass(workload, seed, ibltlab.cli.main, run_churn, scratch, tally,
                              "untraced")

    # Untraced passes before and after the traced one, so that a drift in
    # the host's speed does not read as tracing overhead.
    before_wall, plain_out, _ = plain_pass()
    tracer = Tracer()
    instrument(tracer)
    try:
        traced_wall, traced_out, csv_bytes = inprocess_pass(
            workload, seed, tracer.wrap("cli.main", ibltlab.cli.main), run_churn,
            scratch, tally, "traced",
        )
    finally:
        tracer.restore()
    after_wall, after_out, _ = plain_pass()
    plain_wall = (before_wall + after_wall) / 2
    tracer.counts["cli.csv_bytes"] = csv_bytes
    same = traced_out == plain_out == after_out
    tally.add("traced output", [] if same else ["traced output differs from the untraced run"])

    metrics = layer_metrics(tracer)
    metrics.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_s": traced_wall - plain_wall,
    })
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    rows = [(name, metrics[name], units[name], 1) for name, _, _ in LAYER_METRICS]
    detail = {
        "traced_output_identical": same,
        "totals": {k: {"calls": v[0], "s": v[1], "self_s": v[2]} for k, v in tracer.totals.items()},
        "counts": dict(tracer.counts),
        "spans": tracer.spans,
    }
    return info, rows, detail


# -------------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0,
                        help="time budget for the repeated passes of --trace 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if not (SRC / "ibltlab" / "__init__.py").is_file():
        print(f"perfbench: no ibltlab package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="scratch-", dir=OUT))
    tally = Tally()
    try:
        if args.trace:
            info, rows, detail = traced_run(args.workload, args.seed, scratch, tally)
        else:
            launcher = Launcher(scratch, deadline, HostClock())
            try:
                info, rows, detail = untraced_run(
                    args.workload, args.seed, args.seconds, launcher, tally
                )
            finally:
                launcher.clock.release()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failed_frac = tally.failed / max(1, tally.attempted)
    record = run_record(args.workload, args.seed, info)

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in record.items() if k not in ("workload", "seed")))
    print(f"{'metric':<36} {'value':>16} {'unit':<9} samples")
    rows.append(("failed_frac", failed_frac, "ratio", tally.attempted))
    for name, value, unit, samples in rows:
        print(f"{name:<36} {value:>16.6g} {unit:<9} {samples}")
    for problem in tally.problems:
        print(f"# FAILED {problem}")

    metrics = {name: {"value": value, "unit": unit, "samples": samples}
               for name, value, unit, samples in rows}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "record": record, "metrics": metrics, "attempted": tally.attempted,
        "failed": tally.failed, "problems": tally.problems, **detail,
    }, indent=1))
    print(f"# record written to {path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows
                    if name in END_TO_END or (args.trace and name != "failed_frac")},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
