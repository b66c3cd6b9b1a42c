"""Tests of the benchmark itself: python -m pytest perfbench"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calibrate  # noqa: E402
import churn  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
import ibltlab.cli  # noqa: E402


def cli_stdout(argv, main=ibltlab.cli.main) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    return buf.getvalue().encode()


def test_single_flipped_byte_counts_as_failure():
    argv = workloads.cli_invocations("bound-curve", 0)[0]
    out = cli_stdout(argv)
    assert workloads.check_cli(argv, 0, out) == []
    for pos in (0, len(out) // 2, len(out) - 2):
        flipped = bytearray(out)
        flipped[pos] ^= 0x01
        tally = run.Tally()
        tally.add(" ".join(argv), workloads.check_cli(argv, 0, bytes(flipped)))
        assert (tally.attempted, tally.failed) == (1, 1)


def test_invariants_hold_without_a_recorded_digest():
    argv = ("simulate", "--n", "20", "--k", "3", "--m", "60", "--trials", "300", "--seed", "7")
    assert " ".join(argv) not in workloads.EXPECTED_SHA256
    out = cli_stdout(argv)
    assert workloads.check_cli(argv, 0, out) == []
    header, row = out.decode().splitlines()
    fields = row.split(",")
    fields[7] = str(int(fields[7]) + 1)  # failures no longer match p_hat
    bad = f"{header}\n{','.join(fields)}\n".encode()
    assert any("p_hat" in p for p in workloads.check_cli(argv, 0, bad))
    assert workloads.check_cli(argv, 1, out) == ["exit code 1"]


def test_oracle_and_bound_checks():
    argv = ("oracle", "3", "2", "2")
    out = cli_stdout(argv)
    assert workloads.check_cli(argv, 0, out) == []
    header, row = out.decode().splitlines()
    fields = row.split(",")
    fields[6] = "0.0"  # bound below the exact probability
    assert workloads.check_cli(argv, 0, f"{header}\n{','.join(fields)}\n".encode())
    argv = ("bound", "--n", "12", "--k", "3", "--breakdown", "--ell", "9")
    out = cli_stdout(argv)
    assert workloads.check_cli(argv, 0, out) == []
    lines = out.decode().splitlines()
    fields = lines[1].split(",")
    fields[7] = repr(float(fields[7]) * 2)  # i=2 term no longer equals p2
    lines[1] = ",".join(fields)
    assert workloads.check_cli(argv, 0, ("\n".join(lines) + "\n").encode())


def test_churn_is_correct_and_deterministic():
    first = churn.run_churn(3, 2000)
    assert first["failed"] == 0
    assert first["attempted"] == 2000 + 1000 + 4000 + 2
    assert churn.run_churn(3, 2000)["digest"] == first["digest"]
    assert churn.run_churn(4, 2000)["digest"] != first["digest"]


def test_traced_calls_return_the_same_bytes_and_restore():
    import ibltlab.simulate

    argvs = [
        ("simulate", "--n", "20", "--k", "3", "--m", "60", "--trials", "200", "--seed", "1"),
        ("bound", "--n", "30", "--k", "3", "--breakdown", "--m", "60"),
        ("oracle", "3", "2", "2"),
    ]
    plain = [cli_stdout(a) for a in argvs]
    original = ibltlab.simulate.run_trials
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        main = tracer.wrap("cli.main", ibltlab.cli.main)
        traced = [cli_stdout(a, main) for a in argvs]
        report = churn.run_churn(5, 500)
    finally:
        tracer.restore()
    assert traced == plain
    assert ibltlab.simulate.run_trials is original
    metrics = tracing.layer_metrics(tracer)
    assert set(metrics) | {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"} == {
        name for name, _, _ in tracing.LAYER_METRICS
    }
    assert metrics["kernel.trials"] == 200
    assert metrics["oracle.states"] == metrics["oracle.peel_fixpoint.calls"] == 3 ** 4
    assert metrics["bounds.terms"] == 19 + 29 + 1
    assert metrics["table.insert.calls"] == 500
    assert metrics["table.list.calls"] == 2
    assert metrics["table.list.recovered"] == 500 + 250
    assert report["failed"] == 0
    for name in ("cli.main", "simulate.run_trials", "bounds.union_bound"):
        calls, seconds, self_seconds = tracer.totals[name]
        assert 0 <= self_seconds <= seconds


def test_cross_backend_check_compares_forced_backend(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "cli_invocations", lambda workload, seed: [("oracle", "3", "2", "2")])
    launcher = run.Launcher(tmp_path, deadline=time.monotonic() + 60)
    tally = run.Tally()
    reference = run.cli_pass(launcher, "oracle-exact", 0, tally)
    result = run.cross_backend_check(launcher, "oracle-exact", 0, reference, ["python"], tally)
    assert result == {"python": "equal"}
    assert (tally.attempted, tally.failed) == (3, 0)


def test_host_clock_pins_one_cpu_samples_and_restores(tmp_path):
    allowed = os.sched_getaffinity(0)
    clock = calibrate.HostClock()
    try:
        assert os.sched_getaffinity(0) == {clock.cpu} and clock.cpu in allowed
        result, scale = clock.measure(lambda: time.sleep(0.3) or "done")
        assert result == "done" and scale > 0 and len(clock.samples) == 1
        launcher = run.Launcher(tmp_path, time.monotonic() + 60, clock)
        rc, out, wall, ref = launcher.run(["-c", "import os; print(len(os.sched_getaffinity(0)))"])
        assert (rc, out) == (0, b"1\n") and wall > 0 and ref > 0
    finally:
        clock.release()
    assert os.sched_getaffinity(0) == allowed


def test_benchmark_json_names_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert per_layer == tracing.LAYER_METRICS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-floor", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
