import contextlib
import csv
import dataclasses
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

from reference import STOPPING_COUNTS_10X10

from ibltlab import cli, simulate
from ibltlab._bits import batch_trials
from ibltlab.simulate import TrialConfig


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_ztable_minimal(invoke_cli):
    code, out, _ = invoke_cli(["ztable", "1", "1"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["ell", "n", "z"]
    assert rows == [["1", "1", "0"]]


def test_ztable_contains_known_value(invoke_cli):
    code, out, _ = invoke_cli(["ztable", "5", "7"])
    assert code == 0
    _, rows = parse_csv(out)
    values = {(r[0], r[1]): r[2] for r in rows}
    assert values[("5", "7")] == "7425"
    assert len(rows) == 35


def test_ztable_bytes_are_pinned(invoke_cli):
    # Every count of the 40x40 rectangle; CI pins the same digest.
    code, out, _ = invoke_cli(["ztable", "40", "40"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d3f51bb919ea75b37c344f98eac777c636e8d33641fc3486ccf87956ab85806e"
    )


def test_ztable_full_rectangle(invoke_cli):
    code, out, _ = invoke_cli(["ztable", "10", "10"])
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 100
    for ell_s, n_s, z_s in rows:
        assert int(z_s) == STOPPING_COUNTS_10X10[int(ell_s) - 1][int(n_s) - 1]


@pytest.mark.parametrize("lmax, nmax", [("0", "3"), ("3", "-1")])
def test_ztable_rejects_nonpositive_sizes(invoke_cli, lmax, nmax):
    code, out, err = invoke_cli(["ztable", lmax, nmax])
    assert (code, out) == (1, "")
    assert "lmax and nmax must be positive" in err


def test_ztable_guard_exit_code(invoke_cli):
    code, out, err = invoke_cli(["ztable", "1000", "1000"])
    assert (code, out) == (2, "")
    assert "guard" in err


def test_ztable_guard_charges_printing(invoke_cli, monkeypatch):
    # str() of a d-digit count takes time quadratic in d: `ztable 90 2000`
    # built its rows in 6.7-13.8 s and spent 9.2-12.3 s in str() of its
    # 180,000 counts, up to 3,909 digits (2-core x86 VM), so the guard
    # refuses it.  Rows of zeros end quickly a run that is admitted anyway.
    monkeypatch.setattr(cli, "stopping_row", lambda ell, n_max: [0] * (n_max + 1))
    code, out, err = invoke_cli(["ztable", "90", "2000"])
    assert (code, out) == (2, "")
    assert "estimated" in err


def test_ztable_refuses_counts_past_the_digit_limit(invoke_cli):
    # count(2, 15000) has 4516 digits; CPython prints at most 4300 by default.
    code, out, err = invoke_cli(["ztable", "2", "15000"])
    assert (code, out) == (2, "")
    assert "digit" in err


def _ztable_peak_bytes(lmax):
    # Written to os.devnull: a StringIO would hold the whole table, and its
    # growth would hide whether the rows are kept.
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert cli.main(["ztable", str(lmax), "300"]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_ztable_peak_memory_does_not_grow_with_lmax():
    # Each census row is dropped once its cells are written, so the peak is
    # one row at any lmax.  Keeping every row in a StoppingCensus peaked at
    # 5.8 times as much at lmax = 40 as at lmax = 4 (1,543 against 268 KiB).
    small, large = _ztable_peak_bytes(4), _ztable_peak_bytes(40)
    assert large < 1.5 * small, (small, large)


def test_bound_summary_row(invoke_cli):
    code, out, _ = invoke_cli(["bound", "--ell", "4", "--n", "2", "--k", "3"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["ell", "n", "k", "bound_raw", "bound_clamped", "p2"]
    row = dict(zip(header, rows[0]))
    assert float(row["bound_raw"]) == 0.015625
    assert float(row["bound_clamped"]) == 0.015625


def test_bound_clamps_at_one(invoke_cli):
    code, out, _ = invoke_cli(["bound", "--ell", "2", "--n", "3", "--k", "1"])
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["bound_raw"]) == 1.75
    assert float(row["bound_clamped"]) == 1.0


def test_bound_total_past_float_range_is_inf(invoke_cli):
    # Every term is finite, but they sum past float range.
    code, out, err = invoke_cli(["bound", "--ell", "2", "--n", "1030", "--k", "1"])
    assert (code, err) == (0, "")
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert (row["bound_raw"], row["bound_clamped"]) == ("inf", "1.0")


def test_bound_with_most_terms_past_float_range_runs(invoke_cli):
    # The cost guard charges each term a bounded-precision pass, and no
    # power: charging the powers of the terms past float range refused this
    # input at an estimated 46.6 s, and it runs in about 0.5 s on a 2-core
    # x86 VM.
    code, out, err = invoke_cli(["bound", "--ell", "2", "--n", "30000", "--k", "3"])
    assert (code, err) == (0, "")
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert (row["bound_raw"], row["bound_clamped"]) == ("inf", "1.0")


def test_bound_accepts_total_cells(invoke_cli):
    code_ell, out_ell, _ = invoke_cli(["bound", "--ell", "4", "--n", "2", "--k", "3"])
    code_m, out_m, _ = invoke_cli(["bound", "--m", "12", "--n", "2", "--k", "3"])
    assert code_ell == code_m == 0
    assert out_ell == out_m


def test_bound_rejects_indivisible_m(invoke_cli):
    code, out, err = invoke_cli(["bound", "--m", "13", "--n", "2", "--k", "3"])
    assert code == 1
    assert "divisible" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--m", "12", "--n", "2", "--k", "0"],  # k is checked before m % k
        ["--m", "12", "--n", "0", "--k", "3"],
    ],
)
def test_bound_rejects_nonpositive_n_and_k(invoke_cli, argv):
    code, out, err = invoke_cli(["bound"] + argv)
    assert (code, out) == (1, "")
    assert "positive" in err


def test_bound_breakdown_bytes_are_pinned(invoke_cli):
    # Fixes all 209 terms; perfbench records the same digest.
    code, out, _ = invoke_cli(
        ["bound", "--n", "210", "--k", "3", "--breakdown", "--m", "840"]
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9e5f1a8a543b4bb0b2554930e7ecfe81a1c19c0eebbada4fe2703a7b8fde9e0f"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["--ell", "5000", "--n", "6000", "--k", "3"],  # census row
        ["--ell", "2", "--n", "10000", "--k", "1" + "0" * 1000],  # term loop
        ["--ell", "2", "--n", "30000", "--k", "1" + "0" * 300],  # many wide terms
        ["--ell", "2", "--n", "1" + "0" * 400, "--k", "3"],  # beyond float range
    ],
)
def test_bound_guard_exit_code(invoke_cli, argv):
    code, out, err = invoke_cli(["bound"] + argv)
    assert (code, out) == (2, "")
    assert "guard" in err


def test_bound_breakdown_size2_term_equals_p2(invoke_cli):
    code, out, _ = invoke_cli(
        ["bound", "--ell", "9", "--n", "12", "--k", "2", "--breakdown"]
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header[-2:] == ["i", "term"]
    assert len(rows) == 11  # i = 2..12
    by_i = {row[6]: row for row in rows}
    assert by_i["2"][7] == by_i["2"][5]  # term string equals p2 string


def test_bound_breakdown_at_one_entry_prints_the_summary(invoke_cli):
    # n = 1 has no term; the summary row still prints, with i and term empty.
    argv = ["bound", "--ell", "3", "--n", "1", "--k", "1"]
    _, plain, _ = invoke_cli(argv)
    code, out, err = invoke_cli(argv + ["--breakdown"])
    assert (code, err) == (0, "")
    assert plain == "ell,n,k,bound_raw,bound_clamped,p2\n3,1,1,0.0,0.0,0.0\n"
    assert out == "ell,n,k,bound_raw,bound_clamped,p2,i,term\n3,1,1,0.0,0.0,0.0,,\n"


# `main` on the child's arguments under a 10 s CPU limit.
_MAIN_UNDER_CPU_LIMIT = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_CPU, (10, 10))\n"
    "from ibltlab.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize("ell, k", [(3, 10**8), (8, 10**12)])
def test_bound_at_one_entry_builds_no_power(capped_python, ell, k):
    # n = 1 has no term, so the guard charges only the census row.  Building
    # ell**k anyway ran past a minute at 3**(10**8), and at 8**(10**12)
    # (about 375 GB) ended in MemoryError under the address cap.
    result = capped_python(
        _MAIN_UNDER_CPU_LIMIT, "bound", "--ell", str(ell), "--n", "1", "--k", str(k)
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines()[1] == f"{ell},1,{k},0.0,0.0,0.0"


def test_bound_builds_no_power_for_terms_below_float_range(capped_python):
    # Both terms at ell = 10**6, n = 3, k = 10**6 round to 0.0, read from
    # the bit lengths of their bracket ends.  Building their powers in full
    # took 59 s on a 2-core x86 VM, past the 30 s budget.
    result = capped_python(
        _MAIN_UNDER_CPU_LIMIT, "bound", "--m", str(10**12), "--n", "3", "--k", str(10**6)
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines()[1] == "1000000,3,1000000,0.0,0.0,0.0"


def test_bound_builds_no_power_for_a_term_that_rounds_to_zero(capped_python):
    # Every term at ell = 3, n = 4, k = 7.8e6 rounds to 0.0.  The power at
    # i = 4, built in full, took 41 s on a 2-core x86 VM, past the 30 s
    # budget.
    result = capped_python(
        _MAIN_UNDER_CPU_LIMIT, "bound", "--ell", "3", "--n", "4", "--k", "7800000"
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines()[1] == "3,4,7800000,0.0,0.0,0.0"


@pytest.mark.parametrize(
    "ell, n, k, row",
    [
        (1048576, 1000, 100, "0.0,0.0,0.0"),
        (3, 5, 10**10, "0.0,0.0,0.0"),
        (1, 3, 10**9, "4.0,1.0,3.0"),  # every power is 1: C(3,2) + C(3,3)
    ],
)
def test_bound_once_refused_for_its_powers_prints_its_row(capped_python, ell, n, k, row):
    # Each was refused (exit 2) while the guard charged every term its
    # power count(ell,i)**k in full; bracketed at bounded precision, each
    # term costs a few dozen multiplications.
    result = capped_python(
        _MAIN_UNDER_CPU_LIMIT, "bound", "--ell", str(ell), "--n", str(n), "--k", str(k)
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines()[1] == f"{ell},{n},{k},{row}"


def test_bound_bytes_where_full_powers_were_slowest(invoke_cli):
    # Its terms' full powers took 11.9 s on a 2-core x86 VM; the bracketed
    # terms print the same bytes.
    code, out, _ = invoke_cli(["bound", "--ell", "7", "--n", "1000", "--k", "280"])
    assert code == 0
    assert out.splitlines()[1] == "7,1000,280,1.0715086071862673e+301,1.0,1.1778345473584718e-231"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "28ebf4cd12b4821cfe52ec48a75686c1de64c92f66102ba7ba1d9a181b2998fb"
    )


def test_simulate_repeatable(invoke_cli):
    argv = ["simulate", "--n", "10", "--k", "2", "--m", "24", "--trials", "3000",
            "--seed", "4"]
    code1, out1, _ = invoke_cli(argv)
    code2, out2, _ = invoke_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_simulate_single_entry(invoke_cli):
    code, out, _ = invoke_cli(
        ["simulate", "--n", "1", "--k", "3", "--m", "9", "--trials", "400"]
    )
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["failures"] == "0"
    assert float(row["p_hat"]) == 0.0


def test_simulate_single_m_runs_with_the_sweep_point_seed(invoke_cli):
    # `--m M` is a one-point sweep: it runs with sweep_point_seed(S, M),
    # while the seed column echoes S.
    from ibltlab._bits import sweep_point_seed

    code, out, _ = invoke_cli(
        ["simulate", "--n", "20", "--k", "3", "--m", "60", "--trials", "3000", "--seed", "7"]
    )
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert (row["failures"], row["seed"]) == ("73", "7")
    cfg = TrialConfig(n=20, m=60, k=3, trials=3000, seed=7)
    assert simulate.run_trials(cfg).failures == 79
    derived = dataclasses.replace(cfg, seed=sweep_point_seed(7, 60))
    assert simulate.run_trials(derived).failures == 73


def test_simulate_workers_byte_identical(invoke_cli, monkeypatch):
    # A point and a sweep, each from a pool of two processes.
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 2)
    for base, rows in (
        (["--n", "24", "--k", "3", "--m", "96", "--trials", "6000", "--seed", "12"], 1),
        (["--n", "32", "--k", "4", "--sweep", "8:80:8", "--b", "16", "--trials", "2000"], 10),
    ):
        serial = invoke_cli(["simulate", *base, "--workers", "1"])
        assert serial == invoke_cli(["simulate", *base, "--workers", "3"])
        assert (serial[0], len(serial[1].splitlines())) == (0, 1 + rows)


def test_simulate_division_path_bytes_are_pinned(invoke_cli, monkeypatch):
    # ell = 280 is no power of two, so the kernel reduces its hashes by
    # division; CI pins the same digest, in-process and from a pool.
    monkeypatch.setattr(simulate, "_cpu_count", lambda: 2)
    argv = ["simulate", "--n", "210", "--k", "3", "--b", "32", "--m", "840",
            "--trials", "12000", "--seed", "0"]
    for workers in ("1", "2"):
        code, out, _ = invoke_cli(argv + ["--workers", workers])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "2a8a43711c7f8b94f48c9e12315b06126790b2646f190fde6a01756696dee013"
        ), workers


def test_simulate_pool_workers_start_with_the_kernel():
    # A pool that records, when it is built, whether the planning process
    # has loaded the kernel; it then runs in-process.  Forked workers start
    # with what the process that forks them has loaded.
    probe = """
import concurrent.futures, sys
from ibltlab import cli, simulate

simulate._cpu_count = lambda: 2
loaded = []


class RecordingPool:
    def __init__(self, max_workers):
        loaded.append("ibltlab._kernels_py" in sys.modules)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, *columns):
        return map(fn, *columns)

    def shutdown(self, wait=True, cancel_futures=False):
        pass


concurrent.futures.ProcessPoolExecutor = RecordingPool
code = cli.main(sys.argv[1:])
print(loaded, file=sys.stderr)
sys.exit(code)
"""
    argv = ["simulate", "--n", "20", "--k", "3", "--m", "60", "--trials", "5000",
            "--workers", "2"]
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv], capture_output=True, text=True
    )
    assert (result.returncode, result.stderr) == (0, "[True]\n")


def test_capped_sweep_from_a_pool_exits_cleanly(capped_python):
    # Each point starts a pool, whose threads reserve malloc arenas that the
    # next point's workers inherit.  Workers that imported numpy themselves
    # then failed to map it under the address cap (exit 3); forked with the
    # kernel already loaded, they map nothing new.
    probe = "from ibltlab import simulate\nsimulate._cpu_count = lambda: 2\n"
    result = capped_python(
        probe + _MAIN_UNDER_CPU_LIMIT, "simulate", "--n", "32", "--k", "4",
        "--sweep", "8:280:8", "--b", "16", "--key-model", "iid", "--trials", "20000",
        "--workers", "2",
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert len(result.stdout.splitlines()) == 36


def test_simulate_one_batch_starts_no_pool():
    # One kernel batch of trials at this shape, so two workers on two CPUs
    # run in-process: no pool starts and no pool module loads.
    probe = (
        "import sys; from ibltlab import cli, simulate; "
        "simulate._cpu_count = lambda: 2; "
        "code = cli.main(sys.argv[1:]); "
        "print([m in sys.modules for m in ('concurrent.futures', 'multiprocessing')], "
        "file=sys.stderr); "
        "sys.exit(code)"
    )
    trials = str(batch_trials(20, 60, 3))
    argv = ["simulate", "--n", "20", "--k", "3", "--m", "60", "--trials", trials]
    serial, parallel = (
        subprocess.run(
            [sys.executable, "-c", probe, *argv, "--workers", workers],
            capture_output=True,
            text=True,
        )
        for workers in ("1", "2")
    )
    assert (serial.returncode, parallel.returncode) == (0, 0)
    assert serial.stdout == parallel.stdout != ""
    assert parallel.stderr == "[False, False]\n"


def test_simulate_at_a_million_lanes_prints_its_bytes_in_little_memory():
    # The partitioned scheme keeps no Python tuple of its k lanes: the
    # kernel draws them as one uint64 column.  Storing the tuple as well
    # peaked at 119 MiB here (66 MiB without it on a 2-core x86 VM).  The
    # command runs in a grandchild, so the child's RUSAGE_CHILDREN peak is
    # that run's alone, not the largest of every child this process ran.
    probe = (
        "import resource, subprocess, sys\n"
        "run = subprocess.run([sys.executable, '-m', 'ibltlab', *sys.argv[1:]],\n"
        "                     stdout=subprocess.PIPE, check=True)\n"
        "sys.stdout.buffer.write(run.stdout)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)\n"
    )
    argv = ["simulate", "--n", "1", "--k", "1000000", "--m", "1000000", "--trials", "1"]
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv], capture_output=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout).hexdigest() == (
        "723fcfe97a7016deef4cf55049cb177359be5c1aa3b54aa488375dedbdf8732e"
    )
    peak_kib = int(result.stderr)
    assert peak_kib < 96 * 1024, f"peaked at {peak_kib} KiB"


def test_simulate_sweep_grid(invoke_cli):
    code, out, _ = invoke_cli(
        ["simulate", "--n", "8", "--k", "3", "--sweep", "24:48:12",
         "--trials", "1000", "--seed", "2"]
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert [row[0] for row in rows] == ["24", "36", "48"]
    assert all(row[1] == str(int(row[0]) // 3) for row in rows)


def test_simulate_verbose_reports_on_stderr_only(invoke_cli):
    argv = ["simulate", "--n", "8", "--k", "3", "--sweep", "24:48:12",
            "--trials", "1000", "--seed", "2"]
    code, quiet, quiet_err = invoke_cli(argv)
    verbose_code, out, err = invoke_cli(argv + ["--verbose"])
    assert code == verbose_code == 0
    assert out == quiet
    assert quiet_err == ""
    header, rows = parse_csv(out)
    failures = header.index("failures")
    assert err.splitlines() == [
        f"m={row[0]}: {row[failures]}/1000 failures" for row in rows
    ]
    assert [row[0] for row in rows] == ["24", "36", "48"]


def test_simulate_ss_scheme_defaults_to_distinct_keys(invoke_cli):
    code, out, _ = invoke_cli(
        ["simulate", "--n", "5", "--k", "2", "--m", "32", "--b", "8",
         "--scheme", "ss-avoiding", "--trials", "500"]
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert dict(zip(header, rows[0]))["scheme"] == "ss-avoiding"


def test_simulate_rejects_bad_config(invoke_cli):
    for flags, message in (
        (["--m", "10"], "divisible"),
        (["--sweep", "30:40"], "expects start:stop:step"),
        (["--sweep", "a:b:c"], "expects start:stop:step"),
        (["--sweep", "40:30:5"], "bad sweep grid"),
        (["--sweep", "30:60:0"], "bad sweep grid"),
        (["--m", "30", "--seed", "-1"], "64-bit"),
        (["--m", "30", "--seed", str(2**64)], "64-bit"),
    ):
        code, out, err = invoke_cli(
            ["simulate", "--n", "5", "--k", "3", "--trials", "10", *flags]
        )
        assert (code, out) == (1, ""), flags
        assert message in err, flags


def test_simulate_checks_every_sweep_point_first(invoke_cli):
    code, out, err = invoke_cli(
        ["simulate", "--n", "5", "--k", "3", "--sweep", "30:40:5", "--trials", "10"]
    )
    assert (code, out) == (1, "")
    assert "divisible" in err
    # m = 30 is cheap; m = 15000 puts the bound over budget.
    code, out, err = invoke_cli(
        ["simulate", "--n", "6000", "--k", "3", "--sweep", "30:15000:14970",
         "--trials", "10"]
    )
    assert (code, out) == (2, "")
    assert "guard" in err


@pytest.mark.parametrize(
    "grid", [["--m", "4000000000"], ["--sweep", "30:4000000000:3999999970"]]
)
def test_simulate_guards_trial_memory(invoke_cli, grid):
    code, out, err = invoke_cli(
        ["simulate", "--n", "5", "--k", "1", "--b", "64", "--trials", "1"] + grid
    )
    assert (code, out) == (2, "")
    assert "guard" in err


@pytest.mark.parametrize("stop", ["4000000000", "1" + "0" * 30])
def test_simulate_refuses_a_sweep_of_too_many_points(capped_python, stop):
    # The grid stays a range: listing its 4e9 points would exhaust memory
    # (MemoryError and exit 3 under the cap), and its length can pass
    # sys.maxsize.
    script = "import sys; from ibltlab.cli import main; sys.exit(main(sys.argv[1:]))"
    result = capped_python(
        script, "simulate", "--n", "5", "--k", "1", "--b", "64", "--trials", "1",
        "--sweep", f"30:{stop}:1",
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert "guard" in result.stderr


def test_simulate_guards_trial_time(invoke_cli, monkeypatch):
    # 10**9 trials at the paper's shape would run for hours: at least
    # trials * (m + 2*n*k) units of work, refused before any trial runs.
    from ibltlab import _kernels_py

    calls = []
    monkeypatch.setattr(
        _kernels_py, "run_trials", lambda *a, **kw: calls.append(a) or (0, 0, 0)
    )
    code, out, err = invoke_cli(
        ["simulate", "--n", "210", "--k", "3", "--m", "768", "--trials", "1000000000"]
    )
    assert (code, out, calls) == (2, "", [])
    assert "guard" in err


def test_simulate_time_guard_ignores_the_cpu_count(invoke_cli, monkeypatch):
    # Two workers at 10**6 trials of the paper's shape pass the one work
    # budget before any trial runs, whether one CPU or two could run them.
    argv = ["simulate", "--n", "210", "--k", "3", "--m", "768", "--trials", "1000000",
            "--workers", "2"]
    results = []
    for cpus in (1, 2):
        monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
        results.append(invoke_cli(argv))
    assert results[0] == results[1]
    code, out, err = results[0]
    assert (code, out) == (2, "")
    assert "need at least" in err


def test_simulate_time_guard_follows_the_load(invoke_cli, monkeypatch):
    # The meter counts peeling rounds, so a trial near the peeling
    # threshold (load 0.82 at k = 3) meters over ten times the work of one
    # at the paper's shape (load 0.27).  With a budget between the two,
    # the paper's shape runs and the threshold shape exits 2, printing
    # nothing.
    def work(n, trials=1150):
        return simulate.run_trials(TrialConfig(n=n, m=768, k=3, trials=trials)).work

    paper = work(210)
    assert work(628, trials=230) * 5 > 10 * paper
    # 200,000 trials at the paper's shape, about 174 times the work of
    # 1,150 trials, fit in half the real budget.
    assert 174 * paper < simulate.TRIAL_WORK_BUDGET / 2
    monkeypatch.setattr(simulate, "TRIAL_WORK_BUDGET", 2 * paper)
    argv = ["simulate", "--k", "3", "--m", "768", "--trials", "1150", "--n"]
    code, out, err = invoke_cli(argv + ["210"])
    assert (code, err) == (0, "")
    assert out.startswith("m,ell,n,k,")
    code, out, err = invoke_cli(argv + ["628"])
    assert (code, out) == (2, "")
    assert "guard" in err and "passed the budget" in err


def test_simulate_guards_distinct_key_replay(invoke_cli, monkeypatch):
    # 4096 distinct keys out of 2**12 repeat in every trial's vector draw,
    # so each trial replays about 2**12 ln 2**12 key candidates one at a
    # time.  The meter stops the first replay that passes the budget.
    from ibltlab import _kernels_py

    calls = []
    kernel = _kernels_py.run_trials
    monkeypatch.setattr(
        _kernels_py, "run_trials", lambda *a, **kw: calls.append(a) or kernel(*a, **kw)
    )
    monkeypatch.setattr(simulate, "TRIAL_WORK_BUDGET", 10**6)
    code, out, err = invoke_cli(
        ["simulate", "--n", "4096", "--k", "3", "--b", "12", "--m", "48",
         "--scheme", "ss-avoiding", "--trials", "20"]
    )
    assert (code, out, len(calls)) == (2, "", 1)
    assert "guard" in err


@pytest.mark.parametrize("verbose", [[], ["--verbose"]])
def test_simulate_sweep_stopped_by_the_meter_prints_no_rows(invoke_cli, monkeypatch, verbose):
    # The first point fits the budget and runs; the second passes it
    # while running.  No header or row reaches stdout, and --verbose
    # still reports the first point on stderr.
    base = TrialConfig(n=20, m=60, k=3, trials=1000, seed=2)
    first, second = simulate.sweep(base, [60, 600])
    least = base.trials * (600 + 2 * 20 * 3)
    budget = max(first.work, least)
    assert budget < second.work
    monkeypatch.setattr(simulate, "TRIAL_WORK_BUDGET", budget)
    code, out, err = invoke_cli(
        ["simulate", "--n", "20", "--k", "3", "--sweep", "60:600:540",
         "--trials", "1000", "--seed", "2"] + verbose
    )
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    progress = [line for line in err.splitlines() if line.startswith("m=")]
    expected = [f"m=60: {first.failures}/1000 failures"] if verbose else []
    assert progress == expected
    assert "resource guard" in err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_simulate_rejects_nonpositive_workers(invoke_cli, workers):
    code, out, err = invoke_cli(
        ["simulate", "--n", "5", "--k", "3", "--m", "30", "--trials", "10",
         "--workers", workers]
    )
    assert (code, out) == (1, "")
    assert "workers" in err


def test_simulate_rejects_iid_with_ss(invoke_cli):
    code, _, err = invoke_cli(
        ["simulate", "--n", "5", "--k", "2", "--m", "32", "--b", "8",
         "--scheme", "ss-avoiding", "--key-model", "iid", "--trials", "10"]
    )
    assert code == 1
    assert "distinct" in err


def test_oracle_rows(invoke_cli):
    code, out, _ = invoke_cli(["oracle", "2", "2", "1"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["ell", "n", "k", "exact_num", "exact_den", "exact_float",
                      "bound_clamped"]
    row = dict(zip(header, rows[0]))
    assert (row["exact_num"], row["exact_den"]) == ("1", "2")
    assert float(row["exact_float"]) == 0.5
    assert float(row["exact_float"]) <= float(row["bound_clamped"])


def test_oracle_certain_failure(invoke_cli):
    code, out, _ = invoke_cli(["oracle", "1", "2", "1"])
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][3:5] == ["1", "1"]


def test_oracle_dominated_by_bound_on_small_grid(invoke_cli):
    for ell, n, k in [(2, 2, 1), (2, 3, 2), (3, 2, 2), (3, 3, 1)]:
        code, out, _ = invoke_cli(["oracle", str(ell), str(n), str(k)])
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["exact_float"]) <= float(row["bound_clamped"]) + 1e-15


def test_oracle_guard_exit_code(invoke_cli):
    code, _, err = invoke_cli(["oracle", "10", "4", "2"])
    assert code == 2
    assert "guard" in err


def test_oracle_guard_refuses_past_the_digit_limit(invoke_cli):
    code, out, err = invoke_cli(["oracle", "2", "3000", "3000"])
    assert (code, out) == (2, "")
    assert "2**9000000 state matrices" in err


def test_oracle_bound_guard_refuses_before_enumerating(invoke_cli, monkeypatch):
    # One state of 10**6 placements passes the state guard; the union
    # bound's cost guard refuses it (its census row alone is estimated at
    # over two minutes).
    calls = []
    monkeypatch.setattr(cli, "exact_failure_probability", lambda *a, **kw: calls.append(a))
    code, out, err = invoke_cli(["oracle", "1", "1000000", "1"])
    assert (code, out, calls) == (2, "", [])
    assert "union bound" in err
    # Usage errors still come first.
    for argv in (["1", "1000000", "0"], ["0", "1000000", "1"]):
        assert invoke_cli(["oracle", *argv])[:2] == (1, "")
    assert calls == []


def test_oracle_enumerates_through_the_cli_name(invoke_cli, monkeypatch):
    # perfbench's tracer times the enumeration by replacing
    # cli.exact_failure_probability, so `oracle` must call it there, once.
    argv = ["oracle", "3", "2", "2"]
    unpatched = invoke_cli(argv)
    assert unpatched[0] == 0
    calls = []
    enumerate_states = cli.exact_failure_probability

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return enumerate_states(*args, **kwargs)

    monkeypatch.setattr(cli, "exact_failure_probability", counted)
    assert invoke_cli(argv) == unpatched
    assert len(calls) == 1


def test_oracle_guard_counts_the_placements_at_ell_one(invoke_cli, monkeypatch):
    # One state of 1.31e8 placements would take about a minute and 5 GB to
    # build; the union bound's cost guard sees no terms at n = 1.
    calls = []
    monkeypatch.setattr(cli, "exact_failure_probability", lambda *a, **kw: calls.append(a))
    code, out, err = invoke_cli(["oracle", "1", "1", "131000000"])
    assert (code, out, calls) == (2, "", [])
    assert "placements" in err


def test_oracle_bytes_are_pinned(invoke_cli):
    # perfbench and CI record the same digests for `oracle 3 4 3` and
    # `oracle 4 3 3`; CI also pins `oracle 5 4 2` (3577/15625), where each
    # state's head, the blocks before its last, is one block, and `oracle
    # 8 6 1` (3781/4096), whose 262,144 distinct blocks run past the block
    # memo's cap.
    pinned = {
        "3 4 3": "d3b425ece4b7ca5f8c6df42d28f1b61145ffce8354c57bd1c76f2c129e392ad4",
        "4 3 3": "b41fec45de0157205382ceeb72d0804cee4db3b854c738d437dce120b45c6b39",
        "5 4 2": "2e6776d75e6cb480a21259f2a3f02a6691d85247ad9f0e40167e3d14f49651cc",
        "8 6 1": "2d1dff8bc87d669b1163b3ad38db1fa79e6acaad190b04b2c269d25cd25732da",
    }
    for shape, digest in pinned.items():
        code, out, _ = invoke_cli(["oracle", *shape.split()])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, shape


def test_oracle_takes_no_guard_option(capsys):
    # The state guard is a fixed budget, so --guard is an unknown option.
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["oracle", "2", "2", "2", "--guard", "5"])
    assert excinfo.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --guard 5" in err


def test_usage_errors_exit_one(invoke_cli):
    with pytest.raises(SystemExit) as excinfo:
        invoke_cli(["nonsense"])
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        invoke_cli(["bound", "--n", "2", "--k", "1"])  # missing --ell/--m
    assert excinfo.value.code == 1


def test_csv_floats_roundtrip(invoke_cli):
    code, out, _ = invoke_cli(["bound", "--ell", "7", "--n", "9", "--k", "2"])
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    for column in ("bound_raw", "bound_clamped", "p2"):
        assert repr(float(row[column])) == row[column]


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="digests of CPython 3.11's argparse layout"
)
@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--help"], "db647667ba977daabc79f6642db032b767ff6f77e37736df2a1afede6a01da0b"),
        (
            ["simulate", "--help"],
            "e3744dfe35a83cd2e776610ccd4ccd9a8fbf8e70a1d441d182237d608870cce6",
        ),
    ],
)
def test_help_text_is_pinned(argv, digest):
    # The scheme and key-model choices are literals in cli, so the parser
    # is built without loading hashing or simulate; the help stays the same.
    out = subprocess.run(
        [sys.executable, "-m", "ibltlab", *argv],
        capture_output=True,
        env={**os.environ, "COLUMNS": "80"},
        check=True,
    )
    assert hashlib.sha256(out.stdout).hexdigest() == digest


def test_literal_choices_are_the_enum_values():
    # cli spells the choices out so that `bound` and `ztable` never load
    # hashing; they must still name every member, default first.
    assert sorted(cli.SCHEMES) == sorted(kind.value for kind in simulate.HashKind)
    assert sorted(cli.KEY_MODELS) == sorted(model.value for model in simulate.KeyModel)
    assert cli.SCHEMES[0] == simulate.HashKind.PARTITIONED_UNIFORM.value


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "ibltlab", "ztable", "2", "2"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == "ell,n,z"


# A child that runs the package as ``python -m ibltlab`` does, with an atexit
# hook that reports on stderr how many objects the collector holds frozen
# once the command has run.  Registered first, the hook runs last.
_ENTRY_CHILD = (
    "import atexit, gc, os, runpy\n"
    "atexit.register(lambda: os.write(2, b'frozen %d\\n' % gc.get_freeze_count()))\n"
    "runpy.run_module('ibltlab', run_name='__main__', alter_sys=True)\n"
)


def run_entry(capped_python, *argv):
    """(exit code, stdout, stderr before the hook's line, frozen objects)."""
    result = capped_python(_ENTRY_CHILD, *argv)
    *messages, hook = result.stderr.splitlines()
    label, frozen = hook.split()
    assert label == "frozen", result.stderr
    return result.returncode, result.stdout, "\n".join(messages), int(frozen)


def test_program_entry_freezes_the_collector_once_the_command_has_run(
    capped_python, invoke_cli
):
    argv = ["bound", "--ell", "280", "--n", "320", "--k", "3"]
    code, out, err, frozen = run_entry(capped_python, *argv)
    assert (code, err) == (0, "")
    assert frozen > 0
    assert out == invoke_cli(argv)[1]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ea36437f8c98a887ce8888051a0ecae3e475e61c712d180d466ea6afdfdf19b1"
    )


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["bound", "--n", "2", "--k", "1"], 1, "one of the arguments --ell --m is required"),
        (["oracle", "8", "4", "2"], 2, "ibltlab: resource guard:"),
    ],
)
def test_program_entry_refuses_with_empty_stdout(capped_python, argv, code, message):
    # A usage error leaves main through SystemExit, a refusal through its
    # return value; the entry freezes the collector after either.
    exit_code, out, err, frozen = run_entry(capped_python, *argv)
    assert (exit_code, out) == (code, "")
    assert message in err
    assert frozen > 0


def test_only_the_program_entry_freezes_the_collector(invoke_cli, monkeypatch, capsys):
    frozen = gc.get_freeze_count()
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    assert invoke_cli(["bound", "--ell", "7", "--n", "9", "--k", "2"])[0] == 0
    assert invoke_cli(["oracle", "8", "4", "2"])[0] == 2
    with pytest.raises(SystemExit):
        invoke_cli(["nonsense"])
    assert (calls, gc.get_freeze_count()) == ([], frozen)
    monkeypatch.setattr(sys, "argv", ["ibltlab", "oracle", "8", "4", "2"])
    assert cli.run() == 2
    assert calls == ["freeze"]
    assert capsys.readouterr().out == ""


# ROADMAP item 18's contract fuzz.  Its integers: the edges of every guard
# and type, powers of two and their neighbours, the paper's ell, and a few
# orders of magnitude up to past 64 bits.
_CONTRACT_VALUES = (
    -1, 0, 1, 2, 3, 4, 7, 8, 16, 31, 32, 63, 64, 65, 256, 280, 1000,
    10**6, 10**12, 2**64 - 1, 2**64,
)


def contract_cases(seed, count):
    """``count`` seeded argvs over the four subcommands, each integer drawn
    from ``_CONTRACT_VALUES`` and ``--workers`` at most 2."""
    rng = random.Random(seed)

    def value():
        return str(rng.choice(_CONTRACT_VALUES))

    cases = []
    for _ in range(count):
        command = rng.choice(("ztable", "bound", "simulate", "oracle"))
        if command == "ztable":
            argv = [value(), value()]
        elif command == "oracle":
            argv = [value(), value(), value()]
        elif command == "bound":
            argv = [rng.choice(("--ell", "--m")), value(), "--n", value(), "--k", value()]
            argv += ["--breakdown"] * rng.randrange(2)
        else:
            argv = ["--n", value(), "--k", value()]
            if rng.randrange(2):
                argv += ["--m", value()]
            else:
                argv += ["--sweep", ":".join(value() for _ in range(3))]
            for flag in ("--b", "--trials", "--seed"):
                if rng.randrange(2):
                    argv += [flag, value()]
            if rng.randrange(2):
                argv += ["--scheme", rng.choice(cli.SCHEMES)]
            if rng.randrange(2):
                argv += ["--key-model", rng.choice(cli.KEY_MODELS)]
            argv += ["--workers", str(rng.choice((-1, 0, 1, 2)))]
        cases.append([command, *argv])
    return cases


# Runs each argv of a JSON list as ``python -m ibltlab`` would, in a process
# forked from one capped interpreter that has loaded every module but
# numpy's, so each case starts from the same state and has the address
# space cap to itself.  Prints one JSON line per case: the exit code (or
# "overrun" once the case passes the guards' budget of COST_GUARD_S
# seconds, when its process group is killed), and the length and SHA-256
# of its stdout.
_CONTRACT_CHILD = """
import hashlib, json, os, runpy, select, signal, sys, time
import ibltlab.cli, ibltlab.oracle, ibltlab.simulate  # loaded once, not per case
from ibltlab.census import COST_GUARD_S


def run_case(argv):
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1  # as for an exception that escapes the entry
        try:
            os.setpgid(0, 0)
            os.dup2(write, 1)
            os.dup2(os.open(os.devnull, os.O_WRONLY), 2)
            sys.argv = ["ibltlab", *argv]
            runpy.run_module("ibltlab", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code or 0
        finally:
            sys.stdout.flush()
            os._exit(code)
    os.close(write)
    sha, size, code = hashlib.sha256(), 0, None
    deadline = time.monotonic() + COST_GUARD_S
    while True:
        if not select.select([read], [], [], max(0, deadline - time.monotonic()))[0]:
            os.killpg(pid, signal.SIGKILL)
            code = "overrun"
            break
        chunk = os.read(read, 1 << 16)
        if not chunk:
            break
        sha.update(chunk)
        size += len(chunk)
    os.close(read)
    status = os.waitpid(pid, 0)[1]
    return code or os.waitstatus_to_exitcode(status), size, sha.hexdigest()


for argv in json.loads(sys.argv[1]):
    print(json.dumps(run_case(argv)), flush=True)
"""


def run_contract(capped_python, cases):
    result = capped_python(_CONTRACT_CHILD, json.dumps(cases))
    assert result.returncode == 0, result.stderr
    return [tuple(json.loads(line)) for line in result.stdout.splitlines()]


def test_every_input_exits_cleanly_through_the_program_entry(capped_python):
    # Every input exits 0, 1 or 2 within the budget, a nonzero exit prints
    # nothing, and an exit 0 prints the same bytes again in a new process.
    cases = contract_cases(seed=0, count=160)
    results = run_contract(capped_python, cases)
    assert len(results) == len(cases)
    broken = [
        (" ".join(argv), code, size)
        for argv, (code, size, _) in zip(cases, results)
        if code not in (0, 1, 2) or (code != 0 and size > 0)
    ]
    assert broken == []
    printed = [(argv, result) for argv, result in zip(cases, results) if result[0] == 0]
    assert run_contract(capped_python, [argv for argv, _ in printed]) == [
        result for _, result in printed
    ]
