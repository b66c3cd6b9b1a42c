import csv
import hashlib
import io
import os
import subprocess
import sys

import pytest

from reference import STOPPING_COUNTS_10X10

from ibltlab import cli, simulate
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


def test_ztable_full_rectangle(invoke_cli):
    code, out, _ = invoke_cli(["ztable", "10", "10"])
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 100
    for ell_s, n_s, z_s in rows:
        assert int(z_s) == STOPPING_COUNTS_10X10[int(ell_s) - 1][int(n_s) - 1]


def test_ztable_guard_exit_code(invoke_cli):
    code, out, err = invoke_cli(["ztable", "1000", "1000"])
    assert (code, out) == (2, "")
    assert "guard" in err


def test_ztable_refuses_counts_past_the_digit_limit(invoke_cli):
    # count(2, 15000) has 4516 digits; CPython prints at most 4300 by default.
    code, out, err = invoke_cli(["ztable", "2", "15000"])
    assert (code, out) == (2, "")
    assert "digit" in err


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
    # The cost guard charges no power for the terms its lower bound puts
    # past float range; it refused this input at an estimated 46.6 s, and
    # it runs in about 1 s on a 2-core x86 VM.
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
        ["--ell", "5000", "--n", "3000", "--k", "3"],  # census row
        ["--ell", "1048576", "--n", "1000", "--k", "100"],  # powers of finite terms
        ["--ell", "3", "--n", "5", "--k", "10000000000"],  # powers
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


def test_simulate_workers_byte_identical(invoke_cli):
    base = ["simulate", "--n", "24", "--k", "3", "--m", "96", "--trials", "6000",
            "--seed", "12"]
    _, serial, _ = invoke_cli(base + ["--workers", "1"])
    _, parallel, _ = invoke_cli(base + ["--workers", "3"])
    assert serial == parallel


def test_simulate_one_batch_starts_no_pool():
    # 200 trials at this shape are one kernel batch of 273, so two workers
    # on two CPUs run in-process: no pool starts and no pool module loads.
    probe = (
        "import sys; from ibltlab import cli, simulate; "
        "simulate._cpu_count = lambda: 2; "
        "code = cli.main(sys.argv[1:]); "
        "print([m in sys.modules for m in ('concurrent.futures', 'multiprocessing')], "
        "file=sys.stderr); "
        "sys.exit(code)"
    )
    argv = ["simulate", "--n", "20", "--k", "3", "--m", "60", "--trials", "200"]
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
    code, _, err = invoke_cli(
        ["simulate", "--n", "5", "--k", "3", "--m", "10", "--trials", "10"]
    )
    assert code == 1
    assert "divisible" in err


def test_simulate_checks_every_sweep_point_first(invoke_cli):
    code, out, err = invoke_cli(
        ["simulate", "--n", "5", "--k", "3", "--sweep", "30:40:5", "--trials", "10"]
    )
    assert (code, out) == (1, "")
    assert "divisible" in err
    # m = 30 is cheap; m = 15000 puts the bound over budget.
    code, out, err = invoke_cli(
        ["simulate", "--n", "3000", "--k", "3", "--sweep", "30:15000:14970",
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
    # 1,150 trials (50 kernel batches), fit in half the real budget.
    assert 174 * paper < simulate._work_budget(1) / 2
    monkeypatch.setattr(simulate, "_work_budget", lambda processes: 2 * paper)
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
    monkeypatch.setattr(simulate, "_work_budget", lambda processes: 10**6)
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
    monkeypatch.setattr(simulate, "_work_budget", lambda processes: budget)
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
    # over three minutes).
    calls = []
    monkeypatch.setattr(cli, "exact_failure_probability", lambda *a, **kw: calls.append(a))
    code, out, err = invoke_cli(["oracle", "1", "1000000", "1"])
    assert (code, out, calls) == (2, "", [])
    assert "union bound" in err
    # Usage errors still come first.
    for argv in (["1", "1000000", "1", "--guard", "0"], ["0", "1000000", "1"]):
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


@pytest.mark.parametrize("guard", ["0", "-1"])
def test_oracle_rejects_guard_below_one(invoke_cli, guard):
    code, out, err = invoke_cli(["oracle", "2", "2", "2", "--guard", guard])
    assert code == 1
    assert out == ""
    assert "guard must be at least 1" in err


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
    # The scheme and key-model choices come from the enums in hashing, so
    # the parser is built without loading simulate; the help stays the same.
    out = subprocess.run(
        [sys.executable, "-m", "ibltlab", *argv],
        capture_output=True,
        env={**os.environ, "COLUMNS": "80"},
        check=True,
    )
    assert hashlib.sha256(out.stdout).hexdigest() == digest


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "ibltlab", "ztable", "2", "2"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == "ell,n,z"
