"""Command-line behavior: formats, exit codes, environment default."""

import contextlib
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sevencores.cli as cli
from sevencores import inequalities
from sevencores.identities import Report


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_single(capsys):
    code, out = run(capsys, "verify", "eq-1.22", "--order", "80")
    assert code == 0
    assert "eq-1.22" in out and "pass" in out
    assert "1/1 identities pass at order 80" in out


def test_verify_all_table(capsys):
    code, out = run(capsys, "verify", "--all", "--order", "60")
    assert code == 0
    assert "46/46 identities pass at order 60" in out


def test_verify_jsonlike_fields(capsys):
    code, out = run(capsys, "verify", "--all", "--order", "50", "--format", "jsonlike")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 46
    ids = []
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"id", "note", "order", "status", "millis"}
        assert rec["status"] == "pass"
        assert rec["order"] == 50
        ids.append(rec["id"])
    assert ids == sorted(ids)


def test_verify_failure_exit_and_fields(capsys, monkeypatch):
    from sevencores.identities import identity, verify

    broken = identity(
        id="zz-broken",
        note="synthetic mismatch",
        lhs_text="E(q)",
        rhs_text="E(q) + q^2",
    )
    monkeypatch.setattr(cli, "verify_all", lambda order: [verify(broken, order)])
    code, out = run(capsys, "verify", "--all", "--order", "30", "--format", "jsonlike")
    assert code == 1
    rec = json.loads(out.strip().splitlines()[0])
    assert rec["status"] == "fail"
    assert rec["mismatch_exponent"] == 2
    assert (rec["lhs"], rec["rhs"]) == (-1, 0)


def test_verify_unknown_id_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "eq-9.99"])
    assert exc.value.code == 2


def test_verify_selector_required(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "eq-1.22", "--all"])
    assert exc.value.code == 2


def test_scan_single_claim(capsys):
    code, out = run(capsys, "scan", "ineq-1.12", "--order", "300")
    assert code == 0
    assert "ineq-1.12" in out and "holds" in out
    assert "1/1 claims hold to order 300" in out


def test_scan_selectors_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan", "ineq-1.11", "--theorems"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan"])
    assert exc.value.code == 2


def test_scan_theorems(capsys):
    code, out = run(capsys, "scan", "--theorems", "--order", "250")
    assert code == 0
    assert "19/19 claims hold to order 250" in out


def test_empty_scans_do_not_count_as_holding(capsys):
    code, out = run(capsys, "scan", "--theorems", "--order", "3")
    assert code == 0
    assert "12/19 claims hold to order 3" in out
    row = next(line for line in out.splitlines() if line.startswith("prog-1.15-r1"))
    assert row.split()[2:4] == ["n=0..-1", "empty"]
    assert "first instance" not in row
    code, out = run(capsys, "scan", "--conjectures", "--order", "5")
    assert code == 0
    assert "5/10 claims hold to order 5" in out


def test_scan_conjecture_counterexample_exit_code(capsys, monkeypatch):
    fake = Report(
        id="conj-zz",
        kind="conjecture",
        note="synthetic failing conjecture",
        order=40,
        n_range=(0, 40),
        status="violated",
        violation=(17, -4, 0),
        samples=((0, 1, 0),),
        millis=0.0,
    )
    monkeypatch.setattr(inequalities, "run_all", lambda order, kind=None: [fake])
    code, out = run(capsys, "scan", "--conjectures", "--order", "40")
    assert code == 3
    assert "counterexample at n=17" in out
    assert "lhs=-4" in out


def test_scan_theorem_violation_beats_conjecture_exit(capsys, monkeypatch):
    rows = [
        Report("a-conj", "conjecture", "x", 9, (0, 9), "violated", (3, -1, 0), (), 0.0),
        Report("b-thm", "theorem", "y", 9, (0, 9), "violated", (5, 0, 1), (), 0.0),
    ]
    monkeypatch.setattr(inequalities, "run_claim", lambda claim, order: rows.pop())
    # single-claim path reuses the same exit logic
    code, out = run(capsys, "scan", "ineq-1.11", "--order", "9")
    assert code == 1
    code, out = run(capsys, "scan", "ineq-1.11", "--order", "9")
    assert code == 3


def test_table_csv_totals(capsys):
    code, out = run(capsys, "table", "a7", "--max", "7", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,a7"
    assert lines[-1] == "7,8"
    assert len(lines) == 9


def test_table_csv_rank_split(capsys):
    code, out = run(capsys, "table", "a7j", "--max", "6", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,a7,a7_m1,a7_0,a7_1,a7_2"
    assert lines[-1] == "6,11,0,10,0,1"


def test_table_aligned_format(capsys):
    code, out = run(capsys, "table", "a7", "--max", "3")
    lines = out.strip().splitlines()
    assert lines[0].split() == ["n", "a7"]
    assert lines[-1].split() == ["3", "3"]


def test_oracle_rows_identical(capsys):
    code, out = run(capsys, "oracle", "--max", "30")
    assert code == 0
    assert out.strip() == "30/30 rows identical"


def test_oracle_bound(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", "--max", "61"])
    assert exc.value.code == 2
    assert "--max cannot exceed the enumeration cap 60" in capsys.readouterr().err


def test_oracle_detects_divergence(capsys, monkeypatch):
    real = cli.rank_histograms

    def skewed(top, t):
        rows = real(top, t)
        rows[9][0] = rows[9].get(0, 0) + 1
        return rows

    monkeypatch.setattr(cli, "rank_histograms", skewed)
    code, out = run(capsys, "oracle", "--max", "12")
    assert code == 1
    assert "row n=9 differs" in out


def test_the_oracle_tests_every_partition(capsys, monkeypatch):
    # The enumeration stays brute force: one walk tests every partition
    # of every n <= --max, each once.  A t that records what is shifted
    # right by it sees every state's bit set, since the t-core test
    # shifts each by t once and an int subclass on the right answers
    # first.
    import sevencores.partitions as partitions

    class ShiftSpy(int):
        def __rrshift__(self, x):
            seen.append(x)
            return x >> int(self)

    real, seen, calls = cli.rank_histograms, [], []

    def spied(top, t):
        calls.append((top, t))
        return real(top, ShiftSpy(t))

    monkeypatch.setattr(partitions, "_check_t", lambda t: None)
    monkeypatch.setattr(cli, "rank_histograms", spied)
    code, out = run(capsys, "oracle", "--max", "12")
    assert (code, out) == (0, "12/12 rows identical\n")
    assert calls == [(12, 7)]
    # p(0) + p(1) + ... + p(12), every bit set distinct
    assert len(seen) == len(set(seen)) == 272


def test_coeffs_pairs(capsys):
    code, out = run(capsys, "coeffs", "E(q^7)^7/E(q)", "--order", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "0 1"
    assert lines[7] == "7 8"
    assert len(lines) == 9


def test_coeffs_window(capsys):
    code, out = run(capsys, "coeffs", "psi(q)", "--order", "12", "--from", "3", "--to", "6")
    assert code == 0
    assert out.strip().splitlines() == ["3 1", "4 0", "5 0", "6 1"]


def test_coeffs_bad_window(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["coeffs", "q", "--order", "5", "--from", "4", "--to", "2"])
    assert exc.value.code == 2


def test_coeffs_usage_names_the_from_option_by_its_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["coeffs", "q", "--from", "x"])
    assert exc.value.code == 2
    assert "[--from FROM]" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["coeffs", "--help"])
    assert exc.value.code == 0
    assert "[--from FROM]" in capsys.readouterr().out


USAGE_ERRORS = [
    (["coeffs", "altq(q)/q", "--order", "3"], "cannot evaluate 'q': division needs"),
    (["coeffs"], "the following arguments are required: expr"),
    (["verify"], "give exactly one of"),
    (["verify", "eq-9.99"], "unknown identity id 'eq-9.99'; known ids: "),
    (["scan"], "give exactly one of"),
    (["table", "a7", "--max", "-1"], "--max must be nonnegative"),
    (["oracle", "--max", "0"], "--max must be at least 1"),
    (["scan", "no-such-claim"], "unknown claim id 'no-such-claim'; known ids: "),
]


@pytest.mark.parametrize(
    "argv, message", USAGE_ERRORS,
    ids=[f"argv{i}" for i in range(len(USAGE_ERRORS))],
)
def test_usage_errors_print_the_subcommand_usage(capsys, argv, message):
    """A handler's own check and argparse's both print the usage of the
    subcommand that was given, not the top-level usage."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: sevencores {argv[0]} [-h]")
    assert f"\nsevencores {argv[0]}: error: {message}" in captured.err


def test_coeffs_syntax_error_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["coeffs", "E(q^7"])
    assert exc.value.code == 2


def test_coeffs_deep_nesting_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["coeffs", "(" * 2000 + "q" + ")" * 2000, "--order", "4"])
    assert exc.value.code == 2
    assert "nests deeper than" in capsys.readouterr().err


@pytest.mark.parametrize(
    "expr, message",
    [
        ("1" + "0" * 5000, "cannot read the integer literal"),
        ("E(q^" + "7" * 5000 + ")", "cannot read the integer literal"),
        ("q^" + "7" * 5000, "cannot read the integer literal"),
        ("E(q)^1" + "0" * 30, "above the limit"),
        ("T2(" * 40 + "E(q)" + ")" * 40, "T2 would evaluate"),
    ],
    ids=["long-const", "long-atom-exponent", "long-qpow", "huge-power",
         "nested-T2"],
)
def test_coeffs_hostile_input_is_usage_error(capsys, expr, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(["coeffs", expr, "--order", "200"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_coeffs_checks_its_window_before_it_builds(capsys):
    from sevencores.exprlang import _kept

    before = _kept.cache_info()
    bad_window = ["--from", "5", "--to", "3"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["coeffs", "E(q)^100*E(q)^100", "--order", "2000", *bad_window])
    assert exc.value.code == 2
    assert "need 0 <= from <= to <= order" in capsys.readouterr().err
    assert _kept.cache_info() == before
    # A syntax or bound error is still reported ahead of a bad window.
    for expr, order, message in (("E(q", "2000", "syntax error"),
                                 ("lattice(7)", "20000", "counted at order"),
                                 ("E(q)^100*E(q)^100*q", "2000", "degree 201")):
        with pytest.raises(SystemExit) as exc:
            cli.main(["coeffs", expr, "--order", order, *bad_window])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_compounded_exponents_are_usage_error(capsys):
    # Each ^ is within the limit, but together they ask for E(q)^10000;
    # evaluate refuses before it builds anything.
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        cli.main(["coeffs", "E(q)^100^100", "--order", "2000"])
    assert time.perf_counter() - start < 1.0
    assert exc.value.code == 2
    assert "multiply to 10000" in capsys.readouterr().err
    code, out = run(capsys, "coeffs", "(E(q)^10)^10", "--order", "3")
    assert code == 0
    assert out.split("\n")[:4] == ["0 1", "1 -100", "2 4850", "3 -151800"]


@pytest.mark.parametrize("factor, count", [("psi(q)^100", 20), ("E(q)^100", 30)])
def test_products_of_many_powers_are_usage_error(capsys, factor, count):
    # Each factor is within the exponent limit; unbounded, these ran for
    # tens of seconds.  evaluate refuses their degree before building.
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        cli.main(["coeffs", "*".join([factor] * count), "--order", "2000"])
    assert time.perf_counter() - start < 1.0
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"its degree {100 * count} is above the limit" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "expr, order", [("E(q)^100*E(q)^100", 20000), ("psi(q)^100*phi(q)^100", 20000),
                    ("sigma(q)^21", 20000), ("T2(E(q)^100)", 2001),
                    ("lattice(7)", 20000),
                    pytest.param(None, 20000, id="verify --all-20000")]
)
def test_costly_expressions_are_usage_error(capsys, expr, order):
    # Within the degree limit, but unbounded these ran 15 s to 49 s at
    # order 20000: evaluate refuses degree times order past 400000, and a
    # lattice atom past its dimension's order cap.  With expr None the
    # whole catalog is verified, which checks every record's bounds
    # before it builds any.
    argv = ["coeffs", expr] if expr else ["verify", "--all"]
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--order", str(order)])
    assert time.perf_counter() - start < 1.0
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if expr is None or "lattice" in expr:
        assert f"it would be counted at order {order}, above the limit" in captured.err
    else:
        assert "degree times evaluation order is" in captured.err
        assert "above the limit 400000" in captured.err
    assert "Traceback" not in captured.err


def test_coeffs_eval_error_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["coeffs", "1/(1 - 1)", "--order", "4"])
    assert exc.value.code == 2


def test_env_var_supplies_default_order(capsys, monkeypatch):
    monkeypatch.setenv("SEVENCORES_ORDER", "35")
    code, out = run(capsys, "verify", "eq-5.2")
    assert code == 0
    assert "order 35" in out


def test_explicit_order_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("SEVENCORES_ORDER", "35")
    code, out = run(capsys, "verify", "eq-5.2", "--order", "44")
    assert "order 44" in out


def test_env_var_garbage_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SEVENCORES_ORDER", "many")
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "eq-5.2"])
    assert exc.value.code == 2


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["coeffs", "E(q)", "--order", "-3"], "--order must be nonnegative"),
        (["verify", "eq-5.2", "--order", "-1"], "--order must be nonnegative"),
        (["scan", "--theorems", "--order", "-7"], "--order must be nonnegative"),
        (["coeffs", "E(q)", "--order", str(cli.MAX_ORDER + 1)],
         f"--order must be at most {cli.MAX_ORDER}"),
        (["verify", "eq-5.2", "--order", "10" * 9],
         f"--order must be at most {cli.MAX_ORDER}"),
        (["scan", "--theorems", "--order", str(cli.MAX_ORDER + 1)],
         f"--order must be at most {cli.MAX_ORDER}"),
        (["table", "a7", "--max", str(cli.MAX_ORDER + 1)],
         f"--max must be at most {cli.MAX_ORDER}"),
    ],
    ids=[
        "coeffs", "verify", "scan",
        "coeffs-above-cap", "verify-above-cap", "scan-above-cap",
        "table-above-cap",
    ],
)
def test_negative_order_is_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_env_order_above_cap_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SEVENCORES_ORDER", str(cli.MAX_ORDER + 1))
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan", "--theorems"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"SEVENCORES_ORDER must be at most {cli.MAX_ORDER}" in captured.err


def test_max_order_is_accepted(capsys):
    top = str(cli.MAX_ORDER)
    code, out = run(capsys, "coeffs", "q^2", "--order", top, "--from", top)
    assert code == 0
    assert out == f"{top} 0\n"


# sha256 of stdout, recorded before division was blocked and mixed
# products divided last.  A speed change must leave every one as it is;
# verify's "millis" is wall time, so it is cut before hashing.
GOLDEN = {
    "scan-theorems-6000": (
        ["scan", "--theorems", "--order", "6000"], 0,
        "28c780408cf6edf107c615616b14b10fe1e6be194bce1b18566d052db0cab541",
    ),
    "scan-conjectures-6000": (
        ["scan", "--conjectures", "--order", "6000"], 3,
        "4b26b4aeb2878c62468f600886f3f39a1a60f745fa96acde154b6712770fde40",
    ),
    "verify-all-1600": (
        ["verify", "--all", "--order", "1600", "--format", "jsonlike"], 0,
        "ce7246bae4f10329c9d9acf39c20c87a5eeac05ff218ddd263b14454651cb87e",
    ),
    "table-a7j-3000": (
        ["table", "a7j", "--max", "3000", "--csv"], 0,
        "60d90a121fe99db2819f762d0467f332b8bf029ccc22a2f56c13558492d99320",
    ),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_stdout_matches_its_golden_digest(capsys, name):
    argv, want_code, digest = GOLDEN[name]
    code, out = run(capsys, *argv)
    assert code == want_code
    out = re.sub(r', "millis": [^,}]+', "", out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
def test_a_closed_pipe_ends_the_console_script_quietly():
    """A reader that stops after one line: the run shows no traceback and
    does not exit 1, the code of a failed identity.  The table, about
    80 KB, is more than a pipe holds, so the writer meets the closed end."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "sevencores.cli",
         "table", "a7j", "--max", "3000", "--csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.stdout.readline() == b"n,a7,a7_m1,a7_0,a7_1,a7_2\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait(timeout=60)
    assert b"Traceback" not in err, err
    assert code == -signal.SIGPIPE


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
def test_in_process_calls_keep_the_sigpipe_handler(capsys):
    before = signal.getsignal(signal.SIGPIPE)
    assert run(capsys, "coeffs", "q", "--order", "1") == (0, "0 0\n1 1\n")
    assert signal.getsignal(signal.SIGPIPE) == before


def call(argv):
    """Exit code, stdout and stderr of one in-process call; a usage error
    exits through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    # verify's "millis" and its table column are wall time
    text = re.sub(r', "millis": [^,}]+|\s+[0-9.]+ms ', "", out.getvalue())
    return code, text, err.getvalue()


REPEATED = (
    ["verify", "--all", "--order", "400"],
    ["verify", "--all", "--order", "400", "--format", "jsonlike"],
    ["scan", "--theorems", "--order", "2000"],
    ["scan", "--conjectures", "--order", "2000"],
)


def test_repeated_calls_in_one_process_print_the_same():
    """The parser built once and the values kept from the first calls
    change neither output nor exit code, a usage error in between
    included."""
    first = [call(argv) for argv in REPEATED]
    assert [code for code, _, _ in first] == [0, 0, 0, 0]
    usage = call(["verify", "--all", "--order", "-1"])
    assert usage[0] == 2 and "usage: sevencores verify" in usage[2]
    assert [call(argv) for argv in REPEATED] == first
    assert call(["verify", "--all", "--order", "-1"]) == usage


# Counts, in a fresh interpreter, the series passes, the eta_quotient
# calls and the top-level parser builds of a second verify --all.
COUNT_WARM_WORK = """
import argparse, contextlib, io
from sevencores import cli, exprlang
from sevencores.series import TruncSeries
work, parsers = [], []
def counted(real):
    return lambda *args: work.append(real.__name__) or real(*args)
for name in ("mul", "div", "pow", "add", "sub", "neg", "scale", "shift",
             "even_part", "odd_part", "alternate"):
    setattr(TruncSeries, name, counted(getattr(TruncSeries, name)))
exprlang.eta_quotient = counted(exprlang.eta_quotient)
init = argparse.ArgumentParser.__init__
def counted_init(self, *args, **kwargs):
    parsers.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted_init
for _ in range(2):
    work.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--all", "--order", "400"]) == 0
print(len(work), parsers.count("sevencores"))
"""


def test_a_warm_verify_builds_no_series_and_no_parser():
    """A second verify --all looks every text up: each root that builds
    a series keeps its value, and main keeps its parser (the first
    kept neither and made 102 series passes, 58 eta_quotient calls and
    a second parser)."""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", COUNT_WARM_WORK],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    assert out == "0 1\n"


# Prints which of the modules a start-up can do without are loaded after
# one call, in a fresh interpreter, since this session has loaded them
# all.  -S keeps start-up hooks in site-packages from loading any first.
LOADED_AFTER = """
import contextlib, io, sys
from sevencores import cli
with contextlib.redirect_stdout(io.StringIO()):
    {call}
print(*(m for m in {modules!r} if m in sys.modules))
"""
LATE = ("dataclasses", "inspect", "json", "sevencores.inequalities")


@pytest.mark.parametrize(
    "call, loaded",
    [
        ("cli.build_parser()", ()),
        ('cli.main(["verify", "eq-3.2", "--order", "20", "--format", "jsonlike"])',
         ("json",)),
        ('cli.main(["scan", "ineq-1.11", "--order", "50"])',
         ("sevencores.inequalities",)),
    ],
    ids=["parser", "verify-jsonlike", "scan"],
)
def test_start_up_loads_the_claim_table_and_json_late(call, loaded):
    """Only scan loads the claim table, and with it dataclasses; only
    --format jsonlike loads json."""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-S", "-c", LOADED_AFTER.format(call=call, modules=LATE)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout.split()
    assert set(loaded) <= set(out)
    if "sevencores.inequalities" not in loaded:
        assert out == list(loaded)
