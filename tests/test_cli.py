"""Command-line behavior: formats, exit codes, environment default."""

import json
import time

import pytest

import sevencores.cli as cli
from sevencores.inequalities import ScanReport


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
    from sevencores.identities import IdentityRecord, verify

    broken = IdentityRecord(
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
    fake = ScanReport(
        claim="conj-zz",
        kind="conjecture",
        description="synthetic failing conjecture",
        n_range=(0, 40),
        status="violated",
        violation=(17, -4, 0),
        samples=((0, 1, 0),),
    )
    monkeypatch.setattr(cli, "run_all", lambda order, kind=None: [fake])
    code, out = run(capsys, "scan", "--conjectures", "--order", "40")
    assert code == 3
    assert "counterexample at n=17" in out
    assert "lhs=-4" in out


def test_scan_theorem_violation_beats_conjecture_exit(capsys, monkeypatch):
    rows = [
        ScanReport("a-conj", "conjecture", "x", (0, 9), "violated", (3, -1, 0), ()),
        ScanReport("b-thm", "theorem", "y", (0, 9), "violated", (5, 0, 1), ()),
    ]
    monkeypatch.setattr(cli, "run_claim", lambda claim, order: rows.pop())
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
        cli.main(["oracle", "--max", "46"])
    assert exc.value.code == 2


def test_oracle_detects_divergence(capsys, monkeypatch):
    import sevencores.partitions as partitions

    real = partitions.rank_histogram

    def skewed(n, t):
        out = dict(real(n, t))
        if n == 9:
            out[0] = out.get(0, 0) + 1
        return out

    monkeypatch.setattr(cli, "rank_histogram", skewed)
    code, out = run(capsys, "oracle", "--max", "12")
    assert code == 1
    assert "row n=9 differs" in out


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
