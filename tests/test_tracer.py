"""The names perfbench/spans.py binds in the package, checked in tier 1.

The tracer patches the package from outside it, by name.  A rename or
removal in ``sevencores`` would otherwise show only in perfbench's own,
slower tests.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

from sevencores import cli, inequalities, theta
from sevencores.series import TruncSeries

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


def package_bindings():
    """Every attribute of every loaded sevencores module and of TruncSeries."""
    out = {("TruncSeries", k): v for k, v in vars(TruncSeries).items()}
    for name, module in list(sys.modules.items()):
        if name == "sevencores" or name.startswith("sevencores."):
            out.update(((name, k), v) for k, v in vars(module).items())
    return out


def test_every_traced_name_exists():
    for module, attrs, _span in spans.SPANNED:
        for attr in attrs:
            assert hasattr(module, attr), (module.__name__, attr)
    for attr in spans.THETA_ATOMS:
        assert hasattr(theta, attr), attr


def test_every_claim_row_has_a_runner():
    # The tracer wraps each row's runner with dataclasses.replace.
    for claim in inequalities.CLAIMS:
        assert "runner" in {f.name for f in dataclasses.fields(claim)}
        assert callable(claim.runner)


def test_the_tracer_restores_what_it_patched(capsys):
    before = package_bindings()
    with spans.Tracer() as tracer:
        assert package_bindings() != before
        assert cli.main(["verify", "eq-3.2", "--order", "20"]) == 0
    after = package_bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert "pass" in capsys.readouterr().out
    assert any(span[0] == "identities.verify" for span in tracer.spans)
