"""The four benchmark workloads and what each one observes.

A workload has three steps, all run inside one fresh interpreter:

* ``prepare(rng)`` fixes the processing order of the records, claims or
  texts from the seed.  Problem sizes never depend on the seed.
* ``run_pass()`` is the timed part: it drives the program and returns
  what it observed, as ``{"pass": {...}, "ops": {key: value}}``.  The
  ``pass`` part holds outcomes of the whole pass (exit codes, summary
  lines, digests of shared series); each entry of ``ops`` is one
  operation (a record verified, a claim scanned, an oracle row, an
  expression evaluated).
* ``finish(passes)`` runs after the timed passes.  It adds the digests
  of coefficient tuples that the pass built but did not keep.

Outputs are compared as sets: a key names an operation, never its
position in the processing order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

from sevencores import cli, exprlang, identities, inequalities

CATALOG_ORDER = 400
SCAN_DEPTH = 6000
ORACLE_MAX = 40
LADDER_ORDERS = (300, 1200, 600, 900)


def digest(coeffs) -> str:
    """Short content hash of a coefficient tuple, stable across processes."""
    text = " ".join(map(str, coeffs))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cli(argv):
    """Run cli.main with stdout captured; return (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, buf.getvalue()


def _split_digests(order):
    cs = inequalities.core_split(order)
    return {field: digest(getattr(cs, field).coeffs) for field in cs._fields}


class Catalog:
    """verify --all --order 400 through cli.main, all 46 records."""

    name = "catalog-400"

    def prepare(self, rng):
        records = list(identities.REGISTRY)
        rng.shuffle(records)
        # verify_all reads the registry at call time, so this is the
        # order in which the CLI processes the records.
        identities.REGISTRY = tuple(records)

    def run_pass(self):
        rc, out = _cli(["verify", "--all", "--order", str(CATALOG_ORDER)])
        lines = out.splitlines()
        ops = {}
        for line in lines[:-1]:
            tokens = line.split()
            ops[tokens[0]] = {"status": tokens[1]}
        return {"pass": {"exit": rc, "summary": lines[-1] if lines else ""},
                "ops": ops}

    def finish(self, passes):
        sides = {}
        for rec in identities.REGISTRY:
            sides[rec.id] = {
                "lhs": digest(rec.lhs(CATALOG_ORDER).coeffs),
                "rhs": digest(rec.rhs(CATALOG_ORDER).coeffs),
            }
        for obs in passes:
            for key, value in obs["ops"].items():
                value.update(sides.get(key, {}))


class Scan:
    """scan --theorems then scan --conjectures, both at depth 6000."""

    name = "scan-6000"

    def prepare(self, rng):
        claims = list(inequalities.CLAIMS)
        rng.shuffle(claims)
        inequalities.CLAIMS = tuple(claims)

    def run_pass(self):
        exits, summaries, ops = [], [], {}
        for selector in ("--theorems", "--conjectures"):
            rc, out = _cli(["scan", selector, "--order", str(SCAN_DEPTH)])
            exits.append(rc)
            lines = out.splitlines()
            summaries.append(lines[-1] if lines else "")
            claim = None
            for line in lines[:-1]:
                if line.startswith("  counterexample at "):
                    ops[claim]["witness"] = line.strip()
                    continue
                claim = line.split()[0]
                ops[claim] = {
                    "status": line.split()[3],
                    "row": line,
                    "witness": None,
                }
        return {"pass": {"exit": exits, "summary": summaries}, "ops": ops}

    def finish(self, passes):
        split = _split_digests(SCAN_DEPTH)
        for obs in passes:
            obs["pass"]["core_split"] = split


class Oracle:
    """oracle --max 40: brute-force enumeration against the closed forms.

    The CLI walks the rows in a fixed order, so the seed has nothing to
    permute here.
    """

    name = "oracle-40"

    def prepare(self, rng):
        pass

    def run_pass(self):
        rc, out = _cli(["oracle", "--max", str(ORACLE_MAX)])
        lines = out.splitlines()
        last = lines[-1] if lines else ""
        ops = {f"n={n}": "identical" for n in range(1, ORACLE_MAX + 1)}
        if last.startswith("row n="):
            bad = int(last.split()[1][2:])
            for n in range(bad, ORACLE_MAX + 1):
                ops[f"n={n}"] = last if n == bad else "unchecked"
        return {"pass": {"exit": rc, "summary": last}, "ops": ops}

    def finish(self, passes):
        split = _split_digests(ORACLE_MAX)
        for obs in passes:
            obs["pass"]["core_split"] = split


class Ladder:
    """Catalog texts without a lattice atom, parsed and evaluated at the
    orders 300, 1200, 600, 900 in that sequence."""

    name = "expr-ladder"

    def prepare(self, rng):
        records = [
            rec for rec in identities.REGISTRY
            if "lattice" not in rec.lhs_text + rec.rhs_text
        ]
        self.steps = []
        for order in LADDER_ORDERS:
            step = list(records)
            rng.shuffle(step)
            self.steps.append((order, step))

    def run_pass(self):
        ops = {}
        for order, records in self.steps:
            for rec in records:
                built = {}
                for side, text in (("lhs", rec.lhs_text), ("rhs", rec.rhs_text)):
                    key = f"{order}:{rec.id}:{side}"
                    try:
                        node = exprlang.parse(text)
                        if exprlang.parse(exprlang.to_text(node)) != node:
                            ops[key] = "round trip changed the tree"
                            continue
                        built[side] = exprlang.evaluate(node, order)
                        ops[key] = digest(built[side].coeffs)
                    except Exception as exc:  # an exception fails this op only
                        ops[key] = f"error: {type(exc).__name__}: {exc}"
                if len(built) == 2:
                    mismatch = built["lhs"].compare(built["rhs"])
                    if mismatch is not None:
                        for side in built:
                            ops[f"{order}:{rec.id}:{side}"] = (
                                f"sides differ at q^{mismatch.exponent}"
                            )
        return {"pass": {}, "ops": ops}

    def finish(self, passes):
        pass


WORKLOADS = {w.name: w for w in (Catalog, Scan, Oracle, Ladder)}
