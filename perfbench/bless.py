"""Rewrite perfbench/expected.json from the program as it is now.

Usage (from the root of a checkout): python3 perfbench/bless.py

Run this only when the program's outputs change on purpose, and read
the diff before committing it.  Before anything is written, the facts
the paper and the catalog fix are asserted: every identity passes, 19
of 19 theorems hold, conj-6.3 is violated at n=2858 with lhs=-8, rhs=0
and the other 9 conjectures hold, the oracle agrees on 40 of 40 rows,
and both sides of every ladder identity expand to the same series.
The cold and warm passes must also agree, and so must two seeds.
"""

import json
import sys

from run import EXPECTED, WORKLOADS, spawn


def check_facts(name, obs):
    ops, whole = obs["ops"], obs["pass"]
    if name == "catalog-400":
        assert whole["exit"] == 0, whole
        assert whole["summary"] == "46/46 identities pass at order 400", whole
        assert len(ops) == 46
        for key, op in ops.items():
            assert op["status"] == "pass" and op["lhs"] == op["rhs"], key
    elif name == "scan-6000":
        assert whole["exit"] == [0, 3], whole
        assert whole["summary"] == ["19/19 claims hold to order 6000",
                                    "9/10 claims hold to order 6000"], whole
        assert len(ops) == 29
        for key, op in ops.items():
            if key == "conj-6.3":
                assert op["status"] == "violated", op
                assert op["witness"] == "counterexample at n=2858: lhs=-8 rhs=0"
            else:
                assert op["status"] == "holds" and op["witness"] is None, key
    elif name == "oracle-40":
        assert whole["exit"] == 0, whole
        assert whole["summary"] == "40/40 rows identical", whole
        assert set(ops.values()) == {"identical"} and len(ops) == 40
    else:
        assert len(ops) == 33 * 2 * 4
        for key, value in ops.items():
            order, rid, side = key.split(":")
            assert value == ops[f"{order}:{rid}:lhs"], key
            assert len(value) == 16 and int(value, 16) >= 0, key


def main():
    expected = {}
    for name in WORKLOADS:
        first = spawn(name, 0, 0, "-", 170)
        second = spawn(name, 1, 0, "-", 170)
        cold, warm = first["passes"]
        assert cold == warm, f"{name}: warm pass differs from cold pass"
        assert second["passes"] == first["passes"], f"{name}: seeds differ"
        check_facts(name, cold)
        expected[name] = cold
        print(f"{name}: {len(cold['ops'])} operations", file=sys.stderr)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
