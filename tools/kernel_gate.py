"""The kernel gate: compare two bits_gate.py digests by the rule for a change to
the kernel's arithmetic, where the bits may move but the answers may not.

    python3 tools/kernel_gate.py PARENT.json CHANGE.json

Every solver run must keep its status (or its error message), its iteration
count within 1 and, if it converged, F within 1e-11 * max(1, |F|). The CLI
output must not change at all. Prints the solver runs and CLI commands whose
digests differ, grouped by datum, with the fields that moved, then a summary
line with the margins: the worst |dF| / max(1, |F|) over the runs converged at
the parent, and the largest move in iterations over the runs that raised on
neither side. Exits 1 on a violation or on any CLI difference, 0 otherwise (2
on a usage error).
"""

from __future__ import annotations

import json
import sys

F_RTOL = 1e-11


def violation(old: dict | None, new: dict | None) -> str | None:
    """Why the change's run breaks the gate, or None."""
    if old is None or new is None:
        return "run missing"
    if "error" in old or "error" in new:
        return None if old.get("error") == new.get("error") else "error changed"
    if old["status"] != new["status"]:
        return "status changed"
    if abs(new["iterations"] - old["iterations"]) > 1:
        return "iterations moved by more than 1"
    f = old["F_value"]
    if old["status"] == "Converged" and abs(new["F_value"] - f) > F_RTOL * max(1.0, abs(f)):
        return "F moved beyond 1e-11"
    return None


def margins(parent: dict, change: dict) -> tuple[float, int]:
    """(worst |dF| / max(1, |F|) over runs converged at the parent, largest
    iteration move), over the solver runs that completed on both sides."""
    worst_f, worst_iter = 0.0, 0
    for key, old in parent.items():
        new = change.get(key)
        if new is None or "error" in old or "error" in new:
            continue
        worst_iter = max(worst_iter, abs(new["iterations"] - old["iterations"]))
        if old["status"] == "Converged":
            f = old["F_value"]
            worst_f = max(worst_f, abs(new["F_value"] - f) / max(1.0, abs(f)))
    return worst_f, worst_iter


def moved(old: dict | None, new: dict | None) -> list:
    """The names of the digest fields, and trace columns, that differ."""
    old, new = old or {}, new or {}
    fields = [k for k in sorted(set(old) | set(new)) if k != "columns" and old.get(k) != new.get(k)]
    a, b = old.get("columns", {}), new.get("columns", {})
    return fields + [f"columns.{c}" for c in sorted(set(a) | set(b)) if a.get(c) != b.get(c)]


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write("usage: kernel_gate.py PARENT.json CHANGE.json\n")
        return 2
    parent, change = (_load(path) for path in argv)
    groups, bad = {}, 0
    for key in sorted(set(parent["solvers"]) | set(change["solvers"])):
        old, new = parent["solvers"].get(key), change["solvers"].get(key)
        if old != new:
            datum, solver, level = key.rsplit(" ", 2)
            why = violation(old, new)
            bad += why is not None
            groups.setdefault(datum, []).append(f"{solver} {level}: {', '.join(moved(old, new))}"
                                                + (f"  VIOLATION: {why}" if why else ""))
    for key in sorted(set(parent["cli"]) | set(change["cli"])):
        old, new = parent["cli"].get(key), change["cli"].get(key)
        if old != new:
            bad += 1
            groups.setdefault("cli", []).append(f"{key}: {', '.join(moved(old, new))}")
    for datum, lines in groups.items():
        print(datum)
        print("".join(f"  {line}\n" for line in lines), end="")
    runs = sum(len(lines) for lines in groups.values())
    worst_f, worst_iter = margins(parent["solvers"], change["solvers"])
    print(f"kernel gate: {runs} differing, {bad} failing; worst converged relative |dF| {worst_f:.1e}, "
          f"largest iteration move {worst_iter}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
