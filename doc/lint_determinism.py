#!/usr/bin/env python3
"""Flag raw `Hashtbl.fold` / `Hashtbl.iter` over unsorted tables in lib/.

OCaml's Hashtbl enumerates buckets in an order that depends on the
hash-function seed, so any fold/iter whose result order is observable
makes simulations, placements and diagnostics non-reproducible.  The
repo's rule: every enumeration must either be sorted where it is
produced (a `sort` within a few lines of the site) or be genuinely
order-insensitive and carry an entry in ALLOWLIST below explaining why.

Stdlib-only — CI must not install packages.

Usage: lint_determinism.py [REPO_ROOT]
Exit status: 1 if an unsanctioned site exists or an ALLOWLIST entry
matches no site (a stale entry would silently sanction a future one),
0 otherwise.
"""
import os
import re
import sys

SITE_RE = re.compile(r"Hashtbl\s*\.\s*(fold|iter)\b")
# a `List.sort`, `Diagnostic.sort`, `sorted ...` etc. near the site
# counts as "sorted where produced"
SORT_RE = re.compile(r"sort", re.IGNORECASE)
SORT_WINDOW = 3  # lines before/after the site searched for a sort

# Sites that are order-insensitive by construction.  Keyed by file and a
# snippet that must appear within a few lines of the flagged site (line
# numbers drift; content does not).  Keep reasons honest — "it's
# probably fine" is not one.
ALLOWLIST = [
    ("lib/placement/milp_formulation.ml", "integer.(v) <- true",
     "indexed array write, one slot per key"),
    ("lib/placement/milp_formulation.ml", "if n0 = c.node && res'.(r) > 0.",
     "accumulation into a canonical Lin_expr map"),
    ("lib/placement/milp_formulation.ml", "Lin.add acc (Lin.var pv)",
     "accumulation into a canonical Lin_expr map"),
    ("lib/placement/milp_formulation.ml", "if Hashtbl.mem placed_tasks t",
     "indexed array write, one slot per key"),
    ("lib/placement/milp_formulation.ml", "fun (n, subj) pv",
     "indexed array write, one slot per key"),
    ("lib/almanac/compile.ml", "local_names.(i) <- name",
     "indexed array write, one slot per key"),
    ("lib/almanac/compile.ml", "global_names.(i) <- name",
     "indexed array write, one slot per key"),
    ("lib/almanac/compile.ml", "typed || acc",
     "boolean or: commutative and associative"),
]


def scan(root):
    violations = []
    matched = set()
    lib = os.path.join(root, "lib")
    for dirpath, _dirs, files in os.walk(lib):
        for fname in sorted(files):
            if not fname.endswith(".ml"):
                continue
            path = os.path.join(dirpath, fname)
            rel = os.path.relpath(path, root)
            with open(path, encoding="utf-8") as f:
                lines = f.read().splitlines()
            for i, line in enumerate(lines):
                if not SITE_RE.search(line):
                    continue
                lo = max(0, i - SORT_WINDOW)
                hi = min(len(lines), i + SORT_WINDOW + 1)
                if any(SORT_RE.search(lines[j]) for j in range(lo, hi)):
                    continue
                near = "\n".join(lines[i:min(len(lines), i + 5)])
                entry = next(
                    (e for e in ALLOWLIST
                     if e[0] == rel.replace(os.sep, "/") and e[1] in near),
                    None)
                if entry is not None:
                    matched.add(entry)
                    continue
                violations.append((rel, i + 1, line.strip()))
    return violations, matched


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    if not os.path.isdir(os.path.join(root, "lib")):
        print(f"lint_determinism: no lib/ under {root!r}", file=sys.stderr)
        return 2
    violations, matched = scan(root)
    for rel, lineno, text in violations:
        print(f"{rel}:{lineno}: unsorted Hashtbl enumeration: {text}")
    if violations:
        print(f"\n{len(violations)} site(s) enumerate a Hashtbl in an "
              "observable order.  Sort the result where it is produced, "
              "or add an ALLOWLIST entry to doc/lint_determinism.py with "
              "a reason why order cannot matter.")
    stale = [e for e in ALLOWLIST if e not in matched]
    for rel, snippet, _reason in stale:
        print(f"stale allowlist entry {rel!r} / {snippet!r} matched no "
              "site: remove it from doc/lint_determinism.py")
    return 1 if violations or stale else 0


if __name__ == "__main__":
    sys.exit(main())
