"""Check the fixed-point walks against the table oracle, mask by mask.

Usage:
    python3 mutants/oracle.py [N]

Builds sigma and sigma_star of every mask of degree <= N (default 20)
with tests/table_oracle.py, the implementation the tier-1 suite runs at
N = 16, and compares search_fixed_points(D), both kinds, at every
D <= N, and odd_square_scan(D)'s hits at every even D <= N, with the
table's fixed points.  It needs only the standard library and src/.
The odd pairing is only as strong as its count: to N = 20 the table
has no odd fixed point, so it compares empty lists there.

It prints one JSON object: N, the number of listings compared, the
count of fixed points of degree <= N per kind, the count of odd ones
(no factor x or x+1) the odd pairing compared per kind, the CPU seconds
taken and the names of the listings that differ.  The exit status is 0 when none
differs, else 1.  The table takes 17 bytes per mask: N = 20 peaked at
about 90 MB of resident memory and took 5.1 to 8.4 s of CPU time on a
2-vCPU VM with CPython 3.11.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from table_oracle import checks  # noqa: E402


def main(args: "list[str]") -> int:
    n = int(args[0]) if args else 20
    start = time.process_time()
    compared, differ, fixed, odd = 0, [], {}, {}
    for name, walked, table in checks(n):
        compared += 1
        if walked != table:
            differ.append(name)
        mode, kind, _ = name.split()
        if mode == "search" and name.endswith(f" D={n}"):
            fixed[kind] = len(table)
        elif mode == "odd":  # the last, at the largest even D <= n
            odd[kind] = len(table)
    print(json.dumps({"n": n, "compared": compared, "fixed_points": fixed,
                      "odd_fixed_points": odd,
                      "cpu_s": round(time.process_time() - start, 1),
                      "differ": differ}, indent=1))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
