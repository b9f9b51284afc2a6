"""Compare two benchmark records written by perfbench/run.py.

    python3 perfbench/compare.py perfbench/results/A.json perfbench/results/B.json

Prints whether the output fingerprints match, which operations' outputs
changed, and each metric of the two records side by side with B's change
relative to A.  Exits with 0 when the fingerprints match and 1 when they
differ, so a performance change can show that its curves stayed bit-identical.
"""

from __future__ import annotations

import json
import sys


def compare(a: dict, b: dict) -> tuple[bool, list[str]]:
    same = a["fingerprint"] == b["fingerprint"]
    lines = [f"workloads {a['workload']} / {b['workload']}",
             f"fingerprint {'identical' if same else 'CHANGED'}: "
             f"{a['fingerprint'][:16]} / {b['fingerprint'][:16]}"]
    da, db = a["op_digests"], b["op_digests"]
    for key in sorted(set(da) | set(db)):
        if da.get(key) != db.get(key):
            lines.append(f"  output changed: {key}")
    for section in ("end_to_end", "per_layer"):
        ma, mb = a.get(section, {}), b.get(section, {})
        for name in [k for k in ma if k in mb]:
            va, vb = ma[name], mb[name]
            rel = f"{(vb - va) / va:+.2%}" if va else "n/a"
            lines.append(f"{section} {name} {va:.6g} -> {vb:.6g} ({rel})")
    lines.append(f"failed {a['failed']}/{a['attempted']} -> {b['failed']}/{b['attempted']}")
    return same, lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(args[0]) as fa, open(args[1]) as fb:
        same, lines = compare(json.load(fa), json.load(fb))
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
