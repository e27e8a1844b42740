"""Compare two result documents written by perfbench/run.py.

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit 2) when the Python version or endospec.BACKEND differ, or
when the documents are of different workloads or trace modes: such numbers
are not comparable. Otherwise prints each metric of both documents with the
relative change, whether the canonical-output digests agree, and the
outcome counts.
"""

import json
import sys
from pathlib import Path

MUST_MATCH = ("python", "backend", "workload", "trace")


def comparable(base, new):
    """None when the fingerprints allow a comparison, else the reason."""
    for key in MUST_MATCH:
        a, b = base["fingerprint"].get(key), new["fingerprint"].get(key)
        if a != b:
            return f"{key} differs: {a} vs {b}"
    return None


def report(base, new):
    lines = []
    for name, m in base["metrics"].items():
        if name not in new["metrics"]:
            lines.append(f"{name}: missing from the new result")
            continue
        a, b = m["value"], new["metrics"][name]["value"]
        change = f"{(b - a) / a:+.1%}" if a else "n/a"
        lines.append(f"{name}: {a:.6g} -> {b:.6g} {m['unit']} ({change})")
    same = "same" if base["digest"] == new["digest"] else "DIFFERENT"
    lines.append(f"digest: {same} ({base['digest'][:12]} vs {new['digest'][:12]})")
    lines.append(f"outcomes: {base['outcomes']} -> {new['outcomes']}")
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 perfbench/compare.py BASE.json NEW.json", file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    reason = comparable(base, new)
    if reason:
        print(f"compare: refusing, {reason}", file=sys.stderr)
        return 2
    print("\n".join(report(base, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
