#!/usr/bin/env python3
"""Validates a Prometheus text exposition read from stdin (or a file arg).

Used by tests/e2e/metrics.sh against the `metrics` verb of pane_server.
Checks, strictly:
  - every metric name matches [a-zA-Z_:][a-zA-Z0-9_:]*, labels parse as
    key="value" lists, sample values are integers or floats;
  - `# TYPE` appears at most once per family and before that family's
    samples; every sample belongs to a declared family (summaries also own
    `<name>_sum`, `<name>_count`, and the `quantile` label);
  - no duplicate (name, labels) sample;
  - the stream ends with a `# EOF` terminator line;
  - at least one summary family has _count > 0 (the smoke signal that the
    server actually recorded stage timings).

Exit 0 on success, 1 with a message per violation otherwise.
Stdlib only; python3 tools/check_prometheus.py < exposition.txt
"""
import re
import sys

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABELS_RE = re.compile(
    r'^\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\\n]*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\\n]*")*\}$'
)
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$"
)
VALID_TYPES = {"counter", "gauge", "summary", "histogram", "untyped"}


def main() -> int:
    if len(sys.argv) > 2:
        print("usage: check_prometheus.py [exposition.txt]", file=sys.stderr)
        return 2
    if len(sys.argv) == 2:
        with open(sys.argv[1], "r", encoding="utf-8") as f:
            text = f.read()
    else:
        text = sys.stdin.read()

    errors = []
    types = {}  # family name -> declared type
    seen_samples = set()  # (name, labels)
    summary_counts = {}  # family -> max observed _count value
    saw_eof = False

    lines = text.split("\n")
    for i, line in enumerate(lines, start=1):
        if line == "" and i >= len(lines) - 1:
            continue  # trailing newline
        if saw_eof:
            errors.append(f"line {i}: content after # EOF terminator")
            break
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                errors.append(f"line {i}: malformed TYPE line: {line!r}")
                continue
            _, _, family, kind = parts
            if not NAME_RE.match(family):
                errors.append(f"line {i}: bad family name {family!r}")
            if kind not in VALID_TYPES:
                errors.append(f"line {i}: unknown metric type {kind!r}")
            if family in types:
                errors.append(f"line {i}: duplicate TYPE for family {family}")
            types[family] = kind
            continue
        if line.startswith("#"):
            continue  # other comments (e.g. HELP) are fine
        if line == "":
            errors.append(f"line {i}: blank line inside exposition")
            continue

        m = SAMPLE_RE.match(line)
        if not m:
            errors.append(f"line {i}: unparseable sample line: {line!r}")
            continue
        name, labels = m.group("name"), m.group("labels") or ""
        if labels and not LABELS_RE.match(labels):
            errors.append(f"line {i}: malformed labels {labels!r}")
            continue

        # Resolve the owning family: exact name, or the summary components.
        family = name
        if family not in types:
            for suffix in ("_sum", "_count"):
                base = name[: -len(suffix)] if name.endswith(suffix) else None
                if base and types.get(base) == "summary":
                    family = base
                    break
        if family not in types:
            errors.append(f"line {i}: sample {name!r} has no TYPE declaration")
            continue
        if types[family] != "summary" and 'quantile="' in labels:
            errors.append(
                f"line {i}: quantile label on non-summary family {family}"
            )

        key = (name, labels)
        if key in seen_samples:
            errors.append(f"line {i}: duplicate sample {name}{labels}")
        seen_samples.add(key)

        if types.get(family) == "summary" and name == family + "_count":
            count = float(m.group("value"))
            summary_counts[family] = max(summary_counts.get(family, 0), count)

    if not saw_eof:
        errors.append("missing # EOF terminator")
    if not any(c > 0 for c in summary_counts.values()):
        errors.append(
            "no summary family has _count > 0 — the server recorded no "
            "stage timings"
        )

    for e in errors:
        print(f"check_prometheus: {e}", file=sys.stderr)
    if not errors:
        nonzero = sum(1 for c in summary_counts.values() if c > 0)
        print(
            f"check_prometheus: OK ({len(types)} families, "
            f"{len(seen_samples)} samples, {nonzero} active summaries)"
        )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
