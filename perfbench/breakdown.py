#!/usr/bin/env python3
"""Per-layer breakdown of one traced run, split by span and tag.

    python3 perfbench/breakdown.py .bench_build/perfbench/traces/<workload>-<seed>.json

Reads the spans a `--trace 1` run wrote and prints, for every (span, tag)
pair, how often it ran and its mean and total time. Spans under an op span
are "op" rows (self time; share = total over traced op time). Root spans
outside ops are "probe" rows; probes run after every op, traced or not, so
their share is the mean probe over the mean traced op. Set-up spans are
"setup" rows. The tag is the query name where a span concerns one query.
"""

import collections
import json
import sys


def main(path):
    with open(path) as f:
        trace = json.load(f)
    spans = trace["spans"]
    self_ns = [s["end_ns"] - s["start_ns"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            self_ns[s["parent"]] -= s["end_ns"] - s["start_ns"]

    def root(i):
        while spans[i]["parent"] >= 0:
            i = spans[i]["parent"]
        return i

    ops = [s["end_ns"] - s["start_ns"] for s in spans
           if s["name"] == "op" and s["parent"] < 0]
    op_ns = sum(ops)
    rows = collections.defaultdict(lambda: [0, 0])
    for i, s in enumerate(spans):
        if spans[root(i)]["name"] == "op":
            where = "op"
        elif s["op"] < 0:
            where = "setup"
        elif s["parent"] < 0:
            where = "probe"
        else:
            continue  # children of probes are folded into the probe
        key = (where, s["name"], s["tag"])
        rows[key][0] += 1
        rows[key][1] += self_ns[i] if where == "op" else (
            s["end_ns"] - s["start_ns"])

    print("%-6s %-28s %-10s %7s %10s %11s %7s" %
          ("where", "span", "tag", "calls", "mean_ms", "total_ms", "share"))
    for (where, name, tag), (calls, ns) in sorted(rows.items()):
        share = 0.0
        if where == "op" and op_ns:
            share = ns / op_ns
        elif where == "probe" and op_ns:
            share = (ns / calls) / (op_ns / len(ops))
        print("%-6s %-28s %-10s %7d %10.3f %11.1f %7.3f" %
              (where, name, tag, calls, ns / calls / 1e6, ns / 1e6, share))
    print("traced ops %d, %.1f ms; counters:" % (len(ops), op_ns / 1e6))
    for name, value in sorted(trace["counters"].items()):
        print("  %-34s %.0f" % (name, value))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
