#!/usr/bin/env python3
"""Render one experiment run as a markdown report.

Collects the artifacts a harness drops for a single experiment —
BENCH_<name>.json (required) plus the optional TRACE_<name>.jsonl,
TS_<name>.jsonl, and FLIGHT_<name>.jsonl from the same directory — and
renders them into a single human-readable markdown document: the results
table, the merged counters, span-latency quantiles, per-series
time-series sparklines, flight-recorder postmortems, and per-kind trace
event counts. Stdlib only.

Usage: rcbr_report.py NAME [--dir D] [--out FILE]
       rcbr_report.py fig_fault_sweep --dir runs/ --out report.md
"""
import argparse
import json
import pathlib
import sys

SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values, width=40):
    """Downsample `values` to `width` buckets of block characters."""
    if not values:
        return ""
    if len(values) > width:
        # Bucket means keep bursts visible without exceeding the width.
        step = len(values) / width
        values = [
            sum(chunk) / len(chunk)
            for chunk in (
                values[int(i * step): max(int((i + 1) * step), int(i * step) + 1)]
                for i in range(width)
            )
        ]
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0:
        return SPARK_CHARS[0] * len(values)
    return "".join(
        SPARK_CHARS[min(int((v - lo) / span * len(SPARK_CHARS)), len(SPARK_CHARS) - 1)]
        for v in values
    )


def fmt(value):
    """Compact numeric formatting for table cells."""
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.6g}"
    return str(value)


def table(header, rows):
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(fmt(c) for c in row) + " |")
    return lines


def read_jsonl(path):
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def render_results(bench, out):
    out.append(f"# {bench['experiment']}")
    out.append("")
    for note in bench.get("notes", []):
        out.append(f"> {note}")
    out.append("")
    meta = [f"seed {bench['base_seed']}"]
    if "threads" in bench:
        meta.append(f"{bench['threads']} thread(s)")
    if "total_seconds" in bench:
        meta.append(f"{bench['total_seconds']:.3f} s total")
    out.append("Run: " + ", ".join(meta) + ".")
    out.append("")
    out.append("## Results")
    out.append("")
    if "points" in bench:
        columns = bench["parameters"] + bench["metrics"]
        rows = [p["parameters"] + p["metrics_list"]
                for p in normalize_points(bench)]
        out.extend(table(columns, rows))
    else:
        # Single-run shape (e.g. the chaos daemon drill): a flat
        # results map instead of a parameter sweep.
        results = bench.get("results", {})
        out.extend(table(["metric", "value"], sorted(results.items())))
        # Counts that depend on wall-clock timing, not on the seeds.
        wall_clock = bench.get("wall_clock", {})
        if wall_clock:
            out.append("")
            out.append("Wall-clock dependent (not a function of the seeds):")
            out.append("")
            out.extend(table(["metric", "value"],
                             sorted(wall_clock.items())))
    out.append("")


def normalize_points(bench):
    """Points carry metrics either as a list (spec order) or a name map."""
    points = []
    for point in bench["points"]:
        metrics = point["metrics"]
        if isinstance(metrics, dict):
            metrics = [metrics[name] for name in bench["metrics"]]
        points.append({"parameters": point["parameters"]
                       if isinstance(point["parameters"], list)
                       else [point["parameters"][name]
                             for name in bench["parameters"]],
                       "metrics_list": metrics})
    return points


def render_counters(bench, out):
    counters = bench.get("obs_metrics", {}).get("counters", {})
    if not counters:
        return
    out.append("## Counters")
    out.append("")
    out.extend(table(["counter", "value"], sorted(counters.items())))
    out.append("")


def render_spans(bench, out):
    spans = bench.get("obs_metrics", {}).get("spans", {})
    if not spans:
        return
    out.append("## Spans")
    out.append("")
    out.append("Log-bucketed sim-time histograms (quantiles are bucket "
               "upper bounds, ~12.5% relative error).")
    out.append("")
    rows = [
        (name, s["count"], fmt(s["min"]), fmt(s["p50"]), fmt(s["p90"]),
         fmt(s["p99"]), fmt(s["max"]))
        for name, s in sorted(spans.items())
    ]
    out.extend(table(
        ["span", "count", "min", "p50", "p90", "p99", "max"], rows))
    out.append("")


def render_series(ts_lines, out):
    if not ts_lines:
        return
    out.append("## Time series")
    out.append("")
    out.append("Per-window means over sim time (one sparkline per "
               "point/series).")
    out.append("")
    grouped = {}
    for line in ts_lines:
        key = (line["point"], line["series"])
        grouped.setdefault(key, []).append(line)
    rows = []
    for (point, series), windows in sorted(grouped.items()):
        means = [w["sum"] / w["n"] if w["n"] else 0.0 for w in windows]
        rows.append((point, series, len(windows),
                     fmt(min(w["min"] for w in windows)),
                     fmt(max(w["max"] for w in windows)),
                     sparkline(means)))
    out.extend(table(
        ["point", "series", "windows", "min", "max", "trend"], rows))
    out.append("")


def render_flight(flight_lines, out):
    if not flight_lines:
        return
    out.append("## Flight recorder")
    out.append("")
    dumps = [l for l in flight_lines if "trigger" in l]
    suppressed = [l for l in flight_lines
                  if l.get("event") == "flight_dumps_suppressed"]
    if not dumps and not suppressed:
        out.append("No postmortem triggers fired.")
        out.append("")
        return
    rows = [
        (d["point"], d["dump"], d["trigger"], fmt(d["t"]), d["id"],
         d["window"])
        for d in dumps
    ]
    out.extend(table(
        ["point", "dump", "trigger", "t", "id", "events"], rows))
    for s in suppressed:
        out.append("")
        out.append(f"Point {s['point']}: {s['suppressed']} further "
                   "trigger(s) suppressed after the dump cap.")
    out.append("")


def render_trace(trace_lines, out):
    if not trace_lines:
        return
    out.append("## Trace")
    out.append("")
    by_kind = {}
    truncated = 0
    for line in trace_lines:
        if "trace_truncated" in line.get("event", ""):
            truncated += 1
            continue
        by_kind[line["event"]] = by_kind.get(line["event"], 0) + 1
    out.extend(table(["event", "count"], sorted(by_kind.items())))
    if truncated:
        out.append("")
        out.append(f"{truncated} point(s) overflowed their trace buffer "
                   "(oldest-first retention; see obs.trace_dropped_events).")
    out.append("")


def render_session(bench, out):
    """Session-span sections for daemon runs (the chaos drill's report
    embeds the client's slot-stamped session event log)."""
    events = bench.get("session", [])
    if not events:
        return
    out.append("## Session")
    out.append("")
    counts = {}
    for e in events:
        counts[e["kind"]] = counts.get(e["kind"], 0) + 1
    out.extend(table(["event", "count"], sorted(counts.items())))
    out.append("")
    # The lifecycle spans: contiguous slot ranges between connection
    # state changes, so a reader sees where the session was healthy,
    # suspect, or reconnecting on the deterministic slot axis.
    span_kinds = {"connect", "link_suspect", "reconnect", "reconnect_failed",
                  "desync", "drain", "bye", "give_up", "protocol_error"}
    rows = []
    last = None
    for e in events:
        if e["kind"] not in span_kinds:
            continue
        if last is not None:
            rows.append((last["slot"], e["slot"], e["slot"] - last["slot"],
                         last["kind"]))
        last = e
    if last is not None:
        end = events[-1]["slot"]
        rows.append((last["slot"], end, end - last["slot"], last["kind"]))
    if rows:
        out.append("### Lifecycle spans")
        out.append("")
        out.extend(table(["from_slot", "to_slot", "slots", "state_entered"],
                         rows))
        out.append("")
    rates = [e["rate_bps"] for e in events if e["kind"] == "grant"]
    if rates:
        out.append(f"Granted-rate walk ({len(rates)} grants): "
                   f"`{sparkline(rates)}`")
        out.append("")


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("name", help="experiment name (BENCH_<name>.json stem)")
    parser.add_argument("--dir", default=".", help="artifact directory")
    parser.add_argument("--out", default="", help="write here instead of stdout")
    args = parser.parse_args(argv[1:])

    directory = pathlib.Path(args.dir)
    bench_path = directory / f"BENCH_{args.name}.json"
    if not bench_path.exists():
        print(f"rcbr_report: {bench_path} not found", file=sys.stderr)
        return 2
    bench = json.loads(bench_path.read_text())

    out = []
    render_results(bench, out)
    render_session(bench, out)
    render_counters(bench, out)
    render_spans(bench, out)
    render_series(read_jsonl(directory / f"TS_{args.name}.jsonl"), out)
    render_flight(read_jsonl(directory / f"FLIGHT_{args.name}.jsonl"), out)
    render_trace(read_jsonl(directory / f"TRACE_{args.name}.jsonl"), out)

    text = "\n".join(out).rstrip() + "\n"
    if args.out:
        pathlib.Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
