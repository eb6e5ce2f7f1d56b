#!/usr/bin/env python3
"""Guard the DP scheduler's runtime and optimality against regressions.

Compares a BENCH_tab1_dp_runtime.json produced by `bench/tab1_dp_runtime`
against the checked-in ceilings (tools/dp_runtime_floor.json) and fails
if any matching K's wall-clock exceeds its ceiling, if the optimal
cost found drifts above its pinned bound (a fast DP that prunes valid
transitions is not a speedup), if the peak resident backtracking
record bytes exceed theirs, or if the trellis size (total_nodes) is not
exactly the pinned count.

The ceilings are deliberately loose — tens of times above what dedicated
hardware measures — because CI runners are slow and noisy; the check is
meant to catch a complexity-class slip in the trellis (frontier merge,
arena append, streaming recompute), not a few percent of jitter. The
record-byte ceilings are tight instead: the count does not depend on
the host, so a memory regression cannot hide in noise. The node counts
are pinned exactly: every retained node is a Lemma-1 survivor, so a
change to the frontiers fails here even when the cost still matches.

Usage: check_dp_runtime.py BENCH_tab1_dp_runtime.json [floor.json]
"""
import json
import pathlib
import sys


def main(argv):
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench_path = pathlib.Path(argv[1])
    floor_path = (
        pathlib.Path(argv[2])
        if len(argv) == 3
        else pathlib.Path(__file__).parent / "dp_runtime_floor.json"
    )
    bench = json.loads(bench_path.read_text())
    floors = json.loads(floor_path.read_text())

    measured = {p["parameters"]["K"]: p["metrics"] for p in bench["points"]}
    failures = []
    checked = 0
    for entry in floors["ceilings"]:
        k = entry["K"]
        if k not in measured:
            continue  # --quick runs only a subset of the full sweep
        checked += 1
        metrics = measured[k]
        seconds = metrics["seconds"]
        status = "ok" if seconds <= entry["max_seconds"] else "FAIL"
        print(
            f"K={k:>4.0f}: {seconds:8.3f} s "
            f"(ceiling {entry['max_seconds']:.1f} s) {status}"
        )
        if seconds > entry["max_seconds"]:
            failures.append(k)
        # Optimality pin: the cost must not creep above the known optimum
        # (small upward slack absorbs FP noise across toolchains).
        if "max_cost" in entry and metrics["cost"] > entry["max_cost"]:
            print(
                f"  FAIL: cost {metrics['cost']:.1f} above pinned optimum "
                f"bound {entry['max_cost']:.1f}"
            )
            failures.append(k)
        if "max_record_bytes" in entry:
            record_bytes = metrics.get("record_bytes")
            ceiling = entry["max_record_bytes"]
            if record_bytes is None:
                print("  FAIL: no record_bytes metric in the benchmark output")
                failures.append(k)
            elif record_bytes > ceiling:
                print(
                    f"  FAIL: record bytes {record_bytes:.0f} above ceiling "
                    f"{ceiling}"
                )
                failures.append(k)
        if "total_nodes" in entry:
            nodes = metrics.get("total_nodes")
            if nodes != entry["total_nodes"]:
                print(
                    f"  FAIL: total_nodes {nodes} is not the pinned "
                    f"{entry['total_nodes']}"
                )
                failures.append(k)
    if checked == 0:
        print("no ceiling points matched the benchmark output", file=sys.stderr)
        return 2
    if failures:
        print(f"{len(failures)} DP runtime point(s) regressed", file=sys.stderr)
        return 1
    print(f"all {checked} matched point(s) within ceilings")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
