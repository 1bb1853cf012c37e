"""Summarise benchmark runs recorded with ``bench/run.py --record FILE``.

    python3 bench/compare.py RUNS.jsonl               # median and spread per metric
    python3 bench/compare.py BASE.jsonl NEW.jsonl     # ratio NEW/BASE per metric

Runs are grouped by workload and by trace mode. The spread of a metric is the
distance between the first and third quartiles of its runs
(``statistics.quantiles(values, n=4)``), as a share of their median. With two
files each row gives the ratio of the medians with its base and a verdict
against the metric's bound from ``BENCHMARK.json``: "worse" when NEW is worse
than BASE by more than the bound, "unresolved" when either side's spread
exceeds the bound (unless every NEW run beats every BASE run), otherwise "ok".
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict[tuple[str, int], dict[str, list[float]]]:
    """(workload, trace) -> metric -> values, one per recorded run."""
    runs: dict[tuple[str, int], dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            group = runs[(record["machine"]["workload"], record["machine"]["trace"])]
            result = record["result"]
            group["failed"].append(float(result["failed"]))
            for name, metric in result["metrics"].items():
                group[name].append(metric["value"])
    return runs


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def bounds() -> dict[str, tuple[float, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def summarise(path: str) -> None:
    limits = bounds()
    print(f"{'workload':<17} {'metric':<42} {'runs':>4} {'median':>14} {'spread':>7} {'bound':>6}  verdict")
    for (workload, trace), metrics in sorted(load(path).items()):
        for name, values in metrics.items():
            s = spread(values)
            bound = limits.get(name, (None,))[0]
            verdict = ""
            if bound is not None:
                verdict = "steady" if s <= bound / 3 else "within bound" if s <= bound else "UNSTEADY"
            print(f"{workload:<17} {name:<42} {len(values):>4} {statistics.median(values):>14.6g} "
                  f"{s:>7.3f} {bound if bound is not None else '':>6}  {verdict}")


def compare(base_path: str, new_path: str) -> None:
    limits = bounds()
    base, new = load(base_path), load(new_path)
    print(f"{'workload':<17} {'metric':<42} {'base':>12} {'new':>12} {'new/base':>9} "
          f"{'spread b/n':>11}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, _ = key
        for name in base[key]:
            if name not in new[key]:
                continue
            b, n = base[key][name], new[key][name]
            mb, mn = statistics.median(b), statistics.median(n)
            ratio = mn / mb if mb else float("nan")
            verdict = ""
            if name in limits:
                bound, better = limits[name]
                worse = (mn - mb) / mb if better == "lower" else (mb - mn) / mb
                all_better = (max(n) < min(b)) if better == "lower" else (min(n) > max(b))
                if max(spread(b), spread(n)) > bound and not all_better:
                    verdict = "unresolved"
                else:
                    verdict = "worse" if worse > bound else "ok"
            print(f"{workload:<17} {name:<42} {mb:>12.6g} {mn:>12.6g} {ratio:>9.3f} "
                  f"{spread(b):>5.3f}/{spread(n):<5.3f}  {verdict}")


if __name__ == "__main__":
    if len(sys.argv) == 2:
        summarise(sys.argv[1])
    elif len(sys.argv) == 3:
        compare(sys.argv[1], sys.argv[2])
    else:
        sys.exit(__doc__)
