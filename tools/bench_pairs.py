"""Compare two checkouts on the benchmark in alternating pairs of runs.

    python3 tools/bench_pairs.py PARENT CHANGE --seeds 11-20 \
        [--workloads NAME[,NAME...]] [--json PATH]

For each workload of `BENCHMARK.json` (of this repository, only read), or
each one that `--workloads` names, in the file's order, and each seed it
runs `python3 bench/run.py --trace 0` for the benchmark's `run_seconds` in
the PARENT checkout and in the CHANGE checkout, one after the other: the
parent first on odd seeds, the change first on even ones, so that a drift
of the host's speed falls on both sides alike. Each run's last line of
output is its result object. For each end-to-end metric that
`BENCHMARK.json` lists, it prints one table row: the parent's median
(first–third quartile), the change's, the change of the median in percent,
the parent's quartile spread over its median, and the pairs the change won,
judged by the metric's `better`, over the pairs of two good runs. Then it
lists every run that was not `correct`, that had `failed` instances, or
that printed no result, and every seed of a workload whose two runs
printed different `fingerprint ... sha256=...` lines: the digests of their
seeded results. Each run's result goes to standard error as it ends. With
`--json PATH` it also writes that comparison, with the seeds, the run
length and the workloads, to PATH (see `compare`).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    """'11-20' -> [11, ..., 20]; '7' -> [7]."""
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_bench(checkout, workload, seed, seconds):
    """The result object of one run in `checkout`, with the sha256 of its
    fingerprint line (None without one) under "fingerprint", or None if its
    last line is not one."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    result["fingerprint"] = next((line.rpartition("sha256=")[2]
                                  for line in lines
                                  if line.startswith("fingerprint ")), None)
    return result


def run_pairs(parent, change, workloads, seeds, seconds):
    """{workload: [(seed, parent result, change result)]}."""
    pairs = {}
    for workload in workloads:
        for seed in seeds:
            got = {}
            for side in (0, 1) if seed % 2 else (1, 0):
                got[side] = run_bench((parent, change)[side], workload, seed,
                                      seconds)
                print(workload, seed, ("parent", "change")[side],
                      json.dumps(got[side]), file=sys.stderr, flush=True)
            pairs.setdefault(workload, []).append((seed, got[0], got[1]))
    return pairs


def quartiles(values):
    """(median, first quartile, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def num(value):
    """Four significant digits, or the whole number from 1,000 up."""
    return f"{value:.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def fault(result):
    """Why a run's result is bad, or None for a good one."""
    if result is None:
        return "no result"
    if not result["correct"] or result["failed"]:
        return f"correct {result['correct']}, failed {result['failed']}"
    return None


def compare(pairs, metrics):
    """The comparison of `pairs`, as `run_pairs` returns them, on `metrics`,
    the end-to-end entries of `BENCHMARK.json`: {"rows": one dict per
    workload and metric, "bad": one line per bad run, "differ": one line
    per pair of results whose fingerprints differ}. A row holds the
    parent's and the change's median and quartiles over the pairs of two
    good runs, the change of the median (a fraction), the parent's
    quartile spread over its median, the pairs the change won, and the
    pairs counted."""
    rows, bad, differ = [], [], []
    for workload, runs in pairs.items():
        both = []  # the pairs of two good runs
        for seed, *results in runs:
            faults = [(side, fault(result)) for side, result
                      in zip(("parent", "change"), results)]
            bad += [f"{workload} seed {seed} {side}: {why}"
                    for side, why in faults if why]
            prints = [result.get("fingerprint") for result in results
                      if result is not None]
            if len(prints) == 2 and prints[0] != prints[1]:
                differ.append(f"{workload} seed {seed}: parent {prints[0]}, "
                              f"change {prints[1]}")
            if not any(why for _, why in faults):
                both.append(results)
        for metric in metrics:
            name = metric["name"]
            old = [p["metrics"][name]["value"] for p, _ in both]
            new = [c["metrics"][name]["value"] for _, c in both]
            if not old:
                continue
            (om, o1, o3), (nm, n1, n3) = quartiles(old), quartiles(new)
            higher = metric["better"] == "higher"
            won = sum((c > p) if higher else (c < p) for p, c in zip(old, new))
            rows.append({"workload": workload, "metric": name,
                         "parent": {"median": om, "q1": o1, "q3": o3},
                         "change": {"median": nm, "q1": n1, "q3": n3},
                         "change_of_median": nm / om - 1,
                         "parent_spread": (o3 - o1) / om,
                         "won": won, "pairs": len(both)})
    return {"rows": rows, "bad": bad, "differ": differ}


def summarize(pairs, metrics):
    """Markdown table rows of `compare`, then one line per bad run and one
    per pair of results whose fingerprints differ."""
    table = compare(pairs, metrics)
    lines = ["| workload | metric | parent median (q1–q3) | change median "
             "(q1–q3) | change | parent IQR/median | change won |",
             "|---|---|---|---|---|---|---|"]
    for row in table["rows"]:
        old, new = row["parent"], row["change"]
        lines.append(
            f"| {row['workload']} | {row['metric']} | {num(old['median'])} "
            f"({num(old['q1'])}–{num(old['q3'])}) | {num(new['median'])} "
            f"({num(new['q1'])}–{num(new['q3'])}) | "
            f"{row['change_of_median']:+.1%} | {row['parent_spread']:.1%} | "
            f"{row['won']}/{row['pairs']} |")
    return (lines + [f"bad run: {line}" for line in table["bad"]]
            + [f"fingerprint differs: {line}" for line in table["differ"]])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--seeds", type=seed_range, default="11-20",
                        help="seed range, as FIRST-LAST (default 11-20)")
    parser.add_argument("--workloads", type=lambda text: text.split(","),
                        help="comma-separated workloads to run (default: "
                        "every workload of BENCHMARK.json)")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also write the comparison to PATH as JSON")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        unknown = sorted(set(args.workloads) - set(workloads))
        if unknown:
            parser.error(f"unknown workloads: {', '.join(unknown)}")
        workloads = [name for name in workloads if name in args.workloads]
    pairs = run_pairs(args.parent, args.change, workloads, args.seeds,
                      spec["run_seconds"])
    print("\n".join(summarize(pairs, spec["end_to_end"])))
    if args.json:
        args.json.write_text(json.dumps(
            {"seeds": args.seeds, "run_seconds": spec["run_seconds"],
             "workloads": workloads, **compare(pairs, spec["end_to_end"])},
            indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
