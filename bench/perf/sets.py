#!/usr/bin/env python3
"""Run sets of bench/perf runs and compare them against BENCHMARK.json.

  python3 bench/perf/sets.py run SET [--seeds 7] [--runs 3] [--workloads a,b]
                                     [--trace 0|1] [--seconds S]
  python3 bench/perf/sets.py spread SET
  python3 bench/perf/sets.py compare A B

`run` builds perf.exe once, runs every workload `--runs` times at every
seed (default: 3 runs at seed 7, every step of perf.exe) and appends one
JSON line per run to SET. `--seeds` takes a list such as 1-10 or 3,7.

`spread` prints, per workload and metric, the median and the distance
between the first and third quartiles as a share of the median, next to
the metric's bound.

`compare` prints how much worse each median of B is than A's, in the
metric's direction. It exits 1 when an end-to-end metric is worse by more
than its bound, or when a simulated end-to-end metric (`sim_*`) differs
between two runs of one workload at one seed, in either set: the
simulator is deterministic, so those must repeat exactly.

Run from the repository root.
"""

import json
import statistics
import subprocess
import sys

EXE = "_build/default/bench/perf/perf.exe"


def bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(args):
    path, opts = args[0], dict(zip(args[1::2], args[2::2]))
    b = bench()
    workloads = opts.get("--workloads", ",".join(w["name"] for w in b["workloads"]))
    seconds = opts.get("--seconds", str(b["run_seconds"]))
    trace = ["--trace", opts["--trace"]] if "--trace" in opts else []
    subprocess.run(["dune", "build", "bench/perf/perf.exe"], check=True)
    with open(path, "a") as out:
        for seed in seeds_of(opts.get("--seeds", "7")):
            for i in range(int(opts.get("--runs", "3"))):
                for w in workloads.split(","):
                    cmd = [EXE, "--workload", w, "--seed", str(seed), "--seconds", seconds] + trace
                    p = subprocess.run(cmd, capture_output=True, text=True)
                    if p.returncode != 0:
                        sys.exit(f"{' '.join(cmd)}: exit {p.returncode}\n{p.stderr}")
                    result = json.loads(p.stdout.strip().splitlines()[-1])
                    rec = {"workload": w, "seed": seed, "run": i, "result": result}
                    out.write(json.dumps(rec) + "\n")
                    out.flush()
                    print(f"{w} seed={seed} run={i} done", file=sys.stderr)


def records(path):
    with open(path) as f:
        return [json.loads(line) for line in f]


def load(recs):
    groups = {}
    for rec in recs:
        for name, m in rec["result"]["metrics"].items():
            groups.setdefault((rec["workload"], name), []).append(m["value"])
    return groups


def metrics():
    b = bench()
    return {m["name"]: m for m in b["end_to_end"] + b["per_layer"]}


def spread(args):
    ms = metrics()
    for (w, name), vals in sorted(load(records(args[0])).items()):
        med = statistics.median(vals)
        if len(vals) >= 2:
            q = statistics.quantiles(vals, n=4)
            s = (q[2] - q[0]) / med if med else 0.0
        else:
            s = 0.0
        bound = ms.get(name, {}).get("bound")
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "OVER" if s > bound else ("wide" if s > bound / 3 else "ok")
        print(f"{w:10} {name:26} n={len(vals):<3} median={med:<14.6g} "
              f"spread={s:8.4f} bound={bound if bound is not None else '-'} {flag}")


def unrepeated(recs):
    """Simulated end-to-end values that differ between runs of one
    workload at one seed."""
    seen, bad = {}, []
    for rec in recs:
        for name, m in rec["result"]["metrics"].items():
            if name.startswith("sim_"):
                key = (rec["workload"], rec["seed"], name)
                first = seen.setdefault(key, m["value"])
                if m["value"] != first:
                    bad.append(f"{key[0]} seed={key[1]} {name}: {first!r} vs {m['value']!r}")
    return bad


def compare(args):
    ms = metrics()
    ra, rb = records(args[0]), records(args[1])
    a, b = load(ra), load(rb)
    bad = 0
    for key in sorted(set(a) & set(b)):
        w, name = key
        ma, mb = statistics.median(a[key]), statistics.median(b[key])
        m = ms.get(name, {})
        sign = 1 if m.get("better") == "lower" else -1
        worse = sign * (mb - ma) / abs(ma) if ma else 0.0
        bound = m.get("bound")
        over = bound is not None and worse > bound
        bad += over
        print(f"{w:10} {name:26} a={ma:<14.6g} b={mb:<14.6g} worse={worse:+.4f} "
              f"bound={bound if bound is not None else '-'}{' REGRESSION' if over else ''}")
    for line in unrepeated(ra + rb):
        print(f"NOT REPEATED {line}")
        bad += 1
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    cmds = {"run": run, "spread": spread, "compare": compare}
    if len(sys.argv) < 3 or sys.argv[1] not in cmds:
        sys.exit(__doc__)
    cmds[sys.argv[1]](sys.argv[2:])
