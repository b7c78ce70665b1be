"""Alternating parent/change pairs of the benchmark, written as a BENCH file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json \
        --pairs its:42:10 --pairs its:1234:10 --pairs etl:42:6 \
        --digest etl:1234 --traced its:42:2 --traced-unpinned its:42:1 \
        --scale 1000000 [--seconds 22]

``DIR`` is the root of a source checkout of each side; ``perfbench/run.py``
runs from there, as its docstring asks.  Give the same directory twice to
check the harness itself.  Standard library only.

* ``--pairs W:S:N`` runs N pairs of ``run.py --workload W --seed S --trace 0
  --seconds SECONDS``.  The side that runs first swaps on every pair, parent
  first on the first pair.  Each end-to-end metric gets the median and
  quartiles of each side, the change's wins and ties, and the median of the
  per-pair ratio change / parent.
* ``--digest W:S`` runs each side once with ``--seconds 1`` and keeps its
  ``correct`` flag and digests.
* ``--traced W:S:N`` runs N traced pairs with ``--seconds 1 --trace 1`` and
  keeps every metric the traced run reports, per-layer ones included.  Each
  traced run is pinned to one CPU (``os.sched_setaffinity`` on that child
  only), so rxgeo does its work in the stage process, where
  ``perfbench/tracer.py`` records it: on more CPUs, the spans of the work
  done in worker processes (every fit of ``its``) are lost.
* ``--traced-unpinned W:S:N`` runs N traced pairs as ``--traced`` does, on
  every CPU, as ``--pairs`` runs do; the layers of the stage process, such
  as ``intervention.its_batch``, are whole.
* ``--outputs N:S`` runs ``rxgeo simulate --seed S --n N``, ``ingest`` and
  ``classify`` once on each side, as the etl workload does, and keeps the
  SHA-256 of each file they write, manifests left out, with the digest
  ``perfbench/run.py`` takes of them, once over every file and once with
  the ``*.columns`` sidecars left out.  Every file the parent writes must
  be the same bytes on the change side, and a file only the change writes
  must be a ``*.columns`` sidecar.
* ``--cap-ingest N:CAP:K`` simulates N records at seed 42 with the change,
  then times ``rxgeo ingest --cap CAP`` on them K times each: the parent,
  the change reading the input's column sidecar, and the change parsing a
  copy of the input without it, in an order that rotates every round.  It
  keeps each run's wall and CPU seconds, peak RSS and output digests, which
  must all be equal (the change's ``clean.csv.columns`` left out).
* ``--scale N`` runs ``rxgeo simulate --seed 42 --n N``, then ``ingest``,
  ``classify`` and ``aggregate`` (a reader stage, on the classified CSV),
  twice on each side in the order parent, change, change, parent, each
  time in a fresh directory, so that drift that is linear over the run
  cancels in each side's mean.  It keeps every shot: each stage's wall and
  CPU seconds, peak RSS (``os.wait4``, as ``perfbench/run.py`` reads it)
  and the SHA-256 of each output file.  ``change_over_parent`` is the ratio
  of the two sides' means.

The BENCH file also records ``src_lines``, the line count of
``src/rxgeo/*.py`` in each checkout, as ``cat src/rxgeo/*.py | wc -l`` gives it.

Exits 1, after writing what it has, when a run is not correct, the two
sides' digests differ on any workload and seed, any two ``--scale`` shots'
outputs differ, an ``--outputs`` run differs by more than new sidecars, or a
``--cap-ingest`` run fails or writes other outputs.  A change that adds an
output file changes the digests of every workload that writes it, so its
pairs exit 1; ``--outputs`` then shows whether the sidecars are the only
difference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
SCALE_ORDER = ("parent", "change", "change", "parent")  # the --scale shots, in run order
# The stages of a --scale run: the stage, its arguments, and glob patterns of
# its outputs (manifests hold times, so they are left out).
SCALE_STAGES = (
    ("simulate", ["--seed", "42", "--out", "raw.csv"], ["raw.csv"]),
    ("ingest", ["--input", "raw.csv", "--out", "clean.csv", "--report", "filter_report.json"],
     ["clean.csv", "filter_report.json"]),
    ("classify", ["--input", "clean.csv", "--out", "classified.csv"], ["classified.csv"]),
    ("aggregate", ["--input", "classified.csv", "--outdir", "series"],
     ["series/series_*.csv", "series/aggregate_summary.json"]),
)


def run_bench(checkout: Path, workload: str, seed: int, seconds: float,
              trace: int, cpu: int | None = None) -> dict:
    """One run.py run, on CPU ``cpu`` alone if given: its result line, with
    the digests of its details line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          preexec_fn=pin)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    if proc.returncode or not result.get("correct"):
        print(f"{checkout}: {' '.join(cmd[1:])} failed (exit {proc.returncode})\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return {"correct": False, "metrics": {}}
    details = json.loads(lines[-2])
    return {"correct": True, "input_digest": details["input_digest"],
            "pass_digest": details["pass_digest"], "env": details["env"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_stage(checkout: Path, work: Path, stage: str, args: list[str],
              outputs: list[str]) -> dict:
    """One rxgeo stage of ``checkout`` as its own process in ``work``: its
    exit status, times, peak RSS and the digests of the ``outputs`` glob
    patterns' files."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(checkout / "src"), os.environ.get("PYTHONPATH")) if p),
        PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "rxgeo.cli", stage, *args]
    with open(work / f"{stage}.log", "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=log, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code:
        print(f"{checkout}: {' '.join(cmd[1:])} exited {code}\n"
              f"{(work / f'{stage}.log').read_text()[-2000:]}", file=sys.stderr)
    return {"exit": code, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "sha256": {path.relative_to(work).as_posix(): sha256(path)
                       for pattern in outputs for path in sorted(work.glob(pattern))}}


def run_scale(checkout: Path, n: int) -> dict:
    """The --scale stages on ``n`` records, each once as its own process;
    per stage its exit status, times, peak RSS and output digests.  Stops at
    the first stage that fails."""
    stages = {}
    with tempfile.TemporaryDirectory(prefix="bench_scale_") as tmp:
        for stage, args, outputs in SCALE_STAGES:
            args = [*args, "--n", str(n)] if stage == "simulate" else args
            stages[stage] = run_stage(checkout, Path(tmp), stage, args, outputs)
            if stages[stage]["exit"]:
                break
    return stages


def tree_digest(directory: Path, leave_out: str | None = None) -> str:
    """The digest ``perfbench/run.py`` takes of a directory: SHA-256 over
    each file's relative path and bytes, in sorted order, manifests left
    out, and also the files whose name ends with ``leave_out``, if given."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        if not path.name.startswith("manifest_") and not (
                leave_out and path.name.endswith(leave_out)):
            h.update(str(path.relative_to(directory)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def run_outputs(checkout: Path, n: int, seed: int) -> dict:
    """simulate, ingest and classify as the etl workload runs them, on
    ``n`` records at ``seed``: the exit status of each stage, and the
    digests of the files they write."""
    with tempfile.TemporaryDirectory(prefix="bench_outputs_") as tmp:
        work = Path(tmp)
        steps = [("simulate", ["--out", "raw.csv", "--n", str(n), "--seed", str(seed)]),
                 *((stage, args) for stage, args, _ in SCALE_STAGES[1:3])]
        exits = {stage: run_stage(checkout, work, stage, args, [])["exit"]
                 for stage, args in steps}
        for log in work.glob("*.log"):
            log.unlink()
        return {"exit": exits,
                "sha256": {p.name: sha256(p) for p in sorted(work.iterdir())
                           if not p.name.startswith("manifest_")},
                "digest": tree_digest(work), "digest_without_columns": tree_digest(
                    work, ".columns")}


def run_cap_ingest(dirs: dict[str, Path], n: int, cap: int, rounds: int) -> dict:
    """``--cap-ingest``: each run of each way, in run order per way."""
    ways = {"parent": (dirs["parent"], "hit"), "change": (dirs["change"], "hit"),
            "change_parsed": (dirs["change"], "parsed")}
    runs: dict[str, list[dict]] = {way: [] for way in ways}
    with tempfile.TemporaryDirectory(prefix="bench_cap_") as tmp:
        work = Path(tmp)
        for sub in ("hit", "parsed"):
            (work / sub).mkdir()
        run_stage(dirs["change"], work / "hit", "simulate",
                  ["--seed", "42", "--n", str(n), "--out", "raw.csv"], [])
        shutil.copyfile(work / "hit" / "raw.csv", work / "parsed" / "raw.csv")
        names = list(ways)
        for r in range(rounds):
            for way in names[r % 3:] + names[:r % 3]:
                checkout, sub = ways[way]
                runs[way].append(run_stage(checkout, work / sub, "ingest", [
                    "--input", "raw.csv", "--out", "out/clean.csv", "--report",
                    "out/filter_report.json", "--cap", str(cap)],
                    ["out/clean.csv", "out/filter_report.json"]))
                shutil.rmtree(work / sub / "out", ignore_errors=True)
    return runs


def src_lines(checkout: Path) -> int:
    """The newlines in ``src/rxgeo/*.py`` of a checkout."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "rxgeo").glob("*.py"))


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "n": 1, "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "n": len(values), "q1": q1, "q3": q3}


def summarize(better: str, parent: list[float], change: list[float]) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    return {"better": better, "parent": quartiles(parent), "change": quartiles(change),
            "parent_runs": parent, "change_runs": change, "change_wins": wins,
            "ties": ties, "median_ratio_change_over_parent": statistics.median(
                c / p for p, c in zip(parent, change))}


def swapped(i: int) -> tuple[str, str]:
    """The order of the two sides in pair i: parent first on even pairs."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def spec(text: str, parts: int) -> tuple:
    fields = text.split(":")
    if len(fields) != parts:
        raise argparse.ArgumentTypeError(f"expected {parts} ':'-separated fields, got {text!r}")
    return (fields[0], *map(int, fields[1:]))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--pairs", type=lambda t: spec(t, 3), action="append", default=[])
    ap.add_argument("--digest", type=lambda t: spec(t, 2), action="append", default=[])
    ap.add_argument("--traced", type=lambda t: spec(t, 3), action="append", default=[])
    ap.add_argument("--traced-unpinned", type=lambda t: spec(t, 3), action="append",
                    default=[])
    ap.add_argument("--scale", type=int, action="append", default=[])
    ap.add_argument("--outputs", type=lambda t: spec(t, 2), action="append", default=[])
    ap.add_argument("--cap-ingest", type=lambda t: spec(t, 3), action="append", default=[])
    args = ap.parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bad: list[str] = []
    every: list[dict] = []

    def bench(side: str, workload: str, seed: int, seconds: float, trace: int,
              cpu: int | None = None) -> dict:
        every.append(run_bench(dirs[side], workload, seed, seconds, trace, cpu))
        return every[-1]

    def check(label: str, runs: dict[str, dict]) -> None:
        for side, r in runs.items():
            if not r["correct"]:
                bad.append(f"{label}: a {side} run is not correct")
        if len({(r.get("input_digest"), r.get("pass_digest")) for r in runs.values()}) != 1:
            bad.append(f"{label}: the parent and change digests differ")

    out: dict = {
        "benchmark": f"python3 perfbench/run.py --workload W --seed S "
                     f"--seconds {args.seconds:g} (--trace 0)",
        "design": "alternating parent/change pairs ("
                  + ", ".join(f"{w}: {n} at seed {s}" for w, s, n in args.pairs)
                  + "); the side that runs first swaps every pair; parent and change "
                    "each run from their own checkout",
        "digest_only_runs": {}, "host": {}, "scale_runs": {}, "workloads": {},
        "output_runs": {}, "cap_ingest_runs": {},
        "src_lines": {side: src_lines(dirs[side]) for side in SIDES},
    }
    for workload, seed, n in args.pairs:
        label = f"{workload}/seed{seed}"
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        for i in range(n):
            for s in swapped(i):
                runs[s].append(bench(s, workload, seed, args.seconds, 0))
                print(f"{label} pair {i + 1}/{n} {s}: "
                      f"{runs[s][-1]['metrics'].get('completed_per_s')}", file=sys.stderr)
        for i in range(n):
            check(f"{label} pair {i + 1}", {s: runs[s][i] for s in SIDES})
        if any(not r["correct"] for side in SIDES for r in runs[side]):
            continue
        metrics = runs["parent"][0]["metrics"]
        better = {"peak_rss_mb": "lower", "setup_s": "lower"}
        out["workloads"][label] = {
            "digests": {s: {k: runs[s][0][k] for k in ("input_digest", "pass_digest")}
                        for s in SIDES},
            "first_side": [swapped(i)[0] for i in range(n)],
            "metrics": {m: summarize(better.get(m, "higher"),
                                     [r["metrics"][m] for r in runs["parent"]],
                                     [r["metrics"][m] for r in runs["change"]])
                        for m in sorted(metrics)},
            "pairs": n,
        }
    for workload, seed in args.digest:
        label = f"{workload}/seed{seed}"
        runs = {s: bench(s, workload, seed, 1, 0) for s in SIDES}
        check(label, runs)
        out["digest_only_runs"][label] = {
            s: {k: r.get(k) for k in ("correct", "input_digest", "pass_digest")}
            for s, r in runs.items()}
    pinned_cpu = min(os.sched_getaffinity(0))
    for key, specs, cpu in (("traced", args.traced, pinned_cpu),
                            ("traced_unpinned", args.traced_unpinned, None)):
        for workload, seed, n in specs:
            pairs = []
            for i in range(n):
                runs = {s: bench(s, workload, seed, 1, 1, cpu) for s in swapped(i)}
                check(f"{key} {workload}/seed{seed} pair {i + 1}", runs)
                pairs.append({s: {**runs[s]["metrics"],
                                  "pass_digest": runs[s].get("pass_digest")}
                              for s in SIDES})
            out[f"{key}_{workload}_seed{seed}"] = {
                "command": f"python3 perfbench/run.py --workload {workload} --seed {seed} "
                           "--seconds 1 --trace 1",
                "note": "one traced run per side per pair, the side that runs first "
                        "swapping every pair; the per-layer value is the minimum over "
                        "the traced passes of a run",
                "pinned_cpu": cpu,
                "pairs": pairs,
            }
    for n in args.scale:
        shots: dict[str, list[dict]] = {side: [] for side in SIDES}
        for side in SCALE_ORDER:
            shots[side].append(run_scale(dirs[side], n))
        every_shot = [shot for side in SIDES for shot in shots[side]]
        if any(len(shot) < len(SCALE_STAGES) or any(st["exit"] for st in shot.values())
               for shot in every_shot):
            bad.append(f"scale {n}: a stage failed")
        outputs = [{stage: r["sha256"] for stage, r in shot.items()} for shot in every_shot]
        equal = all(o == outputs[0] for o in outputs)
        if not equal:
            bad.append(f"scale {n}: the outputs of the shots differ")
        stages = [stage for stage, _, _ in SCALE_STAGES
                  if all(stage in shot for shot in every_shot)]
        out["scale_runs"][str(n)] = {
            "command": f"rxgeo simulate --seed 42 --n {n}, then ingest, classify and "
                       "aggregate, per shot",
            "order": list(SCALE_ORDER),
            "outputs_equal": equal,
            "change_over_parent": {
                stage: {m: statistics.mean(shot[stage][m] for shot in shots["change"])
                        / statistics.mean(shot[stage][m] for shot in shots["parent"])
                        for m in ("wall_s", "cpu_s", "peak_rss_mb")}
                for stage in stages},
            **shots,
        }
    for n, seed in args.outputs:
        sides = {side: run_outputs(dirs[side], n, seed) for side in SIDES}
        if any(code for r in sides.values() for code in r["exit"].values()):
            bad.append(f"outputs {n}:{seed}: a stage failed")
        parent, change = sides["parent"]["sha256"], sides["change"]["sha256"]
        only_in_change = sorted(set(change) - set(parent))
        if any(change.get(name) != digest for name, digest in parent.items()) or not all(
                name.endswith(".columns") for name in only_in_change):
            bad.append(f"outputs {n}:{seed}: the files differ by more than new sidecars")
        out["output_runs"][f"{n}:{seed}"] = {
            "command": f"rxgeo simulate --n {n} --seed {seed}, then ingest and classify",
            "only_in_change": only_in_change, **sides}
    for n, cap, rounds in args.cap_ingest:
        runs = run_cap_ingest(dirs, n, cap, rounds)
        shots = [r for way in runs.values() for r in way]
        equal = all(r["sha256"] == shots[0]["sha256"] for r in shots)
        if any(r["exit"] for r in shots) or not equal:
            bad.append(f"cap-ingest {n}:{cap}: a run failed or the outputs differ")
        out["cap_ingest_runs"][f"{n}:{cap}"] = {
            "command": f"rxgeo ingest --cap {cap} on rxgeo simulate --seed 42 --n {n}",
            "outputs_equal": equal,
            "median_wall_s": {way: statistics.median(r["wall_s"] for r in way_runs)
                              for way, way_runs in runs.items()},
            **runs}
    envs = [r["env"] for r in every if r["correct"]]
    out["host"] = envs[0] if envs else {}
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    for line in bad:
        print(line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
