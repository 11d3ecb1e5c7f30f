#!/usr/bin/env python3
"""The FMEA-flow benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check            # traffic check, self-test
    python3 perfbench/run.py --write-reference  # rewrite perfbench/reference/

Builds the harness (perfbench/fmea_bench.cpp) and the library from source
into .bench_build/, runs one workload and prints, as the last line of
stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics (-1 marks a layer that is absent from
the workload or that the resolved engine does not emit).  Times are scaled
to an idle core of the reference host by the core speed the harness samples
while it runs.  The lines before it carry the run manifest and a table with
sample counts.  See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD / "fmea_bench"
GOLDEN = ROOT / "reports" / "memsys_sil3.golden.json"
WORKLOADS = ("sil3_report", "edit_iteration", "cpu_scenarios")
# Set-up samples per run, each in a fresh process.  Set-up includes the
# warm-up op, so a sample costs one op plus preparation: 8-10 s on the two
# memsys workloads, which therefore take one sample to keep a run short.
SETUP_SAMPLES = {"sil3_report": 1, "edit_iteration": 1, "cpu_scenarios": 3}
HARNESS_TIMEOUT_S = 170
ABSENT = -1
# The host-speed sampler's kernel time on an idle core of the reference host
# (see "Host speed" in perfbench/README.md).  Times are reported in seconds
# of that core: measured time x REFERENCE_KERNEL_S / the kernel time sampled
# during it.
REFERENCE_KERNEL_S = 210e-6


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(*targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: no socfmea sources under {ROOT}")
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD)],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                    *(targets or ("fmea_bench",))],
                   stdout=sys.stderr, check=True)


def harness(workload, seed, seconds, trace, *extra, tag="run"):
    """Runs the harness once; returns its raw samples and the warm-up op's
    verdict document."""
    work = BUILD / "work" / f"{workload}-{tag}-{os.getpid()}"
    doc = work.with_suffix(".doc.json")
    cmd = [str(HARNESS), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work", str(work), "--emit", str(doc), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
        if proc.returncode != 0:
            log(f"perfbench: harness exited with {proc.returncode}")
            sys.exit(1)
        return (json.loads(proc.stdout.strip().splitlines()[-1]),
                json.loads(doc.read_text()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        doc.unlink(missing_ok=True)


def subset(golden, actual, rtol=1e-9):
    """report_gate's rule: every member of `golden` exists in `actual`;
    numbers match within rtol, everything else exactly."""
    if isinstance(golden, bool) or isinstance(actual, bool):
        return golden == actual
    if isinstance(golden, (int, float)):
        return isinstance(actual, (int, float)) and (
            golden == actual or abs(golden - actual) <=
            max(rtol * max(abs(golden), abs(actual)), 1e-12))
    if isinstance(golden, dict):
        return isinstance(actual, dict) and all(
            k in actual and subset(v, actual[k]) for k, v in golden.items())
    if isinstance(golden, list):
        return (isinstance(actual, list) and len(golden) == len(actual) and
                all(map(subset, golden, actual)))
    return golden == actual


def same(a, b):
    return subset(a, b) and subset(b, a)


def matches_references(workload, doc):
    """At seed 0: the checked-in reference of the workload, and for
    sil3_report the metrics golden CI gates on."""
    reference = HERE / "reference" / f"{workload}.json"
    ok = subset(json.loads(reference.read_text()), doc)
    if workload == "sil3_report":
        ok = ok and subset(json.loads(GOLDEN.read_text()), doc["report"])
    if not ok:
        log(f"perfbench: {workload} does not match its reference at seed 0")
    return ok


def median_or_absent(values):
    return statistics.median(values) if values else ABSENT


def slowdown(sample, prefix=""):
    """How much slower than the reference core the sampled span ran."""
    return sample[prefix + "host_kernel_s"] / REFERENCE_KERNEL_S


def scaled(sample, seconds, prefix=""):
    """`seconds` of a span, less the time the sampler took from it, in
    seconds of the reference core."""
    return (seconds - sample[prefix + "host_busy_s"]) / slowdown(sample, prefix)


def setup_seconds(raw):
    return scaled(raw, raw["setup_s"], "setup_")


def end_to_end(raw, setups):
    ops = [o for o in raw["ops"] if "wall_s" in o]
    times = [scaled(o, o["wall_s"]) for o in ops]
    return {
        "op_p50_s": (statistics.median(times), len(times)),
        "faults_per_s": (sum(o["verdicts"] for o in ops) / sum(times),
                         len(times)),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (raw["peak_rss_mb"], 1),
    }


def per_layer(raw, units):
    """Layer times are scaled by their op's slowdown, rates inversely."""
    traced = [o for o in raw["ops"] if o["traced"] and "layers" in o]
    untraced = [scaled(o, o["wall_s"]) for o in raw["ops"]
                if not o["traced"] and "wall_s" in o]

    def adjust(value, unit, factor):
        if unit == "s":
            return value / factor
        return value * factor if unit == "1/s" else value

    out = {}
    for name, unit in units.items():
        if name in raw["setup_layers"]:
            out[name] = (adjust(raw["setup_layers"][name], unit,
                                slowdown(raw, "setup_")), 1)
            continue
        values = [adjust(o["layers"][name], unit, slowdown(o))
                  for o in traced if name in o["layers"]]
        out[name] = (median_or_absent(values), len(values))
    ratio = (statistics.median(scaled(o, o["wall_s"]) for o in traced) /
             statistics.median(untraced))
    out["trace.overhead"] = (ratio - 1.0, len(traced) + len(untraced))
    timed = [o for o in raw["ops"] if "wall_s" in o]
    out["host.slowdown"] = (statistics.median(map(slowdown, timed)),
                            len(timed))
    return out


def run(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build()
    raw, doc = harness(args.workload, args.seed, args.seconds, args.trace)
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer(raw, units)
    else:
        setups = [setup_seconds(raw)]
        for i in range(1, SETUP_SAMPLES[args.workload]):
            raw_setup, _ = harness(args.workload, args.seed, 0, False,
                                   "--setup-only", tag=f"setup{i}")
            setups.append(setup_seconds(raw_setup))
        metrics = end_to_end(raw, setups)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    # A wrong reference makes every op wrong, since each must equal it.
    reference_ok = raw["warmup_ok"] and (
        args.seed != 0 or matches_references(args.workload, doc))
    attempted = len(raw["ops"])
    failed = (sum(1 for o in raw["ops"] if not o["ok"]) if reference_ok
              else attempted)
    print(json.dumps({"manifest": raw["manifest"]}))
    timed = [o for o in raw["ops"] if "wall_s" in o]
    print(f"# {args.workload} seed {args.seed}: {attempted} ops, {failed}"
          f" failed, op_error_rate {failed / attempted:.4f}; unscaled op wall"
          f" p50 {statistics.median(o['wall_s'] for o in timed):.6g} s, host"
          f" slowdown p50 {statistics.median(map(slowdown, timed)):.4g}")
    for name, (value, n) in metrics.items():
        shown = "absent" if value == ABSENT else f"{value:.6g}"
        print(f"#   {name:40s} {shown:>14s} {units[name]:6s} (n={n})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }))


# ---- traffic check, self-test and reference regeneration --------------------

def strip(doc, *keys):
    drop = {"execution", "telemetry", "graph", *keys}
    if isinstance(doc, dict):
        return {k: strip(v, *keys) for k, v in doc.items() if k not in drop}
    if isinstance(doc, list):
        return [strip(v, *keys) for v in doc]
    return doc


def emit(workload):
    return harness(workload, 0, 0, False, "--setup-only", tag="emit")[1]


def cli(work, binary, *args):
    log(f"perfbench: {binary} {' '.join(args)}")
    subprocess.run([str(BUILD / "socfmea" / "examples" / binary), *args],
                   cwd=work, stdout=subprocess.DEVNULL, check=True,
                   timeout=HARNESS_TIMEOUT_S)


def check():
    """Traffic check: at seed 0 each workload's verdict document equals what
    the CLI it mirrors writes with --json.  Self-test: one flipped verdict
    fails its op."""
    build("fmea_bench", "memsys_sil3_flow", "cpu_mitigation_flow")
    work = BUILD / "check"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cli(work, "memsys_sil3_flow", "--json", "sil3.json")
    cli(work, "memsys_sil3_flow", "--cache-dir", "D", "--json", "prime.json")
    for name in ("edit", "hit"):
        cli(work, "memsys_sil3_flow", "--cache-dir", "D", "--edit",
            "wbuf-parity", "--json", f"{name}.json")
    cli(work, "cpu_mitigation_flow", "--json", "cpu.json")

    def load(name):
        return json.loads((work / name).read_text())

    docs = {w: emit(w) for w in WORKLOADS}
    cli_only = ("schema", "edit", "sil_name")
    results = {
        "memsys_sil3_flow": same(strip(load("sil3.json")),
                                 docs["sil3_report"]["report"]),
        "memsys_sil3_flow --cache-dir D --edit wbuf-parity (delta)": same(
            strip(load("edit.json"), *cli_only),
            strip(docs["edit_iteration"]["delta"], "records")),
        "memsys_sil3_flow --cache-dir D --edit wbuf-parity (hit)": same(
            strip(load("hit.json"), *cli_only),
            strip(docs["edit_iteration"]["hit"], "records")),
        "cpu_mitigation_flow": same(load("cpu.json")["scenarios"],
                                    docs["cpu_scenarios"]["scenarios"]),
    }
    for w in WORKLOADS:
        results[f"reference {w}"] = matches_references(w, docs[w])
        raw = harness(w, 0, 0, False, "--perturb", tag="perturb")[0]
        failed = sum(1 for o in raw["ops"] if not o["ok"])
        results[f"self-test {w}: flipped verdict -> op_error_rate "
                f"{failed}/{len(raw['ops'])}"] = failed == len(raw["ops"]) == 1
    shutil.rmtree(work, ignore_errors=True)
    for what, ok in results.items():
        print(f"{'PASS' if ok else 'FAIL'}  {what}")
    return 0 if all(results.values()) else 1


def write_reference():
    build()
    for w in WORKLOADS:
        doc = emit(w)
        if w == "sil3_report":  # the report itself is pinned by the golden
            del doc["report"]
        (HERE / "reference" / f"{w}.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n")
        log(f"perfbench: wrote perfbench/reference/{w}.json")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check", action="store_true")
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args()
    if args.check:
        return check()
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        p.error("--workload is required")
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
