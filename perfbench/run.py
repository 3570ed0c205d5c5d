"""Seeded benchmark of relmag: three workloads, timed end to end and per module.

    python3 perfbench/run.py --workload certify_large --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports relmag from ./src.  A
workload is a fixed instance set built from the seed; the run repeats whole
passes over it, at least two (one untraced and one traced with --trace 1),
and more while another pass still ends within --seconds.  Each instance
goes from the text the CLI reads to the JSON document the CLI prints; every output is
then verified by checker.py, outside the timed region.  With --trace 0 the
last line reports the end-to-end metrics, with --trace 1 the per-layer
metrics from spans around every public relmag function (see tracing.py and
README.md).  Exits 1 when an output fails the check, 2 when relmag cannot
be imported from ./src.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("certify_large", "solve_fuzz", "omega_mixed")
SETUP_REPEATS = 15
MIN_PASSES = 2
# Calibration: a fixed task of the benchmark's own code (checker.py, no
# relmag), timed between instances about every CAL_EVERY_S of instance time.
# Other tenants of a shared host slow the whole machine, at times by 2x for
# minutes, and the task slows with it; reported times are in units of the
# task's time, times CAL_REFERENCE_MS, its best time on a 2-vCPU Xeon VM at
# 2.0 GHz.  See README.md, "Measurement".
CAL_MATRIX = ((2, -1, 0, 3, 1, -2, 1), (1, 3, -2, 0, -1, 1, 2), (0, 1, 3, -1, 2, 2, -3))
CAL_REPEATS = 6
CAL_EVERY_S = 0.05
CAL_REFERENCE_MS = 4.0
SETUP_CAL_SAMPLES = 4
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

# A fresh interpreter's time to import relmag and its CLI module.
SETUP_CHILD = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import relmag, relmag.cli\n"
    "print(time.perf_counter() - t)\n"
)


def import_relmag():
    sys.path.insert(0, str(SRC))
    try:
        import relmag
        import relmag.cli  # noqa: F401  (its bindings are patched when tracing)
    except ImportError as exc:
        print("error: cannot import relmag from %s: %s" % (SRC, exc), file=sys.stderr)
        sys.exit(2)
    if SRC.resolve() not in Path(relmag.__file__).resolve().parents:
        print("error: relmag was imported from %s, not %s" % (relmag.__file__, SRC), file=sys.stderr)
        sys.exit(2)


def calibration_ms() -> float:
    """One timing of the calibration task, in ms."""
    import checker

    t0 = time.perf_counter_ns()
    for _ in range(CAL_REPEATS):
        checker.circuit_supports(CAL_MATRIX)
    return (time.perf_counter_ns() - t0) / 1e6


def measure_setup() -> tuple[list[float], list[float]]:
    """Import times of fresh interpreters, raw and scaled.  Each is scaled by
    the median of the calibration timings just before and after it, so that
    a slow phase of the machine cancels out."""
    def calibration_block():
        return [calibration_ms() for _ in range(SETUP_CAL_SAMPLES)]

    raw, scaled = [], []
    before = calibration_block()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        after = calibration_block()
        raw.append(float(done.stdout))
        scaled.append(raw[-1] * CAL_REFERENCE_MS / statistics.median(before + after))
        before = after
    return raw, scaled


class Passes:
    """Whole passes over the instance set, with one sample per instance per pass.

    Samples are kept per mode (untraced or traced).  The first pass's
    outputs are the reference; an output of a later pass that differs from
    it counts as a mismatch.  Calibration timings run at fixed places in
    every pass (before the first instance, then after about CAL_EVERY_S of
    instance time in the first pass), so they sample the machine's speed
    over the same seconds as the pass's instances.  A pass's samples are
    scaled by CAL_REFERENCE_MS over the mean of its own calibration
    timings, and medians over passes are taken of the scaled figures: a
    slow phase of the machine, which slows the calibration task alike,
    cancels out pass by pass.
    """

    def __init__(self, instances):
        self.instances = instances
        self.samples_ns: dict[str, list[list[int]]] = {}  # per instance, one per pass
        self.pass_ns: dict[str, list[int]] = {}  # per pass, its instances' total
        self.pass_cal: dict[str, list[list[float]]] = {}  # per pass, its calibration timings
        self.outputs = None
        self.mismatches = [0] * len(instances)
        self.passes = 0
        self.cal_slots = None  # indices of the instances a calibration precedes

    def run_pass(self, mode="untraced"):
        import workloads

        per_instance = self.samples_ns.setdefault(mode, [[] for _ in self.instances])
        calibration = []
        outputs = []
        first = self.cal_slots is None
        if first:
            self.cal_slots = []
        since_calibration = slot = total = 0
        for i, (inst, samples) in enumerate(zip(self.instances, per_instance)):
            if first and (i == 0 or since_calibration >= CAL_EVERY_S * 1e9):
                self.cal_slots.append(i)
                since_calibration = 0
            if slot < len(self.cal_slots) and self.cal_slots[slot] == i:
                calibration.append(calibration_ms())
                slot += 1
            t0 = time.perf_counter_ns()
            try:
                out = workloads.pipeline(inst)(inst.text)
            except Exception as exc:  # recorded as this instance's failed output
                out = json.dumps({"error": type(exc).__name__, "message": str(exc)})
            samples.append(time.perf_counter_ns() - t0)
            since_calibration += samples[-1]
            total += samples[-1]
            outputs.append(out)
        self.pass_ns.setdefault(mode, []).append(total)
        self.pass_cal.setdefault(mode, []).append(calibration)
        if self.outputs is None:
            self.outputs = outputs
        else:
            for i, out in enumerate(outputs):
                self.mismatches[i] += out != self.outputs[i]
        self.passes += 1

    def passes_of(self, mode="untraced") -> int:
        return len(self.pass_ns[mode])

    def factors(self, mode="untraced", scaled=True) -> list[float]:
        """Per pass, the factor from ns to reference-speed ms."""
        return [CAL_REFERENCE_MS / statistics.mean(cal) / 1e6 if scaled else 1e-6
                for cal in self.pass_cal[mode]]

    def calibration_ms(self) -> float:
        """Median calibration timing of the run, both modes."""
        return statistics.median(t for cals in self.pass_cal.values() for cal in cals for t in cal)

    def mean_scale(self, mode="untraced") -> float:
        """The factor for times summed over the passes of one mode."""
        return CAL_REFERENCE_MS / statistics.mean(t for cal in self.pass_cal[mode] for t in cal)

    def latencies_ms(self, mode="untraced", scaled=True) -> list[float]:
        """Per instance, the median over passes of its scaled samples."""
        factors = self.factors(mode, scaled)
        return [statistics.median(t * f for t, f in zip(s, factors))
                for s in self.samples_ns[mode]]

    def rate(self, mode="untraced", scaled=True) -> float:
        """Instances per second: the set size over the median scaled pass time."""
        pass_ms = statistics.median(t * f for t, f in zip(self.pass_ns[mode], self.factors(mode, scaled)))
        return len(self.instances) / (pass_ms / 1e3)

    @property
    def attempted(self) -> int:
        return self.passes * len(self.instances)

    def failed(self, reasons) -> int:
        """Failed runs: every run of an instance whose output fails the
        check (reasons[i] is set), plus each run whose output differs from
        the checked one."""
        return sum(self.passes if reason else mismatched
                   for reason, mismatched in zip(reasons, self.mismatches))


def repeat(seconds: float, min_rounds: int, *steps):
    """Run the steps in turn, round after round: at least min_rounds rounds,
    and more while another round, as long as the longest so far, still
    ends within `seconds`.  Returns the wall time."""
    start = time.perf_counter()
    rounds = 0
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed + longest > seconds:
            return elapsed
        for step in steps:
            step()
        rounds += 1
        longest = max(longest, time.perf_counter() - start - elapsed)


def tail_percentile(set_size: int):
    """Highest ladder percentile with >= 10 instances beyond it.

    It depends only on the instance-set size, so every run of a workload
    reports the same percentile.  None means the set is too small for any
    and the maximum is reported.
    """
    for p in TAIL_LADDER:
        if set_size * (100 - p) / 100 >= 10:
            return p
    return None


def latency_tail(latencies_ms: list[float]):
    ordered = sorted(latencies_ms)
    p = tail_percentile(len(ordered))
    rank = len(ordered) if p is None else math.ceil(p / 100 * len(ordered))
    label = "max" if p is None else "p%g" % p
    return ordered[rank - 1], label, len(ordered) - rank


def check_all(instances, outputs):
    import checker

    return [checker.check(inst.spec, out) for inst, out in zip(instances, outputs)]


def run_selftest():
    """Plant wrong outputs and confirm the checker counts each one as failed."""
    import random

    import checker
    import workloads

    system = workloads.extremal(2, 6)
    matrix = workloads.random_matrix(random.Random(7), 3, 6)
    planted, caught, false_alarms = checker.selftest(
        system, workloads.solve_text(system.text()),
        matrix, workloads.omega_text(matrix.text()),
    )
    print("checker self-test: %d planted wrong outputs, %d counted failed "
          "(failed_frac %d/%d = %.3f); %d of %d correct outputs counted failed"
          % (planted, caught, caught, 2 * planted, caught / (2 * planted),
             false_alarms, planted))
    return caught == planted and false_alarms == 0


def determinism(outputs) -> dict:
    digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()[:16]
    docs = [json.loads(o) for o in outputs]
    return {
        "digest": digest,
        "rejected": sum("rejected" in d for d in docs),
        "circuits": sum(len(d.get("circuits", ())) for d in docs),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, instances) -> tuple[dict, int, int]:
    setup_raw, setup = measure_setup()
    run = Passes(instances)
    wall = repeat(args.seconds, MIN_PASSES, run.run_pass)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reasons = check_all(instances, run.outputs)
    failed = run.failed(reasons)
    latencies_ms = run.latencies_ms()
    tail, label, beyond = latency_tail(latencies_ms)
    metrics = {
        "instances_per_s": metric(run.rate(), "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies_ms), "ms"),
        "latency_tail_ms": metric(tail, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    print("workload %s seed %d: %d instances per pass, %d passes in %.2f s"
          % (args.workload, args.seed, len(instances), run.passes, wall))
    for name, m in metrics.items():
        print("%s = %.6g %s" % (name, m["value"], m["unit"]))
    print("latency_tail_ms is the %s of %d per-instance latencies, %d beyond it"
          % (label, len(latencies_ms), beyond))
    print("failed_frac = %.6g (%d of %d attempted)" % (failed / run.attempted, failed, run.attempted))
    print("latencies are per-instance medians over the passes")
    print("setup_s is the median of %d fresh interpreters: %s"
          % (len(setup), " ".join("%.4f" % t for t in setup)))
    print("times are scaled to the reference speed pass by pass: calibration median "
          "%.4f ms, reference %.1f ms; unscaled: instances_per_s = %.6g 1/s, "
          "latency_p50_ms = %.6g ms, setup_s = %.6g s"
          % (run.calibration_ms(), CAL_REFERENCE_MS, run.rate(scaled=False),
             statistics.median(run.latencies_ms(scaled=False)), statistics.median(setup_raw)))
    det = determinism(run.outputs)
    print("determinism: digest=%s rejected=%d circuits=%d" % (det["digest"], det["rejected"], det["circuits"]))
    report_failures(instances, reasons)
    return metrics, run.attempted, failed


def report_failures(instances, reasons):
    bad = [(inst.label, r) for inst, r in zip(instances, reasons) if r]
    for label, reason in bad[:10]:
        print("FAILED %s: %s" % (label, reason))


# Spans whose self time, and whose call count, are per-layer metrics.
SELF_MS = (
    "systems.parse_system", "systems.reduce_system", "systems.chain_decompose",
    "systems.assemble", "systems.solve_assembled", "systems.solve_and_certify",
    "detbounds.certify_solution_bound", "detbounds.hadamard_fischer_check",
    "matrices.parse_matrix", "matrices.determinant", "matrices.IntegerMatrix.gram",
    "matrices.solve_unique", "matrices.cramer_solve", "matrices.nullspace_basis",
    "matrices.rank", "circuits.enumerate_circuits", "magnitude.omega_matrix_upper",
    "magnitude.omega_vector", "report.to_dict",
)
CALLS = (
    "detbounds.hadamard_fischer_check", "matrices.determinant",
    "matrices.IntegerMatrix.gram", "matrices.nullspace_basis", "matrices.rank",
    "circuits.enumerate_circuits", "magnitude.omega_vector",
)
VALIDATE = "matrices.IntegerMatrix.__post_init__"


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


def per_layer(args, instances) -> tuple[dict, int, int]:
    import tracing
    import workloads

    run = Passes(instances)
    tracer = tracing.Tracer()
    benchmark_spans = [
        ("bench.instance", workloads, "solve_text"),
        ("bench.instance", workloads, "omega_text"),
        ("report.to_dict", workloads, "emit"),
    ]

    def traced_pass():
        tracer.install(benchmark_spans)
        try:
            run.run_pass("traced")
        finally:
            tracer.uninstall()

    # untraced and traced passes alternate, so drift in machine speed
    # falls on both sides of trace.overhead_frac alike
    wall = repeat(args.seconds, 1, run.run_pass, traced_pass)
    reasons = check_all(instances, run.outputs)
    failed = run.failed(reasons)
    per_pass = run.passes_of("traced")

    selfs = tracer.self_times()
    names = [tracer.names[i] for i in tracer.span_name]
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    # owner: module of the nearest span that is not in matrices (parents come first)
    owner: list[str] = []
    split = {"detbounds": 0, "systems": 0}
    rejected = rejected_ns = detbounds_tree_ns = 0
    for i, name in enumerate(names):
        self_ns[name] = self_ns.get(name, 0) + selfs[i]
        calls[name] = calls.get(name, 0) + 1
        mod = module_of(name)
        p = tracer.parent[i]
        owner.append(mod if mod != "matrices" or p < 0 else owner[p])
        if name == "matrices.determinant" and owner[i] in split:
            split[owner[i]] += selfs[i]
        if mod == "detbounds" or (mod == "matrices" and owner[i] == "detbounds"):
            detbounds_tree_ns += selfs[i]
        if name == "systems.reduce_system" and tracer.raised.get(i) == "UnsolvableSystemError":
            rejected += 1
            rejected_ns += selfs[i]
    total_self = sum(selfs)

    def ms(ns):
        return ns / 1e6 / per_pass * run.mean_scale("traced")

    metrics = {}
    for name in SELF_MS:
        metrics[name + ".self_ms"] = metric(ms(self_ns.get(name, 0)), "ms")
    for name in CALLS:
        metrics[name + ".calls"] = metric(calls.get(name, 0) / per_pass, "count")
    metrics["systems.reduce_system.rejected"] = metric(rejected / per_pass, "count")
    metrics["systems.reduce_system.rejected_ms"] = metric(ms(rejected_ns), "ms")
    metrics["matrices.determinant.max_bits"] = metric(tracer.max_det_bits, "bits")
    metrics["matrices.determinant.under_detbounds_ms"] = metric(ms(split["detbounds"]), "ms")
    metrics["matrices.determinant.under_systems_ms"] = metric(ms(split["systems"]), "ms")
    metrics["matrices.IntegerMatrix.constructed"] = metric(calls.get(VALIDATE, 0) / per_pass, "count")
    metrics["matrices.IntegerMatrix.validate_ms"] = metric(ms(self_ns.get(VALIDATE, 0)), "ms")
    metrics["circuits.enumerate_circuits.found"] = metric(tracer.circuits_found / per_pass, "count")
    metrics["layer_map.detbounds_tree_frac"] = metric(detbounds_tree_ns / total_self, "ratio")
    metrics["layer_map.reduce_system_frac"] = metric(self_ns.get("systems.reduce_system", 0) / total_self, "ratio")
    metrics["layer_map.enumerate_circuits_frac"] = metric(
        self_ns.get("circuits.enumerate_circuits", 0) / total_self, "ratio")
    metrics["trace.overhead_frac"] = metric(
        1 - run.rate("traced") / run.rate(), "ratio")

    print("workload %s seed %d: %d instances per pass; %d untraced and %d traced "
          "passes in %.2f s, %d spans"
          % (args.workload, args.seed, len(instances), run.passes_of(), per_pass,
             wall, len(names)))
    print("per-layer times and counts are per pass over the instance set; times are "
          "scaled to the reference speed by %.4f, the reference over the mean "
          "calibration timing of the traced passes" % run.mean_scale("traced"))
    for name, m in metrics.items():
        print("%s = %.6g %s" % (name, m["value"], m["unit"]))
    top = sorted(self_ns.items(), key=lambda kv: -kv[1])
    print("largest self times: " + ", ".join(
        "%s %.1f%%" % (n, 100 * t / total_self) for n, t in top[:6]))
    expected = {
        "certify_large": ("detbounds plus the matrices calls under it >= 80% of self time",
                          detbounds_tree_ns / total_self >= 0.8),
        "solve_fuzz": ("systems.reduce_system has the largest self time",
                       top[0][0] == "systems.reduce_system"),
        "omega_mixed": ("circuits.enumerate_circuits has the largest self time",
                        top[0][0] == "circuits.enumerate_circuits"),
    }[args.workload]
    print("layer map: %s: %s" % (expected[0], "holds" if expected[1] else "DOES NOT HOLD"))
    det = determinism(run.outputs)
    print("determinism: digest=%s rejected=%d circuits=%d enumerate_circuits.found=%d "
          "max_det_bits=%d" % (det["digest"], det["rejected"], det["circuits"],
                               tracer.circuits_found // per_pass, tracer.max_det_bits))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / ("spans-%s-seed%d.txt" % (args.workload, args.seed))
    tracer.write(path)
    print("spans written to %s" % path.relative_to(ROOT))
    report_failures(instances, reasons)
    return metrics, run.attempted, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_relmag()
    # workloads, checker and tracing import relmag, so every import of them
    # comes after import_relmag() has put ./src on the path
    import workloads

    instances = workloads.build(args.workload, args.seed)
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed = measure(args, instances)
    selftest_ok = run_selftest()
    correct = failed == 0 and selftest_ok
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
