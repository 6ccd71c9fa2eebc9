"""The eukleia benchmark: seeded CLI workloads with known answers.

One client drives ``eukleia.cli.main([..., "--json"])`` in this process as a
closed loop: each invocation starts when the previous one has returned.  The
inputs come in rounds generated from ``--seed``; a run measures whole rounds
until ``--seconds`` have passed, then checks every report against the answer
its generator knows (see gen.py).

    python3 bench/run.py --workload check-scripts --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every round
twice, untraced and traced, and prints the per-layer metrics together with
the tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Without
``--workload`` every workload runs once, each in a fresh process started one
at a time, and a table with one row per workload is printed.

The package is imported from ``src/`` next to this directory, never from an
installed copy: the run exits with code 2 when that source tree is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Relative to ROOT, the working directory of a run, so that reports do not
# depend on where the checkout lives.
CORPUS = Path("src", "eukleia", "corpus")
WORK = Path("bench", "_work")
OUT = Path("bench", "_out")

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

# Model-check trials per invocation: enough trials that sampling noise
# averages out within one invocation, few enough that a run holds over a
# hundred invocations, so p90 has ten samples beyond it.
REJECTION_TRIALS = 10
CONSTRUCTIVE_TRIALS = 50
SETUP_SPAWNS = 11


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def _near(rng: random.Random, n: int) -> int:
    """An even size within a factor 2**0.4 of ``n``.

    Fixed sizes would give latencies a few discrete levels, and a percentile
    falling between two levels jumps from run to run; jittered sizes spread
    the levels into a continuum while keeping the work per round steady.
    """
    return 2 * max(1, round(n * 2 ** rng.uniform(-0.4, 0.4) / 2))


def rejection_round(rng: random.Random, workdir: Path) -> list[gen.Case]:
    """prop13 and prop15: every split is onto the fixed whole R, so trials
    are rejection sampling."""
    cases = []
    for name in ("prop13", "prop15") * 4:
        argv = ["modelcheck", str(CORPUS / f"{name}.eap"), "--trials", str(REJECTION_TRIALS), "--seed", _seed(rng)]
        cases.append(gen.Case(name, argv, REJECTION_TRIALS, trials=REJECTION_TRIALS))
    return cases


def constructive_round(rng: random.Random, workdir: Path) -> list[gen.Case]:
    """Corpus files whose splits compose onto variable wholes (or that have
    no split), and generated split chains with growing multisets."""
    t = CONSTRUCTIVE_TRIALS
    cases = []
    for name in ("four_rights", "postulate5", "prop16", "prop25"):
        argv = ["modelcheck", str(CORPUS / f"{name}.eap"), "--trials", str(t), "--seed", _seed(rng)]
        cases.append(gen.Case(name, argv, t, trials=t))
    for _ in range(6):
        script = gen.split_chain_script(rng, rng.randint(2, 24))
        argv = ["modelcheck", "--trials", str(t), "--seed", _seed(rng)]
        cases.append(script.case(workdir / f"{script.name}.eap", argv, trials=t))
    return cases


def check_round(rng: random.Random, workdir: Path) -> list[gen.Case]:
    """The corpus and its mutations, long rule chains, nested cases blocks,
    and corrupted copies whose failing label the generator knows."""
    scripts = [gen.chain_script(rng, _near(rng, n)) for n in (5, 10, 20, 40)]
    scripts += [gen.nested_cases_script(rng, _near(rng, d)) for d in (3, 9, 27)]
    scripts += [gen.chain_script(rng, _near(rng, 20), corrupt=True),
                gen.nested_cases_script(rng, _near(rng, 9), corrupt=True)]
    cases = gen.corpus_cases(CORPUS)
    cases += [s.case(workdir / f"{s.name}.eap", ["check"]) for s in scripts]
    return cases


def kernel_round(rng: random.Random, workdir: Path) -> list[gen.Case]:
    """Literal multisets from about 50 to 13 000 angles, small and large
    coordinates, shared and disjoint operands."""
    cases = []
    for n in (64, 128, 256):
        cases += gen.kernel_cases(rng, _near(rng, n), 10**6)
    for n in (100, 100, 100, 100, 400, 400, 1600, 4000):
        cases += gen.kernel_cases(rng, _near(rng, n), 20)
    cases += [c for c in gen.kernel_cases(rng, _near(rng, 10_000), 20) if c.argv[0] == "eval"]
    return cases


WORKLOADS = {
    "modelcheck-rejection": rejection_round,
    "modelcheck-constructive": constructive_round,
    "check-scripts": check_round,
    "kernel-large": kernel_round,
}

# The layer each workload's time should sit in and its least share of self
# time, as predicted from profiles before the benchmark existed.  A traced run
# reports every workload where the measurement disagrees.
PREDICTED = {
    "modelcheck-rejection": ("semantics", 90),
    "modelcheck-constructive": ("semantics", 50),
    "check-scripts": ("dsl", 70),
    "kernel-large": ("kernel", 60),
}


class Client:
    """The closed-loop client: runs cases, times them, checks their reports."""

    def __init__(self, main):
        self.main = main
        self.latencies: list[float] = []
        self.work = 0
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self._seen: dict[str, str] = {}  # argv digest -> report digest

    def run(self, cases: list[gen.Case], tracer: Tracer | None = None) -> list[str]:
        outputs = []
        for case in cases:
            argv = case.argv + ["--json"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = tracer.call(self.main, argv) if tracer else self.main(argv)
                except (Exception, SystemExit) as exc:  # counted as a failed invocation
                    code = exc
                t1 = time.perf_counter()
            if tracer:
                tracer.fold()
            self.latencies.append(t1 - t0)
            self.work += case.work
            outputs.append(out.getvalue())
            self.check(case, argv, code, out.getvalue())
        return outputs

    def check(self, case: gen.Case, argv: list[str], code, out: str) -> None:
        """Count one invocation; record a failure if its report is wrong."""
        self.attempted += 1
        if not isinstance(code, int):
            self.fail(case.name, f"raised {type(code).__name__}: {str(code)[:200]}")
            return
        reason = gen.verify(case, code, out)
        key = hashlib.sha256("\0".join(argv).encode()).hexdigest()
        digest = hashlib.sha256(out.encode()).hexdigest()
        if reason is None and self._seen.setdefault(key, digest) != digest:
            reason = "report differs from an earlier run of the same input"
        if reason is not None:
            self.fail(case.name, reason)

    def fail(self, name: str, reason: str) -> None:
        self.failures.append((name, reason))


def _percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _setup_seconds(client: Client) -> float:
    """Median wall time of a fresh interpreter evaluating ``{R}``, spawned one at a time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "eukleia", "eval", "{R}", "--json"]
    case = gen.Case("setup-eval", argv[3:], 1, result="turns=0, rep=(0,1)")
    times = []
    for i in range(SETUP_SPAWNS + 1):  # the first spawn only warms the file cache
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        if i:
            times.append(time.perf_counter() - t0)
            client.check(case, argv, proc.returncode, proc.stdout)
    return statistics.median(times)


def _rounds(workload: str, seed: int):
    """Yield each round's cases; generated files live only for their round.

    Round r runs pinned to the r-th allowed CPU in turn.  On a shared host
    the CPUs differ in speed for minutes at a time, so a run left on one CPU
    measures that CPU; cycling makes every run sample all of them equally.
    """
    make = WORKLOADS[workload]
    base = WORK / f"{workload}-{seed}"
    cpus = sorted(os.sched_getaffinity(0))
    try:
        for r in itertools.count():
            shutil.rmtree(base, ignore_errors=True)
            workdir = base / f"r{r}"
            workdir.mkdir(parents=True)
            os.sched_setaffinity(0, {cpus[r % len(cpus)]})
            yield make(random.Random(seed * 1_000_003 + r), workdir)
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def _traced_pass(client: Client, cases: list[gen.Case], tracer: Tracer, keep: bool) -> list[str]:
    tracer.keep = keep
    tracer.install()
    try:
        return client.run(cases, tracer)
    finally:
        tracer.uninstall()


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from eukleia.cli import main

    plain, traced, tracer = Client(main), Client(main), Tracer()
    first: dict = {}  # tracer totals after round 0, whose counts repeat exactly per seed
    round0 = hashlib.sha256()
    deadline = time.perf_counter() + seconds
    rounds = _rounds(workload, seed)
    for r, cases in enumerate(rounds):
        # Alternate which pass runs first, so that warm caches favour neither.
        if trace and r % 2:
            traced_outputs = _traced_pass(traced, cases, tracer, keep=False)
        outputs = plain.run(cases)
        if trace and not r % 2:
            traced_outputs = _traced_pass(traced, cases, tracer, keep=r == 0)
        if trace:
            for case, a, b in zip(cases, outputs, traced_outputs):
                if a != b:
                    traced.fail(case.name, "traced report differs from the untraced one")
        if r == 0:
            round0.update("".join(outputs).encode())
            first = dict(tracer.totals)
        if time.perf_counter() >= deadline:
            break
    rounds.close()
    passes = r + 1

    clients = (plain, traced) if trace else (plain,)
    if trace:
        metrics = _layer_metrics(first, tracer.totals, passes, plain, traced)
        tracer.write(OUT / f"{workload}.spans.jsonl.gz")
    else:
        metrics = {
            **_end_to_end(plain),
            "setup_s": {"value": _setup_seconds(plain), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    return {
        "workload": workload,
        "seed": seed,
        "rounds": passes,
        "round0_sha256": round0.hexdigest(),
        "attempted": sum(c.attempted for c in clients),
        "failures": [f for c in clients for f in c.failures],
        "counts": {k: v for k, v in sorted(first.items()) if not k.endswith("_s")},
        "metrics": metrics,
    }


def _end_to_end(client: Client) -> dict:
    ms = [t * 1000 for t in client.latencies]
    return {
        "latency_ms.p50": {"value": statistics.median(ms), "unit": "ms"},
        "latency_ms.p90": {"value": _percentile(ms, 90), "unit": "ms"},
        "work_per_s": {"value": client.work / sum(client.latencies), "unit": "1/s"},
    }


def _layer_metrics(first: dict, t: dict, passes: int, plain: Client, traced: Client) -> dict:
    """Per-layer metrics: counts and count ratios of round 0, which repeat
    exactly for a seed; times per round and rates over every traced round."""
    out: dict = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def count(name):
        put(name, int(first.get(name, 0)), "count")

    def ratio(name, num, den):
        put(name, first.get(num, 0) / first[den] if first.get(den) else 0.0, "ratio")

    def ms(name, key):
        put(name, t[key] * 1000 / passes, "ms")

    def rate(name, num, den, unit):
        put(name, t[num] / t[den] if t[den] else 0.0, unit)

    for layer in LAYERS:
        count(f"{layer}.calls")
        ms(f"{layer}.busy_ms", f"{layer}.busy_s")
        ms(f"{layer}.self_ms", f"{layer}.self_s")
        put(f"{layer}.self_share", 100 * t[f"{layer}.self_s"] / t["cli.busy_s"], "%")
    rate("dsl.bytes_per_s", "dsl.bytes", "dsl.busy_s", "B/s")
    count("calculus.steps")
    rate("calculus.steps_per_s", "calculus.steps", "calculus.busy_s", "1/s")
    count("semantics.trials")
    ratio("semantics.satisfied_ratio", "semantics.satisfied", "semantics.trials")
    rv = "semantics.random_valuation"
    count(f"{rv}.calls")
    ms(f"{rv}.self_ms", f"{rv}.self_s")
    ratio(f"{rv}.unsatisfied_ratio", f"{rv}.unsatisfied", f"{rv}.calls")
    ej = "semantics.eval_judgment"
    count(f"{ej}.calls")
    ms(f"{ej}.self_ms", f"{ej}.self_s")
    for fn in ("sum_multiset", "compare_multisets", "add_two"):
        count(f"kernel.{fn}.calls")
    ratio("kernel.add_two.overflow_ratio", "kernel.add_two.overflows", "kernel.add_two.calls")
    count("kernel.angles")
    rate("kernel.angles_per_s", "kernel.angles", "kernel.busy_s", "1/s")
    # Tracing overhead: traced against untraced passes over the same inputs.
    on, off = _end_to_end(traced), _end_to_end(plain)
    for name in ("latency_ms.p50", "latency_ms.p90"):
        put(f"trace_overhead.{name}", 100 * (on[name]["value"] / off[name]["value"] - 1), "%")
    put("trace_overhead.work_per_s", 100 * (off["work_per_s"]["value"] / on["work_per_s"]["value"] - 1), "%")
    return out


# ---------------------------------------------------------------------------


def _print_result(result: dict) -> None:
    for name, reason in result["failures"]:
        print(f"FAILED {name}: {reason}")
    print(f"workload {result['workload']} seed {result['seed']}: {result['rounds']} rounds, "
          f"{result['attempted']} invocations, {len(result['failures'])} failed, "
          f"round-0 reports sha256 {result['round0_sha256']}")
    for name, v in result["counts"].items():
        print(f"  count {name} = {int(v)}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if "cli.self_share" in result["metrics"]:
        shares = {layer: result["metrics"][f"{layer}.self_share"]["value"] for layer in LAYERS}
        dominant = max(shares, key=shares.get)
        layer, least = PREDICTED[result["workload"]]
        agrees = dominant == layer and shares[layer] >= least
        print(f"dominant layer {dominant} with {shares[dominant]:.1f} % of self time; predicted {layer} "
              f"with at least {least} %" + ("" if agrees else ": MISMATCH"))
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": result["metrics"],
    }))


# The end-to-end metrics in table order.  work_per_s is shown under the name
# of each workload's unit of work, and error_ratio is failed / attempted.
_COLUMNS = [("setup_s", "s"), ("latency_ms.p50", "ms"), ("latency_ms.p90", "ms"), ("trials_per_s", "1/s"),
            ("steps_per_s", "1/s"), ("angles_per_s", "1/s"), ("error_ratio", "ratio"), ("peak_rss_mb", "MB")]
_WORK_NAMES = {
    "modelcheck-rejection": "trials_per_s",
    "modelcheck-constructive": "trials_per_s",
    "check-scripts": "steps_per_s",
    "kernel-large": "angles_per_s",
}


def _table(seed: int, seconds: int, trace: bool) -> int:
    """Run every workload in its own fresh process, one at a time, and tabulate:
    one row per workload, or with ``trace`` one column per workload."""
    results = {}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        for line in lines:
            if line.startswith(("FAILED", "dominant")):
                print(f"{workload}: {line}")
        res = json.loads(lines[-1])
        values = {name: m["value"] for name, m in res["metrics"].items()}
        if not trace:
            values[_WORK_NAMES[workload]] = values.pop("work_per_s")
            values["error_ratio"] = res["failed"] / res["attempted"]
        results[workload] = values
    if trace:
        print(f"{'metric':<46}" + "".join(f"{w:>26}" for w in results))
        for name in next(iter(results.values())):
            print(f"{name:<46}" + "".join(f"{v[name]:>26.6g}" for v in results.values()))
        return 0
    print(f"{'workload':<26}" + "".join(f"{f'{n} [{u}]':>24}" for n, u in _COLUMNS))
    for workload, values in results.items():
        print(f"{workload:<26}" + "".join(
            f"{values[n]:>24.6g}" if n in values else f"{'-':>24}" for n, _ in _COLUMNS))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eukleia" / "cli.py").is_file():
        print(f"error: no eukleia source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import eukleia

    if Path(eukleia.__file__).resolve().parent != SRC / "eukleia":
        print(f"error: imported eukleia from {eukleia.__file__}, not {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload is None:
        return _table(args.seed, args.seconds, bool(args.trace))
    _print_result(measure(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
