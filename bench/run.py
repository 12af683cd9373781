"""The multifract benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. With --trace 0 it times fresh
`python -m multifract.cli` processes on a price CSV generated from the
seed and reports the end-to-end metrics; with --trace 1 it calls the CLI
in-process with spans around each module's public functions and reports
the per-layer metrics. Either way it checks the program's outputs against
computations made apart from the program, and prints one JSON object as
the last line of standard output. See README.md.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
import reference
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / "work"
SETUP_CODE = "import multifract.cli as cli; cli.build_parser(); print(cli.__file__)"
NUMERIC_ARTIFACTS = ("surface_*.tsv", "spectrum_*.tsv", "ensemble_stats_*.tsv",
                     "delta_*_samples_*.tsv", "report_*.json")
CASCADE_P = 0.3
NPROC = len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    command: str          # "analyze" or "spectrum"
    orders: tuple
    surrogates: int       # 0 for "spectrum"
    workers: int
    returns: object       # seed -> log returns written to the CSV
    oracle: object        # (run_dir, tag) -> failures

    def argv(self, csv_path, out_dir, seed, workers=None):
        argv = [self.command, "--input", csv_path, "--out", out_dir]
        for order in self.orders:
            argv += ["--detrend-order", str(order)]
        if self.command == "analyze":
            argv += ["--surrogates", str(self.surrogates), "--seed", str(seed),
                     "--workers", str(workers or self.workers)]
        return argv


WORKLOADS = {
    "grain-l1l2": Workload(
        "analyze", (1, 2), 16, 1,
        lambda seed: inputs.grain_returns(5799, seed),
        lambda run_dir, tag: []),
    "cascade-l1-pool": Workload(
        "analyze", (1,), 100, NPROC,
        lambda seed: inputs.cascade_returns(14, CASCADE_P, seed),
        lambda run_dir, tag: reference.check_cascade_oracle(run_dir, tag, CASCADE_P)),
    "spectrum-long": Workload(
        "spectrum", (1, 2), 0, 1,
        lambda seed: inputs.gaussian_returns(2 ** 18, seed),
        reference.check_noise_oracle),
}


def _rel(path):
    return Path(path).relative_to(ROOT).as_posix()


def _env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("MULTIFRACT_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(args, log_path):
    """Run one process to its end; wall time, CPU of its whole process
    tree, peak resident set of any process in it, and exit code."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=_env(),
                                stdout=log, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}


def _hashes(run_dir):
    files = sorted(p for pattern in NUMERIC_ARTIFACTS for p in Path(run_dir).glob(pattern))
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def check_outputs(workload, run_dir, profile):
    """Every check made apart from the program on one run directory."""
    failures = []
    for order in workload.orders:
        tag = f"l{order}"
        try:
            failures += reference.check_surface(run_dir, tag, profile, order)
            failures += reference.check_spectrum(run_dir, tag)
            if workload.command == "analyze":
                failures += reference.check_report(run_dir, tag, workload.surrogates)
            failures += workload.oracle(run_dir, tag)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failures.append(f"{tag}: unreadable artifact: {exc!r}")
    return failures


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _prepare(name, seed):
    """Fresh work directory and the workload's price CSV for this seed."""
    if not (SRC / "multifract" / "cli.py").is_file():
        _fail(f"no multifract sources under {SRC}")
    work = WORK / name / f"seed-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    csv_path = work / "prices.csv"
    inputs.write_price_csv(csv_path, WORKLOADS[name].returns(seed))
    profile = np.cumsum(reference.log_returns(reference.read_prices(csv_path)))
    return work, _rel(csv_path), profile


def _setup_probe(work):
    """One fresh interpreter that imports the CLI and builds its parser."""
    sample = _spawn(["-c", SETUP_CODE], work / "setup.log")
    if sample["code"] != 0:
        _fail(f"importing multifract.cli failed, see {work / 'setup.log'}")
    return sample["wall_s"]


def run_timed(name, seed, seconds):
    workload = WORKLOADS[name]
    work, csv_path, profile = _prepare(name, seed)
    _setup_probe(work)  # warm-up: byte-compiles and fills the file cache
    if not (work / "setup.log").read_text().strip().startswith(str(SRC)):
        _fail("multifract.cli was imported from outside this checkout")

    setups, samples, digests, failed = [], [], [], 0
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        setups.append(_setup_probe(work))
        out = work / f"op{len(setups)}"
        sample = _spawn(["-m", "multifract.cli", *workload.argv(csv_path, _rel(out), seed)],
                        work / f"{out.name}.log")
        if sample["code"] != 0:
            failed += 1
            if failed > 2 * len(samples) + 2:
                _fail(f"{name}: the CLI keeps failing, see {work}")
            continue
        samples.append(sample)
        digests.append(_hashes(out))
        if len(samples) == 1:
            checked = out
        else:
            shutil.rmtree(out)

    failures = check_outputs(workload, checked, profile)
    if any(d != digests[0] for d in digests):
        failures.append("numeric artifacts differ between repeated runs")
    metrics = {key: (statistics.median(s[key] for s in samples), unit)
               for key, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))}
    metrics["setup_s"] = (statistics.median(setups), "s")
    return failures, len(samples) + failed, failed, metrics


def _call_main(cli, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(argv)
        return time.perf_counter() - t0, code


def run_traced(name, seed, seconds):
    """One timed-configuration CLI process as the reference, then pairs of
    in-process CLI calls with one worker, untraced and traced."""
    workload = WORKLOADS[name]
    work, csv_path, profile = _prepare(name, seed)
    sys.path.insert(0, str(SRC))
    import multifract.cli as cli
    import multifract.mfdfa as mfdfa
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        _fail("multifract.cli was imported from outside this checkout")

    start = time.perf_counter()
    timed_out = work / "timed"
    timed = _spawn(["-m", "multifract.cli", *workload.argv(csv_path, _rel(timed_out), seed)],
                   work / "timed.log")
    if timed["code"] != 0:
        _fail(f"{name}: the CLI failed, see {work / 'timed.log'}")
    want = _hashes(timed_out)

    plain, traced, per_call, records, failures = [], [], [], [], []
    attempted, failed = 1, 0
    while not traced or time.perf_counter() - start < seconds:
        pair = len(plain) + failed
        plain_out, traced_out = work / f"plain{pair}", work / f"traced{pair}"
        wall, code = _call_main(cli, workload.argv(csv_path, _rel(plain_out), seed, workers=1))
        tracer = spans.Tracer()
        spans.install(tracer, cli, mfdfa)
        try:
            wall_traced, code_traced = _call_main(
                cli, workload.argv(csv_path, _rel(traced_out), seed, workers=1))
        finally:
            tracer.restore()
        attempted += 2
        if code != 0 or code_traced != 0:
            failed += (code != 0) + (code_traced != 0)
            if failed > 2 * len(plain) + 2:
                _fail(f"{name}: in-process CLI calls keep failing")
            continue
        for out in (plain_out, traced_out):
            if _hashes(out) != want:
                failures.append(f"{_rel(out)}: numeric artifacts differ from {_rel(timed_out)}")
        failures += tracer.failures
        plain.append(wall)
        traced.append(wall_traced)
        per_call.append(spans.layer_metrics(tracer.spans))
        records.append({"wall_s": wall_traced, "spans": tracer.spans})
        if len(traced) == 1:
            checked = traced_out
        else:
            shutil.rmtree(traced_out)
        shutil.rmtree(plain_out)

    failures += check_outputs(workload, checked, profile)
    for key in spans.COUNTS:
        if any(m[key] != per_call[0][key] for m in per_call):
            failures.append(f"{key} differs between traced calls")
    (work / "spans.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "untraced_wall_s": plain, "traced": records}))

    metrics = {key: (statistics.median(m[key] for m in per_call), unit)
               for key, unit in spans.UNITS.items()}
    # each traced call against the untraced call just before it, so that
    # both see the machine in the same state
    metrics["trace.overhead_ratio"] = (
        statistics.median(t / u for t, u in zip(traced, plain)) - 1.0, "ratio")
    return failures, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description="The multifract benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run = run_traced if args.trace else run_timed
    failures, attempted, failed, metrics = run(args.workload, args.seed, args.seconds)
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
