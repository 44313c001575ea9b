"""Benchmark of gtsingular's verification checks.

    python3 perfbench/run.py --workload relations-q3 --seed 0 --seconds 25 --trace 0

One caller runs the workload's list of ``gtsingular.verify`` checks in a
closed loop, single-threaded, on specs built from ``--seed``.  Each pass
builds fresh inputs (so no pass reuses another's caches) and times the
check calls; passes repeat while the next one is expected to finish within
``--seconds``, and at least one runs.

With ``--trace 0`` the end-to-end metrics are reported:

* ``verdict_s``   median seconds of a pass's check calls at a fixed host
                  speed: the wall time scaled by how much slower than
                  nominal a reference loop ran during the pass (see
                  ``HostSpeed``); the raw wall median is recorded as
                  ``verdict_wall_s`` with the environment;
* ``setup_s``     median, over fresh interpreters, of importing gtsingular
                  and building the workload's specs;
* ``peak_rss_mb`` peak resident memory of this process;
* ``pass_ratio``  check calls that returned a passing report, divided by
                  the calls attempted.  A failing report and an exception
                  both count as failures; neither aborts the run.

With ``--trace 1`` the same passes run, then one more with every layer
function wrapped (see ``tracing.py``), and the per-layer metrics are
reported instead.  The traced pass fails if a function the workload must
exercise was never called, or if an import site kept an unwrapped
function.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
run environment.  The exit code is 0 only if every check passed.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 7
REF_PERIOD_S = 0.04
# Median time of reference_loop sampled during passes on the 2-core box the
# bounds were set on.  It only fixes the unit: parent and change are
# measured on one host.
REF_NOMINAL_S = 1000e-6


def measure_setup(name, seed):
    """Median set-up seconds over fresh interpreters."""
    probe = os.path.join(HERE, "probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, probe, name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


# Two sparse trivariate polynomials with rational coefficients, the
# representation gtsingular's exact arithmetic multiplies and sums.
_REF_A = {(i, i % 3, i % 5): Fraction(i + 1, 2 + i % 7) for i in range(-8, 8)}
_REF_B = {(2 * i, i % 2, 0): Fraction(1 - i, 3 + i % 4) for i in range(-7, 7)}


def reference_loop():
    """Fixed pure-Python work of the kind gtsingular does most: one sparse
    polynomial product, accumulating and dropping zero terms."""
    out = {}
    for ka, va in _REF_A.items():
        for kb, vb in _REF_B.items():
            k = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            v = out.get(k, 0) + va * vb
            if v:
                out[k] = v
            else:
                out.pop(k, None)


class HostSpeed:
    """Times ``reference_loop`` every ``REF_PERIOD_S`` of wall time, from
    SIGALRM, while a pass runs.

    On a shared host the same pass takes up to a quarter longer or shorter
    from one minute to the next, and the loop slows with it, so a pass's
    work time times ``scale()`` estimates the pass at a fixed host speed.
    The sampler runs about 2% of the time; its own time is taken out of the
    pass."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self):
        """Nominal over measured loop time; 1 if no sample was taken."""
        if not self.samples:
            return 1.0
        return REF_NOMINAL_S / statistics.median(self.samples)


def run_pass(name, inputs, failures):
    """Run the workload's checks once, appending each failure to
    ``failures``; return (seconds, checks attempted)."""
    calls = workloads.checks(name, inputs)
    t0 = time.perf_counter()
    for label, fn, args in calls:
        try:
            report = fn(*args)
        except Exception:  # a raising check is a failed check
            failures.append(f"{label} raised:\n{traceback.format_exc()}")
            continue
        if not report.passed:
            failures.append(f"{label}: {report.render()}")
    return time.perf_counter() - t0, len(calls)


def measure(name, seed, seconds, failures):
    """Untraced passes for about ``seconds``; returns (wall times, times at
    nominal host speed, checks attempted)."""
    walls, nominal, attempted = [], [], 0
    host = HostSpeed()
    start = time.perf_counter()
    while True:
        inputs = workloads.build(name, seed)
        with host:
            dt, a = run_pass(name, inputs, failures)
        work = dt - sum(host.samples)
        walls.append(work)
        nominal.append(work * host.scale())
        attempted += a
        if time.perf_counter() - start + dt > seconds:
            return walls, nominal, attempted


def traced_pass(name, seed, failures):
    """One pass, set-up included, with every layer wrapped."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        inputs = workloads.build(name, seed)
        dt, attempted = run_pass(name, inputs, failures)
        problems = [f"never called: {m}" for m in tracer.missing_calls(name)]
        problems += [f"unwrapped: {s}" for s in tracer.unwrapped_sites()]
    finally:
        tracer.uninstall()
    return tracer, dt, attempted, problems


def git_sha():
    """The checkout's commit, read from .git without leaving the checkout."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(name, seed, passes, wall_s):
    from gtsingular import Rat

    return {
        "workload": name,
        "seed": seed,
        "passes": passes,
        "verdict_wall_s": wall_s,
        "rational_backend": Rat.__module__,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gtsingular", "__init__.py")):
        print(f"error: no gtsingular sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, SRC)
    import gtsingular

    if os.path.dirname(os.path.realpath(gtsingular.__file__)) != os.path.realpath(
        os.path.join(SRC, "gtsingular")
    ):
        print(f"error: imported gtsingular from {gtsingular.__file__}", file=sys.stderr)
        return 2

    name, seed = args.workload, args.seed
    failures = []
    setup_s = measure_setup(name, seed)
    walls, nominal, attempted = measure(name, seed, args.seconds, failures)
    wall_s = statistics.median(walls)
    problems = []
    if args.trace:
        tracer, traced_s, a, problems = traced_pass(name, seed, failures)
        attempted += a
        metrics = tracer.metrics(traced_s / wall_s)
        print(f"traced pass: {traced_s:.6g} s")
    else:
        metrics = {
            "verdict_s": {"value": statistics.median(nominal), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
            "pass_ratio": {
                "value": (attempted - len(failures)) / attempted, "unit": "ratio"
            },
        }

    for line in failures + problems:
        print(f"FAIL {line}")
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"env": environment(name, seed, len(walls), wall_s)}))
    correct = not failures and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
