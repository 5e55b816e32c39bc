"""The end-to-end + per-layer benchmark of the Coyote reproduction.

One command, from the repository root::

    python3 benchmarks/e2e/run.py                    # every workload
    python3 benchmarks/e2e/run.py --workload sparse_mesh --seed 7
    python3 benchmarks/e2e/run.py --trace 1          # per-layer pass
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --repeat-check

(``PYTHONPATH=src python -m benchmarks.e2e`` is the same program.)
With ``--trace 0`` it runs the workloads with tracing off, checks every
output and prints each end-to-end metric of ``BENCHMARK.json``; with
``--trace 1`` it makes the separate traced pass that yields the
per-layer metrics and the span file.  The last line of standard output
is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``) when a single workload was asked for.  README.md explains
the metrics, the time base and the noise study behind the bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from spans import self_time_by_name, write_chrome_trace
from timebase import (
    SPIN_N,
    SPIN_REF_S,
    iqr_frac,
    quartiles,
    summarise,
    timed,
)

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
OUT = HERE / "out"
DEFAULT_SEED = 1          # the seed fingerprints.json is pinned at
SETUPS = 3                # fresh workers started per run for setup_s
MIN_OPS = 5               # per workload, untraced
MIN_TRACED_OPS = 4        # two untraced + two traced
TRACED_SHARE = 0.4        # of --seconds spent on operations when traced
SINGLE_RUN_LIMIT_S = 170  # a single-workload run must end within 180 s


def load_benchmark() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def environment(seed: int, seconds: float, smoke: bool) -> dict:
    """What a result must be read next to."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"   # the driver's checkout is not a repository
    return {
        "commit": commit, "python": platform.python_version(),
        "platform": platform.platform(), "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pythonhashseed": "0", "spin_n": SPIN_N, "spin_ref_s": SPIN_REF_S,
        "seed": seed, "seconds": seconds,
        # A smoke run uses toy sizes: never compare it with anything.
        "comparable": not smoke,
    }


class Worker:
    """Harness-side handle of one ``worker.py`` process."""

    def __init__(self, workload: str, seed: int, tmp: Path, smoke: bool):
        tmp.mkdir(parents=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        env["PYTHONHASHSEED"] = "0"
        env["TMPDIR"] = str(tmp)
        self.workload = workload
        # Its own session, so that kill() reaches the pool workers and
        # CLI processes the workload itself starts.
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            start_new_session=True)
        self.ready = self._send({"workload": workload, "seed": seed,
                                 "tmp": str(tmp), "smoke": smoke})

    def _send(self, message: dict) -> dict:
        self.process.stdin.write(json.dumps(message) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"{self.workload} worker died (exit "
                f"{self.process.wait()}) during {message}")
        return json.loads(line)

    def request(self, cmd: str, **fields) -> dict:
        return self._send({"cmd": cmd, **fields})

    def close(self) -> dict:
        """Get the exit report (peak RSS, spans) and wait for the end."""
        report = self.request("exit")
        self.process.wait()
        self.process.stdin.close()
        self.process.stdout.close()
        return report

    def kill(self) -> None:
        """The error path: end the worker's whole session — it may be
        mid-operation with pool workers or a CLI process running."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self.process.stdin.close()
        self.process.stdout.close()


def start_worker(workload: str, seed: int, tmp: Path, smoke: bool,
                 setups: int) -> tuple[Worker, list[float]]:
    """Start ``setups`` workers one after another, keep the last.

    Returns it with the reference seconds each took from process start
    to ready (imports, inputs, scratch directories, warm-up operation).
    """
    refs = []
    for index in range(setups):
        worker, sample = timed(
            lambda: Worker(workload, seed, tmp / f"{workload}-{index}",
                           smoke))
        refs.append(sample["ref"])
        if worker.ready["fatal"]:
            worker.kill()
            raise RuntimeError(f"{workload} set-up failed: "
                               f"{worker.ready['why']}")
        if index < setups - 1:
            worker.close()
    return worker, refs


def run_set(names: list[str], seed: int, seconds: float, trace: bool,
            smoke: bool) -> dict:
    """Run the named workloads round-robin; returns the result document.

    One operation of each workload per round, only one worker busy at a
    time, until each workload has been measured for ``seconds`` and at
    least ``MIN_OPS`` operations (one operation when ``smoke``).
    """
    benchmark = load_benchmark()
    declared = benchmark["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    tmp = OUT / f"tmp-{os.getpid()}"
    workers: dict[str, Worker] = {}
    result = {"env": environment(seed, seconds, smoke),
              "trace": int(trace), "workloads": {}}
    try:
        setup_refs = {}
        for name in names:
            workers[name], setup_refs[name] = start_worker(
                name, seed, tmp, smoke,
                1 if trace or smoke else SETUPS)
        budget = seconds * (TRACED_SHARE if trace else 1.0)
        min_ops = MIN_TRACED_OPS if trace else MIN_OPS
        replies: dict[str, list[dict]] = {name: [] for name in names}
        busy = dict.fromkeys(names, 0.0)
        pending = list(names)
        while pending:
            for name in list(pending):
                start = time.perf_counter()
                # A traced pass alternates untraced and traced
                # operations; their ratio is the tracing overhead.
                traced = trace and len(replies[name]) % 2 == 1
                reply = workers[name].request("op", traced=traced)
                reply["traced"] = traced
                replies[name].append(reply)
                busy[name] += time.perf_counter() - start
                enough = (len(replies[name]) >= (2 if trace else 1)
                          if smoke else
                          busy[name] >= budget
                          and len(replies[name]) >= min_ops)
                if enough:
                    pending.remove(name)
        layer = {}
        if trace:
            # The probes do not depend on the workload: once is enough.
            probes = workers[names[0]].request("probes")
            for name in names:
                layer[name] = [workers[name].request("anatomy"), probes]
        spans = {}
        for name in names:
            report = workers[name].close()
            del workers[name]
            spans[name] = report["spans"]
            result["workloads"][name] = summarise_workload(
                replies[name], setup_refs[name], report["rss_mb"],
                layer.get(name), spans[name], units)
        if trace:
            path = write_chrome_trace(
                OUT / f"spans-{'-'.join(names) if len(names) == 1 else 'all'}"
                      f"-seed{seed}.json", spans)
            result["span_file"] = str(path.relative_to(REPO))
    finally:
        for worker in workers.values():   # non-empty only on error
            worker.kill()
        shutil.rmtree(tmp, ignore_errors=True)
    return result


def end_to_end_values(good: list[dict], setup_refs: list[float],
                      rss_mb: float) -> dict[str, list[float]]:
    """The samples behind each end-to-end metric of one workload."""
    refs = [reply["sample"]["ref"] for reply in good]
    return {
        "setup_s": setup_refs,
        "op_ref_s": refs,
        "sim_ref_mips": [reply["instructions"] / ref / 1e6
                         for reply, ref in zip(good, refs)],
        "points_per_ref_s": [reply["points"] / ref
                             for reply, ref in zip(good, refs)],
        "peak_rss_mb": [rss_mb],
    }


def per_layer_values(good: list[dict], layer: list[dict]
                     ) -> dict[str, list[float]]:
    """Anatomy and probe metrics plus the harness's own."""
    plain = [reply["sample"] for reply in good if not reply["traced"]]
    traced = [reply["sample"] for reply in good if reply["traced"]]
    plain_refs = [sample["ref"] for sample in plain]
    values = {name: [value] for part in layer
              for name, value in part["metrics"].items()}
    values["harness.spin_s"] = [s["spin"] for s in plain + traced]
    values["harness.wall_s"] = [s["wall"] for s in plain]
    values["harness.op_iqr_frac"] = [iqr_frac(plain_refs)]
    values["harness.trace_overhead_frac"] = [
        quartiles([s["ref"] for s in traced])[1]
        / quartiles(plain_refs)[1] - 1.0]
    return values


def summarise_workload(replies: list[dict], setup_refs: list[float],
                       rss_mb: float, layer: list[dict] | None,
                       spans: list[dict], units: dict[str, str]) -> dict:
    """One workload's record: attempted, failed, reasons, metrics.

    Metrics come from the successful operations only, and only when
    the whole pass succeeded well enough to yield every one of them.
    """
    failures = [reply["why"] for reply in replies if not reply["ok"]]
    failures += [part["why"] for part in layer or () if not part["ok"]]
    record = {"attempted": len(replies), "failed": len(failures),
              "failures": failures[:5], "metrics": {}}
    good = [reply for reply in replies if reply["ok"]]
    if not good:
        return record
    # What fingerprints.json pins at the default seed (README).
    record["fingerprint"] = good[0]["fingerprint"]
    if layer is None:
        values = end_to_end_values(good, setup_refs, rss_mb)
    elif (all(part["ok"] for part in layer)
          and {reply["traced"] for reply in good} == {False, True}):
        values = per_layer_values(good, layer)
        record["span_self_s"] = self_time_by_name(spans)
    else:
        return record
    if set(values) != set(units):
        raise RuntimeError(
            f"measured metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}")
    record["metrics"] = {name: summarise(values[name], units[name])
                         for name in units}
    return record


def skip_reason(name: str) -> str | None:
    """Why a workload cannot run on this host, if it cannot."""
    if name == "sweep_pool2" and len(os.sched_getaffinity(0)) < 2:
        return ("CPU affinity < 2: a two-worker pool would measure "
                "time-slicing, not scaling")
    return None


def print_result(result: dict) -> None:
    """Every metric by name with unit, median, quartiles and count."""
    env = result["env"]
    print(f"# commit {env['commit']}  python {env['python']}  "
          f"cpus {env['cpu_count']} (affinity {env['affinity']})  "
          f"seed {env['seed']}  spin N={env['spin_n']}"
          + ("" if env["comparable"] else "  [SMOKE: NOT COMPARABLE]"))
    for name, record in result["workloads"].items():
        if record.get("status") == "skipped":
            print(f"{name}: skipped ({record['reason']})")
            continue
        attempted, failed = record["attempted"], record["failed"]
        print(f"{name}: attempted {attempted}  failed {failed}  "
              f"fail_frac {failed / max(attempted, 1):.3f}")
        for why in record["failures"]:
            print(f"    FAILED: {why}")
        for span_name, seconds in record.get("span_self_s", {}).items():
            print(f"    span self time  {span_name:<26} {seconds:>10.4f} s")
        for metric, item in record["metrics"].items():
            tail = item.get("tail")
            print(f"    {metric:<42} {item['value']:>14.6g} "
                  f"{item['unit']:<13} n={item['n']:<4}"
                  + (f" q1={item['q1']:.6g} q3={item['q3']:.6g}"
                     if item["n"] > 1 else "")
                  + (f" p{tail['percentile']:g}={tail['value']:.6g}"
                     if tail else ""))


def run_and_report(args, names: list[str]) -> tuple[dict, int]:
    """One set of runs; returns (result, failed operation count)."""
    runnable = [name for name in names if not skip_reason(name)]
    if not runnable:
        raise SystemExit(f"{names[0]}: skipped ({skip_reason(names[0])})")
    result = run_set(runnable, args.seed, args.seconds, bool(args.trace),
                     args.smoke)
    for name in names:
        if name not in runnable:
            result["workloads"][name] = {"status": "skipped",
                                         "reason": skip_reason(name)}
    print_result(result)
    failed = sum(record.get("failed", 0)
                 for record in result["workloads"].values())
    return result, failed


# -- comparing two result files ----------------------------------------------

def verdict(metric: dict, before: dict, after: dict) -> tuple[str, float]:
    """``(improved|unchanged|regressed|unresolved, relative change)``.

    The change is signed so that positive is worse.  Unresolved means
    the medians themselves are not known to within the bound, so
    neither "unchanged" nor "regressed" can be said: the spread of a
    median of ``n`` operations is taken as their inter-quartile
    distance over ``sqrt(n)``, as a share of the median, the wider of
    the two sides.
    """
    sign = 1.0 if metric["better"] == "lower" else -1.0
    change = sign * (after["value"] - before["value"]) / before["value"]
    spread = max((item["q3"] - item["q1"]) / item["value"]
                 / item["n"] ** 0.5 for item in (before, after))
    if spread > metric["bound"]:
        return "unresolved", change
    if change > metric["bound"]:
        return "regressed", change
    if change < -metric["bound"]:
        return "improved", change
    return "unchanged", change


def compare(before: dict, after: dict) -> list[tuple[str, float, float]]:
    """Print one row per (metric, workload); returns each row's
    ``(verdict, change, bound)``."""
    for side in (before, after):
        if not side["env"]["comparable"]:
            raise SystemExit("a --smoke result is not comparable")
    rows = []
    print(f"{'workload':<16} {'metric':<18} {'before':>12} "
          f"{'[q1, q3]':>25} {'after':>12} {'[q1, q3]':>25} "
          f"{'bound':>6} {'worse by':>9}  verdict")
    for metric in load_benchmark()["end_to_end"]:
        for name, old in before["workloads"].items():
            new = after["workloads"].get(name, {})
            if (metric["name"] not in old.get("metrics", {})
                    or metric["name"] not in new.get("metrics", {})):
                continue
            a, b = old["metrics"][metric["name"]], \
                new["metrics"][metric["name"]]
            word, change = verdict(metric, a, b)
            rows.append((word, change, metric["bound"]))
            print(f"{name:<16} {metric['name']:<18} {a['value']:>12.5g} "
                  f"{'[%.5g, %.5g]' % (a['q1'], a['q3']):>25} "
                  f"{b['value']:>12.5g} "
                  f"{'[%.5g, %.5g]' % (b['q1'], b['q3']):>25} "
                  f"{metric['bound']:>6.2f} {change:>+9.1%}  {word}")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end + per-layer benchmark (see README.md)")
    parser.add_argument("--workload", default=None,
                        help="run one workload and print the result "
                             "JSON line (default: all, round-robin)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload input seed (fingerprints are "
                             f"pinned at {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced pass: per-layer metrics "
                             "and the span file")
    parser.add_argument("--smoke", action="store_true",
                        help="one operation per workload at toy sizes; "
                             "the output is flagged non-comparable")
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write the result document")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("A.json", "B.json"),
                        help="compare two result documents")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run two sets of the same code; fail when "
                             "an end-to-end metric differs by more "
                             "than its bound")
    args = parser.parse_args(argv)

    if args.compare:
        before, after = (json.loads(path.read_text())
                         for path in args.compare)
        return 1 if any(word == "regressed" for word, _change, _bound
                        in compare(before, after)) else 0

    if not (REPO / "src" / "repro" / "api.py").is_file():
        print(f"no program to measure: {REPO / 'src' / 'repro'} is "
              f"missing", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    declared = [workload["name"] for workload in benchmark["workloads"]]
    if args.workload is not None and args.workload not in declared:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(expected one of {declared})")
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    names = [args.workload] if args.workload else declared

    if args.workload:
        # Contract: a single-workload run ends within 180 s, whatever
        # happens; the alarm turns a hang into a failed run.
        def expired(_signum, _frame):
            raise TimeoutError(
                f"{args.workload} ran past {SINGLE_RUN_LIMIT_S} s")
        signal.signal(signal.SIGALRM, expired)
        signal.alarm(SINGLE_RUN_LIMIT_S)

    if args.repeat_check:
        first, failed_a = run_and_report(args, names)
        second, failed_b = run_and_report(args, names)
        # Same code twice: a difference in either direction is noise
        # the bounds do not cover.
        differ = [abs(change) > bound for _word, change, bound
                  in compare(first, second)]
        return 1 if any(differ) or failed_a or failed_b else 0

    result, failed = run_and_report(args, names)
    tag = args.workload or "all"
    path = args.out or OUT / f"result-{tag}-seed{args.seed}" \
                             f"-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"result written to {path}", file=sys.stderr)
    if args.workload:
        record = result["workloads"][args.workload]
        print(json.dumps({
            "correct": record["failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": {name: {"value": item["value"],
                               "unit": item["unit"]}
                        for name, item in record["metrics"].items()}}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
