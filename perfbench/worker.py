"""One pass of a workload in a fresh interpreter, with cold memos.

Run by run.py, never by hand:

    python3 perfbench/worker.py --root DIR --inputs FILE --seed N --mode MODE

FILE holds the items run.py drew for the seed.  MODE is `probe` (set up,
report the ready time, exit), `pass` (run every item and report latencies,
output digests and the kernel times calibrate.py sampled during the pass),
`plain` (a pass in this one interpreter, uncalibrated: the twin of a traced
pass), `traced` (`plain` with the layer wrappers of tracer.py installed) or
`prepare-cache` (write the cache-cli workload's initial cache file).  The last line of stdout is one JSON object.
"""

import argparse
import contextlib
import hashlib
import importlib
import inspect
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

_program = {}

# How often the calibration timer interrupts a pass.  Each tick costs one
# run of calibrate.py's kernel, about 2.5 ms, which is not counted in any
# item's latency.
TICK_S = 0.04


def load_program(root):
    """Import the package from root/src and refuse an installed copy."""
    src = Path(root, "src").resolve()
    sys.path.insert(0, str(src))
    import sylowbranch

    if Path(sylowbranch.__file__).resolve().parent != src / "sylowbranch":
        raise ImportError(f"sylowbranch imported from {sylowbranch.__file__}, not {src}")
    for name in ("cli", "engine", "tower", "verify"):
        _program[name] = importlib.import_module(f"sylowbranch.{name}")
    return _program


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def vector_text(vec, p):
    """A full restriction vector in the `restrict` TSV form, rows sorted."""
    tw = _program["tower"]
    rows = []
    for labels, m in vec.items():
        deg = 1
        for lab in labels:
            deg *= tw.label_degree(p, lab)
        rows.append((deg, "|".join(tw.label_text(lab) for lab in labels), m))
    rows.sort(key=lambda r: (r[0], r[1]))
    return "".join(f"{text}\t{deg}\t{m}\n" for deg, text, m in rows)


def linear_text(vec):
    return json.dumps(sorted([[list(map(list, psi)), m] for psi, m in vec.items()]))


def call(item, seed, cache_file=None):
    """Run one item; return its output in a form `output_text` accepts."""
    kind = item[0]
    if kind == "restrict":
        return _program["engine"].restrict_sylow(item[2], item[1])
    if kind == "lin":
        return _program["engine"].lin_constituents(item[2], item[1])
    if kind == "suite":
        fn = _program["verify"].SUITES[item[1]]
        seeded = "seed" in inspect.signature(fn).parameters
        return fn(seed=seed) if seeded else fn()
    argv = list(item[1:]) + (["--cache", str(cache_file)] if cache_file else [])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = _program["cli"].main(argv)
    return code, buf.getvalue()


def output_text(item, out):
    """The canonical text an item's output is digested from."""
    kind = item[0]
    if kind == "restrict":
        return vector_text(out, item[1])
    if kind == "lin":
        return linear_text(out)
    if kind == "suite":
        return f"{out.name}\t{'PASS' if out.ok else 'FAIL'}\t{out.detail}"
    code, stdout = out
    return f"exit {code}\n{stdout}"


def item_failed(item, out):
    """An error the item reports itself, apart from a digest mismatch."""
    if item[0] == "cli" and out[0] != 0:
        return f"exit code {out[0]}"
    return None


def peak_rss_mb():
    """This process's peak resident set size, in MB.

    Linux carries ru_maxrss across exec from the process that spawned this
    one, so that it would read run.py's size whenever that is the larger;
    VmHWM in /proc is this process's own.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def cache_entry_digests(path):
    """Digest of every entry of a cache file, keyed "p k lambda"."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return {
        f"{e['p']} {e['k']} {e['lambda']}": digest(json.dumps(e, sort_keys=True))
        for e in payload["entries"]
    }


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def prepare_cache(fill, path):
    engine = _program["engine"]
    for p, la in fill:
        engine.restrict_sylow(la, p)
    engine.save_cache(path)


class Calibrator:
    """Samples the machine's speed while items run.

    While armed, a one-shot timer, re-armed after each tick so that ticks
    never nest, interrupts the running item every TICK_S.  The handler has
    calibrate.py, in its own interpreter, run its kernel once and waits for
    the answer.  `samples` are the kernel's times; `held` is the time spent
    in ticks, which measure() takes out of the item's latency.
    """

    def __init__(self):
        script = Path(__file__).with_name("calibrate.py")
        self.proc = subprocess.Popen(
            [sys.executable, "-s", str(script)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.samples = []
        self.held = 0.0
        self._sample()  # waits until it is ready

    def _sample(self):
        start = time.perf_counter()
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self.samples.append(float(self.proc.stdout.readline()))
        self.held += time.perf_counter() - start

    def _tick(self, *_):
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, TICK_S)

    def arm(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()  # so that an item shorter than a tick has a sample too

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def measure(item_id, item, seed, cache_file, tracer=None, calibrator=None):
    """Run one item; its latency excludes digesting and calibration."""
    error = None
    out = None
    held = calibrator.held if calibrator else 0.0
    start = time.perf_counter()
    try:
        if tracer is None:
            out = call(item, seed, cache_file)
        else:
            out = tracer.root(call, item, seed, cache_file)
    except Exception as exc:  # one failing item must not end the pass
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start - ((calibrator.held - held) if calibrator else 0.0)
    with tracer.paused() if tracer else contextlib.nullcontext():
        if error is None:
            error = item_failed(item, out)
        text = None if out is None else output_text(item, out)
    return {
        "id": item_id,
        "latency_s": latency,
        "digest": None if text is None else digest(text),
        "error": error,
    }


def measure_forked(item_id, item, seed, cache_file, calibrator=None):
    """measure() in a forked child, which starts with the memos empty.

    The child is one command-line invocation without the interpreter start
    and imports, which setup_s measures.  Its kernel samples come back with
    its result.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            if calibrator:
                calibrator.samples = []
                calibrator.arm()
            result = measure(item_id, item, seed, cache_file, calibrator=calibrator)
            result["peak_rss_mb"] = peak_rss_mb()
            if calibrator:
                calibrator.disarm()
                result["kernel_samples"] = calibrator.samples
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                json.dump(result, fh)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        return {"id": item_id, "latency_s": 0.0, "digest": None, "error": f"child ended with status {status}"}
    result = json.loads(data)
    if calibrator:
        calibrator.samples += result.pop("kernel_samples")
    return result


def run_pass(items, seed, cache_file, tracer=None, calibrator=None):
    """Run the items in order.

    With a calibrator, an item that is a command-line invocation of its
    own runs in a forked child (measure_forked), so that its cost does not
    depend on what earlier items left in the memos.  The verify suites are
    steps of one invocation, `verify all`, and share the memos as they do
    there; so does a traced pass, whose counts are gathered in-process.
    """
    if calibrator is None or items[0][1][0] == "suite":
        if calibrator:
            calibrator.arm()
        results = [measure(item_id, item, seed, cache_file, tracer, calibrator) for item_id, item in items]
        if calibrator:
            calibrator.disarm()
        return results
    return [measure_forked(item_id, item, seed, cache_file, calibrator) for item_id, item in items]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("probe", "pass", "plain", "traced", "prepare-cache"))
    ap.add_argument("--cache-src", help="initial cache file (cache-cli)")
    ap.add_argument("--cache-file", help="working cache file (cache-cli)")
    ap.add_argument("--trace-out", help="where a traced pass writes its spans")
    args = ap.parse_args()

    load_program(args.root)
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    if args.mode == "prepare-cache":
        prepare_cache(inputs["fill"], args.cache_file)
        print(json.dumps({"entries": cache_entry_digests(args.cache_file)}))
        return
    items = inputs["items"]
    if args.cache_src:
        shutil.copyfile(args.cache_src, args.cache_file)
    tracer = None
    if args.mode == "traced":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    report = {"ready": ready}
    if args.mode == "pass":
        calibrator = Calibrator()
        try:
            report["items"] = run_pass(items, args.seed, args.cache_file, calibrator=calibrator)
        finally:
            calibrator.close()
        report["kernel_samples"] = calibrator.samples
    elif args.mode in ("plain", "traced"):
        report["items"] = run_pass(items, args.seed, args.cache_file, tracer)
    if args.mode != "probe":
        # A forked item's peak is that of the invocation it stands for; this
        # interpreter's own is then the benchmark's, not the program's.
        forked = [r["peak_rss_mb"] for r in report["items"] if "peak_rss_mb" in r]
        report["peak_rss_mb"] = max(forked) if forked else peak_rss_mb()
        if args.cache_file:
            report["cache_sha256"] = file_digest(args.cache_file)
            report["cache_entries"] = cache_entry_digests(args.cache_file)
        if tracer is not None:
            tracer.uninstall()
            report["layers"] = tracer.metrics(report["items"])
            tracer.write_spans(args.trace_out)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
