"""Benchmark command for densepillars.

    python3 perfbench/run.py --workload desk-train --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout. It imports the package from `src/`
of that checkout, sets up the workload's inputs from the seed (three times,
reporting the median set-up time), runs whole passes over them in a closed
loop from one process until `--seconds` have passed, checks the outputs, and
prints a report followed, as the last line, by one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are the per-layer
ones, from spans recorded around the package's public functions on every
other pass (the passes between them measure the tracing overhead).

Full results, with provenance, go to `perfbench/out/`. Exit status: 0 when
every output check passes, 1 when one fails, 2 when the checkout does not
hold the program.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REQUIRED = ("src/densepillars/__init__.py", "configs/desk_overfit.cfg")
SETUP_REPEATS = 5
# One BLAS thread: a closed loop from one process, steady on a shared
# machine, and float results that do not depend on the core count.
BLAS_THREADS = "1"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("desk-train", "kitti-infer", "kitti-eval"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# measurement context handed to the workloads


class Ctx:
    """Times program ops, counts attempts and failures, toggles tracing.

    An item is one unit of end-to-end work (a training batch on both
    backbones, a frame on both backbones, or an evaluation frame); ops are
    the timed program calls inside it or, outside any item, once per pass.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.traced = False
        self.pass_index = -1
        self.items = []
        self.ops = []
        self.failures = []
        self._item = None

    @contextlib.contextmanager
    def traced_phase(self, phase):
        """Install the tracer (when there is one) for setup or a traced pass."""
        if self.tracer is None:
            yield
            return
        self.tracer.phase = phase
        self.tracer.install()
        self.traced = True
        try:
            yield
        finally:
            self.tracer.uninstall()
            self.traced = False

    @contextlib.contextmanager
    def item(self):
        from workloads import OpFailed

        rec = {"pass": self.pass_index, "seconds": 0.0, "ok": True, "traced": self.traced}
        self.items.append(rec)
        self._item = rec
        if self.traced:
            self.tracer.item = len(self.items) - 1
            self.tracer.phase = "item"
        try:
            yield
        except OpFailed:
            rec["ok"] = False
        finally:
            self._item = None
            if self.traced:
                self.tracer.item = -1
                self.tracer.phase = "pass"

    def op(self, tag, label, fn):
        from workloads import OpFailed

        if self.traced:
            self.tracer.set_tag(tag)
        rec = {"pass": self.pass_index, "tag": tag, "label": label, "ok": True,
               "traced": self.traced}
        self.ops.append(rec)
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as e:  # a program exception on an input is a failed op
            rec["ok"] = False
            self.failures.append(f"pass {self.pass_index} {tag} {label}: {type(e).__name__}: {e}")
            raise OpFailed(str(e)) from e
        finally:
            rec["seconds"] = time.perf_counter() - t0
            if self._item is not None:
                self._item["seconds"] += rec["seconds"]
            if self.traced:
                self.tracer.set_tag("")
        return out


# ---------------------------------------------------------------------------
# provenance


def _blas():
    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = deps.get("name"), deps.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "libscipy_openblas*.so")):
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.argtypes, fn.restype = [], ctypes.c_int
        info["threads"] = fn()
    if info["threads"] is None:
        info["threads"] = int(os.environ["OPENBLAS_NUM_THREADS"])
        info["threads_source"] = "OPENBLAS_NUM_THREADS"
    return info


def _git_commit(root):
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head, encoding="utf-8") as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(root, ".git", ref[5:])
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            return f.read().strip()
    return None


def _source_sha256(root):
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "densepillars", "*.py"))):
        with open(path, "rb") as f:
            h.update(os.path.basename(path).encode() + b"\0" + f.read())
    return h.hexdigest()


def provenance(args, variant, measured_s, passes):
    import numpy as np

    return {
        "workload": args.workload, "seed": args.seed, "variant": variant,
        "smoke": args.smoke, "trace": args.trace,
        "seconds_requested": args.seconds, "seconds_measured": measured_s, "passes": passes,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": _blas(),
        "git_commit": _git_commit(ROOT), "source_sha256": _source_sha256(ROOT),
    }


# ---------------------------------------------------------------------------
# metrics


def _pct(values, q):
    """Median for q = 50, else the nearest-rank percentile; None without samples."""
    if not values:
        return None
    if q == 50:
        return statistics.median(values)
    return sorted(values)[max(0, math.ceil(q / 100.0 * len(values)) - 1)]


def _median(values):
    return statistics.median(values) if values else 0.0


def op_samples(ctx, tag, label):
    return [1e3 * o["seconds"] for o in ctx.ops
            if o["ok"] and o["tag"] == tag and o["label"] == label and not o["traced"]]


def named_metrics(ctx, wl, setup_s, peak_rss_mb, peaks):
    """The per-workload headline timings, by the names the design uses."""
    attempted = len(ctx.ops)
    out = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "peak_alloc_mb": (max(peaks.values()), "MB"),
        "failed_share": (len(ctx.failures) / attempted if attempted else 0.0, "share"),
    }

    def add(name, samples, q):
        v = _pct(samples, q)
        if v is not None:
            out[f"{name}.p{q}"] = (v, "ms", len(samples))

    if wl.name == "desk-train":
        for kind in wl.backbones:
            for q in (50, 90):
                add(f"train_step_ms.{kind}", op_samples(ctx, kind, "step"), q)
    elif wl.name == "kitti-infer":
        for kind in wl.backbones:
            add(f"infer_frame_ms.{kind}", op_samples(ctx, kind, "frame"), 50)
    else:
        add("assign_ms", op_samples(ctx, "", "assign"), 50)
        add("postprocess_ms", op_samples(ctx, "", "postprocess"), 50)
        per_pass = {}
        for o in ctx.ops:
            if o["label"] in ("read", "evaluate") and not o["traced"] and o["ok"]:
                per_pass[o["pass"]] = per_pass.get(o["pass"], 0.0) + 1e3 * o["seconds"]
        add("eval_set_ms", list(per_pass.values()), 50)
    return out


def end_to_end(ctx, setup_times, peaks):
    items = [1e3 * i["seconds"] for i in ctx.items if i["ok"] and not i["traced"]]
    per_pass = {}
    for o in ctx.ops:
        if not o["traced"]:
            per_pass[o["pass"]] = per_pass.get(o["pass"], 0.0) + o["seconds"]
    attempted = len(ctx.ops)
    return {
        "item_ms.p50": {"value": _median(items), "unit": "ms"},
        "pass_s.p50": {"value": _median(list(per_pass.values())), "unit": "s"},
        "ok_share": {"value": 1.0 - len(ctx.failures) / attempted, "unit": "share"},
        "peak_alloc_mb": {"value": max(peaks.values()), "unit": "MB"},
        "setup_s": {"value": _median(setup_times), "unit": "s"},
    }


def peak_alloc_mb(wl):
    """Peak traced allocation of one op per backbone, run after the loop.

    tracemalloc slows every Python allocation, so it runs apart from the
    timed passes and their spans. Unlike the peak resident set, which
    glibc's heap fragmentation moves by several per cent from seed to seed,
    it is exact for given inputs.
    """
    peaks = {}
    for kind in wl.backbones:
        tracemalloc.start()
        try:
            wl.memory_probe(kind)
            peaks[kind] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return peaks


def per_layer(ctx, wl, tracer, sp, loop_first_span, peaks):
    """Layer metrics from the traced passes; see perfbench/README.md."""
    import numpy as np

    names = np.array(tracer.names)
    loop = sp["span_id"] >= loop_first_span
    traced_items = [i for i in ctx.items if i["traced"] and i["ok"]]
    n_items = len(traced_items)
    units = max(1, n_items * len(wl.backbones))
    tag_of = np.array(tracer.tags)[sp["tag"]]

    def sel(name, tag=None):
        m = loop & (names[sp["name"]] == name)
        if tag is not None:
            m &= tag_of == tag
        return m

    def ms(name, tag=None, per=None):
        return 1e3 * float(sp["duration"][sel(name, tag)].sum()) / (per or units)

    def counts(name, phases):
        total = {}
        for (span, phase), c in tracer.counts.items():
            if span == name and phase in phases:
                for k, v in c.items():
                    total[k] = total.get(k, 0) + v
        return total

    def mean(c, key):
        return c.get(key, 0) / c["calls"] if c.get("calls") else 0.0

    macs, mac_ratio = wl.macs()
    m = {
        "pointcloud.read_bin_ms": (ms("pointcloud.read_bin"), "ms"),
        "pointcloud.csv_ms": (ms("pointcloud.csv"), "ms"),
        "encoder.pillarize_ms": (ms("encoder.pillarize"), "ms"),
        "encoder.decorate_ms": (ms("encoder.decorate"), "ms"),
        "encoder.pfn_ms": (ms("encoder.pfn"), "ms"),
        "encoder.scatter_ms": (ms("encoder.scatter"), "ms"),
    }
    enc = counts("encoder.pillarize", ("setup", "item"))
    for key, unit in (("points", "count"), ("points_in_range", "count"),
                      ("pillars", "count"), ("occupancy", "share")):
        m[f"encoder.{key}"] = (mean(enc, key), unit)
    m["tensor.conv2d_ms"] = (ms("tensor.conv2d"), "ms")
    m["tensor.conv2d_calls"] = (int(sel("tensor.conv2d").sum()) / units, "count")
    m["tensor.conv_transpose2d_ms"] = (ms("tensor.conv_transpose2d"), "ms")
    m["tensor.batch_norm_ms"] = (ms("tensor.batch_norm"), "ms")
    fwd = {}
    for kind in ("dense", "baseline"):
        m[f"tensor.peak_alloc_mb.{kind}"] = (peaks.get(kind, 0.0), "MB")
    for kind in ("dense", "baseline"):
        fwd[kind] = ms("backbones.forward", kind, per=max(1, n_items))
        calls = int(sel("backbones.forward", kind).sum())
        secs = float(sp["duration"][sel("backbones.forward", kind)].sum())
        m[f"backbones.forward_ms.{kind}"] = (fwd[kind], "ms")
        m[f"backbones.macs.{kind}"] = (macs[kind]["backbone"], "MAC")
        m[f"backbones.gmac_per_s.{kind}"] = (
            macs[kind]["backbone"] * calls / secs / 1e9 if secs else 0.0, "GMAC/s")
    m["backbones.dense_over_baseline_ms"] = (
        fwd["dense"] / fwd["baseline"] if fwd["baseline"] else 0.0, "ratio")
    m["cost.mac_ratio"] = (mac_ratio, "ratio")
    m["detector.neck_ms"] = (ms("detector.neck"), "ms")
    m["detector.head_ms"] = (ms("detector.head"), "ms")
    m["detector.loss_ms"] = (ms("detector.loss"), "ms")
    m["detector.assign_ms"] = (ms("detector.assign"), "ms")
    m["detector.positives"] = (mean(counts("detector.assign", ("setup", "item")), "positives"), "count")
    m["detector.postprocess_ms"] = (ms("detector.postprocess"), "ms")
    nms = counts("bev.nms", ("item", "pass"))
    m["detector.candidates"] = (mean(nms, "candidates"), "count")
    m["detector.kept"] = (mean(nms, "kept"), "count")
    m["detector.nms_keep_ratio"] = (
        nms["kept"] / nms["candidates"] if nms.get("candidates") else 0.0, "share")
    iou = counts("bev.iou", ("item", "pass"))
    m["bev.iou_calls"] = (iou.get("calls", 0) / units, "count")
    m["bev.iou_nonzero_ratio"] = (mean(iou, "nonzero"), "share")
    m["bev.iou_ms"] = (ms("bev.iou"), "ms")
    m["bev.nms_ms"] = (ms("bev.nms"), "ms")
    for mode in ("bev", "3d"):
        calls = int(sel("bev.evaluate", mode).sum())
        m[f"bev.evaluate_ms.{mode}"] = (ms("bev.evaluate", mode, per=calls) if calls else 0.0, "ms")
    m["train.forward_ms"] = (ms("train.forward"), "ms")
    m["train.backward_ms"] = (ms("train.backward"), "ms")
    m["optim.adamw_ms"] = (ms("optim.adamw"), "ms")
    plain = [1e3 * i["seconds"] for i in ctx.items if i["ok"] and not i["traced"]]
    traced = [1e3 * i["seconds"] for i in traced_items]
    m["trace.overhead_pct"] = (
        100.0 * (_median(traced) / _median(plain) - 1.0) if plain and traced else 0.0, "%")
    return m


def self_time_table(tracer, sp, loop_first_span, units):
    """Per span name: calls, inclusive and self ms per unit, loop spans only."""
    loop = sp["span_id"] >= loop_first_span
    rows = {}
    for nid, name in enumerate(tracer.names):
        m = loop & (sp["name"] == nid)
        if m.any():
            rows[name] = {
                "calls": int(m.sum()),
                "inclusive_ms": 1e3 * float(sp["duration"][m].sum()) / units,
                "self_ms": 1e3 * float(sp["self"][m].sum()) / units,
            }
    return dict(sorted(rows.items(), key=lambda kv: -kv[1]["self_ms"]))


def cost_join(wl, tracer, sp, loop_first_span):
    """Analytic MACs per component next to measured ms per forward call."""
    import numpy as np

    names = np.array(tracer.names)
    tags = np.array(tracer.tags)[sp["tag"]]
    loop = sp["span_id"] >= loop_first_span
    macs, _ = wl.macs()
    spans = {"encoder": ("encoder.pfn", "encoder.scatter"), "backbone": ("backbones.forward",),
             "neck": ("detector.neck",), "head": ("detector.head",)}
    rows = []
    for kind in ("dense", "baseline"):
        calls = int((loop & (names[sp["name"]] == "backbones.forward") & (tags == kind)).sum())
        for comp, span_names in spans.items():
            m = loop & np.isin(names[sp["name"]], span_names) & (tags == kind)
            secs = float(sp["duration"][m].sum())
            rows.append({
                "backbone": kind, "component": comp, "grid": f"{wl.grid.height}x{wl.grid.width}",
                "macs": macs[kind][comp],
                "forward_ms": 1e3 * secs / calls if calls else None,
                "gmac_per_s": macs[kind][comp] * calls / secs / 1e9 if calls and secs else None,
            })
    return rows


# ---------------------------------------------------------------------------


def load_reference(smoke, workload, variant):
    path = os.path.join(HERE, "reference.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as f:
        refs = json.load(f)
    return refs.get("smoke" if smoke else "full", {}).get(workload, {}).get(str(variant))


def run(args):
    """One benchmark run; returns (result line, full record)."""
    import spans
    import workloads as W

    variant = args.seed % W.VARIANTS
    sizes = W.SMOKE if args.smoke else W.FULL
    workdir = os.path.join(HERE, "out", "work", args.workload)
    wl = W.WORKLOADS[args.workload](ROOT, variant, sizes, workdir)
    tracer = spans.Tracer() if args.trace else None
    ctx = Ctx(tracer)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    if tracer is not None:
        # one more, traced and not timed: its spans describe the inputs
        with ctx.traced_phase("setup"):
            wl.setup()
    loop_first_span = len(tracer.span_id) if tracer else 0

    min_passes = max(wl.min_passes, 2 if args.trace else 1)
    t_start = time.perf_counter()
    passes = 0
    while True:
        ctx.pass_index = passes
        # odd passes are traced; pass 0, which warms caches, never is
        with ctx.traced_phase("pass") if args.trace and passes % 2 == 1 else contextlib.nullcontext():
            wl.run_pass(ctx)
        passes += 1
        if passes >= min_passes and time.perf_counter() - t_start >= args.seconds:
            break
    measured_s = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    peaks = peak_alloc_mb(wl)

    reference = load_reference(args.smoke, args.workload, variant)
    problems = wl.check(reference)
    if reference is None:
        problems.append(f"no reference recorded for variant {variant}")
    attempted = len(ctx.ops)
    if attempted == len(ctx.failures):
        problems.append("every op failed")

    record = {
        "provenance": provenance(args, variant, measured_s, passes),
        "named": {k: list(v) for k, v in named_metrics(
            ctx, wl, _median(setup_times), peak_rss_mb, peaks).items()},
        "setup_s_all": setup_times,
        "items": len(ctx.items), "ops": attempted,
        "failures": ctx.failures, "problems": problems, "observed": wl.observed,
        "probes": wl.probes,
    }
    if tracer is not None:
        sp = tracer.arrays()
        layer = per_layer(ctx, wl, tracer, sp, loop_first_span, peaks)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        units = max(1, sum(i["traced"] and i["ok"] for i in ctx.items) * len(wl.backbones))
        record["self_time"] = self_time_table(tracer, sp, loop_first_span, units)
        record["cost_join"] = cost_join(wl, tracer, sp, loop_first_span) if "dense" in wl.backbones else []
        record["spans"] = len(tracer.span_id)
        stem = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}")
        os.makedirs(os.path.dirname(stem), exist_ok=True)
        tracer.save(stem + "-spans.npz")
    else:
        metrics = end_to_end(ctx, setup_times, peaks)
    record["metrics"] = metrics
    line = {"correct": not problems, "attempted": attempted,
            "failed": len(ctx.failures), "metrics": metrics}
    return line, record


def print_report(record):
    prov = record["provenance"]
    blas = prov["blas"]
    print(f"workload {prov['workload']}  seed {prov['seed']} (variant {prov['variant']})  "
          f"trace {prov['trace']}  {prov['passes']} passes in {prov['seconds_measured']:.2f} s")
    print(f"python {prov['python']}  numpy {prov['numpy']}  blas {blas['name']} "
          f"{blas['version']} x{blas['threads']}  nproc {prov['nproc']}  "
          f"commit {prov['git_commit']}  source {prov['source_sha256'][:12]}")
    for name, v in record["named"].items():
        n = f"  (n={v[2]})" if len(v) > 2 else ""
        print(f"  {name:<32} {v[0]:>12.4f} {v[1]}{n}")
    for row in record.get("cost_join", []):
        ms = "-" if row["forward_ms"] is None else f"{row['forward_ms']:.2f} ms"
        g = "-" if row["gmac_per_s"] is None else f"{row['gmac_per_s']:.2f} GMAC/s"
        print(f"  cost {row['backbone']:<9}{row['component']:<10}{row['grid']:>9} "
              f"{row['macs']:>15,} MAC  {ms:>12}  {g}")
    for name, row in list(record.get("self_time", {}).items())[:8]:
        print(f"  self {name:<26} {row['self_ms']:>10.3f} ms/op  "
              f"(inclusive {row['inclusive_ms']:.3f}, {row['calls']} calls)")
    for name, outcome in record["probes"].items():
        print(f"  probe {name}: {outcome}")
    for f in record["failures"][:5]:
        print(f"  failed op: {f}")
    for p in record["problems"]:
        print(f"  CHECK FAILED: {p}")


def prepare():
    """Check the checkout and pin BLAS threads; call before importing numpy.

    Returns False when the checkout does not hold the program.
    """
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a densepillars checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return False
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    return True


def main(argv=None):
    args = parse_args(argv)
    if not prepare():
        return 2
    line, record = run(args)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    out = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, default=float)
    print_report(record)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
