"""Benchmark driver: sync capture, trace analysis and replay.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sync-cache --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the
line before it holds details (provenance, tail percentiles with their
sample counts, trace digests, correctness errors).  The exit code is 0
only when every correctness gate held.  See perfbench/README.md for the
workloads and what each metric is expected to move.

An end-to-end run makes each capture in a fresh child process, one at a
time, as a user runs `repro sync`, and then the trace passes over all of
its traces in one more child process, as a user runs `repro analyze` and
`repro replay`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

WORKLOADS = ("sync-cache", "sync-bare")
#: captures per run, each in its own process: a set-up and a measured
#: window, then the trace write
CAPTURES = 2
#: measured blocks per capture for each second of --seconds (20-40
#: blocks/s on a 2-CPU box).  170 blocks give a CacheTrace trace of about
#: 107k records, whose LSM replay runs about 15 compactions in about 57k
#: writes, so the writes of two captures pass 110k and reach the p99.99 tail
BLOCKS_PER_SECOND = 17
#: rounds of trace passes; each round makes one pass over each capture's
#: trace, so the passes over one trace are spread over the whole phase
PASS_ROUNDS = 3
#: the LSM compactions a replay should run for its write tail to mean
#: something; fewer is a sizing warning in the detail line, not an error
MIN_LSM_COMPACTIONS = 10
WORK_DIR = ".perfbench_work"


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_checkout(root: Path) -> None:
    """Put the checkout's own ``src`` first on the path, and refuse to run
    against any other copy of the package."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _die(f"no package source at {src / 'repro'}; run from a checkout root")
    # Replace the script's own directory, whose module names are not
    # meant to be importable at top level.
    sys.path[0:1] = [str(src), str(root)]
    import repro

    if src.resolve() not in Path(repro.__file__).resolve().parents:
        _die(f"imported repro from {repro.__file__}, not from {src}")


def git_tree_hash(path: Path) -> str:
    """The git tree id of a directory, computed without git.

    Skips what the repository's .gitignore drops (``__pycache__`` and
    ``*.pyc``), so on a clean checkout it equals ``git rev-parse HEAD:src``.
    """
    return _tree_object(path)[0].hex()


def _tree_object(path: Path) -> tuple[bytes, bool]:
    entries = []
    for child in path.iterdir():
        name = child.name.encode()
        if child.is_dir():
            if child.name == "__pycache__":
                continue
            digest, nonempty = _tree_object(child)
            if nonempty:
                entries.append((name + b"/", b"40000 " + name + b"\0" + digest))
        elif child.is_file() and not child.name.endswith(".pyc"):
            mode = b"100755" if os.access(child, os.X_OK) else b"100644"
            data = child.read_bytes()
            blob = hashlib.sha1(b"blob %d\0" % len(data) + data).digest()
            entries.append((name, mode + b" " + name + b"\0" + blob))
    body = b"".join(entry for _, entry in sorted(entries))
    return hashlib.sha1(b"tree %d\0" % len(body) + body).digest(), bool(entries)


def provenance(seed: int, root: Path) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "src_tree": git_tree_hash(root / "src"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# one capture, in a child process
# ---------------------------------------------------------------------------


def mode_of(workload: str) -> str:
    return "bare" if workload == "sync-bare" else "cache"


def blocks_for(seconds: int) -> int:
    return max(10, seconds * BLOCKS_PER_SECOND)


def run_child(args: argparse.Namespace) -> int:
    """Child process: one capture (``--child-out``), or the trace passes
    over every capture of a run (``--child-passes``)."""
    _import_checkout(Path.cwd())
    from perfbench import pipeline

    if args.child_passes is not None:
        return _passes_child(args.child_passes)
    trace = args.child_out.with_suffix(".v2")
    try:
        capture = pipeline.capture(
            mode_of(args.workload), args.seed, blocks_for(args.seconds), trace
        )
        with args.child_out.with_suffix(".pairs").open("wb") as pairs:
            pickle.dump(capture.store_snapshot, pairs)
        out = {"capture": capture.to_json()}
    except pipeline.BlockImportFailed as exc:
        traceback.print_exc()
        out = {"error": str(exc), "attempted": exc.attempted, "failed": 1}
    out["peak_rss_mb"] = peak_rss_mb()
    args.child_out.write_text(json.dumps(out))
    return 1 if "error" in out else 0


def _passes_child(manifest: Path) -> int:
    """``PASS_ROUNDS`` rounds of one pass over each trace the manifest
    names; the results go next to it (suffix ``.out.json``)."""
    from perfbench import pipeline

    inputs = []
    for item in json.loads(manifest.read_text()):
        with open(item["pairs"], "rb") as pairs:
            inputs.append((Path(item["trace"]), pickle.load(pairs), item["op_counts"]))
    # The store pairs are the benchmark's data, about 210k tuples that a
    # replay process would not hold; keep them out of the collector's full
    # passes so they do not lengthen the program's GC pauses.
    gc.collect()
    gc.freeze()
    groups: list[list[dict]] = [[] for _ in inputs]
    for _ in range(PASS_ROUNDS):
        for group, (trace, snapshot, op_counts) in zip(groups, inputs):
            gc.collect()
            group.append(pipeline.run_passes(trace, snapshot, op_counts).to_json())
    out = {"groups": groups, "peak_rss_mb": peak_rss_mb()}
    manifest.with_suffix(".out.json").write_text(json.dumps(out))
    return 0


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


class Run:
    """Everything one benchmark invocation measured and checked."""

    def __init__(self, workload: str, seed: int, seconds: int, root: Path, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.root = root
        self.work = work
        self.seconds = seconds
        self.mode = mode_of(workload)
        self.blocks = blocks_for(seconds)
        self.captures = []
        self.passes = []
        #: the passes of each capture, in capture order
        self.pass_groups: list[list] = []
        self.setups: list[float] = []
        self.rss: list[float] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.metrics: dict = {}
        self.detail: dict = {}
        self._serial = 0

    def _path(self, suffix: str) -> Path:
        self._serial += 1
        return self.work / f"{self.workload}-{self._serial}{suffix}"

    def _child(self, hash_seed: str, option: str, path: Path) -> None:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", self.workload]
            + ["--seed", str(self.seed), "--seconds", str(self.seconds)]
            + [option, str(path)],
            cwd=self.root,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            check=False,
        )
        if proc.returncode not in (0, 1):
            raise RuntimeError(f"{option[2:]} process exited {proc.returncode}")

    def _capture(self, hash_seed: str) -> dict:
        """One capture in a child process: its result, trace and pairs."""
        from perfbench.pipeline import Capture

        out = self._path(".json")
        self._child(hash_seed, "--child-out", out)
        if not out.is_file():
            raise RuntimeError("capture process exited without a result")
        result = json.loads(out.read_text())
        self.rss.append(result["peak_rss_mb"])
        if "error" in result:
            self.attempted += result["attempted"]
            self.failed += result["failed"]
            raise RuntimeError(f"capture failed: {result['error']}")
        capture = Capture.from_json(result["capture"])
        self.attempted += capture.blocks
        self.captures.append(capture)
        self.setups.append(capture.setup_s)
        return {
            "trace": str(out.with_suffix(".v2")),
            "pairs": str(out.with_suffix(".pairs")),
            "op_counts": capture.op_counts,
        }

    def _passes(self, hash_seed: str, inputs: list[dict]) -> None:
        """The trace passes over every capture, in one child process."""
        from perfbench.pipeline import Passes

        manifest = self._path(".json")
        manifest.write_text(json.dumps(inputs))
        self._child(hash_seed, "--child-passes", manifest)
        out = manifest.with_suffix(".out.json")
        if not out.is_file():
            raise RuntimeError("trace pass process exited without a result")
        result = json.loads(out.read_text())
        self.rss.append(result["peak_rss_mb"])
        for data_group in result["groups"]:
            group = [Passes.from_json(data) for data in data_group]
            for passes in group:
                self.attempted += passes.ops_attempted
                self.failed += passes.ops_failed
                self.errors.extend(passes.errors)
            self.passes.extend(group)
            self.pass_groups.append(group)

    def check_captures(self) -> None:
        from perfbench import pipeline
        from perfbench.oracle import reference_state_root

        expected = reference_state_root(
            pipeline.workload_config(self.seed), pipeline.WARMUP_BLOCKS + self.blocks
        )
        for capture in self.captures:
            self.errors.extend(pipeline.capture_errors(capture, expected))
        self.errors.extend(pipeline.same_outputs_errors(self.captures))

    # -- workloads -------------------------------------------------------------

    def measure(self) -> None:
        """The end-to-end run: each capture in a fresh process, then the
        trace passes in one more, no wrapping but the replay stores'.

        Unless the caller fixed ``PYTHONHASHSEED``, child process ``k``
        runs with hash seed ``k``: replay throughput moves by about 13% with
        the hash seed, and the same seeds in every run keep that out of
        run-to-run comparisons.  The captures of one run still differ in
        hash seed, so their trace digests show that trace bytes depend on it.
        """
        fixed = os.environ.get("PYTHONHASHSEED")
        hash_seeds = [fixed or str(k) for k in range(1, CAPTURES + 2)]
        self.detail["hash_seeds"] = hash_seeds
        inputs = [self._capture(hash_seed) for hash_seed in hash_seeds[:-1]]
        self._passes(hash_seeds[-1], inputs)
        self.check_captures()
        self.metrics = self._end_to_end()

    def measure_layers(self) -> None:
        """The traced run, in this process, after an untraced twin with the
        same seed and sizes (the same work) to take the overhead against."""
        from perfbench import pipeline
        from perfbench.layers import Tracer

        def capture(tracer=None):
            gc.collect()
            try:
                result = pipeline.capture(
                    self.mode, self.seed, self.blocks, self._path(".v2"), tracer
                )
            except pipeline.BlockImportFailed as exc:
                self.attempted += exc.attempted
                self.failed += 1
                raise
            self.attempted += self.blocks
            self.captures.append(result)
            return result

        def passes_over(result, tracer=None):
            gc.collect()
            passes = pipeline.run_passes(
                result.trace_path, result.store_snapshot, result.op_counts, tracer
            )
            self.attempted += passes.ops_attempted
            self.failed += passes.ops_failed
            self.errors.extend(passes.errors)
            self.passes.append(passes)
            return passes

        sync_tracer, pass_tracer = Tracer(), Tracer()
        plain = capture()
        plain_passes = passes_over(plain)
        plain.store_snapshot = []
        traced = capture(sync_tracer)
        traced_passes = passes_over(traced, pass_tracer)
        overhead = (traced.window_s + traced_passes.total_s) / (
            plain.window_s + plain_passes.total_s
        )
        self.check_captures()
        slack = 0.01 * traced.window_s
        if traced.unattributed_s < -slack:
            self.errors.append(
                f"layer self times exceed the measured window by "
                f"{-traced.unattributed_s:.4f}s of {traced.window_s:.4f}s"
            )
        self.metrics = _per_layer(traced, traced_passes, overhead)
        self.detail["window_s"] = traced.window_s
        self.detail["layer_self_s_sum"] = sum(traced.layer_s.values())
        self.rss.append(peak_rss_mb())

    # -- metrics ---------------------------------------------------------------

    def _end_to_end(self) -> dict:
        """End-to-end metrics from repeated, identical work.

        The captures of a run import the same blocks, and the passes over
        one capture's trace do the same analysis steps and the same replay
        operations in the same order.  Each timing therefore takes, unit
        by unit (a block, an analysis step, a replay segment of
        ``SEGMENT_OPS`` operations, one store call), the fastest of its
        repetitions, and sums or ranks those.  Slow spells of the host
        (see README.md) then move a metric only where they cover every
        repetition of a unit.
        """
        from perfbench.stats import elementwise_min, median, tail

        captures, groups = self.captures, self.pass_groups
        intervals = elementwise_min([c.block_interval_s for c in captures])
        block_ms = [s * 1000 for s in elementwise_min([c.block_s for c in captures])]
        analyze = [
            p[0].records / sum(elementwise_min([x.analyze_step_s for x in p]))
            for p in groups
        ]
        replay = {
            backend: [
                p[0].records
                / sum(elementwise_min([getattr(x, f"{backend}_segment_s") for x in p]))
                for p in groups
            ]
            for backend in ("memdb", "lsm")
        }
        reads = [
            [s * 1e6 for s in elementwise_min([x.lsm_read_s for x in p])] for p in groups
        ]
        writes = [
            s * 1e6 for p in groups for s in elementwise_min([x.lsm_write_s for x in p])
        ]
        # The tail rule jumps a percentile where the sample count crosses a
        # power of ten, so each sample is kept well away from 100k: the
        # writes of both traces pool to more than 110k, and their p99.99
        # lands among the flush and compaction spikes; the reads of one
        # trace number 45k-80k, so the read tail is each trace's p99.9,
        # then the median over traces.
        tails = {
            "block_ms_tail": [tail(block_ms)],
            "lsm_read_us_tail": [tail(sample) for sample in reads],
            "lsm_write_us_tail": [tail(writes)],
        }
        for name, found in tails.items():
            if None in found:
                raise RuntimeError(f"{name}: too few samples for a tail")
            self.detail[name] = [
                {"percentile": t.label, "samples": t.samples, "beyond": t.beyond}
                for t in found
            ]
        compactions = min(p.lsm_metrics["compactions"] for p in self.passes)
        self.detail["lsm_compactions"] = compactions
        if compactions < MIN_LSM_COMPACTIONS:
            self.detail.setdefault("warnings", []).append(
                f"LSM replay ran {compactions} compactions, fewer than "
                f"{MIN_LSM_COMPACTIONS}: lsm_write_us_tail may not reach them"
            )
        values = {
            "setup_s": (median(self.setups), "s"),
            "sync_blocks_per_s": (len(intervals) / sum(intervals), "1/s"),
            "block_ms_p50": (median(block_ms), "ms"),
            "block_ms_tail": (tails["block_ms_tail"][0].value, "ms"),
            "trace_bytes_per_record": (
                median([c.bytes_per_record for c in captures]),
                "B",
            ),
            "peak_rss_mb": (max(self.rss), "MB"),
            "analyze_records_per_s": (median(analyze), "1/s"),
            "replay_memdb_ops_per_s": (median(replay["memdb"]), "1/s"),
            "replay_lsm_ops_per_s": (median(replay["lsm"]), "1/s"),
            "lsm_read_us_p50": (median([s for sample in reads for s in sample]), "us"),
            "lsm_read_us_tail": (median([t.value for t in tails["lsm_read_us_tail"]]), "us"),
            "lsm_write_us_p50": (median(writes), "us"),
            "lsm_write_us_tail": (tails["lsm_write_us_tail"][0].value, "us"),
        }
        return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}

    def describe(self) -> None:
        self.detail["captures"] = [
            {
                "mode": c.mode,
                "blocks": c.blocks,
                "setup_s": c.setup_s,
                "window_s": c.window_s,
                "records": c.records,
                "store_pairs": c.store_pairs,
                "head_root": c.head_root.hex(),
                "trace_sha256": c.trace_sha256,
            }
            for c in self.captures
        ]
        self.detail["passes"] = [
            {
                "records": p.records,
                "analyze_s": p.analyze_s,
                "memdb_ops_per_s": p.memdb_ops_per_s,
                "lsm_ops_per_s": p.lsm_ops_per_s,
            }
            for p in self.passes
        ]
        self.detail["peak_rss_mb"] = self.rss
        self.detail["errors"] = self.errors


def _per_layer(capture, passes, overhead: float) -> dict:
    """Per-layer metrics: sync layers from the traced capture's measured
    window, KV/analysis/replay layers from the traced passes."""
    s, n = capture.layer_s, capture.layer_counts
    ps, pn = passes.layer_s, passes.layer_counts
    lsm = passes.lsm_metrics
    lookups = capture.cache_hits + capture.cache_misses
    cache_lookups = lsm["block_cache_hits"] + lsm["block_cache_misses"]
    values = {
        "workload.plan_s": (s.get("workload.plan", 0.0), "s"),
        "gethdb.state.read_s": (s.get("gethdb.state.read", 0.0), "s"),
        "gethdb.state.reads": (n.get("gethdb.state.read", 0), "count"),
        "gethdb.state.commit_s": (s.get("gethdb.state.commit", 0.0), "s"),
        "gethdb.state.commits": (n.get("gethdb.state.commit", 0), "count"),
        "trie.node_puts": (n.get("trie.node_put", 0), "count"),
        "rlp.encode_s": (s.get("rlp.encode", 0.0), "s"),
        "rlp.encode_calls": (n.get("rlp.encode", 0), "count"),
        "gethdb.caches.hit_ratio": (
            capture.cache_hits / lookups if lookups else 0.0,
            "ratio",
        ),
        "gethdb.caches.evictions": (capture.cache_evictions, "count"),
        "gethdb.freezer.freeze_s": (s.get("gethdb.freezer.freeze", 0.0), "s"),
        "gethdb.freezer.blocks_frozen": (capture.blocks_frozen, "count"),
        "gethdb.batch.commit_s": (s.get("gethdb.batch.commit", 0.0), "s"),
        "gethdb.batch.ops": (n.get("gethdb.batch.op", 0), "count"),
        "kvstore.tracing.self_s": (s.get("kvstore.tracing", 0.0), "s"),
        "kvstore.tracing.records": (capture.window_records, "count"),
    }
    for op in ("get", "put", "delete", "scan"):
        values[f"kvstore.memdb.{op}_s"] = (s.get(f"kvstore.memdb.{op}", 0.0), "s")
        values[f"kvstore.memdb.{op}_ops"] = (n.get(f"kvstore.memdb.{op}", 0), "count")
    replay_memdb = [f"kvstore.memdb.{op}" for op in ("get", "put", "delete", "scan")]
    values["kvstore.memdb.replay_s"] = (sum(ps.get(k, 0.0) for k in replay_memdb), "s")
    values["kvstore.memdb.replay_ops"] = (sum(pn.get(k, 0) for k in replay_memdb), "count")
    for op in ("get", "put", "delete", "scan"):
        values[f"kvstore.lsm.{op}_s"] = (ps.get(f"kvstore.lsm.{op}", 0.0), "s")
    values.update(
        {
            "kvstore.lsm.write_amp": (lsm["write_amplification"], "ratio"),
            "kvstore.lsm.read_amp": (lsm["read_amplification"], "ratio"),
            "kvstore.lsm.compactions": (lsm["compactions"], "count"),
            "kvstore.lsm.compaction_bytes_written": (
                lsm["compaction_bytes_written"],
                "B",
            ),
            "kvstore.lsm.block_cache_hit_ratio": (
                lsm["block_cache_hits"] / cache_lookups if cache_lookups else 0.0,
                "ratio",
            ),
            "kvstore.lsm.tombstones_dropped": (lsm["tombstones_dropped"], "count"),
            "core.trace.write_s": (capture.write_s, "s"),
            "core.trace.bytes": (capture.trace_bytes, "B"),
            "core.trace.read_s": (ps.get("core.trace.read", 0.0), "s"),
            "core.analysis.opdist_s": (ps.get("core.analysis.opdist", 0.0), "s"),
            "core.analysis.sizes_s": (ps.get("core.analysis.sizes", 0.0), "s"),
            "core.analysis.correlation_s": (
                ps.get("core.analysis.correlation", 0.0),
                "s",
            ),
            "replay.dispatch_self_s": (ps.get("replay", 0.0), "s"),
            "sync.genesis_s": (capture.genesis_s, "s"),
            "sync.warmup_s": (capture.warmup_s, "s"),
            "sync.window_s": (capture.window_s, "s"),
            "sync.unattributed_s": (capture.unattributed_s, "s"),
            "bench.trace_overhead_pct": ((overhead - 1.0) * 100.0, "%"),
        }
    )
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def run_one(args: argparse.Namespace, root: Path) -> int:
    _import_checkout(root)
    work = root / WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds, root, work)
    run.detail["provenance"] = provenance(args.seed, root)
    try:
        if args.trace:
            run.measure_layers()
        else:
            run.measure()
    except Exception:  # report what was measured, marked incorrect
        traceback.print_exc()
        run.errors.append("run aborted; see the traceback on stderr")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass
    run.describe()
    correct = not run.errors and run.failed == 0 and bool(run.metrics)
    for name, metric in run.metrics.items():
        print(f"{args.workload:13s} {name:38s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"detail": run.detail}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, run.attempted),
                "failed": run.failed,
                "metrics": run.metrics,
            }
        )
    )
    return 0 if correct else 1


def run_all(args: argparse.Namespace, root: Path) -> int:
    """Each workload in turn, then one combined result line whose
    ``metrics`` map each workload to its metrics; exit 1 if any workload
    failed a gate."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
            + ["--seed", str(args.seed), "--seconds", str(args.seconds)]
            + ["--trace", str(args.trace)],
            cwd=root,
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        print(proc.stdout, end="")
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            print(f"{workload}: FAILED (exit {proc.returncode})", file=sys.stderr)
            combined["correct"] = False
        combined["attempted"] += result.get("attempted", 0)
        combined["failed"] += result.get("failed", 0)
        combined["metrics"][workload] = result.get("metrics", {})
    combined["attempted"] = max(1, combined["attempted"])
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one capture, or the trace passes, of an end-to-end run
    parser.add_argument("--child-out", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--child-passes", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.child_out is not None or args.child_passes is not None:
        return run_child(args)
    root = Path.cwd()
    if args.workload == "all":
        return run_all(args, root)
    return run_one(args, root)


if __name__ == "__main__":
    sys.exit(main())
