"""Benchmark of mugnn: time to a verdict per engine, model compile and I/O,
and a traced run that splits the time by layer.

    python3 bench/run.py --workload diff-small --seed 1 --seconds 40 --trace 0

Run from a checkout: the program is imported from `src/` next to this
directory.  With `--trace 0` the last line of output is one JSON object
with every end-to-end metric; with `--trace 1` it has every per-layer
metric instead.  The lines before it give sample counts, tail
percentiles, the host-speed probe and, when traced, the tracing overhead.
See README.md for the workloads and how the figures are made.
"""

from __future__ import annotations

import os

# One thread, so that a run measures the program and not the host's cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import inputs
import reference
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
PROBE_LOOPS = 20_000

OPS = ("oracle", "stable", "counting", "extended", "compile", "save", "load", "gnn")
METRIC_OF = {
    "oracle": "oracle_s",
    "stable": "stable_s",
    "counting": "counting_s",
    "extended": "extended_s",
    "gnn": "gnn_s",
    "compile": "compile_s",
    "save": "model_save_s",
    "load": "model_load_s",
}

# Timed calls per instance per round.  Cheap operations are repeated so
# that every metric rests on many samples; the counts are fixed so every
# round does the same work.  `schedule` spreads the calls over the round.
REPS = {
    "diff-small": dict(oracle=10, stable=4, counting=3, extended=3,
                       compile=2, save=1, load=1, gnn=2),
    "gnn-large": dict(oracle=20, stable=20, counting=6, extended=6,
                      compile=20, save=10, load=20, gnn=1),
    "deep-path": dict(oracle=40, stable=4, counting=2, extended=2,
                      compile=20, save=20, load=20, gnn=1),
}
# Calls per round that belong to no instance: set-up samples and host probes.
SETUP_PER_ROUND = 8
PROBES_PER_ROUND = 24

END_TO_END_UNITS = {
    "setup_s": "s", "oracle_s": "s", "stable_s": "s", "counting_s": "s",
    "extended_s": "s", "gnn_s": "s", "compile_s": "s", "model_save_s": "s",
    "model_load_s": "s", "model_bytes": "bytes", "peak_rss_mb": "MB",
}

# span name -> per-layer metric holding its self time
SELF_TIME_OF = {
    "formula.parse": "formula.parse_s",
    "formula.index": "formula.index_s",
    "graph.from_json": "graph.from_json_s",
    "semantics.evaluate": "semantics.evaluate_s",
    "semantics.stable_set": "semantics.stable_set_s",
    "counting.trans1": "counting.trans1_s",
    "counting.trans2": "counting.trans2_s",
    "counting.trans3": "counting.trans3_s",
    "counting.etrans_step": "counting.etrans_step_s",
    "rfnn.build": "rfnn.build_s",
    "gnn.apply_layer": "gnn.apply_layer_s",
    "gnn.run_gnn": "gnn.runner_self_s",
    "gnn.to_json": "gnn.to_json_s",
    "gnn.from_json": "gnn.from_json_s",
}
COUNT_METRICS = (
    "formula.subformulas", "formula.fixpoints", "graph.nodes", "graph.edges",
    "semantics.evaluate_calls", "semantics.stable_set_calls", "semantics.k",
    "counting.steps", "counting.k", "counting.extended_steps",
    "counting.countdown_steps", "rfnn.depth", "rfnn.hidden_units",
    "rfnn.carry_rows", "rfnn.dense_weights", "rfnn.nonzero_weights",
    "gnn.rounds", "gnn.dim",
)
MAC_METRICS = ("gnn.dense_macs_per_round", "gnn.useful_macs_per_round")


class Program:
    """The modules of `mugnn` in use.  Every call goes through them, so the
    traced run's wrappers on their attributes see it."""

    def __init__(self):
        for name in ("formula", "graph", "semantics", "counting", "rfnn", "gnn"):
            setattr(self, name, sys.modules[f"mugnn.{name}"])


class Instance:
    def __init__(self, name, tree, graph_data, want_k, model_path):
        self.name = name
        self.tree = tree
        self.want_k = want_k
        self.text = inputs.to_text(tree)
        self.graph_data = graph_data
        self.model_path = str(model_path)
        self.samples = {op: [] for op in OPS}
        self.phi = self.G = self.model = self.loaded = None
        self.model_bytes = None
        self.gnn_calls = 0
        self.result = {}

    def set_reference(self):
        truth = reference.holds(self.tree, reference.Graph(self.graph_data))
        self.want_bools = truth
        self.want_mask = sum(1 << i for i, t in enumerate(truth) if t)


def main(argv=None) -> int:
    started = perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC_DIR / "mugnn" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC_DIR / 'mugnn'} is missing",
              file=sys.stderr)
        return 2

    import numpy  # noqa: F401  imported once, outside the timed set-up

    sys.path.insert(0, str(SRC_DIR))
    work_dir = OUT_DIR / f"models-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return Bench(args, work_dir, started).run()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


class Bench:
    def __init__(self, args, work_dir: Path, started: float):
        self.args = args
        self.started = started
        self.reps = REPS[args.workload]
        self.instances = [
            Instance(name, tree, data, want_k, work_dir / f"{name}.json")
            for name, tree, data, want_k in inputs.WORKLOADS[args.workload](args.seed)
        ]
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.probe = []
        self.countdown = 0

    # -- set-up: import the program and build its inputs

    def setup_once(self):
        """Import a fresh copy of the program and build every input with it."""
        for name in program_modules():
            del sys.modules[name]
        t0 = perf_counter()
        importlib.import_module("mugnn")
        from_json = sys.modules["mugnn.graph"].graph_from_json
        parse = sys.modules["mugnn.formula"].parse
        built = {}
        for inst in self.instances:
            if id(inst.graph_data) not in built:
                built[id(inst.graph_data)] = from_json(inst.graph_data)
        phis = [parse(inst.text) for inst in self.instances]
        elapsed = perf_counter() - t0
        return elapsed, [built[id(inst.graph_data)] for inst in self.instances], phis

    def setup_sample(self) -> float:
        """Time one set-up, then put back the copy of the program in use."""
        in_use = {name: sys.modules[name] for name in program_modules()}
        elapsed = self.setup_once()[0]
        for name in program_modules():
            del sys.modules[name]
        sys.modules.update(in_use)
        return elapsed

    # -- one timed call, checked

    def call(self, inst, op, fn, check, timed=True):
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = fn()
        except Exception:
            self.failed += 1
            if self.failed == 1:
                print(f"{op} on {inst.name} raised:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            return None
        elapsed = perf_counter() - t0
        problem = check(result)
        if problem:
            self.failed += 1
            self.wrong += 1
            if self.wrong == 1:
                print(f"{op} on {inst.name}: {problem}", file=sys.stderr)
            return None
        if timed:
            inst.samples[op].append(elapsed)
        return result

    def build_inputs(self):
        """Build every graph and parse every formula, as set-up does."""
        P = self.program
        built = set()
        for inst in self.instances:
            if id(inst.graph_data) not in built:
                built.add(id(inst.graph_data))
                P.graph.graph_from_json(inst.graph_data)
            P.formula.parse(inst.text)

    def round(self, order, timed=True):
        """Run the calls of `order`, pairs of an instance and an operation."""
        for inst, op in order:
            self.ops[op](inst, timed)

    def make_ops(self):
        P = self.program

        def oracle(inst, timed):
            self.call(inst, "oracle", lambda: P.semantics.evaluate(inst.phi, inst.G),
                      lambda m: m != inst.want_mask and "wrong answer", timed)

        def stable(inst, timed):
            got = self.call(inst, "stable",
                            lambda: P.semantics.model_check_stable(inst.phi, inst.G),
                            lambda r: check_mask_k(inst, r[0], r[1]), timed)
            if got:
                inst.result["stable_k"] = got[1]

        def counting(inst, timed):
            got = self.call(inst, "counting",
                            lambda: P.counting.run_counting(inst.phi, inst.G),
                            lambda r: check_mask_k(inst, r[0].R[r[0].idx.root], r[0].k),
                            timed)
            if got:
                inst.result["counting_k"], inst.result["steps"] = got[0].k, got[1]

        def extended(inst, timed):
            got = self.call(inst, "extended",
                            lambda: P.counting.run_extended(inst.phi, inst.G),
                            lambda r: (r[0].D and "residual set not empty") or
                            check_mask_k(inst, r[0].config.R[r[0].config.idx.root],
                                         r[0].config.k),
                            timed)
            inst.result["esteps"] = got[1] if got else None

        def compile_(inst, timed):
            inst.model = self.call(
                inst, "compile",
                lambda: P.gnn.compile_formula(inst.phi, props=inst.G.props),
                lambda m: m.dim < 1 and "empty model", timed)

        def save(inst, timed):
            self.call(inst, "save", lambda: P.gnn.save_gnn(inst.model, inst.model_path),
                      lambda _: self.check_saved(inst), timed)

        def load(inst, timed):
            inst.loaded = self.call(inst, "load", lambda: P.gnn.load_gnn(inst.model_path),
                                    lambda m: check_same_model(inst.model, m), timed)

        def gnn(inst, timed):
            # the compiled and the reloaded model take turns, so both are checked
            model = inst.loaded if inst.gnn_calls % 2 else inst.model
            inst.gnn_calls += 1
            got = self.call(inst, "gnn", lambda: P.gnn.run_gnn(model, inst.G),
                            lambda r: check_gnn(inst, r), timed)
            if got:
                inst.result["rounds"] = got[1]

        return {
            "oracle": oracle, "stable": stable, "counting": counting,
            "extended": extended, "compile": compile_, "save": save, "load": load,
            "gnn": gnn,
            "probe": lambda inst, timed: self.probe.append(probe()),
            "setup": lambda inst, timed: self.setup.append(self.setup_sample()),
        }

    def check_saved(self, inst):
        size = os.path.getsize(inst.model_path)
        if inst.model_bytes is None:
            inst.model_bytes = size
        return size != inst.model_bytes and "saved model changed size"

    # -- the run

    def run(self) -> int:
        args = self.args
        elapsed, graphs, phis = self.setup_once()
        self.setup = [elapsed]
        for inst, G, phi in zip(self.instances, graphs, phis):
            inst.G, inst.phi = G, phi
            inst.set_reference()
        self.program = Program()
        self.ops = self.make_ops()
        # A warm-up pass, one call of each operation but the GNN on each
        # instance in order, so that every instance has its extended steps,
        # a saved and a reloaded model before the calls of a round are
        # interleaved.  The GNN, the longest call, is left out to keep the
        # run short.
        self.one_pass = [(inst, op) for inst in self.instances for op in OPS]
        with collector_off():
            self.round([call for call in self.one_pass if call[1] != "gnn"], timed=False)
        metrics = self.traced(args.seconds) if args.trace else self.measured(args.seconds)

        print(f"host probe: median {1e3 * statistics.median(self.probe):.3f} ms "
              f"over {len(self.probe)} samples of a fixed pure-Python loop")
        print(json.dumps({
            "correct": self.wrong == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }))
        return 0

    def rounds(self, seconds, one_round, minimum):
        """Repeat `one_round` until the next would end more than `seconds`
        after the run started, set-up and warm-up included.

        Rounds run with the garbage collector off; it runs between them.
        """
        times = []
        while True:
            t0 = perf_counter()
            with collector_off():
                one_round(len(times))
            times.append(perf_counter() - t0)
            finish = perf_counter() + statistics.median(times)
            if len(times) >= minimum and finish - self.started > seconds:
                return times

    def measured(self, seconds):
        # Set-up samples and host probes are calls of the round too, so that
        # their medians are not taken from a few moments of the host.
        order = schedule(self.instances, self.reps,
                         {"setup": SETUP_PER_ROUND, "probe": PROBES_PER_ROUND})
        times = self.rounds(seconds, lambda i: self.round(order), MIN_ROUNDS)
        setup = self.setup
        print(f"workload {self.args.workload} seed {self.args.seed}: "
              f"{len(self.instances)} instances, {len(times)} rounds of {len(order)} "
              f"interleaved calls, median round {statistics.median(times):.3f} s")
        metrics = {"setup_s": statistics.median(setup)}
        print(f"  setup_s      {metrics['setup_s']:.6f} s  "
              f"(median of {len(setup)} imports and input builds, spread over the run)")
        for op in OPS:
            name = METRIC_OF[op]
            counts = [len(inst.samples[op]) for inst in self.instances]
            if not all(counts):
                print(f"  {name}: an instance has no successful sample", file=sys.stderr)
                continue
            metrics[name] = sum(statistics.median(inst.samples[op]) for inst in self.instances)
            n = min(counts)
            line = (f"  {name:<12} {metrics[name]:.6f} s  "
                    f"({len(self.instances)} instances x {n} samples)")
            if n >= 40:
                pct = 100 * (n - 10) // n
                tail = sum(nearest_rank(inst.samples[op], pct) for inst in self.instances)
                line += f", p{pct} {tail:.6f} s"
            print(line)
        if all(inst.model_bytes for inst in self.instances):
            metrics["model_bytes"] = sum(inst.model_bytes for inst in self.instances)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"  model_bytes  {metrics.get('model_bytes')} bytes")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}

    # -- the traced run

    def traced(self, seconds):
        P = self.program
        tracer = Tracer()

        def count_countdown(args, result):
            if args[0].D:
                self.countdown += 1

        wanted = [
            (P.formula, "parse", "formula.parse", {}),
            (P.gnn, "parse", "formula.parse", {}),
            (P.formula, "index", "formula.index", {}),
            (P.counting, "index", "formula.index", {}),
            (P.gnn, "index", "formula.index", {}),
            (P.graph, "graph_from_json", "graph.from_json", {}),
            (P.semantics.Evaluator, "evaluate", "semantics.evaluate",
             {"outermost_only": True}),
            (P.semantics.Evaluator, "stable_set", "semantics.stable_set",
             {"outermost_only": True}),
            (P.counting, "trans1", "counting.trans1", {}),
            (P.counting, "trans2", "counting.trans2", {}),
            (P.counting, "trans3", "counting.trans3", {}),
            (P.counting, "etrans_step", "counting.etrans_step",
             {"on_return": count_countdown}),
            (P.rfnn.CircuitBuilder, "build", "rfnn.build", {}),
            (P.gnn, "apply_layer", "gnn.apply_layer", {}),
            (P.gnn, "run_gnn", "gnn.run_gnn", {}),
            (P.gnn, "gnn_to_json", "gnn.to_json", {}),
            (P.gnn, "gnn_from_json", "gnn.from_json", {}),
        ]
        plain, traced, per_pass = [], [], []

        def one_pass():
            self.build_inputs()
            self.round(self.one_pass, timed=False)
            self.probe.append(probe())

        def pair(i):
            t0 = perf_counter()
            one_pass()
            plain.append(perf_counter() - t0)
            tracer.reset()
            self.countdown = 0
            for owner, attr, name, options in wanted:
                tracer.patch(owner, attr, name, **options)
            t0 = perf_counter()
            try:
                one_pass()
            finally:
                tracer.unpatch()
            traced.append(perf_counter() - t0)
            per_pass.append(self.layer_metrics(tracer))

        self.rounds(seconds, pair, MIN_TRACED_ROUNDS)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{self.args.workload}-{self.args.seed}.json"
        tracer.write(trace_path, workload=self.args.workload, seed=self.args.seed)

        untraced, with_trace = statistics.median(plain), statistics.median(traced)
        print(f"workload {self.args.workload} seed {self.args.seed}: "
              f"{len(traced)} traced and {len(plain)} untraced passes")
        print(f"tracing overhead: {with_trace:.6f} s traced against {untraced:.6f} s "
              f"untraced per pass ({100 * (with_trace / untraced - 1):+.1f}%)")
        print(f"spans of the last traced pass: {len(tracer.spans)}, written to "
              f"{trace_path.relative_to(BENCH_DIR.parent)}")
        print("MAC counts are computed from the model and graph shapes, not measured")
        metrics = {}
        for name in per_pass[0]:
            values = [p[name] for p in per_pass]
            if name.endswith("_s"):
                metrics[name] = {"value": statistics.median(values), "unit": "s"}
            else:
                unit = "MAC/round" if name in MAC_METRICS else "count"
                metrics[name] = {"value": statistics.median_low(values), "unit": unit}
        return metrics

    def layer_metrics(self, tracer):
        """Per-layer figures for the pass the tracer has just recorded."""
        out = {metric: tracer.self_time.get(span, 0.0) for span, metric in SELF_TIME_OF.items()}
        counts = dict.fromkeys(COUNT_METRICS + MAC_METRICS, 0)
        counts["semantics.evaluate_calls"] = tracer.calls["semantics.evaluate"]
        counts["semantics.stable_set_calls"] = tracer.calls["semantics.stable_set"]
        counts["counting.countdown_steps"] = self.countdown
        graphs = set()
        for inst in self.instances:
            res, model, G = inst.result, inst.model, inst.G
            if id(G) not in graphs:
                graphs.add(id(G))
                counts["graph.nodes"] += G.n
                counts["graph.edges"] += sum(len(out_edges) for out_edges in G.adj)
            counts["semantics.k"] += res.get("stable_k") or 0
            counts["counting.k"] += res.get("counting_k") or 0
            counts["counting.steps"] += res.get("steps") or 0
            counts["counting.extended_steps"] += res.get("esteps") or 0
            counts["gnn.rounds"] += res.get("rounds") or 0
            if model is None:
                continue
            shape = rfnn_shape(model.comb.layers)
            counts["formula.subformulas"] += model.idx.n
            counts["formula.fixpoints"] += model.idx.n_fp
            counts["gnn.dim"] += model.dim
            for key, value in shape.items():
                counts[f"rfnn.{key}"] += value
            edges = sum(len(out_edges) for out_edges in G.adj)
            counts["gnn.dense_macs_per_round"] += (
                G.n * G.n * model.dim + G.n * shape["dense_weights"])
            counts["gnn.useful_macs_per_round"] += (
                edges * model.dim + G.n * shape["nonzero_weights"])
        out.update(counts)
        return out


def schedule(instances, reps, extras) -> list:
    """The calls of one round, in the order they run.

    A stream is one operation on one instance, called `reps[op]` times a
    round, or one of `extras`, called its count of times on no instance.
    Each stream's calls are spread evenly over the round, and the streams
    start at staggered phases.  So a cheap operation repeated r times is
    timed at r moments between the other calls, not in one burst, and its
    median does not rest on a few moments of a host whose speed drifts.
    """
    streams = [(inst, op, reps[op]) for inst in instances for op in OPS]
    streams += [(None, name, count) for name, count in extras.items()]
    slots = []
    for s, (inst, op, count) in enumerate(streams):
        phase = (s + 0.5) / len(streams)
        slots += [((k + phase) / count, s, inst, op) for k in range(count)]
    slots.sort(key=lambda slot: slot[:2])
    return [(inst, op) for _, _, inst, op in slots]


@contextlib.contextmanager
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def program_modules() -> list[str]:
    return [name for name in sys.modules if name == "mugnn" or name.startswith("mugnn.")]


def check_mask_k(inst, mask, k):
    if mask != inst.want_mask:
        return "wrong answer"
    if inst.want_k is not None and k != inst.want_k:
        return f"k is {k}, expected {inst.want_k}"
    return None


def check_same_model(model, loaded):
    if model is None or loaded.dim != model.dim or loaded.out_index != model.out_index:
        return "reloaded model differs from the compiled one"
    return None


def check_gnn(inst, result):
    out, rounds, _ = result
    if out != inst.want_bools:
        return "wrong answer"
    if rounds != inst.result.get("esteps"):
        return f"{rounds} rounds, but {inst.result.get('esteps')} extended steps"
    return None


def rfnn_shape(layers) -> dict:
    hidden = layers[:-1]
    carry = sum(
        1
        for W, bias in hidden
        for row, b in zip(W, bias)
        if b == 0 and [w for w in row if w] == [1]
    )
    return {
        "depth": len(layers),
        "hidden_units": sum(len(bias) for _, bias in hidden),
        "carry_rows": carry,
        "dense_weights": sum(len(W) * (len(W[0]) if W else 0) for W, _ in layers),
        "nonzero_weights": sum(1 for W, _ in layers for row in W for w in row if w),
    }


def nearest_rank(samples, pct):
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def probe() -> float:
    """Time of a fixed pure-Python loop: how fast the host runs right now."""
    t0 = perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - t0


if __name__ == "__main__":
    sys.exit(main())
