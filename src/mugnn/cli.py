"""Command-line surface: check, compile, run, compare, trace, generators."""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
import time

import click

from .counting import SafeguardExceeded, run_counting, run_extended
from .formula import FormulaError, Prop, parse, sentence, to_text
from .gen import random_formula, random_graph
from .gnn import GnnError, compile_formula, load_gnn, run_gnn, save_gnn
from .graph import GraphError, graph_to_json, load_graph, mask_of
from .semantics import evaluate, model_check_stable

EXIT_PARSE = 2
EXIT_GRAPH = 3
EXIT_SAFEGUARD = 4
# the exit code of each error a command's input can raise, first match wins
EXIT_CODES = {
    SafeguardExceeded: EXIT_SAFEGUARD,
    GraphError: EXIT_GRAPH,
    FormulaError: EXIT_PARSE,
    GnnError: EXIT_PARSE,
}

ENGINES = ("oracle", "stable", "counting", "extended", "gnn")


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load(formula_text, graph_path):
    """The index of the formula, well-named, and the graph.  An open formula
    is a FormulaError and a proposition outside the graph's universe a
    GraphError here, before any engine runs."""
    idx = sentence(formula_text)
    G = load_graph(graph_path)
    for p in sorted(idx.props):
        G.prop_mask(p)  # raises GraphError outside the universe
    return idx, G


def _prop_names(ctx, param, value):
    """Comma-separated names, each one that `parse` reads as a proposition."""
    if value is None:
        return None
    names = value.split(",")
    for name in names:
        try:
            ok = parse(name) == Prop(name)
        except FormulaError:
            ok = False
        if not ok:
            raise click.BadParameter(f"{name!r} is not a lowercase proposition name")
    return names


def _not_nan(ctx, param, value):
    """`click.FloatRange` only compares, and NaN fails no comparison."""
    if math.isnan(value):
        raise click.BadParameter("nan is not a probability")
    return value


def _run_engine(idx, G, engine, max_steps=None):
    """Returns (mask, k_used or None, iterations or None)."""
    if engine == "oracle":
        return evaluate(idx, G), None, None
    if engine == "stable":
        mask, k = model_check_stable(idx, G)
        return mask, k, None
    if engine == "counting":
        cfg, steps = run_counting(idx, G, max_steps=max_steps)
        return cfg.R[cfg.idx.root], cfg.k, steps
    if engine == "extended":
        x, steps = run_extended(idx, G, max_steps=max_steps)
        cfg = x.config
        return cfg.R[cfg.idx.root], cfg.k, steps
    if engine == "gnn":
        out, iters, _ = run_gnn(compile_formula(idx, props=G.props), G, max_steps=max_steps)
        return mask_of(n for n, bit in enumerate(out) if bit), None, iters
    raise ValueError(f"unknown engine {engine!r}")


def _report(phi, G, graph_path, engine, mask, k_used, iterations, elapsed):
    return {
        "formula": to_text(phi),
        "graph": str(graph_path),
        "engine": engine,
        "output": {nid: bool(mask >> i & 1) for i, nid in enumerate(G.node_ids)},
        "k_used": k_used,
        "iterations": iterations,
        "wall_time_s": elapsed,
    }


def _emit(obj, pretty):
    click.echo(json.dumps(obj, indent=2 if pretty else None, sort_keys=False))


class _Main(click.Group):
    """Ends a command that raises an error of `EXIT_CODES` with an `error:`
    line and that error's exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except tuple(EXIT_CODES) as e:
            _fail(next(code for kind, code in EXIT_CODES.items() if isinstance(e, kind)), str(e))


@click.group(cls=_Main)
def main():
    """Graded modal mu-calculus model checking and GNN compilation."""


@main.command()
@click.argument("formula")
@click.argument("graph", type=click.Path())
@click.option("--engine", type=click.Choice(ENGINES), default="oracle")
@click.option("--max-steps", type=click.IntRange(min=0), default=None)
@click.option("--json", "pretty", is_flag=True, help="pretty-print the JSON report")
def check(formula, graph, engine, max_steps, pretty):
    """Evaluate FORMULA on GRAPH with the chosen engine."""
    idx, G = _load(formula, graph)
    t0 = time.perf_counter()
    mask, k_used, iters = _run_engine(idx, G, engine, max_steps)
    elapsed = time.perf_counter() - t0
    _emit(_report(idx.root_formula, G, graph, engine, mask, k_used, iters, elapsed), pretty)


@main.command(name="compile")
@click.argument("formula")
@click.argument("out", type=click.Path())
@click.option("--props", default=None, callback=_prop_names,
              help="comma-separated proposition universe")
def compile_cmd(formula, out, props):
    """Compile FORMULA to a GNN model file."""
    gnn = compile_formula(formula, props=props)
    try:
        save_gnn(gnn, out)
    except OSError as e:
        _fail(EXIT_PARSE, f"cannot write model: {e}")
    click.echo(f"wrote model ({gnn.dim} features, {len(gnn.comb.sizes)} layers) to {out}")


@main.command()
@click.argument("model", type=click.Path())
@click.argument("graph", type=click.Path())
@click.option("--max-steps", type=click.IntRange(min=0), default=None)
@click.option("--json", "pretty", is_flag=True)
def run(model, graph, max_steps, pretty):
    """Run a saved GNN model on GRAPH."""
    try:
        gnn = load_gnn(model)
    except (OSError, GnnError) as e:
        _fail(EXIT_PARSE, f"cannot load model: {e}")
    G = load_graph(graph)
    if tuple(G.props) != gnn.props:
        _fail(EXIT_GRAPH, f"graph universe {list(G.props)} is not the model's {list(gnn.props)}")
    t0 = time.perf_counter()
    out, iters, _ = run_gnn(gnn, G, max_steps=max_steps)
    phi, mask = gnn.idx.root_formula, mask_of(n for n, bit in enumerate(out) if bit)
    _emit(_report(phi, G, graph, "gnn", mask, None, iters, time.perf_counter() - t0), pretty)


@main.command()
@click.argument("formula", required=False)
@click.argument("graph", type=click.Path(), required=False)
@click.option("--trials", type=click.IntRange(min=0), default=None,
              help="compare on random instances instead")
@click.option("--seed", type=int, default=0)
@click.option("--max-steps", type=click.IntRange(min=0), default=None)
def compare(formula, graph, trials, seed, max_steps):
    """Run every engine and report agreement."""
    instances = []
    if trials is not None:
        rng = random.Random(seed)
        for _ in range(trials):
            instances.append((sentence(random_formula(rng)), random_graph(rng)))
    else:
        if formula is None or graph is None:
            _fail(EXIT_PARSE, "compare needs FORMULA and GRAPH, or --trials")
        instances.append(_load(formula, graph))

    disagreements = 0
    for idx, G in instances:
        results = {}
        for engine in ENGINES:
            results[engine], _, _ = _run_engine(idx, G, engine, max_steps)
        baseline = results["oracle"]
        bad = {e: m for e, m in results.items() if m != baseline}
        if bad:
            disagreements += 1
            diff_engine, diff_mask = next(iter(bad.items()))
            diff = baseline ^ diff_mask
            first_node = (diff & -diff).bit_length() - 1  # the lowest differing node
            click.echo(
                json.dumps(
                    {
                        "verdict": "disagree",
                        "formula": to_text(idx.root_formula),
                        "engine": diff_engine,
                        "first_differing_node": G.node_ids[first_node],
                    }
                )
            )
        else:
            click.echo(json.dumps({"verdict": "agree", "formula": to_text(idx.root_formula)}))
    if disagreements:
        sys.exit(1)


def _summary(kind, cfg, D, step):
    return {
        "step": step,
        "kind": kind,
        "k": cfg.k,
        "C": list(cfg.C),
        "F_size": bin(cfg.F).count("1"),
        "D": sorted(cfg.idx.var_names[vi] for vi in D),
        "R": {to_text(cfg.idx.formulas[p]): cfg.R[p].bit_count() for p in range(cfg.idx.n)},
        "S": {to_text(cfg.idx.formulas[p]): cfg.S[p].bit_count() for p in range(cfg.idx.n)},
    }


@main.command()
@click.argument("formula")
@click.argument("graph", type=click.Path())
@click.option("--engine", type=click.Choice(("counting", "extended", "gnn")), default="counting")
@click.option("--max-steps", type=click.IntRange(min=0), default=None)
def trace(formula, graph, engine, max_steps):
    """Stream one JSON line per step of the chosen engine as it happens: per
    transition for counting, per extended step for extended, and per round,
    decoded, for gnn."""
    idx, G = _load(formula, graph)
    steps = itertools.count()

    def echo(kind, cfg, D=()):
        click.echo(json.dumps(_summary(kind, cfg, D, next(steps))))

    if engine == "counting":
        run_counting(idx, G, on_config=echo, max_steps=max_steps)
    elif engine == "extended":
        run_extended(idx, G, on_config=lambda kind, x: echo(kind, x.config, x.D),
                     max_steps=max_steps)
    else:
        run_gnn(compile_formula(idx, props=G.props), G,
                on_config=lambda kind, x: echo("gnn", x.config, x.D), max_steps=max_steps)


@main.command(name="gen-formula")
@click.option("--seed", type=int, default=0)
@click.option("--max-size", type=click.IntRange(min=1), default=25)
@click.option("--max-fixpoints", type=click.IntRange(min=0), default=3)
@click.option("--max-grade", type=click.IntRange(min=1), default=3)
@click.option("--props", default="p,q,r", callback=_prop_names)
def gen_formula_cmd(seed, max_size, max_fixpoints, max_grade, props):
    """Print a random sentence."""
    rng = random.Random(seed)
    phi = random_formula(
        rng,
        props=props,
        max_size=max_size,
        max_fixpoints=max_fixpoints,
        max_grade=max_grade,
    )
    click.echo(to_text(phi))


@main.command(name="gen-graph")
@click.option("--seed", type=int, default=0)
@click.option("--max-nodes", type=click.IntRange(min=1), default=10)
@click.option("--edge-prob", type=click.FloatRange(0, 1), default=0.3, callback=_not_nan)
@click.option("--props", default="p,q,r", callback=_prop_names)
def gen_graph_cmd(seed, max_nodes, edge_prob, props):
    """Print a random graph as JSON."""
    rng = random.Random(seed)
    G = random_graph(rng, max_nodes=max_nodes, edge_prob=edge_prob, props=props)
    click.echo(json.dumps(graph_to_json(G)))


if __name__ == "__main__":
    main()
