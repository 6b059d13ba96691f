import json

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from mugnn.cli import ENGINES, main
from mugnn.formula import MAX_DEPTH, parse
from mugnn.gnn import GnnError, compile_formula, gnn_to_json
from mugnn.graph import graph_to_json

from oracles import is_well_named
from test_formula import TOO_DEEP
from test_gnn import _dim, _set


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def g1_path(tmp_path, g1):
    path = tmp_path / "g1.json"
    path.write_text(json.dumps(graph_to_json(g1)))
    return str(path)


REACH = "mu X.(p | <>X)"


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


@pytest.mark.parametrize("engine", ["oracle", "stable", "counting", "extended", "gnn"])
def test_check_engines_agree(runner, g1_path, engine):
    res = invoke(runner, "check", REACH, g1_path, "--engine", engine)
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["engine"] == engine
    assert report["output"] == {"0": True, "1": True, "2": True}
    if engine in ("stable", "counting", "extended"):
        assert report["k_used"] == 4


def test_check_pretty_json(runner, g1_path):
    res = invoke(runner, "check", REACH, g1_path, "--json")
    assert res.exit_code == 0
    assert res.output.startswith("{\n")


def test_check_parse_error_exit_2(runner, g1_path):
    res = invoke(runner, "check", "mu X.(p |", g1_path)
    assert res.exit_code == 2
    assert "error:" in res.output


@pytest.mark.parametrize("name", sorted(TOO_DEEP))
def test_check_too_deep_exit_2(runner, g1_path, name):
    res = invoke(runner, "check", TOO_DEEP[name], g1_path)
    assert res.exit_code == 2
    assert "error:" in res.output and "nested deeper than" in res.output


AT_DEPTH_LIMIT = {
    "modalities": "<>" * (MAX_DEPTH - 1) + "p",
    "parentheses": "(" * 2 * MAX_DEPTH + "p" + ")" * 2 * MAX_DEPTH,
    "flat-or": " | ".join(["q"] * MAX_DEPTH),
    "binder": "mu X.(p | " + "<>" * (MAX_DEPTH - 3) + "X)",
}


@pytest.mark.parametrize("name", sorted(AT_DEPTH_LIMIT))
def test_check_at_depth_limit_runs_on_every_engine(runner, g1_path, name):
    outputs = set()
    for engine in ("oracle", "stable", "counting", "extended", "gnn"):
        res = invoke(runner, "check", AT_DEPTH_LIMIT[name], g1_path, "--engine", engine)
        assert res.exit_code == 0, (engine, res.output)
        outputs.add(json.dumps(json.loads(res.output)["output"]))
    assert len(outputs) == 1


def test_check_graph_error_exit_3(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"props": ["p"], "nodes": [], "edges": [["a", "b"]]}))
    res = invoke(runner, "check", "p", str(bad))
    assert res.exit_code == 3


@pytest.mark.parametrize(
    "data",
    [
        {"props": [], "nodes": [{"name": "a"}], "edges": []},
        {"props": [], "nodes": 5, "edges": []},
        {"props": [], "nodes": [{"id": "a"}], "edges": [["a"]]},
        {"props": "pq", "nodes": [{"id": "a", "props": "pq"}], "edges": []},
        {"props": ["p"], "nodes": [{"id": "a", "props": {"p": 0}}], "edges": []},
        {"props": ["p"], "nodes": [{"id": "a"}, {"id": "b"}], "edges": [{"b": 1, "a": 2}]},
        {"props": ["p"], "nodes": [{"id": None}, {"id": "a"}], "edges": [[None, "a"]]},
        {"props": ["p"], "nodes": [{"id": {"x": 1}}, {"id": "a"}], "edges": [["a", "a"]]},
    ],
    ids=["node-without-id", "nodes-not-a-list", "edge-not-a-pair", "string-props",
         "object-props", "object-edge", "null-id", "object-id"],
)
def test_check_malformed_graph_exit_3(runner, tmp_path, data):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    res = invoke(runner, "check", "p", str(bad))
    assert res.exit_code == 3
    assert "error:" in res.output


def test_deeply_nested_json_is_an_error_not_a_traceback(runner, tmp_path, g1_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    res = invoke(runner, "check", "p", str(deep))
    assert res.exit_code == 3
    assert "error: malformed graph JSON" in res.output
    res = invoke(runner, "run", str(deep), g1_path)
    assert res.exit_code == 2
    assert "cannot load model" in res.output


def test_check_missing_graph_file_exit_3(runner, tmp_path):
    res = invoke(runner, "check", "p", str(tmp_path / "nope.json"))
    assert res.exit_code == 3


def test_check_safeguard_exit_4(runner, g1_path):
    res = invoke(runner, "check", REACH, g1_path, "--engine", "counting", "--max-steps", "2")
    assert res.exit_code == 4


@pytest.mark.parametrize("engine", ["counting", "gnn"])
def test_check_max_steps_zero_is_a_safeguard_trip(runner, g1_path, engine):
    res = invoke(runner, "check", REACH, g1_path, "--engine", engine, "--max-steps", "0")
    assert res.exit_code == 4


@pytest.mark.parametrize(
    "args",
    [
        ["check", REACH, "G", "--engine", "counting", "--max-steps", "-1"],
        ["check", REACH, "G", "--engine", "gnn", "--max-steps", "-1"],
        ["run", "M", "G", "--max-steps", "-1"],
        ["compare", REACH, "G", "--max-steps", "-1"],
        ["compare", "--trials", "-1"],
        ["trace", REACH, "G", "--max-steps", "-1"],
    ],
    ids=["check-counting", "check-gnn", "run", "compare", "compare-trials", "trace"],
)
def test_negative_budget_is_a_usage_error(runner, tmp_path, g1_path, args):
    # a usage error (exit 2), not a safeguard trip (exit 4)
    model = str(tmp_path / "m.json")
    invoke(runner, "compile", REACH, model, "--props", "p,q")
    args = [{"G": g1_path, "M": model}.get(a, a) for a in args]
    res = invoke(runner, *args)
    assert res.exit_code == 2
    assert "not in the range x>=0" in res.output


def test_compile_reports_features_and_levels(runner, tmp_path):
    model = str(tmp_path / "model.json")
    res = invoke(runner, "compile", REACH, model)
    assert res.exit_code == 0
    assert res.output == f"wrote model (23 features, 8 layers) to {model}\n"


def test_compile_then_run_matches_check(runner, tmp_path, g1_path):
    model = str(tmp_path / "model.json")
    res = invoke(runner, "compile", REACH, model, "--props", "p,q")
    assert res.exit_code == 0
    res_run = invoke(runner, "run", model, g1_path)
    assert res_run.exit_code == 0
    res_chk = invoke(runner, "check", REACH, g1_path, "--engine", "gnn")
    got = json.loads(res_run.output)
    want = json.loads(res_chk.output)
    assert got["output"] == want["output"]
    assert got["iterations"] == want["iterations"]


def test_compile_rejects_open_formula(runner, tmp_path):
    res = invoke(runner, "compile", "X | p", str(tmp_path / "m.json"))
    assert res.exit_code == 2


def test_open_formula_exit_2(runner, g1_path):
    # every engine, and compare and trace, reject it with one message
    runs = [["check", "p | X", g1_path, "--engine", e] for e in ENGINES]
    runs += [["compare", "p | X", g1_path]]
    runs += [["trace", "p | X", g1_path, "--engine", e] for e in ["counting", "extended", "gnn"]]
    for args in runs:
        res = invoke(runner, *args)
        assert res.exit_code == 2, args
        assert res.output == "error: a sentence (no free variables) is required\n", args


def test_compile_duplicate_props_then_run(runner, tmp_path, g1_path):
    model = str(tmp_path / "m.json")
    assert invoke(runner, "compile", REACH, model, "--props", "p,p,q").exit_code == 0
    res = invoke(runner, "run", model, g1_path)
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["output"] == {"0": True, "1": True, "2": True}


TOKENS = ("mu", "nu", "X", "Y", "p", "q", "z", "~", "&", "|", "(", ")", ".", "<>", "[]",
          "<2>", "[3]", "<0>", "<", "]", "P", "7")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.lists(st.sampled_from(TOKENS), min_size=1, max_size=12).map(" ".join))
def test_formula_text_fuzz_ends_in_a_documented_exit_code(runner, g1_path, tmp_path, text):
    runs = [["check", text, g1_path, "--engine", e] for e in ENGINES]
    runs += [["compile", text, str(tmp_path / "m.json")]]
    for args in runs:
        res = runner.invoke(main, args)  # an uncaught exception exits 1
        assert res.exit_code in (0, 2, 3, 4), (args, res.output, res.exception)
        assert "Traceback" not in res.output, args


def test_run_bad_model_exit_2(runner, tmp_path, g1_path):
    bad = tmp_path / "m.json"
    bad.write_text("{}")
    res = invoke(runner, "run", str(bad), g1_path)
    assert res.exit_code == 2


def _format_2(data):
    """The same model as format 2 wrote it: each layer's columns index the
    outputs of the layer before, and a value read at a later level passes
    through identity carry rows."""
    *levels, _ = data["layer"]
    last_read = {}  # atom -> the last level that reads it
    for li, layer in enumerate(data["layer"]):
        for row in layer["weights"]:
            last_read.update(dict.fromkeys(row[0::2], li))
    cols = list(range(2 * _dim(data)))  # the atom in each column of the layer before
    layers = []
    for li, layer in enumerate(data["layer"]):
        at = {a: i for i, a in enumerate(cols)}
        weights = [[x for col, coef in zip(row[0::2], row[1::2]) for x in (at[col], coef)]
                   for row in layer["weights"]]
        if li == len(levels):
            layers.append({**layer, "weights": weights})
            break
        carried = [a for a in cols if last_read.get(a, -1) > li]
        layers.append({
            "rows": len(carried) + len(layer["weights"]),
            "weights": [[at[a], 1] for a in carried] + weights,
            "bias": [0] * len(carried) + layer["bias"],
        })
        first = 2 * _dim(data) + sum(len(lay["weights"]) for lay in levels[:li])
        cols = carried + list(range(first, first + len(layer["weights"])))
    return {**data, "format": 2, "layer": layers}


def _dense_format(data):
    """The same model in the dense layout written before model format 2."""
    width = 2 * _dim(data)
    data = _format_2(data)
    del data["format"]
    for layer in data["layer"]:
        dense = []
        for row in layer["weights"]:
            full = [0] * width
            for col, coef in zip(row[0::2], row[1::2]):
                full[col] = coef
            dense.append(full)
        layer.update(cols=width, weights=dense)
        width = len(layer["weights"])
    return data


@pytest.mark.parametrize(
    "damage",
    [
        lambda d: {**d, "formula": 5},
        lambda d: {**d, "layout": []},
        lambda d: {**d, "layer": 3},
        lambda d: [d],
        _dense_format,
        _format_2,
        lambda d: {**d, "formula": "mu X.(z | <>X)"},
        _set(["layer", 0, "weights", 0, 1], 2**45),
        _set(["layer", 0, "bias", 0], 2**70),
        _set(["layer", 1, "weights", 0, 0], 2**70),
        _set(["layer", 1, "weights", 0, 1], True),
        _set(["layer", 1, "weights", 0, 1], 1.0),
        _set(["layer", 2, "weights", 0], [0, 1, 2]),
        lambda d: {**d, "layer": [{**layer, "rows": 99} for layer in d["layer"]]},
        _set(["format"], 3),
        _set(["dim"], 24),
        _set(["formula"], "nu X.(q | <>X)"),
        lambda d: {key: value for key, value in d.items() if key != "sha256"},
    ],
    ids=["formula-not-a-string", "layout-not-an-object", "layer-not-a-list",
         "top-level-list", "dense-format-1", "format-2", "prop-outside-layout",
         "coef-beyond-max-weight", "bias-beyond-int64", "column-beyond-int64", "bool-coef",
         "float-coef", "odd-row-in-a-later-layer", "rows-not-the-row-count", "format-3",
         "dim-key", "swapped-formula", "no-sha256"],
)
def test_run_malformed_model_exit_2(runner, tmp_path, g1_path, damage):
    data = gnn_to_json(compile_formula(REACH, props=["p", "q"]))
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps(damage(data)))
    res = invoke(runner, "run", str(bad), g1_path)
    assert res.exit_code == 2
    assert "cannot load model" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("raw", [b"\xff\xfe{}", b"{"], ids=["not-utf8", "truncated"])
def test_run_malformed_model_json_exit_2(runner, tmp_path, g1_path, raw):
    bad = tmp_path / "m.json"
    bad.write_bytes(raw)
    res = invoke(runner, "run", str(bad), g1_path)
    assert res.exit_code == 2
    assert "error: cannot load model: malformed model JSON" in res.output


def test_run_universe_mismatch_exit_3(runner, tmp_path, g1_path):
    model = str(tmp_path / "m.json")
    invoke(runner, "compile", "p", model, "--props", "p")
    res = invoke(runner, "run", model, g1_path)
    assert res.exit_code == 3


def test_compare_single_instance_agrees(runner, g1_path):
    res = invoke(runner, "compare", REACH, g1_path)
    assert res.exit_code == 0
    assert json.loads(res.output)["verdict"] == "agree"


def test_compare_trials(runner):
    res = invoke(runner, "compare", "--trials", "5", "--seed", "7")
    assert res.exit_code == 0
    lines = [json.loads(line) for line in res.output.splitlines()]
    assert len(lines) == 5
    assert all(entry["verdict"] == "agree" for entry in lines)


def test_compare_disagreement_exit_1(runner, g1_path, monkeypatch):
    import mugnn.cli as cli_mod

    real = cli_mod._run_engine
    # the gnn answer with the nodes of `flip` flipped; node 0 is the lowest
    for flip in (0b001, 0b101):

        def broken(phi, G, engine, max_steps=None):
            mask, k, it = real(phi, G, engine, max_steps)
            if engine == "gnn":
                mask ^= flip
            return mask, k, it

        monkeypatch.setattr(cli_mod, "_run_engine", broken)
        res = invoke(runner, "compare", REACH, g1_path)
        assert res.exit_code == 1
        report = json.loads(res.output)
        assert report["verdict"] == "disagree"
        assert report["engine"] == "gnn"
        assert report["first_differing_node"] == "0"


def test_compare_without_args_exit_2(runner):
    res = invoke(runner, "compare")
    assert res.exit_code == 2


def test_trace_counting_lines(runner, g1_path):
    res = invoke(runner, "trace", REACH, g1_path)
    assert res.exit_code == 0
    lines = [json.loads(line) for line in res.output.splitlines()]
    assert len(lines) >= 3
    assert lines[0]["kind"] == "init"
    assert lines[-1]["k"] == 4


def test_trace_extended_has_d_field(runner, g1_path):
    res = invoke(runner, "trace", REACH, g1_path, "--engine", "extended")
    assert res.exit_code == 0
    lines = [json.loads(line) for line in res.output.splitlines()]
    assert all("D" in entry for entry in lines)


def test_trace_gnn_line_count_matches_iterations(runner, g1_path):
    res = invoke(runner, "trace", REACH, g1_path, "--engine", "gnn")
    chk = invoke(runner, "check", REACH, g1_path, "--engine", "gnn")
    iters = json.loads(chk.output)["iterations"]
    lines = res.output.splitlines()
    assert res.exit_code == 0
    assert len(lines) == iters + 1


def test_trace_on_empty_graph(runner, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"props": ["p"], "nodes": [], "edges": []}))
    lines = {}
    for engine in ("counting", "extended", "gnn"):
        res = invoke(runner, "trace", REACH, str(path), "--engine", engine)
        assert res.exit_code == 0, res.output
        lines[engine] = [json.loads(line) for line in res.output.splitlines()]
    # the GNN run halts at once: its one line is the start state
    (only,) = lines["gnn"]
    assert only["kind"] == "gnn" and {**only, "kind": "init"} == lines["counting"][0]
    assert {**only, "kind": "init"} == lines["extended"][0]


def _without_kind(output):
    return [{k: v for k, v in json.loads(line).items() if k != "kind"}
            for line in output.splitlines()]


def test_trace_gnn_equals_extended_without_kind(runner, g1_path):
    # a round is one extended step, decoded
    gnn = invoke(runner, "trace", REACH, g1_path, "--engine", "gnn")
    ext = invoke(runner, "trace", REACH, g1_path, "--engine", "extended")
    assert gnn.exit_code == ext.exit_code == 0
    assert _without_kind(gnn.output) == _without_kind(ext.output)
    assert len(gnn.output.splitlines()) > 1


def test_trace_gnn_prints_no_floats(runner, g1_path):
    def no_float(text):
        raise AssertionError(f"float {text} in a trace line")

    res = invoke(runner, "trace", REACH, g1_path, "--engine", "gnn")
    assert res.exit_code == 0
    for line in res.output.splitlines():
        json.loads(line, parse_float=no_float)


@pytest.mark.parametrize("command", [["trace", "--engine", "gnn"], ["compare"], ["run"]])
def test_gnn_error_exit_2(runner, tmp_path, g1_path, monkeypatch, command):
    import mugnn.cli as cli_mod

    def broken(*a, **kw):
        raise GnnError("activation magnitude bound exceeded")

    first = REACH
    if command[0] == "run":  # run reads a model file, not a formula
        first = str(tmp_path / "m.json")
        invoke(runner, "compile", REACH, first, "--props", "p,q")
    monkeypatch.setattr(cli_mod, "run_gnn", broken)
    res = invoke(runner, command[0], first, g1_path, *command[1:])
    assert res.exit_code == 2
    assert "error: activation magnitude bound exceeded" in res.output


def test_trace_safeguard_exit_4(runner, g1_path):
    res = invoke(runner, "trace", REACH, g1_path, "--max-steps", "2")
    assert res.exit_code == 4


def test_trace_streams_before_safeguard_exit_4(runner, g1_path):
    # the lines of the steps taken come out before the run stops
    lines = {}
    for engine in ("extended", "gnn"):
        res = invoke(runner, "trace", REACH, g1_path, "--engine", engine, "--max-steps", "2")
        assert res.exit_code == 4
        assert "run exceeded 2" in res.stderr
        lines[engine] = _without_kind(res.stdout)
        assert len(lines[engine]) == 3
    assert lines["gnn"] == lines["extended"]


def test_gen_formula_deterministic(runner):
    a = invoke(runner, "gen-formula", "--seed", "5")
    b = invoke(runner, "gen-formula", "--seed", "5")
    c = invoke(runner, "gen-formula", "--seed", "6")
    assert a.exit_code == 0 and a.output == b.output
    assert a.output != c.output or True  # different seeds usually differ


def test_gen_formula_parses_back(runner):
    for seed in range(10):
        res = invoke(runner, "gen-formula", "--seed", str(seed))
        assert res.exit_code == 0
        assert is_well_named(parse(res.output.strip()))


def test_gen_graph_loads_back(runner, tmp_path):
    from mugnn.graph import load_graph

    res = invoke(runner, "gen-graph", "--seed", "5", "--max-nodes", "6")
    assert res.exit_code == 0
    path = tmp_path / "g.json"
    path.write_text(res.output)
    G = load_graph(path)
    assert 1 <= G.n <= 6


def test_gen_pipeline_checks(runner, tmp_path):
    gf = invoke(runner, "gen-formula", "--seed", "9", "--max-size", "10")
    gg = invoke(runner, "gen-graph", "--seed", "9", "--max-nodes", "5")
    path = tmp_path / "g.json"
    path.write_text(gg.output)
    res = invoke(runner, "check", gf.output.strip(), str(path), "--engine", "counting")
    assert res.exit_code == 0


def test_check_non_utf8_graph_exit_3(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    res = invoke(runner, "check", "p", str(bad))
    assert res.exit_code == 3
    assert "error: malformed graph JSON" in res.output


def test_check_proposition_outside_graph_universe_exit_3(runner, g1_path):
    # every engine, and compare and trace, reject it before running
    runs = [["check", "z", g1_path, "--engine", e] for e in ["oracle", "stable", "counting",
                                                             "extended", "gnn"]]
    runs += [["compare", "mu X.(z | <>X)", g1_path]]
    runs += [["trace", "~z", g1_path, "--engine", e] for e in ["counting", "extended", "gnn"]]
    for args in runs:
        res = invoke(runner, *args)
        assert res.exit_code == 3, args
        assert res.output == "error: proposition 'z' not in universe ['p', 'q']\n", args


def test_compile_unwritable_path_exit_2(runner, tmp_path):
    res = invoke(runner, "compile", "p", str(tmp_path / "no" / "such" / "m.json"))
    assert res.exit_code == 2
    assert "error: cannot write model" in res.output


@pytest.mark.parametrize(
    "args", [["gen-graph", "--max-nodes", "0"], ["gen-formula", "--max-grade", "0"],
             ["gen-formula", "--max-size", "0"]]
)
def test_gen_bounds_below_one_exit_2(runner, args):
    res = invoke(runner, *args)
    assert res.exit_code == 2
    assert "not in the range x>=1" in res.output


def test_gen_formula_negative_fixpoints_exit_2(runner):
    res = invoke(runner, "gen-formula", "--max-fixpoints", "-1")
    assert res.exit_code == 2
    assert "not in the range x>=0" in res.output


@pytest.mark.parametrize("props", [",", "P", "p,Q", "mu", "p q", ""])
def test_gen_formula_rejects_non_proposition_names(runner, props, tmp_path):
    # gen-graph and compile read --props the same way: a graph or model over
    # a name no formula can mention is a usage error
    for args in (["gen-formula"], ["gen-graph"], ["compile", "p", str(tmp_path / "m.json")]):
        res = invoke(runner, *args, "--props", props)
        assert res.exit_code == 2, args
        assert "is not a lowercase proposition name" in res.output, args
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("prob", ["-0.1", "1.5", "nan"])
def test_gen_graph_edge_prob_outside_unit_interval_exit_2(runner, prob):
    res = invoke(runner, "gen-graph", "--edge-prob", prob)
    assert res.exit_code == 2
    assert "--edge-prob" in res.output
