import io
import json
import os
import subprocess
import sys

import pytest

import cgkit.cli
import cgkit.models
import cgkit.separation
from cgkit.cli import run
from cgkit.fileformat import parse, serialize
from cgkit.models import MAX_GEN_NODES, IndependenceModel

from _corpus import demo_graph


DATA = "tests/data"
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def _golden_text(name):
    with open(f"{DATA}/{name}") as fh:
        return fh.read()


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- validate ----------------------------------------------------------------


def test_validate_ok(capsys):
    code, out, err = _run(capsys, "validate", f"{DATA}/demo_g.cg")
    assert (code, out, err) == (0, "ok\n", "")


def test_validate_reports_violations(capsys, tmp_path):
    bad = tmp_path / "bad.cg"
    bad.write_text("cgfile 1\nnode A\nnode B\nedge A -> B\nedge A -- B\n")
    code, out, err = _run(capsys, "validate", str(bad))
    assert code == 1
    assert "two edges" in out or "second edge" in out or out.strip()


def test_stdin_dash(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(_golden_text("demo_g.cg")))
    code, out, err = _run(capsys, "validate", "-")
    assert (code, out) == (0, "ok\n")


# --- separate / determine -----------------------------------------------------


def test_separate_exit_codes(capsys):
    code, out, _ = _run(
        capsys, "separate", f"{DATA}/demo_g.cg", "--semantics", "amp",
        "--x", "C", "--y", "B", "--z", "A",
    )
    assert code == 0 and out == "separated\n"
    code, out, _ = _run(
        capsys, "separate", f"{DATA}/demo_g.cg", "--semantics", "amp",
        "--x", "C", "--y", "B",
    )
    assert code == 1 and out == "connected\n"


def test_separate_trace(capsys):
    code, out, _ = _run(
        capsys, "separate", f"{DATA}/demo_g.cg", "--semantics", "amp",
        "--x", "C", "--y", "B", "--trace",
    )
    assert code == 1
    assert "# D(Z) = " in out
    assert "# open route: C <- A -> B" in out
    code, out, _ = _run(
        capsys, "separate", f"{DATA}/demo_g.cg", "--semantics", "amp",
        "--x", "C", "--y", "B", "--z", "A", "--trace",
    )
    assert code == 0
    assert "every route between x and y is blocked" in out


def test_separate_amp_trace_does_not_depend_on_the_hash_seed(capsys, tmp_path):
    # several shortest open routes join A and H here; the one printed must
    # not depend on set iteration order
    _, text, _ = _run(capsys, "gen", "--nodes", "8", "--seed", "11")
    (tmp_path / "g.cg").write_text(text)
    _, text, _ = _run(capsys, "to-eamp", str(tmp_path / "g.cg"))
    (tmp_path / "e.cg").write_text(text)
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "cgkit.cli", "separate", str(tmp_path / "e.cg"),
             "--semantics", "amp", "--x", "A", "--y", "H", "--z", "C", "--trace"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1, proc.stderr
        outs.append(proc.stdout)
    assert "# open route: " in outs[0]
    assert outs[0] == outs[1]


CONNECTED_QUERIES = [
    ("separate", f"{DATA}/demo_g.cg", "--semantics", "amp", "--x", "C", "--y", "B"),
    ("separate", f"{DATA}/demo_eamp.cg", "--semantics", "lwf", "--x", "C", "--y", "F", "--z", "A"),
]


@pytest.mark.parametrize("argv", CONNECTED_QUERIES)
def test_separate_trace_computes_dz_once(capsys, monkeypatch, argv):
    # the verdict, the D(Z) line, the endpoint note and the witness share one closure
    calls = []
    determined_set = cgkit.separation.determined_set

    def counting(table, z):
        calls.append(z)
        return determined_set(table, z)

    monkeypatch.setattr(cgkit.separation, "determined_set", counting)
    code, out, _ = _run(capsys, *argv, "--trace")
    assert code == 1 and "# open " in out
    assert len(calls) == 1


@pytest.mark.parametrize("argv", CONNECTED_QUERIES)
def test_separate_trace_runs_one_search(capsys, monkeypatch, argv):
    # the verdict's search is the witness: every search takes the query's masks once
    calls = []
    query_masks = cgkit.separation._query_masks

    def counting(g, q):
        calls.append(q)
        return query_masks(g, q)

    monkeypatch.setattr(cgkit.separation, "_query_masks", counting)
    code, out, _ = _run(capsys, *argv, "--trace")
    assert code == 1 and "# open " in out
    assert len(calls) == 1


# golden stdout of separate --trace, named <graph>.<semantics>.<verdict>
TRACE_GOLDENS = {
    "demo_g.amp.connected": "--x B --y E --z D,F",
    "demo_g.amp.separated": "--x C --y B --z A",
    "demo_g.lwf.connected": "--x B --y E --z D,F",
    "demo_g.lwf.separated": "--x B --y C --z A,D",
    "demo_eamp.amp.connected": "--x B,C --y E,F --z A,D",
    "demo_eamp.amp.separated": "--x eps(A) --y eps(B) --z A",
    "demo_eamp.lwf.connected": "--x B,C --y E,F --z A,D",
    "demo_eamp.lwf.separated": "--x C --y B --z A",
}


@pytest.mark.parametrize("name", TRACE_GOLDENS)
def test_separate_trace_matches_golden(capsys, name):
    graph, sem, verdict = name.split(".")
    code, out, err = _run(capsys, "separate", f"{DATA}/{graph}.cg", "--semantics", sem,
                          *TRACE_GOLDENS[name].split(), "--trace")
    assert (code, err) == ((1 if verdict == "connected" else 0), "")
    assert out == _golden_text(f"trace/{name}.out")


def test_separate_lwf_on_gprime_with_rules(capsys):
    code, out, _ = _run(
        capsys, "separate", f"{DATA}/demo_eamp.cg", "--semantics", "lwf",
        "--x", "C", "--y", "B", "--z", "A", "--trace",
    )
    assert code == 0
    # the file's det rules feed D(Z): conditioning on A pulls in eps(A)
    assert "eps(A)" in out.splitlines()[0]
    assert "# D(Z) = " in out


def test_separate_determined_endpoint_note(capsys):
    code, out, _ = _run(
        capsys, "separate", f"{DATA}/demo_eamp.cg", "--semantics", "amp",
        "--x", "eps(A)", "--y", "eps(B)", "--z", "A", "--trace",
    )
    assert code == 0
    assert "determined by Z, blocked as endpoints: eps(A)" in out


def test_determine(capsys):
    code, out, _ = _run(capsys, "determine", f"{DATA}/demo_eamp.cg", "--z", "A,B,D")
    assert code == 0
    assert out.splitlines() == ["A", "B", "D", "eps(A)", "eps(B)", "eps(D)"]


def test_unknown_node_is_an_error(capsys):
    code, _, err = _run(
        capsys, "separate", f"{DATA}/demo_g.cg", "--semantics", "amp",
        "--x", "Q", "--y", "B",
    )
    assert code == 2
    assert err.startswith("cgkit: error:")


# --- transforms as pipelines ---------------------------------------------------


def test_to_eamp_matches_golden_bytes(capsys):
    code, out, _ = _run(capsys, "to-eamp", f"{DATA}/demo_g.cg")
    assert code == 0
    assert out == _golden_text("demo_eamp.cg")


def test_pipeline_to_dag_matches_golden_bytes(capsys, monkeypatch):
    _, eamp_text, _ = _run(capsys, "to-eamp", f"{DATA}/demo_g.cg")
    monkeypatch.setattr("sys.stdin", io.StringIO(eamp_text))
    code, out, _ = _run(capsys, "to-dag", "-")
    assert code == 0
    assert out == _golden_text("demo_seldag.cg")


def test_marginalize_matches_golden_bytes(capsys):
    code, out, _ = _run(
        capsys, "marginalize", f"{DATA}/demo_eamp.cg", "--drop", "A,B,F"
    )
    assert code == 0
    assert out == _golden_text("demo_eamp_margABF.cg")


def test_to_eamp_refuses_files_with_rules(capsys):
    code, _, err = _run(capsys, "to-eamp", f"{DATA}/demo_eamp.cg")
    assert code == 2
    assert "cgkit: error:" in err


def test_to_dag_rejects_mismatched_rules(capsys, tmp_path):
    graph, _ = parse(_golden_text("demo_eamp.cg"))
    text = serialize(graph)  # drop the det lines
    text += "det eps(A) <- B\n"
    f = tmp_path / "bad_rules.cg"
    f.write_text(text)
    code, _, err = _run(capsys, "to-dag", str(f))
    assert code == 2
    assert "do not match" in err


# --- model / project ------------------------------------------------------------


def test_model_dump_and_project_round_trip(capsys, tmp_path):
    code, g_dump, _ = _run(
        capsys, "model", f"{DATA}/demo_g.cg", "--semantics", "amp"
    )
    assert code == 0
    code, gp_dump, _ = _run(
        capsys, "model", f"{DATA}/demo_eamp.cg", "--semantics", "amp"
    )
    assert code == 0
    f = tmp_path / "gp.model"
    f.write_text(gp_dump)
    eps = ",".join(f"eps({v})" for v in "ABCDEF")
    code, projected, _ = _run(capsys, "project", str(f), "--l", eps)
    assert code == 0
    assert projected == g_dump


def test_model_universe_restriction(capsys):
    code, out, _ = _run(
        capsys, "model", f"{DATA}/demo_g.cg", "--semantics", "amp",
        "--universe", "A,B,C",
    )
    assert code == 0
    assert out.startswith("# universe A,B,C\n")
    m = IndependenceModel.loads(out)
    assert m.has({"B"}, {"C"}, {"A"})
    # under lwf the open B-D-C path empties the restricted model
    code, out, _ = _run(
        capsys, "model", f"{DATA}/demo_g.cg", "--semantics", "lwf",
        "--universe", "A,B,C",
    )
    assert code == 0
    assert len(IndependenceModel.loads(out)) == 0


def test_project_refuses_dump_not_closed(capsys, tmp_path):
    f = tmp_path / "open.model"
    f.write_text("# universe A,B,C\nA,B | C | -\n")
    code, out, err = _run(capsys, "project", str(f))
    assert (code, out) == (2, "")
    assert err.startswith("cgkit: error:") and "not closed" in err


# golden files generated before enumeration ran on graph-position masks;
# the augmented sub-universe closes D(Z) onto the error nodes left out
MODEL_GOLDENS = {
    "demo_g.amp": (),
    "demo_g.lwf": (),
    "demo_eamp.amp": ("--universe", "A,B,C,D,E,F"),
    "demo_eamp.lwf": ("--universe", "A,B,C,D,E,F"),
}


@pytest.mark.parametrize("name", MODEL_GOLDENS)
def test_model_matches_golden(capsys, name):
    graph, sem = name.split(".")
    code, out, err = _run(capsys, "model", f"{DATA}/{graph}.cg", "--semantics", sem, *MODEL_GOLDENS[name])
    assert (code, err) == (0, "")
    assert out == _golden_text(f"model/{name}.out")


def test_project_refuses_dump_with_bad_name(capsys, tmp_path):
    # "#B | C | -" reads as a comment, so without the name check the dump
    # was refused only as lacking that pairwise triple
    f = tmp_path / "bad.model"
    f.write_text("# universe #B,A,C\nA | C | -\n#B | C | -\nA,#B | C | -\n")
    code, out, err = _run(capsys, "project", str(f))
    assert (code, out) == (2, "")
    assert err.startswith("cgkit: error: bad node name '#B'")


def test_model_guard_refuses_large(capsys, tmp_path, monkeypatch):
    code, big, _ = _run(capsys, "gen", "--nodes", "13", "--seed", "0")
    monkeypatch.setattr("sys.stdin", io.StringIO(big))
    code, _, err = _run(capsys, "model", "-", "--semantics", "amp")
    assert code == 3
    assert err.startswith("cgkit: guard:")


# --- equiv -----------------------------------------------------------------------


def test_equiv_theorem1_demo_passes(capsys):
    code, out, _ = _run(capsys, "equiv", f"{DATA}/demo_g.cg", "--theorem", "1")
    assert code == 0
    assert out == "pass\n"


@pytest.mark.parametrize("theorem", ["2", "3", "4", "c1", "c2"])
def test_equiv_small_graph_all_theorems(capsys, tmp_path, theorem):
    f = tmp_path / "small.cg"
    f.write_text("cgfile 1\nnode A\nnode B\nnode C\nedge A -> B\nedge B -- C\n")
    code, out, _ = _run(capsys, "equiv", str(f), "--theorem", theorem)
    assert code == 0, out
    assert out == "pass\n"


def test_equiv_theorem4_enumerates_the_augmented_model_once(capsys, monkeypatch):
    calls = []
    # cli imports the models layer inside the command, so the patch goes there
    enumerate_model = cgkit.models.enumerate_model

    def counting(*args, **kwargs):
        calls.append(args[0])
        return enumerate_model(*args, **kwargs)

    monkeypatch.setattr(cgkit.models, "enumerate_model", counting)
    code, out, _ = _run(capsys, "equiv", f"{DATA}/demo_g.cg", "--theorem", "4", "--seed", "0")
    assert (code, out) == (0, "pass\n")
    # the augmented model once, then one marginalized graph per draw
    assert len(calls) == 4


def test_equiv_refuses_rule_files(capsys):
    code, _, err = _run(
        capsys, "equiv", f"{DATA}/demo_eamp.cg", "--theorem", "1"
    )
    assert code == 2


# --- gauss-check -------------------------------------------------------------------


def test_gauss_check_demo(capsys):
    code, out, _ = _run(
        capsys, "gauss-check", f"{DATA}/demo_g.cg", "--seeds", "2", "--seed", "5"
    )
    assert code == 0
    assert "# seed 5" in out and "# seed 6" in out
    assert out.rstrip().endswith("# total violations over 2 seeds: 0")


def test_gauss_check_refuses_no_seeds(capsys):
    for seeds in ("0", "-1"):
        code, out, err = _run(capsys, "gauss-check", f"{DATA}/demo_g.cg", "--seeds", seeds)
        assert (code, out) == (2, "")
        assert "--seeds" in err


# --- gen ---------------------------------------------------------------------------


def test_gen_matches_golden(capsys):
    code, out, _ = _run(
        capsys, "gen", "--nodes", "4", "--density", "0.5", "--seed", "7"
    )
    assert code == 0
    assert out == _golden_text("random_n4_d05_seed7.cg")


def test_gen_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("CGKIT_SEED", "7")
    code, out, _ = _run(capsys, "gen", "--nodes", "4", "--density", "0.5")
    assert code == 0
    assert out == _golden_text("random_n4_d05_seed7.cg")


@pytest.mark.parametrize("argv, name", [
    (["--nodes", "5", "--seed", "3"], "n5_seed3.cg"),
    (["--nodes", "30", "--density", "0.2", "--seed", "7"], "n30_d02_seed7.cg"),
])
def test_gen_matches_numpy_golden(capsys, argv, name):
    # generated when random_cg drew from numpy's default_rng
    assert _run(capsys, "gen", *argv)[:2] == (0, _golden_text(f"gen/{name}"))


def test_gen_refuses_bad_seeds(capsys):
    for seed in ("-1", "1.5", "x"):
        code, out, err = _run(capsys, "gen", "--nodes", "5", "--seed", seed)
        assert (code, out) == (2, "")
        assert "seed" in err


def test_gen_output_is_parseable_and_valid(capsys):
    code, out, _ = _run(capsys, "gen", "--nodes", "9", "--density", "0.7", "--seed", "3")
    g, table = parse(out)
    assert len(g.nodes) == 9 and not table.rules


# --- error surfaces -----------------------------------------------------------------


def test_parse_errors_exit_2_with_lines(capsys, tmp_path):
    f = tmp_path / "broken.cg"
    f.write_text("cgfile 1\nnode A\nedge A -> B\nwhat is this\n")
    code, out, err = _run(capsys, "validate", str(f))
    assert code == 2
    lines = err.splitlines()
    assert all(l.startswith("cgkit: parse: line ") for l in lines)
    assert any("line 3" in l for l in lines) and any("line 4" in l for l in lines)


# one case per form the node-name grammar rejects; each used to pass validate
BAD_NAMES = {
    "leading-hash": "#x",  # its model dump lines read as comments
    "bare-dash": "-",  # "--x -" means the empty list
    "comma": "a,b",
    "bar": "a|b",
    "unbalanced-parens": "f(a",
    "closing-paren-first": "a)b(",
}


@pytest.mark.parametrize("name", BAD_NAMES.values(), ids=BAD_NAMES.keys())
def test_bad_node_names_exit_2(capsys, tmp_path, name):
    f = tmp_path / "bad_name.cg"
    f.write_text(f"cgfile 1\nnode {name}\nnode B\nedge {name} -> B\n")
    for argv in (("validate", str(f)), ("separate", str(f), "--semantics", "amp", "--x", "B", "--y", name)):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"cgkit: parse: line 2: bad node name {name!r}")


def test_names_with_separators_inside_parentheses_stay_valid(capsys, tmp_path):
    f = tmp_path / "sel.cg"
    f.write_text("cgfile 1\nnode sel(eps(A),eps(B)) selection\nnode f(a|b)\nedge f(a|b) -> sel(eps(A),eps(B))\n")
    assert _run(capsys, "validate", str(f))[:2] == (0, "ok\n")
    code, out, _ = _run(capsys, "separate", str(f), "--semantics", "lwf",
                        "--x", "f(a|b)", "--y", "sel(eps(A),eps(B))", "--trace")
    assert code == 1 and "# open moral path: f(a|b) -- sel(eps(A),eps(B))" in out


def test_missing_file_exit_2(capsys):
    code, _, err = _run(capsys, "validate", "no_such_file.cg")
    assert code == 2
    assert err.startswith("cgkit: error:")


def test_usage_error_exit_2(capsys):
    assert _run(capsys, "separate", f"{DATA}/demo_g.cg")[0] == 2
    assert _run(capsys, "frobnicate")[0] == 2


def test_help_exits_zero(capsys):
    assert _run(capsys, "--help")[0] == 0
    assert _run(capsys, "separate", "--help")[0] == 0


def test_gen_guard_refuses_large(capsys):
    code, out, err = _run(capsys, "gen", "--nodes", str(MAX_GEN_NODES + 1))
    assert (code, out) == (3, "")
    assert err.startswith("cgkit: guard:")


# --- numpy stays out of the graph commands -------------------------------------------


def _fresh_python(code, *args):
    """Run code in a new interpreter with cgkit importable; its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_NO_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import cgkit.cli
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cgkit.cli.run(argv)
    out.append([code, buf.getvalue()])
print(json.dumps(out))
"""


def test_graph_commands_run_without_numpy(capsys, tmp_path):
    _, dump, _ = _run(capsys, "model", f"{DATA}/demo_g.cg", "--semantics", "lwf")
    (tmp_path / "m.txt").write_text(dump)
    commands = [
        ["validate", f"{DATA}/demo_g.cg"],
        ["separate", f"{DATA}/demo_g.cg", "--semantics", "amp", "--x", "C", "--y", "B", "--trace"],
        ["separate", f"{DATA}/demo_eamp.cg", "--semantics", "lwf",
         "--x", "C", "--y", "F", "--z", "A", "--trace"],
        ["determine", f"{DATA}/demo_eamp.cg", "--z", "A,B,D"],
        ["to-eamp", f"{DATA}/demo_g.cg"],
        ["to-dag", f"{DATA}/demo_eamp.cg"],
        ["marginalize", f"{DATA}/demo_eamp.cg", "--drop", "A,B,F"],
        ["model", f"{DATA}/demo_eamp.cg", "--semantics", "amp", "--universe", "A,B,C,eps(A),eps(B)"],
        ["project", str(tmp_path / "m.txt"), "--l", "A", "--s", "B"],
        ["equiv", f"{DATA}/demo_g.cg", "--theorem", "1"],
        ["gen", "--nodes", "5", "--seed", "3"],
    ]
    got = json.loads(_fresh_python(_NO_NUMPY, json.dumps(commands)))
    want = [list(_run(capsys, *argv)[:2]) for argv in commands]
    assert got == want
    assert [code for code, _ in got] == [0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0]
    assert got[4][1] == _golden_text("demo_eamp.cg")
    assert got[5][1] == _golden_text("demo_seldag.cg")
    assert got[6][1] == _golden_text("demo_eamp_margABF.cg")
    assert got[10][1] == _golden_text("gen/n5_seed3.cg")


def test_validate_loads_no_model_layers():
    out = _fresh_python(
        "import contextlib, io, sys\n"
        "import cgkit.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cgkit.cli.run(['validate', sys.argv[1]])\n"
        "layers = ('models', 'separation', 'transforms', 'gaussian')\n"
        "print(code, *[m for m in layers if 'cgkit.' + m in sys.modules])\n",
        f"{DATA}/demo_g.cg",
    )
    assert out.split() == ["0"]


# every name the package exported when it imported all its layers eagerly
_EXPORTS = """
    AMP CgkitError ChainGraph ComponentBlock DeterminationTable ERROR EampGraph
    GaussianSystem GuardError IndependenceModel LWF MarkovReport NumericError
    ParseError QueryError SELECTION SeparationQuery StructureError VARIABLE
    amp_separated amp_separated_oracle amp_witness component_topological_order
    components determined_query_nodes determined_set eamp_from_graph eamp_rules
    effective_conditioning enumerate_model error_name find_flags joint_covariance
    joint_covariance_oracle lwf_route_oracle lwf_separated lwf_witness
    marginalize_eamp markov_check model_diff parents parse partial_correlation
    project_model random_cg sample_system selection_name separated serialize
    strict_ascendants to_eamp to_selection_dag triple_count validate
""".split()


def test_package_still_exports_every_name():
    out = _fresh_python(
        "import sys, cgkit\n"
        "names = sys.argv[1].split()\n"
        "print(sorted(set(names) - set(dir(cgkit))))\n"
        "print([n for n in names if getattr(cgkit, n, None) is None])\n"
        "exec('from cgkit import ' + ', '.join(names))\n"
        "print(cgkit.__version__)\n",
        " ".join(_EXPORTS),
    )
    assert out.split("\n") == ["[]", "[]", "0.1.0", ""]


def test_package_loads_the_gaussian_layer_on_first_use():
    out = _fresh_python(
        "import sys, cgkit\n"
        "print('numpy' in sys.modules)\n"
        "print('markov_check' in dir(cgkit))\n"
        "from cgkit import GaussianSystem\n"
        "print(cgkit.sample_system.__module__, GaussianSystem.__module__)\n"
        "print('numpy' in sys.modules)\n"
    )
    assert out.split() == ["False", "True", "cgkit.gaussian", "cgkit.gaussian", "True"]
