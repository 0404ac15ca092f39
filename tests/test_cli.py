import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xtwave import cli
from xtwave.errors import ConfigError, InvalidProblemError, SingularSystemError

SMOOTH_CONV = """\
problem = smooth
degree = 2
regularity = maximal
levels = 4x12 8x24 16x48
"""

INLINE = """\
mode = solve
problem = inline
degree = 2
regularity = maximal
levels = 4x4
omega = 0,1
T = 1
c2 = 1 + x^2
F = sin(pi*x)*cos(t)
U0 = sin(pi*x)
V0 = 0
"""


def _read(path):
    with open(path) as f:
        return f.read()


def _strip_timing(csv_text):
    rows = []
    for line in csv_text.splitlines():
        rows.append(",".join(line.split(",")[:-1]))
    return "\n".join(rows)


def test_parse_round_trip():
    for text, mode in ((SMOOTH_CONV, "convergence"), (INLINE, None)):
        config = cli.parse_config(text, mode=mode)
        again = cli.parse_config(cli.serialize_config(config))
        assert config == again


def test_serialized_config_text():
    # the exact bytes of config.txt: one line per set key in schema order,
    # floats with 17 significant digits, threads dropped
    text = SMOOTH_CONV + "threads = 2\nout = res\nquad_points = 6\n"
    named = cli.parse_config(text, mode="convergence")
    assert cli.serialize_config(named) == (
        "mode = convergence\nproblem = smooth\ndegree = 2\nregularity = maximal\n"
        "levels = 4x12 8x24 16x48\nquad_points = 6\nout = res\n"
    )
    inline = cli.parse_config(INLINE.replace("T = 1", "T = 0.1") + "c0 = 0.5\n")
    assert cli.serialize_config(inline) == (
        "mode = solve\nproblem = inline\ndegree = 2\nregularity = maximal\nlevels = 4x4\n"
        "omega = 0,1\nT = 0.10000000000000001\nc0 = 0.5\nF = sin(pi*x)*cos(t)\n"
        "U0 = sin(pi*x)\nV0 = 0\nc2 = 1 + x^2\n"
    )


def test_readme_configs_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert blocks
    for text in blocks:
        cli.parse_config(text)


def test_readme_key_table_matches_run_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| key | value | required | default | inline only |\n")[1].split("\n\n")[0]
    lines = table.splitlines()[1:]  # below the |---| line
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    expected = [
        (
            f"`{f.name}`",
            {"required": "yes", "inline": "inline"}.get(f.metadata["scope"], "no"),
            "yes" if f.metadata["scope"] in ("inline", "inline-optional") else "no",
        )
        for f in fields(cli.RunConfig)
    ]
    assert [(key, required, inline) for key, _, required, _, inline in rows] == expected + [
        ("`threads`", "no", "no")
    ]


def test_unknown_key_rejected():
    for line in ("frobnicate = 1\n", "seed = 0\n"):
        with pytest.raises(ConfigError):
            cli.parse_config(SMOOTH_CONV + line, mode="solve")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        cli.parse_config(SMOOTH_CONV + "degree = 3\n", mode="solve")


def test_missing_key_rejected():
    with pytest.raises(ConfigError):
        cli.parse_config("problem = smooth\ndegree = 2\n", mode="solve")


def test_mode_conflict_rejected():
    with pytest.raises(ConfigError):
        cli.parse_config("mode = solve\n" + SMOOTH_CONV, mode="infsup")


def test_convergence_requires_halving():
    bad = SMOOTH_CONV.replace("levels = 4x12 8x24 16x48", "levels = 4x12 8x24 20x60")
    with pytest.raises(ConfigError):
        cli.parse_config(bad, mode="convergence")


def test_stability_requires_fixed_temporal_mesh():
    with pytest.raises(ConfigError):
        cli.parse_config(
            "problem = smooth\ndegree = 1\nregularity = maximal\nlevels = 8x8 16x4\n",
            mode="stability",
        )


def test_quad_points_range():
    # degree + 1 = 3 points integrate the p = 2 mass matrices exactly
    for n in (0, 2, 65):
        with pytest.raises(ConfigError, match=r"quad_points must be in \[3, 64\]"):
            cli.parse_config(SMOOTH_CONV + f"quad_points = {n}\n", mode="convergence")
    for n in (3, 64):
        config = cli.parse_config(SMOOTH_CONV + f"quad_points = {n}\n", mode="solve")
        assert config.quad_points == n


def test_inline_keys_only_for_inline():
    with pytest.raises(ConfigError):
        cli.parse_config(SMOOTH_CONV + "T = 3\n", mode="solve")


@pytest.mark.parametrize(
    "line", ["T = nan", "T = inf", "T = 0", "omega = 0,nan", "omega = -inf,1", "omega = 1,0"]
)
def test_inline_domain_must_be_finite(line):
    key = line.split()[0]
    text = re.sub(rf"^{key} = .*$", line, INLINE, flags=re.M)
    with pytest.raises(ConfigError, match=f"^{key} must be"):
        cli.parse_config(text)


def test_regularity_values():
    config = cli.parse_config(SMOOTH_CONV, mode="convergence")
    assert config.regularity_order() == 1
    c1 = cli.parse_config(SMOOTH_CONV.replace("maximal", "c1"), mode="convergence")
    assert c1.regularity_order() == 1
    explicit = cli.parse_config(SMOOTH_CONV.replace("maximal", "0"), mode="convergence")
    assert explicit.regularity_order() == 0
    with pytest.raises(ConfigError):
        cli.parse_config(SMOOTH_CONV.replace("maximal", "5"), mode="convergence")


def test_convergence_run(tmp_path):
    config = cli.parse_config(SMOOTH_CONV, mode="convergence")
    config = replace(config, out=str(tmp_path))
    assert cli.run(config) == 0
    csv = _read(tmp_path / "results.csv").splitlines()
    assert csv[0] == cli.CSV_HEADER
    assert len(csv) == 4
    cols = cli.CSV_HEADER.split(",")
    # dofs = 2 dim(space_x) dim(space_t), p = 2: n_x - 2 + 2 and n_t - 1 + 2
    assert [row.split(",")[cols.index("dofs")] for row in csv[1:]] == ["104", "400", "1568"]
    # final EOC columns populated and near the expected orders
    last = csv[-1].split(",")
    eoc_veh = float(last[cols.index("eoc_Veh")])
    eoc_u = float(last[cols.index("eoc_U_L2")])
    assert 1.7 < eoc_veh < 2.6
    assert 2.7 < eoc_u < 3.8
    assert (tmp_path / "curves.dat").exists()
    curves = _read(tmp_path / "curves.dat")
    assert curves.count("# curve") == 4


def test_runs_repeat_and_ignore_threads(tmp_path):
    # levels run one after another; `threads` parses and changes nothing
    config = cli.parse_config(SMOOTH_CONV, mode="convergence")
    threaded = cli.parse_config(SMOOTH_CONV + "threads = 4\n", mode="convergence")
    outputs = []
    for name, cfg in (("a", config), ("b", config), ("threads", threaded)):
        assert cli.run(replace(cfg, out=str(tmp_path / name))) == 0
        csv = _strip_timing(_read(tmp_path / name / "results.csv"))
        outputs.append((csv, _read(tmp_path / name / "curves.dat")))
    assert outputs[0] == outputs[1] == outputs[2]


def _curve_blocks(text):
    """curves.dat as {name: [(h, value) strings]}."""
    blocks = {}
    for block in text.strip().split("\n\n"):
        head, *lines = block.splitlines()
        blocks[head.split()[2]] = [tuple(line.split()) for line in lines]
    return blocks


def test_curves_match_results_columns(tmp_path):
    infsup = "problem = smooth\ndegree = 1\nregularity = maximal\nlevels = 4x4 8x8\n"
    runs = (
        (SMOOTH_CONV, "convergence", ["err_Veh", "err_U_L2", "err_V_L2", "err_cgradU"]),
        (infsup, "infsup", ["gamma_h"]),
    )
    for text, mode, names in runs:
        out = tmp_path / mode
        assert cli.run(replace(cli.parse_config(text, mode=mode), out=str(out))) == 0
        header, *rows = _read(out / "results.csv").splitlines()
        cols = header.split(",")
        table = [dict(zip(cols, row.split(","))) for row in rows]
        blocks = _curve_blocks(_read(out / "curves.dat"))
        assert sorted(blocks) == sorted(names)
        for name in names:
            assert blocks[name] == [(row["h_x"], row[name]) for row in table]


def test_infsup_run(tmp_path):
    text = "problem = smooth\ndegree = 1\nregularity = maximal\nlevels = 4x4\n"
    config = cli.parse_config(text, mode="infsup")
    config = replace(config, out=str(tmp_path))
    assert cli.run(config) == 0
    row = _read(tmp_path / "results.csv").splitlines()[1].split(",")
    cols = cli.CSV_HEADER.split(",")
    gamma = float(row[cols.index("gamma_h")])
    bound = float(row[cols.index("lower_bound")])
    assert gamma >= bound
    assert row[cols.index("err_Veh")] == ""


def test_solve_run_inline(tmp_path):
    import xtwave as xw

    config = cli.parse_config(INLINE)
    config = replace(config, out=str(tmp_path))
    assert cli.run(config) == 0
    sol = xw.load_solution(tmp_path / "solution_L0.npy")
    assert sol.u_coeffs.shape == (4, 5)


def test_inline_c0_above_wave_speed_rejected(tmp_path):
    config = cli.parse_config(INLINE + "c0 = 1.01\n")
    with pytest.raises(InvalidProblemError):
        cli.build_problem(config)
    assert cli.run(replace(config, out=str(tmp_path))) == 2
    # c2 = 1 + x^2 has minimum 1 on (0, 1), so c0 = 1 is admissible
    assert cli.build_problem(cli.parse_config(INLINE + "c0 = 1\n")).c0 == 1.0


def test_main_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "conf.txt"
    cfg.write_text(SMOOTH_CONV + "frobnicate = 1\n")
    assert cli.main(["convergence", "--config", str(cfg)]) == 2
    with pytest.raises(SystemExit) as info:  # argparse's usage error
        cli.main(["convergence"])
    assert info.value.code == 2
    assert "the following arguments are required: --config" in capsys.readouterr().err
    assert cli.main(["convergence", "--config", str(tmp_path / "missing.txt")]) == 2
    cfg.write_text(INLINE)
    assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0


def test_out_that_is_a_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "conf.txt"
    cfg.write_text(INLINE)
    taken = tmp_path / "taken"
    taken.write_text("keep")
    assert cli.main(["solve", "--config", str(cfg), "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot create output directory:")
    assert taken.read_text() == "keep"


@pytest.mark.parametrize("out", ["res\nlevels = 4x4", " sp "])
def test_out_that_config_txt_cannot_echo_exits_2(tmp_path, monkeypatch, capsys, out):
    # config.txt holds out on one line and parse_config strips its value, so
    # neither would parse back to the run's out; refused before any level runs
    cfg = tmp_path / "conf.txt"
    cfg.write_text(SMOOTH_CONV)
    monkeypatch.chdir(tmp_path)

    def level(*args):
        raise AssertionError("a level ran")

    monkeypatch.setattr(cli, "_run_level", level)
    assert cli.main(["convergence", "--config", str(cfg), "--out", out]) == 2
    message = f"out must be one line without leading or trailing blanks, got {out!r}"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == ["conf.txt"]


@pytest.mark.parametrize("name", ["results.csv", "curves.dat", "config.txt", "solution_L0.npy"])
def test_unwritable_output_exits_2(tmp_path, capsys, name):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("problem = smooth\ndegree = 2\nregularity = maximal\nlevels = 4x4\n")
    (tmp_path / "run" / name).mkdir(parents=True)
    assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write the output in ")
    # the refusal is whole: no file of this run remains, temporaries included
    assert os.listdir(tmp_path / "run") == [name]


def test_solver_failures_exit_3(tmp_path, monkeypatch, capsys):
    # 2 * 32 * 33 = 2112 unknowns at p = 2: the inf-sup estimate has no size cap
    text = "problem = smooth\ndegree = 2\nregularity = maximal\nlevels = 32x32\n"
    config = replace(cli.parse_config(text, mode="infsup"), out=str(tmp_path))
    assert cli.run(config) == 0
    assert capsys.readouterr().err == ""
    row = _read(tmp_path / "results.csv").splitlines()[1].split(",")
    cols = cli.CSV_HEADER.split(",")
    assert float(row[cols.index("gamma_h")]) >= float(row[cols.index("lower_bound")])

    def singular(*args):
        raise SingularSystemError("forced")

    monkeypatch.setattr(cli, "_run_level", singular)
    config = replace(cli.parse_config(SMOOTH_CONV, mode="convergence"), out=str(tmp_path))
    assert cli.run(config) == 3
    assert capsys.readouterr().err == "solver failure: forced\n"


@pytest.mark.parametrize(
    "line, term",
    [("F = 1e400*x*t", "F"), ("U0 = 1e400*x", "c2 * dU0"), ("V0 = 1e400*x", "V0")],
)
def test_non_finite_data_exit_2(tmp_path, capsys, line, term):
    # a data fault, not a solver failure: assemble refuses it by name
    key = line.split(" =")[0]
    text = re.sub(rf"^{key} = .*$", line, INLINE, flags=re.M)
    assert cli.run(replace(cli.parse_config(text), out=str(tmp_path / "out"))) == 2
    assert capsys.readouterr().err == f"error: {term} is non-finite at a quadrature node\n"


@pytest.mark.parametrize("mode", ["solve", "infsup"])
def test_level_without_unknowns_exits_2(tmp_path, capsys, mode):
    # degree 1 on one element: the zero-both space_x keeps none of its 2 functions
    text = "problem = smooth\ndegree = 1\nregularity = maximal\nlevels = 1x1\n"
    out = tmp_path / "out"
    config = replace(cli.parse_config(text, mode=mode), out=str(out))
    assert cli.run(config) == 2
    assert capsys.readouterr().err.startswith("error: space_x has no unknowns")
    # the output directory is created only after every level has run
    assert not out.exists()


def test_stability_run(tmp_path):
    text = "problem = smooth\ndegree = 1\nregularity = maximal\nlevels = 4x4 8x4\n"
    config = cli.parse_config(text, mode="stability")
    config = replace(config, out=str(tmp_path))
    assert cli.run(config) == 0
    assert (tmp_path / "results.csv").exists()


def _fresh_main(tmp_path, config_text, mode):
    """Run cli.main in a fresh interpreter; returns its exit code and whether
    sympy got imported."""
    cfg = tmp_path / "conf.txt"
    cfg.write_text(config_text)
    script = (
        "import sys, xtwave\n"
        f"code = xtwave.cli.main([{mode!r}, '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}])\n"
        "print(code, 'sympy' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    code, loaded = out.stdout.split()
    return int(code), loaded == "True"


def test_named_problem_leaves_sympy_unimported(tmp_path):
    text = "problem = smooth\ndegree = 1\nregularity = maximal\nlevels = 4x4\n"
    assert _fresh_main(tmp_path, text, "infsup") == (0, False)


def test_inline_problem_imports_sympy(tmp_path):
    assert _fresh_main(tmp_path, INLINE, "solve") == (0, True)


def test_module_run_does_not_warn():
    # `python -m xtwave.cli` must find xtwave.cli not yet imported by the package
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "xtwave.cli", "--help"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert "Warning" not in out.stderr
    assert "convergence" in out.stdout


def _without(text, key):
    return re.sub(rf"^{key} = .*\n", "", text, flags=re.M)


@pytest.mark.parametrize(
    "text, mode, message",
    [
        (SMOOTH_CONV + "degree 3\n", "solve", "line 5: expected `key = value`, got 'degree 3'"),
        (SMOOTH_CONV + "frobnicate = 1\n", "solve", "line 5: unknown key 'frobnicate'"),
        (SMOOTH_CONV + "degree = 3\n", "solve", "line 5: duplicate key 'degree'"),
        (
            SMOOTH_CONV.replace("degree = 2", "degree = two"),
            "solve",
            "bad value for 'degree': 'two' (invalid literal for int() with base 10: 'two')",
        ),
        (
            "mode = run\n" + SMOOTH_CONV,
            None,
            "bad value for 'mode': 'run' (must be one of "
            "('solve', 'convergence', 'stability', 'infsup'))",
        ),
        (
            SMOOTH_CONV.replace("4x12 8x24 16x48", ""),
            "solve",
            "bad value for 'levels': '' (empty list)",
        ),
        (
            SMOOTH_CONV.replace("4x12 8x24 16x48", ", ,"),
            "solve",
            "bad value for 'levels': ', ,' (empty list)",
        ),
        (SMOOTH_CONV, None, "mode is not set (use a subcommand or a `mode =` line)"),
        (
            "mode = solve\n" + SMOOTH_CONV,
            "infsup",
            "config mode 'solve' conflicts with subcommand 'infsup'",
        ),
        ("problem = smooth\ndegree = 2\n", "solve", "missing required key 'regularity'"),
        (_without(SMOOTH_CONV, "problem"), "solve", "missing required key 'problem'"),
        (SMOOTH_CONV + "T = 3\n", "solve", "key 'T' is only valid for problem = inline"),
        (SMOOTH_CONV + "c0 = 1\n", "solve", "key 'c0' is only valid for problem = inline"),
        (SMOOTH_CONV.replace("degree = 2", "degree = 0"), "solve", "degree must be at least 1"),
        (SMOOTH_CONV.replace("4x12 8x24 16x48", "0x4"), "solve", "element counts must be positive"),
    ],
)
def test_config_refusals(text, mode, message):
    with pytest.raises(ConfigError) as info:
        cli.parse_config(text, mode=mode)
    assert str(info.value) == message


@pytest.mark.parametrize("key", ["omega", "T", "c2", "F", "U0", "V0"])
def test_inline_problem_requires_each_key(key):
    with pytest.raises(ConfigError) as info:
        cli.parse_config(_without(INLINE, key))
    assert str(info.value) == f"inline problems require key {key!r}"


def test_scope_faults_are_named_in_field_order():
    # with several keys out of scope, the first in RunConfig's field order,
    # which is config.txt's line order, is named
    with pytest.raises(ConfigError, match="^inline problems require key 'F'$"):
        cli.parse_config(_without(_without(INLINE, "c2"), "F"))
    with pytest.raises(ConfigError, match="^key 'omega' is only valid for problem = inline$"):
        cli.parse_config(SMOOTH_CONV + "c2 = 1\nomega = 0,1\n", mode="solve")


def test_blank_and_comment_lines_are_skipped():
    lines = SMOOTH_CONV.splitlines()
    text = "# a sweep\n\n" + "\n   \n".join(lines[:2]) + "\n  # indented\n\t\n"
    text += "\n".join(lines[2:])
    assert cli.parse_config(text, mode="solve") == cli.parse_config(SMOOTH_CONV, mode="solve")


def test_validate_refuses_empty_levels():
    config = replace(cli.parse_config(SMOOTH_CONV, mode="solve"), levels=())
    with pytest.raises(ConfigError, match="^levels must be non-empty$"):
        cli.validate_config(config)


def test_unknown_problem_exits_2(tmp_path, capsys):
    cfg = tmp_path / "conf.txt"
    cfg.write_text(SMOOTH_CONV.replace("smooth", "nosuch"))
    out = tmp_path / "out"
    assert cli.main(["convergence", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: \"unknown problem 'nosuch'\"\n"
    assert not out.exists()


_FLOAT_TEXTS = (repr, "{:.17g}".format, "{:.3e}".format)
_WORDS = "abcxyzXT0123456789_./-"


@st.composite
def _config_texts(draw):
    """A random valid config: its text, with its lines in random order, and
    the mode to pass to parse_config (None when only a `mode =` line sets it)."""
    text = st.text(_WORDS + " +*^()=#", min_size=1, max_size=12).map(str.strip).filter(bool)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    mode = draw(st.sampled_from(cli.MODES))
    degree = draw(st.integers(1, 5))
    r = draw(st.integers(0, degree - 1))
    counts = st.integers(1, 40)
    nx, nt, n = draw(counts), draw(counts), draw(st.integers(1, 4))
    if mode == "convergence":
        levels = [(nx << k, nt << k) for k in range(n)]
    elif mode == "stability":
        levels = [(draw(counts), nt) for _ in range(n)]
    else:
        levels = draw(st.lists(st.tuples(counts, counts), min_size=1, max_size=4))
    x, sep = draw(st.sampled_from("xX")), draw(st.sampled_from([" ", ",", ", ", "  "]))
    values = {
        "problem": draw(st.sampled_from(["smooth", "singular", "inline"])),
        "degree": draw(st.sampled_from([str(degree), f"+{degree}", f"0{degree}"])),
        "regularity": draw(
            st.sampled_from(["maximal", str(r), f"0{r}", f"+{r}"] + ["c1"] * (degree > 1))
        ),
        "levels": sep.join(f"{a}{x}{b}" for a, b in levels),
    }
    if draw(st.booleans()):
        values["quad_points"] = str(draw(st.integers(degree + 1, 64)))
    if draw(st.booleans()):
        values["out"] = draw(text)
    if draw(st.booleans()):
        values["threads"] = str(draw(st.integers(-4, 64)))
    if values["problem"] == "inline":
        fmt = draw(st.sampled_from(_FLOAT_TEXTS))
        a, b = sorted(draw(st.lists(finite, min_size=2, max_size=2, unique=True)))
        exact = draw(st.sampled_from(_FLOAT_TEXTS[:2]))  # a rounded text may make a == b
        values["omega"] = f"{exact(a)},{draw(st.sampled_from(['', ' ']))}{exact(b)}"
        values["T"] = fmt(draw(st.floats(0, 1e300, exclude_min=True)))
        for key in ("c2", "F", "U0", "V0"):
            values[key] = draw(text)
        if draw(st.booleans()):
            values["c0"] = fmt(draw(st.floats(allow_nan=False)))
    passed = draw(st.sampled_from([mode, None, "both"]))
    if passed != mode:
        values["mode"] = mode
    lines = [f"{key}{draw(st.sampled_from(['=', ' = ', '  =  ']))}{v}" for key, v in values.items()]
    lines += draw(st.lists(st.sampled_from(["", "# note", "  # x = 1"]), max_size=2))
    return "\n".join(draw(st.permutations(lines))) + "\n", None if passed is None else mode


@settings(max_examples=200, deadline=None)
@given(_config_texts())
def test_serialize_parse_round_trip(drawn):
    text, mode = drawn
    config = cli.parse_config(text, mode=mode)
    echo = cli.serialize_config(config)
    assert cli.parse_config(echo) == config
    # one line per key set, mode included and threads dropped
    set_keys = {line.split("=")[0].strip() for line in text.splitlines() if "=" in line}
    set_keys = {key for key in set_keys if not key.startswith("#")} - {"threads"} | {"mode"}
    assert [line.split(" = ")[0] for line in echo.splitlines()] == [
        field.name for field in fields(cli.RunConfig) if field.name in set_keys
    ]
