"""Property tests over the command line: malformed input maps to its
documented exit code and no exception escapes ``main``.

``csbench solve`` exits 3 for a bad CMAT file and 1 for a bad config;
every generated input is malformed by construction, so each run fails
while reading its files, before any solve. ``gen``, ``dt-grid``,
``scene`` and ``crossover`` exit 1 for one invalid argument among
valid, tiny ones, and create nothing at ``--out``. No invalid value
drawn is a large size, so no run allocates more than a few kilobytes.
"""

import contextlib
import io
import json
import math
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from csbench import cmatio
from csbench.cli import main
from csbench.harness import KNOWN_SOLVERS, make_instance
from csbench.schedule import MODE_AITKEN, MODE_GEOMETRIC

ROWS, COLS = 4, 8
# The one form of a CMAT entry's real or imaginary part: repr's output
# with an optional sign (see csbench.cmatio).
REAL = r"[+-]?[0-9]+(?:\.[0-9]+)?(?:e[+-][0-9]+)?"


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_properties")
    c, _, y = make_instance(COLS, ROWS, 1, seed=0)
    mat, vec = d / "c.cmat", d / "y.cmat"
    cmatio.save_matrix(mat, c)
    cmatio.save_vector(vec, y)
    return d, mat.read_text(), vec.read_text()


def _run(d, solver, matrix, measurements, config=None):
    """``csbench solve`` on the given file texts: (exit code, stderr)."""
    paths = []
    for name, text in (("m.cmat", matrix), ("v.cmat", measurements),
                       ("cfg.json", config)):
        if text is not None:
            (d / name).write_bytes(text.encode("utf-8"))
        paths.append(str(d / name))
    argv = ["solve", "--solver", solver, "--matrix", paths[0],
            "--measurements", paths[1], "--out", str(d / "r.json")]
    if config is not None:
        argv += ["--config", paths[2]]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _entry_is_valid(token):
    if not re.fullmatch(f"{REAL},{REAL}", token):
        return False
    re_part, _, im_part = token.partition(",")
    return abs(complex(float(re_part), float(im_part))) < math.inf


def _header_is_valid(line, rows, cols):
    tokens = line.split()
    return (tokens[:1] == ["cmat"]
            and all(re.fullmatch("[0-9]+", t) for t in tokens[1:])
            and [int(t) for t in tokens[1:]] == [1, rows, cols])


def _is_json(text):
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


# Any character, non-ASCII included, but no line break, so that a line
# stays one line.
line_text = st.text(st.characters(exclude_categories=("Cs",),
                                  exclude_characters="\r\n"),
                    max_size=12)
non_finite = st.sampled_from(["nan,0.0", "0.0,inf", "-inf,1.0", "1e999,0.0",
                              "0.0,-1e400", "NaN,NaN"])
# Entries that Python's float reads but the CMAT grammar does not.
off_grammar = st.sampled_from(["1_0,0.0", "0.0,2_5.0", "1E+5,0.0", "1e5,0.0",
                               ".5,0.0", "0.0,5."])


@st.composite
def malformed_cmat(draw, text, rows, cols):
    """``text``, a valid CMAT file of rows x cols, made malformed one way."""
    lines = text.splitlines()
    kind = draw(st.sampled_from(["header", "short_row", "long_row",
                                 "missing_row", "bad_token", "non_finite",
                                 "trailing"]))
    r = draw(st.integers(1, rows))
    row = lines[r].split()
    j = draw(st.integers(0, cols - 1))
    if kind == "header":
        header = draw(line_text | st.sampled_from(
            [f"cmat 1 {rows}", f"cmat 2 {rows} {cols}",
             f"cmat 1 {rows + 1} {cols}", f"cmat 1 {rows} {cols - 1}",
             f"cmat 1 -{rows} {cols}", f"cmat 1 {rows} {cols} 0",
             f"CMAT 1 {rows} {cols}", f"cmat 1 {rows}.0 {cols}",
             f"cmat 1 0_{rows} {cols}", f"cmat 1 +{rows} {cols}",
             f"cmat +1 {rows} {cols}", f"cmat 1 {rows} {cols}_0"]))
        assume(not _header_is_valid(header, rows, cols))
        lines[0] = header
    elif kind == "short_row":
        del row[j]
        lines[r] = " ".join(row)
    elif kind == "long_row":
        row.insert(j, row[j])
        lines[r] = " ".join(row)
    elif kind == "missing_row":
        del lines[r]
    elif kind in ("bad_token", "non_finite"):
        token = draw(line_text | off_grammar if kind == "bad_token"
                     else non_finite)
        assume(len(token.split()) == 1 and not _entry_is_valid(token))
        row[j] = token
        lines[r] = " ".join(row)
    else:
        tail = draw(line_text)
        assume(tail.strip())
        lines.append(tail)
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(data=st.data(), which=st.sampled_from(["matrix", "measurements"]),
       solver=st.sampled_from(["nkf", "cp", "omp"]))
def test_a_malformed_cmat_file_exits_three(instance, data, which, solver):
    d, matrix, measurements = instance
    if which == "matrix":
        matrix = data.draw(malformed_cmat(matrix, ROWS, COLS))
    else:
        measurements = data.draw(malformed_cmat(measurements, ROWS, 1))
    code, err = _run(d, solver, matrix, measurements)
    assert code == 3, err
    assert err.startswith("csbench: i/o error: ") and err.count("\n") == 1


# JSON values that no config field accepts: strings, floats, booleans,
# arrays, objects and negative integers. A null is left out: it is
# omp's default budget.
bad_value = st.one_of(
    st.text(max_size=5), st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.integers(max_value=-1))
FIELDS = {"nkf": ("max_iter", "schedule_mode"), "cp": ("max_iter",),
          "omp": ("max_atoms",)}


@st.composite
def malformed_config(draw, solver):
    """The text of a --config file that ``solver`` must reject."""
    kind = draw(st.sampled_from(["bad_value", "unknown_key", "non_object",
                                 "not_json", "nested"]))
    if kind == "bad_value":
        key = draw(st.sampled_from(FIELDS[solver]))
        value = draw(bad_value)
        assume(value not in (MODE_GEOMETRIC, MODE_AITKEN))
        return json.dumps({key: value})
    if kind == "unknown_key":
        key = draw(st.text(max_size=8))
        assume(key not in FIELDS[solver])
        return json.dumps({key: draw(st.integers(1, 10))})
    if kind == "non_object":
        return json.dumps(draw(st.one_of(
            st.none(), st.booleans(), st.integers(), st.floats(),
            st.text(max_size=5), st.lists(st.integers(), max_size=3))))
    if kind == "not_json":
        return draw(line_text.filter(lambda text: not _is_json(text)))
    # An object nested far deeper than the decoder recurses.
    depth = draw(st.integers(2000, 20000))
    return '{"max_iter": ' + "[" * depth + "]" * depth + "}"


@settings(max_examples=150, deadline=None)
@given(data=st.data(), solver=st.sampled_from(["nkf", "cp", "omp"]))
def test_a_malformed_config_exits_one(instance, data, solver):
    d, matrix, measurements = instance
    config = data.draw(malformed_config(solver))
    code, err = _run(d, solver, matrix, measurements, config)
    assert code == 1, err
    assert err.startswith("csbench: config error: ") and err.count("\n") == 1


# Valid, tiny arguments of each study command: every grid is 4 x 4 and
# every n at most 8. Each test run makes exactly one of them invalid.
STUDIES = {
    "gen gaussian": (["gen", "--kind", "gaussian"],
                     {"m": "2", "n": "4", "seed": "0"}),
    "gen fourier2d": (["gen", "--kind", "fourier2d"],
                      {"nr": "4", "na": "4", "keep": "0.5", "seed": "0"}),
    "dt-grid": (["dt-grid"], {"n": "4", "steps": "2", "trials": "1",
                              "solvers": "omp", "seed": "0"}),
    "scene": (["scene"], {"nr": "4", "na": "4", "scatterers": "1",
                          "keep": "0.5", "region": "1,3,1,3",
                          "solvers": "omp", "seeds": "0", "noise": "0.0"}),
    "crossover": (["crossover"], {"n": "8", "s": "1", "deltas": "0.5",
                                  "solvers": "omp", "repeats": "1",
                                  "seed": "0"}),
}


def _floats(strategy):
    return strategy.map(repr)


not_an_integer = st.sampled_from(["", "x", "1.5", "1e3", "0x10"])


def count_below(least):
    """A count argument below ``least``, or no integer at all."""
    return st.integers(max_value=least - 1).map(str) | not_an_integer


# Outside [0, 2^64), or not an integer; never empty, since an empty
# entry of a seed list is skipped.
seed_out_of_range = (st.integers(max_value=-1)
                     | st.integers(min_value=2 ** 64)).map(str)
bad_seed = seed_out_of_range | not_an_integer
bad_seed_list = (seed_out_of_range.map(lambda s: f"0,{s}")
                 | st.sampled_from(["", ",", "0,0", "1,2,1", "x", "0,1.5"]))
# A keep or delta outside (0, 1], NaN and infinity included.
outside_unit = _floats(st.floats(max_value=0.0)
                       | st.floats(min_value=1.0, exclude_min=True)
                       | st.just(math.nan))
# On a 4 x 4 grid a keep below 1/32 rounds to no rows.
bad_keep = outside_unit | _floats(st.floats(0.0, 1 / 32, exclude_min=True,
                                            exclude_max=True))
bad_deltas = (outside_unit | outside_unit.map(lambda d: f"0.5,{d}")
              | st.sampled_from(["", ",", "0.5,0.5", "x", "0.5,x"]))
bad_noise = _floats(st.floats(max_value=-math.ulp(0.0))
                    | st.sampled_from([math.nan, math.inf]))
bad_solvers = (st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=5)
               .filter(lambda name: name not in KNOWN_SOLVERS)
               | st.sampled_from(["", ",", "omp,omp", "cp,omp,cp",
                                  "omp,ista"]))
bad_region = (
    st.lists(st.integers(-2, 6), min_size=4, max_size=4).filter(
        lambda r: not (0 <= r[0] < r[1] <= 4 and 0 <= r[2] < r[3] <= 4))
    | st.lists(st.integers(0, 4), max_size=6).filter(lambda r: len(r) != 4)
).map(lambda r: ",".join(map(str, r))) | st.sampled_from(["1,3,1,x",
                                                          "1.0,3,1,3"])
# The scene's region holds 4 cells; the crossover's m is 4.
more_than_four = st.integers(-(2 ** 70), -1) | st.integers(5, 2 ** 70)

INVALID = {
    "gen gaussian": {"m": count_below(1), "n": count_below(1),
                     "seed": bad_seed},
    "gen fourier2d": {"nr": count_below(1), "na": count_below(1),
                      "keep": bad_keep, "seed": bad_seed},
    "dt-grid": {"n": count_below(2), "steps": count_below(2),
                "trials": count_below(1), "solvers": bad_solvers,
                "seed": bad_seed},
    "scene": {"nr": count_below(1), "na": count_below(1),
              "scatterers": more_than_four.map(str) | not_an_integer,
              "keep": bad_keep, "region": bad_region,
              "solvers": bad_solvers, "seeds": bad_seed_list,
              "noise": bad_noise},
    "crossover": {"n": count_below(1),
                  "s": more_than_four.map(str) | not_an_integer,
                  "deltas": bad_deltas, "solvers": bad_solvers,
                  "repeats": count_below(1), "seed": bad_seed},
}


def _run_study(study, args, out):
    """The study command with ``args``: (exit code, stderr)."""
    head, _ = STUDIES[study]
    argv = head + [f"--{k}={v}" for k, v in args.items()] + ["--out", out]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("study", sorted(STUDIES))
def test_the_valid_study_arguments_run(tmp_path, study):
    out = tmp_path / "out"
    code, err = _run_study(study, STUDIES[study][1], str(out))
    assert code == 0, err
    assert out.exists()


@pytest.mark.parametrize("study", sorted(STUDIES))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_one_invalid_study_argument_exits_one(tmp_path_factory, study,
                                              data):
    name = data.draw(st.sampled_from(sorted(INVALID[study])), label="arg")
    value = data.draw(INVALID[study][name], label="value")
    args = dict(STUDIES[study][1], **{name: value})
    out = tmp_path_factory.mktemp("study") / "out"
    code, err = _run_study(study, args, str(out))
    assert code == 1, err
    assert "Traceback" not in err
    assert not out.exists()
