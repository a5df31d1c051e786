"""Property tests over ``csbench solve``: malformed input maps to its
documented exit code, 3 for a bad CMAT file and 1 for a bad config,
and no exception escapes ``main``.

Every generated input is malformed by construction, so each run fails
while reading its files, before any solve.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from csbench import cmatio
from csbench.cli import main
from csbench.harness import make_instance
from csbench.schedule import MODE_AITKEN, MODE_GEOMETRIC

ROWS, COLS = 4, 8


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
    re_part, sep, im_part = token.partition(",")
    try:
        value = complex(float(re_part), float(im_part))
    except ValueError:
        return False
    return bool(sep) and abs(value) < math.inf  # False for a NaN too


def _header_is_valid(line, rows, cols):
    tokens = line.split()
    try:
        values = [int(t) for t in tokens[1:]]
    except ValueError:
        return False
    return tokens[:1] == ["cmat"] and values == [1, rows, cols]


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
             f"CMAT 1 {rows} {cols}", f"cmat 1 {rows}.0 {cols}"]))
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
        token = draw(line_text if kind == "bad_token" else non_finite)
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
