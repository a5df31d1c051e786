"""Text matrix files: bit-exact round-trips and malformed input."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csbench.cmatio import (load_indices, load_matrix, load_vector,
                            save_indices, save_matrix, save_vector)
from csbench.errors import CmatFormatError

from helpers import random_complex_matrix, random_complex_vector


def test_matrix_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    a = random_complex_matrix(rng, 7, 5)
    a[0, 0] = 1e-300 + 1e300j          # extreme magnitudes survive repr
    a[1, 1] = -0.0 + 0.0j
    a[2, 3] = 0.1 + 0.2j               # non-representable decimals
    path = tmp_path / "a.cmat"
    save_matrix(path, a)
    b = load_matrix(path)
    assert b.dtype == np.complex128
    np.testing.assert_array_equal(a, b)


def test_vector_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    v = random_complex_vector(rng, 9)
    path = tmp_path / "v.cmat"
    save_vector(path, v)
    w = load_vector(path)
    assert w.shape == (9,)
    np.testing.assert_array_equal(v, w)


def test_empty_matrix_round_trip(tmp_path):
    path = tmp_path / "e.cmat"
    save_matrix(path, np.zeros((0, 0), dtype=complex))
    out = load_matrix(path)
    assert out.shape == (0, 0)


def test_zero_column_matrix_round_trip(tmp_path):
    # Each row of a 0-column matrix is an empty line, not end of file.
    path = tmp_path / "z.cmat"
    save_matrix(path, np.zeros((5, 0), dtype=complex))
    assert path.read_text() == "cmat 1 5 0\n" + "\n" * 5
    assert load_matrix(path).shape == (5, 0)


def test_missing_rows_rejected(tmp_path):
    path = tmp_path / "short.cmat"
    path.write_text("cmat 1 5 0\n")
    with pytest.raises(CmatFormatError, match="missing row 0 of 5"):
        load_matrix(path)
    path.write_text("cmat 1 3 1\n1.0,0.0\n2.0,0.0\n")
    with pytest.raises(CmatFormatError, match="missing row 2 of 3"):
        load_matrix(path)


def test_zero_column_header_past_numpy_size_limit_rejected(tmp_path):
    # 10^18 rows of 0 columns reserve no memory, but the shape alone is
    # past numpy's size limit; the rows are missing, a format error.
    path = tmp_path / "huge.cmat"
    path.write_text(f"cmat 1 {10 ** 18} 0\n")
    for load in (load_matrix, load_vector):
        with pytest.raises(CmatFormatError, match="missing row 0 of"):
            load(path)


def test_indices_round_trip(tmp_path):
    idx = np.array([0, 5, 17, 3], dtype=np.int64)
    path = tmp_path / "k.idx"
    save_indices(path, idx)
    np.testing.assert_array_equal(load_indices(path), idx)
    save_indices(path, [])
    assert load_indices(path).size == 0


def test_header_format(tmp_path):
    path = tmp_path / "h.cmat"
    save_matrix(path, np.array([[1.5 - 0.25j]]))
    lines = path.read_text().splitlines()
    assert lines[0] == "cmat 1 1 1"
    assert lines[1] == "1.5,-0.25"


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.cmat"
    path.write_text("cvec 1 1 1\n0.0,0.0\n")
    with pytest.raises(CmatFormatError):
        load_matrix(path)


def test_bad_version(tmp_path):
    path = tmp_path / "bad.cmat"
    path.write_text("cmat 2 1 1\n0.0,0.0\n")
    with pytest.raises(CmatFormatError):
        load_matrix(path)


@pytest.mark.parametrize("size", [10 ** 8, 10 ** 9])
def test_header_larger_than_its_file_rejected(tmp_path, size):
    # A size x size header over one row cannot be filled; it must fail
    # as a format error before memory is reserved for the matrix.
    path = tmp_path / "big.cmat"
    path.write_text(f"cmat 1 {size} {size}\n1.0,0.0\n")
    for load in (load_matrix, load_vector):
        with pytest.raises(CmatFormatError, match="cannot fit"):
            load(path)
    # A file that holds its rows at the least bytes per entry loads.
    path.write_text("cmat 1 2 2\n1,2 3,4\n5,6 7,8")
    assert load_matrix(path).shape == (2, 2)


def test_wrong_token_count(tmp_path):
    path = tmp_path / "bad.cmat"
    path.write_text("cmat 1 1 2\n0.0,0.0\n")
    with pytest.raises(CmatFormatError):
        load_matrix(path)


def test_content_after_declared_rows(tmp_path):
    path = tmp_path / "a.cmat"
    a = np.array([[1.0, 2.0j], [3.0, -4.0]])
    save_matrix(path, a)
    np.testing.assert_array_equal(load_matrix(path), a)
    # Trailing whitespace is still only whitespace.
    with open(path, "a", encoding="ascii") as fh:
        fh.write("\n  \t\n")
    np.testing.assert_array_equal(load_matrix(path), a)
    # An extra row is content the header does not declare.
    with open(path, "a", encoding="ascii") as fh:
        fh.write("5.0,0.0 6.0,0.0\n")
    with pytest.raises(CmatFormatError, match="after the 2 declared rows"):
        load_matrix(path)


def test_malformed_pair(tmp_path):
    path = tmp_path / "bad.cmat"
    path.write_text("cmat 1 1 1\n0.0;0.0\n")
    with pytest.raises(CmatFormatError):
        load_matrix(path)
    path.write_text("cmat 1 1 1\nzero,0.0\n")
    with pytest.raises(CmatFormatError):
        load_matrix(path)


def test_non_finite_rejected_on_write(tmp_path):
    path = tmp_path / "nan.cmat"
    with pytest.raises(ValueError):
        save_matrix(path, np.array([[np.nan + 0j]]))
    with pytest.raises(ValueError):
        save_vector(path, np.array([np.inf + 0j]))


def test_non_finite_rejected_on_read(tmp_path):
    path = tmp_path / "inf.cmat"
    path.write_text("cmat 1 1 1\ninf,0.0\n")
    with pytest.raises(CmatFormatError):
        load_matrix(path)


def test_load_vector_rejects_wide_matrix(tmp_path):
    path = tmp_path / "wide.cmat"
    save_matrix(path, np.ones((2, 2), dtype=complex))
    with pytest.raises(CmatFormatError):
        load_vector(path)


def test_save_matrix_validates_shape(tmp_path):
    with pytest.raises(ValueError):
        save_matrix(tmp_path / "x.cmat", np.zeros(3, dtype=complex))
    with pytest.raises(ValueError):
        save_vector(tmp_path / "x.cmat", np.zeros((3, 1), dtype=complex))


def test_load_indices_rejects_non_integer(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_text("1 2 three\n")
    with pytest.raises(CmatFormatError):
        load_indices(path)


def test_load_indices_rejects_an_index_outside_int64(tmp_path):
    path = tmp_path / "big.idx"
    path.write_text("-3 99999999999999999999999\n")
    with pytest.raises(CmatFormatError, match="outside int64"):
        load_indices(path)


@pytest.mark.parametrize("text", [
    b"cmat 1 1 1\n1.0,0.0\xc2\xa0\n",      # a no-break space after the entry
    b"cmat 1 1 1\n\xd9\xa3.0,0.0\n",        # an Arabic-Indic digit three
    b"cmat\xc2\xa01 1 1\n1.0,0.0\n",
    b"cmat 1 1 1\n1.0,0.0\n\xff\n",
])
def test_a_byte_outside_ascii_is_a_format_error(tmp_path, text):
    # Not a UnicodeDecodeError, which is a ValueError: the CLI would
    # report a malformed file as a config error.
    path = tmp_path / "bad.cmat"
    path.write_bytes(text)
    with pytest.raises(CmatFormatError):
        load_matrix(path)


def test_load_indices_rejects_a_byte_outside_ascii(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(b"1 2 \xd9\xa3\n")
    with pytest.raises(CmatFormatError):
        load_indices(path)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=6))
def test_every_written_file_reads_back_bit_exactly(tmp_path_factory,
                                                   entries):
    # Subnormals, signed zeros and both ends of the range included:
    # the reader's grammar takes every form repr writes.
    a = np.array(entries, dtype=np.complex128).reshape(-1, 1)
    path = tmp_path_factory.mktemp("round_trip") / "a.cmat"
    save_matrix(path, a)
    b = load_matrix(path)
    assert a.view(np.uint64).tobytes() == b.view(np.uint64).tobytes()


@pytest.mark.parametrize("entry", [
    "1_0,0",            # float() takes an underscore between digits
    "0,1_0.5",
    "1.0e1_0,0",
    "1E+5,0",           # the writer's exponent is a lower-case e
    "1e5,0",            # with a sign
    ".5,0",             # and its mantissa has digits before a point
    "5.,0",             # and after it
    "+-1,0",
    "1.0,0.0,0.0",
])
def test_an_entry_outside_the_written_form_is_a_format_error(tmp_path,
                                                             entry):
    path = tmp_path / "a.cmat"
    path.write_text(f"cmat 1 1 1\n{entry}\n")
    with pytest.raises(CmatFormatError, match="row 0 entry 0"):
        load_matrix(path)


@pytest.mark.parametrize("header", [
    "cmat 1 0_1 2",     # int() takes an underscore between digits
    "cmat 1 +1 2",      # and a sign
    "cmat +1 1 2",
    "cmat 1 1 0_2",
])
def test_a_header_count_that_is_not_ascii_digits_is_a_format_error(
        tmp_path, header):
    path = tmp_path / "a.cmat"
    path.write_text(f"{header}\n1.0,0.0 2.0,0.0\n")
    with pytest.raises(CmatFormatError, match="bad header"):
        load_matrix(path)


def test_a_header_count_too_long_to_convert_is_a_format_error(tmp_path):
    path = tmp_path / "a.cmat"
    path.write_text(f"cmat 1 {'9' * 5000} 1\n")
    with pytest.raises(CmatFormatError, match="bad header"):
        load_matrix(path)


@pytest.mark.parametrize("text", ["1_0 2\n", "+3 2\n"])
def test_load_indices_reads_only_the_written_form(tmp_path, text):
    path = tmp_path / "a.idx"
    path.write_text(text)
    with pytest.raises(CmatFormatError, match="non-integer index"):
        load_indices(path)
    # A negative index is in the written form; range is checked later.
    path.write_text("-3 2\n")
    np.testing.assert_array_equal(load_indices(path), [-3, 2])


def test_load_indices_with_too_many_digits_is_outside_int64(tmp_path):
    path = tmp_path / "a.idx"
    path.write_text("9" * 5000 + "\n")
    with pytest.raises(CmatFormatError, match="outside int64"):
        load_indices(path)
