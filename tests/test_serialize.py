import numpy as np
import pytest

from sepsparse.seeding import make_rng
from sepsparse.serialize import (
    format_support,
    read_vector,
    write_support,
    write_vector,
)


def test_vector_roundtrip_exact(tmp_path):
    v = make_rng(3).standard_normal(40)
    path = tmp_path / "vec.txt"
    write_vector(path, v)
    assert np.array_equal(read_vector(path), v)


def test_vector_format_one_number_per_line(tmp_path):
    path = tmp_path / "vec.txt"
    write_vector(path, [1.5, -2.0, 0.0])
    assert path.read_text() == "1.5\n-2.0\n0.0\n"


def test_support_roundtrip(tmp_path):
    path = tmp_path / "sup.txt"
    write_support(path, (2, 7, 11))
    assert path.read_text() == "2,7,11\n"


def test_empty_support(tmp_path):
    path = tmp_path / "sup.txt"
    write_support(path, ())
    assert path.read_text() == "\n"
    assert format_support(()) == ""


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_vector_rejected(tmp_path, bad):
    path = tmp_path / "vec.txt"
    path.write_text(f"1.0\n{bad}\n2.0\n")
    with pytest.raises(ValueError):
        read_vector(path)


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("1.5\n\n  \n-2.0\n\t\n")
    assert np.array_equal(read_vector(path), [1.5, -2.0])


@pytest.mark.parametrize("text", ["", "\n", " \n\n"])
def test_empty_vector_without_warning(tmp_path, text, recwarn):
    path = tmp_path / "vec.txt"
    path.write_text(text)
    arr = read_vector(path)
    assert arr.shape == (0,) and arr.dtype == np.float64
    assert not recwarn.list


@pytest.mark.parametrize("text", ["1.0\n1 2\n3.0\n", "1 2\n", "1 2\n3 4\n5 6\n", "1.0\nabc\n"])
def test_malformed_vector_rejected(tmp_path, text):
    path = tmp_path / "vec.txt"
    path.write_text(text)
    with pytest.raises(ValueError):
        read_vector(path)
