import numpy as np
import pytest

from sepsparse.seeding import make_rng
from sepsparse.serialize import (
    format_support,
    parse_support,
    read_support,
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
    assert read_support(path) == (2, 7, 11)


def test_empty_support(tmp_path):
    path = tmp_path / "sup.txt"
    write_support(path, ())
    assert read_support(path) == ()
    assert format_support(()) == ""
    assert parse_support("  ") == ()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_vector_rejected(tmp_path, bad):
    path = tmp_path / "vec.txt"
    path.write_text(f"1.0\n{bad}\n2.0\n")
    with pytest.raises(ValueError):
        read_vector(path)
