import pytest

from cdeoh.jsonio import type_name


@pytest.mark.parametrize("want, name", [
    (int, "an integer"),
    (float, "a number"),
    (int | None, "an integer or null"),
    (tuple[int, ...], "a non-empty list of integers"),
    (list[str], "a list of strings"),
    (dict[str, int], "an object of integers"),
    (list[list[float]], "a list of lists of numbers"),
    (dict[str, list[int]], "an object of lists of integers"),
    (list[int | None], "a list of integers or nulls"),
])
def test_type_name(want, name):
    assert type_name(want) == name
