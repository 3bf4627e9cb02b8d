"""The built-in family catalogue: construction, exact views, declarations."""

import pytest

from naads import (
    CORPUS_NAMES,
    Space,
    UnknownNameError,
    Verdict,
    corpus,
    metric,
    omega,
)


def test_names_are_stable():
    assert len(CORPUS_NAMES) == 7
    assert len(set(CORPUS_NAMES)) == 7


def test_unknown_name():
    with pytest.raises(UnknownNameError):
        corpus("no_such_family")


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_entry_shape(name):
    entry = corpus(name)
    assert entry.name == name
    assert entry.family.name == name
    assert entry.description
    assert isinstance(entry.expected, dict)
    for verdict in entry.expected.values():
        assert isinstance(verdict, Verdict)
    # every expected verdict carries an explanatory note or is self-evident
    assert set(entry.notes) <= set(entry.expected)


def test_fresh_instances():
    a = corpus("circle_ex4")
    b = corpus("circle_ex4")
    assert a.family is not b.family


def test_spaces():
    for name in ("circle_settling", "circle_ex4", "circle_harmonic"):
        assert corpus(name).family.space is Space.CIRCLE
    for name in ("identity", "example1_tent_sqrt", "example2_powers",
                 "interval_square_sqrt"):
        assert corpus(name).family.space is Space.UNIT_INTERVAL


@pytest.mark.parametrize("name", ["circle_settling", "circle_ex4", "circle_harmonic"])
def test_rotation_families_carry_exact_view(name):
    entry = corpus(name)
    exact = entry.exact
    assert exact is not None
    fam = entry.family
    # the float maps are derived from the exact steps: one rotation step of the
    # float flow moves a point by exactly the rational step amount
    for n in range(1, 25):
        step = float(exact.step(n))
        h = fam.map_at(n)
        moved = h.forward(0.125)
        assert metric(Space.CIRCLE, moved, (0.125 + step) % 1.0) < 1e-15


@pytest.mark.parametrize("name", ["circle_settling", "circle_ex4", "circle_harmonic"])
def test_float_flow_tracks_exact_displacements(name):
    entry = corpus(name)
    for n in (-30, -7, -1, 1, 7, 30):
        expected = (0.2 + float(entry.exact.displacement(n))) % 1.0
        assert metric(Space.CIRCLE, omega(entry.family, n, 0.2), expected) < 1e-9


def test_interval_families_have_no_exact_view():
    for name in ("identity", "example1_tent_sqrt", "example2_powers",
                 "interval_square_sqrt"):
        assert corpus(name).exact is None


def test_declarations():
    assert not corpus("example1_tent_sqrt").family.declared_commutative
    for name in ("identity", "example2_powers", "circle_settling", "circle_ex4",
                 "circle_harmonic", "interval_square_sqrt"):
        assert corpus(name).family.declared_commutative, name
    for name in ("circle_settling", "circle_ex4", "circle_harmonic", "identity"):
        assert corpus(name).family.declared_isometric, name


def test_identity_shares_one_map():
    fam = corpus("identity").family
    assert fam.map_at(1) is fam.map_at(5)
