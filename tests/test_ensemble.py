"""Separable ensembles: unit-mass factors, the built-in kinds, CSV table loading."""

import math

import numpy as np
import pytest

from hamens import (GaussianRadial, KneadedCardioidAngular, MapFamily, SphereAngular,
                    TabulatedAngular, TabulatedRadial, load_angular_table, load_radial_table)
from hamens.config import ANGULAR_KINDS, angular_model, load_config
from hamens.validation import builtin_families

from conftest import TABLES_WITH_X


def test_builtin_pairs_are_jointly_normalized():
    for name, fam in builtin_families(omega_c=2.0):
        assert fam.radial.mass() == 1.0 and fam.angular.mass() == 1.0, name


def test_only_the_kneaded_kind_takes_the_asymmetry(tmp_path):
    # one rule serves the config and the validation families
    for kind, cls in ANGULAR_KINDS.items():
        model = angular_model(kind, 0.7)
        assert type(model) is cls
        if kind == "kneaded":
            assert model.a == 0.7
    (tmp_path / "kneaded.cfg").write_text("[angular]\nkind = kneaded\na = 0.2\n")
    kneaded = load_config(tmp_path / "kneaded.cfg")
    assert kneaded.build_family().angular.a == 0.2
    assert kneaded.build_family(asymmetry=0.9).angular.a == 0.9
    by_name = dict(builtin_families(asymmetry=0.4))
    assert by_name["gaussian+kneaded"].angular.a == 0.4
    assert type(by_name["gaussian+bagel"].angular) is ANGULAR_KINDS["bagel"]
    assert isinstance(by_name["exp-cutoff+kneaded"].angular, KneadedCardioidAngular)


def test_joint_normalization_rejects_mismatch():
    om = np.linspace(0.0, 13.0, 301)
    dens = np.sqrt(2 / np.pi) * np.exp(-0.5 * om * om) * 1.5  # mass 1.5
    with pytest.raises(ValueError):
        MapFamily.from_ensemble(TabulatedRadial(om, dens), SphereAngular())


def split_normalization_pair(split=2.0):
    """Tabulated pair with radial mass 1/split and angular mass split: the
    product is 1, but neither factor has unit mass."""
    om = np.linspace(0.0, 13.0, 601)
    dens = np.sqrt(2 / np.pi) * np.exp(-0.5 * om * om)
    tab = TabulatedRadial(om, dens)
    radial = TabulatedRadial(om, dens / (tab.mass() * split))
    th = np.linspace(0, math.pi, 5)
    ph = np.linspace(0, 2 * math.pi, 5)
    angular = TabulatedAngular(th, ph, np.full((5, 5), split / (4 * math.pi)))
    return radial, angular


@pytest.mark.parametrize("side", ["radial", "angular"])
def test_split_normalization_is_refused(side):
    # each factor must have unit mass on its own; a split pair used to be
    # accepted with a UserWarning
    radial, angular = split_normalization_pair(split=2.0)
    if side == "angular":
        radial = GaussianRadial()
    with pytest.raises(ValueError, match=f"^{side} mass must be 1, got "):
        MapFamily.from_ensemble(radial, angular)
    # the same pair written as unit-mass factors is accepted
    radial, angular = split_normalization_pair(split=1.0)
    assert MapFamily.from_ensemble(radial, angular).angular.mass() == pytest.approx(1.0, abs=1e-15)


def test_load_radial_table(tmp_path):
    path = tmp_path / "radial.csv"
    om = np.linspace(0.0, 13.0, 801)
    dens = np.sqrt(2 / np.pi) * np.exp(-0.5 * om * om)
    path.write_text("omega,P\n" + "\n".join(f"{o},{d}" for o, d in zip(om, dens)) + "\n")
    tab = load_radial_table(path)
    assert tab.omega.size == 801
    assert abs(tab.expectations(1.0)[0]) < 1e-4


def test_load_radial_table_rejects_bad_header(tmp_path):
    path = tmp_path / "radial.csv"
    path.write_text("omega,density\n0,1\n1,1\n")
    with pytest.raises(ValueError, match="header"):
        load_radial_table(path)


def test_load_radial_table_rejects_negative(tmp_path):
    path = tmp_path / "radial.csv"
    path.write_text("omega,P\n0,1\n1,-1\n")
    with pytest.raises(ValueError):
        load_radial_table(path)


def test_load_angular_table_roundtrip(tmp_path):
    th = np.linspace(0, math.pi, 41)
    ph = np.linspace(0, 2 * math.pi, 21)
    rows = ["theta,phi,Theta"]
    for t in th:
        for p in ph:
            rows.append(f"{t},{p},{(1 - math.cos(t)) / (4 * math.pi)}")
    path = tmp_path / "angular.csv"
    path.write_text("\n".join(rows) + "\n")
    tab = load_angular_table(path)
    assert tab.values.shape == (41, 21)
    assert abs(tab.mass() - 1.0) < 1e-2


def test_load_angular_table_rejects_ragged_grid(tmp_path):
    path = tmp_path / "angular.csv"
    path.write_text("theta,phi,Theta\n0,0,1\n0,1,1\n1,0,1\n")
    with pytest.raises(ValueError, match="grid"):
        load_angular_table(path)


@pytest.mark.parametrize("entry", ["abc", "nan", "inf"])
@pytest.mark.parametrize("table", ["radial", "angular", "angular-phi"])
def test_load_csv_rejects_non_numeric(tmp_path, table, entry):
    # float() takes nan and inf, so the tables must refuse them themselves
    load = load_radial_table if table == "radial" else load_angular_table
    path = tmp_path / "table.csv"
    path.write_text(TABLES_WITH_X[table].replace("X", entry))
    with pytest.raises(ValueError, match="non-numeric" if entry == "abc" else "must be finite"):
        load(path)
