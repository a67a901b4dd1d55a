"""Separable ensembles: normalization split, CSV table loading."""

import math

import numpy as np
import pytest

from hamens import (CardioidAngular, GaussianRadial, MapFamily, SphereAngular, TabulatedAngular,
                    TabulatedRadial, load_angular_table, load_radial_table)

from conftest import TABLES_WITH_X


def test_builtin_pairs_are_jointly_normalized():
    fam = MapFamily.from_ensemble(GaussianRadial(2.0), CardioidAngular())
    assert fam.xi == pytest.approx(1.0)


def test_joint_normalization_rejects_mismatch():
    om = np.linspace(0.0, 13.0, 301)
    dens = np.sqrt(2 / np.pi) * np.exp(-0.5 * om * om) * 1.5  # mass 1.5, xi stays 1
    with pytest.raises(ValueError):
        MapFamily.from_ensemble(TabulatedRadial(om, dens), SphereAngular())


def split_normalization_pair(xi=2.0):
    """Tabulated pair with radial mass 1/xi and angular mass xi."""
    om = np.linspace(0.0, 13.0, 601)
    dens = np.sqrt(2 / np.pi) * np.exp(-0.5 * om * om)
    tab = TabulatedRadial(om, dens)
    radial = TabulatedRadial(om, dens / (tab.mass() * xi))
    th = np.linspace(0, math.pi, 5)
    ph = np.linspace(0, 2 * math.pi, 5)
    angular = TabulatedAngular(th, ph, np.full((5, 5), xi / (4 * math.pi)))
    return radial, angular


def test_split_normalization_accepted_and_flagged():
    with pytest.warns(UserWarning):
        fam = MapFamily.from_ensemble(*split_normalization_pair(xi=2.0))
    assert fam.xi == pytest.approx(2.0, abs=1e-9)
    # the map is still the identity at t = 0: cos expectation starts at 1/xi
    from hamens import map_matrices
    assert np.allclose(map_matrices(fam, 0.0), np.eye(3), atol=1e-9)


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
    assert abs(tab.xi() - 1.0) < 1e-2


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
