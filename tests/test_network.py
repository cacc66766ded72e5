import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modal_oracle import is_normal
from netecon.network import (
    IONetwork,
    build_plain_network,
    build_random_exponential_network,
    load_network,
)


class TestPlainNetwork:
    def test_n2_entries_and_spectrum(self):
        net = build_plain_network(2)
        assert np.array_equal(net.w, [[0.5, 0.5], [0.5, 0.5]])
        vals = np.sort(np.abs(np.linalg.eigvals(net.w)))
        assert np.allclose(vals, [0.0, 1.0], atol=1e-14)

    def test_n1_degenerate(self):
        net = build_plain_network(1)
        assert net.w.tolist() == [[1.0]]
        assert np.allclose(np.linalg.eigvals(net.w), [1.0])

    def test_n64_spectral_set(self):
        net = build_plain_network(64)
        assert np.allclose(net.w.sum(axis=1), 1.0, atol=1e-12)
        vals = np.sort(np.abs(np.linalg.eigvals(net.w)))
        assert np.allclose(vals[:-1], 0.0, atol=1e-12)
        assert abs(vals[-1] - 1.0) < 1e-12

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            build_plain_network(0)


class TestRandomExponential:
    def test_deterministic_for_seed(self):
        a = build_random_exponential_network(20, 1)
        b = build_random_exponential_network(20, 1)
        assert np.array_equal(a.w, b.w)

    def test_rows_normalized(self):
        net = build_random_exponential_network(40, 7)
        assert np.max(np.abs(net.w.sum(axis=1) - 1.0)) < 1e-12

    def test_nonunit_eigenvalues_inside_circle(self):
        # checked by direct eigen-decomposition of the generated matrix
        net = build_random_exponential_network(80, 3)
        mods = np.sort(np.abs(np.linalg.eigvals(net.w)))
        assert abs(mods[-1] - 1.0) < 1e-9
        assert mods[-2] < 1.0


@given(n=st.integers(1, 30), seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_random_network_is_row_stochastic(n, seed):
    net = build_random_exponential_network(n, seed)
    assert np.all(net.w >= 0)
    assert np.max(np.abs(net.w.sum(axis=1) - 1.0)) < 1e-12


class TestLoadNetwork:
    def test_identity_roundtrip(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("1,0\n0,1\n")
        net = load_network(path)
        assert np.allclose(net.w, np.eye(2))
        assert np.allclose(np.sort(np.linalg.eigvals(net.w).real), [1.0, 1.0])

    def test_renormalizes_with_warning(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("2,2\n1,3\n")
        with pytest.warns(UserWarning, match="renormalized"):
            net = load_network(path)
        assert np.allclose(net.w[0], [0.5, 0.5])
        assert np.allclose(net.w[1], [0.25, 0.75])

    def test_negative_entry_rejected(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("0.5,0.5\n-0.1,1.1\n")
        with pytest.raises(ValueError, match="negative input share"):
            load_network(path)

    def test_zero_row_rejected(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("1,0\n0,0\n")
        with pytest.raises(ValueError, match="all-zero row"):
            load_network(path)

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("0.5,0.25,0.25\n0.5,0.25,0.25\n")
        with pytest.raises(ValueError, match="square"):
            load_network(path)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("0.5,abc\n0.5,0.5\n")
        with pytest.raises(ValueError, match="malformed"):
            load_network(path)

    def test_scientific_notation_accepted(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("5e-1,5e-1\n2.5E-1,7.5E-1\n")
        net = load_network(path)
        assert np.allclose(net.w, [[0.5, 0.5], [0.25, 0.75]])


class TestIsNormal:
    """The modal oracle's normality test, by which it rejects non-normal networks."""

    def test_plain_is_normal(self):
        assert is_normal(build_plain_network(5))

    def test_identity_is_normal(self):
        assert is_normal(IONetwork(3, np.eye(3)))

    def test_asymmetric_counterexample(self):
        # direct commutator computation: W W' != W' W for this matrix
        net = IONetwork(2, np.array([[0.9, 0.1], [0.5, 0.5]]))
        assert not is_normal(net)


def test_invalid_matrix_rejected():
    with pytest.raises(ValueError):
        IONetwork(2, np.array([[0.7, 0.2], [0.5, 0.5]]))  # row sum != 1
    with pytest.raises(ValueError):
        IONetwork(2, np.array([[1.5, -0.5], [0.5, 0.5]]))  # negative entry
    with pytest.raises(ValueError, match="non-finite"):
        IONetwork(2, np.array([[np.nan, 0.5], [0.5, 0.5]]))  # NaN passes both checks above
