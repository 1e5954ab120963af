import numpy as np
import pytest

from equilab import densela
from equilab.errors import DimensionError
from equilab.net import data as D


class TestTeacher:
    def test_first_layer_kappa_close_to_nominal(self):
        for kappa in (10.0, 1e3, 1e5):
            t = D.make_teacher(widths=(2, 8, 1), kappa=kappa, seed=0)
            got = densela.condition_number(t.layers[0].w)
            # rows are unit before the geometric rescale, so kappa lands
            # within a small factor of the ladder ratio
            assert kappa / 20.0 <= got <= kappa * 20.0

    def test_kappa_below_one_rejected(self):
        with pytest.raises(DimensionError):
            D.make_teacher(kappa=0.5)

    def test_regression_determinism_and_noise(self):
        x1, y1, _ = D.teacher_student_regression(64, seed=5, noise=0.01)
        x2, y2, _ = D.teacher_student_regression(64, seed=5, noise=0.01)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)
        _, y0, t = D.teacher_student_regression(64, seed=5, noise=0.0)
        np.testing.assert_array_equal(t.forward(x1), y0)
        assert not np.array_equal(y0, y1)

    def test_shapes(self):
        x, y, _ = D.teacher_student_regression(33, seed=1, widths=(3, 4, 2))
        assert x.shape == (33, 3) and y.shape == (33, 2)


class TestTwoMoons:
    def test_shapes_labels_balance(self):
        x, y = D.two_moons(101, noise=0.0, seed=0)
        assert x.shape == (101, 2) and y.shape == (101, 1)
        assert set(np.unique(y)) == {0.0, 1.0}
        assert abs(int(y.sum()) - 50) <= 1

    def test_noiseless_points_on_circles(self):
        x, y = D.two_moons(200, noise=0.0, seed=3)
        outer = x[y[:, 0] == 0]
        r = np.linalg.norm(outer, axis=1)
        np.testing.assert_allclose(r, 1.0, atol=1e-12)
        inner = x[y[:, 0] == 1] - np.array([1.0, 0.5])
        np.testing.assert_allclose(np.linalg.norm(inner, axis=1), 1.0, atol=1e-12)

    def test_determinism_and_min_samples(self):
        a = D.two_moons(50, seed=9)[0]
        b = D.two_moons(50, seed=9)[0]
        np.testing.assert_array_equal(a, b)
        with pytest.raises(DimensionError):
            D.two_moons(1)
