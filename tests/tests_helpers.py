"""Test functions only the test suite uses; shared presets live in
``mvlab.presets``."""

import numpy as np

from mvlab.measures import CylindricalFunction, InnerTest


def linear_F(h):
    return CylindricalFunction.linear(h.h, h.grad, h.hess)


def square_test():
    return InnerTest(
        lambda X: X[:, 0] ** 2,
        lambda X: 2 * X[:, 0][:, None],
        lambda X: np.full((X.shape[0], 1, 1), 2.0),
    )


def identity_test():
    return InnerTest(
        lambda X: X[:, 0],
        lambda X: np.ones((X.shape[0], 1)),
        lambda X: np.zeros((X.shape[0], 1, 1)),
    )
