"""Linear constraint model: both Jacobian routes reduce to A."""

import numpy as np

from natgrad.models import LinearToyModel
from natgrad.solver import gl_action, gradient_adjoint


class TestActions:
    def test_forward_and_jacobian(self, toy_model):
        model, theta_true = toy_model
        theta = np.full(model.param_dim, 0.7)
        np.testing.assert_allclose(model.solve_forward(theta), model.a @ theta)
        np.testing.assert_array_equal(model.jacobian(theta), model.a)

    def test_gradient_via_adjoint_equals_chain_rule(self, toy_model, rng):
        model, _ = toy_model
        model.solve_forward(np.full(model.param_dim, 0.7))
        grad_rho = rng.standard_normal(model.state_dim)
        np.testing.assert_allclose(
            gradient_adjoint(model, grad_rho), model.a.T @ grad_rho, atol=1e-13
        )

    def test_identity_matrix_reduces_to_identities(self, rng):
        model = LinearToyModel(np.eye(5), np.zeros(5))
        v = rng.standard_normal(5)
        np.testing.assert_array_equal(model.apply_drho_h_inverse(v), v)
        np.testing.assert_allclose(model.apply_dtheta_h(v), -v)
        np.testing.assert_allclose(
            gl_action(model, None, v), v, atol=1e-14
        )

    def test_jacobian_by_columns_equals_a_exactly(self, toy_model):
        # One linearized solve per parameter, from the constraint actions.
        model, _ = toy_model
        model.solve_forward(np.full(model.param_dim, 0.7))
        columns = [model.apply_drho_h_inverse(model.apply_dtheta_h(-e))
                   for e in np.eye(model.param_dim)]
        np.testing.assert_array_equal(np.stack(columns, axis=1), model.a)

    def test_dot_product_adjoint_identity(self, toy_model, rng):
        model, _ = toy_model
        u = rng.standard_normal(model.state_dim)
        w = rng.standard_normal(model.state_dim)
        lhs = model.apply_drho_h_inverse(u) @ w
        rhs = u @ model.apply_drho_h_transpose_inverse(w)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_gl_action_matches_dense_product(self, toy_model, rng):
        model, _ = toy_model
        eta = rng.standard_normal(model.param_dim)
        expected = model.a.T @ (model.a @ eta)
        np.testing.assert_allclose(gl_action(model, None, eta), expected, atol=1e-12)

    def test_fd_gradient_of_misfit(self, toy_model):
        model, _ = toy_model
        theta = np.full(model.param_dim, 0.7)
        rho = model.solve_forward(theta)
        loss, grad_rho = model.loss_and_grad_rho(rho)
        grad_theta = gradient_adjoint(model, grad_rho)
        h = 1e-6
        for j in (0, 4, 9):
            e = np.zeros(model.param_dim)
            e[j] = h
            f_plus = model.loss_and_grad_rho(model.solve_forward(theta + e))[0]
            f_minus = model.loss_and_grad_rho(model.solve_forward(theta - e))[0]
            fd = (f_plus - f_minus) / (2 * h)
            assert abs(fd - grad_theta[j]) / max(abs(fd), 1e-12) < 1e-5

    def test_random_positive_states_positive(self, toy_model):
        model, theta_true = toy_model
        assert (model.a @ theta_true).min() > 0.0
        assert model.solve_forward(np.full(model.param_dim, 0.7)).min() > 0.0
