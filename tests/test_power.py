import numpy as np
import pytest

from cellfree.power import (
    DualityResult,
    InfeasibilityError,
    dl_centralized_equal,
    dl_distributed_proportional,
    duality_power,
    per_ap_dl_power,
    ul_full_power,
)
from cellfree.se import UatfMoments, uatf_sinr, ul_mr_closed_form_moments

from conftest import make_cfg, make_setup


class TestHeuristics:
    def test_full_power_vector(self):
        cfg = make_cfg(num_ues=3, ue_power_w=0.1)
        assert np.array_equal(ul_full_power(cfg), [0.1, 0.1, 0.1])

    def test_full_power_ignores_topology(self):
        cfg = make_cfg(num_ues=4, seed=1)
        other = make_cfg(num_ues=4, seed=99)
        assert np.array_equal(ul_full_power(cfg), ul_full_power(other))

    def test_full_power_degenerate_no_ues(self):
        import dataclasses

        cfg = dataclasses.replace(make_cfg(), num_ues=0)
        assert ul_full_power(cfg).shape == (0,)

    def test_equal_allocation(self):
        cfg = make_cfg(ap_power_w=1.0, pilot_len=10, num_ues=2, num_aps=40,
                       ul_data_len=95, dl_data_len=95)
        assert np.allclose(dl_centralized_equal(cfg), 0.1)

    def test_equal_allocation_single_pilot(self):
        cfg = make_cfg(ap_power_w=0.7, pilot_len=1, num_ues=1, num_aps=4)
        assert np.allclose(dl_centralized_equal(cfg), 0.7)

    def test_proportional_split(self):
        cfg = make_cfg(num_aps=1, num_ues=2, pilot_len=2, ap_power_w=1.0)
        topo, assignment, _ = make_setup(cfg)
        topo.beta = np.array([[4.0], [1.0]])
        assignment = assignment.served_by_all()
        rho = dl_distributed_proportional(assignment, topo, cfg)
        assert rho[0, 0] == pytest.approx(2.0 / 3.0)
        assert rho[1, 0] == pytest.approx(1.0 / 3.0)

    def test_budget_spent_exactly_and_zeros_off_cluster(self):
        cfg = make_cfg(num_aps=16, num_ues=12, pilot_len=4, area_side_km=0.8,
                       ul_data_len=95, dl_data_len=95)
        topo, assignment, _ = make_setup(cfg)
        rho = dl_distributed_proportional(assignment, topo, cfg)
        serving = assignment.serves.sum(axis=1) > 0
        assert np.allclose(rho.sum(axis=0)[serving], cfg.ap_power_w, rtol=1e-12)
        assert np.all(rho.T[~assignment.serves] == 0)

    def test_master_always_gets_power(self):
        cfg = make_cfg(num_aps=16, num_ues=12, pilot_len=4, area_side_km=0.8,
                       ul_data_len=95, dl_data_len=95)
        topo, assignment, _ = make_setup(cfg)
        rho = dl_distributed_proportional(assignment, topo, cfg)
        for k in range(cfg.num_ues):
            assert rho[k, assignment.master_of[k]] > 0


class TestDuality:
    def test_single_ue_power_equals_uplink(self):
        # total-power identity with K = 1 forces rho = p
        _, _, ctx = make_setup(make_cfg(num_aps=3, num_ues=1, pilot_len=2))
        m = ul_mr_closed_form_moments(ctx)
        result = duality_power(m, ctx.ul_power, ctx.cfg.noise_ul_w, ctx.cfg.noise_dl_w)
        assert result.rho[0] == pytest.approx(ctx.ul_power[0], rel=1e-9)

    def test_random_instance_replicates_sinrs(self):
        cfg = make_cfg(num_aps=8, num_ues=4, pilot_len=2, antennas_per_ap=2,
                       area_side_km=0.5, seed=11)
        _, _, ctx = make_setup(cfg)
        m = ul_mr_closed_form_moments(ctx)
        result = duality_power(m, ctx.ul_power, cfg.noise_ul_w, cfg.noise_dl_w)
        assert np.all(np.abs(result.dl_sinr - result.gamma) <= 1e-6 * result.gamma)
        assert result.total_dl == pytest.approx(result.total_ul, rel=1e-9)
        assert np.all(result.rho >= 0)

    def test_asymmetric_noise_scales_total_power(self):
        cfg = make_cfg(num_aps=6, num_ues=3, pilot_len=3, seed=7)
        _, _, ctx = make_setup(cfg)
        m = ul_mr_closed_form_moments(ctx)
        result = duality_power(m, ctx.ul_power, cfg.noise_ul_w, 4.0 * cfg.noise_ul_w)
        assert np.sum(result.rho) == pytest.approx(4.0 * np.sum(ctx.ul_power), rel=1e-9)

    def test_gamma_sigma_spectra_coincide_under_transpose(self):
        # the invertibility argument: eig(G - S) = eig(G - S^T)
        cfg = make_cfg(num_aps=8, num_ues=5, pilot_len=3, seed=13)
        _, _, ctx = make_setup(cfg)
        m = ul_mr_closed_form_moments(ctx)
        gamma = uatf_sinr(m, ctx.ul_power, cfg.noise_ul_w)
        a2 = np.abs(m.signal) ** 2 / m.combiner_norm
        sigma = m.cross.T / m.combiner_norm[None, :]
        sigma[np.diag_indices_from(sigma)] -= a2
        system = np.diag(a2 / gamma) - sigma
        ev = np.sort_complex(np.linalg.eigvals(system))
        ev_t = np.sort_complex(np.linalg.eigvals(system.T))
        assert np.allclose(ev, ev_t, rtol=1e-9)

    def test_unserved_ue_is_infeasible(self):
        m = UatfMoments(np.array([0.0 + 0j, 1.0 + 0j]),
                        np.array([[0.0, 0.0], [0.0, 1.5]]),
                        np.array([1.0, 1.0]))
        with pytest.raises(InfeasibilityError):
            duality_power(m, np.array([0.1, 0.1]), 1.0, 1.0)

    def test_result_structure(self):
        _, _, ctx = make_setup(make_cfg(num_aps=4, num_ues=2, pilot_len=2))
        m = ul_mr_closed_form_moments(ctx)
        result = duality_power(m, ctx.ul_power, ctx.cfg.noise_ul_w, ctx.cfg.noise_dl_w)
        assert isinstance(result, DualityResult)
        assert result.rho.shape == (2,)


class TestPerApBudget:
    def test_equal_allocation_respects_budgets_in_expectation(self):
        # sum_{i in D_l} rho_i E{||w_il||^2} <= rho since |D_l| <= tau_p
        cfg = make_cfg(num_aps=6, num_ues=8, pilot_len=3, area_side_km=0.4)
        _, assignment, ctx = make_setup(cfg)
        K, L = cfg.num_ues, cfg.num_aps
        rng = np.random.default_rng(3)
        # synthetic combiner energies supported on the serving sets
        norm_local = rng.uniform(0.5, 2.0, size=(K, L)) * assignment.serves.T
        norm_total = norm_local.sum(axis=1)
        spend = per_ap_dl_power(dl_centralized_equal(cfg), norm_local, norm_total)
        assert np.all(spend <= cfg.ap_power_w + 1e-12)
