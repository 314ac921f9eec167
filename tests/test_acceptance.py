"""Acceptance suite: the numbered exit criteria of this artifact.

Each test prints one [PASS]/[FAIL] line (run with -s to see them inline).
Criterion 7 reproduces the full-scale reference numbers and takes about
15 minutes (877.6 s) on two cores with CELLFREE_THREADS=2; it only runs when
CELLFREE_FULL_SCALE=1 is set.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cellfree.accounting import fronthaul_load, measured_counts, multiplication_count
from cellfree.campaign import emit_results, run_campaign
from cellfree.clustering import ClusterAssignment, build_assignment
from cellfree.combining import compute_combiners, optimal_sinr
from cellfree.estimation import EstimationBundle, SetupContext
from cellfree.power import dl_distributed_proportional, duality_power, ul_full_power
from cellfree.rng import CHANNEL, PILOT_NOISE, TOPOLOGY, complex_normal, stream
from cellfree.se import dl_se_mr_closed_form, instantaneous_sinr, ul_se_mr_closed_form
from cellfree.scenarios import run_scenario
from cellfree.topology import generate_topology, sample_channels

from conftest import make_cfg, make_setup


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def test_criterion_1_duality_exactness():
    with criterion("1 duality exactness (50 instances, 1e-6 SINR / 1e-9 power)"):
        rng = np.random.default_rng(2024)
        start = time.monotonic()
        for trial in range(50):
            cfg = make_cfg(
                num_aps=int(rng.integers(4, 11)),
                num_ues=int(rng.integers(2, 7)),
                antennas_per_ap=int(rng.integers(1, 3)),
                pilot_len=int(rng.integers(3, 5)),
                area_side_km=float(rng.uniform(0.3, 0.6)),
                seed=int(rng.integers(0, 2**31)),
            )
            _, _, ctx = make_setup(cfg)
            from cellfree.se import ul_mr_closed_form_moments

            moments = ul_mr_closed_form_moments(ctx)
            result = duality_power(
                moments, ctx.ul_power, cfg.noise_ul_w, cfg.noise_dl_w,
                sinr_rtol=1e-6, power_rtol=1e-9,
            )
            assert np.all(np.abs(result.dl_sinr - result.gamma) <= 1e-6 * result.gamma)
            assert abs(result.total_dl - result.total_ul) <= 1e-9 * result.total_ul
            assert np.all(result.rho >= 0)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"duality check took {elapsed:.1f} s"


@pytest.mark.slow
@pytest.mark.parametrize("antennas", [1, 4])
def test_criterion_2_closed_form_vs_monte_carlo(antennas):
    label = f"2 Cor-2/Cor-3 vs Monte-Carlo at 1e5 realizations (N={antennas})"
    with criterion(label):
        # instances drawn once and frozen; stderr calibration is verified
        # separately, so any estimator bias would fail across all UEs
        rng = np.random.default_rng(2100 + antennas)
        for trial in range(5):
            cfg = make_cfg(
                num_aps=16, num_ues=8, antennas_per_ap=antennas,
                pilot_len=4, area_side_km=0.4,
                ul_data_len=95, dl_data_len=95,
                num_realizations=100_000,
                schemes=("MR",), mode="distributed",
                seed=int(rng.integers(0, 2**31)),
            )
            report = run_campaign(cfg, threads=int(os.environ.get("CELLFREE_THREADS", "1")))
            topo, assignment, ctx = make_setup(cfg)
            prelog_ul = cfg.ul_data_len / cfg.coherence_len
            prelog_dl = cfg.dl_data_len / cfg.coherence_len

            cf_ul = ul_se_mr_closed_form(ctx, prelog_ul)
            mc_ul = report.values("MR", "ul")
            err_ul = report.entries[("MR", "ul")].stderr
            assert np.all(err_ul > 0)
            assert np.all(np.abs(mc_ul - cf_ul) <= 3.0 * err_ul), (
                f"UL deviation {np.max(np.abs(mc_ul - cf_ul) / err_ul):.2f} stderr"
            )

            rho = dl_distributed_proportional(assignment, topo, cfg)
            cf_dl = dl_se_mr_closed_form(ctx, rho, prelog_dl)
            mc_dl = report.values("MR", "dl")
            err_dl = report.entries[("MR", "dl")].stderr
            assert np.all(np.abs(mc_dl - cf_dl) <= 3.0 * err_dl), (
                f"DL deviation {np.max(np.abs(mc_dl - cf_dl) / err_dl):.2f} stderr"
            )


def _probe_sinr(v_compact, hhat_compact, Z, ul_power, k):
    """Straight-line Eq.(13) evaluation used as an independent oracle."""
    g = np.einsum("bn,bin->bi", np.conj(v_compact), hhat_compact)
    power_g = ul_power[None, :] * np.abs(g) ** 2
    num = power_g[:, k]
    zq = np.real(np.einsum("bn,nm,bm->b", np.conj(v_compact), Z, v_compact))
    den = power_g.sum(axis=1) - num + zq
    return num / den


def test_criterion_3_mmse_optimality():
    with criterion("3 MMSE combining maximizes the instantaneous SINR (0 violations)"):
        cfg = make_cfg(num_aps=6, num_ues=5, antennas_per_ap=2, pilot_len=3,
                       area_side_km=0.4, mode="centralized", schemes=("MMSE",))
        topo, assignment, ctx = make_setup(cfg)
        rng = np.random.default_rng(99)
        total, batch = 1000, 250
        violations = 0
        for b in range(total // batch):
            h = sample_channels(topo, stream(cfg.seed, 0, CHANNEL, b), batch)
            bundle = EstimationBundle(ctx, h, stream(cfg.seed, 0, PILOT_NOISE, b))
            best = np.stack([optimal_sinr(bundle, k) for k in range(cfg.num_ues)], axis=1)
            for scheme in ("MR", "P-MMSE", "LP-MMSE", "MMSE"):
                v = compute_combiners(scheme, bundle)
                sinr = instantaneous_sinr(v, bundle, ctx.ul_power)
                violations += int(np.sum(sinr > best * (1 + 1e-9)))
            for k in range(cfg.num_ues):
                aps = ctx.assignment.serving_aps(k)
                n = aps.size * cfg.antennas_per_ap
                hh = bundle.hhat[:, :, aps, :].reshape(batch, cfg.num_ues, n)
                Z = ctx.noise_matrix(k)
                probes = complex_normal(rng, (100, n))
                for probe in probes:
                    sinr = _probe_sinr(np.tile(probe, (batch, 1)), hh, Z, ctx.ul_power, k)
                    violations += int(np.sum(sinr > best[:, k] * (1 + 1e-9)))
        assert violations == 0


def test_criterion_4_pmmse_coincides_with_mmse_when_everyone_serves():
    with criterion("4 P-MMSE = MMSE under all-serve-all clusters (1e-12)"):
        rng = np.random.default_rng(321)
        for trial in range(5):
            cfg = make_cfg(
                num_aps=int(rng.integers(2, 6)), num_ues=int(rng.integers(2, 6)),
                antennas_per_ap=int(rng.integers(1, 3)),
                pilot_len=6, all_serve_all=True,
                mode="centralized", schemes=("MMSE",),
                seed=int(rng.integers(0, 2**31)),
            )
            topo, assignment, ctx = make_setup(cfg)
            h = sample_channels(topo, stream(cfg.seed, 0, CHANNEL, 0), 8)
            bundle = EstimationBundle(ctx, h, stream(cfg.seed, 0, PILOT_NOISE, 0))
            v_mmse = compute_combiners("MMSE", bundle)
            v_pmmse = compute_combiners("P-MMSE", bundle)
            scale = np.max(np.abs(v_mmse))
            assert np.allclose(v_pmmse, v_mmse, rtol=1e-12, atol=1e-12 * scale)

            # same identity through the per-UE subspace path
            manual = ClusterAssignment(
                pilot_len=cfg.pilot_len, pilot_of=assignment.pilot_of.copy(),
                master_of=assignment.master_of.copy(),
                serves=np.ones_like(assignment.serves),
                all_serve_all=False,
            )
            ctx2 = SetupContext(topo, manual, ul_full_power(cfg), cfg)
            bundle2 = EstimationBundle(ctx2, h, stream(cfg.seed, 0, PILOT_NOISE, 0))
            v2_mmse = compute_combiners("MMSE", bundle2)
            v2_pmmse = compute_combiners("P-MMSE", bundle2)
            assert np.allclose(v2_pmmse, v2_mmse, rtol=1e-12, atol=1e-12 * scale)
            assert np.allclose(v2_mmse, v_mmse, rtol=1e-10, atol=1e-10 * scale)


def test_criterion_5_estimation_statistics():
    with criterion("5 estimation statistics at 1e5 draws (5 sigma)"):
        cfg = make_cfg(num_aps=4, num_ues=3, antennas_per_ap=2, pilot_len=2,
                       area_side_km=0.3, seed=15)
        topo, assignment, ctx = make_setup(cfg)
        n, batch = 100_000, 20_000
        K, L, N = cfg.num_ues, cfg.num_aps, cfg.antennas_per_ap
        cov_est = np.zeros((K, L, N, N), dtype=complex)
        cov_err = np.zeros((K, L, N, N), dtype=complex)
        cross = np.zeros((K, L, N, N), dtype=complex)
        for b in range(n // batch):
            h = sample_channels(topo, stream(cfg.seed, 0, CHANNEL, b), batch)
            bundle = EstimationBundle(ctx, h, stream(cfg.seed, 0, PILOT_NOISE, b))
            err = h - bundle.hhat
            cov_est += np.einsum("bklm,bkln->klmn", bundle.hhat, np.conj(bundle.hhat))
            cov_err += np.einsum("bklm,bkln->klmn", err, np.conj(err))
            cross += np.einsum("bklm,bkln->klmn", bundle.hhat, np.conj(err))
        cov_est /= n
        cov_err /= n
        cross /= n

        dB = np.real(np.einsum("klmm->klm", ctx.B))
        dC = np.real(np.einsum("klmm->klm", ctx.C))
        tol_b = 5.0 * np.sqrt(np.einsum("klm,kln->klmn", dB, dB) / n)
        tol_c = 5.0 * np.sqrt(np.einsum("klm,kln->klmn", dC, dC) / n)
        tol_x = 5.0 * np.sqrt(np.einsum("klm,kln->klmn", dB, dC) / n)
        assert np.all(np.abs(cov_est - ctx.B) <= tol_b), "estimate covariance"
        assert np.all(np.abs(cov_err - ctx.C) <= tol_c), "error covariance"
        assert np.all(np.abs(cross) <= tol_x), "estimate/error orthogonality"


@pytest.mark.slow
def test_criterion_6_scalability_invariants():
    with criterion("6 scalability invariants over 1e3 admission sequences"):
        tau_p = 10
        fronthaul_cap = None
        counts = {25: 334, 100: 333, 400: 333}
        for K, repeats in counts.items():
            area = K / 25.0                      # 25 UEs per km^2
            side = float(np.sqrt(area))
            L = int(round(100 * area))           # 100 single-antenna APs per km^2
            cfg = make_cfg(
                num_aps=L, num_ues=K, antennas_per_ap=1, pilot_len=tau_p,
                area_side_km=side, ul_data_len=95, dl_data_len=95, seed=0,
            )
            fronthaul_cap = (cfg.ul_data_len + cfg.dl_data_len) * tau_p
            for rep in range(repeats):
                topo = generate_topology(cfg, stream(1000 + K, rep, TOPOLOGY))
                assignment = build_assignment(cfg, topo)
                sizes = assignment.cluster_sizes()
                assert sizes.max() <= tau_p
                assert np.all(assignment.master_of >= 0)
                masters_serve = assignment.serves[
                    assignment.master_of, np.arange(K)
                ]
                assert masters_serve.all()
                loads = fronthaul_load("distributed", assignment, cfg)
                assert loads[:, 1:].sum(axis=1).max() <= fronthaul_cap


FULL_SCALE = os.environ.get("CELLFREE_FULL_SCALE", "") == "1"


@pytest.mark.skipif(not FULL_SCALE, reason="full-scale reproduction, about 15 min on 2 cores; set CELLFREE_FULL_SCALE=1")
def test_criterion_7_full_scale_reference_numbers():
    with criterion("7 full-scale reference-number reproduction"):
        threads = int(os.environ.get("CELLFREE_THREADS", str(os.cpu_count() or 1)))
        ul = run_scenario("setup-i-ul", full_scale=True, threads=threads)
        for prop in ul.properties:
            print(f"  setup-i-ul {prop.name}: {prop.detail}")
            assert prop.passed, prop.detail
        dl = run_scenario("setup-i-dl", full_scale=True, threads=threads)
        for prop in dl.properties:
            print(f"  setup-i-dl {prop.name}: {prop.detail}")
            assert prop.passed, prop.detail


def test_criterion_8_accounting_exactness():
    with criterion("8 instrumented counters equal the cost-table formulas"):
        rng = np.random.default_rng(818)
        for trial in range(20):
            cfg = make_cfg(
                num_aps=int(rng.integers(4, 13)),
                num_ues=int(rng.integers(4, 17)),
                antennas_per_ap=int(rng.choice([1, 2, 4])),
                pilot_len=int(rng.integers(3, 7)),
                area_side_km=float(rng.uniform(0.4, 0.8)),
                ul_data_len=95, dl_data_len=95,
                seed=int(rng.integers(0, 2**31)),
                mode="centralized", schemes=("MMSE",),
            )
            try:
                topo, assignment, ctx = make_setup(cfg)
            except Exception:
                continue  # infeasible density; criterion targets valid clusters
            h = sample_channels(topo, stream(cfg.seed, 0, CHANNEL, 0), 1)
            bundle = EstimationBundle(ctx, h, stream(cfg.seed, 0, PILOT_NOISE, 0))
            for k in range(cfg.num_ues):
                for scheme in ("MR", "LP-MMSE"):
                    assert measured_counts(scheme, k, ctx, bundle.hhat[0]) == \
                        multiplication_count(scheme, k, assignment, cfg)
                for scheme in ("MMSE", "P-MMSE"):
                    assert measured_counts(scheme, k, ctx, bundle.hhat[0]) == \
                        multiplication_count(scheme, k, assignment, cfg)
            # fronthaul: exact Table-scheme values
            N = cfg.antennas_per_ap
            central = fronthaul_load("centralized", assignment, cfg)
            assert np.all(central == np.array([
                cfg.pilot_len * N, cfg.ul_data_len * N, cfg.dl_data_len * N
            ]))
            sizes = assignment.cluster_sizes()
            dist = fronthaul_load("distributed", assignment, cfg)
            assert np.all(dist[:, 0] == 0)
            assert np.all(dist[:, 1] == cfg.ul_data_len * sizes)
            assert np.all(dist[:, 2] == cfg.dl_data_len * sizes)


def test_criterion_9_byte_identical_determinism(tmp_path):
    with criterion("9 byte-identical outputs across reruns and thread counts"):
        for mode, schemes in (("distributed", ("MR", "LP-MMSE")),
                              ("centralized", ("MMSE", "P-MMSE"))):
            cfg = make_cfg(
                num_aps=10, num_ues=8, antennas_per_ap=2, pilot_len=4,
                area_side_km=0.5, num_setups=2, num_realizations=96,
                ul_data_len=95, dl_data_len=95, genie_dl=True,
                mode=mode, schemes=schemes, seed=7,
            )
            trees = {}
            for label, threads in (("a", 1), ("b", 1), ("c", 4)):
                out = tmp_path / f"{mode}-{label}"
                emit_results(run_campaign(cfg, threads=threads), out)
                trees[label] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            assert trees["a"] == trees["b"], "rerun changed bytes"
            assert trees["a"] == trees["c"], "thread count changed bytes"
