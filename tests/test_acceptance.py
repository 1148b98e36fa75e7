"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with plain `pytest`; the per-criterion lines bypass output capture so
they are visible either way.  Every tolerance is fixed here, not tuned at
run time: simulation agreement bands are 4 standard errors, closed-form
equivalences use absolute tolerances stated inline, and the two
runtime-bounded criteria assert their wall-clock budgets.
"""

import math
import time

import numpy as np
import pytest

from layered_aloha import (
    baseline_aloha_max,
    baseline_irsa,
    capture_prob_exact,
    capture_prob_lower_bound,
    design_config,
    estimate_outage,
    estimate_throughput,
    eta,
    optimize_arrivals,
    optimize_rates,
    outage,
    psi_series,
    sla_lower_bound,
    throughput,
)
from test_outage import finite_form_psi


@pytest.fixture
def report(capsys):
    def _report(criterion, ok, detail):
        with capsys.disabled():
            print(f"criterion {criterion:>2} {'PASS' if ok else 'FAIL'} - {detail}")
    return _report


def test_criterion_01_single_layer_exactness(report):
    cfg = design_config(1, 10, 10.0, 1.0, 2.0)
    analytic = throughput(cfg).total_throughput
    assert analytic == pytest.approx(2.231301601484298, rel=1e-12)
    t0 = time.perf_counter()
    est = estimate_throughput(cfg, 100_000, 101, workers=4)
    elapsed = time.perf_counter() - t0
    diff = abs(est.total.value - analytic)
    ok = diff <= 4.0 * est.total.stderr and elapsed < 10.0
    report(1, ok,
           f"one-layer exactness: |sim-analytic|={diff:.4g} <= 4se={4 * est.total.stderr:.4g},"
           f" runtime {elapsed:.1f}s < 10s")
    assert diff <= 4.0 * est.total.stderr
    assert elapsed < 10.0


def test_criterion_02_first_layer_agreement(report):
    gamma = 10.0 ** 0.3
    oks, details = [], []
    for arrival in (2.0, 6.0, 10.0):
        base = design_config(3, 10, arrival, 0.0, gamma)
        cfg = base.with_rates(optimize_rates(base).optimal_rates)
        est = estimate_throughput(cfg, 100_000, 202, workers=4)
        layer1 = cfg.rates[0] * eta(1, cfg, capture_prob_exact(1, cfg))
        diff = abs(est.per_layer[0].value - layer1)
        oks.append(diff <= 4.0 * est.per_layer[0].stderr)
        gaps = []
        for l in (2, 3):
            clear = math.prod(
                (1.0 + capture_prob_exact(m, cfg) * arrival / 10) * math.exp(-arrival / 10)
                for m in range(1, l)
            )
            pred = cfg.rates[l - 1] * clear * eta(l, cfg, capture_prob_exact(l, cfg))
            gaps.append(pred - est.per_layer[l - 1].value)
        details.append(
            f"lam={arrival:g}: layer1 |diff|={diff:.4g} (4se={4 * est.per_layer[0].stderr:.4g}),"
            f" layer2/3 analytic-sim gaps={gaps[0]:+.3f}/{gaps[1]:+.3f}"
        )
    report(2, all(oks), "first-layer agreement; " + "; ".join(details))
    assert all(oks)


def _random_crrd(rng):
    L = int(rng.integers(1, 5))
    N = int(rng.choice([10, 60]))
    B = int(rng.integers(1, 9))
    return design_config(
        num_layers=L,
        num_channels=N,
        arrival_rate=rng.uniform(0.1, 20.0, size=L),
        rate=rng.uniform(0.1, 4.0, size=L),
        gamma=float(rng.uniform(0.5, 20.0)),
        repetition=B,
    )


def test_criterion_03_closed_form_vs_series(report):
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    while checked < 200:
        cfg = _random_crrd(rng)
        for l in range(1, cfg.num_layers + 1):
            worst = max(worst, abs(psi_series(l, cfg) - finite_form_psi(l, cfg)))
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    report(3, ok, f"finite form vs series oracle over 200 configs:"
                  f" max|diff|={worst:.3g} < 1e-10, runtime {elapsed:.2f}s < 5s")
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_04_jensen_bound(report):
    rng = np.random.default_rng(404)
    worst_gap = 0.0
    worst_top = 0.0
    for _ in range(1000):
        L = int(rng.integers(1, 7))
        cfg = design_config(
            num_layers=L,
            num_channels=int(rng.integers(1, 64)),
            arrival_rate=rng.uniform(0.0, 20.0, size=L),
            rate=rng.uniform(0.0, 6.0, size=L),
            gamma=float(rng.uniform(0.2, 30.0)),
            channel_gain_mean=float(rng.uniform(0.3, 3.0)),
            noise_power=float(rng.uniform(0.3, 3.0)),
        )
        for l in range(1, L + 1):
            gap = capture_prob_lower_bound(l, cfg) - capture_prob_exact(l, cfg)
            worst_gap = max(worst_gap, gap)  # positive would violate the bound
        worst_top = max(
            worst_top,
            abs(capture_prob_lower_bound(L, cfg) - capture_prob_exact(L, cfg)),
        )
    # at the top layer both sides are the same quantity evaluated through
    # different operation orders, so the comparison inherits the 1e-12
    # equality tolerance; any genuine bound violation would be macroscopic
    ok = worst_gap <= 1e-12 and worst_top < 1e-12
    report(4, ok, f"capture bound <= exact on 1000 configs (worst excess "
                  f"{worst_gap:.3g} <= 1e-12); top-layer equality to {worst_top:.3g} < 1e-12")
    assert worst_gap <= 1e-12
    assert worst_top < 1e-12


def test_criterion_05_rate_optimizer_dominance(report):
    gamma = 10.0 ** 0.3
    cfg3 = design_config(3, 10, 10.0, 0.0, gamma)
    plan = optimize_rates(cfg3)
    uniform_best = max(
        throughput(cfg3.with_rates([0.1 * k] * 3)).total_throughput
        for k in range(1, 61)
    )
    dominates = plan.achieved_throughput >= uniform_best - 1e-12

    cfg2 = design_config(2, 10, 10.0, 0.0, gamma)
    plan2 = optimize_rates(cfg2)
    r = np.linspace(0.0, 8.0, 4001)
    nu = 2.0 ** r - 1.0
    p1, p2 = cfg2.powers
    phi1 = np.exp(-nu / p1 - nu * p2 / (p1 + nu * p2))
    eta1 = phi1 * 10.0 * math.exp(-1.0)
    rho1 = (1.0 + phi1) * math.exp(-1.0)
    phi2 = np.exp(-nu / p2)
    eta2 = phi2 * 10.0 * math.exp(-1.0)
    grid_best = float(((r * eta1)[:, None] + rho1[:, None] * (r * eta2)[None, :]).max())
    grid_gap = abs(plan2.achieved_throughput - grid_best)
    ok = dominates and plan2.achieved_throughput >= grid_best - 1e-12 and grid_gap <= 1e-3
    report(5, ok, f"recursive optimum {plan.achieved_throughput:.6f} >= best uniform "
                  f"{uniform_best:.6f}; two-layer vs 2-D grid gap {grid_gap:.2e} <= 1e-3")
    assert dominates
    assert plan2.achieved_throughput >= grid_best - 1e-12
    assert grid_gap <= 1e-3


def test_criterion_06_throughput_monotonicity(report):
    values = []
    for gamma_db in (0.0, 3.0, 6.0, 10.0):
        base = design_config(3, 10, 10.0, 0.0, 10.0 ** (gamma_db / 10.0))
        values.append(optimize_rates(base).achieved_throughput)
    strictly_up = all(a < b for a, b in zip(values, values[1:]))

    by_layers = []
    for L in range(1, 7):
        base = design_config(L, 10, 5.0, 0.0, 10.0 ** 0.3)
        by_layers.append(optimize_rates(base).achieved_throughput)
    nondecreasing = all(a <= b for a, b in zip(by_layers, by_layers[1:]))
    saturating = (by_layers[5] - by_layers[4]) < (by_layers[1] - by_layers[0])
    ok = strictly_up and nondecreasing and saturating
    report(6, ok,
           f"T strictly up in target SINR {['%.3f' % v for v in values]}; "
           f"T vs layers {['%.3f' % v for v in by_layers]} non-decreasing with "
           f"increment(5->6)={by_layers[5] - by_layers[4]:.3f} < "
           f"increment(1->2)={by_layers[1] - by_layers[0]:.3f}")
    assert strictly_up
    assert nondecreasing
    assert saturating


def test_criterion_07_interior_optimum_in_copies(report):
    copies = range(1, 13)
    analytic = []
    simulated = []
    gaps = []
    for b in copies:
        cfg = design_config(3, 60, 3.0, 1.0, 10.0, repetition=b)
        analytic.append(outage(cfg).outage[0])
        est = estimate_outage(cfg, 100_000, 700 + b, workers=4)
        simulated.append(est.per_layer[0].value)
        gaps.append(simulated[-1] - analytic[-1])
    a_best = analytic.index(min(analytic))
    s_best = simulated.index(min(simulated))
    ok = 0 < a_best < 11 and 0 < s_best < 11
    gap_text = " ".join(f"{g:+.4f}" for g in gaps)
    report(7, ok,
           f"first-layer outage vs copies: analytic argmin B={a_best + 1}, "
           f"simulated argmin B={s_best + 1}, both interior; sim-analytic gaps per B: {gap_text}")
    assert 0 < a_best < 11
    assert 0 < s_best < 11


def test_criterion_08_outage_layer_ordering(report):
    cases = [
        dict(repetition=4, rate=1.0, arrival=3.0),
        dict(repetition=6, rate=1.0, arrival=3.0),
        dict(repetition=4, rate=1.0, arrival=6.0),
    ]
    oks, details = [], []
    for i, c in enumerate(cases):
        cfg = design_config(3, 60, c["arrival"], c["rate"], 10.0, repetition=c["repetition"])
        ana = outage(cfg).outage
        sim = [o.value for o in estimate_outage(cfg, 30_000, 808 + i, workers=4).per_layer]
        ana_ok = all(a <= b + 1e-15 for a, b in zip(ana, ana[1:]))
        sim_ok = all(a <= b for a, b in zip(sim, sim[1:]))
        oks.append(ana_ok and sim_ok)
        details.append(
            f"B={c['repetition']},lam={c['arrival']:g}: analytic {['%.4f' % v for v in ana]},"
            f" simulated {['%.4f' % v for v in sim]}"
        )
    report(8, all(oks), "outage non-decreasing in layer; " + "; ".join(details))
    assert all(oks)


def test_criterion_09_outage_approximation_band(report):
    cfg = design_config(3, 60, 3.0, 1.0, 10.0, repetition=4)
    psi1 = outage(cfg).psi[0]
    est = estimate_outage(cfg, 100_000, 909, workers=4)
    sim = est.per_layer[0].value
    ratio = sim / psi1
    ok = 0.5 <= ratio <= 2.0
    report(9, ok, f"four-copy outage: simulated P_out,1={sim:.5f} vs analytic "
                  f"Psi_1={psi1:.5f}, ratio {ratio:.3f} within [0.5, 2]")
    assert 0.5 <= ratio <= 2.0


def test_criterion_10_packet_bound_comparison(report):
    gamma = 10.0
    values = []
    taus = {}
    for L in range(1, 9):
        plan = optimize_arrivals(L, 10, 1.0, gamma)
        values.append(plan.value)
        taus[L] = plan.optimal_tau
    strictly_up = all(a < b for a, b in zip(values, values[1:]))
    beats_aloha = all(v > baseline_aloha_max(10) for v in values[1:])
    beats_irsa_at = next((L for L, v in enumerate(values, start=1)
                          if v > baseline_irsa(10)), None)
    doubling = sla_lower_bound(20, taus[4], 1.0, gamma) / sla_lower_bound(10, taus[4], 1.0, gamma)
    linear = abs(doubling - 2.0) < 1e-12
    ok = strictly_up and beats_aloha and beats_irsa_at is not None and linear
    report(10, ok,
           f"decoded-packet bound strictly increasing over layers "
           f"{['%.2f' % v for v in values]}; above N/e from 2 layers; above the "
           f"repetition-ALOHA reference from {beats_irsa_at} layers; doubling the "
           f"channels doubles the bound (ratio-2 error {abs(doubling - 2.0):.1e})")
    assert strictly_up
    assert beats_aloha
    assert beats_irsa_at is not None and beats_irsa_at <= 8
    assert linear


def test_criterion_11_worker_determinism(report):
    gamma3 = 10.0 ** 0.3
    throughput_cfgs = [
        design_config(1, 10, 10.0, 1.0, 2.0),  # criterion 1 system
        design_config(3, 10, 6.0, 0.0, gamma3).with_rates(
            optimize_rates(design_config(3, 10, 6.0, 0.0, gamma3)).optimal_rates
        ),  # criterion 2 system
    ]
    outage_cfgs = [
        design_config(3, 60, 3.0, 1.0, 10.0, repetition=4),  # criteria 8 and 9
        design_config(3, 60, 3.0, 1.0, 10.0, repetition=6),  # criterion 7 sweep point
    ]
    all_ok = True
    for cfg in throughput_cfgs:
        runs = [estimate_throughput(cfg, 100_000, 1111, workers=w) for w in (1, 4, 8)]
        all_ok &= runs[0] == runs[1] == runs[2]
    for cfg in outage_cfgs:
        runs = [estimate_outage(cfg, 100_000, 1212, workers=w) for w in (1, 4, 8)]
        all_ok &= runs[0] == runs[1] == runs[2]
    report(11, all_ok, "estimates bit-identical across 1/4/8 workers at 100000 slots "
                       "for the simulated criterion systems")
    assert all_ok
