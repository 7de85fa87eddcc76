import math

import numpy as np
import pytest

from photonloop import Coherent, Fock, LoopConfig, LossyFock, MultiThermal, Thermal, analytic
from photonloop.errors import DivergentLoop, NonConvergence, UnsupportedSource


def passive(R=0.5, eta=0.9, nu=0.0, **kw):
    return LoopConfig(mode="passive", R=R, eta=eta, nu=nu, **kw)


def active(R=0.5, eta=0.9, nu=0.0, **kw):
    return LoopConfig(mode="active", R=R, eta=eta, nu=nu, **kw)


# direct transcriptions of the six closed-form expressions, used as an
# independent cross-check of the q_j-based implementation
def _closed_reference(mode, R, eta, nu, state, nbar, j):
    if mode == "active":
        x = (1 - R) / R * (R * eta) ** j
        if state == "fock":
            return 1 - (1 - nu) * (1 - x) ** nbar
        if state == "coherent":
            return 1 - (1 - nu) * math.exp(-x * nbar)
        return 1 - (1 - nu) * R / (R + (1 - R) * (R * eta) ** j * nbar)
    if state == "fock":
        if j == 1:
            return 1 - (1 - nu) * (1 - R) ** nbar
        return 1 - (1 - nu) * (1 - (1 - R) ** 2 / R * (R * eta) ** (j - 1)) ** nbar
    if state == "coherent":
        if j == 1:
            return 1 - (1 - nu) * math.exp(-R * nbar)
        return 1 - (1 - nu) * math.exp(-((1 - R) ** 2) / R * (eta * R) ** (j - 1) * nbar)
    if j == 1:
        return 1 - (1 - nu) / (1 + R * nbar)
    return 1 - (1 - nu) * R**2 * eta / (R**2 * eta + (1 - R) ** 2 * (R * eta) ** j * nbar)


class TestProbBinGivenN:
    def test_passive_second_bin_single_photon(self):
        # (R*eta) * (1-R)^2 / R = 0.45 * 0.25 / 0.5
        assert analytic.prob_bin_given_n(passive(), 2, 1) == pytest.approx(0.225, abs=1e-12)

    def test_vacuum_never_clicks(self):
        for cfg in (passive(), active(0.3, 0.7)):
            for j in (1, 2, 9):
                assert analytic.prob_bin_given_n(cfg, j, 0) == 0.0

    def test_active_first_bin(self):
        assert analytic.prob_bin_given_n(active(R=0.1, eta=1.0), 1, 1) == pytest.approx(0.9)

    @pytest.mark.parametrize("n", [0, 3])
    def test_certain_exit(self, n):
        """A bin that takes every photon (passive R = 1, bin 1) clicks whenever one comes."""
        assert analytic.prob_bin_given_n(passive(R=1.0), 1, n) == (0.0 if n == 0 else 1.0)

    def test_single_photon_routing_matches_monte_carlo(self):
        # empirical frequency of bin 2 when one photon is routed repeatedly
        cfg = passive()
        rng = np.random.default_rng(5)
        m = 200_000
        counts = rng.multinomial(1, np.append(analytic.bin_exit_probs(cfg), 0.0), size=m)
        freq = counts[:, 1].mean()
        sigma = math.sqrt(0.225 * 0.775 / m)
        assert abs(freq - 0.225) < 4 * sigma


class TestClickProbClosed:
    def test_coherent_first_bin_passive(self):
        got = analytic.click_prob_closed(passive(), Coherent(3.0), 1)
        assert got == pytest.approx(0.77687, abs=5e-6)
        assert got == pytest.approx(1 - math.exp(-0.5 * 3.0), abs=1e-15)

    def test_thermal_first_bin_passive(self):
        got = analytic.click_prob_closed(passive(), Thermal(3.0), 1)
        assert got == pytest.approx(0.6, abs=1e-12)

    @pytest.mark.parametrize("make", [passive, active])
    @pytest.mark.parametrize("source", [Fock(0), Coherent(0.0), Thermal(0.0)])
    def test_vacuum_leaves_only_dark_counts(self, make, source):
        cfg = make(nu=1e-3)
        for j in (1, 2, 5):
            assert analytic.click_prob_closed(cfg, source, j) == pytest.approx(1e-3)

    @pytest.mark.parametrize("source", [MultiThermal(3.0, 1.8), LossyFock(1, 0.2)])
    def test_unsupported_sources_rejected(self, source):
        with pytest.raises(UnsupportedSource):
            analytic.click_prob_closed(passive(), source, 1)

    @pytest.mark.parametrize("mode", ["active", "passive"])
    @pytest.mark.parametrize("state", ["fock", "coherent", "thermal"])
    def test_matches_direct_transcription(self, mode, state):
        R, eta, nu = 0.37, 0.83, 2e-4
        cfg = LoopConfig(mode=mode, R=R, eta=eta, nu=nu)
        nbar = 4
        source = {"fock": Fock(nbar), "coherent": Coherent(nbar), "thermal": Thermal(nbar)}[state]
        for j in range(1, 12):
            ref = _closed_reference(mode, R, eta, nu, state, nbar, j)
            assert analytic.click_prob_closed(cfg, source, j) == pytest.approx(ref, abs=1e-14)


class TestClickProbNumeric:
    def test_lossy_fock_single_photon(self):
        got = analytic.click_prob_numeric(passive(), LossyFock(1, 0.2), 1)
        assert got == pytest.approx(0.1, abs=1e-12)

    def test_multithermal_single_mode_reduces_to_thermal(self):
        got = analytic.click_prob_numeric(passive(), MultiThermal(3.0, 1.0), 1)
        ref = analytic.click_prob_closed(passive(), Thermal(3.0), 1)
        assert got == pytest.approx(ref, abs=1e-9)

    def test_matches_closed_form_within_tail_tol(self):
        cfg = passive(nu=1e-3)
        for source in (Fock(7), Coherent(2.5), Thermal(2.5)):
            for j in (1, 2, 6):
                closed = analytic.click_prob_closed(cfg, source, j)
                numeric = analytic.click_prob_numeric(cfg, source, j, tail_tol=1e-12)
                assert abs(closed - numeric) < 1e-11

    def test_term_cap_enforced(self):
        with pytest.raises(NonConvergence):
            analytic.click_prob_numeric(passive(), Coherent(1e6), 1, max_terms=1000)

    def test_bright_coherent_in_log_space(self):
        # deep saturation: limited only by pmf precision at this mean
        got = analytic.click_prob_numeric(passive(), Coherent(2.5e5), 1, tail_tol=1e-12)
        assert got == pytest.approx(1.0, abs=1e-8)


class TestPhotonFlows:
    def test_first_bin_mean_photons(self):
        cfg = passive(R=0.91370, eta=0.8615)
        assert analytic.mean_photons_per_bin(cfg, 100.0, 1) == pytest.approx(91.37)

    def test_zero_input(self):
        for j in (1, 2, 40):
            assert analytic.mean_photons_per_bin(passive(), 0.0, j) == 0.0

    @pytest.mark.parametrize("make", [active, passive])
    def test_lossless_loop_conserves_energy(self, make):
        cfg = make(R=0.5, eta=1.0)
        assert analytic.total_output_photons(cfg, 10.0) == pytest.approx(10.0, rel=1e-12)
        # per-bin sum reaches the total
        total = sum(analytic.mean_photons_per_bin(cfg, 10.0, j) for j in range(1, 2000))
        assert total == pytest.approx(10.0, rel=1e-9)

    def test_total_matches_geometric_sum(self):
        cfg = passive(R=0.91370, eta=0.8615)
        nbar_in = 251_000.0
        series = nbar_in * analytic.bin_exit_probs(cfg, n_bins=10_000).sum()
        assert analytic.total_output_photons(cfg, nbar_in) == pytest.approx(series, rel=1e-6)

    def test_exit_probs_sum_to_output_fraction(self):
        for cfg in (passive(0.3, 0.95), active(0.7, 0.6), passive(0.91370, 0.8615)):
            n = 1000
            partial = analytic.bin_exit_probs(cfg, n_bins=n).sum()
            tail = analytic.bin_exit_prob(cfg, n + 1) / (1.0 - cfg.R * cfg.eta)
            assert partial + tail == pytest.approx(analytic.output_fraction(cfg), abs=1e-12)
            assert analytic.output_fraction(cfg) <= 1.0 + 1e-12

    @pytest.mark.parametrize("R", [0.0, 1.0])
    @pytest.mark.parametrize("eta", [0.0, 1.0])
    @pytest.mark.parametrize("make", [active, passive])
    def test_vector_matches_scalar_at_edges(self, make, R, eta):
        cfg = make(R=R, eta=eta)
        q = analytic.bin_exit_probs(cfg, n_bins=6)
        assert q.tolist() == [analytic.bin_exit_prob(cfg, j) for j in range(1, 7)]

    def test_divergent_loop_rejected(self):
        with pytest.raises(DivergentLoop):
            analytic.total_output_photons(passive(R=1.0, eta=1.0), 1.0)


class TestInvertTotalOutput:
    @pytest.mark.parametrize("x", [1.0, 1e3, 2.5e5])
    @pytest.mark.parametrize("make", [active, passive])
    def test_round_trip(self, make, x):
        cfg = make(R=0.4, eta=0.85)
        got = analytic.invert_total_output(cfg, analytic.total_output_photons(cfg, x))
        assert got == pytest.approx(x, rel=1e-12)

    def test_lossless_identity(self):
        assert analytic.invert_total_output(passive(R=0.5, eta=1.0), 10.0) == pytest.approx(10.0)

    def test_active_inverse_closed_form(self):
        cfg = active(R=0.3, eta=0.8)
        y = 17.0
        expected = y * (1 - cfg.R * cfg.eta) / ((1 - cfg.R) * cfg.eta)
        assert analytic.invert_total_output(cfg, y) == pytest.approx(expected, rel=1e-12)


class TestArgumentChecks:
    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: analytic.bin_exit_prob(passive(), 0), "j must be >= 1"),
            (lambda: analytic.bin_exit_prob(passive(), np.array([1, 0, 2])), "j must be >= 1"),
            (lambda: analytic.prob_bin_given_n(passive(), 1, -1), "n must be >= 0"),
            (lambda: analytic.click_prob_numeric(passive(), Coherent(1.0), 1, tail_tol=0.0), "tail_tol must be"),
            (lambda: analytic.click_prob_numeric(passive(), Coherent(1.0), 1, tail_tol=-1e-12), "tail_tol must be"),
            (lambda: analytic.mean_photons_per_bin(passive(), -1.0, 1), "nbar_in must be non-negative"),
            (lambda: analytic.total_output_photons(passive(), -1.0), "nbar_in must be non-negative"),
            (lambda: analytic.invert_total_output(passive(), -1.0), "nbar_out must be non-negative"),
        ],
        ids=["j-0", "j-array", "n", "tail-tol-0", "tail-tol-negative", "per-bin", "total", "invert"],
    )
    def test_out_of_range_argument_raises(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    def test_no_output_needs_no_input(self):
        """Zero output inverts to zero input, also through a loop that delivers nothing."""
        assert analytic.invert_total_output(active(eta=0.0), 0.0) == 0.0


class TestClickProbabilityProperties:
    GRID = [
        (mode, R, eta, nu)
        for mode in ("active", "passive")
        for R in (0.1, 0.5, 0.9)
        for eta in (0.5, 0.9)
        for nu in (0.0, 1e-3)
    ]

    def test_bounds_and_noise_floor(self):
        for mode, R, eta, nu in self.GRID:
            cfg = LoopConfig(mode=mode, R=R, eta=eta, nu=nu)
            for source in (Fock(2), Coherent(3.0), Thermal(3.0)):
                for j in range(1, 15):
                    p = analytic.click_prob_closed(cfg, source, j)
                    assert nu - 1e-15 <= p <= 1.0

    def test_monotone_in_brightness(self):
        cfg = passive(nu=1e-3)
        for make in (Fock, lambda x: Coherent(x), lambda x: Thermal(x)):
            last = np.zeros(10)
            for nbar in (1, 3, 10, 30):
                cur = np.array(
                    [analytic.click_prob_closed(cfg, make(nbar), j) for j in range(1, 11)]
                )
                assert np.all(cur >= last - 1e-15)
                last = cur

    def test_state_ordering_fock_coherent_thermal(self):
        cfg = passive(nu=1e-3)
        for nbar in (0.1, 1.0, 3.0, 10.0):
            for j in range(1, 11):
                p_f = analytic.click_prob_closed(cfg, Fock(max(int(round(nbar)), 1)), j)
                p_c = analytic.click_prob_closed(cfg, Coherent(nbar), j)
                p_t = analytic.click_prob_closed(cfg, Thermal(nbar), j)
                if nbar >= 1:
                    assert p_f >= p_c - 1e-15
                assert p_c >= p_t - 1e-15

    def test_tail_decays_geometrically_with_loop_gain(self):
        cfg = passive(R=0.5, eta=0.9, nu=1e-3)
        source = Coherent(3.0)
        js = np.arange(15, 26)
        excess = np.array(
            [analytic.click_prob_closed(cfg, source, int(j)) - cfg.nu for j in js]
        )
        slope = np.polyfit(js, np.log(excess), 1)[0]
        assert abs(slope - math.log(0.45)) < 0.01 * abs(math.log(0.45))
