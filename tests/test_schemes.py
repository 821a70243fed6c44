"""Tests for the scheme factory and its paper-default sizing."""

import pytest

from repro.core.bcpqp import BCPQP
from repro.core.pqp import PQP
from repro.core.sizing import bdp_bucket, reno_min_phantom_buffer
from repro.limiters.fair_policer import FairPolicer
from repro.limiters.shaper import Shaper
from repro.limiters.token_bucket import TokenBucketPolicer
from repro.schemes import SCHEMES, make_limiter
from repro.sim.simulator import Simulator
from repro.units import mbps, ms


def build(scheme, **kwargs):
    sim = Simulator()
    defaults = dict(rate=mbps(10), num_queues=4, max_rtt=ms(50))
    defaults.update(kwargs)
    return make_limiter(sim, scheme, **defaults)


class TestFactory:
    def test_all_schemes_build(self):
        types = {
            "shaper": Shaper,
            "shaper-fifo": Shaper,
            "policer": TokenBucketPolicer,
            "policer+": TokenBucketPolicer,
            "fairpolicer": FairPolicer,
            "pqp": PQP,
            "bcpqp": BCPQP,
        }
        for scheme in SCHEMES:
            limiter = build(scheme)
            assert isinstance(limiter, types[scheme])
            assert limiter.name == scheme

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            build("magic")

    def test_policer_bucket_is_bdp(self):
        p = build("policer")
        assert p.bucket_bytes == pytest.approx(bdp_bucket(mbps(10), ms(50)))

    def test_policer_plus_bucket_larger_than_bdp(self):
        assert build("policer+").bucket_bytes > build("policer").bucket_bytes

    def test_pqp_sized_for_reno(self):
        p = build("pqp")
        assert p.queues.capacity(0) == pytest.approx(
            reno_min_phantom_buffer(mbps(10), ms(50)))

    def test_bcpqp_oversized_with_headroom(self):
        bc = build("bcpqp")
        assert bc.queues.capacity(0) == pytest.approx(
            10 * reno_min_phantom_buffer(mbps(10), ms(50)))
        assert bc.theta_plus == 1.5
        assert bc.theta_minus == 0.5
        assert bc.period == pytest.approx(0.1)

    def test_queue_bytes_override(self):
        p = build("pqp", queue_bytes=12_345.0)
        assert p.queues.capacity(0) == 12_345.0

    def test_weights_build_weighted_policy(self):
        bc = build("bcpqp", weights=[1, 2, 3, 4])
        rates = bc.queues.policy.fluid_rates([True] * 4, 100.0)
        assert rates == pytest.approx([10, 20, 30, 40])

    def test_fifo_shaper_single_queue(self):
        s = build("shaper-fifo")
        assert s.num_queues == 1

    def test_tiny_bdp_gets_floor(self):
        p = build("policer", rate=mbps(0.1), max_rtt=ms(2))
        assert p.bucket_bytes >= 3000

    def test_validation(self):
        with pytest.raises(ValueError):
            build("policer", rate=0)
        with pytest.raises(ValueError):
            build("policer", max_rtt=0)

    def test_phantom_service_selection(self):
        assert build("pqp").queues.service == "fluid"
        for scheme in ("pqp", "bcpqp"):
            for service in ("fluid", "fluid-ref"):
                limiter = build(scheme, phantom_service=service)
                assert limiter.queues.service == service
            with pytest.raises(ValueError) as excinfo:
                build(scheme, phantom_service="quantum")
            message = str(excinfo.value)
            assert "'quantum'" in message
            assert "('fluid', 'fluid-ref')" in message

    def test_custom_policy_passthrough(self):
        from repro.policy.tree import Policy
        policy = Policy.prioritized([0, 0, 1, 1])
        bc = build("bcpqp", policy=policy)
        rates = bc.queues.policy.fluid_rates([True] * 4, 100.0)
        assert rates[2] == rates[3] == 0.0

    def test_bcpqp_threshold_passthrough(self):
        bc = build("bcpqp", theta_plus=2.0, theta_minus=0.25, period=0.05)
        assert bc.theta_plus == 2.0
        assert bc.theta_minus == 0.25
        assert bc.period == 0.05
