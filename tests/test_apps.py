"""Tests for the video and web application models."""

import random

import pytest

from repro.cc.endpoint import FlowDemux
from repro.net.trace import Trace
from repro.schemes import make_limiter
from repro.sim.simulator import Simulator
from repro.units import mbps, ms
from repro.workload.video import VideoConfig, VideoSession
from repro.workload.web import WebConfig, WebSession


def make_path(sim, *, rate=mbps(10), scheme="bcpqp", num_queues=1):
    limiter = make_limiter(sim, scheme, rate=rate, num_queues=num_queues,
                           max_rtt=ms(50))
    demux = FlowDemux()
    trace = Trace(sim, demux)
    limiter.connect(trace)
    return limiter, demux, trace


class TestVideoSession:
    def test_fetches_chunks_and_plays(self):
        sim = Simulator()
        limiter, demux, _ = make_path(sim)
        video = VideoSession(
            sim, ingress=limiter, demux=demux,
            config=VideoConfig(total_chunks=10, rtt=ms(30)))
        sim.run(until=120.0)
        assert video.done
        assert video.stats.chunks_fetched == 10
        assert len(video.stats.quality_history) == 10
        assert len(video.stats.fetch_times) == 10

    def test_high_bandwidth_reaches_top_quality(self):
        sim = Simulator()
        limiter, demux, _ = make_path(sim, rate=mbps(50))
        cfg = VideoConfig(total_chunks=20, rtt=ms(20))
        video = VideoSession(sim, ingress=limiter, demux=demux, config=cfg)
        sim.run(until=200.0)
        assert video.done
        # Once the buffer builds, the client should pick the top rung.
        assert max(video.stats.quality_history) == len(cfg.ladder_mbps) - 1
        assert video.stats.rebuffer_seconds < 1.0

    def test_starved_stream_stays_low_quality(self):
        sim = Simulator()
        limiter, demux, _ = make_path(sim, rate=mbps(0.5))
        cfg = VideoConfig(total_chunks=6, rtt=ms(20))
        video = VideoSession(sim, ingress=limiter, demux=demux, config=cfg)
        sim.run(until=300.0)
        assert video.stats.average_quality() <= 1.0

    def test_buffer_capped(self):
        sim = Simulator()
        limiter, demux, _ = make_path(sim, rate=mbps(50))
        cfg = VideoConfig(total_chunks=None, rtt=ms(20))
        video = VideoSession(sim, ingress=limiter, demux=demux, config=cfg)
        sim.run(until=60.0)
        assert video.buffer_seconds <= cfg.max_buffer_seconds + cfg.chunk_seconds

    def test_average_bitrate(self):
        sim = Simulator()
        limiter, demux, _ = make_path(sim, rate=mbps(20))
        cfg = VideoConfig(total_chunks=5, rtt=ms(20))
        video = VideoSession(sim, ingress=limiter, demux=demux, config=cfg)
        sim.run(until=120.0)
        avg = video.stats.average_bitrate(cfg.ladder_mbps)
        assert cfg.ladder_mbps[0] <= avg <= cfg.ladder_mbps[-1]


class TestWebSession:
    def test_pages_complete_in_order(self):
        sim = Simulator()
        limiter, demux, _ = make_path(sim, rate=mbps(20))
        web = WebSession(sim, ingress=limiter, demux=demux,
                         rng=random.Random(1),
                         config=WebConfig(pages=5, rtt=ms(20)))
        sim.run(until=300.0)
        assert web.done
        assert [p.index for p in web.stats.pages] == list(range(5))
        for p in web.stats.pages:
            assert p.plt > 0
            assert p.objects >= 1
            assert p.total_bytes > 0

    def test_plts_shorter_on_faster_link(self):
        def run(rate):
            sim = Simulator()
            limiter, demux, _ = make_path(sim, rate=rate)
            web = WebSession(sim, ingress=limiter, demux=demux,
                             rng=random.Random(2),
                             config=WebConfig(pages=8, rtt=ms(20),
                                              think_time_mean=0.1))
            sim.run(until=600.0)
            plts = web.stats.plts()
            return sum(plts) / len(plts)

        assert run(mbps(20)) < run(mbps(1.5))

    def test_deterministic_with_seed(self):
        def run():
            sim = Simulator()
            limiter, demux, _ = make_path(sim, rate=mbps(5))
            web = WebSession(sim, ingress=limiter, demux=demux,
                             rng=random.Random(3),
                             config=WebConfig(pages=4, rtt=ms(20)))
            sim.run(until=300.0)
            return web.stats.plts()

        assert run() == pytest.approx(run())
