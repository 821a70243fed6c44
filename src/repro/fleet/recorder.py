"""The fleet's name for the one online recorder
(:class:`repro.metrics.recorder.Recorder`): one row per aggregate of the
shard, in front of the shard's shared demux."""

# Named by the frozen benchmarks/suite/spans.py (getattr on this module).
from repro.metrics.recorder import Recorder as FleetRecorder

__all__ = ["FleetRecorder"]
