"""Deployment runtime: continuous streaming around the simulators."""

from repro.runtime.serving import ModelServer, Session
from repro.runtime.streaming import (
    FrameSource,
    SceneSource,
    StreamingRuntime,
    StreamReport,
)

__all__ = [
    "FrameSource",
    "ModelServer",
    "SceneSource",
    "Session",
    "StreamingRuntime",
    "StreamReport",
]
