"""Reproduction of GS3 (Zhang & Arora, PODC 2002).

GS3 self-configures a dense multi-hop wireless sensor network into a
cellular hexagonal structure of cells with tightly bounded geographic
radius, and self-heals the structure locally under node joins, leaves,
deaths, movements, and state corruption.

Quickstart::

    from repro import GS3Config, Gs3Simulation, uniform_disk
    from repro.sim import RngStreams

    config = GS3Config(ideal_radius=100.0, radius_tolerance=25.0)
    deployment = uniform_disk(450.0, 2500, RngStreams(1))
    sim = Gs3Simulation.from_deployment(deployment, config, seed=1)
    sim.run_to_quiescence()
    snapshot = sim.snapshot()
    print(len(snapshot.heads), "cells configured")

Subpackages:

* ``repro.geometry``  — vectors, hex lattice, search regions, <ICC, ICP>
* ``repro.sim``       — discrete-event engine, RNG streams, tracing
* ``repro.net``       — nodes, radio, channel reservation, deployments
* ``repro.core``      — the GS3-S / GS3-D / GS3-M protocols + oracles
* ``repro.perturb``   — perturbation events, injector, workloads
* ``repro.baselines`` — LEACH and hop-radius clustering comparators
* ``repro.analysis``  — quality metrics, theory curves, text plotting
* ``repro.routing``   — routing / convergecast services over the structure
* ``repro.scenario``  — declarative JSON experiment runner
"""

from .core import (
    GS3Config,
    MultiBigSimulation,
    Gs3DynamicNode,
    Gs3DynamicSimulation,
    Gs3MobileNode,
    Gs3Simulation,
    Gs3StaticNode,
    NodeStatus,
    StructureSnapshot,
    check_static_fixpoint,
    check_static_invariant,
)
from .geometry import Vec2
from .net import (
    Deployment,
    EnergyConfig,
    Network,
    carve_gaps,
    grid_jitter,
    poisson_disk,
    uniform_disk,
)

__version__ = "0.3.0"

__all__ = [
    "GS3Config",
    "MultiBigSimulation",
    "Gs3DynamicNode",
    "Gs3DynamicSimulation",
    "Gs3MobileNode",
    "Gs3Simulation",
    "Gs3StaticNode",
    "NodeStatus",
    "StructureSnapshot",
    "check_static_fixpoint",
    "check_static_invariant",
    "Vec2",
    "Deployment",
    "EnergyConfig",
    "Network",
    "carve_gaps",
    "grid_jitter",
    "poisson_disk",
    "uniform_disk",
    "__version__",
]
