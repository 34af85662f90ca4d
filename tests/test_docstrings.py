"""Documentation contract: the public serve + shard + core solver APIs are documented.

The CI docs job runs this module (alongside the markdown link check) so the
documentation site in ``docs/`` cannot silently rot: every public module,
class, function, method, and property of the serving layer, the sharding
subsystem, the unified solver backend layer, and the LEAST solver family
must carry a docstring, and the solver config dataclasses must describe
every field they expose.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

import repro.core.backend as backend
import repro.core.least as least
import repro.core.least_sparse as least_sparse
import repro.obs as obs
import repro.obs.metrics as obs_metrics
import repro.obs.sinks as obs_sinks
import repro.obs.tracing as obs_tracing
import repro.serve as serve
import repro.serve.cache as serve_cache
import repro.serve.cli as serve_cli
import repro.serve.daemon as serve_daemon
import repro.serve.job as serve_job
import repro.serve.pool as serve_pool
import repro.serve.scheduler as serve_scheduler
import repro.serve.streaming as serve_streaming
import repro.serve.warm_start as serve_warm_start
import repro.shard as shard
import repro.shard.executor as shard_executor
import repro.shard.planner as shard_planner
import repro.shard.stitcher as shard_stitcher

MODULES = [
    serve,
    serve_cache,
    serve_cli,
    serve_daemon,
    serve_job,
    serve_pool,
    serve_scheduler,
    serve_streaming,
    serve_warm_start,
    shard,
    shard_executor,
    shard_planner,
    shard_stitcher,
    backend,
    least,
    least_sparse,
    obs,
    obs_metrics,
    obs_sinks,
    obs_tracing,
]

CONFIG_CLASSES = [least.LEASTConfig, least_sparse.SparseLEASTConfig]


def _public_members(module):
    """(name, object) pairs of the module's public API (``__all__`` first)."""
    names = list(getattr(module, "__all__", None) or [])
    if not names:
        names = [name for name in dir(module) if not name.startswith("_")]
    return [(name, getattr(module, name)) for name in names]


def _documented(obj) -> bool:
    doc = inspect.getdoc(obj)
    return bool(doc and doc.strip())


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert _documented(module), f"module {module.__name__} has no docstring"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_members_have_docstrings(module):
    missing = []
    for name, member in _public_members(module):
        if inspect.ismodule(member):
            continue
        if not (inspect.isclass(member) or callable(member)):
            continue  # data constants (e.g. PREEMPT_POLICIES) document themselves
        if not _documented(member):
            missing.append(f"{module.__name__}.{name}")
    assert not missing, f"undocumented public members: {missing}"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_methods_and_properties_have_docstrings(module):
    missing = []
    for name, member in _public_members(module):
        if not inspect.isclass(member):
            continue
        for attr_name, attr in vars(member).items():
            if attr_name.startswith("_"):
                continue
            if isinstance(attr, property):
                target = attr.fget
            elif isinstance(attr, (staticmethod, classmethod)):
                target = attr.__func__
            elif inspect.isfunction(attr):
                target = attr
            else:
                continue  # dataclass fields and plain class attributes
            if not _documented(target):
                missing.append(f"{module.__name__}.{name}.{attr_name}")
    assert not missing, f"undocumented public methods/properties: {missing}"


@pytest.mark.parametrize(
    "config_class", CONFIG_CLASSES, ids=lambda c: c.__name__
)
def test_solver_configs_document_every_field(config_class):
    """Every tunable of a solver config appears in its class docstring."""
    doc = inspect.getdoc(config_class) or ""
    missing = [
        field.name
        for field in dataclasses.fields(config_class)
        if field.name not in doc
    ]
    assert not missing, (
        f"{config_class.__name__} docstring does not mention fields: {missing}"
    )


@pytest.mark.parametrize("package", [serve, shard, obs], ids=lambda m: m.__name__)
def test_package_reexports_are_documented(package):
    """Everything importable from the package is documented at the source."""
    missing = [
        name
        for name in package.__all__
        if (
            inspect.isclass(getattr(package, name))
            or callable(getattr(package, name))
        )
        and not _documented(getattr(package, name))
    ]
    assert not missing, f"undocumented {package.__name__} exports: {missing}"
