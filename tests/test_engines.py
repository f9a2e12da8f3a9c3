"""The engine registry and the N-way differential harness.

Every registered engine is held to the scalar reference engine, on every
benchmark app under every dynamic-parallelism variant and on fuzzed
MiniCUDA programs (plain kernels, and DP programs basic and consolidated
at each granularity). A timed engine (one that runs the timing model,
such as ``vectorized``) must reproduce the reference's ``RunMetrics``
field for field; an untimed one (the ``cpu`` interpreter) must reproduce
its functional counters. Every engine must produce the identical output
arrays — both run the canonical schedule, so even racy-but-benign
results (float atomic order, CAS winners) agree bitwise, and any
divergence is a semantics bug in one implementation, not noise.

The matrices are parametrized over :func:`repro.engines.available_engines`,
so a newly registered engine is tested without a new test. The harness's
helpers are in ``tests/helpers.py``; the plain-kernel fuzz property runs
in two halves on them, ``test_oracle.py::test_fuzzed_programs_match_scalar``
over the timed engines and ``test_backends.py::test_fuzzed_programs_match_sim``
over the untimed ones. Those two files also check the registry entries
that replaced their old registries (the exact oracles and the backends);
the registry contract shared by every entry is checked here.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.apps import BASIC, BLOCK, GRID, WARP, all_apps, get_app
from repro.compiler import consolidate_source
from repro.engines import (
    DEFAULT_ENGINE,
    Engine,
    EngineError,
    from_legacy,
    get_engine,
    key_field,
    register_engine,
)
from repro.sim.device import Device

from tests.helpers import (
    REFERENCE_ENGINE as REFERENCE,
    assert_engines_agree,
    assert_same_metrics,
    engines_under_test,
    minicuda_expr,
)

ENGINES = engines_under_test()

DP_VARIANTS = (BASIC, WARP, BLOCK, GRID)

#: small enough to keep the 7 apps x 4 variants x N engines matrix in
#: test time, large enough that every app actually delegates work
SCALE = 0.08


# -- registry contract --------------------------------------------------------


class TestRegistry:
    def test_heap_bytes_reaches_the_device(self):
        dev = get_engine("scalar").make_device(heap_bytes=1 << 20)
        assert isinstance(dev, Device) and dev.engine_name == "scalar"

    def test_register_rejects_nameless_and_non_engine(self):
        with pytest.raises(ValueError, match="must define a name"):
            register_engine(Engine("", "nameless", Device))
        with pytest.raises(TypeError, match="Engine"):
            register_engine(object())


class TestLegacySpellings:
    """The one lowering table: the run key and the deprecated spellings
    both read it."""

    def test_key_fields(self):
        assert key_field("scalar") == ("oracle", "sim-scalar")
        assert key_field("cpu") == ("backend", "cpu")
        assert key_field("compiled") == ("engine", "compiled")

    def test_from_legacy(self):
        assert from_legacy("oracle", None) is None
        assert from_legacy("oracle", "sim") is None
        assert from_legacy("backend", "sim") is None
        assert from_legacy("oracle", "sim-scalar") == "scalar"
        assert from_legacy("backend", "cpu") == "cpu"

    @pytest.mark.parametrize("field,value", [("oracle", "surrogate"),
                                             ("backend", "cuda"),
                                             ("oracle", "cpu")])
    def test_from_legacy_rejects_non_engines(self, field, value):
        with pytest.raises(EngineError, match="names no engine"):
            from_legacy(field, value)


# -- the app matrix -----------------------------------------------------------


APP_KEYS = [a.key for a in all_apps()]


@pytest.fixture(scope="module")
def datasets():
    return {key: get_app(key).default_dataset(SCALE) for key in APP_KEYS}


@pytest.fixture(scope="module")
def reference_runs():
    """Scalar reference runs, one per (app, variant), shared by every
    engine's cell of the matrix."""
    return {}


@pytest.mark.parametrize("key", APP_KEYS)
@pytest.mark.parametrize("variant", DP_VARIANTS)
@pytest.mark.parametrize("engine", ENGINES)
def test_engine_matches_scalar(engine, variant, key, datasets,
                               reference_runs):
    """Every app x DP variant: the engine's output equals the scalar
    engine's element for element, and its metrics match (all of them
    for a timed engine)."""
    app = get_app(key)
    if (key, variant) not in reference_runs:
        reference_runs[key, variant] = app.run(
            variant, dataset=datasets[key], verify=False, engine=REFERENCE)
    ref = reference_runs[key, variant]
    run = app.run(variant, dataset=datasets[key], verify=False,
                  engine=engine)
    assert ref.engine == REFERENCE
    assert run.engine == (None if engine == DEFAULT_ENGINE else engine)
    np.testing.assert_array_equal(
        run.result, ref.result,
        err_msg=f"{engine} result diverged from {REFERENCE} on {key} "
                f"[{variant}]")
    assert_same_metrics(engine, run.metrics, ref.metrics,
                        f"on {key} [{variant}]")


# -- fuzzed DP programs ------------------------------------------------------


_DP_TMPL = """
__global__ void child(int* buf, int* out, int u, int n) {
    out[u] = @EXPR@;
}
__global__ void parent(int* buf, int* out, int n) {
    int u = blockIdx.x * blockDim.x + threadIdx.x;
    if (u < n) {
        int w = buf[u % 16];
        #pragma dp consldt(block) work(u)
        if (w > 8) {
            child<<<1, 1>>>(buf, out, u, n);
        } else {
            out[u] = 0 - w;
        }
    }
}
"""

_child_expr = minicuda_expr(
    atoms=["u", "n", "buf[u]", "buf[u % 16]", "buf[(u + 7) % 16]"])


@given(_child_expr)
@settings(max_examples=25, deadline=None)
def test_fuzzed_dp_programs_match_scalar(expr):
    """Fuzzed dynamic-parallelism programs, basic and consolidated at
    warp, block and grid granularity: every engine's ``__dp_*`` runtime
    (buffer table, batched buffer reads and pushes, designated
    launchers) agrees with the scalar engine's, metrics included."""
    rng = np.random.default_rng(23)
    arrays = [("buf", rng.integers(0, 32, 64).astype(np.int32)),
              ("out", np.zeros(64, np.int32))]
    basic = _DP_TMPL.replace("@EXPR@", expr)
    sources = {"basic": basic}
    for gran in ("warp", "block", "grid"):
        sources[gran] = consolidate_source(basic, granularity=gran).source
    for name, src in sources.items():
        assert_engines_agree(ENGINES, src, "parent", 2, 32, arrays, (64,),
                             f"[{name}] on {expr}")
