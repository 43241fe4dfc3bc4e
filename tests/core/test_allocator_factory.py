"""The AllocatorFactory protocol: both factory shapes, pass-through of
plain callables, and typed rejection of everything else."""

import pytest

from repro.core.allocation import (
    ALLOCATORS,
    AllocationError,
    AllocatorFactory,
    dp_allocate,
    resolve_allocator,
)
from repro.core.iterative import IterativeAllocator
from repro.core.paraconv import ParaConv
from repro.core.retiming import analyze_edges
from repro.core.scheduler import compact_kernel_schedule


@pytest.fixture
def analysis(figure2_graph, small_config):
    kernel = compact_kernel_schedule(figure2_graph, 2)
    timings = analyze_edges(figure2_graph, kernel, small_config)
    return figure2_graph, timings


class TestFactoryShapes:
    def test_class_shape_is_instantiated_per_run(self, analysis):
        graph, timings = analysis
        allocator = resolve_allocator(IterativeAllocator, graph, timings)
        assert isinstance(allocator, IterativeAllocator)
        assert allocator.graph is graph
        assert allocator.timings is timings

    def test_instance_shape_is_rebound_not_reused(self, analysis):
        graph, timings = analysis
        stale = IterativeAllocator(graph, {}, max_rounds=7)
        rebound = resolve_allocator(stale, graph, timings)
        assert rebound is not stale
        assert rebound.timings is timings
        # Configuration carried by the instance survives the rebind.
        assert rebound.max_rounds == 7

    def test_plain_callable_passes_through_untouched(self, analysis):
        graph, timings = analysis
        assert resolve_allocator(dp_allocate, graph, timings) is dp_allocate

    def test_callable_instance_passes_through(self, analysis):
        graph, timings = analysis

        class CallableStrategy:
            def __call__(self, problem):
                return dp_allocate(problem)

        strategy = CallableStrategy()
        assert resolve_allocator(strategy, graph, timings) is strategy

    def test_non_factory_class_is_rejected(self, analysis):
        graph, timings = analysis

        class NotAFactory:
            def __init__(self, some, other, shape):  # pragma: no cover
                pass

        with pytest.raises(AllocationError):
            resolve_allocator(NotAFactory, graph, timings)

    def test_non_callable_is_rejected(self, analysis):
        graph, timings = analysis
        with pytest.raises(AllocationError):
            resolve_allocator(42, graph, timings)


class TestPipelineIntegration:
    def test_registry_entry_is_the_factory_class(self):
        assert ALLOCATORS["iterative"] is IterativeAllocator
        assert issubclass(IterativeAllocator, AllocatorFactory)

    def test_pipeline_resolves_class_and_instance_identically(
        self, figure2_graph, small_config
    ):
        by_name = ParaConv(
            small_config, allocator_name="iterative"
        ).run_at_width(figure2_graph, 2)
        by_instance = ParaConv(
            small_config,
            allocator=IterativeAllocator(figure2_graph, {}),
        ).run_at_width(figure2_graph, 2)
        assert by_name.allocation.cached == by_instance.allocation.cached
        assert by_name.total_time() == by_instance.total_time()

    def test_pipeline_rejects_non_factory_class(
        self, figure2_graph, small_config
    ):
        class Bogus:
            pass

        with pytest.raises(AllocationError):
            ParaConv(small_config, allocator=Bogus).run_at_width(
                figure2_graph, 2
            )


class TestAllocatorSpecs:
    """String specs: registry names and the typed error path."""

    def test_bare_name_resolves_to_registry_entry(self, analysis):
        graph, timings = analysis
        assert resolve_allocator("dp", graph, timings) is ALLOCATORS["dp"]

    def test_unknown_name_raises_typed_error(self, analysis):
        from repro.core.allocation import UnknownAllocatorError

        graph, timings = analysis
        with pytest.raises(UnknownAllocatorError) as excinfo:
            resolve_allocator("simulated-annealing", graph, timings)
        error = excinfo.value
        assert error.spec == "simulated-annealing"
        assert error.choices == sorted(ALLOCATORS)
        # Every registered allocator is enumerated in the message.
        for name in ALLOCATORS:
            assert name in str(error)

    def test_unknown_allocator_error_is_a_value_error(self, analysis):
        """Callers guarding the old bare-ValueError path keep working."""
        from repro.core.allocation import UnknownAllocatorError

        graph, timings = analysis
        with pytest.raises(ValueError):
            resolve_allocator("bogus", graph, timings)
        assert issubclass(UnknownAllocatorError, ValueError)
        assert issubclass(UnknownAllocatorError, AllocationError)

    @pytest.mark.parametrize("spec", ["anneal:5000", "portfolio:", "dp:100"])
    def test_budgeted_specs_are_unknown(self, spec):
        """A spec is a plain registry name: no budget suffix."""
        from repro.core.allocation import (
            UnknownAllocatorError,
            allocator_from_spec,
        )

        with pytest.raises(UnknownAllocatorError) as excinfo:
            allocator_from_spec(spec)
        assert excinfo.value.choices == sorted(ALLOCATORS)
        assert "budget" not in str(excinfo.value)

    def test_pipeline_rejects_unknown_spec(self, figure2_graph, small_config):
        with pytest.raises(ValueError):
            ParaConv(
                small_config, allocator_name="annealing"
            ).run_at_width(figure2_graph, 2)
