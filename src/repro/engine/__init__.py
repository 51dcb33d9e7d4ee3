"""Shared-table caching and batch execution for design-space sweeps.

The paper's method builds one monotonized T*(w) staircase per core
(:class:`~repro.wrapper.pareto.TimeTable`) and then answers every
width question by O(1) lookup.  Historically each layer of this repo
rebuilt those tables for itself — ``co_optimize`` built them, the
analysis layer built them again for certificates and utilization, and
a width sweep repeated all of it per width, turning an O(W) family of
wrapper designs into O(W²) work.  This subpackage is the reuse layer
that removes the waste:

* :mod:`~repro.engine.cache` — :class:`WrapperTableCache`, which
  builds each core's table once at the largest width requested so
  far, extends it in place when a larger width arrives, and hands the
  very same :class:`~repro.wrapper.pareto.TimeTable` objects to every
  consumer;
* :mod:`~repro.engine.batch` — :class:`BatchRunner`, which fans
  (SOC, W, B) jobs out over a ``concurrent.futures`` process pool,
  so whole design-space sweeps run in parallel while the parent
  still pays for every (core, width) wrapper design at most once;
  a job that leaves workers idle fans out its sweep shards or search
  islands instead, tasks that share nothing while they run.

Two further modules make the hot path fast:

* :mod:`~repro.engine.kernel` — the dense time-matrix sweep kernel:
  the N×W testing-time matrix built once per sweep
  (:class:`DenseTimeMatrix`), memoized per-width columns and pick
  orders, an allocation-free bit-identical ``Core_assign``
  (:func:`sweep_assign`), and the O(1) admissible partition lower
  bound behind ``partition_evaluate``'s skip;
* :mod:`~repro.engine.shm` — transport of the parent's tables to
  pool workers, pickled once per SOC into descriptor bytes, so a
  batch's workers build their matrices from the parent's tables
  instead of each running their own wrapper designs.  The name is
  historical: the engine asks for no shared memory.

The sequential sweeps in :mod:`repro.analysis.sweep` and the
``repro-tam batch`` CLI subcommand are both thin wrappers over this
engine.
"""

from repro.engine.cache import WrapperTableCache
from repro.engine.kernel import (
    DenseTimeMatrix,
    KernelWorkspace,
    build_dense_matrix,
    sweep_assign,
)
from repro.engine.batch import (
    BatchJob,
    BatchRunner,
    FailedPoint,
    evaluate_point,
    split_results,
)

__all__ = [
    "WrapperTableCache",
    "DenseTimeMatrix",
    "KernelWorkspace",
    "build_dense_matrix",
    "sweep_assign",
    "BatchJob",
    "BatchRunner",
    "FailedPoint",
    "evaluate_point",
    "split_results",
]
