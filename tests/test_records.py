import copy
import pickle

import pytest

from coarsevrp.coarsening import CoarseningParams, coarsen
from coarsevrp.graph import Graph
from coarsevrp.tuning import SearchSpace, run_trial, solve_baseline

import gen

FROZEN = ("Customer", "Instance", "CoarseNode", "CoarseningParams",
          "MergeRecord", "Metrics", "SearchSpace", "TrialResult")
MUTABLE = ("Route", "Solution", "PipelineResult")


@pytest.fixture
def records():
    """One record of each class, taken from a conservative run, so that the
    CoarseNode has a radius and the records nest as the pool sends them."""
    inst = gen.random_instance(5, 12, family="mixed")
    space = SearchSpace(alphas=(0.9,), betas=(0.1,), ps=(0.3,), radius_coeffs=(4.0,))
    trial = run_trial(inst, space, seed=1, index=0, propagation="conservative")
    params = CoarseningParams(trial.alpha, trial.beta, trial.p, trial.radius_coeff,
                              trial.propagation)
    coarse, history = coarsen(Graph.from_instance(inst), params)
    out = solve_baseline(inst, trial.solver)
    route = out.solution.routes[0]
    recs = [inst.customers[0], inst, coarse.node(history[-1].super_id), params,
            history[-1], trial.metrics, space, trial, route, out.solution, out]
    assert recs[2].radius > 0 and trial.coarse_metrics is not None
    return {type(r).__name__: r for r in recs}


@pytest.mark.parametrize("name", FROZEN + MUTABLE)
def test_record_contract(records, name):
    record = records[name]
    cls = type(record)
    values = {field: getattr(record, field) for field in cls.__slots__}
    # the tune --jobs pool pickles records
    clone = pickle.loads(pickle.dumps(record))
    assert type(clone) is cls and clone == record and clone is not record
    assert copy.deepcopy(record) == record
    # equal only to a record of the same class: not to one of a copy of the
    # class, with its name, fields and methods, nor to a tuple of the values
    twin = type(cls.__name__, cls.__bases__,
                {k: v for k, v in vars(cls).items() if k not in cls.__slots__})(**values)
    assert cls(**values) == record
    assert twin != record and record != twin
    assert record != tuple(values.values())
    field = cls.__slots__[0]
    if name in FROZEN:
        assert hash(clone) == hash(record) == hash(cls(**values))
        with pytest.raises(AttributeError):
            setattr(record, field, values[field])
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is values[field]
    else:
        with pytest.raises(TypeError):
            hash(record)
        setattr(clone, field, None)
        assert clone != record and getattr(record, field) is values[field]
    assert not hasattr(record, "__dict__")


def test_mutable_defaults_are_fresh_per_record():
    inst = gen.random_instance(5, 12)
    first, second = solve_baseline(inst, "savings"), solve_baseline(inst, "savings")
    assert first.timings is not second.timings
    assert first.coarsening is not second.coarsening
    first.coarsening.append("round")
    assert second.coarsening == []
