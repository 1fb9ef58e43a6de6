import json

import pytest
from hypothesis import given, settings

from coarsevrp.evaluation import Metrics
from coarsevrp.graph import Graph, recompute_schedule
from coarsevrp.heuristics import Solution
from coarsevrp.instances import (METRIC_NAMES, PARAM_NAMES, TIMING_NAMES, DocumentError,
                                 InstanceError, build_solution_document, parse_solomon,
                                 read_solution, write_solomon, write_solution)
from coarsevrp.tuning import TrialResult

import gen

SOLOMON_TOY = """\
toy1

VEHICLE
NUMBER     CAPACITY
  25         200

CUSTOMER
CUST NO.  XCOORD.   YCOORD.    DEMAND   READY TIME  DUE DATE   SERVICE TIME

    0      40         50          0          0       1236          0
    1      45         68         10        912        967         90
    2      45         70         30        825        870         90
"""


def test_parse_basic_fields():
    inst = parse_solomon(SOLOMON_TOY)
    assert inst.name == "toy1"
    assert inst.vehicle_count == 25
    assert inst.capacity == 200
    assert inst.depot.id == 0 and inst.depot.x == 40
    assert len(inst.customers) == 2
    c1 = inst.customers[0]
    assert (c1.id, c1.x, c1.y, c1.demand, c1.ready, c1.due, c1.service) == \
        (1, 45, 68, 10, 912, 967, 90)
    assert inst.depot.due == 1236


def test_parse_rejects_missing_sections():
    with pytest.raises(InstanceError, match="VEHICLE"):
        parse_solomon("toy\n\nCUSTOMER\n0 0 0 0 0 10 0\n")
    with pytest.raises(InstanceError, match="CUSTOMER"):
        parse_solomon("toy\n\nVEHICLE\nNUMBER CAPACITY\n1 100\n")


def test_parse_rejects_bad_rows():
    bad_depot = SOLOMON_TOY.replace("    0      40         50          0",
                                    "    0      40         50          5")
    with pytest.raises(InstanceError, match="depot"):
        parse_solomon(bad_depot)
    # duplicate id
    dup = SOLOMON_TOY + "    2      45         70         30        825        870         90\n"
    with pytest.raises(InstanceError, match="duplicate|1..n"):
        parse_solomon(dup)
    # empty window
    flipped = SOLOMON_TOY.replace("825        870", "870        825")
    with pytest.raises(InstanceError, match="window"):
        parse_solomon(flipped)
    # single demand above capacity
    heavy = SOLOMON_TOY.replace("         30        825", "        999        825")
    with pytest.raises(InstanceError, match="capacity"):
        parse_solomon(heavy)


@pytest.mark.parametrize("bad,match", [
    ("    1      nan        68", "non-finite"),
    ("    1      45         inf", "non-finite"),
    ("    1.9    45         68", "customer id 1.9"),
    ("    1      45x        68", "non-number, expected 7"),
], ids=["nan", "inf", "id-1.9", "non-number"])
def test_parse_rejects_poisoned_customer_rows(bad, match):
    with pytest.raises(InstanceError, match=match):
        parse_solomon(SOLOMON_TOY.replace("    1      45         68", bad))


@pytest.mark.parametrize("cut", [1, 6], ids=["last-column", "all-but-id"])
def test_parse_rejects_short_customer_row(cut):
    lines = SOLOMON_TOY.splitlines()
    lines[-1] = "   ".join(lines[-1].split()[:-cut])    # customer 2 cut short
    with pytest.raises(InstanceError, match="expected 7"):
        parse_solomon("\n".join(lines) + "\n")


def test_parse_rejects_long_customer_row():
    with pytest.raises(InstanceError, match="has 8 numbers"):
        parse_solomon(SOLOMON_TOY.rstrip("\n") + "   5\n")


def test_parse_skips_header_and_blank_customer_lines():
    padded = SOLOMON_TOY.replace("    1      45", "\n   \nCUST NO. ID\n    1      45")
    assert parse_solomon(padded) == parse_solomon(SOLOMON_TOY)


def test_parse_rejects_non_finite_capacity():
    with pytest.raises(InstanceError, match="non-finite"):
        parse_solomon(SOLOMON_TOY.replace("  25         200", "  25         nan"))


def test_parse_rejects_non_integer_vehicle_count():
    with pytest.raises(InstanceError, match="vehicle count 2.5"):
        parse_solomon(SOLOMON_TOY.replace("  25         200", "  2.5        200"))
    assert parse_solomon(SOLOMON_TOY.replace("  25         200", "  2.0        200")).vehicle_count == 2


def test_title_may_read_as_a_section_name():
    for title in ("VEHICLE", "CUSTOMER"):
        inst = gen.random_instance(3, 5, name=title)
        assert parse_solomon(write_solomon(inst)) == inst


def test_echo_round_trip():
    inst = parse_solomon(SOLOMON_TOY)
    assert parse_solomon(write_solomon(inst)) == inst
    # and once more through the generator's fractional-friendly path
    inst2 = gen.random_instance(7, 23)
    assert parse_solomon(write_solomon(inst2)) == inst2


# ---------------------------------------------------------------------------
# solution documents

def _doc_for(instance, routes_stops):
    g = Graph.from_instance(instance)
    routes = [recompute_schedule(s, g, instance.capacity) for s in routes_stops]
    sol = Solution(routes, "greedy", g.name)
    n_cust = sum(len(r.customer_stops) for r in routes)
    metrics = Metrics(10.0, len(routes), 20.0, 0, 0, True)
    return build_solution_document(sol, g, metrics,
                                   {"alpha": 0.5, "beta": 0.5, "p": 0.5,
                                    "radius_coeff": 1.0, "propagation": "relaxed",
                                    "solver": "greedy"}, seed=3)


def test_empty_solution_document():
    inst = parse_solomon(SOLOMON_TOY)
    g = Graph.from_instance(inst)
    doc = build_solution_document(Solution([], "greedy", g.name),
                                  g, Metrics(0.0, 0, 0.0, 0, 0, True), {})
    assert doc["routes"] == []
    m = doc["metrics"]
    assert m["total_distance"] == 0 and m["num_vehicles"] == 0
    assert m["total_duration"] == 0 and m["tw_violations"] == 0
    assert m["capacity_violations"] == 0


def test_one_route_document_has_all_stops():
    inst = parse_solomon(SOLOMON_TOY)
    doc = _doc_for(inst, [[0, 2, 1, 0]])
    assert len(doc["routes"]) == 1
    assert len(doc["routes"][0]["stops"]) == len(inst.customers) + 2
    stop = doc["routes"][0]["stops"][1]
    assert set(stop) == {"node_id", "arrival", "wait", "service_start", "departure"}


def test_document_write_read_round_trip(tmp_path):
    inst = parse_solomon(SOLOMON_TOY)
    doc = _doc_for(inst, [[0, 1, 0], [0, 2, 0]])
    path = tmp_path / "sol.json"
    write_solution(doc, path)
    assert read_solution(path) == doc


def test_document_validation(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(DocumentError):
        read_solution(p)
    p.write_text(json.dumps({"instance": "x"}))
    with pytest.raises(DocumentError, match="missing"):
        read_solution(p)


def test_field_lists_name_the_record_fields():
    # instances cannot import evaluation (evaluation -> graph -> instances),
    # so the metric list is tied to Metrics here
    assert METRIC_NAMES == Metrics.__slots__
    assert set(PARAM_NAMES + TIMING_NAMES) <= set(TrialResult.__slots__)


@pytest.mark.parametrize("bad", [object(), {1, 2}, b"bytes", {"k": [1, object()]},
                                 {(1, 2): 3}, {1: "a", "b": 2}])
def test_writer_rejects_what_json_cannot_write(tmp_path, bad):
    doc = {"instance": "x", "seed": 0, "params": bad, "routes": [], "metrics": {},
           "timings": {}}
    with pytest.raises(TypeError):
        json.dumps(doc, sort_keys=True)
    with pytest.raises(TypeError):
        write_solution(doc, tmp_path / "bad.json")


@settings(max_examples=200, deadline=None)
@given(gen.drawn_instances())
def test_parse_write_round_trip(inst):
    assert parse_solomon(write_solomon(inst)) == inst
