"""The serving layer: caches, batching, wire format, CLI, and the oracle.

The load-bearing property is *answer preservation*: however a query is
served — cold, warm-started, or memoised — the numbers must equal a
fresh :func:`~repro.core.bandwidth.available_path_bandwidth` solve.  The
oracle class cross-checks that over the verification generator's six
instance families; the rest of the module pins the mechanism (LRU
bounds, counters, batching) and the JSONL/CLI surface.
"""

import gc
import json
import pickle
import random
import weakref
from collections import OrderedDict

import pytest

from repro.core.bandwidth import (
    available_path_bandwidth,
    link_demands_from_paths,
    path_bandwidth_from_solution,
)
from repro.errors import (
    ConfigurationError,
    InfeasibleProblemError,
    InterferenceError,
    SolverError,
)
from repro.interference.protocol import ProtocolInterferenceModel
from repro.net.path import Path
from repro.obs import Recorder, use_recorder
from repro.serve import (
    AdmissionDecision,
    AdmissionQuery,
    AdmissionService,
    BatchSession,
    OnlineAdmissionController,
    SolveCache,
    decision_to_dict,
    load_background,
    load_queries,
    path_from_nodes,
    summarize_decisions,
)
from repro.serve.session import ResultHit, SolveOutcome
from repro.testing.faults import inject_faults, plan_from_spec
from repro.verify.instances import FAMILIES, iter_instances
from repro.workloads.scenarios import (
    paper_random_topology,
    scenario_one,
    scenario_two,
)


class TestSolveCache:
    def test_round_trip(self):
        cache = SolveCache(4, "t")
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None

    def test_capacity_bound(self):
        cache = SolveCache(3, "t")
        for index in range(10):
            cache.put(index, index)
        assert len(cache) == 3

    def test_lru_eviction_order(self):
        cache = SolveCache(2, "t")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a": "b" is now least recent
        cache.put("c", 3)
        assert list(cache.keys()) == ["a", "c"]
        assert cache.get("b") is None
        assert cache.evictions == 1

    def test_hit_miss_counts(self):
        cache = SolveCache(2, "t")
        cache.get("a")
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        assert cache.misses == 1
        assert cache.hits == 2

    def test_get_or_compute_single_flight(self):
        cache = SolveCache(2, "t")
        calls = []

        def factory():
            calls.append(True)
            return "value"

        assert cache.get_or_compute("k", factory) == "value"
        assert cache.get_or_compute("k", factory) == "value"
        assert len(calls) == 1

    def test_counters_reach_recorder(self):
        recorder = Recorder()
        with use_recorder(recorder):
            cache = SolveCache(1, "probe")
            cache.get("a")
            cache.put("a", 1)
            cache.get("a")
            cache.put("b", 2)  # evicts "a"
        assert recorder.counters["serve.cache.probe.misses"] == 1
        assert recorder.counters["serve.cache.probe.hits"] == 1
        assert recorder.counters["serve.cache.probe.evictions"] == 1

    def test_recorder_names_are_fixed_at_construction(self):
        recorder = Recorder()
        with use_recorder(recorder):
            cache = SolveCache(1, "enum", prefix="online.cache")
            cache.get("a")
            cache.put("a", None)
            assert cache.get("a") is None  # a stored None is a hit
            cache.put("b", 2)
        assert recorder.counters == {
            "online.cache.enum.misses": 1,
            "online.cache.enum.hits": 1,
            "online.cache.enum.evictions": 1,
        }
        assert recorder.gauges["online.cache.enum.size"] == 1
        assert (cache.hits, cache.misses, cache.evictions) == (1, 1, 1)

    def test_a_hit_hashes_its_key_twice(self):
        class Key:
            hashes = 0

            def __hash__(self):
                Key.hashes += 1
                return 7

        key = Key()
        cache = SolveCache(2, "t")
        cache.put(key, "value")
        cache.put("later", 0)  # so the hit has to move the key
        Key.hashes = 0
        assert cache.get(key) == "value"
        assert Key.hashes == 2  # the lookup and the recency move
        assert cache.keys() == ["later", key]

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            SolveCache(0, "t")


def _cold_answers(instance, queries):
    return {
        q.query_id: available_path_bandwidth(
            instance.model, q.path, instance.background
        ).available_bandwidth
        for q in queries
    }


def _instance_queries(instance):
    """New path, its subpaths, and each background route — twice over."""
    paths = {tuple(link.link_id for link in instance.new_path): instance.new_path}
    links = list(instance.new_path.links)
    for start in range(len(links)):
        sub = Path(links[start:])
        paths.setdefault(tuple(link.link_id for link in sub), sub)
    for path, _demand in instance.background:
        paths.setdefault(tuple(link.link_id for link in path), path)
    return [
        AdmissionQuery(f"q{repeat}.{index}", path, 1.0)
        for repeat in range(2)
        for index, path in enumerate(paths.values())
    ]


class TestOracleCrossCheck:
    """Service answers equal cold solves on every generator family."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_family_equality(self, family):
        for instance in iter_instances(2, seed=42, families=[family]):
            service = AdmissionService(
                instance.model, instance.background
            )
            queries = _instance_queries(instance)
            cold = _cold_answers(instance, queries)
            for decision in service.submit_many(queries):
                assert (
                    decision.available_bandwidth_mbps
                    == cold[decision.query_id]
                ), f"{instance.name}: {decision.query_id}"

    def test_warm_and_memoised_states_appear(self):
        instance = next(
            iter_instances(1, seed=3, families=["declared-chain"])
        )
        service = AdmissionService(instance.model, instance.background)
        decisions = service.submit_many(_instance_queries(instance))
        states = {d.cache_state for d in decisions}
        assert "cold" in states
        assert "result" in states  # the repeat pass is memoised


class TestAdmissionService:
    def test_admit_and_reject(self):
        scenario = scenario_one()  # 1 - lambda = 0.7 -> 37.8 Mbps free
        service = AdmissionService(scenario.model, scenario.background)
        admit = service.submit(
            AdmissionQuery("ok", scenario.new_path, 10.0)
        )
        reject = service.submit(
            AdmissionQuery("no", scenario.new_path, 50.0)
        )
        assert admit.admitted and admit.cache_state == "cold"
        assert not reject.admitted and reject.cache_state == "result"
        assert (
            admit.available_bandwidth_mbps
            == reject.available_bandwidth_mbps
        )

    def test_warm_start_across_paths(self):
        scenario = scenario_two()
        links = list(scenario.path.links)
        # Subpaths of the four-hop chain share its link union only when
        # the background spans the whole chain.
        background = [(scenario.path, 1.0)]
        service = AdmissionService(scenario.model, background)
        recorder = Recorder()
        with use_recorder(recorder):
            first = service.submit(
                AdmissionQuery("whole", scenario.path, 1.0)
            )
            second = service.submit(
                AdmissionQuery("prefix", Path(links[:2]), 1.0)
            )
        assert first.cache_state == "cold"
        assert second.cache_state == "warm"
        assert recorder.counters["serve.lp.warm_starts"] == 1
        assert first.fingerprint == second.fingerprint
        # The warm answer equals its cold reference.
        cold = available_path_bandwidth(
            scenario.model, Path(links[:2]), background
        )
        assert (
            second.available_bandwidth_mbps == cold.available_bandwidth
        )

    def test_distinct_unions_get_distinct_fingerprints(self):
        scenario = scenario_two()
        links = list(scenario.path.links)
        service = AdmissionService(scenario.model)
        first = service.submit(AdmissionQuery("a", Path(links[:2]), 1.0))
        second = service.submit(AdmissionQuery("b", Path(links[2:]), 1.0))
        assert first.fingerprint != second.fingerprint

    def test_lru_eviction_forces_recompute(self):
        scenario = scenario_two()
        links = list(scenario.path.links)
        service = AdmissionService(
            scenario.model,
            cache_capacity=1,
            result_capacity=1,
        )
        a = AdmissionQuery("a", Path(links[:2]), 1.0)
        b = AdmissionQuery("b", Path(links[2:]), 1.0)
        service.submit(a)
        service.submit(b)  # evicts a's artifacts everywhere
        again = service.submit(a)
        assert again.cache_state == "cold"
        assert service.enum_cache.evictions >= 2


class TestSolverFailure:
    """A failed solve surfaces as the cold solver's error and leaves the
    session clean: no result entry, master keys matching its program,
    and the next query answered exactly as a cold solve."""

    @staticmethod
    def _front_end(kind, scenario):
        background = [(scenario.path, 1.0)]
        if kind == "batch":
            service = AdmissionService(scenario.model, background)

            def ask(path):
                return service.submit(AdmissionQuery("q", path, 1.0))

            return service, ask, lambda: background
        controller = OnlineAdmissionController(scenario.model)
        controller.admit_path("bg", scenario.path, 1.0)

        def probe(path):
            # An unsatisfiable demand is rejected, so probes never join
            # the carried set.
            return controller.admit_path("probe", path, float("inf"))

        return controller, probe, controller.carried

    @pytest.fixture
    def recorder(self):
        recorder = Recorder()
        with use_recorder(recorder):
            yield recorder

    @pytest.mark.parametrize("failing_solve", [1, 2])
    @pytest.mark.parametrize("kind", ["batch", "online"])
    def test_fatal_solve_leaves_nothing_stale(
        self, kind, failing_solve, recorder
    ):
        scenario = scenario_two()
        links = list(scenario.path.links)
        first, second = Path(links[:1]), Path(links[2:])
        failing = [first, second][failing_solve - 1]
        front, ask, carried = self._front_end(kind, scenario)
        before = carried()

        with pytest.raises(SolverError) as cold_error, inject_faults(
            plan_from_spec("solver-fatal@1")
        ):
            available_path_bandwidth(scenario.model, failing, before)
        with inject_faults(plan_from_spec(f"solver-fatal@{failing_solve}")):
            if failing_solve == 2:
                ask(first)
            results_before = front.result_cache.keys()
            with pytest.raises(SolverError) as error:
                ask(failing)
        assert type(error.value) is type(cold_error.value)
        assert [a.method for a in error.value.attempts] == [
            a.method for a in cold_error.value.attempts
        ]
        assert front.result_cache.keys() == results_before
        assert carried() == before

        # The master's keys describe the program it holds: solving it
        # as-is answers for its path_key under its demand_key.
        [union_key] = front.master_cache.keys()
        master = front.master_cache.get(union_key)
        by_id = {link.link_id: link for link in links}
        union = [by_id[link_id] for link_id in union_key]
        demands = link_demands_from_paths(before)
        if kind == "online":
            assert master.demand_key == tuple(
                demands.get(link, 0.0) for link in union
            )
        held_path = Path(by_id[link_id] for link_id in master.path_key)
        program = master.program
        held = path_bandwidth_from_solution(program, program.lp.solve(), demands)
        assert held.available_bandwidth == available_path_bandwidth(
            scenario.model, held_path, before
        ).available_bandwidth

        cold = available_path_bandwidth(scenario.model, failing, before)
        assert ask(failing).available_bandwidth_mbps == (
            cold.available_bandwidth
        )
        if kind == "online":
            # The failing solve reuses the background's master, so every
            # freshly built master was solved and counted as a rebuild.
            counters = recorder.counters
            assert counters["online.rebuild_fallbacks"] == (
                counters["online.cache.master.misses"]
            )

    def test_fatal_cold_solve_counts_miss_without_rebuild(self, recorder):
        """A solve that raises on a freshly built master keeps the master
        and its miss but counts no rebuild; the retry is a warm solve."""
        scenario = scenario_two()
        controller = OnlineAdmissionController(scenario.model)
        with pytest.raises(SolverError), inject_faults(
            plan_from_spec("solver-fatal@1")
        ):
            controller.admit_path("f", scenario.path, 1.0)
        controller.admit_path("f", scenario.path, 1.0)
        counters = recorder.counters
        assert counters["online.cache.master.misses"] == 1
        assert counters.get("online.rebuild_fallbacks", 0) == 0
        assert counters["online.warm_resolves"] == 1


class TestFreshUnionFailure:
    """A fresh union that raises leaves no ``enum`` or ``master`` entry
    and the background's couple space as it was; the next fresh query
    answers as a cold solve does."""

    @staticmethod
    def _space_state(service):
        space = service.session.base_space
        full = (1 << len(space.couples)) - 1
        return space, list(space.compatible), space.independent_sets(full)

    @staticmethod
    def _assert_no_entry(service, path):
        union_key = tuple(link.link_id for link in service.link_union(path))
        assert union_key not in service.enum_cache.keys()
        assert union_key not in service.master_cache.keys()

    def test_max_sets_cap_on_a_fresh_union(self):
        scenario = scenario_two()
        network = scenario.network
        l1, l2, l3, l4 = (network.link(f"L{index}") for index in range(1, 5))
        background = [(Path([l1]), 1.0)]
        # Fresh unions that fit the cap, one that exceeds it, and a
        # fresh one after it.
        first, big, after = Path([l1, l2]), Path([l2, l3, l4]), Path([l3])

        def sets_found(path):
            recorder = Recorder()
            with use_recorder(recorder):
                available_path_bandwidth(scenario.model, path, background)
            return recorder.counters["enum.sets_found"]

        cap = max(sets_found(first), sets_found(after))
        assert sets_found(big) > cap
        service = AdmissionService(scenario.model, background, max_sets=cap)
        for path in (Path([l1]), first):
            service.submit(AdmissionQuery("fits", path, 1.0))
        before = self._space_state(service)
        with pytest.raises(InterferenceError) as cold_error:
            available_path_bandwidth(
                scenario.model, big, background, max_sets=cap
            )
        with pytest.raises(InterferenceError) as error:
            service.submit(AdmissionQuery("big", big, 1.0))
        assert str(error.value) == str(cold_error.value)
        self._assert_no_entry(service, big)
        assert self._space_state(service) == before
        assert self._space_state(service)[0] is before[0]
        decision = service.submit(AdmissionQuery("after", after, 1.0))
        assert decision.cache_state == "cold"
        assert decision.available_bandwidth_mbps == available_path_bandwidth(
            scenario.model, after, background, max_sets=cap
        ).available_bandwidth
        assert self._space_state(service) == before

    def test_infeasible_background(self):
        scenario = scenario_two()
        network = scenario.network
        l2, l3, l4 = (network.link(f"L{index}") for index in range(2, 5))
        background = [(Path([l2]), 60.0)]
        service = AdmissionService(scenario.model, background)
        states = []
        # Inside the background, then two fresh unions leaving it.
        for path in (Path([l2]), Path([l3, l4]), Path([l3])):
            with pytest.raises(InfeasibleProblemError) as cold_error:
                available_path_bandwidth(scenario.model, path, background)
            with pytest.raises(InfeasibleProblemError) as error:
                service.submit(AdmissionQuery("q", path, 1.0))
            assert str(error.value) == str(cold_error.value)
            self._assert_no_entry(service, path)
            if service.session.base_space is not None:
                states.append(self._space_state(service))
        assert len(states) == 2 and states[0] == states[1]
        assert states[0][0] is states[1][0]
        assert not service.enum_cache.keys()
        assert not service.master_cache.keys()
        assert not service.result_cache.keys()


class TestPathKeyedResults:
    """The batch service keys its result level by the path's link ids:
    a hit builds no union, and the stream answers, fingerprints and
    cache counters are those of the (union, path) keyed level."""

    CAPACITY = 4

    @staticmethod
    def _workload():
        """Subpaths of a route that leaves the background at its last
        hop, at mixed demands, repeated and shuffled."""
        network = paper_random_topology(seed=8)
        model = ProtocolInterferenceModel(network)
        background = [(path_from_nodes(network, ["n0", "n1", "n8"]), 0.5)]
        links = list(path_from_nodes(network, ["n0", "n1", "n8", "n3"]).links)
        subpaths = [
            Path(links[start:stop])
            for start in range(len(links))
            for stop in range(start + 1, len(links) + 1)
        ]
        queries = [
            AdmissionQuery(f"q{repeat}.{index}@{demand:g}", path, demand)
            for repeat in range(3)
            for index, path in enumerate(subpaths)
            for demand in (0.5, 2.0, 4.0)
        ]
        random.Random(7).shuffle(queries)
        return model, background, queries

    def _service(self, model, background):
        return AdmissionService(
            model, background, result_capacity=self.CAPACITY, explain=True
        )

    def test_hits_answer_as_the_miss_that_filled_them(self, monkeypatch):
        model, background, queries = self._workload()
        service = self._service(model, background)
        session = service.session
        outcomes, union_calls = [], []
        recall, compute, union = session.recall, session.compute, service._union

        def spied_recall(key):
            outcome = recall(key)
            if outcome is not None:
                outcomes.append(outcome)
            return outcome

        def spied_compute(*args, **kwargs):
            outcomes.append(compute(*args, **kwargs))
            return outcomes[-1]

        def spied_union(path):
            union_calls.append(path)
            return union(path)

        monkeypatch.setattr(session, "recall", spied_recall)
        monkeypatch.setattr(session, "compute", spied_compute)
        monkeypatch.setattr(service, "_union", spied_union)
        recorder = Recorder()
        decisions, filled = [], {}
        reference: "OrderedDict[tuple, None]" = OrderedDict()
        expected = {"hits": 0, "misses": 0, "evictions": 0}
        with use_recorder(recorder):
            for query in queries:
                calls = len(union_calls)
                decision = service.submit(query)
                decisions.append(decision)
                outcome = outcomes[-1]
                path_key = tuple(link.link_id for link in query.path)
                key = (union(query.path)[1], path_key)
                if key in reference:
                    reference.move_to_end(key)
                    expected["hits"] += 1
                    assert decision.result_cache == "hit"
                    assert len(union_calls) == calls  # no union on a hit
                    miss, miss_outcome = filled[path_key]
                    assert decision.fingerprint == miss.fingerprint
                    assert decision.explanation == miss.explanation
                    assert decision.explanation is not None
                    assert outcome.bottleneck == miss_outcome.bottleneck
                else:
                    reference[key] = None
                    expected["misses"] += 1
                    if len(reference) > self.CAPACITY:
                        reference.popitem(last=False)
                        expected["evictions"] += 1
                    assert decision.result_cache == "miss"
                    assert len(union_calls) == calls + 1
                    filled[path_key] = (decision, outcome)
        assert expected["hits"] and expected["evictions"]
        for level, count in expected.items():
            assert recorder.counters.get(f"serve.cache.result.{level}", 0) == count
            assert getattr(service.result_cache, level) == count
        assert len(service.result_cache) == self.CAPACITY

        cold = {
            query.query_id: available_path_bandwidth(
                model, query.path, background
            ).available_bandwidth
            for query in queries
        }
        for decision in decisions:
            assert decision.available_bandwidth_mbps == cold[decision.query_id]
            assert decision.admitted == (
                cold[decision.query_id] + 1e-6 >= decision.demand_mbps
            )
        threaded = BatchSession(
            self._service(model, background), workers=4
        ).run(queries)
        assert [
            (d.query_id, d.available_bandwidth_mbps, d.admitted, d.fingerprint)
            for d in threaded
        ] == [
            (d.query_id, d.available_bandwidth_mbps, d.admitted, d.fingerprint)
            for d in decisions
        ]


    def test_a_dropped_service_is_freed_without_the_cycle_collector(self):
        # The result cache's entries reach the session's fingerprint
        # memo, not the session, so dropping a service frees it at once.
        model, background, queries = self._workload()
        service = self._service(model, background)
        decisions = [service.submit(query) for query in queries]
        assert any(decision.result_cache == "hit" for decision in decisions)
        session = weakref.ref(service.session)
        gc.disable()
        try:
            del service
            assert session() is None
        finally:
            gc.enable()
        # The decisions still read their fingerprints.
        assert all(len(decision.fingerprint) == 16 for decision in decisions)


class TestDecisionOf:
    """``AdmissionDecision._of`` makes the instance the constructor does."""

    @staticmethod
    def _values(fingerprint):
        return (
            "q", True, 2.5, 1.0, fingerprint, "result", 1e-5, "t000001",
            "hit", "skipped", "skipped", None,
        )

    @pytest.mark.parametrize("kind", ["str", "solve", "hit"])
    def test_of_equals_the_constructor(self, kind):
        scenario = scenario_two()
        service = AdmissionService(scenario.model, [(scenario.path, 1.0)])
        union_key = service._union(scenario.path)[1]

        def fingerprint():
            if kind == "str":
                return "0123456789abcdef"
            outcome = SolveOutcome(
                fingerprints=service.session._fingerprints, locus=(union_key, ())
            )
            return outcome if kind == "solve" else ResultHit(outcome)

        made = AdmissionDecision(*self._values(fingerprint()))
        written = AdmissionDecision._of(*self._values(fingerprint()))
        if kind != "str":
            assert not isinstance(vars(written)["fingerprint"], str)
            assert written.fingerprint == service.query_fingerprint(scenario.path)
        assert written == made and hash(written) == hash(made)
        assert repr(written) == repr(made)
        assert vars(written) == vars(made)
        assert pickle.loads(pickle.dumps(written)) == made
        assert decision_to_dict(written) == decision_to_dict(made)
        with pytest.raises(AttributeError):
            written.admitted = False


class TestBatchSession:
    def _workload(self):
        scenario = scenario_two()
        links = list(scenario.path.links)
        background = [(scenario.path, 1.0)]
        subpaths = [
            Path(links[start:stop])
            for start in range(len(links))
            for stop in range(start + 1, len(links) + 1)
        ]
        queries = [
            AdmissionQuery(f"q{repeat}.{index}", path, 1.0)
            for repeat in range(2)
            for index, path in enumerate(subpaths)
        ]
        return scenario, background, queries

    def test_batch_enumerates_once_per_union(self):
        scenario, background, queries = self._workload()
        service = AdmissionService(scenario.model, background)
        recorder = Recorder()
        with use_recorder(recorder):
            decisions = service.submit_many(queries)
        # Every query's union is the background's four links.
        assert recorder.counters["serve.cache.enum.misses"] == 1
        assert recorder.counters["serve.cache.master.misses"] == 1
        assert recorder.counters["serve.batch.groups"] == 1
        assert recorder.counters["serve.batch.queries"] == len(queries)
        assert recorder.counters["serve.queries"] == len(queries)
        assert len(decisions) == len(queries)

    def test_batch_preserves_input_order(self):
        scenario, background, queries = self._workload()
        service = AdmissionService(scenario.model, background)
        decisions = service.submit_many(queries)
        assert [d.query_id for d in decisions] == [
            q.query_id for q in queries
        ]

    def test_threaded_batch_equals_sequential(self):
        scenario, background, queries = self._workload()
        sequential = AdmissionService(
            scenario.model, background
        ).submit_many(queries)
        recorder = Recorder()
        with use_recorder(recorder):
            threaded = AdmissionService(
                scenario.model, background
            ).submit_many(queries, workers=4)
        assert [
            (d.query_id, d.admitted, d.available_bandwidth_mbps)
            for d in threaded
        ] == [
            (d.query_id, d.admitted, d.available_bandwidth_mbps)
            for d in sequential
        ]
        # Counters stay exact under threading (the caches lock).
        assert recorder.counters["serve.queries"] == len(queries)
        assert recorder.counters["serve.cache.enum.misses"] == 1
        admitted = sum(1 for d in threaded if d.admitted)
        assert recorder.counters.get("serve.admitted", 0) == admitted

    def test_invalid_workers_fall_back_to_sequential(self):
        scenario, background, queries = self._workload()
        session = BatchSession(
            AdmissionService(scenario.model, background), workers=0
        )
        assert session.workers is None
        decisions = session.run(queries[:2])
        assert len(decisions) == 2


class TestWireFormat:
    def _network(self):
        return scenario_two().network

    def test_load_queries(self, tmp_path):
        stream = tmp_path / "q.jsonl"
        stream.write_text(
            '{"id": "a", "path": ["n0", "n1", "n2"], "demand_mbps": 2}\n'
            "\n"  # blank lines are skipped
            '{"path": ["n1", "n2"], "demand_mbps": 0.5}\n'
        )
        queries = load_queries(str(stream), self._network())
        assert [q.query_id for q in queries] == ["a", "q3"]
        assert queries[0].demand_mbps == 2.0
        assert [link.link_id for link in queries[0].path] == ["L1", "L2"]

    def test_load_background(self, tmp_path):
        stream = tmp_path / "bg.jsonl"
        stream.write_text('{"path": ["n0", "n1"], "demand_mbps": 1.5}\n')
        background = load_background(str(stream), self._network())
        assert len(background) == 1
        path, demand = background[0]
        assert demand == 1.5
        assert [link.link_id for link in path] == ["L1"]

    @pytest.mark.parametrize(
        "line, fragment",
        [
            ("not json", "malformed JSON"),
            ("[1, 2]", "expected an object"),
            ('{"path": ["n0", "n1"]}', "missing key"),
            (
                '{"path": ["n0", "n1"], "demand_mbps": true}',
                "must be a number",
            ),
            (
                '{"path": ["n0", "ghost"], "demand_mbps": 1}',
                "unroutable path",
            ),
            ('{"path": ["n0"], "demand_mbps": 1}', "at least two nodes"),
        ],
    )
    def test_malformed_lines_fail_with_location(
        self, tmp_path, line, fragment
    ):
        stream = tmp_path / "bad.jsonl"
        stream.write_text(line + "\n")
        with pytest.raises(ConfigurationError, match=fragment) as excinfo:
            load_queries(str(stream), self._network())
        assert ":1:" in str(excinfo.value)

    def test_path_from_nodes_follows_links(self):
        network = self._network()
        path = path_from_nodes(network, ["n0", "n1", "n2", "n3"])
        assert [link.link_id for link in path] == ["L1", "L2", "L3"]

    def test_summarize_decisions(self):
        scenario = scenario_one()
        service = AdmissionService(scenario.model, scenario.background)
        decisions = service.submit_many(
            [
                AdmissionQuery("a", scenario.new_path, 10.0),
                AdmissionQuery("b", scenario.new_path, 50.0),
            ]
        )
        summary = summarize_decisions(decisions, wall_seconds=0.5)
        assert summary["queries"] == 2
        assert summary["admitted"] == 1
        assert summary["rejected"] == 1
        assert summary["queries_per_second"] == 4.0
        assert summary["cache_states"] == {"cold": 1, "result": 1}
        assert (
            0.0
            < summary["p50_latency_seconds"]
            <= summary["p99_latency_seconds"]
        )
        json.dumps(summary)  # JSON-able end to end

    def test_decision_to_dict_round_trips_json(self):
        scenario = scenario_one()
        service = AdmissionService(scenario.model, scenario.background)
        decision = service.submit(
            AdmissionQuery("a", scenario.new_path, 10.0)
        )
        record = json.loads(json.dumps(decision_to_dict(decision)))
        assert record["id"] == "a"
        assert record["admitted"] is True
        assert record["cache_state"] == "cold"


class TestServeCli:
    def _write_queries(self, tmp_path):
        stream = tmp_path / "queries.jsonl"
        stream.write_text(
            '{"id": "q1", "path": ["n0", "n1", "n8"], "demand_mbps": 2.0}\n'
            '{"id": "q2", "path": ["n1", "n8"], "demand_mbps": 4.0}\n'
        )
        return stream

    def test_serve_smoke(self, tmp_path, capsys):
        from repro.cli import main

        stream = self._write_queries(tmp_path)
        code = main(
            [
                "serve",
                "--queries",
                str(stream),
                "--paper-seed",
                "8",
                "--no-history",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "q1" in output and "q2" in output
        assert "2 queries" in output

    def test_serve_json_document(self, tmp_path, capsys):
        from repro.cli import main

        stream = self._write_queries(tmp_path)
        out = tmp_path / "decisions.json"
        code = main(
            [
                "serve",
                "--queries",
                str(stream),
                "--paper-seed",
                "8",
                "--no-history",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        document = json.loads(out.read_text())
        assert document["summary"]["queries"] == 2
        assert {d["id"] for d in document["decisions"]} == {"q1", "q2"}

    def test_serve_rejects_bad_queries(self, tmp_path, capsys):
        from repro.cli import main

        stream = tmp_path / "bad.jsonl"
        stream.write_text('{"path": ["n0", "ghost"], "demand_mbps": 1}\n')
        code = main(
            [
                "serve",
                "--queries",
                str(stream),
                "--paper-seed",
                "8",
                "--no-history",
            ]
        )
        assert code == 2
        assert "unroutable path" in capsys.readouterr().err

    def test_serve_history_record(self, tmp_path, capsys):
        from repro.cli import main

        stream = self._write_queries(tmp_path)
        history = tmp_path / "history"
        code = main(
            [
                "serve",
                "--queries",
                str(stream),
                "--paper-seed",
                "8",
                "--trace-json",
                str(tmp_path / "trace.json"),
                "--history-dir",
                str(history),
            ]
        )
        assert code == 0
        from repro.obs.history import HistoryStore

        records = list(HistoryStore(str(history)).runs())
        assert len(records) == 1
        assert records[0]["counters"]["serve.queries"] == 2
