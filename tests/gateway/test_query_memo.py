"""The HTTP door's memo: a SPARQL text is compiled and walked once.

``Gateway.handle_http`` keeps an LRU from each text that compiled to its
walk (:func:`repro.serve.canonical.walk`), sized by the runtime's
``answer_cache_size``; a repeated text goes to the runtime as that walk,
so neither the compiler nor the walk runs again.  These tests call the
door directly — the socket in front of it is ``tests/serve``'s business.
"""

import pytest

from repro.gateway import Gateway
from repro.gateway.gateway import MAX_MEMO_TEXT
from repro.serve import ServeConfig, ServeRuntime
from repro.serve import runtime as runtime_module
from repro.sparql import SparqlEngine

pytestmark = pytest.mark.gateway


class Spy:
    """A compile_fn that counts its calls per text."""

    def __init__(self, compile_fn):
        self._compile = compile_fn
        self.calls: list[str] = []

    def __call__(self, text):
        self.calls.append(text)
        return self._compile(text)


def text_of(kg, head: int, relation: int, pad: int = 0) -> str:
    return (f"SELECT ?x WHERE {{ {kg.entity_names[head]} "
            f"{kg.relation_names[relation]} ?x . }}" + " " * pad)


def door(model, kg, **config):
    runtime = ServeRuntime(model, kg=kg, config=ServeConfig(
        max_batch_size=4, num_workers=1, **config))
    spy = Spy(SparqlEngine(kg).compile)
    return runtime, Gateway(runtime, compile_fn=spy), spy


def post(gateway, text, top_k=5):
    return gateway.handle_http({"sparql": text, "top_k": top_k})


class TestQueryMemo:
    def test_a_repeated_text_is_not_compiled_or_walked_again(
            self, model, tiny_kg, monkeypatch):
        runtime, gateway, spy = door(model, tiny_kg)
        head, relation, _ = next(iter(tiny_kg))
        text = text_of(tiny_kg, head, relation)
        with runtime, gateway:
            first = post(gateway, text)
            walks = []
            walk = runtime_module.walk
            monkeypatch.setattr(runtime_module, "walk",
                                lambda q: walks.append(q) or walk(q))
            second = post(gateway, text, top_k=7)  # an answer-cache miss
            stats = gateway.stats()["query_memo"]
        oracle = model.answer(SparqlEngine(tiny_kg).compile(text), 7)
        assert first[0] == second[0] == 200
        assert spy.calls == [text]
        assert walks == []
        assert second[2]["source"] == "model"
        assert second[2]["entity_ids"] == list(oracle)
        assert (stats["hits"], stats["misses"], stats["size"]) == (1, 1, 1)

    def test_a_text_that_does_not_compile_is_400_every_time_and_not_kept(
            self, model, tiny_kg):
        runtime, gateway, spy = door(model, tiny_kg)
        with runtime, gateway:
            replies = [post(gateway, "SELECT ?x WHERE { nope")
                       for _ in range(3)]
            stats = gateway.stats()["query_memo"]
        assert [status for status, _, _ in replies] == [400] * 3
        assert all("cannot compile" in body["error"]
                   for _, _, body in replies)
        assert len(spy.calls) == 3
        assert stats["size"] == 0

    def test_an_over_long_text_is_never_kept(self, model, tiny_kg):
        runtime, gateway, spy = door(model, tiny_kg)
        head, relation, _ = next(iter(tiny_kg))
        short = text_of(tiny_kg, head, relation)
        long = text_of(tiny_kg, head, relation,
                       pad=MAX_MEMO_TEXT + 1 - len(short))
        assert len(long) == MAX_MEMO_TEXT + 1
        with runtime, gateway:
            assert [post(gateway, long)[0] for _ in range(2)] == [200] * 2
            assert gateway.stats()["query_memo"]["size"] == 0
            at_the_limit = long[:-1]
            assert [post(gateway, at_the_limit)[0]
                    for _ in range(2)] == [200] * 2
            assert gateway.stats()["query_memo"]["size"] == 1
        assert spy.calls == [long, long, at_the_limit]

    @pytest.mark.parametrize("capacity", [1, 3])
    def test_capacity_follows_answer_cache_size(self, model, tiny_kg,
                                                capacity):
        runtime, gateway, spy = door(model, tiny_kg,
                                     answer_cache_size=capacity)
        texts = list(dict.fromkeys(
            text_of(tiny_kg, head, relation)
            for head, relation, _ in tiny_kg))[:capacity + 2]
        with runtime, gateway:
            for text in texts:
                assert post(gateway, text)[0] == 200
            stats = gateway.stats()["query_memo"]
            # the newest `capacity` texts stay; the oldest went
            assert post(gateway, texts[-1])[0] == 200
            assert post(gateway, texts[0])[0] == 200
        assert stats["size"] == capacity
        assert stats["evictions"] == 2
        assert spy.calls == texts + [texts[0]]

    def test_a_graph_that_does_not_walk_is_refused_as_before(
            self, model, tiny_kg):
        """The door walks a fresh text itself; when that raises, the
        graph goes to the runtime, whose one refusal path counts the
        request, records it and raises — nothing is kept."""
        runtime = ServeRuntime(model, kg=tiny_kg, config=ServeConfig(
            max_batch_size=4, num_workers=1))
        gateway = Gateway(runtime, compile_fn=lambda text: "not a graph")
        with runtime, gateway:
            for _ in range(2):
                with pytest.raises(AttributeError):
                    post(gateway, "anything")
            stats = gateway.stats()["query_memo"]
            records = runtime.diag.flight.dump()
        counters = runtime.metrics.snapshot().counters
        assert counters["requests"] == counters["errors"] == 2
        assert [(r.source, r.error) for r in records] == \
            [("error", "AttributeError")] * 2
        assert stats["size"] == 0
