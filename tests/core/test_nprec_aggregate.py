"""NPRecModel._aggregate projects each hop's layer-0 vectors once.

The fold loop reads the attention inputs from the same per-hop base
vectors it aggregates, instead of projecting them again. The reference
below is the earlier recomputing implementation, kept verbatim: the two
must agree on forward values and on every parameter gradient.
"""

from typing import Sequence

import numpy as np
import pytest

from repro.core.nprec import NPRecModel
from repro.data import load_acm
from repro.graph import build_academic_network
from repro.nn import Tensor, softmax


def recomputing_aggregate(self, paper_indices: Sequence[int], view: str) -> Tensor:
    """H-hop aggregation of *paper_indices* under *view*: ``(B, dim)``.

    Standard KGCN layered iteration: hop ``h`` of the receptive field
    holds ``B * K^h`` node indices; each of the H iterations folds the
    outermost remaining hop into its centres with attention-weighted
    sums (Eqs. 15-18), until only the batch's own vectors remain.
    """
    indices = np.asarray(paper_indices, dtype=int)
    batch = indices.shape[0]
    k = self.neighbor_k
    d = self.dim
    layers = self._stacked_layers(indices, view)
    weight_stack = (self.interest_layers if view == "interest"
                    else self.influence_layers)

    values = [self._base_vectors(layer) for layer in layers]
    for i in range(self.depth):
        layer_module = weight_stack[i]
        folded: list[Tensor] = []
        for h in range(self.depth - i):
            centre_count = batch * k**h
            centre_base = self._base_vectors(layers[h])       # (C, d)
            neigh_base = self._base_vectors(layers[h + 1])    # (C*K, d)
            # Attention over sampled neighbours (Eq. 16); scores come
            # from base embeddings as in KGCN.
            scores = (centre_base.reshape(centre_count, 1, d)
                      * neigh_base.reshape(centre_count, k, d)).sum(axis=2)
            attention = softmax(scores, axis=-1)              # (C, K)
            neighbourhood = (attention.reshape(centre_count, k, 1)
                             * values[h + 1].reshape(centre_count, k, d)
                             ).sum(axis=1)                    # (C, d)
            # tanh keeps representations zero-centred so that inner-
            # product scores can swing negative (sigmoid outputs would
            # force every pair logit positive).
            folded.append(layer_module(values[h] + neighbourhood).tanh())
        values = folded
    return values[0]


@pytest.fixture(scope="module")
def graph_and_text():
    corpus = load_acm(scale=0.2, seed=50)
    train, new = corpus.split_by_year(2014)
    everyone = train + new
    graph = build_academic_network(corpus, papers=everyone,
                                   citation_whitelist={p.id for p in train})
    rng = np.random.default_rng(0)
    text = {p.id: rng.normal(size=10) for p in everyone}
    return graph, text, train


def _model(graph_and_text, depth: int) -> tuple[NPRecModel, np.ndarray]:
    graph, text, train = graph_and_text
    model = NPRecModel(graph, text, dim=8, neighbor_k=3, depth=depth, seed=0)
    indices = np.array([graph.index_of("paper", p.id) for p in train[:5]])
    return model, indices


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_base_vectors_projected_once_per_hop(graph_and_text, monkeypatch, depth):
    model, indices = _model(graph_and_text, depth)
    calls = []
    original = NPRecModel._base_vectors

    def counting(self, layer):
        calls.append(len(layer))
        return original(self, layer)

    monkeypatch.setattr(NPRecModel, "_base_vectors", counting)
    model._aggregate(indices, "interest")
    assert len(calls) == depth + 1


@pytest.mark.parametrize("view", ["interest", "influence"])
def test_matches_recomputing_reference(graph_and_text, view):
    model, indices = _model(graph_and_text, depth=2)
    weights = np.random.default_rng(3).normal(size=(len(indices), model.dim))

    def run(aggregate):
        model.zero_grad()
        out = aggregate(model, indices, view)
        (out * Tensor(weights)).sum().backward()
        return out.data, {name: None if p.grad is None else p.grad.copy()
                          for name, p in model.named_parameters()}

    ours, our_grads = run(NPRecModel._aggregate)
    reference, reference_grads = run(recomputing_aggregate)
    np.testing.assert_allclose(ours, reference, rtol=0, atol=1e-12)
    assert our_grads.keys() == reference_grads.keys()
    touched = 0
    for name, expected in reference_grads.items():
        if expected is None:
            assert our_grads[name] is None, name
            continue
        touched += 1
        np.testing.assert_allclose(our_grads[name], expected,
                                   rtol=0, atol=1e-12, err_msg=name)
    assert touched > 0
