import numpy as np
import pytest

from blkp.graphrep import NormalizationScheme, build_graph, graph_union, own_major_pairs
from blkp.instance import BlkpInstance, GenConfig, generate


def test_scheme_arithmetic():
    inst = BlkpInstance(1, 1, a1=[500], d1=[250], a2=[100], d2=[200], c=[300],
                        b=400)
    g = build_graph(inst)
    assert np.allclose(g.leader_feats[0], [0.5, 0.25])
    assert np.allclose(g.follower_feats[0], [0.1, 0.2, 0.3])
    assert g.cap_feats.tolist() == [400 / 600]


def test_cap_feat_equals_alpha_without_rounding():
    # pick weights whose total makes alpha * total an integer
    inst = BlkpInstance(2, 2, a1=[100, 100], d1=[1, 1], a2=[100, 100],
                        d2=[1, 1], c=[1, 1], b=300)
    g = build_graph(inst)
    assert g.cap_feats.tolist() == [0.75]


def test_node_count():
    inst = generate(GenConfig(7, 5, seed=3))
    g = build_graph(inst)
    assert (g.n1, g.n2, len(g.cap_feats)) == (7, 5, 1)
    assert g.leader_feats.shape == (7, 2)
    assert g.follower_feats.shape == (5, 3)


def test_permutation_of_followers():
    inst = generate(GenConfig(4, 6, seed=8))
    g = build_graph(inst)
    perm = np.random.default_rng(0).permutation(6)
    permuted = BlkpInstance(4, 6, inst.a1, inst.d1, inst.a2[perm],
                            inst.d2[perm], inst.c[perm], inst.b)
    g2 = build_graph(permuted)
    assert np.array_equal(g2.leader_feats, g.leader_feats)
    assert np.array_equal(g2.follower_feats, g.follower_feats[perm])


def test_invertible_up_to_normalization():
    inst = generate(GenConfig(5, 5, seed=12))
    norm = NormalizationScheme()
    g = build_graph(inst, norm)
    a1 = np.rint(g.leader_feats[:, 0] * norm.value_scale).astype(int)
    assert np.array_equal(a1, inst.a1)
    b = np.rint(g.cap_feats[0] * inst.total_weight).astype(int)
    assert b == inst.b


def test_union_stacks_graphs_in_order():
    insts = [generate(GenConfig(n1, n2, seed=20 + n1)) for n1, n2 in ((2, 3), (1, 1), (4, 2))]
    graphs = [build_graph(inst) for inst in insts]
    u = graph_union(graphs)
    assert (u.n1, u.n2, len(u.cap_feats)) == (7, 6, 3)
    assert u.n1s.tolist() == [2, 1, 4] and u.n2s.tolist() == [3, 1, 2]
    assert np.array_equal(u.leader_feats, np.concatenate([g.leader_feats for g in graphs]))
    assert np.array_equal(u.follower_feats, np.concatenate([g.follower_feats for g in graphs]))
    assert u.cap_feats.tolist() == [g.cap_feats[0] for g in graphs]


def test_own_major_pairs_stay_within_each_graph():
    other_rows, seg, by_other, other_starts = own_major_pairs(np.array([2, 1]), np.array([3, 2]))
    own_rows = np.repeat(np.arange(len(seg.counts)), seg.counts)
    # graph 0: own 0-1 x other 0-2; graph 1: own 2 x other 3-4
    assert own_rows.tolist() == [0, 0, 0, 1, 1, 1, 2, 2]
    assert other_rows.tolist() == [0, 1, 2, 0, 1, 2, 3, 4]
    assert seg.counts.tolist() == [3, 3, 2] and seg.starts.tolist() == [0, 3, 6]
    assert by_other.tolist() == [0, 3, 1, 4, 2, 5, 6, 7]
    assert other_starts.tolist() == [0, 2, 4, 6, 7]


@pytest.mark.parametrize("n_own, n_other", [([2, 1], [3, 2]), ([1, 4, 2, 3], [3, 1, 5, 2])])
def test_other_major_order_is_the_transposed_index(n_own, n_other):
    other_rows, seg, by_other, other_starts = own_major_pairs(np.array(n_own), np.array(n_other))
    own_rows = np.repeat(np.arange(len(seg.counts)), seg.counts)
    assert np.array_equal(by_other, np.argsort(other_rows, kind="stable"))
    # the order lists the pairs as the other-major index of the union does
    t_rows, t_seg = own_major_pairs(np.array(n_other), np.array(n_own))[:2]
    assert np.array_equal(own_rows[by_other], t_rows)
    assert np.array_equal(other_rows[by_other], np.repeat(np.arange(len(t_seg.counts)),
                                                          t_seg.counts))
    assert np.array_equal(other_starts, t_seg.starts)


def test_unions_of_one_shape_share_read_only_pairs():
    a, b = (build_graph(generate(GenConfig(3, 4, seed=s))) for s in (1, 2))
    assert a.pairs is b.pairs
    for pa, pb in zip(a.pairs, b.pairs):
        assert all(x is y for x, y in zip(pa, pb)) and len(pa) == 4
        for arr in (pa[0], pa[1].counts, pa[1].starts, pa[1].block_rows, pa[2], pa[3]):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
    ab, ba = graph_union([a, b]), graph_union([b, a])
    assert ab.pairs[0][0] is ba.pairs[0][0]
    assert ab.pairs[0][0] is not a.pairs[0][0]
    c = build_graph(generate(GenConfig(4, 3, seed=3)))  # the transposed shape
    assert c.pairs[0][0] is not a.pairs[0][0]
    assert np.array_equal(c.pairs[0][0], a.pairs[1][0])


def test_normalization_version_is_not_a_field():
    # a scheme built with version 2 would save a checkpoint that no load reads
    with pytest.raises(TypeError):
        NormalizationScheme(version=2)
    assert NormalizationScheme(value_scale=10.0).to_dict() == {"value_scale": 10.0, "version": 1}
