import hashlib
import itertools

import numpy as np
import pytest

from mewvote import (
    GenSpec,
    MallowsModel,
    PartialChain,
    PartitionedPreference,
    ValidationError,
    generate,
    kendall_tau,
    mallows_probability,
    serialize_profile,
    validate,
)
from mewvote.generators import KINDS, _rsm_poset


@pytest.mark.parametrize("kind,extra", [
    ("poset", {}),
    ("partitioned_full", {"k": 3}),
    ("partitioned_partial", {"k": 3}),
    ("chain", {"k": 4}),
    ("truncated", {"t": 2, "b": 1}),
    ("mallows", {}),
    ("rim", {}),
    ("rsm", {}),
    ("mallows_po", {}),
    ("mallows_fp", {"k": 2}),
    ("mallows_tr", {"t": 1, "b": 1}),
])
def test_generated_structures_are_valid(kind, extra):
    prof = generate(GenSpec(kind=kind, m=6, n=12, phi=0.6, p_max=0.4, seed=5, **extra))
    assert prof.n == 12
    for v in prof.voters:
        if v.observation is not None:
            validate(v.observation, prof.candidates)


def test_same_seed_gives_identical_bytes():
    spec = GenSpec(kind="poset", m=7, n=25, phi=0.4, p_max=0.3, seed=12)
    assert serialize_profile(generate(spec)) == serialize_profile(generate(spec))


def test_different_seed_changes_profile():
    a = GenSpec(kind="poset", m=7, n=25, phi=0.4, p_max=0.3, seed=12)
    b = GenSpec(kind="poset", m=7, n=25, phi=0.4, p_max=0.3, seed=13)
    assert serialize_profile(generate(a)) != serialize_profile(generate(b))


def test_adding_voters_preserves_earlier_ones():
    small = generate(GenSpec(kind="poset", m=6, n=5, phi=0.5, p_max=0.3, seed=7))
    large = generate(GenSpec(kind="poset", m=6, n=9, phi=0.5, p_max=0.3, seed=7))
    assert large.voters[:5] == small.voters


def test_zero_edge_probability_gives_empty_posets():
    prof = generate(GenSpec(kind="poset", m=6, n=10, phi=0.5, p_max=0.0, seed=3))
    assert all(v.observation is None for v in prof.voters)


def test_certain_edges_give_total_orders():
    rng = np.random.default_rng(0)
    poset = _rsm_poset(6, 0.5, 1.0, rng, edge_probs=np.ones(5))
    assert len(poset.pairs) == 15  # every pair emitted: a complete order


def test_full_partition_with_m_buckets_is_a_ranking():
    prof = generate(GenSpec(kind="partitioned_full", m=5, n=8, k=5, seed=2))
    for v in prof.voters:
        assert all(len(b) == 1 for b in v.observation.buckets)


def test_single_bucket_carries_no_information():
    prof = generate(GenSpec(kind="partitioned_full", m=5, n=8, k=1, seed=2))
    for v in prof.voters:
        assert len(v.observation.buckets) == 1


def test_buckets_are_never_empty():
    for seed in range(40):
        prof = generate(GenSpec(kind="partitioned_partial", m=6, n=5, k=3, seed=seed))
        for v in prof.voters:
            assert all(len(b) >= 1 for b in v.observation.buckets)


def test_full_length_chain_is_a_complete_ranking():
    prof = generate(GenSpec(kind="chain", m=5, n=6, k=5, seed=4))
    for v in prof.voters:
        assert isinstance(v.observation, PartialChain)
        assert sorted(v.observation.chain) == list(range(5))


def test_truncated_covering_everything_is_a_complete_ranking():
    prof = generate(GenSpec(kind="truncated", m=5, n=6, t=3, b=2, seed=4))
    for v in prof.voters:
        assert len(v.observation.middle(5)) == 0


def test_combined_profiles_share_model_with_private_observations():
    prof = generate(GenSpec(kind="mallows_po", m=6, n=20, phi=0.7, p_max=0.8, seed=9))
    models = {v.model for v in prof.voters}
    assert models == {MallowsModel(tuple(range(6)), 0.7)}
    assert any(v.observation is not None for v in prof.voters)
    prof_fp = generate(GenSpec(kind="mallows_fp", m=6, n=10, phi=0.7, k=2, seed=9))
    assert all(isinstance(v.observation, PartitionedPreference) for v in prof_fp.voters)
    assert all(v.observation.is_fully_partitioned(6) for v in prof_fp.voters)


def test_mallows_samples_have_expected_distance():
    m, phi, n = 4, 0.5, 10_000
    model = MallowsModel(tuple(range(m)), phi)
    probs = {r: mallows_probability(r, model) for r in itertools.permutations(range(m))}
    mean = sum(p * kendall_tau(model.sigma, r) for r, p in probs.items())
    var = sum(p * (kendall_tau(model.sigma, r) - mean) ** 2 for r, p in probs.items())
    from mewvote import sample

    rng = np.random.default_rng(17)
    draws = [kendall_tau(model.sigma, sample(model, rng)) for _ in range(n)]
    assert abs(np.mean(draws) - mean) < 3 * np.sqrt(var / n)


def test_parameter_validation():
    with pytest.raises(ValidationError):
        GenSpec(kind="nope", m=5, n=3)
    with pytest.raises(ValidationError):
        GenSpec(kind="poset", m=5, n=3, phi=0.0)
    with pytest.raises(ValidationError):
        GenSpec(kind="truncated", m=5, n=3, t=4, b=2)
    from mewvote import InvalidK

    with pytest.raises(InvalidK):
        GenSpec(kind="chain", m=5, n=3, k=9)


@pytest.mark.parametrize("fields,message", [
    ({"m": 1}, "need m >= 2 and n >= 1"),
    ({"n": 0}, "need m >= 2 and n >= 1"),
    ({"p_max": 1.5}, r"p_max must be in \[0, 1\], got 1.5"),
    ({"p_max": -0.1}, r"p_max must be in \[0, 1\], got -0.1"),
    # the integer rule for m, n, k when given, t and b (the seed's is a count's, at least 0)
    ({"m": 5.5}, "^m must be an integer, got 5.5$"),
    ({"n": True}, "^n must be an integer, got True$"),
    ({"k": 2.0}, "^k must be an integer, got 2.0$"),
    ({"t": 1.0}, "^t must be an integer, got 1.0$"),
    ({"b": "1"}, "^b must be an integer, got '1'$"),
])
def test_spec_sizes_and_edge_probability_are_checked(fields, message):
    with pytest.raises(ValidationError, match=message) as info:
        GenSpec(**{"kind": "poset", "m": 5, "n": 3, **fields})
    assert type(info.value) is ValidationError


def test_spec_stores_plain_ints():
    spec = GenSpec(kind="chain", m=np.int64(5), n=np.int32(3), k=np.int64(2), t=np.int8(1),
                   b=np.int64(0), seed=np.uint16(4))
    assert all(type(getattr(spec, name)) is int for name in ("m", "n", "k", "t", "b", "seed"))
    assert spec == GenSpec(kind="chain", m=5, n=3, k=2, t=1, b=0, seed=4)


# sha256 of each kind's document at m=6, n=5, p_max 0.4, k=3, t=2, b=1, seed 11: every
# benchmark workload, the differential record and the criteria read these bytes
GENERATED_SHA256 = {
    "poset": "b7a91c072032090df9e7fe071c8500f8d2abe5fe7e9a14ab6f6be13609d888b4",
    "partitioned_full": "5e60cfe4820ae73cb4d8ca245fdcda688464e5b218a0baea79b706e86cfef38c",
    "partitioned_partial": "2a4055f5acda5c92d55e86c948243347a6b091e5b2923aecdd2ac62dc565da65",
    "chain": "0189170fffea190ac0d14173eeedfb5574c9a419666c7060f822eb589ecca0aa",
    "truncated": "0b50e4ba4e6b9777c8769d955d844d27cda994599c0fc804f7b77a0cfbb566f1",
    "mallows": "17de6342f7b4e876fb7e7392765331a20ed89dbf52ccd8c9974788fc6860724b",
    "rim": "424aab78493e7722cd96c58cd95c45127e74e1a2772a32d08b00930955d2c722",
    "rsm": "2c6c74f0c754a17a0fde80d5ea42b34d888ac22cddd3b5c8d1ab79e169123cc3",
    "mallows_po": "809b8818ffe5f6da6eeb880356049983df58b79667b8528a21d78e4b48b8c5c3",
    "mallows_fp": "fb2b75499864435ed3912fcb7fdf80e724d5cf72105e9158ebff7977ae2aa1bf",
    "mallows_tr": "6d2a832500db1d9f60e2fb105bd5d348877534acea85dcf5b4a6fd02975a37e1",
}


def test_generated_profiles_are_byte_stable():
    assert KINDS == tuple(GENERATED_SHA256)  # the differential's matrix and the CLI's order
    for kind, digest in GENERATED_SHA256.items():
        spec = GenSpec(kind=kind, m=6, n=5, p_max=0.4, k=3, t=2, b=1, seed=11)
        text = serialize_profile(generate(spec))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, kind
