"""Teaching algorithms against their sequential oracles."""

from __future__ import annotations

import random
from enum import IntEnum
from fractions import Fraction

import pytest

from bspkit import MachineConfig, algorithms, mkpar, run
from bspkit.algorithms import (
    ABSENT,
    ALGORITHMS,
    DEFAULT_HASH_SEED,
    Body,
    broadcast,
    build_program,
    distribute,
    gen_bodies,
    gen_keys,
    hash_build,
    hash_lookup,
    key_hash,
    key_owner,
    key_owners,
    mix64,
    nbody_step,
    reduce,
    ring_shift,
    sample_sort,
    scan,
    seq_lookup,
    seq_nbody_step,
    seq_sort,
    total_exchange,
    tree_fold,
)
from bspkit.engine import RunContext
from bspkit.errors import UsageError, ValidationError

M = lambda p: MachineConfig(p=p, g=1.0, l=10.0)


class Colour(IntEnum):
    RED = 1
    WIDE = 2**64 - 1


class TestBroadcast:
    def test_p1_h0(self):
        report = run(lambda: broadcast(0, (7,)), M(1))
        assert report.trace.steps[0].h == 0

    def test_p4_unit_value_h3(self):
        report = run(lambda: broadcast(0, 5), M(4))
        assert report.trace.steps[0].h == 3
        assert report.trace.sync_count == 1

    def test_value_identical_at_every_pid(self):
        from bspkit import gather

        def program():
            pv = broadcast(2, ("x", "y"))
            return gather(0, pv)

        assert run(program, M(4)).result == [("x", "y")] * 4


class TestCollectiveClosedForms:
    @pytest.mark.parametrize("p", [1, 2, 3, 8])
    @pytest.mark.parametrize("n", [1, 10])
    def test_total_exchange(self, p, n):
        trace = run(build_program("total-exchange", n, 0), M(p)).trace
        assert trace.steps[0].h == (p - 1) * n
        assert trace.total_words == p * (p - 1) * n

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_ring_shift(self, p):
        trace = run(build_program("ring-shift", 4, 0), M(p)).trace
        want_h = 4 if p > 1 else 0
        assert trace.steps[0].h == want_h
        assert trace.total_words == (p * 4 if p > 1 else 0)

    def test_total_exchange_payload_values(self):
        got = run(lambda: total_exchange(2), M(3)).result
        assert got[1][0] == (1, 1)  # 10*0 + 1, twice
        assert got[0][2] == (20, 20)

    def test_ring_shift_payload_values(self):
        got = run(lambda: ring_shift(3), M(4)).result
        for d in range(4):
            assert got[d][(d - 1) % 4] == ((d - 1) % 4,) * 3


class TestReduceScan:
    def test_reduce_add(self):
        got = run(lambda: reduce(lambda a, b: a + b, mkpar(lambda i: i + 1, work=0)), M(4)).result
        assert got == 10

    def test_scan_ones(self):
        got = run(lambda: scan(lambda a, b: a + b, mkpar(lambda i: 1, work=0)), M(4)).result
        assert list(got) == [1, 2, 3, 4]

    def test_reduce_max_random_oracle(self):
        rng = random.Random(0)
        for _ in range(100):
            p = rng.choice([1, 2, 3, 4, 8])
            vals = [rng.randint(-10**6, 10**6) for _ in range(p)]
            got = run(lambda vals=vals: reduce(max, mkpar(lambda i: vals[i], work=0)), M(p)).result
            assert got == max(vals)

    def test_tree_fold_is_left_balanced(self):
        pairs = []
        tree_fold(lambda a, b: pairs.append((a, b)) or f"({a}.{b})", ["a", "b", "c", "d", "e"])
        assert pairs == [("a", "b"), ("c", "d"), ("(a.b)", "(c.d)"), ("((a.b).(c.d))", "e")]

    def test_scan_left_fold_order(self):
        got = run(lambda: scan(lambda a, b: f"({a}.{b})", mkpar(lambda i: "abcd"[i], work=0)), M(4)).result
        assert list(got) == ["a", "(a.b)", "((a.b).c)", "(((a.b).c).d)"]


class TestSampleSort:
    def test_p1_sorted_block_unchanged(self):
        xs = [1, 2, 3, 4, 5]
        got = run(lambda: sample_sort(distribute(xs)), M(1)).result
        assert got.to_list() == xs

    def test_random_keys_match_oracle_and_sync_is_size_independent(self):
        syncs = {}
        for n in (1000, 10000):
            xs = gen_keys(n, seed=42)
            report = run(lambda xs=xs: sample_sort(distribute(xs)), M(4))
            assert report.result.to_list() == seq_sort(xs)
            syncs[n] = report.trace.sync_count
        assert syncs[1000] == syncs[10000]

    def test_exactly_three_data_bearing_supersteps(self):
        xs = gen_keys(2000, seed=8)
        trace = run(lambda: sample_sort(distribute(xs)), M(4)).trace
        assert sum(1 for s in trace.steps if s.words > 0) == 3

    def test_all_equal_keys_balanced(self):
        xs = [7] * 4000
        got = run(lambda: sample_sort(distribute(xs)), M(4)).result
        assert got.to_list() == xs
        assert max(got.sizes()) <= 2 * 4000 / 4 + 4

    @pytest.mark.parametrize("dist", ["uniform", "sorted", "reverse", "equal"])
    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_balance_bound(self, dist, p):
        xs = gen_keys(3000, seed=5, distribution=dist)
        got = run(lambda: sample_sort(distribute(xs)), M(p)).result
        assert got.to_list() == seq_sort(xs)
        assert max(got.sizes()) <= 2 * 3000 / p + p

    def test_empty_input(self):
        got = run(lambda: sample_sort(distribute([])), M(4)).result
        assert got.to_list() == []

    def test_splitters_sorted_once(self, monkeypatch):
        # p=16, 100 keys a block: the root gathers p samples from each pid, and
        # only the splitter step sorts all p*p of them
        p, xs = 16, gen_keys(1600, seed=3)
        sizes = []

        def counting_sorted(iterable, **kwargs):
            out = sorted(iterable, **kwargs)
            sizes.append(len(out))
            return out

        monkeypatch.setattr(algorithms, "sorted", counting_sorted, raising=False)
        got = run(lambda: sample_sort(distribute(xs)), M(p)).result
        assert got.to_list() == seq_sort(xs)
        assert sizes.count(p * p) == 1


class TestNBody:
    def test_single_body_drifts_at_constant_velocity(self):
        b = Body(pos=(1.0, 2.0), vel=(0.5, -0.25), mass=3.0)
        got = run(lambda: nbody_step(distribute([b]), dt=2.0), M(1)).result.to_list()
        assert got == [Body(pos=(2.0, 1.5), vel=(0.5, -0.25), mass=3.0)]

    def test_two_equal_masses_momentum_nearly_conserved(self):
        a = Body(pos=(-1.0, 0.0), vel=(0.0, 0.3), mass=2.0)
        b = Body(pos=(1.0, 0.0), vel=(0.0, -0.3), mass=2.0)
        got = run(lambda: nbody_step(distribute([a, b]), dt=0.1), M(2)).result.to_list()
        px = sum(bd.mass * bd.vel[0] for bd in got)
        py = sum(bd.mass * bd.vel[1] for bd in got)
        scale = sum(bd.mass * (abs(bd.vel[0]) + abs(bd.vel[1])) for bd in got) + 1.0
        assert abs(px) <= 1e-12 * scale
        assert abs(py) <= 1e-12 * scale

    def test_matches_oracle_bit_exactly_for_all_p(self):
        bodies = gen_bodies(24, seed=3)
        want = seq_nbody_step(bodies, dt=0.01)
        for p in (1, 2, 4, 8):
            got = run(lambda: nbody_step(distribute(bodies), dt=0.01), M(p)).result.to_list()
            assert got == want, f"p={p}"

    @pytest.mark.parametrize("backend", ["simulate", "parallel"])
    def test_int_and_fraction_bodies_match_oracle_bit_exactly(self, backend):
        # exact int and Fraction differences round differently from float64 ones
        bodies = [
            Body(pos=(Fraction(1, 3), 0), vel=(0, 1), mass=1),
            Body(pos=(1, Fraction(2, 7)), vel=(0.5, 0), mass=Fraction(3, 2)),
            Body(pos=(-0.75, 2), vel=(0, 0), mass=2),
            Body(pos=(2**60 + 1, 3), vel=(0, 0), mass=1),
        ]
        want = seq_nbody_step(bodies, dt=0.01)
        for p in (1, 2, 3):
            assert run(lambda: nbody_step(distribute(bodies), dt=0.01), M(p), backend=backend).result.to_list() == want, p

    def test_superstep_count_independent_of_n(self):
        counts = set()
        for n in (4, 32):
            bodies = gen_bodies(n, seed=1)
            trace = run(lambda bodies=bodies: nbody_step(distribute(bodies), dt=0.01), M(4)).trace
            counts.add(trace.sync_count)
            assert sum(1 for s in trace.steps if s.words > 0) == 2  # the two replications
        assert len(counts) == 1

    def test_nonfinite_input_rejected(self):
        bad = Body(pos=(float("nan"), 0.0), vel=(0.0, 0.0), mass=1.0)
        with pytest.raises(ValidationError):
            seq_nbody_step([bad], dt=0.1)

    def test_bad_dt_rejected(self):
        with pytest.raises(ValidationError):
            run(lambda: nbody_step(distribute(gen_bodies(2, 0)), dt=0.0), M(1))


class TestHashing:
    def test_mix64_reference_values(self):
        # mix64(x) = first splitmix64 output for seed x; 0xE220... is the
        # published vector for seed 0, the others computed from the reference
        # stream algorithm independently
        assert mix64(0) == 0xE220A8397B1DCDAF
        assert mix64(1) == 0x910A2DEC89025CC1
        assert mix64(2) == 0x975835DE1C9756CE

    @pytest.mark.parametrize(
        "keys",
        [
            [0, 2**64 - 1, 2**64, -1],
            [True, False, 1, 0],
            [Colour.RED, Colour.WIDE, 2**64 - 1],
            [1, "a", b"b", (1, "x"), 2**64, "", True, (), b"", -(2**70)],
            ["only", b"text", ("and", b"tuples")],
            [],
        ],
    )
    def test_key_owners_equal_key_hash_of_each_key(self, keys):
        for seed in (0, DEFAULT_HASH_SEED, -1, 2**64 + 3):
            for p in (1, 2, 7, 16):
                assert key_owners(keys, seed, p) == [key_hash(k, seed) % p for k in keys], (seed, p)

    def test_key_hash_deterministic_across_types(self):
        assert key_hash("alpha", 1) == key_hash("alpha", 1)
        assert key_hash(b"alpha", 1) != key_hash("beta", 1)
        assert key_hash(123, 1) != key_hash(123, 2)

    def test_empty_table_lookups_absent(self):
        def program():
            table = hash_build([])
            return hash_lookup(table, distribute(["a", "b", "c"]))

        got = run(program, M(4)).result.to_list()
        assert got == [ABSENT, ABSENT, ABSENT]

    def test_thousand_pairs_match_dict_oracle(self):
        rng = random.Random(12)
        pairs = [(rng.getrandbits(32), rng.randint(0, 10**6)) for _ in range(1000)]
        keys = [k for k, _ in rng.sample(pairs, 100)]

        def program():
            table = hash_build(pairs)
            return hash_lookup(table, distribute(keys))

        got = run(program, M(4)).result.to_list()
        assert got == seq_lookup(pairs, keys)

    def test_lookup_costs_two_supersteps_for_any_batch(self):
        pairs = [(k, -k) for k in range(200)]
        build_only = run(lambda: hash_build(pairs), M(4)).trace.sync_count
        for batch in (1, 7, 100, 1000):
            keys = list(range(batch))

            def program(keys=keys):
                return hash_lookup(hash_build(pairs), distribute(keys))

            sync = run(program, M(4)).trace.sync_count
            assert sync - build_only == 2, batch

    def test_statistical_balance(self):
        # uniform hashing: with n >= p ln p the max load stays under 4n/p
        rng = random.Random(77)
        p = 8
        n = 4000
        keys = [rng.getrandbits(48) for _ in range(n)]
        loads = [0] * p
        for k in keys:
            loads[key_owner(k, 0x5EED, p)] += 1
        assert max(loads) <= 4 * n / p

    def test_mixed_key_types_match_dict_oracle(self):
        keys = ["k", "", b"k", b"", -1, -(2**70), 2**64, 2**64 + 5, True, False, 7, (1, "a"), (), ((b"x",), -2)]
        pairs = [(k, i) for i, k in enumerate(keys[::2])]
        queries = keys + ["absent", b"absent", -7, (2,)]

        def program():
            return hash_lookup(hash_build(pairs), distribute(queries))

        for p in (1, 3, 4, 7):
            assert run(program, M(p)).result.to_list() == seq_lookup(pairs, queries), p

    @pytest.mark.parametrize("backend", ["simulate", "parallel"])
    def test_lone_surrogate_keys_match_dict_oracle(self, backend):
        pairs = [("\ud800", 1), ("a\udfffb", 2), ("a", 3)]
        queries = ["a\udfffb", "\ud800", "\udfff", "a"]

        def program():
            return hash_lookup(hash_build(pairs), distribute(queries))

        for p in (1, 3, 4):
            assert run(program, M(p), backend=backend).result.to_list() == seq_lookup(pairs, queries) == [2, 1, ABSENT, 3], p

    @pytest.mark.parametrize("bad_pair_first", [True, False])
    def test_first_malformed_pair_or_unhashable_key_fails(self, bad_pair_first):
        class BadRepr:
            def __repr__(self):
                raise RuntimeError("no repr")

        bad = [(3, 4, 5), (BadRepr(), 0)]
        pairs = [(1, 2), *(bad if bad_pair_first else bad[::-1])]
        with pytest.raises(ValueError if bad_pair_first else RuntimeError):
            run(lambda: hash_build(pairs), M(2))

    def test_duplicate_key_last_write_wins(self):
        def program():
            table = hash_build([("k", 1), ("k", 2)])
            return hash_lookup(table, distribute(["k"]))

        assert run(program, M(2)).result.to_list() == [2]


class TestElementPasses:
    @pytest.mark.parametrize("p", [1, 4, 7])
    @pytest.mark.parametrize("name, passes", [("samplesort", 6), ("hashlookup", 5), ("nbody", 3), ("reduce", 2), ("scan", 2)])
    def test_one_map_pids_pass_per_local_map(self, monkeypatch, name, passes, p):
        # a function vector of replicated code costs no pass of its own
        calls = []
        map_pids = RunContext.map_pids
        monkeypatch.setattr(RunContext, "map_pids", lambda ctx, *args, **kw: calls.append(1) or map_pids(ctx, *args, **kw))
        run(build_program(name, 40, 1), M(p))
        assert len(calls) == passes


class TestGeneratorsAndRegistry:
    def test_gen_keys_deterministic(self):
        assert gen_keys(10, 3) == gen_keys(10, 3)
        assert gen_keys(10, 3) != gen_keys(10, 4)
        assert gen_keys(5, 0, "sorted") == sorted(gen_keys(5, 0, "sorted"))
        assert gen_keys(5, 0, "equal") == [42] * 5

    def test_unknown_distribution(self):
        with pytest.raises(UsageError):
            gen_keys(5, 0, "zipf")

    def test_unknown_algorithm(self):
        with pytest.raises(UsageError):
            build_program("quicksort", 10, 0)

    def test_every_registered_algorithm_runs(self):
        for name in ALGORITHMS:
            report = run(build_program(name, 12, seed=6), M(4))
            assert report.trace.total_cost >= 0.0
