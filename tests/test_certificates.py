"""The certificate writer: json.dumps's sorted, indent=2 bytes, written
without its pure-Python encoder, in bounded extra memory."""

import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moran import certificates
from moran.certificates import dumps, tile_certificate
from moran.config import parse_config_text
from moran.tiling import aggregate, build_complement

EX1 = "N = 2\nb.period = 18\nt.period = 1 4\n"

INTS = st.integers() | st.integers(-(2**70), 2**70) | st.sampled_from([2**64, -(2**64) - 1, 0])
LEAVES = (
    st.none()
    | st.booleans()
    | INTS
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 1e300, -1e-300, 0.1])
    | st.text()
)


def _long_ints(n, seed, with_bool):
    # longer than one run of the writer, so its runs are joined
    rng = random.Random(seed)
    values = [rng.randint(-(2**80), 2**80) for _ in range(n)]
    if with_bool:
        values[rng.randrange(n)] = rng.choice([True, False])
    return values


LONG_INT_LISTS = st.builds(
    _long_ints,
    st.integers(certificates._RUN - 1, 2 * certificates._RUN + 1),
    st.integers(0, 2**32),
    st.booleans(),
)
INT_LISTS = st.lists(INTS | st.booleans(), max_size=12)
TREES = st.recursive(
    LEAVES | INT_LISTS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=24,
)


def reference(value):
    return json.dumps(value, sort_keys=True, indent=2, allow_nan=False) + "\n"


@settings(max_examples=250, deadline=None)
@given(tree=TREES)
def test_dumps_writes_the_json_module_bytes(tree):
    assert dumps(tree) == reference(tree)


@settings(max_examples=20, deadline=None)
@given(values=LONG_INT_LISTS, tree=TREES, key=st.text())
def test_dumps_joins_runs_of_long_integer_lists(values, tree, key):
    cert = {key: tree, "payload": {"levels": [{"elements": values}, []], "none": {}}}
    assert dumps(cert) == reference(cert)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_dumps_refuses_non_finite_floats(bad):
    with pytest.raises(ValueError):
        dumps({"payload": {"levels": [{"tail_bound": bad}], "k": [1, 2, bad]}})
    with pytest.raises(ValueError):
        dumps({"elements": [1, 2, bad]})


def test_dumps_peak_memory_stays_near_the_text():
    # 65,536 alternating-system elements, about 1.9 MB of text: the pieces
    # and the joined text, with no second copy of the whole
    system = parse_config_text(EX1).system()
    agg = aggregate(system, 16)
    cert = tile_certificate("0" * 64, agg, build_complement(system, 16))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        text = dumps(cert)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(agg.elements) == 2**16
    assert peak < 3 * len(text)


@settings(max_examples=300, deadline=None)
@given(INTS, st.sampled_from([2, 3, 5]), st.integers(0, 40))
def test_denormalized_text_is_the_fraction_text(e, N, m):
    assert certificates._scaled_text(e, N**m) == str(Fraction(e, N**m))
