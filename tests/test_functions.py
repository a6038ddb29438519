"""Unit tests for the pure kernels (no Ray needed)."""

import numpy as np
import pytest

from deduplicator_go_ray.functions.hashing import (
    combine64,
    md5_hex,
    mix64,
    rolling_hashes,
    sha256_hex,
)
from deduplicator_go_ray.functions.shingles import char_shingles_u64, jaccard, word_tokens_u64
from deduplicator_go_ray.functions.sizes import format_bytes, parse_size
from deduplicator_go_ray.functions.text import extract_text
from deduplicator_go_ray.functions.textstats import (
    lang_id,
    quality_score,
    token_count_bpe,
    token_count_ws,
)


def test_rolling_hashes_match_bruteforce():
    data = bytes(np.random.default_rng(0).integers(0, 256, 300, dtype=np.uint8))
    for k in (4, 9, 48):
        M = 1 << 64
        expected = []
        for i in range(len(data) - k + 1):
            h = 0
            for j in range(k):
                h = (h * 1000000007 + data[i + j]) % M
            expected.append(h)
        expected = mix64(np.array(expected, dtype=np.uint64))
        assert np.array_equal(expected, rolling_hashes(data, k))


def test_rolling_hashes_short_input():
    assert rolling_hashes(b"ab", 9).size == 0


def test_sha256_matches_hashlib():
    import hashlib

    texts = ["", "hello", "héllo wörld"]
    assert sha256_hex(texts) == [hashlib.sha256(t.encode()).hexdigest() for t in texts]
    assert md5_hex(texts) == [hashlib.md5(t.encode()).hexdigest() for t in texts]


def test_shingles_deterministic_and_set_semantics():
    a = char_shingles_u64("the quick brown fox jumps", 9)
    b = char_shingles_u64("the quick brown fox jumps", 9)
    assert np.array_equal(a, b)
    assert jaccard(a, b) == 1.0
    c = char_shingles_u64("the quick brown cat jumps", 9)
    assert 0.0 < jaccard(a, c) < 1.0
    # shorter than k → single whole-text hash
    assert char_shingles_u64("ab", 9).size == 1
    assert char_shingles_u64("", 9).size == 0


def test_word_tokens_deterministic():
    t1 = word_tokens_u64("Hello World hello")
    t2 = word_tokens_u64("Hello World hello")
    assert np.array_equal(t1, t2)
    assert t1.size == 3
    assert t1[0] == t1[2]  # case-folded


def test_combine64_order_sensitive():
    a = np.array([[1, 2, 3]], dtype=np.uint64)
    b = np.array([[3, 2, 1]], dtype=np.uint64)
    assert combine64(a)[0] != combine64(b)[0]


def test_extract_text_basic():
    html = (b"<html><head><title>My Title</title><style>b{}</style></head>"
            b"<body><nav><a href='http://x'></a></nav><p>Para one.</p>"
            b"<p>Para&amp; two.</p><script>var x;</script></body></html>")
    text, err = extract_text(html)
    assert err is None
    assert text == "My Title\nPara one.\nPara& two."


def test_extract_text_sentinels():
    assert extract_text(b"")[1] == "EMPTY_ERROR"
    assert extract_text(b"<html><body>\xff\xfe</body></html>")[1] == "DECODE_ERROR"
    assert extract_text("<p>café".encode()[:-1])[1] == "DECODE_ERROR"  # cut mid-é
    assert extract_text(b"<p>  </p>")[1] == "EMPTY_ERROR"


def test_extract_text_deterministic():
    html = b"<html><body><p>abc def</p></body></html>"
    assert extract_text(html) == extract_text(html)


def test_parse_size():
    assert parse_size("1024") == 1024
    assert parse_size("1K") == 1024
    assert parse_size("1.5G") == int(1.5 * (1 << 30))
    assert parse_size("2MiB") == 2 << 20
    with pytest.raises(ValueError):
        parse_size("abc")
    assert format_bytes(1234567) == "1,234,567"


def test_token_counts():
    assert token_count_ws("a b  c\n d") == 4
    assert token_count_ws("") == 0
    assert token_count_bpe("hello, world 123") == 4  # hello | , | ␣world | ␣123
    assert token_count_bpe("") == 0


def test_lang_id():
    assert lang_id("the cat and the dog sat on that mat for hours") == "en"
    assert lang_id("der hund und die katze ist nicht mit einem ball") == "de"
    assert lang_id("") == "unknown"


def test_quality_score_ranges():
    good = quality_score("The quick brown fox jumps over the lazy dog. " * 10)
    bad = quality_score("@@@ ### !!! ;;; :::")
    assert 0.0 <= bad <= good <= 1.0


def test_grouped_apply_packed_equals_unpacked(ray_session):
    """The exchange ships each partition as Arrow slices packed by key
    hash; its output equals the partition function applied to the whole,
    unexchanged input."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from deduplicator_go_ray.stages.common import grouped_apply

    rng = np.random.default_rng(5)
    tbl = pa.table({
        "k": pa.array(rng.integers(0, 50, 3000), pa.int64()),
        "v": pa.array(rng.integers(0, 1000, 3000), pa.int64()),
    })
    ds = ray.data.from_arrow(tbl).repartition(6)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("k", sort=True)["v"]
        return pd.DataFrame({"k": g.min().index, "vmin": g.min().values,
                             "cnt": g.size().values})

    a = grouped_apply(ds, ["k"], fn).to_pandas()
    b = fn(tbl.to_pandas())
    a = a[list(b.columns)].sort_values("k").reset_index(drop=True)
    b = b.sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_grouped_apply_contract(ray_session):
    """grouped_apply equals a pandas reference over the whole input at
    every partition count, on the edge inputs of the exchange: empty
    input (with and without ``empty_result``), a ``pre_fn`` that drops
    every row, schema-less zero-row blocks, a dataset list whose column
    orders differ, ``arrow_fn``, and chained exchanges whose middle
    output also feeds a union.  Every case reads its result through
    ``dataset_of``, the edge where a Dataset is built back, so an empty
    result is typed by ``empty_result`` or by `partition_fn`'s own
    zero-row output."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray
    import ray.data

    from deduplicator_go_ray.stages.common import (Blocks, dataset_of,
                                                   grouped_apply)

    rng = np.random.default_rng(5)
    tbl = pa.table({
        "k": pa.array(rng.integers(0, 50, 3000), pa.int64()),
        "v": pa.array(rng.integers(0, 1000, 3000), pa.int64()),
    })
    full = tbl.to_pandas()
    out_empty = pa.table({"k": pa.array([], pa.int64()),
                          "vmin": pa.array([], pa.int64()),
                          "cnt": pa.array([], pa.int64())})

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("k", sort=True)["v"]
        return pd.DataFrame({"k": g.min().index, "vmin": g.min().values,
                             "cnt": g.size().values})

    def fn_arrow(t: pa.Table) -> pa.Table:
        g = t.group_by("k").aggregate([("v", "min"), ("v", "count")])
        return g.select(["k", "v_min", "v_count"]).rename_columns(
            ["k", "vmin", "cnt"])

    def vsum(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("k", as_index=False)["v"].sum()

    twice = vsum(full).assign(v=lambda d: 2 * d["v"])

    def check(out: Blocks, ref: pd.DataFrame) -> None:
        got = dataset_of(out).to_pandas()
        assert len(got) == len(ref)
        if len(ref):
            got = got[list(ref.columns)].sort_values("k").reset_index(drop=True)
            pd.testing.assert_frame_equal(
                got, ref.sort_values("k").reset_index(drop=True),
                check_dtype=False)

    ds = ray.data.from_arrow(tbl).repartition(6).materialize()
    empty = ds.filter(expr="k < 0")
    # zero-row, zero-column blocks between the data blocks
    holes = ray.data.from_arrow_refs(
        [ray.put(pa.table({}))]
        + [ray.put(tbl.slice(i, 500)) for i in range(0, 3000, 500)]
        + [ray.put(pa.table({}))])
    swapped = [ray.data.from_arrow(tbl.slice(0, 1200)),
               ray.data.from_arrow(tbl.slice(1200).select(["v", "k"]))]
    def typed_empty(out: Blocks) -> bool:
        ds = dataset_of(out)
        return (ds.count() == 0
                and ds.schema().base_schema == out_empty.schema)

    for P in (1, 2, 7):
        out = grouped_apply(ds, ["k"], fn, num_partitions=P)
        assert len(out.refs) <= P
        check(out, fn(full))
        assert dataset_of(
            grouped_apply(empty, ["k"], fn, num_partitions=P)).count() == 0
        assert grouped_apply(ds, ["k"], fn, num_partitions=P,
                             pre_fn=lambda t: t.slice(0, 0)) == Blocks()
        assert typed_empty(grouped_apply(empty, ["k"], fn, num_partitions=P,
                                         empty_result=out_empty))
        assert typed_empty(grouped_apply(ds, ["k"], fn, num_partitions=P,
                                         empty_result=out_empty,
                                         pre_fn=lambda t: t.slice(0, 0)))
        assert typed_empty(grouped_apply(ds, ["k"],
                                         lambda df: fn(df).iloc[:0],
                                         num_partitions=P))
        check(grouped_apply(holes, ["k"], fn, num_partitions=P), fn(full))
        check(grouped_apply(swapped, ["k"], fn, num_partitions=P), fn(full))
        check(grouped_apply(ds, ["k"], fn_arrow, num_partitions=P,
                            arrow_fn=True), fn(full))
        a = grouped_apply(ds, ["k"], vsum, num_partitions=P)
        b = grouped_apply(a, ["k"], vsum, num_partitions=P)
        check(grouped_apply(dataset_of(b).union(dataset_of(a)), ["k"], vsum,
                            num_partitions=P), twice)


def test_grouped_apply_keeps_fixed_size_binary(ray_session):
    """An Arrow partition function sees, and returns, a fixed_size_binary
    payload column with its type intact (the signature blob views rely
    on the fixed stride)."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data

    from deduplicator_go_ray.stages.common import grouped_apply

    n = 400
    raw = np.arange(n * 16, dtype=np.uint8).tobytes()
    blob = pa.Array.from_buffers(pa.binary(16), n, [None, pa.py_buffer(raw)])
    tbl = pa.table({"k": pa.array(np.arange(n) % 37, pa.int64()),
                    "value": blob})

    def ident(t: pa.Table) -> pa.Table:
        assert pa.types.is_fixed_size_binary(t["value"].type), t["value"].type
        return t

    ds = ray.data.from_arrow(tbl).repartition(5)
    out = grouped_apply(ds, ["k"], ident, num_partitions=3, arrow_fn=True)
    assert out.schema.field("value").type == pa.binary(16)
    got = out.to_arrow()
    assert sorted(got["value"].to_pylist()) == sorted(blob.to_pylist())


def test_grouped_apply_error_waits_for_every_partition(ray_session, tmp_path):
    """A failing reduce is re-raised only after every other partition
    task has finished: the failing partition writes its marker and
    raises at once, the others sleep 1 s and then write theirs, so all
    markers exist when the caller sees the error."""
    import time

    import pyarrow as pa
    import ray.data

    from deduplicator_go_ray.stages.common import grouped_apply

    def fn(t: pa.Table) -> pa.Table:
        keys = sorted(t["k"].to_pylist())
        if 0 in keys:
            (tmp_path / "failed").write_text("x")
            raise ValueError("planted reduce failure")
        time.sleep(1.0)
        (tmp_path / f"done-{keys[0]}").write_text("x")
        return t

    ds = ray.data.from_arrow(pa.table({"k": list(range(60))})).materialize()
    # the same exchange without the failure: one row per partition
    parts = grouped_apply(ds, ["k"], lambda t: t.slice(0, 1),
                          num_partitions=4, arrow_fn=True).num_rows
    assert parts > 1
    with pytest.raises(Exception, match="planted reduce failure"):
        grouped_apply(ds, ["k"], fn, num_partitions=4, arrow_fn=True)
    assert (tmp_path / "failed").exists()
    assert len(list(tmp_path.glob("done-*"))) == parts - 1


def test_keys_over_equals_value_counts(ray_session):
    """The combined count exchange flags exactly the keys a global
    value count puts above the cap, across many input blocks."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from deduplicator_go_ray.stages.common import keys_over

    rng = np.random.default_rng(3)
    keys = rng.zipf(1.3, 20_000).astype(np.int64) - 2**40
    ds = ray.data.from_arrow(pa.table({"key": keys})).repartition(7)
    counts = pd.Series(keys).value_counts()
    for cap in (1, 40):
        exp = np.sort(counts[counts > cap].index.to_numpy())
        assert len(exp) > 0
        assert keys_over(ds, "key", cap).tolist() == exp.tolist()
    empty = ds.filter(expr="key > 0")
    assert keys_over(empty, "key", 1).size == 0


def test_md5_hex16_matches_hashlib():
    # lane-parallel MD5 (the cluster-id kernel) is bit-identical to
    # hashlib across length boundaries (block splits at 55/56/63/64,
    # multi-block, empty, multibyte utf-8)
    import hashlib
    import random
    import string

    import pyarrow as pa

    from deduplicator_go_ray.functions.hashing import md5_hex16

    rng = random.Random(42)
    vals = ["", "a", "héllo wörld \U0001F600" * 10]
    for _ in range(2000):
        fixed = [0, 1, 7, 54, 55, 56, 57, 63, 64, 65, 119, 120, 121,
                 127, 128, 200, 500]
        n = (rng.choice(fixed) if rng.random() < 0.5
             else rng.randrange(0, 300))
        vals.append("".join(rng.choice(string.printable)
                            for _ in range(n)))
    arr = pa.array(vals, pa.string())
    want = [hashlib.md5(v.encode("utf-8")).hexdigest()[:16] for v in vals]
    assert md5_hex16(arr).to_pylist() == want
    # sliced + chunked inputs (non-zero offsets) hash identically
    ch = pa.chunked_array([arr.slice(3, 40), arr.slice(100, 7)])
    assert md5_hex16(ch).to_pylist() == want[3:43] + want[100:107]
