"""Smoke test of the benchmark tracer against the current library layout.

bench/spans.py wraps the record CSV methods in the class __dict__ and the
homodyne batch reader and writer by module binding.  If one of them moves,
this test fails instead of a traced benchmark run.
"""

from pathlib import Path

import gausspurity
from gausspurity import DegenerateSampleError, sampling
from gausspurity.sampling import HomodyneBatch, QSampleBatch

BENCH = Path(__file__).resolve().parent.parent / "bench"

CSV_METHODS = [(QSampleBatch, "to_csv"), (HomodyneBatch, "to_csv"),
               (QSampleBatch, "from_csv"), (HomodyneBatch, "from_csv")]
BATCH_FUNCTIONS = ["read_homodyne_batches", "write_homodyne_batches"]


def _originals():
    return ([cls.__dict__[meth] for cls, meth in CSV_METHODS]
            + [getattr(sampling, name) for name in BATCH_FUNCTIONS])


def test_install_wraps_csv_stages_and_uninstall_restores(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    before = _originals()
    tracer = spans.Tracer(DegenerateSampleError)
    uninstall = spans.install(tracer, gausspurity)
    try:
        after = _originals()
        assert all(a is not b for a, b in zip(after, before))
        # each wrapped stage records its span when called
        q, h = tmp_path / "q.csv", tmp_path / "h.csv"
        QSampleBatch(pairs=[[0.1, 0.2], [0.3, 0.4]]).to_csv(q)
        QSampleBatch.from_csv(q)
        HomodyneBatch(theta=0.5, values=[1.0, 2.0]).to_csv(h)
        HomodyneBatch.from_csv(h)
        sampling.write_homodyne_batches([HomodyneBatch(theta=0.0, values=[1.0, 2.0])], h)
        sampling.read_homodyne_batches(h)
        assert {"sampling.csv_write", "sampling.csv_read"} <= set(tracer.names)
    finally:
        uninstall()
    assert all(a is b for a, b in zip(_originals(), before))
