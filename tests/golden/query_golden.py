"""Golden pins for the ``python -m repro query`` output schema.

``store_query.csv`` / ``store_query.json`` hold the byte-exact CLI output of
a default-grouped query over a small deterministic corpus (three seeded
campaigns — legacy fault model, a burst model, and an fft4 application
campaign — recorded live through ``run_campaign(db=...)``).  A failure means either the query output *schema*
changed (column set, order, formatting) or the underlying numbers drifted —
both must be deliberate.  Regenerate after an intentional change with::

    PYTHONPATH=src python tests/golden/query_golden.py --write

and say why in the commit message.
"""

import contextlib
import io
import os
import sys
import tempfile

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))

FORMATS = ("csv", "json")


def golden_path(fmt: str) -> str:
    return os.path.join(GOLDEN_DIR, f"store_query.{fmt}")


def load_golden(fmt: str) -> str:
    with open(golden_path(fmt), "r", encoding="utf-8") as handle:
        return handle.read()


def corpus_specs():
    from repro.campaign import CampaignSpec

    common = dict(
        workloads=("and2",),
        schemes=("unprotected", "ecim", "trim"),
        gate_error_rates=(1e-3, 1e-2),
        trials=8,
        shard_size=4,
        seed=3,
    )
    return [
        CampaignSpec(name="golden-legacy", **common),
        CampaignSpec(name="golden-burst", fault_model="burst:length=2,window=4", **common),
        CampaignSpec(
            name="golden-application",
            workloads=("fft4",),
            schemes=("unprotected", "ecim"),
            gate_error_rates=(1e-3,),
            trials=8,
            shard_size=4,
            seed=3,
            backend="bitpacked",
            fault_model="stochastic",
            application=True,
        ),
    ]


def build_database(db_path) -> None:
    """Record the two golden campaigns live, exactly as ``--db`` would."""
    from repro.campaign import run_campaign

    for spec in corpus_specs():
        run_campaign(spec, workers=0, db=db_path)


def render(db_path, fmt: str) -> str:
    """The real CLI surface: ``python -m repro query`` stdout, verbatim."""
    from repro.__main__ import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main(["query", "--db", str(db_path), "--format", fmt])
    assert status == 0
    return buffer.getvalue()


def main(argv) -> int:
    if argv[1:] != ["--write"]:
        print(__doc__)
        print(f"usage: PYTHONPATH=src python {argv[0]} --write", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        db_path = os.path.join(tmp, "golden.sqlite")
        build_database(db_path)
        for fmt in FORMATS:
            with open(golden_path(fmt), "w", encoding="utf-8") as handle:
                handle.write(render(db_path, fmt))
            print(f"wrote {golden_path(fmt)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
