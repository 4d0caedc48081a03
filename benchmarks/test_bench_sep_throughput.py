"""Scalar-vs-bitpacked exhaustive SEP sweep bench: fault sites/sec.

Not a paper artefact — this measures what running the exhaustive
single-fault sweep through the bitpacked backend (fault site as the batch
dimension, one tape interpretation for every site) buys over the scalar
object-model walk (one full behavioural-array execution per site), on the
heaviest shipped campaign cell (dot2 + ECiM, ~1700 enumerable sites).

The bitpacked side sweeps every site in one call; the scalar side is timed on
a slice of the very same site list (its cost is linear in sites — each site
is an independent ``reset()`` + ``run()`` — so sites/sec is directly
comparable) to keep the bench affordable.  The asserted floor is the
acceptance criterion's 20x; the typical observed ratio is two to three
orders of magnitude.
"""

from conftest import emit

from repro.campaign.workloads import get_campaign_workload
from repro.core.backend import make_backend
from repro.core.sep import exhaustive_single_fault_injection

SCALAR_SITE_SLICE = 60

_netlist = get_campaign_workload("dot2").netlist
_INPUTS = {signal: 1 for signal in _netlist.inputs}

#: Filled by the scalar bench, consumed by the bitpacked bench (file order).
_OBSERVED = {}


def _sites_per_second(benchmark, n_sites):
    return n_sites / benchmark.stats.stats.mean


def test_scalar_sep_sweep_throughput(benchmark):
    backend = make_backend("scalar", _netlist, "ecim")
    sites = backend.enumerate_sites(_INPUTS)[:SCALAR_SITE_SLICE]
    analysis = benchmark.pedantic(
        exhaustive_single_fault_injection,
        args=(backend, _INPUTS, sites),
        rounds=1,
        iterations=1,
    )
    assert analysis.total_sites == SCALAR_SITE_SLICE
    _OBSERVED["scalar"] = _sites_per_second(benchmark, len(sites))
    emit({"rendered": f"scalar backend: {_OBSERVED['scalar']:.0f} fault sites/sec (dot2, ecim)"})


def test_bitpacked_sep_sweep_throughput(benchmark):
    backend = make_backend("bitpacked", _netlist, "ecim")
    sites = backend.enumerate_sites(_INPUTS)
    analysis = benchmark.pedantic(
        exhaustive_single_fault_injection,
        args=(backend, _INPUTS, sites),
        rounds=1,
        iterations=1,
    )
    # The full exhaustive sweep, and SEP must hold at speed.
    assert analysis.total_sites == len(sites) > SCALAR_SITE_SLICE
    assert analysis.sep_guaranteed
    bitpacked = _sites_per_second(benchmark, len(sites))
    lines = [
        f"bitpacked backend: {bitpacked:.0f} fault sites/sec "
        f"(dot2, ecim, all {len(sites)} sites in one batch)"
    ]
    if "scalar" in _OBSERVED:
        speedup = bitpacked / _OBSERVED["scalar"]
        lines.append(f"speedup over scalar: {speedup:.1f}x")
        assert speedup >= 20.0, f"bitpacked sweep must be >=20x scalar, got {speedup:.1f}x"
    emit({"rendered": "\n".join(lines)})
