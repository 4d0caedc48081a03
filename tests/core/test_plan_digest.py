"""Pinned digests of every lowered plan the campaign grid builds.

Each cell's :class:`~repro.core.soa.SoaPlan` is hashed array by array —
dtype, shape and bytes of the step map, SSA ``phys`` map, gate tape, wave
groups, units, barrier tapes, ECiM cover lists, decode tables, TRiM copy
groups, the four fault-site classes, the gate maps and the golden schedule —
together with the plan's column layout.  A change to the plan compiler or
the SoA lowering that moves any of it, by one column or one dtype, changes
the digest.  Refactors of either layer must reproduce these digests
unchanged; a deliberate layout change regenerates them with::

    PYTHONPATH=src python tests/core/test_plan_digest.py
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.campaign.workloads import available_campaign_workloads, get_campaign_workload
from repro.core.backend import BitpackedBackend
from repro.ecc.bch import bch_code_factory

#: Every :class:`SoaPlan` field, in layout order (``plan`` is hashed through
#: :data:`PLAN_FIELDS`).
SOA_FIELDS = (
    "golden",
    "step_kind",
    "step_slot",
    "phys",
    "output_state_cols",
    "tables",
    "gate_table_id",
    "gate_op_index",
    "gate_is_metadata",
    "gate_in_ptr",
    "gate_in_cols",
    "gate_out_ptr",
    "gate_out_lane_gate",
    "group_ptr",
    "group_table",
    "unit_kind",
    "unit_slot",
    "unit_of_step",
    "lane_offset_of_step",
    "preset_values",
    "preset_ptr",
    "preset_cols",
    "read_ptr",
    "read_cols",
    "ecim_data_ptr",
    "ecim_data_cols",
    "ecim_parity_ptr",
    "ecim_parity_cols",
    "ecim_cover_ptr",
    "ecim_cover_cols",
    "ecim_weights",
    "ecim_lut",
    "ecim_lut_offset",
    "trim_data_ptr",
    "trim_data_cols",
    "trim_copy_groups",
    "trim_n_copies",
    "gate_sites",
    "meta_sites",
    "preset_sites",
    "read_sites",
    "gate_step_index",
    "gate_slot_of_op",
)

#: The compiled plan's layout fields the lowered plan passes through.
PLAN_FIELDS = ("n_cols", "input_cols", "output_cols", "const1_col", "n_gate_ops")


def _feed(digest, value) -> None:
    """Feed one value into ``digest`` in a canonical, type-tagged form."""
    if isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        digest.update(f"a{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    elif dataclasses.is_dataclass(value):
        digest.update(f"d{type(value).__name__}".encode())
        for field in dataclasses.fields(value):
            digest.update(field.name.encode())
            _feed(digest, getattr(value, field.name))
    elif isinstance(value, tuple):
        digest.update(f"t{len(value)}".encode())
        for item in value:
            _feed(digest, item)
    elif value is None or isinstance(value, (bool, int, str)):
        digest.update(f"s{type(value).__name__}:{value!r};".encode())
    else:  # pragma: no cover - a new field type needs a canonical form
        raise TypeError(f"no canonical digest form for {type(value).__name__}")


def soa_digest(soa) -> str:
    digest = hashlib.sha256()
    for name in PLAN_FIELDS:
        digest.update(name.encode())
        _feed(digest, getattr(soa.plan, name))
    for name in SOA_FIELDS:
        digest.update(name.encode())
        _feed(digest, getattr(soa, name))
    return digest.hexdigest()


def _cells():
    for workload in available_campaign_workloads():
        for scheme in ("unprotected", "ecim", "trim"):
            for multi_output in (True, False):
                yield (workload, scheme, multi_output, None)
    yield ("and2", "ecim", True, "bch2")


CODE_FACTORIES = {None: None, "bch2": bch_code_factory(2)}


def _cell_id(cell) -> str:
    workload, scheme, multi_output, code = cell
    style = "mo" if multi_output else "so"
    return "-".join(part for part in (workload, scheme, style, code) if part)


def build_soa(cell):
    workload, scheme, multi_output, code = cell
    backend = BitpackedBackend(
        get_campaign_workload(workload).netlist,
        scheme,
        multi_output=multi_output,
        code_factory=CODE_FACTORIES[code],
    )
    return backend.soa


#: SHA-256 of every cell's lowered plan (see :func:`soa_digest`).
PINNED = {
    "and2-unprotected-mo": "8e0aa7b6593f0d47dbf9e87cb0e5f1c85da7e0dcf12d96dfbc59328609fb8c68",
    "and2-unprotected-so": "8e0aa7b6593f0d47dbf9e87cb0e5f1c85da7e0dcf12d96dfbc59328609fb8c68",
    "and2-ecim-mo": "9b9dbef1522f15213b2a55f5aa242223bb34b723bf2e6b867a8b22d3f5040219",
    "and2-ecim-so": "00497ce00e21a195ea2d07aa6fee1e0a77ff20e1795a413b24d61f1604e5299f",
    "and2-trim-mo": "79ae9aa1a233cb38e9e71fb42971a94933dfcc138b96b07f9db72e4f52d94760",
    "and2-trim-so": "2e59fefa1373708f51f5616ee885fa42c02b1f2505e5fdbc06fede43e6f53c3a",
    "dot2-unprotected-mo": "c6647af1ab1ec73debfbf94afb64946bae757c8a75b5c638adddf922c721a2a2",
    "dot2-unprotected-so": "c6647af1ab1ec73debfbf94afb64946bae757c8a75b5c638adddf922c721a2a2",
    "dot2-ecim-mo": "6d0e94c88d8eb57217a0372a83835dc014f6057033bb3e2bbee87b643fd77287",
    "dot2-ecim-so": "eeafe66f6a7956dcf0299831fb8ca1db1da4fb2c87248f6946b8a84fc63b794c",
    "dot2-trim-mo": "268d09edc47a4df0174d63e38a57914a985c293facd39238695b3e47c1c0fe03",
    "dot2-trim-so": "41ce9695ceebf87f8bc3410159cdc151831af40834f797066538fb83c4c90d4a",
    "dot4-unprotected-mo": "fcdb4435303e5e63d57fbf9b0c520e7964541913321dd85aa7198047711fafb7",
    "dot4-unprotected-so": "fcdb4435303e5e63d57fbf9b0c520e7964541913321dd85aa7198047711fafb7",
    "dot4-ecim-mo": "88acb11c99d405f34efa58209b72efa3dc8f4d9371cf37317239c4caa03f3a92",
    "dot4-ecim-so": "c8a3af26554cf76bd2ab2d61c1097a77d02dd8923a7551383a332dd01fbc813d",
    "dot4-trim-mo": "7dc84fd2269ffea2d3fc484edcb357623a7652148ffcce7ad19161ba8176692e",
    "dot4-trim-so": "dd5b34929d873a56d2519d34f4f5fd9a1ee740a5d5bbee1247087760d2c3edc1",
    "fft4-unprotected-mo": "7331dae8514a5cac215c5b65ce699598b9ad5e0b109daf3d5b18a3aeb7db7390",
    "fft4-unprotected-so": "7331dae8514a5cac215c5b65ce699598b9ad5e0b109daf3d5b18a3aeb7db7390",
    "fft4-ecim-mo": "5bfe2b246422e97eccfa47fa923e5868543d9207dd7b4bb1c555e2c0b19a200a",
    "fft4-ecim-so": "02ab19d3b6f2ba1c587ba42643a7dbcfb42ebab5659393b0fed81168be0e028a",
    "fft4-trim-mo": "6b82409080a7d1f49ac20276b65ee3d1c5bd0fafb85ca49ccfc2bbd06f8d0cf5",
    "fft4-trim-so": "dd6a81c6a646c222a8157a8d72ebad48a257b86770358f09936e96d942f58819",
    "mac4-unprotected-mo": "176437b49201729f5c2e0f7a7817e54e4ab18c82e558086a979444c83813453c",
    "mac4-unprotected-so": "176437b49201729f5c2e0f7a7817e54e4ab18c82e558086a979444c83813453c",
    "mac4-ecim-mo": "2b69f381fcd058c4b7604d36877972560d37f260c44104aa428915db0ea4aa56",
    "mac4-ecim-so": "34ca197804c69fcde414ced6c1f047b64dc38b212a9f9ec9a906075c0001a6c2",
    "mac4-trim-mo": "1ac51f8fe211f4949d274e45aa24650d0a4f65f246e31c5088502011d3bc2435",
    "mac4-trim-so": "e673ad70f8a66a03b2c0e24228edce823ae1b9ea6aa4270b46027138c7f7100a",
    "mlp16-unprotected-mo": "9b3114ed9a06ee47de99218b73dc9ca3e67b257f355a4f83ac77953a1c10b686",
    "mlp16-unprotected-so": "9b3114ed9a06ee47de99218b73dc9ca3e67b257f355a4f83ac77953a1c10b686",
    "mlp16-ecim-mo": "b15914717cbd41c52c0630baea581d6df63cf0c0fff859f3228a72f78a2e8eb1",
    "mlp16-ecim-so": "caa93a2cd7cd0e3479f131be649aed8b38d8b8a467301cb969e309b2c3826ff9",
    "mlp16-trim-mo": "897b2e05366d1527bf2bf2208beafe661dcf299311ed14ed1ab7a0b023d8ac18",
    "mlp16-trim-so": "a1d91751bfa9d2b6c446abb3c05861a5d3389119e48b02f04a56eaff3c653332",
    "mm2-unprotected-mo": "6c46a61da80575c681e4564553ba1336f661883bcabca3e3c4a2e2dc64a115b8",
    "mm2-unprotected-so": "6c46a61da80575c681e4564553ba1336f661883bcabca3e3c4a2e2dc64a115b8",
    "mm2-ecim-mo": "e849057da4e36d51fb27ad4a234b04f966b6e9ab6f1e0383359468708692143b",
    "mm2-ecim-so": "76f39e31d61567c75680bbcacbb186db874e35c0648c6838741c7a9e8fa64092",
    "mm2-trim-mo": "507f0d19fab2e16b554ab0a26e0cd9a539d9f4817a19d5919f5629f55ee60702",
    "mm2-trim-so": "5f6ee68a48212a9d5e416ba65de6b88a289829b2e019f433cc23afac80e5657a",
    "and2-ecim-mo-bch2": "4de02195466dff23bee70ed93188295c4d9416741574d533def852c963122889",
}


def test_grid_is_pinned():
    assert sorted(PINNED) == sorted(map(_cell_id, _cells()))
    assert len(PINNED) == 43


@pytest.mark.parametrize("cell", list(_cells()), ids=_cell_id)
def test_soa_plan_digest(cell):
    assert soa_digest(build_soa(cell)) == PINNED[_cell_id(cell)]


if __name__ == "__main__":
    for cell in _cells():
        print(f'    "{_cell_id(cell)}": "{soa_digest(build_soa(cell))}",')
