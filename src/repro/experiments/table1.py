"""E3 — Table 1: per-GPU memory of a GPT-3 layer in mixed precision.

S = 1024, H = 12288, B = 2, TMP = 8.  Expected (binary units): 216 Mi
parameters, 432 Mi optimizer params, 24 Mi activation elements, 2.95 GiB
of weights+optimizer, 48 MiB of activations.
"""

from __future__ import annotations

from ..models.gpt import gpt_layer_memory_table
from .common import ExperimentTable

__all__ = ["run", "PAPER_VALUES"]

#: the values printed in the paper's Table 1
PAPER_VALUES = {
    "#parameter": "216M",
    "#optimizer state parameters": "432M",
    "#activation elements": "24M",
    "Memory of weights and optimizer": "2.95GB",
    "Memory of activation": "48MB",
}


#: the paper's GPT-3 layer: sequence length, hidden size, micro-batch, TMP
SEQ_LEN, HIDDEN, MICRO_BATCH, TMP = 1024, 12288, 2, 8


def run() -> ExperimentTable:
    row = gpt_layer_memory_table(SEQ_LEN, HIDDEN, MICRO_BATCH, TMP)
    mi = float(1 << 20)
    gi = float(1 << 30)
    table = ExperimentTable(
        experiment_id="E3 (Table 1)",
        title=(
            f"GPT-3 layer per-GPU sizes (S={SEQ_LEN}, H={HIDDEN}, "
            f"B={MICRO_BATCH}, TMP={TMP})"
        ),
        columns=["quantity", "expression", "measured", "paper"],
        notes="Paper values use binary prefixes (M = 2^20, GB = 2^30).",
    )
    table.add(
        quantity="#parameter",
        expression=row.expressions["n_parameters"],
        measured=f"{row.n_parameters / mi:.0f}M",
        paper=PAPER_VALUES["#parameter"],
    )
    table.add(
        quantity="#optimizer state parameters",
        expression=row.expressions["n_optimizer_params"],
        measured=f"{row.n_optimizer_params / mi:.0f}M",
        paper=PAPER_VALUES["#optimizer state parameters"],
    )
    table.add(
        quantity="#activation elements",
        expression=row.expressions["n_activation_elements"],
        measured=f"{row.n_activation_elements / mi:.0f}M",
        paper=PAPER_VALUES["#activation elements"],
    )
    table.add(
        quantity="Memory of weights and optimizer",
        expression=row.expressions["weights_and_optimizer_bytes"],
        measured=f"{row.weights_and_optimizer_bytes / gi:.2f}GB",
        paper=PAPER_VALUES["Memory of weights and optimizer"],
    )
    table.add(
        quantity="Memory of activation",
        expression=row.expressions["activation_bytes"],
        measured=f"{row.activation_bytes / mi:.0f}MB",
        paper=PAPER_VALUES["Memory of activation"],
    )
    return table
