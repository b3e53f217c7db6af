"""The benchmark's workloads: ordered lists of `capelli verify` entries.

Each workload is one closed-loop client that runs its entries one after
another in a single fresh interpreter, so later entries see the caches
the earlier ones built, exactly as one `capelli verify` session would.

A workload is made of parts.  Each part is a group of entries that
stresses one set of layers; the two workloads split the parts so that
each workload exercises the mechanisms the other bypasses.  The
self-test runs some parts on their own.  NOTES.md records why each part
and workload was chosen and which layer it should move.
"""

PARTS = {
    "transfer": {
        "why": "criterion 8 at N<=3: FExpr evaluation in the dual and natural "
               "rings and Weyl products; no PBW straightening, no tensor",
        "entries": [
            ["thm-4.4", "--N", "2"],
            ["prop-4.3", "--N", "2"],
            ["thm-4.4", "--N", "3"],
            ["prop-4.3", "--N", "3"],
            ["cor-4.5"],
            ["cor-4.6"],
            ["thm-5.3", "--N", "2"],
            ["prop-5.2", "--N", "2"],
            ["cor-5.4"],
        ],
    },
    "pbw": {
        "why": "PBW straightening and the Harish-Chandra oracle (gamma, apply); "
               "no tensor products",
        "entries": [
            ["thm-4.1"],
            ["cor-4.2"],
            ["series-inversion", "--K", "3"],
        ],
    },
    "fusion": {
        "why": "a few large TMat products of one-variable UEA polynomials "
               "(fused column and row, Sklyanin determinant); no Weyl operators",
        "entries": [
            ["thm-3.2"],
            ["thm-3.3", "--N", "2"],
            ["thm-6.2"],
        ],
    },
    "battery": {
        "why": "many small checks: suite orchestration, small two-variable TMat "
               "products, symmetric functions; the only seeded suites",
        "entries": [
            ["capelli-gl"],
            ["capelli-gl-perm"],
            ["prop-3.1"],
            ["prop-3.6"],
            ["prop-3.9"],
            ["rel-3.03"],
            ["lem-3.5"],
            ["dec-3.04"],
            ["prop-3.10"],
            ["prop-3.11"],
            ["prop-6.1"],
            ["prop-2.2"],
            ["prop-2.3"],
            ["thm-2.1"],
        ],
    },
}

WORKLOADS = {
    "transfer_pbw": {
        "why": "UEA and Weyl layers: FExpr evaluation, Weyl products, PBW "
               "straightening, Harish-Chandra oracle; no tensor products",
        "parts": ["transfer", "pbw"],
    },
    "fusion_battery": {
        "why": "tensor and suite layers: large and small TMat products, relation "
               "batteries, symmetric functions, seeded suites; few Weyl products",
        "parts": ["fusion", "battery"],
    },
}


def entries(name):
    """The entries of a workload or of a part, in the order they run."""
    if name in PARTS:
        return PARTS[name]["entries"]
    return [e for part in WORKLOADS[name]["parts"] for e in PARTS[part]["entries"]]


def entry_key(entry):
    """File-name key of one entry, e.g. `thm-4.4_N2`."""
    return "_".join([entry[0]] + [a.lstrip("-") + b for a, b in zip(entry[1::2], entry[2::2])])
