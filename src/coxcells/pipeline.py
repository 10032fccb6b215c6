"""Stage orchestration: cache-aware loading of the polynomial store and
the leading scan, the refusal of out-of-reach classifications, and
deterministic report assembly.

Reports are plain dicts of ints, strings and booleans, rendered by the
exact canonical renderers only, so serializing one twice gives the same
bytes; diagnostics go to the error stream, never into a report.

Each layer is imported by the functions that run it: the polynomial
store and the cells (`klbase`, `jring`) by `load_stores` and
`analysis`, the character table and the classifier by
`classification`.  So a `group` or `chartable` run never loads the
engine, and a `group` or `cells` run never loads the character table
or the classifier.
"""

import io
import os
import sys

from .coxeter import word_name
from .errors import (CacheInvalidError, InternalInconsistencyError,
                     RefusalError)

# Groups from this order up need --heavy: they have more than 120 000 h
# rows (order squared), of which the leading scan computes a fraction.
HEAVY_ORDER = 347


def notice(message: str):
    """Diagnostic line on the error stream; stdout stays report-only."""
    print(f"coxcells: {message}", file=sys.stderr)


def is_heavy(group) -> bool:
    return group.size >= HEAVY_ORDER


def _cache_path(group, cache_dir):
    return os.path.join(cache_dir, group.datum.type_symbol)


def load_stores(group, cache_dir=None):
    """(KLStore, cached leading scan or None) for the group.

    With a cache directory the cache is read first; an invalid cache is
    recomputed with a notice.  Without a usable cache the store is
    computed and the scan is left to the caller.
    """
    from .klbase import cache_load, compute_kl

    cached = None
    if cache_dir:
        try:
            cached = cache_load(_cache_path(group, cache_dir), group)
        except CacheInvalidError as exc:
            notice(f"cache invalid ({exc}); recomputing")
    return cached or (compute_kl(group), None)


def analysis(group, cache_dir=None, jobs=1):
    """Everything through cells, leading coefficients and distinguished
    involutions, as (store, None, cells, gamma, dset); the second slot
    is kept for callers that unpack five values.  jobs is accepted and
    unused.  A cache that fails the engine's checks is recomputed with a
    notice, and a cache is written only once its result passes them."""
    from .jring import compute_cells, compute_gamma, distinguished_involutions
    from .klbase import cache_save, compute_kl, generator_rows

    def run(store, scan=None):
        cells = compute_cells(generator_rows(store))
        gamma = compute_gamma(store, cells, scan=scan)
        return cells, gamma, distinguished_involutions(gamma, cells, store)

    store, scan = load_stores(group, cache_dir)
    if scan is not None:
        try:
            return (store, None, *run(store, scan))
        except InternalInconsistencyError as exc:
            notice(f"cache invalid ({exc}); recomputing")
            store = compute_kl(group)
    cells, gamma, dset = run(store)
    if cache_dir:
        cache_save(store, gamma, _cache_path(group, cache_dir))
    return store, None, cells, gamma, dset


def classification(group, cache_dir=None):
    """Full classification result.

    A heavy group that is not crystallographic is refused before any
    polynomial work: H4's leading scan is out of reach, and the large
    dihedral groups share the refusal.
    """
    if is_heavy(group) and not group.datum.crystallographic:
        raise RefusalError(
            f"classification of {group.datum.type_symbol} (order "
            f"{group.size}) is refused: from order {HEAVY_ORDER} up only "
            "crystallographic types are classified"
        )
    from .chartab import character_table
    from .classify import classify_group_streamed

    store, _, cells, gamma, dset = analysis(group, cache_dir)
    table = character_table(group)
    return classify_group_streamed(store, cells, gamma, dset, table)


def run_claims(result, claim_ids=None):
    from .classify import CLAIM_IDS, verify_claim

    ids = CLAIM_IDS if claim_ids is None else tuple(claim_ids)
    return [verify_claim(cid, result) for cid in ids]


# ---------------------------------------------------------------------------
# reports

def group_report(group) -> dict:
    return group.metadata()


def _cell_family(group, cell_lists, a):
    return [
        {
            "id": i,
            "a": a[members[0]],
            "size": len(members),
            "members": [word_name(group, m) for m in members],
        }
        for i, members in enumerate(cell_lists)
    ]


def cells_report(group, cells, gamma, dset) -> dict:
    known = set(dset)
    elements = [
        {
            "word": word_name(group, x),
            "length": group.length[x],
            "left": cells.left_cell_of[x],
            "right": cells.right_cell_of[x],
            "two_sided": cells.two_sided_of[x],
            "a": gamma.a[x],
            "distinguished": x in known,
        }
        for x in range(group.size)
    ]
    return {
        "type": group.datum.type_symbol,
        "order": group.size,
        "elements": elements,
        "left_cells": _cell_family(group, cells.left_cells, gamma.a),
        "right_cells": _cell_family(group, cells.right_cells, gamma.a),
        "two_sided_cells": _cell_family(group, cells.two_sided_cells, gamma.a),
        "distinguished": [word_name(group, d) for d in dset],
    }


def chartable_report(group, table) -> dict:
    classes = table.classes
    return {
        "type": group.datum.type_symbol,
        "order": group.size,
        "conductor": table.conductor,
        "classes": [
            {
                "representative": word_name(group, rep),
                "size": classes.sizes[j],
            }
            for j, rep in enumerate(classes.representatives)
        ],
        "irreps": [
            {
                "name": table.names[i],
                "dim": table.dims[i],
                "values": [v.render() for v in table.rows[i]],
            }
            for i in range(len(table))
        ],
    }


def _claim_entries(claims) -> list:
    return [
        {"id": c.claim_id, "status": c.status, "witness": c.witness}
        for c in claims
    ]


def _fake_coeffs(poly) -> list:
    return [int(poly.coeff(e)) for e in range(poly.degree() + 1)]


def classify_report(result, claims) -> dict:
    group = result.group
    profile = result.expected_profile
    return {
        "type": group.datum.type_symbol,
        "order": group.size,
        "orientation": result.orientation,
        "expected_exceptional": (
            None if profile is None
            else {"count": profile[0], "dim": profile[1]}
        ),
        "profile_consistent": result.profile_consistent,
        "irreps": [
            {
                "label": r.label,
                "dim": r.dim,
                "cell": r.cell,
                "a": r.a_value,
                "b": r.b_value,
                "fake_degree": _fake_coeffs(r.fake_degree),
                "ordinary": r.ordinary,
                "special": r.special,
                "exceptional": r.exceptional,
            }
            for r in result.irreps
        ],
        "cell_ordinary": {
            str(cid): flag
            for cid, flag in sorted(result.cell_ordinary.items())
        },
        "involutions": [
            {
                "word": word_name(group, r.element),
                "length": r.length,
                "a": r.a_value,
                "ordinary": r.ordinary,
            }
            for r in result.involutions
        ],
        "claims": _claim_entries(claims),
        "all_claims_pass": all(c.status == "pass" for c in claims),
    }


def verify_report(result, claims) -> dict:
    return {
        "type": result.group.datum.type_symbol,
        "order": result.group.size,
        "claims": _claim_entries(claims),
        "all_pass": all(c.status == "pass" for c in claims),
    }


# ---------------------------------------------------------------------------
# text and csv renderings

def _csv(rows) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def group_text(report) -> str:
    lines = [f"{k}: {v}" for k, v in report.items() if k != "fingerprint"]
    return "\n".join(lines) + "\n"


def group_csv(report) -> str:
    return _csv([["field", "value"]] + [[k, v] for k, v in report.items()])


def cells_text(report) -> str:
    lines = [
        f"type {report['type']}  order {report['order']}",
        f"left cells {len(report['left_cells'])}  "
        f"right cells {len(report['right_cells'])}  "
        f"two-sided cells {len(report['two_sided_cells'])}",
        f"distinguished involutions: {' '.join(report['distinguished'])}",
        "",
    ]
    for cell in report["two_sided_cells"]:
        lefts = sum(
            1
            for lc in report["left_cells"]
            if lc["a"] == cell["a"]
            and set(lc["members"]) <= set(cell["members"])
        )
        lines.append(
            f"two-sided cell {cell['id']}: a={cell['a']} "
            f"size={cell['size']} left_cells={lefts}"
        )
    return "\n".join(lines) + "\n"


def cells_csv(report) -> str:
    rows = [["word", "length", "left", "right", "two_sided", "a",
             "distinguished"]]
    for e in report["elements"]:
        rows.append([
            e["word"], e["length"], e["left"], e["right"], e["two_sided"],
            e["a"], e["distinguished"],
        ])
    return _csv(rows)


def chartable_text(report) -> str:
    heads = ["irrep"] + [c["representative"] for c in report["classes"]]
    rows = [heads, ["size"] + [str(c["size"]) for c in report["classes"]]]
    for irr in report["irreps"]:
        rows.append([irr["name"]] + irr["values"])
    widths = [
        max(len(str(r[i])) for r in rows) for i in range(len(heads))
    ]
    lines = [
        "  ".join(str(cell).rjust(w) for cell, w in zip(row, widths))
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def chartable_csv(report) -> str:
    heads = ["irrep", "dim"] + [c["representative"] for c in report["classes"]]
    rows = [heads]
    for irr in report["irreps"]:
        rows.append([irr["name"], irr["dim"]] + irr["values"])
    return _csv(rows)


def classify_text(report) -> str:
    lines = [
        f"type {report['type']}  order {report['order']}  "
        f"orientation {report['orientation']}",
    ]
    for irr in report["irreps"]:
        flags = []
        if irr["special"]:
            flags.append("special")
        flags.append("exceptional" if irr["exceptional"] else "ordinary")
        lines.append(
            f"  {irr['label']}: dim={irr['dim']} cell={irr['cell']} "
            f"a={irr['a']} b={irr['b']} {' '.join(flags)}"
        )
    exc = [i["label"] for i in report["irreps"] if i["exceptional"]]
    lines.append(
        f"exceptional irreps: {' '.join(exc) if exc else 'none'}"
    )
    bad = [i for i in report["involutions"] if not i["ordinary"]]
    lines.append(
        f"involutions: {len(report['involutions'])} total, "
        f"{len(bad)} exceptional"
    )
    for c in report["claims"]:
        lines.append(f"claim {c['id']}: {c['status']}")
    return "\n".join(lines) + "\n"


def classify_csv(report) -> str:
    rows = [["label", "dim", "cell", "a", "b", "fake_degree", "ordinary",
             "special", "exceptional"]]
    for irr in report["irreps"]:
        rows.append([
            irr["label"], irr["dim"], irr["cell"], irr["a"], irr["b"],
            " ".join(str(c) for c in irr["fake_degree"]),
            irr["ordinary"], irr["special"], irr["exceptional"],
        ])
    return _csv(rows)


def verify_text(report) -> str:
    lines = [f"type {report['type']}  order {report['order']}"]
    for c in report["claims"]:
        lines.append(f"claim {c['id']}: {c['status']}")
        if c["status"] != "pass":
            lines.append(f"  witness: {c['witness']}")
    lines.append("all pass" if report["all_pass"] else "FAILURES PRESENT")
    return "\n".join(lines) + "\n"


def verify_csv(report) -> str:
    rows = [["claim", "status"]]
    for c in report["claims"]:
        rows.append([c["id"], c["status"]])
    return _csv(rows)
