"""The package's file formats: CSV tables and JSON documents.

A CSV table is one ``# key=value`` line per metadata entry (LF-terminated),
then a header row, then one row per record.  Cells are joined by commas
with ``str``, so Python floats appear in their shortest round-trip form,
and rows end in CRLF, the terminator ``csv.writer`` writes.  Cells are
never quoted: no value the package writes holds a comma, a quote or a
line break.

A phase-space field is a CSV table in one of two layouts: long form,
one ``q,p,W`` row per grid point, or matrix form, a header of q nodes
and then one row per p node.  Its body is formatted one momentum row at
a time: a ``%`` template built once per file holds every q cell (long
form) or the row's shape (matrix form), so each row costs one C-level
``%`` over that row's values and no n x n list of Python objects is
ever built.  ``%r`` of a Python float is its ``repr``, so every cell is
still the shortest round-trip form.

A JSON document has sorted keys, an indent of 2 and a trailing newline.
"""

import json


def _write_head(fh, meta: dict, header):
    fh.writelines(f"# {key}={value}\n" for key, value in meta.items())
    fh.write(",".join(header) + "\r\n")


def write_csv(path, meta: dict, header, rows):
    """Write `meta` as '#' lines, then the `header` row, then each row of `rows`."""
    with open(path, "w", newline="") as fh:
        _write_head(fh, meta, header)
        fh.writelines(",".join(map(str, row)) + "\r\n" for row in rows)


def write_field_csv(path, meta: dict, q_nodes, p_nodes, w, matrix: bool = False):
    """Write the (n_p, n_q) field `w` on the `q_nodes` x `p_nodes` grid, long form or matrix form."""
    q_cells = list(map(repr, q_nodes.tolist()))
    p_cells = map(repr, p_nodes.tolist())
    with open(path, "w", newline="") as fh:
        if matrix:
            # contour-ready: first row q nodes, then one row per p node
            _write_head(fh, meta, ["p\\q", *q_cells])
            template = "%s" + ",%r" * len(q_cells) + "\r\n"
            fh.writelines(template % (p, *row.tolist()) for p, row in zip(p_cells, w))
        else:
            # a float's repr holds no '%' and no NUL, so the p cell can go
            # where the NULs stand after the q cells are fixed in place
            _write_head(fh, meta, ["q", "p", "W"])
            template = "".join(f"{q},\0,%r\r\n" for q in q_cells)
            fh.writelines(template.replace("\0", p) % tuple(row.tolist()) for p, row in zip(p_cells, w))


def write_json(path, obj):
    """Write `obj` as a JSON document."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
