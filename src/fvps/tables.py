"""The package's file formats: CSV tables and JSON documents.

A CSV table is one ``# key=value`` line per metadata entry (LF-terminated),
then a header row, then one row per record.  Cells are joined by commas
with ``str``, so Python floats appear in their shortest round-trip form,
and rows end in CRLF, the terminator ``csv.writer`` writes.  Cells are
never quoted: no value the package writes holds a comma, a quote or a
line break.

A JSON document has sorted keys, an indent of 2 and a trailing newline.
"""

import json


def write_csv(path, meta: dict, header, rows):
    """Write `meta` as '#' lines, then the `header` row, then each row of `rows`."""
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {key}={value}\n" for key, value in meta.items())
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(str, row)) + "\r\n" for row in rows)


def write_json(path, obj):
    """Write `obj` as a JSON document."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
