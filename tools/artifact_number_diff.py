"""The largest change of every number between two artifact trees.

    python tools/artifact_number_diff.py PARENT_OUT CHANGE_OUT

PARENT_OUT and CHANGE_OUT are two output directories of
``tools/artifact_manifest.py`` (or any two trees of the CLI's files).  For
every file under PARENT_OUT and the file at the same relative path under
CHANGE_OUT, each number is compared with its counterpart:

- a ``.json`` file per key, nested keys joined by ``.``; the items of a
  list share their key, ``[]`` appended (``germs[].theta1``);
- a ``.csv`` file per column of its header;
- a ``.field`` dump (``heightfield`` v2 or v3) per header value (``N_q``,
  ``N_p``, ``p0``, ``Q``, ``sigma``) and as one key ``h`` for the field.

Each key or column whose values differ prints one line,
``path key: rel <largest |c - p| / |p|> abs <largest |c - p|> (<moved> of
<count>)``, where a change from p = 0 reads as ``rel inf``.  A key whose
values are not numbers of the same count on both sides prints ``differs``
when they are unequal, and a file of any other kind is compared byte for
byte.  The last line counts the files and keys compared and moved.  Exits 1
when a file of PARENT_OUT has no counterpart in CHANGE_OUT.  Needs only the
standard library and numpy.
"""

import base64
import csv
import json
import sys
from pathlib import Path

import numpy as np

FIELD_HEADER = ("N_q", "N_p", "p0", "Q", "sigma")


def json_keys(doc, key="", out=None):
    """{key: [values]} of a JSON document, list items under one key."""
    out = {} if out is None else out
    if isinstance(doc, dict):
        for name, value in doc.items():
            json_keys(value, f"{key}.{name}" if key else str(name), out)
    elif isinstance(doc, list):
        for value in doc:
            json_keys(value, f"{key}[]", out)
    else:
        out.setdefault(key, []).append(doc)
    return out


def csv_keys(text):
    """{column: [values]} of a CSV text with a header row."""
    rows = list(csv.reader(text.splitlines()))
    return {name: [row[k] for row in rows[1:]]
            for k, name in enumerate(rows[0])} if rows else {}


def field_keys(text):
    """{header name: [value], "h": [every field value]} of a dump."""
    lines = text.split()
    head = lines[2:2 + len(FIELD_HEADER)] if lines[1] == "v3" else lines[2:6]
    keys = {name: [value] for name, value in zip(FIELD_HEADER, head)}
    body = b"".join(base64.b64decode(line) for line in lines[2 + len(head):])
    keys["h"] = np.frombuffer(body, dtype="<f8").tolist()
    return keys


READERS = {".json": lambda text: json_keys(json.loads(text)),
           ".csv": csv_keys, ".field": field_keys}


def numbers(values):
    """The values as a float array, or None unless each is a number."""
    if any(isinstance(v, bool) for v in values):
        return None
    try:
        return np.array([float(v) for v in values])
    except (TypeError, ValueError):
        return None


def compare(parent, change):
    """The line for one key, or None when its values are equal."""
    p, c = numbers(parent), numbers(change)
    if p is None or c is None or p.shape != c.shape:
        return None if parent == change else "differs"
    moved = (p != c) & ~(np.isnan(p) & np.isnan(c))
    if not moved.any():
        return None
    gap = np.abs(c[moved] - p[moved])
    with np.errstate(divide="ignore"):
        rel = gap / np.abs(p[moved])
    return (f"rel {np.max(rel):.3e} abs {np.max(gap):.3e} "
            f"({int(moved.sum())} of {p.size})")


def main(argv):
    if len(argv) != 2:
        print("usage: " + __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent_dir, change_dir = (Path(a) for a in argv)
    files = keys = moved = missing = 0
    for path in sorted(p for p in parent_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(parent_dir)
        other = change_dir / rel
        if not other.is_file():
            print(f"{rel}: missing in {change_dir}")
            missing += 1
            continue
        files += 1
        read = READERS.get(path.suffix)
        if read is None:
            keys += 1
            if path.read_bytes() != other.read_bytes():
                moved += 1
                print(f"{rel}: bytes differ")
            continue
        before = read(path.read_text(encoding="utf-8"))
        after = read(other.read_text(encoding="utf-8"))
        for key in sorted(set(before) | set(after)):
            keys += 1
            line = compare(before.get(key, []), after.get(key, []))
            if line is not None:
                moved += 1
                print(f"{rel} {key}: {line}")
    print(f"{files} files, {keys} keys compared, {moved} moved")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
