"""The pin registry, ``pins.json`` beside this file: every report and CLI
output the tests pin, by key, with the SHA-256 of its bytes and, for a
report, each check's (passed, failed, inconclusive) counts.

An entry is a suite call, ``{"suite", "params"}`` with the parameters that
differ from the suite's defaults (JSON lists become tuples), or a CLI call,
``{"argv"}``; its ``note`` says when it was recorded, and ``gate`` names the
acceptance gate that computes it.

    PYTHONPATH=src python -S tests/repin.py [--write]

recomputes every entry and prints, for each key whose bytes changed, the old
and new hash and each check's count delta.  It exits 1 if any key changed,
also when ``--write`` rewrites pins.json with the new pins.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import sys

from hurewicz_kit import cli, verifier

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")
_RECORDED = ("sha256", "counts")
_COUNTS = ("passed", "failed", "inconclusive")


def key(entry: dict) -> str:
    """An entry's name: ``hurewicz-kit`` and its argv for a CLI call, else the
    suite and its parameters as ``name=value``."""
    if "argv" in entry:
        return "hurewicz-kit " + shlex.join(entry["argv"])
    words = [
        f"{name}={','.join(v) if isinstance(v, list) else v}"
        for name, v in entry["params"].items()
    ]
    return " ".join([entry["suite"], *words])


def load() -> dict:
    """The registry, key -> entry, in file order."""
    with open(PINS, encoding="utf-8") as fh:
        entries = json.load(fh)
    pins = {key(e): e for e in entries}
    if len(pins) != len(entries):
        raise ValueError(f"{PINS} names a key twice")
    return pins


def _layout(value, pad: str = "") -> str:
    """JSON with each item of a dict, or of a list of dicts, on its own
    line, so that a re-pin's diff shows which check's counts moved."""
    inner = pad + "  "
    if isinstance(value, dict):
        items = [f"{inner}{json.dumps(k)}: {_layout(v, inner)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, list) and any(isinstance(v, dict) for v in value):
        items = [inner + _layout(v, inner) for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return json.dumps(value)


def dump(pins: dict) -> None:
    with open(PINS, "w", encoding="utf-8") as fh:
        fh.write(_layout(list(pins.values())) + "\n")


def output(entry: dict) -> bytes:
    """The bytes an entry pins: what the CLI prints, or the suite's report."""
    if "argv" in entry:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(entry["argv"])
        if code != 0:
            raise RuntimeError(f"{key(entry)} exited {code}")
        return printed.getvalue().encode()
    params = {
        name: tuple(v) if isinstance(v, list) else v
        for name, v in entry["params"].items()
    }
    return verifier.SUITES[entry["suite"]](**params).to_json_bytes()


_OUTPUTS = {}


def check(name: str, pins: dict, data: bytes = None) -> str:
    """``diff`` of the key ``name`` of ``pins`` against ``data``, bytes its
    caller computed, or else ``output`` of its entry; either is kept, so a
    process computes each key once however many tests check it."""
    if data is not None:
        _OUTPUTS[name] = data
    elif name not in _OUTPUTS:
        _OUTPUTS[name] = output(pins[name])
    return diff(name, pins[name], pin(_OUTPUTS[name]))


def pin(data: bytes) -> dict:
    """What an entry records of its bytes: their SHA-256 and, for a report,
    each check's (passed, failed, inconclusive) counts."""
    recorded = {"sha256": hashlib.sha256(data).hexdigest()}
    try:
        doc = json.loads(data)
    except ValueError:
        return recorded
    if isinstance(doc, dict) and "checks" in doc:
        recorded["counts"] = {
            c["name"]: [c[n] for n in _COUNTS] for c in doc["checks"]
        }
    return recorded


def diff(name: str, entry: dict, fresh: dict) -> str:
    """'' when ``fresh``, a ``pin``, is what ``entry`` records; else the key,
    the old and new hash and the count delta of each check that moved."""
    old = {f: entry[f] for f in _RECORDED if f in entry}
    if old == fresh:
        return ""
    lines = [name, f"  sha256 {old.get('sha256')} -> {fresh['sha256']}"]
    was, now = old.get("counts", {}), fresh.get("counts", {})
    for check in dict.fromkeys([*was, *now]):
        a, b = was.get(check, [0, 0, 0]), now.get(check, [0, 0, 0])
        moved = [f"{n} {y - x:+d}" for n, x, y in zip(_COUNTS, a, b) if x != y]
        if moved:
            lines.append(f"  {check}: {', '.join(moved)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Recompute tests/pins.json.")
    parser.add_argument("--write", action="store_true", help="rewrite it with the new pins")
    args = parser.parse_args(argv)
    pins = load()
    changed = 0
    for name, entry in pins.items():
        fresh = pin(output(entry))
        moved = diff(name, entry, fresh)
        if moved:
            print(moved)
            changed += 1
            for field in _RECORDED:
                entry.pop(field, None)
            entry.update(fresh)
    if args.write and changed:
        dump(pins)
    print(f"{changed} of {len(pins)} pins changed")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
