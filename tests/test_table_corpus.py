"""A seeded corpus of malformed tables: the committed configs' CSV and JSON
tables, each with 1 to 4 faults.  Every table loads or raises ConfigError,
and each outcome is pinned in tests/data/table_corpus.json: the sha256 of the
table re-emitted in the format it was loaded from, or the error's type and
text.  tests/regen_fixtures.py rewrites that file or checks it.

load_table reads a CSV body through numpy's C parser and falls back to
float(), and parses JSON text with orjson and falls back to json.loads; the
differential tests load each table both ways and require the same bits and
re-emitted text, or the same error."""

import functools
import hashlib
import json
import math
import random
import struct
import unicodedata
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from qnl import BudgetTable, load_config, load_table, run_budget, run_spin_figure, tables
from test_budget import edge_table

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CORPUS = Path(__file__).resolve().parent / "data" / "table_corpus.json"

# field values: malformed numbers, numbers beyond a float's range, spellings
# of inf, nan and -0.0, and numbers only float() reads (underscores, non-ASCII
# digits)
NUMBERS = ["abc", "", "1.2.3", "--1", "1e", "e5", "0x10", "nan(1)", ".", "+", "1.5j", "None",
           "1e400", "-1e999", "9" * 400, "1e-400", "0." + "0" * 400 + "1", "-Infinity", "+nan",
           "NaN", ".5", "5.", "1E5", "-0.0", "-0", "-0e9", "1_0", "2_5.0_1", "_1", "1__0", "\u0661\u0662",
           "\u0661.\u0665", "\uff11.\uff15", "\u0967e\u0968"]
# put before, after or inside a field: \x1f and NUL (which numpy's text reader
# and float() read differently), line breaks to str.splitlines (form feed,
# \x0b, \x85, \u2028), other whitespace, and comment marks
CHARS = ["\x1f", "\x00", "\x0c", "\x0b", "\x85", "\u2028", " ", "\t", "\xa0", "\u2003", "\u3000",
         "#", "#x", " # c"]
REGIMES = ["DQL", "Qcrb", "dq", "qcrbx", "dqlqcrb", "", "foo", "None", "5", "qcrb\x00", "\x00dql",
           "dql\x1f", " qcrb", "qcrb ", "dql\t"]
BLANKS = ["", "", " ", "\t", "  ", "\x1f", "\xa0", "\x00"]
# JSON values beyond the strings: integers beyond a float, bools, containers, null
JSON_VALUES = NUMBERS + [10**400, -(10**400), True, False, [], {}, [1.0], None, 1e308, -0.0, 0]


def _pick(rng, seq):
    return seq[rng.randrange(len(seq))] if seq else None


# CSV faults act on the table's lines (header, then body from index 5) and
# the index of the regime column; the text faults act on the joined text


def csv_number(rng, lines, regime):
    if (i := _pick(rng, range(5, len(lines)))) is not None:
        fields = lines[i].split(",")
        fields[_pick(rng, [j for j in range(len(fields)) if j != regime]) or 0] = _pick(rng, NUMBERS)
        lines[i] = ",".join(fields)


def csv_char(rng, lines, regime):
    if (i := _pick(rng, range(5, len(lines)))) is not None:
        fields = lines[i].split(",")
        j = rng.randrange(len(fields))
        k = _pick(rng, [0, len(fields[j]), rng.randrange(len(fields[j]) + 1)])
        fields[j] = fields[j][:k] + _pick(rng, CHARS) + fields[j][k:]
        lines[i] = ",".join(fields)


def csv_regime(rng, lines, regime):
    if (i := _pick(rng, range(5, len(lines)))) is not None:
        fields = lines[i].split(",")
        fields[min(regime, len(fields) - 1)] = _pick(rng, REGIMES)
        lines[i] = ",".join(fields)


def csv_fields(rng, lines, regime):
    if (i := _pick(rng, range(5, len(lines)))) is not None:
        fields, kind = lines[i].split(","), rng.randrange(4)
        if kind == 0:
            del fields[rng.randrange(len(fields))]
        elif kind == 1:
            fields.insert(rng.randrange(len(fields) + 1), _pick(rng, fields))
        elif kind == 2:
            fields.append("")
        elif i + 1 < len(lines):  # two rows on one line
            fields.append(lines.pop(i + 1))
        lines[i] = ",".join(fields)


def csv_blank(rng, lines, regime):
    lines.insert(rng.randrange(len(lines) + 1), _pick(rng, BLANKS))


HEADER_FAULTS = [
    lambda line: line.replace("# qnl ", "#qnl "),
    lambda line: line.replace("# qnl budget", "# qnl spin-figure", 1) if "budget" in line
    else line.replace("spin-figure", "budget"),
    lambda line: line.replace(" v", " v9.", 1),
    lambda line: line.rsplit(" v", 1)[0],
    lambda line: line.replace("=", "", 1),
    lambda line: line.split("=", 1)[0] + "=",
    lambda line: line + "=x",
    lambda line: line.replace("config_hash", "hash"),
    lambda line: line + "1e400",
    lambda line: line.replace("=", "=,", 1),
    lambda line: line + ",",
    lambda line: line + ",1_0",
    lambda line: line.upper(),
    lambda line: ",".join(reversed(line.split(","))),
    lambda line: line.replace(",", ", ", 1),
    lambda line: line.replace("#", "", 1),
    lambda line: "",
]


def csv_header(rng, lines, regime):
    i = rng.randrange(min(5, len(lines)) or 1)
    if lines and rng.randrange(6):
        lines[i] = _pick(rng, HEADER_FAULTS)(lines[i])
    elif lines:
        del lines[i]


def csv_rows(rng, lines, regime):
    row = _pick(rng, lines[5:])
    del lines[5:]
    if row is not None and rng.randrange(2):
        lines.append(row)


def csv_text(rng, text):
    kind = rng.randrange(5)
    if kind == 0:
        return text[:rng.randrange(len(text) + 1)]
    if kind == 1:
        return text.replace("\n", "\r\n")
    if kind == 2:
        return text.rstrip("\n")
    if kind == 3:
        return _pick(rng, ["\n", " ", "\ufeff", "\x00"]) + text
    k = rng.randrange(len(text) + 1)
    return text[:k] + _pick(rng, CHARS) + text[k:]


# JSON faults act on a copy of the payload whose rows list is a copy; an
# entry is copied before it changes


def _entry(rng, payload):
    """A random entry of the rows, copied in place, and its index; None where
    the rows are no list, are empty, or the entry is no object."""
    rows = payload.get("rows")
    if isinstance(rows, list) and rows and isinstance(rows[i := rng.randrange(len(rows))], dict):
        rows[i] = dict(rows[i])
        return rows[i], i
    return None


def json_number(rng, payload, regime):
    if found := _entry(rng, payload):
        entry = found[0]
        entry[_pick(rng, [c for c in entry if c != regime]) or regime] = _pick(rng, JSON_VALUES)


def json_regime(rng, payload, regime):
    if found := _entry(rng, payload):
        found[0][regime] = _pick(rng, REGIMES + [None, 5, True, ["dql"], {}])


def json_entry(rng, payload, regime):
    if found := _entry(rng, payload):
        (entry, i), kind = found, rng.randrange(3)
        if kind == 0 and entry:
            del entry[_pick(rng, list(entry))]
        elif kind == 1:
            entry["walrus"] = 1.0
        else:
            payload["rows"][i] = _pick(rng, [[], 5, "x", None, [1.0]])


def json_rows(rng, payload, regime):
    rows, kind = payload.get("rows"), rng.randrange(3)
    if kind == 0 and isinstance(rows, list):
        payload["rows"] = rows[:rng.randrange(2)]
    elif kind == 1:
        payload["rows"] = _pick(rng, [{}, "x", 5, None, {"a": 1}])
    else:
        payload.pop("rows", None)


META = {"kind": ["budgets", None, 5, "spin-figure", "budget"], "version": [5, None, []],
        "config_hash": [None, [], 5], "columns": [None, 5, [], "omega"],
        "transitions": ["x", [None], ["x"], [10**400], 5, None, ["1_0"], [True], [], [1e400]]}


def json_meta(rng, payload, regime):
    key = _pick(rng, list(META))
    if rng.randrange(5) == 0:
        payload.pop(key, None)
    elif key == "columns" and isinstance(payload.get(key), list) and rng.randrange(2):
        payload[key] = payload[key][::-1] if rng.randrange(2) else payload[key][:-1]
    else:
        payload[key] = _pick(rng, META[key])


def json_text(rng, text):
    kind = rng.randrange(5)
    if kind == 0:
        return text[:rng.randrange(len(text) + 1)]
    if kind == 1:
        return text.replace("null", "NaN", 1).replace("0.5", "Infinity", 1)
    if kind == 2:
        return text + _pick(rng, [" x", "\n{}", "\x00", "\n\n"])
    if kind == 3:
        return _pick(rng, ["\n  ", "\ufeff", "\x1f"]) + text
    k = rng.randrange(len(text) + 1)
    return text[:k] + _pick(rng, CHARS) + text[k:]


FAULTS = {
    "csv": [csv_number, csv_number, csv_char, csv_char, csv_regime, csv_fields, csv_blank,
            csv_header, csv_rows, csv_text],
    "json": [json_number, json_number, json_regime, json_entry, json_rows, json_meta, json_text],
}


@functools.cache
def bases() -> tuple:
    """(config name, format, text, regime) of each committed config's CSV and JSON
    table; regime is the index of the regime column in CSV and its name in JSON."""
    out = []
    for path in sorted(CONFIGS.glob("*.json")):
        table = run_budget(load_config(str(path)))
        out += [(path.name, "csv", table.to_csv(), table.COLUMNS.index(table._REGIME)),
                (path.name, "json", table.to_json(), table._REGIME)]
    return tuple(out)


@functools.cache
def _payload(text: str) -> tuple:
    """The payload of a base JSON table, and the json.dumps text of each of its rows."""
    payload = json.loads(text)
    return payload, {id(entry): json.dumps(entry) for entry in payload["rows"]}


def _dumps(payload: dict, known: dict) -> str:
    """json.dumps(payload), with the text of each base row that is still there
    taken from known; rows is the payload's last key."""
    rows = payload.get("rows")
    if not (isinstance(rows, list) and list(payload)[-1] == "rows"):
        return json.dumps(payload)
    texts = (known.get(id(entry)) or json.dumps(entry) for entry in rows)
    return json.dumps(dict(payload, rows=None))[:-len("null}")] + "[" + ", ".join(texts) + "]}"


def corpus(n: int, seed: int) -> tuple:
    """n (label, text) pairs, each a committed config's table with 1 to 4
    seeded faults; a label names the table's index, config, format and
    faults and the first 12 hex digits of the text's sha256."""
    rng, tables = random.Random(seed), []
    for i in range(n):
        name, fmt, text, regime = _pick(rng, bases())
        faults = [_pick(rng, FAULTS[fmt]) for _ in range(rng.randint(1, 4))]
        edits = [f for f in faults if not f.__name__.endswith("_text")]
        if fmt == "csv":
            lines = text.splitlines()
            for fault in edits:
                fault(rng, lines, regime)
            text = "\n".join(lines) + "\n"
        else:
            base, known = _payload(text)
            payload = dict(base, rows=list(base["rows"]))
            for fault in edits:
                fault(rng, payload, regime)
            text = _dumps(payload, known)
        for fault in faults:
            if fault not in edits:
                text = fault(rng, text)
        names = "+".join(f.__name__.split("_", 1)[1] for f in faults)
        digest = hashlib.sha256(text.encode()).hexdigest()[:12]
        tables.append((f"{i:04d} {name} {fmt} {names} {digest}", text))
    return tuple(tables)


def outcome(text: str) -> str:
    """"sha256:" and the digest of the loaded table re-emitted in the format
    it was loaded from, or the error load_table raises as type: text."""
    try:
        table = load_table(text)
    except Exception as exc:  # noqa: BLE001 - an escape is pinned by its type
        return f"{type(exc).__name__}: {exc}"
    emitted = table.to_json() if text.lstrip().startswith("{") else table.to_csv()
    return "sha256:" + hashlib.sha256(emitted.encode()).hexdigest()


def corpus_outcomes(n: int, seed: int) -> dict:
    return {label: outcome(text) for label, text in corpus(n, seed)}


CORPUS_SIZE = tuple(json.loads(CORPUS.read_text(encoding="utf-8"))[k] for k in ("tables", "seed"))


def test_the_corpus_outcomes_are_pinned():
    pin = json.loads(CORPUS.read_text(encoding="utf-8"))
    fresh = corpus_outcomes(*CORPUS_SIZE)
    assert list(fresh) == list(pin["outcomes"])  # the generator made the pinned tables
    moved = [f"{label}: {pin['outcomes'][label]!r} -> {now!r}"
             for label, now in fresh.items() if pin["outcomes"][label] != now]
    assert moved == []
    # every malformed table is a ConfigError, and the corpus reaches both outcomes
    kinds = [now.split(":", 1)[0] for now in fresh.values()]
    assert len(fresh) >= 1000 and set(kinds) == {"sha256", "ConfigError"}
    assert kinds.count("sha256") >= 100 and kinds.count("ConfigError") >= 500


C_PATH = tables._c_columns


def as_loaded(text: str):
    """load_table's table as (meta, (dtype, bytes) of each array, the table
    re-emitted in the format it was loaded from), or its error as type: text."""
    try:
        table = load_table(text)
    except Exception as exc:  # noqa: BLE001 - compared by type and text
        return f"{type(exc).__name__}: {exc}"
    emitted = table.to_json() if text.lstrip().startswith("{") else table.to_csv()
    return table.meta, [(a.dtype, a.tobytes()) for a in table.arrays], emitted


def both_paths(texts, monkeypatch) -> tuple:
    """as_loaded of each text through the C path, then through the float()
    reference path alone, and the number of tables the C path loaded."""
    parsed = []

    def counted(cls, body):
        parsed.append(C_PATH(cls, body))
        return parsed[-1]

    monkeypatch.setattr(tables, "_c_columns", counted)
    fast = [as_loaded(text) for text in texts]
    monkeypatch.setattr(tables, "_c_columns", lambda cls, body: None)
    return fast, [as_loaded(text) for text in texts], sum(p is not None for p in parsed)


def test_the_c_parser_loads_what_float_loads(monkeypatch):
    # bit for bit (so == and the signs of zeros), or the same error type and
    # text: the committed configs' CSV tables, the block-edge tables with
    # lossless (inf) thresholds, a spin row of -0.0 and every CSV corpus table
    lines = run_spin_figure(load_config(str(CONFIGS / "spin_figure.json"))).to_csv().splitlines()
    lines[5] = "-0.0,-0.0,-0.0,-0.0,qcrb"
    spin_zero = "\n".join(lines) + "\n"
    assert np.signbit([a[0] for a in load_table(spin_zero).arrays[:4]]).all()
    clean = [text for _, fmt, text, _ in bases() if fmt == "csv"]
    clean += [edge_table(kind).to_csv() for kind in ("budget", "spin")] + [spin_zero]
    fast, reference, loaded = both_paths(clean, monkeypatch)
    assert fast == reference and loaded == len(clean)
    texts = [text for label, text in corpus(*CORPUS_SIZE) if label.split()[2] == "csv"]
    fast, reference, loaded = both_paths(texts, monkeypatch)
    assert [i for i, (a, b) in enumerate(zip(fast, reference)) if a != b] == []
    assert loaded >= 50


def test_characters_numpy_reads_unlike_float_send_a_table_to_float(monkeypatch):
    # numpy's parser reads \x1f before or after a number as whitespace, which
    # float() rejects, and drops a trailing NUL from the U5 regime field, so
    # it reads 'qcrb\x00' as 'qcrb': a table holding either loads by float()
    lines = bases()[0][2].splitlines()  # oscillator_budget.json's CSV
    head, row = lines[:6], lines[5]
    dtype = [(c, "U5" if c == "regime" else float) for c in BudgetTable.COLUMNS]
    c_read = functools.partial(np.loadtxt, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    for bad, expected in [("\x1f" + row, "could not convert string to float: '\\x1f0.5'"),
                          (row + "\x1f", "could not convert string to float: '0.0\\x1f'"),
                          (row.replace(",qcrb,", ",qcrb\x00,"), "unknown regime 'qcrb\\x00'")]:
        assert c_read([bad]).tobytes() == c_read([row]).tobytes()
        fast, reference, _ = both_paths(["\n".join(head + [bad]) + "\n"], monkeypatch)
        assert fast == reference == [f"ConfigError: line 7: {expected}"]


def scan_characters() -> list:
    """Every ASCII character, every character str.isspace() accepts, and the
    digit one of each script."""
    return [chr(i) for i in range(0x110000) if i < 128 or chr(i).isspace()
            or unicodedata.decimal(chr(i), None) == 1]


def test_no_other_character_reads_differently(monkeypatch):
    # each scanned character before, after and inside a number, and after or
    # before a regime, of a one-row table: both paths agree
    head = bases()[0][2].splitlines()[:6]
    number, rest = head[5].split(",", 1)
    texts = []
    for c in scan_characters():
        for row in (c + head[5], number + c + "," + rest, number[:1] + c + number[1:] + "," + rest,
                    head[5].replace(",qcrb,", f",qcrb{c},"), head[5].replace(",qcrb,", f",{c}qcrb,")):
            texts.append("\n".join(head[:5] + [row]) + "\n")
    fast, reference, loaded = both_paths(texts, monkeypatch)
    assert [texts[i] for i, (a, b) in enumerate(zip(fast, reference)) if a != b] == []
    assert loaded >= 50


FAST_LOADS = tables._fast_loads()
needs_orjson = pytest.mark.skipif(
    FAST_LOADS is None, reason="orjson is not installed: JSON tables load through json.loads alone")


def both_parsers(texts, monkeypatch) -> tuple:
    """as_loaded of each JSON text through orjson, then through the json.loads
    reference alone, and the number of tables orjson's payload built: those
    that loaded without a call to json.loads, which re-parses every other text."""
    reparsed, loads = set(), json.loads
    with monkeypatch.context() as m:
        m.setattr(json, "loads", lambda text: reparsed.add(text) or loads(text))
        fast = [as_loaded(text) for text in texts]
    with monkeypatch.context() as m:
        m.setattr(tables, "_fast_loads", lambda: None)
        reference = [as_loaded(text) for text in texts]
    return fast, reference, sum(text not in reparsed and not isinstance(got, str)
                                for text, got in zip(texts, fast))


@needs_orjson
def test_orjson_loads_what_json_loads(monkeypatch):
    # bit for bit with the same re-emitted text, or the same error type and
    # text: the committed configs' JSON tables, the block-edge tables with
    # lossless (null) thresholds, a spin row of -0.0 and every JSON corpus table
    payload = json.loads(run_spin_figure(load_config(str(CONFIGS / "spin_figure.json"))).to_json())
    payload["rows"][0] = {c: -0.0 for c in payload["rows"][0]} | {"regime_full": "qcrb"}
    spin_zero = json.dumps(payload, indent=2) + "\n"
    assert np.signbit([a[0] for a in load_table(spin_zero).arrays[:4]]).all()
    clean = [text for _, fmt, text, _ in bases() if fmt == "json"]
    clean += [edge_table(kind).to_json() for kind in ("budget", "spin")] + [spin_zero]
    fast, reference, loaded = both_parsers(clean, monkeypatch)
    assert fast == reference and loaded == len(clean)
    assert [f[2] for f in fast] == clean  # each re-emits byte for byte
    texts = [text for label, text in corpus(*CORPUS_SIZE) if label.split()[2] == "json"]
    fast, reference, loaded = both_parsers(texts, monkeypatch)
    assert [i for i, (a, b) in enumerate(zip(fast, reference)) if a != b] == []
    assert loaded >= 50


@needs_orjson
def test_texts_orjson_reads_unlike_json_loads_load_as_json_loads_reads_them(monkeypatch):
    # orjson reads an integer beyond 64 bits as a float where json.loads reads
    # an int, so str() of a meta field, and the text of an error that shows
    # the value, would differ; it rejects NaN, Infinity, 1e400 and a lone
    # surrogate, which json.loads reads
    base = json.loads(bases()[1][2])  # oscillator_budget.json's JSON table
    big = 2**64 + 1
    assert FAST_LOADS(str(big)) != big and float(FAST_LOADS(str(big))) == float(big)
    cases = {"version": big, "config_hash": -big, "transitions": [big, 2.5], "kind": big,
             "regime": big, "rows": big, "NaN": float("nan"), "Infinity": math.inf,
             "1e400": "1e400", "surrogate": "\ud800"}
    texts = []
    for case, value in cases.items():
        payload = dict(base, rows=[dict(entry) for entry in base["rows"]])
        if case in ("version", "config_hash", "transitions", "kind"):
            payload[case] = value
        elif case == "regime":
            payload["rows"][3]["regime"] = value
        elif case == "surrogate":
            payload["version"] = value
        else:
            payload["rows"][3]["s_fdt"] = value
        texts.append(json.dumps(payload).replace('"1e400"', "1e400"))
    fast, reference, loaded = both_parsers(texts, monkeypatch)
    assert fast == reference and loaded == 2  # the rows and transitions integers
    assert [got[0].version for got in fast[:2]] == [str(big), base["version"]]
    assert fast[1][0].config_hash == str(-big)
    assert fast[3:5] == [f"ConfigError: unknown table kind {big}",
                         f"ConfigError: malformed budget table: unknown regime {big}"]


def number_spellings(n: int, seed: int) -> list:
    """JSON number texts: n random finite doubles (uniform in their bits) and
    n/4 subnormals, each as repr, %.17g and %.25e; the exact decimal midpoint
    between each of half of them and the next double up, and the points 1e-30
    ulp to either side; integers of 53 to 1,030 bits, the integer midpoints
    between adjacent doubles above 2^54 with their neighbours, and the integers
    around 2^64 and around the first one float() rounds past DBL_MAX; both signs."""
    rng = random.Random(seed)
    doubles = []
    while len(doubles) < n:
        if math.isfinite(x := struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]):
            doubles.append(x)
    doubles += [rng.getrandbits(52) * rng.choice((5e-324, -5e-324)) for _ in range(n // 4)]
    doubles += [5e-324, 2.2250738585072014e-308 - 5e-324, 0.0, -0.0]
    texts = [spelled for x in doubles for spelled in (repr(x), "%.17g" % x, "%.25e" % x)]
    with localcontext() as ctx:
        ctx.prec = 1200  # the midpoint of two doubles is exact in 1,200 digits
        for x in doubles[::2]:
            if math.isfinite(up := math.nextafter(x, math.inf)):
                mid, step = (Decimal(x) + Decimal(up)) / 2, (Decimal(up) - Decimal(x)) / 10**30
                texts += [str(mid - step), str(mid), str(mid + step)]
    ints = [rng.getrandbits(rng.randint(53, 1030)) | 1 << 52 for _ in range(n // 2)]
    ints += [k + d for k in (2**64, 2**1024 - 2**970) for d in (-1, 0, 1)]
    for k in ints[:n // 4]:
        if 2**54 <= k < 2**1024 - 2**970 and math.isfinite(up := math.nextafter(float(k), math.inf)):
            ints += [(int(float(k)) + int(up)) // 2 + d for d in (-1, 0, 1)]
    return texts + [str(sign * k) for k in ints for sign in (1, -1)]


@needs_orjson
def test_orjson_reads_each_number_as_json_loads_does():
    # a table's numbers go through float(): orjson's value must give the bits
    # float(json.loads(text)) gives, or orjson must raise (json.loads then
    # re-parses the table); it raises only for an integer beyond DBL_MAX,
    # which float() rejects too (orjson reads an integer beyond 64 bits as a
    # float, json.loads as an int)
    texts, moved, overflow = number_spellings(4000, seed=1), [], 0
    for text in texts:
        try:
            want = struct.pack("<d", float(json.loads(text)))
        except OverflowError:
            want = None
        try:
            got = struct.pack("<d", float(FAST_LOADS(text)))
        except ValueError:  # orjson.JSONDecodeError
            got = None
        overflow += want is None
        if got != want:
            moved.append(text)
    assert moved == []
    assert len(texts) > 30000 and overflow >= 10
