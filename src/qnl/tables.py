"""Budget tables and their CSV/JSON serialization.

A table stores its columns as numpy arrays (`.arrays`): float64 (no -0.0 in a
budget table), and the regime as a bool mask, True where the DQL binds, which
reads and emits as the two Regime values.  Tables come from sweeps, which
build the arrays, or from load_table, which reads a CSV body through numpy's
C parser (np.loadtxt).  float() (_coerced, as for JSON) is the reference and
the fallback, for a body np.loadtxt rejects (1_0, non-ASCII digits, a fault:
the first bad row's error) and a table holding \x1f or NUL, which the two
read differently.  On a 2-core VM a 1e5-row CSV loads in 0.24 s (0.5 s by
float()), and a cold `qnl verify --golden` on it peaks at 109 MB RSS (212 MB).
JSON text parses through orjson, imported on the first JSON load; json.loads
is the reference and the fallback, and re-parses a text orjson rejects (NaN,
Infinity, 1e400, a lone surrogate), one whose payload raises a ConfigError,
and one whose version or config_hash is not a string (orjson reads an int
beyond 64 bits as a float).  On the same VM a 5,000-row spin JSON loads in
4 ms (9 ms by json.loads), a 1e5-row budget JSON in 0.28 s (0.50 s), at a
peak RSS 75 MB higher: orjson holds a copy of the text and its parse tree.
`.points` (BudgetPoint/SpinFigurePoint rows) is built on first read; rows()
gives the same values as lists.

Number formatting is the shortest round-trip decimal (Python float repr),
column order is fixed, and emit(parse(text)) == text byte for byte.
Lossless-probe thresholds are infinite; they serialize as the string "inf"
in CSV and as null in JSON.  The JSON text is json.dumps(payload, indent=2),
written directly from a fixed per-row template.  _emit_csv and _emit_json
yield the text in blocks of BLOCK_ROWS rows; to_csv() and to_json() join them.
"""

from __future__ import annotations

import json
import math
from functools import cache, cached_property

import numpy as np

from ._record import Record
from .errors import ConfigError
from .optimize import Regime

BLOCK_ROWS = 4096  # rows per emitted block: only one block's lists and texts are live
_REGIMES = np.array([Regime.QCRB_LIMITED.value, Regime.DQL_LIMITED.value], object)  # [dql]
_DQL = {r: bool(i) for i, r in enumerate(_REGIMES)}


class BudgetPoint(Record):
    """One frequency of the noise budget (all PSDs force-referred)."""

    omega: float
    sql: float
    dql: float
    s_thr: float
    s_sum_opt: float
    regime: str
    s_fdt: float
    s_total: float
    sigma_opt: float
    s_xx_opt: float
    re_s_xf_opt: float
    im_s_xf_opt: float

    def __post_init__(self) -> None:
        # via the instance dict (half the cost of object.__setattr__); + 0.0
        # normalizes -0.0 so emitted tables are stable
        v = self.__dict__
        for name in _BUDGET_FLOATS:
            v[name] = float(v[name]) + 0.0
        v["regime"] = str(v["regime"])


class SpinFigurePoint(Record):
    """One back-action budget of the three-way comparison sweep."""

    s_ff: float
    s_sum_full: float
    s_sum_sigma_zero: float
    s_sum_spin_matched: float
    regime_full: str

    def __post_init__(self) -> None:
        v = self.__dict__  # as in BudgetPoint
        for name in SPIN_FIGURE_COLUMNS[:4]:
            v[name] = float(v[name])
        v["regime_full"] = str(v["regime_full"])


# the column order of each table is its row class's field order
BUDGET_COLUMNS = tuple(BudgetPoint._fields)
SPIN_FIGURE_COLUMNS = tuple(SpinFigurePoint._fields)
_BUDGET_FLOATS = tuple(c for c in BUDGET_COLUMNS if c != "regime")


class TableMeta(Record):
    kind: str
    version: str
    config_hash: str
    transitions: tuple


def _dql_mask(col) -> np.ndarray:
    """The dql mask of a column of regime values; ValueError for any other value."""
    try:
        return np.fromiter(map(_DQL.__getitem__, col), bool, len(col))
    except (KeyError, TypeError):
        bad = next(v for v in col if not (isinstance(v, str) and v in _DQL))
        raise ValueError(f"unknown regime {bad!r}") from None


def _lists(arrays, numbers=np.ndarray.tolist) -> list:
    """The columns as lists: numbers(a) of each float array, the mask as Regime values."""
    return [_REGIMES[a.view(np.uint8)].tolist() if a.dtype == bool else numbers(a) for a in arrays]


def _blocks(table, numbers):
    """The rows of _lists(table.arrays, numbers), in blocks of BLOCK_ROWS."""
    for i in range(0, len(table.arrays[0]), BLOCK_ROWS):
        yield zip(*_lists([a[i:i + BLOCK_ROWS] for a in table.arrays], numbers))


def _reprs(a: np.ndarray, null: str | None = None) -> list:
    """repr of each value; with null given, null where a value is not finite."""
    texts = list(map(repr, a.tolist()))
    if null:
        for i in np.flatnonzero(~np.isfinite(a)).tolist():
            texts[i] = null
    return texts


def _emit_csv(table):
    meta = table.meta
    yield "\n".join([
        f"# qnl {meta.kind} v{meta.version}",
        f"# config_hash={meta.config_hash}",
        "# transitions=" + ",".join(repr(float(t)) for t in meta.transitions),
        "# lossless thresholds serialize as inf (null in JSON)",
        ",".join(table.COLUMNS),
        "",
    ])
    for rows in _blocks(table, _reprs):
        yield "\n".join(map(",".join, rows)) + "\n"


def _emit_json(table):
    """json.dumps(payload, indent=2) + "\\n" with non-finite numbers as null,
    byte for byte; the rows are written from a fixed template, because with
    indent json.dumps runs its pure-Python encoder."""
    meta, names = table.meta, table.COLUMNS
    head = json.dumps({"kind": meta.kind, "version": meta.version, "config_hash": meta.config_hash,
                       "transitions": list(meta.transitions), "columns": list(names)}, indent=2)
    fields = [f"      {json.dumps(n)}: " + ('"%s"' if n == table._REGIME else "%s") for n in names]
    row = "    {\n" + ",\n".join(fields) + "\n    }"  # a regime value needs no escapes
    n = len(table.arrays[0])
    # head ends "\n}": the rows go in as the payload's last key
    yield head[:-2] + ',\n  "rows": ' + ("[\n" if n else "[]")
    for i, rows in enumerate(_blocks(table, lambda a: _reprs(a, "null"))):
        yield (",\n" if i else "") + ",\n".join(map(row.__mod__, rows))
    yield ("\n  ]" if n else "") + "\n}\n"


def _parse_csv(cls, text: str):
    kind, columns = cls._KIND, cls.COLUMNS
    lines = text.splitlines()
    if len(lines) < 5:
        raise ConfigError(f"{kind} CSV too short to contain header and metadata")
    prefix = "# qnl "
    if not lines[0].startswith(prefix):
        raise ConfigError(f"line 1: expected '{prefix}... ' banner, got {lines[0]!r}")
    banner = lines[0][len(prefix):]
    got_kind, _, version = banner.rpartition(" v")
    if got_kind != kind:
        raise ConfigError(f"line 1: expected a {kind!r} table, got {got_kind!r}")
    if not lines[1].startswith("# config_hash="):
        raise ConfigError(f"line 2: expected '# config_hash=...', got {lines[1]!r}")
    config_hash = lines[1].split("=", 1)[1]
    if not lines[2].startswith("# transitions="):
        raise ConfigError(f"line 3: expected '# transitions=...', got {lines[2]!r}")
    raw = lines[2].split("=", 1)[1]
    try:
        transitions = _transitions(raw.split(",")) if raw else ()
    except ValueError as exc:
        raise ConfigError(f"line 3: malformed transitions: {exc}") from None
    header = lines[4]
    if header != ",".join(columns):
        raise ConfigError(f"line 5: unexpected column header {header!r}")
    meta = TableMeta(kind=kind, version=version, config_hash=config_hash, transitions=transitions)
    body = [line for line in lines[5:] if line]
    # numpy reads \x1f as whitespace, which float() rejects, and drops a regime's trailing NUL
    if body and "\x1f" not in text and "\x00" not in text and (arrays := _c_columns(cls, body)):
        return cls(arrays, meta)
    rows = [line.split(",") for line in body]  # the reference path: float()
    try:
        if any(len(parts) != len(columns) for parts in rows):
            raise ValueError
        return cls(cls._coerced(list(zip(*rows)) or [()] * len(columns)), meta)  # float() raises
    except ValueError:  # malformed: read row by row, for the first offending line
        _raise_first_bad_row(cls, ((f"line {i}", _fields(line, len(columns)))
                                   for i, line in enumerate(lines[5:], start=6) if line))
        raise


def _c_columns(cls, body: list):
    """The body's columns by numpy's C parser; None where it raises or a regime is bad."""
    try:  # comments="#" would read 1.5#x as 1.5
        rows = np.loadtxt(body, [(c, "U5" if c == cls._REGIME else float) for c in cls.COLUMNS],
                          delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    regime = rows[cls._REGIME]
    dql = regime == _REGIMES[1]
    if (dql | (regime == _REGIMES[0])).all():
        return [dql if c == cls._REGIME else cls._normal(rows[c]) for c in cls.COLUMNS]
    return None


def _fields(line: str, width: int):
    """The fields of a CSV row, after a ValueError if there are not width of them."""
    parts = line.split(",")
    if len(parts) != width:
        raise ValueError(f"expected {width} fields, got {len(parts)}")
    yield from parts


def _raise_first_bad_row(cls, rows) -> None:
    """The malformed-table scan of both loaders: rows are (label, fields) pairs in
    row order; raise a ConfigError with the label for the first row that cls
    cannot coerce.  Fields are read one at a time, so a row's first fault wins."""
    for label, fields in rows:
        try:
            cls._coerced([v] for v in fields)
        except KeyError as exc:
            raise ConfigError(f"{label}: missing field {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:  # Overflow: an int beyond a float
            raise ConfigError(f"{label}: {exc}") from None


def _transitions(values) -> tuple:
    """The transitions as floats; ValueError where one is not finite, as a
    transition is the grid value where the regime flips."""
    transitions = tuple(map(float, values))
    for t in transitions:
        if not math.isfinite(t):
            raise ValueError(f"transition {t!r} is not finite")
    return transitions


def _listed(payload: dict, key: str) -> list:
    """payload[key], after a TypeError naming the key if it is not a list."""
    if not isinstance(value := payload[key], list):
        raise TypeError(f"{key}: expected a list, got {value!r}")
    return value


def _entry_fields(entry, i: int, columns, regime: str):
    """The fields of JSON row i (null as inf), after a TypeError if it is not an object."""
    if not isinstance(entry, dict):
        raise TypeError(f"rows[{i}]: expected an object, got {entry!r}")
    for c in columns:
        yield math.inf if (v := entry[c]) is None and c != regime else v


def _parse_json(cls, payload: dict):
    columns, regime, label = cls.COLUMNS, cls._REGIME, f"malformed {cls._KIND} table"
    if payload.get("columns") != list(columns):
        raise ConfigError(f"unexpected columns {payload.get('columns')!r}")
    try:
        entries = _listed(payload, "rows")
        try:
            arrays = cls._coerced([[entry[c] for entry in entries] if c == regime else
                                   [math.inf if (v := entry[c]) is None else v
                                    for entry in entries] for c in columns])
        except (KeyError, TypeError, ValueError, OverflowError):  # the first bad entry, row by row
            _raise_first_bad_row(cls, ((label, _entry_fields(entry, i, columns, regime))
                                       for i, entry in enumerate(entries)))
            raise
        meta = TableMeta(cls._KIND, str(payload["version"]), str(payload["config_hash"]),
                         _transitions(_listed(payload, "transitions")))
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{label}: missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{label}: {exc}") from None
    return cls(arrays, meta)


class _Table:
    """Arrays, meta, the row views and emit of both table kinds; each kind
    names its columns and how its float columns are coerced."""

    def __init__(self, arrays, meta: TableMeta | None):
        self.arrays = tuple(arrays)  # already in the table's form: sweeps' or _coerced's
        self.meta = meta

    @classmethod
    def _coerced(cls, columns) -> list:
        """Columns of loaded values as the table's arrays: float64 (a budget
        table's -0.0 as 0.0) and the dql mask; ValueError for a value that is
        neither a number nor a Regime value."""
        return [_dql_mask(col) if name == cls._REGIME else
                cls._normal(np.fromiter(map(float, col), float, len(col)))
                for name, col in zip(cls.COLUMNS, columns)]

    @cached_property
    def points(self) -> tuple:
        """The rows as point objects, built on first read (rows() is cheaper)."""
        return tuple(map(self._POINT, *_lists(self.arrays)))

    def rows(self) -> list[list]:
        return [list(r) for r in zip(*_lists(self.arrays))]

    def to_csv(self) -> str:
        return "".join(_emit_csv(self))

    def to_json(self) -> str:
        return "".join(_emit_json(self))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.meta == other.meta and all(map(np.array_equal, self.arrays, other.arrays))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(<{len(self.arrays[0])} rows>, meta={self.meta!r})"


class BudgetTable(_Table):
    """Frequency-ordered budget rows plus run metadata."""

    COLUMNS = BUDGET_COLUMNS
    _KIND = "budget"
    _REGIME = "regime"
    _POINT = BudgetPoint

    _normal = staticmethod(lambda a: a + 0.0)  # as BudgetPoint's float(v) + 0.0: no -0.0

    to_csv, to_json = _Table.to_csv, _Table.to_json  # own entries: the benchmark tracer wraps them


class SpinFigureTable(_Table):
    """The three-series back-action sweep (full, sigma-zero, spin-matched)."""

    COLUMNS = SPIN_FIGURE_COLUMNS
    _KIND = "spin-figure"
    _REGIME = "regime_full"
    _POINT = SpinFigurePoint

    _normal = staticmethod(np.ascontiguousarray)  # -0.0 stays

    to_csv, to_json = _Table.to_csv, _Table.to_json  # own entries: the benchmark tracer wraps them


@cache
def _fast_loads():
    """orjson.loads, imported on the first JSON load; None where orjson is missing."""
    try:
        from orjson import loads
    except ImportError:
        return None
    return loads


def _json_table(payload: dict):
    for cls in (BudgetTable, SpinFigureTable):
        if payload.get("kind") == cls._KIND:
            return _parse_json(cls, payload)
    raise ConfigError(f"unknown table kind {payload.get('kind')!r}")


def load_table(text: str):
    """Load either table kind from CSV or JSON text, sniffing the format."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        # orjson's payload only where it builds a table and str() of its meta
        # strings is exact (orjson reads an int beyond 64 bits as a float);
        # json.loads, the reference, re-parses every other text
        if fast := _fast_loads():
            try:
                payload = fast(text)
                if all(isinstance(payload.get(k), str) for k in ("version", "config_hash")):
                    return _json_table(payload)
            except ValueError:  # orjson.JSONDecodeError and ConfigError are ValueErrors
                pass
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
        except RecursionError:
            raise ConfigError("JSON nested deeper than the recursion limit") from None
        return _json_table(payload)
    for cls in (BudgetTable, SpinFigureTable):
        if stripped.startswith(f"# qnl {cls._KIND}"):
            return _parse_csv(cls, text)
    raise ConfigError("unrecognized table format")
