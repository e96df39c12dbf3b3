"""Budget tables and their CSV/JSON serialization.

A table stores its columns as numpy arrays (`.arrays`): float64 (no -0.0 in a
budget table), and the regime as a bool mask, True where the DQL binds, which
reads and emits as the two Regime values.  Sweeps build the arrays; loaded
and row-object values are coerced (_coerced).  `.columns` (lists) and
`.points` (BudgetPoint/SpinFigurePoint rows) are built on first read.

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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import ConfigError
from .optimize import Regime

BLOCK_ROWS = 4096  # rows per emitted block: only one block's lists and texts are live
_REGIMES = np.array([Regime.QCRB_LIMITED.value, Regime.DQL_LIMITED.value], object)  # [dql]
_DQL = {r: bool(i) for i, r in enumerate(_REGIMES)}


@dataclass(frozen=True)
class BudgetPoint:
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


@dataclass(frozen=True)
class SpinFigurePoint:
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
BUDGET_COLUMNS = tuple(BudgetPoint.__dataclass_fields__)
SPIN_FIGURE_COLUMNS = tuple(SpinFigurePoint.__dataclass_fields__)
_BUDGET_FLOATS = tuple(c for c in BUDGET_COLUMNS if c != "regime")


@dataclass(frozen=True)
class TableMeta:
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
        transitions = tuple(float(t) for t in raw.split(",")) if raw else ()
    except ValueError as exc:
        raise ConfigError(f"line 3: malformed transitions: {exc}") from None
    header = lines[4]
    if header != ",".join(columns):
        raise ConfigError(f"line 5: unexpected column header {header!r}")
    meta = TableMeta(kind=kind, version=version, config_hash=config_hash, transitions=transitions)
    rows = [line.split(",") for line in lines[5:] if line]
    try:
        if any(len(parts) != len(columns) for parts in rows):
            raise ValueError
        return cls._of(cls._coerced(list(zip(*rows)) or [()] * len(columns)), meta)  # float() raises
    except ValueError:  # malformed: read row by row, for the first offending line
        for idx, line in ((i, line) for i, line in enumerate(lines[5:], start=6) if line):
            parts = line.split(",")
            if len(parts) != len(columns):
                raise ConfigError(f"line {idx}: expected {len(columns)} fields, got {len(parts)}")
            try:
                cls._coerced([[p] for p in parts])
            except ValueError as exc:
                raise ConfigError(f"line {idx}: {exc}") from None
        raise


def _decode_json(text: str) -> dict:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"expected a JSON object, got {type(payload).__name__}")
    return payload


def _parse_json(cls, payload: dict):
    kind, columns, regime = cls._KIND, cls.COLUMNS, cls._REGIME
    if payload.get("kind") != kind:
        raise ConfigError(f"expected a {kind!r} table, got {payload.get('kind')!r}")
    if tuple(payload.get("columns", ())) != tuple(columns):
        raise ConfigError(f"unexpected columns {payload.get('columns')!r}")
    try:
        entries = payload["rows"]
        try:
            table = cls._of(cls._coerced([[entry[c] for entry in entries] if c == regime else
                                          [math.inf if (v := entry[c]) is None else v
                                           for entry in entries] for c in columns]), None)
        except (KeyError, TypeError, ValueError):  # malformed: the first bad entry, row by row
            for entry in entries:
                for c in columns:
                    if c == regime:
                        _dql_mask([entry[c]])
                    elif (value := entry[c]) is not None:
                        float(value)
            raise
        table.meta = TableMeta(kind, str(payload["version"]), str(payload["config_hash"]),
                               tuple(float(t) for t in payload["transitions"]))
    except KeyError as exc:
        raise ConfigError(f"malformed {kind} table: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {kind} table: {exc}") from None
    return table


class _Table:
    """Arrays, meta, the list and row views, emit and parsing of both table
    kinds; each kind names its columns and how its float columns are coerced."""

    def __init__(self, points: Iterable, meta: TableMeta):
        self.points = tuple(points)  # row objects, which coerced their fields
        self.arrays = tuple(self._coerced([[getattr(p, c) for p in self.points]
                                           for c in self.COLUMNS]))
        self.meta = meta

    @classmethod
    def _of(cls, arrays, meta: TableMeta | None):
        """The table of these arrays, already in the table's form."""
        table = object.__new__(cls)
        table.meta = meta
        table.arrays = tuple(arrays)
        return table

    @classmethod
    def _coerced(cls, columns) -> list:
        """Loaded or row-object columns as the table's arrays, coerced as the row
        class coerces its fields; ValueError for a value that is not."""
        return [_dql_mask(col) if name == cls._REGIME else cls._floats(col)
                for name, col in zip(cls.COLUMNS, columns)]

    @cached_property
    def columns(self) -> tuple:
        """The columns as lists, built on first read: ~35 ms, 36 MB at 1e5 budget rows."""
        return tuple(_lists(self.arrays))

    @cached_property
    def points(self) -> tuple:
        """The rows as point objects, built on first read (rows() is cheaper), minus
        the generated __init__, which only stores the fields and calls __post_init__."""
        cls, points = self._POINT, []
        for row in zip(*_lists(self.arrays)):
            p = object.__new__(cls)
            p.__dict__.update(zip(cls.__dataclass_fields__, row))
            p.__post_init__()
            points.append(p)
        return tuple(points)

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

    from_csv = classmethod(_parse_csv)

    @classmethod
    def from_json(cls, text: str):
        return _parse_json(cls, _decode_json(text))


class BudgetTable(_Table):
    """Frequency-ordered budget rows plus run metadata."""

    COLUMNS = BUDGET_COLUMNS
    _KIND = "budget"
    _REGIME = "regime"
    _POINT = BudgetPoint

    # as BudgetPoint's float(v) + 0.0, which turns -0.0 into 0.0
    _floats = staticmethod(lambda col: np.fromiter(map(float, col), float, len(col)) + 0.0)

    to_csv, to_json = _Table.to_csv, _Table.to_json  # own entries: the benchmark tracer wraps them


class SpinFigureTable(_Table):
    """The three-series back-action sweep (full, sigma-zero, spin-matched)."""

    COLUMNS = SPIN_FIGURE_COLUMNS
    _KIND = "spin-figure"
    _REGIME = "regime_full"
    _POINT = SpinFigurePoint

    _floats = staticmethod(lambda col: np.fromiter(map(float, col), float, len(col)))

    to_csv, to_json = _Table.to_csv, _Table.to_json  # own entries: the benchmark tracer wraps them


def load_table(text: str):
    """Load either table kind from CSV or JSON text, sniffing the format."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        payload = _decode_json(text)  # decoded once, then dispatched on its kind
        for cls in (BudgetTable, SpinFigureTable):
            if payload.get("kind") == cls._KIND:
                return _parse_json(cls, payload)
        raise ConfigError(f"unknown table kind {payload.get('kind')!r}")
    for cls in (BudgetTable, SpinFigureTable):
        if stripped.startswith(f"# qnl {cls._KIND}"):
            return cls.from_csv(text)
    raise ConfigError("unrecognized table format")
