"""Run configuration: JSON schema, presets, and run manifests.

A run is described by one JSON document with sections `source`,
`efficiency`, `scan`, `blocks`, and a top-level `seed`; which sections a
subcommand needs is declared per subcommand, and validation errors name
the offending key with its full dotted path so a broken config points at
itself.  Every run that succeeds writes a manifest that echoes the fully
resolved document, and a manifest fed back as a config replays the run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from importlib import resources as importlib_resources

from .errors import ConfigurationError
from .model import CHANNELS, EfficiencyBudget, SourceParams
from .simulator import MAX_PULSES_PER_SETTING

__all__ = [
    "PRESET_NAMES",
    "ScanSpec",
    "BlockSpec",
    "RunConfig",
    "load_config_file",
    "load_preset",
    "parse_config",
    "RunManifest",
]

PRESET_NAMES = ("paper-240m", "paper-10km", "ideal", "threshold-scan")

_SECTION_NAMES = ("source", "efficiency", "scan", "blocks", "seed")


def _fail(path, message):
    raise ConfigurationError(f"config key {path}: {message}")


def _need(doc, key, path, kind=None):
    if key not in doc:
        _fail(f"{path}{key}", "missing required key")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        names = "/".join(k.__name__ for k in kinds)
        _fail(f"{path}{key}", f"expected {names}, got {type(value).__name__}")
    return value


def _finite(value, path):
    """A JSON number as a finite float; _fail names path otherwise."""
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        _fail(path, "must be finite")
    return value


def _number(doc, key, path, minimum=None, maximum=None, default=None):
    if key not in doc and default is not None:
        return default
    value = _need(doc, key, path, (int, float))
    if isinstance(value, bool):
        _fail(f"{path}{key}", "expected a number, got a boolean")
    value = _finite(value, f"{path}{key}")
    if minimum is not None and value < minimum:
        _fail(f"{path}{key}", f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        _fail(f"{path}{key}", f"must be <= {maximum}, got {value}")
    return value


def _integer(doc, key, path, minimum=None, maximum=None, default=None):
    if key not in doc and default is not None:
        return default
    value = _need(doc, key, path, int)
    if isinstance(value, bool):
        _fail(f"{path}{key}", "expected an integer, got a boolean")
    if minimum is not None and value < minimum:
        _fail(f"{path}{key}", f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        _fail(f"{path}{key}", f"must be <= {maximum}, got {value}")
    return int(value)


def _interval(value, path):
    """[low, high] of two finite numbers, booleans excluded, as floats."""
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       for x in value)):
        _fail(path, "expected [low, high]")
    return _finite(value[0], path), _finite(value[1], path)


@dataclass(frozen=True)
class ScanSpec:
    """Phase-scan or efficiency-scan settings for one run."""

    points: int = 13
    span: tuple = (0.0, 2.0 * math.pi / 3.0)
    pulses_per_point: int = 1_000_000
    analytic: bool = False
    eta_range: tuple | None = None
    eta_step: float | None = None

    def setpoints(self):
        lo, hi = self.span
        step = (hi - lo) / (self.points - 1) if self.points > 1 else 0.0
        return [lo + i * step for i in range(self.points)]

    def eta_points(self):
        if self.eta_range is None or self.eta_step is None:
            raise ConfigurationError(
                "config key scan.eta_range: required for an efficiency scan"
            )
        lo, hi = self.eta_range
        values = []
        k = 0
        while True:
            eta = lo + k * self.eta_step
            if eta > hi + 1e-12:
                break
            values.append(round(eta, 12))
            k += 1
        return values


@dataclass(frozen=True)
class BlockSpec:
    """Blocked-acquisition settings: block budget, block count, phases."""

    k_bar: int
    s: int
    num_phases: int = 6


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved run request."""

    source: SourceParams
    efficiency: EfficiencyBudget | None
    scan: ScanSpec | None
    blocks: BlockSpec | None
    seed: int
    raw: dict

    def require(self, section):
        value = getattr(self, section)
        if value is None:
            raise ConfigurationError(
                f"config key {section}: this subcommand requires the "
                f"'{section}' section"
            )
        return value


def _parse_source(doc):
    sec = _need(doc, "source", "", dict)
    mu = _number(sec, "mu", "source.", minimum=0.0)
    visibility = _number(sec, "visibility", "source.", minimum=0.0, maximum=1.0)
    n_max = _integer(sec, "n_max", "source.", minimum=1, default=SourceParams.n_max)
    for key in sec:
        if key not in ("mu", "visibility", "n_max"):
            _fail(f"source.{key}", "unknown key")
    try:
        return SourceParams(mu=mu, visibility=visibility, n_max=n_max)
    except ConfigurationError as exc:
        _fail("source", str(exc))


def _parse_efficiency(doc):
    if "efficiency" not in doc:
        return None
    sec = _need(doc, "efficiency", "", dict)
    if "uniform" in sec:
        extra = set(sec) - {"uniform"}
        if extra:
            _fail(f"efficiency.{sorted(extra)[0]}",
                  "unknown key next to 'uniform'")
        value = _number(sec, "uniform", "efficiency.", minimum=0.0, maximum=1.0)
        try:
            return EfficiencyBudget.uniform(value)
        except ConfigurationError as exc:
            _fail("efficiency.uniform", str(exc))
    for key in sec:
        if key not in CHANNELS:
            _fail(f"efficiency.{key}",
                  f"unknown channel; expected {', '.join(CHANNELS)} or 'uniform'")
    eta = {ch: _number(sec, ch, "efficiency.", minimum=0.0, maximum=1.0)
           for ch in CHANNELS}
    try:
        return EfficiencyBudget(eta)
    except ConfigurationError as exc:
        _fail("efficiency", str(exc))


def _parse_scan(doc):
    if "scan" not in doc:
        return None
    sec = _need(doc, "scan", "", dict)
    known = {"points", "span", "pulses_per_point", "analytic", "eta_range",
             "eta_step"}
    for key in sec:
        if key not in known:
            _fail(f"scan.{key}", "unknown key")
    points = _integer(sec, "points", "scan.", minimum=1, default=ScanSpec.points)
    span = _interval(sec.get("span", ScanSpec.span), "scan.span")
    if not span[0] < span[1]:
        _fail("scan.span", f"must satisfy low < high, got {list(span)}")
    pulses = _integer(sec, "pulses_per_point", "scan.", minimum=1,
                      maximum=MAX_PULSES_PER_SETTING, default=ScanSpec.pulses_per_point)
    analytic = sec.get("analytic", ScanSpec.analytic)
    if not isinstance(analytic, bool):
        _fail("scan.analytic", "expected a boolean")
    eta_range = sec.get("eta_range")
    eta_step = None
    if eta_range is not None:
        eta_range = _interval(eta_range, "scan.eta_range")
        if not 0.0 < eta_range[0] < eta_range[1] <= 1.0:
            _fail("scan.eta_range",
                  f"must satisfy 0 < low < high <= 1, got {list(eta_range)}")
        eta_step = _number(sec, "eta_step", "scan.", minimum=1e-6)
    return ScanSpec(points=points, span=span,
                    pulses_per_point=pulses, analytic=analytic,
                    eta_range=eta_range, eta_step=eta_step)


def _parse_blocks(doc):
    if "blocks" not in doc:
        return None
    sec = _need(doc, "blocks", "", dict)
    known = {"k_bar", "s", "num_phases"}
    for key in sec:
        if key not in known:
            _fail(f"blocks.{key}", "unknown key")
    k_bar = _integer(sec, "k_bar", "blocks.", minimum=1)
    s = _integer(sec, "s", "blocks.", minimum=2)
    num_phases = _integer(sec, "num_phases", "blocks.", minimum=0,
                          default=BlockSpec.num_phases)
    return BlockSpec(k_bar=k_bar, s=s, num_phases=num_phases)


def parse_config(doc):
    """Validate a config document and build the run objects."""
    if not isinstance(doc, dict):
        raise ConfigurationError(
            f"config root: expected an object, got {type(doc).__name__}"
        )
    if "resolved_config" in doc:
        # a manifest was passed as the config: replay its resolved echo
        doc = _need(doc, "resolved_config", "", dict)
    for key in doc:
        if key not in _SECTION_NAMES:
            _fail(key, f"unknown section; expected one of {_SECTION_NAMES}")
    source = _parse_source(doc)
    seed = _integer(doc, "seed", "", minimum=0, maximum=2**64 - 1)
    return RunConfig(
        source=source,
        efficiency=_parse_efficiency(doc),
        scan=_parse_scan(doc),
        blocks=_parse_blocks(doc),
        seed=seed,
        raw=dict(doc),
    )


def load_config_file(path):
    """Read and validate a JSON config (or manifest) file."""
    with open(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"config file {path} is not valid JSON: {exc.msg} at line "
            f"{exc.lineno} column {exc.colno}"
        ) from exc
    return parse_config(doc)


def load_preset(name):
    """Load one of the shipped presets by name."""
    if name not in PRESET_NAMES:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    ref = importlib_resources.files("entsense.presets").joinpath(f"{name}.json")
    doc = json.loads(ref.read_text())
    return parse_config(doc)


def dump_json(doc, path=None):
    """doc as two-space indented JSON text, the format of every JSON file
    the package writes; when path is given the text is also written
    there with a trailing newline."""
    text = json.dumps(doc, indent=2)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def dump_csv(header, rows, path_or_file):
    """A header line, then one line per row of comma-joined repr fields,
    so floats read back bit for bit: the format of every CSV table the
    package writes but tallies.csv.  path_or_file is a path or a
    writable text file."""
    if not hasattr(path_or_file, "write"):
        with open(path_or_file, "w") as fh:
            return dump_csv(header, rows, fh)
    path_or_file.write(header + "\n")
    for row in rows:
        path_or_file.write(",".join(map(repr, row)) + "\n")


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to replay a run and get the same bytes back."""

    subcommand: str
    config_path: str | None
    seed: int
    out_dir: str
    version: str
    timestamp: str
    resolved_config: dict

    @classmethod
    def create(cls, subcommand, config_path, config, out_dir, version):
        return cls(
            subcommand=subcommand,
            config_path=None if config_path is None else str(config_path),
            seed=config.seed,
            out_dir=str(out_dir),
            version=version,
            timestamp=datetime.now(timezone.utc).isoformat(),
            resolved_config=dict(config.raw),
        )

    def to_json(self, path=None):
        doc = {
            "subcommand": self.subcommand,
            "config_path": self.config_path,
            "seed": self.seed,
            "out_dir": self.out_dir,
            "version": self.version,
            "timestamp": self.timestamp,
            "resolved_config": self.resolved_config,
        }
        return dump_json(doc, path)
