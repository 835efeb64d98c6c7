"""Experiment configuration: a JSON document with model, potential,
numerics, and task sections, hashed for artifact provenance."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from .errors import ConfigError
from .potentials import (PiecewisePotential, PotentialDomain,
                         dirichlet_example, half_line_step, neumann_example,
                         periodic_example)
from .spectral import ModelKind, SpectralModel

_POTENTIAL_PRESETS = {
    "dirichlet_example": dirichlet_example,
    "periodic_example": periodic_example,
    "neumann_example": neumann_example,
}


@dataclass(frozen=True)
class ModelConfig:
    kind: str = "dirichlet"
    drift: float = 0.0
    l: int = 1


@dataclass(frozen=True)
class PotentialConfig:
    preset: str | None = "dirichlet_example"
    breakpoints: tuple[float, ...] = ()
    pieces: tuple[tuple[float, ...], ...] = ()
    domain: str = "unit_interval"
    # parameter for the half-line step preset
    a: float = 0.3


@dataclass(frozen=True)
class NumericsConfig:
    N: int = 64
    n_steps: int = 4096
    K: int = 20
    tolerance: float = 1e-8
    condition_cap: float = 1e12
    bound_threshold: float = 1e-12


@dataclass(frozen=True)
class TaskConfig:
    T: float = 0.5
    delta: float = 0.01
    seed: int = 0
    max_iters: int = 10
    kmax: int = 50
    weight: str | None = None
    control: dict = field(default_factory=lambda: {"type": "zero"})
    # moments-solve data; with all three empty it solves the model's
    # transition family lambda_k - lambda_l over K modes, targets from seed
    frequencies: tuple[float, ...] = ()
    targets_re: tuple[float, ...] = ()
    targets_im: tuple[float, ...] = ()
    a_values: tuple[float, ...] = (0.0, 0.3, 1.0)


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig = ModelConfig()
    potential: PotentialConfig = PotentialConfig()
    numerics: NumericsConfig = NumericsConfig()
    task: TaskConfig = TaskConfig()
    output_dir: str = "out"

    def to_document(self) -> dict:
        return asdict(self)

    def hash(self) -> str:
        # the hash stamps the scientific configuration; where the artifacts
        # land must not change it
        doc = self.to_document()
        doc.pop("output_dir", None)
        canonical = json.dumps(doc, sort_keys=True,
                               separators=(",", ":"), default=list)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def spectral_model(self) -> SpectralModel:
        try:
            kind = ModelKind(self.model.kind)
        except ValueError:
            raise ConfigError(f"unknown model kind {self.model.kind!r}")
        drift = self.model.drift if kind.laws.drift else 0.0
        return SpectralModel(kind, drift=drift)

    def piecewise_potential(self) -> PiecewisePotential:
        pot = self.potential
        if pot.preset is not None:
            if pot.preset == "half_line_step":
                return half_line_step(pot.a)
            if pot.preset not in _POTENTIAL_PRESETS:
                raise ConfigError(f"unknown potential preset {pot.preset!r}")
            return _POTENTIAL_PRESETS[pot.preset]()
        try:
            domain = PotentialDomain(pot.domain)
        except ValueError:
            raise ConfigError(f"unknown potential domain {pot.domain!r}")
        return PiecewisePotential(tuple(pot.breakpoints),
                                  tuple(tuple(p) for p in pot.pieces), domain)


_SECTIONS = {
    "model": ModelConfig,
    "potential": PotentialConfig,
    "numerics": NumericsConfig,
    "task": TaskConfig,
}


# the types each scalar field annotation takes; no field takes a bool
_TYPES = {"int": int, "float": (int, float), "str": str,
          "str | None": (str, type(None)), "dict": dict}


def _fits(value, annotation: str) -> bool:
    if annotation.startswith("tuple["):  # tuple[<element>, ...]
        return isinstance(value, tuple) and all(
            _fits(v, annotation[6:-6]) for v in value)
    return (isinstance(value, _TYPES[annotation])
            and not isinstance(value, bool))


def _build_section(cls, doc: dict, path: str):
    allowed = cls.__dataclass_fields__
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in section {path!r}")
    kwargs = {}
    for key, raw in doc.items():
        value = raw
        if isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v
                          for v in value)
        # checked, never converted, so a valid config hashes as written
        if not _fits(value, allowed[key].type):
            raise ConfigError(
                f"bad value {raw!r} for key {key!r} in section {path!r}")
        kwargs[key] = value
    return cls(**kwargs)


def load_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(doc) - set(_SECTIONS) - {"output_dir"}
    if unknown:
        raise ConfigError(f"unknown top-level key(s) {sorted(unknown)}")
    sections = {}
    for name, cls in _SECTIONS.items():
        sub = doc.get(name, {})
        if not isinstance(sub, dict):
            raise ConfigError(f"section {name!r} must be a JSON object")
        sections[name] = _build_section(cls, sub, name)
    output_dir = doc.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir must be a string")
    return ExperimentConfig(output_dir=output_dir, **sections)


def load_config_file(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: invalid JSON at line "
                          f"{exc.lineno}, column {exc.colno}: {exc.msg}")
    return load_config(doc)
