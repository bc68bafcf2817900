"""Verification suite runner and command-line interface."""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .dwbc import draw_residuals, underflow_residual
from .errors import ConfigError, SixVertexError
from .functional_system import (
    check_appendix,
    check_fl,
    check_theorem,
    check_tphi,
    even_floor,
    k0_closed_form_residual,
    oracle_residuals,
    theorem_permutation_residual,
    transfer_eigenstates,
    values,
)
from .report import FAIL, CheckReport, digest_of, make_report
from .roots_of_unity import (
    RootOfUnitySpec,
    bethe_residual,
    bethe_residual_l2,
    check_inversion_l2,
    check_l3_relation,
    check_l4_relation,
    check_truncation,
    l4_ratio_residuals,
    l4_shifted_values,
    l4_specialized_residuals,
    truncated_expansion_residual,
)
from .vertex_core import (
    ModelParams,
    b_commute_residual,
    commuting_residual,
    full_product_residuals,
    generic_points,
    hamiltonian_residuals,
    rll_residual,
    sample_mu,
    special_value_residuals,
    twist_symmetry_residual,
    unitarity_residual,
    ybe_residual,
)
from .zeros import (
    at_zero_residual,
    check_lz01,
    check_zero_coincidence,
    extract_zeros,
    reconstruction_residual,
    sample_values,
    wronskian_residual,
    wronskian_sharpness,
)

SUITES = ("structural", "dwbc", "functional", "theorem", "zeros", "rou")

L_CAP = 8

DEFAULT_GAMMA = complex(0.6, 0.25)

# Every check family: its key covers the record names of the family (see
# `_covers`; the longest covering key wins), and its entry holds the anchor,
# the tag of the source-paper equation that the family checks, and the
# default tolerance.  The appendix anchor depends on the chain size.
FAMILIES = {
    "structural.weights": ("rmat", 1e-12),
    "structural.r_at_origin": ("rmat", 1e-12),
    "structural.ybe": ("yba", 1e-10),
    "structural.unitarity": ("rmat", 1e-10),
    "structural.twist_symmetry": ("rmat", 1e-12),
    "structural.twist_square": ("rmat", 1e-12),
    "structural.block_assembly": ("abcd", 1e-12),
    "structural.rll": ("yba", 1e-9),
    "structural.action": ("action", 1e-10),
    "structural.trace_form": ("tmat", 1e-12),
    "structural.commuting_family": ("tmat", 1e-9),
    "structural.b_commute": ("yba", 1e-10),
    "structural.hamiltonian_commutes": ("ham", 1e-9),
    "structural.log_derivative_fit": ("ham", 1e-6),
    "dwbc.oracle_agreement": ("pf", 1e-9),
    "dwbc.permutation": ("pf", 1e-10),
    "dwbc.shift_invariance": ("pf", 1e-10),
    "dwbc.highest_weight": ("high", 1e-10),
    "dwbc.overflow_string": ("high", 1e-10),
    "dwbc.underflow_string": ("pf", 1e-12),
    "functional.tphi": ("tphi", 1e-9),
    "functional.fl": ("FL", 1e-8),
    "functional.k0_defined": ("pir", 1e-8),
    "functional.oracle.gamma": ("mn", 1e-12),
    "functional.oracle.omega": ("mn", 1e-12),
    "functional.oracle.m": ("coeff", 1e-12),
    "functional.oracle.n": ("coeff", 1e-12),
    "functional.oracle.v": ("VV", 1e-12),
    "theorem.expansion": ("Lgen", 1e-8),
    "theorem.k0_closed_form": ("LL2", 1e-8),
    "theorem.permutation": ("Lgen", 1e-9),
    "theorem.appendix": ({3: "cnd", 4: "cnd1"}, 1e-8),
    "theorem.appendix.V4_3210": ("cnd2", 1e-8),
    "zeros.reconstruction": ("wj", 1e-7),
    "zeros.at_zero": ("wj", 1e-7),
    "zeros.lz01_constancy": ("LZ01", 1e-6),
    "zeros.lz01_even_constant": ("LZ01", 1e-6),
    "zeros.coincidence": ("BAeven", 1e-6),
    "zeros.wronskian": ("CK", 1e-6),
    "zeros.wronskian_sharpness": ("CK", 1.0),
    "rou.unit_circle": ("rou", 1e-12),
    "rou.truncation": ("rou", 1e-9),
    "rou.inversion": ("r2", 1e-8),
    "rou.l3_relation": ("rs3", 1e-8),
    "rou.l3_form_agreement": ("r3", 1e-10),
    "rou.l4_relation": ("l4ex", 1e-8),
    "rou.q_periodicity": ("QQ", 1e-9),
    "rou.l4_ratio": ("BAl4", 1e-6),
    "rou.l4_at_zeros": ("l4ex", 1e-8),
    "rou.bethe": ("BAl3", 1e-6),
    "rou.bethe_l2": ("BAl2", 1e-6),
    "rou.truncated_expansion": ("lgen", 1e-8),
}


def _covers(key: str, name: str) -> bool:
    """A tolerance key covers a dotted check name when it is the name or
    one of its leading dotted parts, so ``rou.bethe`` covers
    ``rou.bethe.state3`` but not ``rou.bethe_l2.state3``."""
    return name == key or name.startswith(key + ".")


def _longest_cover(keys, name: str):
    """The longest of the keys covering a record name (see `_covers`), or
    None."""
    while name not in keys:
        if "." not in name:
            return None
        name = name.rsplit(".", 1)[0]
    return name


def _names_records(key: str) -> bool:
    """A tolerance key names records when it covers a family, or when what
    it adds to its longest covering family key is a suffix the runner
    writes: a state, a variable count, both, or an appendix identity."""
    fam = _longest_cover(FAMILIES, key)
    if fam is None:
        return any(_covers(key, f) for f in FAMILIES)
    return bool(re.fullmatch(r"(\.state\d+)?(\.n\d+)?|\.V\d+_\d+",
                             key[len(fam):]))


def _family(name: str) -> str:
    """The `FAMILIES` key of a record name."""
    key = _longest_cover(FAMILIES, name)
    if key is None:
        raise KeyError(f"no check family covers {name!r}")
    return key


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration of one verification run.  The anisotropy is
    a number or a root of unity; the inhomogeneities are "zero", "random"
    (drawn from the seed) or a tuple of L values."""

    L: int
    gamma: complex | RootOfUnitySpec = DEFAULT_GAMMA
    mu: str | tuple = "random"
    seed: int = 0
    suites: tuple | None = None
    tol_overrides: dict = field(default_factory=dict)
    draws: int = 5
    output_path: str = "report.txt"

    def __post_init__(self):
        at_root = isinstance(self.gamma, RootOfUnitySpec)
        if self.suites is None:
            default = SUITES if at_root else tuple(s for s in SUITES if s != "rou")
            object.__setattr__(self, "suites", default)
        if not 1 <= self.L <= L_CAP:
            raise ConfigError(f"size must be in [1, {L_CAP}], got {self.L}")
        if isinstance(self.mu, str):
            if self.mu not in ("zero", "random"):
                raise ConfigError(f"unknown mu {self.mu!r}")
        elif len(self.mu) != self.L:
            raise ConfigError("explicit mu list must have exactly L entries")
        bad = [s for s in self.suites if s not in SUITES]
        if bad:
            raise ConfigError(f"unknown suites: {bad}")
        if "rou" in self.suites and not at_root:
            raise ConfigError("the rou suite requires --root-of-unity")
        if self.draws < 1:
            raise ConfigError("draws must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        unknown = [key for key in self.tol_overrides if not _names_records(key)]
        if unknown:
            raise ConfigError(f"tolerance overrides match no check: {unknown}")

    def resolved_gamma(self) -> complex:
        if isinstance(self.gamma, RootOfUnitySpec):
            return self.gamma.gamma
        return self.gamma

    def digest(self) -> str:
        # the kinds of gamma and mu go in under their earlier mode names, and
        # an empty list unless mu is explicit, so that a config keeps the
        # digest its earlier reports carry
        at_root = isinstance(self.gamma, RootOfUnitySpec)
        explicit = not isinstance(self.mu, str)
        return digest_of(
            self.L, "root_of_unity" if at_root else "explicit",
            self.resolved_gamma(), "explicit" if explicit else self.mu,
            list(self.mu) if explicit else [], self.seed, list(self.suites),
            self.tol_overrides, self.draws)


def _worst(residuals) -> float:
    """The largest of the residuals, at least 0.0; a NaN among them is
    passed over, as in a running max from 0.0."""
    return max([0.0, *residuals])


def sample_params(config: RunConfig) -> ModelParams:
    """Deterministic model parameters for a run configuration."""
    gamma = config.resolved_gamma()
    if config.mu == "zero":
        mu = (0j,) * config.L
    elif config.mu == "random":
        rng = np.random.default_rng(config.seed)
        mu = sample_mu(config.L, gamma, rng)
    else:
        mu = config.mu
    return ModelParams(config.L, gamma, mu)


class _Runner:
    def __init__(self, config: RunConfig):
        self.config = config
        self.params = sample_params(config)
        self.rng = np.random.default_rng(config.seed + 1)
        self.digest = digest_of(
            self.params.L, self.params.gamma, list(self.params.mu), config.seed
        )
        self.reports: list[CheckReport] = []
        self._states = None
        self._spectral = None

    def resolve(self, name: str) -> tuple[str, float]:
        """The anchor and tolerance of a record: the anchor of its family,
        and the longest override key covering its name, else the default
        of its family."""
        anchor, tol = FAMILIES[_family(name)]
        if isinstance(anchor, dict):
            anchor = anchor[self.params.L]
        key = _longest_cover(self.config.tol_overrides, name)
        if key is not None:
            tol = self.config.tol_overrides[key]
        return anchor, float(tol)

    def add(self, name: str, residual: float, *, conjecture: bool = False):
        anchor, tol = self.resolve(name)
        self.reports.append(make_report(name, anchor, residual, tol,
                                        self.digest, conjecture=conjecture))

    def attempt(self, name: str | None, fn, *, conjecture: bool = False):
        """fn(), or None after recording the check `name` as failed
        (residual inf) when fn raises a SixVertexError.  With no name, the
        caller records the failures that the None stands for."""
        try:
            return fn()
        except SixVertexError:
            if name is not None:
                self.add(name, float("inf"), conjecture=conjecture)
            return None

    def guarded(self, name: str, fn, *, conjecture: bool = False):
        residual = self.attempt(name, fn, conjecture=conjecture)
        if residual is not None:
            self.add(name, residual, conjecture=conjecture)

    @property
    def states(self):
        if self._states is None:
            self._states = transfer_eigenstates(self.params, self.rng)
        return self._states

    def spectral_data(self):
        if self._spectral is None:
            defined = [st for st in self.states if st.k0_defined]
            rows = sample_values(defined, self.params).tolist()
            found = (self.attempt(f"zeros.reconstruction.state{st.index}",
                                  lambda st=st, row=row:
                                  extract_zeros(st, row, self.params))
                     for st, row in zip(defined, rows))
            self._spectral = [data for data in found if data is not None]
        return self._spectral

    # ------------------------------------------------------------------
    def run_structural(self):
        p = self.params
        rng = self.rng
        for name, val in special_value_residuals(p).items():
            self.add(f"structural.{name}", val)

        worst_ybe = worst_tw = worst_uni = 0.0
        for _ in range(self.config.draws):
            lam, mu_ = generic_points(2, rng)
            worst_ybe = max(worst_ybe, ybe_residual(lam, mu_, p))
            worst_tw = max(worst_tw, twist_symmetry_residual(lam, p))
            worst_uni = max(worst_uni, unitarity_residual(lam, p))
        self.add("structural.ybe", worst_ybe)
        self.add("structural.twist_symmetry", worst_tw)
        self.add("structural.unitarity", worst_uni)

        lam = generic_points(1, rng, avoid=p.mu)[0]
        full = full_product_residuals(lam, p)
        self.add("structural.block_assembly", full["block_assembly"])
        lam1, lam2 = generic_points(2, rng, avoid=p.mu)
        self.add("structural.rll", rll_residual(lam1, lam2, p))
        self.add("structural.action", full["action"])
        self.add("structural.trace_form", full["trace_form"])

        worst_comm = worst_b = 0.0
        for _ in range(self.config.draws):
            x, y = generic_points(2, rng, avoid=p.mu)
            worst_comm = max(worst_comm, commuting_residual(x, y, p))
            worst_b = max(worst_b, b_commute_residual(x, y, p))
        self.add("structural.commuting_family", worst_comm)
        self.add("structural.b_commute", worst_b)

        if p.L >= 2 and all(m == 0 for m in p.mu):
            for name, val in hamiltonian_residuals(lam, p).items():
                self.add(f"structural.{name}", val)

    def run_dwbc(self):
        p = self.params
        rng = self.rng
        worst = {}
        for _ in range(self.config.draws):
            lams = generic_points(p.L, rng, avoid=p.mu)
            perm = list(lams)
            rng.shuffle(perm)
            s = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            over = generic_points(p.L + 1, rng, avoid=p.mu)
            for key, val in draw_residuals(lams, perm, s, over, p).items():
                worst[key] = max(worst.get(key, 0.0), val)
        for key, val in worst.items():
            self.add(f"dwbc.{key}", val)
        under = generic_points(p.L - 1, rng, avoid=p.mu)
        self.add("dwbc.underflow_string", underflow_residual(under, p))

    def run_functional(self):
        p = self.params
        rng = self.rng
        for n in range(0, min(p.L, 3) + 1):
            vars_ = generic_points(n + 1, rng, avoid=p.mu)
            self.guarded(f"functional.tphi.n{n}",
                         lambda n=n, v=vars_: check_tphi(n, v, p))
        # one draw per order, shared by every state; the states are
        # diagonalized first, so their draws come before these
        states = self.states
        rows = []
        for n in range(0, p.L + 2):
            vars_ = generic_points(n + 1, rng, avoid=p.mu)
            rows.append(self.attempt(
                None, lambda n=n, v=vars_: check_fl(n, states, v, p)))
        for k, st in enumerate(states):
            for n, row in enumerate(rows):
                self.add(f"functional.fl.state{st.index}.n{n}",
                         float("inf") if row is None else row[k])
        self.add("functional.k0_defined",
                 sum(0 if st.k0_defined else 1 for st in states) / len(states))
        self._oracle_gates()

    def _oracle_gates(self):
        p = self.params
        rng = self.rng
        worst = {"gamma": 0.0, "omega": 0.0, "m": 0.0, "n": 0.0, "v": 0.0}
        for _ in range(self.config.draws):
            n = int(rng.integers(1, 5))
            v = generic_points(n + 1, rng)
            i = int(rng.integers(1, n + 1))
            pair = ((0, i), (i, 0))[int(rng.integers(0, 2))]
            i2 = j2 = None
            if n >= 2:
                i2 = int(rng.integers(1, n))
                j2 = int(rng.integers(i2 + 1, n + 1))
            nv = int(rng.integers(2, 6))
            vv = generic_points(nv, rng)
            mm = int(rng.integers(1, even_floor(nv) // 2 + 1))
            idx = tuple(sorted(rng.choice(nv, size=2 * mm, replace=False).tolist()))
            res = oracle_residuals(p, v, i=i, pair=pair, i2=i2, j2=j2,
                                   vv=vv, mm=mm, idx=idx)
            for key, val in res.items():
                worst[key] = max(worst[key], val)
        for key, val in worst.items():
            self.add(f"functional.oracle.{key}", val)

    def run_theorem(self):
        p = self.params
        rng = self.rng
        defined = [st for st in self.states if st.k0_defined]
        for _ in range(self.config.draws):
            vars_ = generic_points(p.L, rng, avoid=p.mu)
            res = self.attempt(None, lambda: check_theorem(defined, vars_, p))
            for k, st in enumerate(defined):
                self.add(f"theorem.expansion.state{st.index}",
                         float("inf") if res is None else res[k])
        vars_ = generic_points(p.L, rng, avoid=p.mu)
        self.add("theorem.permutation", theorem_permutation_residual(
            vars_, values(defined[:1], vars_)[0], p))
        if p.L == 2:
            self.add("theorem.k0_closed_form",
                     _worst(k0_closed_form_residual(defined, p)))
        if p.L in (3, 4):
            vars_ = generic_points(p.L, rng, avoid=p.mu)
            for name, val in sorted(check_appendix(p.L, vars_, p).items()):
                self.add(f"theorem.appendix.{name}", val)

    def run_zeros(self):
        p = self.params
        rng = self.rng
        if p.L < 2:
            return
        for data in self.spectral_data():
            st = data.state
            probe = generic_points(1, rng, avoid=p.mu)[0]
            self.add(f"zeros.reconstruction.state{st.index}",
                     reconstruction_residual(data, probe))
            scale_points = generic_points(5, rng, avoid=p.mu)
            self.add(f"zeros.at_zero.state{st.index}",
                     at_zero_residual(data, scale_points))
            draws = generic_points(max(5, self.config.draws), rng,
                                   avoid=list(data.zeros) + list(p.mu))
            name = f"zeros.lz01_constancy.state{st.index}"
            lz = self.attempt(name, lambda: check_lz01(data, draws, p))
            if lz is None:
                continue
            self.add(name, lz["spread"])
            if p.L % 2 == 0:
                self.add(f"zeros.lz01_even_constant.state{st.index}",
                         lz["constant_residual"])
            self.guarded(
                f"zeros.coincidence.state{st.index}",
                lambda d=data: check_zero_coincidence(d, p)["max_distance"],
            )
            self.guarded(
                f"zeros.wronskian.state{st.index}",
                lambda d=data: wronskian_residual(d, p),
            )
            self.guarded(
                f"zeros.wronskian_sharpness.state{st.index}",
                lambda d=data: wronskian_sharpness(d, p),
            )

    def run_rou(self):
        p = self.params
        rng = self.rng
        spec = self.config.gamma
        self.add("rou.unit_circle", spec.unit_residual)
        worst = 0.0
        for _ in range(self.config.draws):
            lam = generic_points(1, rng, avoid=p.mu)[0]
            worst = max(worst, check_truncation(spec, lam, p))
        self.add("rou.truncation", worst)
        lam = generic_points(1, rng, avoid=p.mu)[0]
        self.add("rou.truncated_expansion", _worst(
            truncated_expansion_residual(self.states, spec, p, lam)))

        draws = generic_points(10, rng, avoid=p.mu)
        if spec.l == 2:
            self.add("rou.inversion",
                     max(check_inversion_l2(self.states, p, draws)))
        if spec.l == 3:
            res = check_l3_relation(self.states, p, draws)
            self.add("rou.l3_relation", _worst(res["explicit_residual"]))
            self.add("rou.l3_form_agreement", _worst(res["form_agreement"]))
        if spec.l == 4:
            l4 = check_l4_relation(self.states, p, draws[:6])
        for data in self.spectral_data():
            st = data.state
            conj = spec.l >= 5
            self.guarded(
                f"rou.bethe.state{st.index}",
                lambda d=data: max((abs(x) for x in
                                    bethe_residual(d, spec, p)), default=0.0),
                conjecture=conj,
            )
            if spec.l == 2:
                self.guarded(
                    f"rou.bethe_l2.state{st.index}",
                    lambda d=data: max((abs(x) for x in
                                        bethe_residual_l2(d, p)), default=0.0),
                )
            if spec.l == 4:
                # a failed ratio equation records the state's relation as
                # inf and drops its other l = 4 records
                name = f"rou.l4_relation.state{st.index}"
                shifted = l4_shifted_values(data, p)
                ratios = self.attempt(
                    name, lambda: l4_ratio_residuals(data, shifted, p))
                if ratios is None:
                    continue
                self.add(name, l4["relation_residual"][st.index])
                self.add(f"rou.q_periodicity.state{st.index}",
                         l4["q_periodicity"])
                self.add(f"rou.l4_ratio.state{st.index}",
                         max((abs(x) for x in ratios), default=0.0))
                self.guarded(
                    f"rou.l4_at_zeros.state{st.index}",
                    lambda: max(l4_specialized_residuals(data, shifted, p),
                                default=0.0),
                )

    # ------------------------------------------------------------------
    def run(self) -> int:
        for suite in SUITES:
            if suite in self.config.suites:
                getattr(self, f"run_{suite}")()
        failed = [r for r in self.reports if r.verdict == FAIL]
        return 1 if failed else 0


def run(config: RunConfig):
    """Execute the configured suites; returns (exit_code, reports)."""
    runner = _Runner(config)
    code = runner.run()
    lines = [f"# sixvertex {__version__} config={config.digest()}"]
    lines += [r.line() for r in runner.reports]
    text = "\n".join(lines) + "\n"
    with open(config.output_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return code, runner.reports


def _parse_gamma(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError("--gamma expects RE,IM")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ConfigError(f"bad --gamma value: {text!r}") from exc


def _parse_root(text: str) -> RootOfUnitySpec:
    parts = text.split("/")
    if len(parts) != 2:
        raise ConfigError("--root-of-unity expects K/L")
    try:
        return RootOfUnitySpec(l=int(parts[1]), k=int(parts[0]))
    except ValueError as exc:
        raise ConfigError(f"bad --root-of-unity value {text!r}: {exc}") from exc


def _parse_mu(text: str):
    if text in ("zero", "random"):
        return text
    try:
        return tuple(complex(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --mu value: {text!r}") from exc


def build_config(argv) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="sixvertex-verify",
        description="Run verification suites for the twisted six-vertex "
                    "transfer matrix and the domain-wall partition function.",
    )
    parser.add_argument("--size", type=int, default=3, help="lattice size L")
    parser.add_argument("--gamma", default=None, metavar="RE,IM",
                        help="explicit anisotropy")
    parser.add_argument("--root-of-unity", default=None, metavar="K/L",
                        help="anisotropy i*pi*K/L")
    parser.add_argument("--mu", default="random",
                        help="zero | random | comma-separated complex list")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--suite", default=None,
                        help="comma-separated subset of: " + ",".join(SUITES))
    parser.add_argument("--tol", action="append", default=[],
                        metavar="NAME=VAL", help="tolerance override")
    parser.add_argument("--draws", type=int, default=5)
    parser.add_argument("--out", default="report.txt")
    args = parser.parse_args(argv)

    if args.gamma is not None and args.root_of_unity is not None:
        raise ConfigError("--gamma and --root-of-unity are mutually exclusive")
    if args.root_of_unity is not None:
        gamma = _parse_root(args.root_of_unity)
    else:
        gamma = _parse_gamma(args.gamma) if args.gamma else DEFAULT_GAMMA
    suites = None
    if args.suite:
        suites = tuple(s.strip() for s in args.suite.split(",") if s.strip())
    tols = {}
    for item in args.tol:
        if "=" not in item:
            raise ConfigError(f"bad --tol entry {item!r}")
        key, val = item.split("=", 1)
        try:
            tols[key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"bad --tol value {item!r}") from exc
    return RunConfig(
        L=args.size, gamma=gamma, mu=_parse_mu(args.mu), seed=args.seed,
        suites=suites, tol_overrides=tols, draws=args.draws,
        output_path=args.out,
    )


def main(argv=None) -> int:
    try:
        config = build_config(argv if argv is not None else sys.argv[1:])
        code, reports = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for rep in reports:
        print(rep.line())
    print(f"# wrote {config.output_path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
