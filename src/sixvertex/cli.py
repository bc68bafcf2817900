"""Verification suite runner and command-line interface."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .dwbc import b_product_state, check_highest_weight, z_bproduct, z_izergin
from .errors import ConfigError, SixVertexError
from .functional_system import (
    check_appendix,
    check_fl,
    check_theorem,
    check_tphi,
    even_floor,
    expansion_coeffs,
    gamma_coeff,
    k0_closed_form_residual,
    m_coeff,
    n_coeff,
    omega_coeff,
    theorem_rhs,
    transfer_eigenstates,
    v_coeff,
)
from .prefix_oracle import (
    oracle_gamma,
    oracle_m,
    oracle_n,
    oracle_omega,
    oracle_v,
)
from .report import CONJECTURE, FAIL, CheckReport, digest_of, make_report
from .roots_of_unity import (
    RootOfUnitySpec,
    bethe_residual,
    bethe_residual_l2,
    check_inversion_l2,
    check_l3_relation,
    check_l4_relation,
    check_truncation,
    l4_specialized_residuals,
    truncated_expansion_residual,
)
from .vertex_core import (
    ModelParams,
    action_residual,
    b_commute_residual,
    commuting_residual,
    full_product_residuals,
    generic_points,
    hamiltonian_commute_residual,
    is_generic,
    log_derivative_residual,
    monodromy,
    r_matrix,
    reference_states,
    rll_residual,
    sample_mu,
    twist_matrix,
    twist_symmetry_residual,
    unitarity_residual,
    weights,
    ybe_residual,
)
from .zeros import (
    SpectralData,
    check_lz01,
    check_zero_coincidence,
    extract_zeros,
    wronskian_coeffs,
)

SUITES = ("structural", "dwbc", "functional", "theorem", "zeros", "rou")

L_CAP = 8

DEFAULT_TOLS = {
    "structural.weights": 1e-12,
    "structural.r_at_origin": 1e-12,
    "structural.ybe": 1e-10,
    "structural.unitarity": 1e-10,
    "structural.twist_symmetry": 1e-12,
    "structural.twist_square": 1e-12,
    "structural.block_assembly": 1e-12,
    "structural.rll": 1e-9,
    "structural.action": 1e-10,
    "structural.trace_form": 1e-12,
    "structural.commuting_family": 1e-9,
    "structural.b_commute": 1e-10,
    "structural.hamiltonian_commutes": 1e-9,
    "structural.log_derivative_fit": 1e-6,
    "dwbc.oracle_agreement": 1e-9,
    "dwbc.permutation": 1e-10,
    "dwbc.shift_invariance": 1e-10,
    "dwbc.highest_weight": 1e-10,
    "dwbc.overflow_string": 1e-10,
    "dwbc.underflow_string": 1e-12,
    "functional.tphi": 1e-9,
    "functional.fl": 1e-8,
    "functional.k0_defined": 1e-8,
    "functional.oracle": 1e-12,
    "theorem.expansion": 1e-8,
    "theorem.k0_closed_form": 1e-8,
    "theorem.permutation": 1e-9,
    "theorem.appendix": 1e-8,
    "zeros.reconstruction": 1e-7,
    "zeros.at_zero": 1e-7,
    "zeros.lz01_constancy": 1e-6,
    "zeros.lz01_even_constant": 1e-6,
    "zeros.coincidence": 1e-6,
    "zeros.wronskian": 1e-6,
    "zeros.wronskian_sharpness": 1.0,
    "rou.unit_circle": 1e-12,
    "rou.truncation": 1e-9,
    "rou.inversion": 1e-8,
    "rou.l3_relation": 1e-8,
    "rou.l3_form_agreement": 1e-10,
    "rou.l4_relation": 1e-8,
    "rou.q_periodicity": 1e-9,
    "rou.l4_ratio": 1e-6,
    "rou.l4_at_zeros": 1e-8,
    "rou.bethe": 1e-6,
    "rou.bethe_l2": 1e-6,
    "rou.truncated_expansion": 1e-8,
}


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration of one verification run."""

    L: int
    gamma_mode: str  # "explicit" | "root_of_unity"
    gamma: complex = 0j
    root_k: int = 1
    root_l: int = 2
    mu_mode: str = "random"  # "zero" | "random" | "explicit"
    mu_values: tuple = ()
    seed: int = 0
    suites: tuple | None = None
    tol_overrides: dict = field(default_factory=dict)
    draws: int = 5
    output_path: str = "report.txt"

    def __post_init__(self):
        if self.suites is None:
            default = SUITES if self.gamma_mode == "root_of_unity" else \
                tuple(s for s in SUITES if s != "rou")
            object.__setattr__(self, "suites", default)
        if not 1 <= self.L <= L_CAP:
            raise ConfigError(f"size must be in [1, {L_CAP}], got {self.L}")
        if self.gamma_mode not in ("explicit", "root_of_unity"):
            raise ConfigError(f"unknown gamma mode {self.gamma_mode!r}")
        if self.gamma_mode == "root_of_unity":
            if self.root_l < 2:
                raise ConfigError("root-of-unity order l must be >= 2")
            if math.gcd(self.root_k, self.root_l) != 1:
                raise ConfigError("root-of-unity k and l must be coprime")
        if self.mu_mode not in ("zero", "random", "explicit"):
            raise ConfigError(f"unknown mu mode {self.mu_mode!r}")
        if self.mu_mode == "explicit" and len(self.mu_values) != self.L:
            raise ConfigError("explicit mu list must have exactly L entries")
        bad = [s for s in self.suites if s not in SUITES]
        if bad:
            raise ConfigError(f"unknown suites: {bad}")
        if "rou" in self.suites and self.gamma_mode != "root_of_unity":
            raise ConfigError("the rou suite requires --root-of-unity")
        if self.draws < 1:
            raise ConfigError("draws must be positive")

    def resolved_gamma(self) -> complex:
        if self.gamma_mode == "root_of_unity":
            return RootOfUnitySpec(self.root_l, self.root_k).gamma
        return self.gamma

    def digest(self) -> str:
        return digest_of(
            self.L, self.gamma_mode, self.resolved_gamma(), self.mu_mode,
            list(self.mu_values), self.seed, list(self.suites),
            self.tol_overrides, self.draws,
        )


def sample_params(config: RunConfig) -> ModelParams:
    """Deterministic model parameters for a run configuration."""
    gamma = config.resolved_gamma()
    if config.mu_mode == "zero":
        mu = (0j,) * config.L
    elif config.mu_mode == "explicit":
        mu = tuple(complex(m) for m in config.mu_values)
    else:
        rng = np.random.default_rng(config.seed)
        mu = sample_mu(config.L, gamma, rng)
    return ModelParams(config.L, gamma, mu, seed=config.seed)


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

    def tol(self, name: str) -> float:
        """Longest matching override prefix, else the default of the check
        family (the first two dotted parts of the name)."""
        best = None
        for key, val in self.config.tol_overrides.items():
            if name.startswith(key) and (best is None or len(key) > len(best[0])):
                best = (key, val)
        if best:
            return float(best[1])
        family = ".".join(name.split(".")[:2])
        if family not in DEFAULT_TOLS:
            raise KeyError(f"no default tolerance for check family {family!r}")
        return DEFAULT_TOLS[family]

    def add(self, name: str, anchor: str, residual: float, *,
            conjecture: bool = False, state_index: int | None = None):
        self.reports.append(
            make_report(name, anchor, residual, self.tol(name), self.digest,
                        conjecture=conjecture, state_index=state_index)
        )

    def guarded(self, name: str, anchor: str, fn, *, conjecture: bool = False,
                state_index: int | None = None):
        try:
            residual = fn()
        except SixVertexError as exc:
            self.reports.append(
                CheckReport(name, anchor, float("inf"), self.tol(name),
                            CONJECTURE if conjecture else FAIL,
                            self.digest, state_index)
            )
            return None
        self.add(name, anchor, residual, conjecture=conjecture,
                 state_index=state_index)
        return residual

    @property
    def states(self):
        if self._states is None:
            self._states = transfer_eigenstates(self.params, self.rng)
        return self._states

    def spectral_data(self):
        if self._spectral is None:
            out = []
            for st in self.states:
                if not st.k0_defined:
                    continue
                try:
                    out.append(extract_zeros(st, self.params))
                except SixVertexError:
                    self.add(f"zeros.reconstruction.state{st.index}", "wj",
                             float("inf"), state_index=st.index)
            self._spectral = out
        return self._spectral

    # ------------------------------------------------------------------
    def run_structural(self):
        p = self.params
        g = p.gamma
        rng = self.rng
        a0, b0, c0 = weights(0j, g)
        self.add("structural.weights", "rmat",
                 max(abs(b0), abs(a0 - c0), abs(weights(-g, g)[0])))
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0],
                         [0, 0, 0, 1]], dtype=complex)
        self.add("structural.r_at_origin", "rmat",
                 np.linalg.norm(r_matrix(0j, p) - np.sinh(g) * swap))
        self.add("structural.twist_square", "rmat",
                 np.linalg.norm(twist_matrix() @ twist_matrix() - np.eye(2)))

        worst_ybe = worst_tw = worst_uni = 0.0
        for _ in range(self.config.draws):
            lam, mu_ = generic_points(2, rng)
            worst_ybe = max(worst_ybe, ybe_residual(lam, mu_, p))
            worst_tw = max(worst_tw, twist_symmetry_residual(lam, p))
            worst_uni = max(worst_uni, unitarity_residual(lam, p))
        self.add("structural.ybe", "yba", worst_ybe)
        self.add("structural.twist_symmetry", "rmat", worst_tw)
        self.add("structural.unitarity", "rmat", worst_uni)

        lam = generic_points(1, rng, avoid=p.mu)[0]
        full = full_product_residuals(lam, p)
        self.add("structural.block_assembly", "abcd", full["block_assembly"])
        lam1, lam2 = generic_points(2, rng, avoid=p.mu)
        self.add("structural.rll", "yba", rll_residual(lam1, lam2, p))
        self.add("structural.action", "action", action_residual(lam, p))
        self.add("structural.trace_form", "tmat", full["trace_form"])

        worst_comm = worst_b = 0.0
        for _ in range(self.config.draws):
            x, y = generic_points(2, rng, avoid=p.mu)
            worst_comm = max(worst_comm, commuting_residual(x, y, p))
            worst_b = max(worst_b, b_commute_residual(x, y, p))
        self.add("structural.commuting_family", "tmat", worst_comm)
        self.add("structural.b_commute", "yba", worst_b)

        if p.L >= 2 and all(m == 0 for m in p.mu):
            self.add("structural.hamiltonian_commutes", "ham",
                     hamiltonian_commute_residual(lam, p))
            self.add("structural.log_derivative_fit", "ham",
                     log_derivative_residual(p))

    def run_dwbc(self):
        p = self.params
        rng = self.rng
        mu_generic = is_generic(p)
        worst_perm = worst_shift = worst_hw = worst_over = 0.0
        worst_oracle = 0.0
        for _ in range(self.config.draws):
            lams = generic_points(p.L, rng, avoid=p.mu)
            z = z_bproduct(lams, p)
            perm = list(lams)
            rng.shuffle(perm)
            worst_perm = max(worst_perm,
                             abs(z_bproduct(perm, p) - z) / max(abs(z), 1e-300))
            if mu_generic and p.L >= 2:
                zi = z_izergin(lams, p)
                worst_oracle = max(worst_oracle,
                                   abs(z - zi) / max(abs(zi), 1e-300))
            s = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            shifted = ModelParams(p.L, p.gamma, tuple(m + s for m in p.mu))
            zs = z_bproduct([x + s for x in lams], shifted)
            worst_shift = max(worst_shift, abs(zs - z) / max(abs(z), 1e-300))
            worst_hw = max(worst_hw, check_highest_weight(lams, p))
            over = generic_points(p.L + 1, rng, avoid=p.mu)
            vec = b_product_state(over, p)
            scale = np.prod([np.linalg.norm(monodromy(x, p).b_op, 2)
                             for x in over])
            worst_over = max(worst_over,
                             np.linalg.norm(vec) / max(scale, 1e-300))
        self.add("dwbc.permutation", "pf", worst_perm)
        if mu_generic and p.L >= 2:
            self.add("dwbc.oracle_agreement", "pf", worst_oracle)
        self.add("dwbc.shift_invariance", "pf", worst_shift)
        self.add("dwbc.highest_weight", "high", worst_hw)
        self.add("dwbc.overflow_string", "high", worst_over)
        if p.L >= 1:
            _, down = reference_states(p.L)
            under = generic_points(max(p.L - 1, 0), rng, avoid=p.mu)
            vec = b_product_state(under, p)
            self.add("dwbc.underflow_string", "pf",
                     abs(down @ vec) / max(np.linalg.norm(vec), 1e-300))

    def run_functional(self):
        p = self.params
        rng = self.rng
        for n in range(0, min(p.L, 3) + 1):
            vars_ = generic_points(n + 1, rng, avoid=p.mu)
            self.guarded(f"functional.tphi.n{n}", "tphi",
                         lambda n=n, v=vars_: check_tphi(n, v, p))
        for st in self.states:
            for n in range(0, p.L + 2):
                vars_ = generic_points(n + 1, rng, avoid=p.mu)
                self.guarded(
                    f"functional.fl.state{st.index}.n{n}", "FL",
                    lambda st=st, n=n, v=vars_: check_fl(n, st, v, p),
                    state_index=st.index,
                )
        self.add("functional.k0_defined", "pir",
                 sum(0 if st.k0_defined else 1 for st in self.states)
                 / len(self.states), )
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
            ref = gamma_coeff(i, pair[0], pair[1], v, p)
            alt = oracle_gamma(i, pair[0], pair[1], v, p)
            worst["gamma"] = max(worst["gamma"],
                                 abs(ref - alt) / max(abs(ref), 1e-300))
            ref = m_coeff(i, v, p)
            alt = oracle_m(i, v, p)
            worst["m"] = max(worst["m"], abs(ref - alt) / max(abs(ref), 1e-300))
            if n >= 2:
                i2 = int(rng.integers(1, n))
                j2 = int(rng.integers(i2 + 1, n + 1))
                ref = omega_coeff(i2, j2, v, p)
                alt = oracle_omega(i2, j2, v, p)
                worst["omega"] = max(worst["omega"],
                                     abs(ref - alt) / max(abs(ref), 1e-300))
                ref = n_coeff(j2, i2, v, p)
                alt = oracle_n(j2, i2, v, p)
                worst["n"] = max(worst["n"],
                                 abs(ref - alt) / max(abs(ref), 1e-300))
            nv = int(rng.integers(2, 6))
            vv = generic_points(nv, rng)
            mm = int(rng.integers(1, even_floor(nv) // 2 + 1))
            idx = tuple(sorted(rng.choice(nv, size=2 * mm, replace=False).tolist()))
            ref = v_coeff(mm, idx, vv, p)
            alt = oracle_v(mm, idx, vv, p)
            worst["v"] = max(worst["v"], abs(ref - alt) / max(abs(ref), 1e-300))
        for key, val in worst.items():
            self.add(f"functional.oracle.{key}", "mn" if key in ("gamma", "omega")
                     else ("coeff" if key in ("m", "n") else "VV"), val)

    def run_theorem(self):
        p = self.params
        rng = self.rng
        for _ in range(self.config.draws):
            vars_ = generic_points(p.L, rng, avoid=p.mu)
            # Z and the expansion coefficients do not depend on the state;
            # the drawn points are 0.02 apart in sinh, far from the 1e-4
            # poles of the coefficients
            z = z_bproduct(vars_, p)
            coeffs = expansion_coeffs(vars_, p)
            for st in self.states:
                if not st.k0_defined:
                    continue
                self.guarded(
                    f"theorem.expansion.state{st.index}", "Lgen",
                    lambda st=st, v=vars_, z=z, c=coeffs: check_theorem(
                        st, v, p, z_of=lambda _: z, coeffs=c),
                    state_index=st.index,
                )
        st = next(s for s in self.states if s.k0_defined)
        vars_ = generic_points(p.L, rng, avoid=p.mu)
        swapped = (vars_[1], vars_[0]) + vars_[2:] if p.L >= 2 else vars_
        rhs = theorem_rhs(vars_, st.lam, p)
        rhs_swapped = theorem_rhs(swapped, st.lam, p)
        self.add("theorem.permutation", "Lgen",
                 abs(rhs - rhs_swapped) / max(abs(rhs), 1e-300))
        if p.L == 2:
            worst = 0.0
            for s in self.states:
                if s.k0_defined:
                    worst = max(worst, k0_closed_form_residual(s, p))
            self.add("theorem.k0_closed_form", "LL2", worst)
        if p.L in (3, 4):
            vars_ = generic_points(p.L, rng, avoid=p.mu)
            res = check_appendix(p.L, vars_, p)
            anchor = "cnd" if p.L == 3 else "cnd1"
            for name, val in sorted(res.items()):
                self.add(f"theorem.appendix.{name}",
                         "cnd2" if name == "V4_3210" else anchor, val)

    def run_zeros(self):
        p = self.params
        rng = self.rng
        if p.L < 2:
            return

        def wronskian(data):
            coeffs, scale = wronskian_coeffs(data, p)
            return max(abs(c) for c in coeffs) / scale

        def sharpness(kicked):
            coeffs, scale = wronskian_coeffs(kicked, p)
            return 1e-3 * scale / max(abs(c) for c in coeffs)

        for data in self.spectral_data():
            st = data.state
            probe = generic_points(1, rng, avoid=p.mu)[0]
            ref = st.lam(probe)
            self.add(
                f"zeros.reconstruction.state{st.index}", "wj",
                abs(ref - data.lam_from_zeros(probe)) / max(abs(ref), 1e-300),
                state_index=st.index,
            )
            lam_scale = max(abs(st.lam(x))
                            for x in generic_points(5, rng, avoid=p.mu))
            self.add(
                f"zeros.at_zero.state{st.index}", "wj",
                max((abs(st.lam(w)) for w in data.zeros), default=0.0)
                / max(lam_scale, 1e-300),
                state_index=st.index,
            )
            draws = generic_points(max(5, self.config.draws), rng,
                                   avoid=list(data.zeros) + list(p.mu))
            try:
                lz = check_lz01(data, draws, p)
            except SixVertexError:
                self.add(f"zeros.lz01_constancy.state{st.index}", "LZ01",
                         float("inf"), state_index=st.index)
                continue
            self.add(f"zeros.lz01_constancy.state{st.index}", "LZ01",
                     lz["spread"], state_index=st.index)
            if p.L % 2 == 0:
                self.add(f"zeros.lz01_even_constant.state{st.index}", "LZ01",
                         lz["constant_residual"], state_index=st.index)
            self.guarded(
                f"zeros.coincidence.state{st.index}", "BAeven",
                lambda d=data: check_zero_coincidence(d, p)["max_distance"],
                state_index=st.index,
            )
            self.guarded(
                f"zeros.wronskian.state{st.index}", "CK",
                lambda d=data: wronskian(d),
                state_index=st.index,
            )
            kick = data.zeros[0] + 1e-2
            kicked = SpectralData(data.state, data.lambda0_value,
                                  (kick,) + data.zeros[1:], data.k0)
            self.guarded(
                f"zeros.wronskian_sharpness.state{st.index}", "CK",
                lambda d=kicked: sharpness(d),
                state_index=st.index,
            )

    def run_rou(self):
        p = self.params
        rng = self.rng
        spec = RootOfUnitySpec(self.config.root_l, self.config.root_k)
        self.add("rou.unit_circle", "rou", spec.unit_residual)
        worst = 0.0
        for _ in range(self.config.draws):
            lam = generic_points(1, rng, avoid=p.mu)[0]
            worst = max(worst, check_truncation(spec, lam, p))
        self.add("rou.truncation", "rou", worst)
        lam = generic_points(1, rng, avoid=p.mu)[0]
        self.add("rou.truncated_expansion", "lgen",
                 truncated_expansion_residual(self.states, spec, p, lam))

        draws = generic_points(10, rng, avoid=p.mu)
        if spec.l == 2:
            worst = max(check_inversion_l2(st, p, draws) for st in self.states)
            self.add("rou.inversion", "r2", worst)
        if spec.l == 3:
            worst_rel = worst_agree = 0.0
            for st in self.states:
                res = check_l3_relation(st, p, draws)
                worst_rel = max(worst_rel, res["explicit_residual"])
                worst_agree = max(worst_agree, res["form_agreement"])
            self.add("rou.l3_relation", "rs3", worst_rel)
            self.add("rou.l3_form_agreement", "r3", worst_agree)
        for data in self.spectral_data():
            st = data.state
            conj = spec.l >= 5
            self.guarded(
                f"rou.bethe.state{st.index}", "BAl3",
                lambda d=data: max((abs(x) for x in
                                    bethe_residual(d, spec, p)), default=0.0),
                conjecture=conj, state_index=st.index,
            )
            if spec.l == 2:
                self.guarded(
                    f"rou.bethe_l2.state{st.index}", "BAl2",
                    lambda d=data: max((abs(x) for x in
                                        bethe_residual_l2(d, p)), default=0.0),
                    state_index=st.index,
                )
            if spec.l == 4:
                try:
                    res = check_l4_relation(st, data, p, draws[:6])
                except SixVertexError:
                    self.add(f"rou.l4_relation.state{st.index}", "l4ex",
                             float("inf"), state_index=st.index)
                    continue
                self.add(f"rou.l4_relation.state{st.index}", "l4ex",
                         res["relation_residual"], state_index=st.index)
                self.add(f"rou.q_periodicity.state{st.index}", "QQ",
                         res["q_periodicity"], state_index=st.index)
                self.add(
                    f"rou.l4_ratio.state{st.index}", "BAl4",
                    max((abs(x) for x in res["ratio_residuals"]), default=0.0),
                    state_index=st.index,
                )
                self.guarded(
                    f"rou.l4_at_zeros.state{st.index}", "l4ex",
                    lambda s=st, d=data: max(
                        l4_specialized_residuals(s, d, p), default=0.0),
                    state_index=st.index,
                )

    # ------------------------------------------------------------------
    def run(self) -> int:
        order = [s for s in SUITES if s in self.config.suites]
        dispatch = {
            "structural": self.run_structural,
            "dwbc": self.run_dwbc,
            "functional": self.run_functional,
            "theorem": self.run_theorem,
            "zeros": self.run_zeros,
            "rou": self.run_rou,
        }
        for suite in order:
            dispatch[suite]()
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


def _parse_root(text: str):
    parts = text.split("/")
    if len(parts) != 2:
        raise ConfigError("--root-of-unity expects K/L")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"bad --root-of-unity value: {text!r}") from exc


def _parse_mu(text: str):
    if text in ("zero", "random"):
        return text, ()
    try:
        values = tuple(complex(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --mu value: {text!r}") from exc
    return "explicit", values


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
        k, l = _parse_root(args.root_of_unity)
        gamma_mode, gamma, root_k, root_l = "root_of_unity", 0j, k, l
    else:
        gamma_mode, root_k, root_l = "explicit", 1, 2
        gamma = _parse_gamma(args.gamma) if args.gamma else complex(0.6, 0.25)
    mu_mode, mu_values = _parse_mu(args.mu)
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
        L=args.size, gamma_mode=gamma_mode, gamma=gamma, root_k=root_k,
        root_l=root_l, mu_mode=mu_mode, mu_values=mu_values, seed=args.seed,
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
