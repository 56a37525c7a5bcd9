"""DP training: energy+force matching with double backprop (DeePMD-kit's loss).

The loss per frame is

    L = p_e(t) * (ΔE / N)^2  +  p_f(t) * |ΔF|^2 / (3N)

with the DeePMD prefactor schedule p(t) = p_limit + (p_start - p_limit) *
lr(t)/lr(0): force-dominated early, energy weight growing as the learning
rate decays.  The force term requires d(loss)/dθ of a quantity that is
itself a gradient (F = ProdForce(dE/dR~)); tfmini's graph-building autodiff
handles the double backprop (see tests/test_tfmini_autodiff.py).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import repro.tfmini as tf
from repro.dp.data import Dataset, LabeledFrame
from repro.dp.model import DeepPot
from repro.md.neighbor import neighbor_pairs
from repro.tfmini.ops import scale as tf_scale


@dataclass
class TrainConfig:
    n_steps: int = 1000
    lr_start: float = 2e-3
    lr_stop: float = 1e-5
    decay_steps: int = 200
    pref_e_start: float = 0.02
    pref_e_limit: float = 1.0
    pref_f_start: float = 1000.0
    pref_f_limit: float = 1.0
    # virial matching is optional (the paper's models train on E + F)
    pref_v_start: float = 0.0
    pref_v_limit: float = 0.0
    seed: int = 0
    log_every: int = 100

    @property
    def use_virial(self) -> bool:
        return self.pref_v_start > 0.0 or self.pref_v_limit > 0.0


@dataclass
class TrainRecord:
    step: int
    lr: float
    loss: float
    rmse_e_per_atom: float
    rmse_f: float


class Trainer:
    """Single-frame-batch Adam trainer for a DeepPot model.

    The forward+backward+double-backward loss graph executes through a
    compiled execution plan (:mod:`repro.tfmini.plan`) — topo-sorted once at
    first step, then a flat tape walk per step with persistent output
    buffers (frames of equal size share one arena).  ``use_plan=False``
    keeps the step on ``Session.run``, the bitwise reference oracle.
    """

    def __init__(
        self,
        model: DeepPot,
        dataset: Dataset,
        config: Optional[TrainConfig] = None,
        use_plan: bool = True,
    ):
        if len(dataset) == 0:
            raise ValueError("dataset is empty")
        self.model = model
        self.dataset = dataset
        self.config = config or TrainConfig()
        self.use_plan = use_plan
        self._plan = None  # compiled lazily: one topo_sort per trainer
        self._rng = np.random.default_rng(self.config.seed)

        decay_rate = self._decay_rate()
        self.schedule = tf.ExponentialDecay(
            start=self.config.lr_start,
            stop=self.config.lr_stop,
            decay_steps=self.config.decay_steps,
            rate=decay_rate,
        )
        self.optimizer = tf.Adam(lr=self.schedule)
        self._build_loss_graph()
        self.history: list[TrainRecord] = []

    def _decay_rate(self) -> float:
        """Rate such that lr decays from start to stop over n_steps."""
        c = self.config
        n_cycles = max(c.n_steps / max(c.decay_steps, 1), 1.0)
        return float((c.lr_stop / c.lr_start) ** (1.0 / n_cycles))

    def _build_loss_graph(self) -> None:
        m = self.model
        self.ph_e_label = tf.placeholder("e_label", dtype=np.float64)
        self.ph_f_label = tf.placeholder("f_label", dtype=np.float64)
        self.ph_pref_e = tf.placeholder("pref_e", dtype=np.float64)
        self.ph_pref_f = tf.placeholder("pref_f", dtype=np.float64)
        self.ph_inv_natoms = tf.placeholder("inv_natoms", dtype=np.float64)

        de = tf.sub(m.node_energy, self.ph_e_label)
        loss_e = tf.mul(tf.square(tf.mul(de, self.ph_inv_natoms)), self.ph_pref_e)
        df = tf.sub(m.node_forces, self.ph_f_label)
        loss_f = tf.mul(tf.reduce_mean(tf.square(df)), self.ph_pref_f)
        self.node_loss = tf.add(loss_e, loss_f)
        if self.config.use_virial:
            self.ph_v_label = tf.placeholder("v_label", dtype=np.float64)
            self.ph_pref_v = tf.placeholder("pref_v", dtype=np.float64)
            dv = tf.sub(m.node_virial, self.ph_v_label)
            loss_v = tf.mul(
                tf.mul(tf.reduce_sum(tf.square(dv)), self.ph_inv_natoms),
                self.ph_pref_v,
            )
            self.node_loss = tf.add(self.node_loss, loss_v)
        self.variables = m.trainable_variables()
        self.grad_nodes = tf.grad(self.node_loss, self.variables)
        # Variables untouched by a given center-type block yield None only if
        # disconnected; with all types present they are all connected.
        self._fetches = [self.node_loss, m.node_energy, m.node_forces] + [
            g if g is not None else tf.constant(0.0) for g in self.grad_nodes
        ]
        self._feed_nodes = (
            list(m.ph_env)
            + [m.ph_em_deriv, m.ph_rij, m.ph_nlist, m.ph_atom_idx, m.ph_natoms]
            + [
                self.ph_e_label,
                self.ph_f_label,
                self.ph_inv_natoms,
                self.ph_pref_e,
                self.ph_pref_f,
            ]
        )
        if self.config.use_virial:
            self._feed_nodes += [self.ph_v_label, self.ph_pref_v]

    @property
    def plan(self):
        """Compiled execution plan of the training-step fetches (lazy)."""
        if self._plan is None:
            self._plan = tf.compile_plan(
                self._fetches,
                self._feed_nodes,
                copy_fetches=False,
            )
        return self._plan

    # ---------------------------------------------------------------- feeding

    def _frame_feeds(self, frame: LabeledFrame):
        sysf = frame.system
        pi, pj = neighbor_pairs(sysf, self.model.config.rcut)
        feeds, _order = self.model.prepare_feeds(sysf, pi, pj)
        n = sysf.n_atoms
        # The graph energy excludes the per-type bias; shift the label instead.
        e_label = frame.energy - self.model.e0[sysf.types].sum()
        feeds[self.ph_e_label] = np.float64(e_label)
        feeds[self.ph_f_label] = frame.forces
        feeds[self.ph_inv_natoms] = np.float64(1.0 / n)
        lr_now = self.schedule(self.optimizer.step)
        lr_frac = lr_now / self.config.lr_start
        c = self.config
        feeds[self.ph_pref_e] = np.float64(
            c.pref_e_limit + (c.pref_e_start - c.pref_e_limit) * lr_frac
        )
        feeds[self.ph_pref_f] = np.float64(
            c.pref_f_limit + (c.pref_f_start - c.pref_f_limit) * lr_frac
        )
        if c.use_virial:
            feeds[self.ph_v_label] = frame.virial
            feeds[self.ph_pref_v] = np.float64(
                c.pref_v_limit + (c.pref_v_start - c.pref_v_limit) * lr_frac
            )
        return feeds, n

    # --------------------------------------------------------------- training

    def step(self) -> float:
        frame = self.dataset[self._rng.integers(len(self.dataset))]
        feeds, _n = self._frame_feeds(frame)
        if self.use_plan:
            out = self.plan.run(feeds, session=self.model.session)
        else:
            out = self.model.session.run(self._fetches, feeds)
        loss = float(out[0])
        grads = out[3:]
        self.optimizer.apply(self.variables, grads)
        return loss

    def train(self, n_steps: Optional[int] = None, verbose: bool = False) -> list[TrainRecord]:
        n_steps = n_steps or self.config.n_steps
        for k in range(n_steps):
            loss = self.step()
            if (k + 1) % self.config.log_every == 0 or k == n_steps - 1:
                rmse_e, rmse_f = self.evaluate_errors(max_frames=4)
                rec = TrainRecord(
                    step=self.optimizer.step,
                    lr=self.schedule(self.optimizer.step),
                    loss=loss,
                    rmse_e_per_atom=rmse_e,
                    rmse_f=rmse_f,
                )
                self.history.append(rec)
                if verbose:
                    print(
                        f"step {rec.step:6d} lr {rec.lr:.2e} loss {rec.loss:.3e} "
                        f"rmse_e/atom {rec.rmse_e_per_atom:.3e} rmse_f {rec.rmse_f:.3e}"
                    )
        return self.history

    # -------------------------------------------------------------- validation

    def evaluate_errors(
        self, dataset: Optional[Dataset] = None, max_frames: Optional[int] = None
    ) -> tuple[float, float]:
        """(RMSE of E/atom, RMSE of force components) over ``dataset``."""
        ds = dataset or self.dataset
        frames = ds.frames[:max_frames] if max_frames else ds.frames
        se, sf, ne, nf = 0.0, 0.0, 0, 0
        for frame in frames:
            sysf = frame.system
            pi, pj = neighbor_pairs(sysf, self.model.config.rcut)
            res = self.model.evaluate(sysf, pi, pj)
            se += ((res.energy - frame.energy) / sysf.n_atoms) ** 2
            ne += 1
            sf += float(((res.forces - frame.forces) ** 2).sum())
            nf += frame.forces.size
        return float(np.sqrt(se / max(ne, 1))), float(np.sqrt(sf / max(nf, 1)))
